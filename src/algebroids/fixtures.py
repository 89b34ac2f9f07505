"""Fixture files: named charts, morphisms, metrics, and kernel frames.

Schema (JSON, frame and bracket indices are 1-based):
  base       {"coords": [names]}
  algebroids {name: {"basis": [names], "anchor": [[expr..], ..],
                     "brackets": [{"i": int, "j": int, "coeffs": {"k": expr}}]}}
  morphisms  {name: {"from": name, "to": name, "matrix": [[expr..], ..]}}
  metrics    {name: {"on": algebroid, "matrix": [[expr..], ..]}}, one per algebroid
  kernels    {morphism: {"ker": [[expr..], ..], "coker": [[expr..], ..]}}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .algebroid import AlgebroidChart, Morphism
from .connections import QuasiMetric
from .expressions import ExpressionError, ScalarField, parse_expression


class FixtureError(ValueError):
    """Malformed fixture file: parse failure, bad shape, or dangling name."""


@dataclass
class Fixture:
    name: str
    coords: tuple[str, ...]
    charts: dict[str, AlgebroidChart] = field(default_factory=dict)
    morphisms: dict[str, Morphism] = field(default_factory=dict)
    metrics: dict[str, tuple[str, QuasiMetric]] = field(default_factory=dict)
    kernels: dict[str, tuple[list, list]] = field(default_factory=dict)

    def chart(self, name: str) -> AlgebroidChart:
        try:
            return self.charts[name]
        except KeyError:
            raise FixtureError(f"fixture {self.name!r} has no algebroid {name!r}")

    def morphism(self, name: str) -> Morphism:
        try:
            return self.morphisms[name]
        except KeyError:
            raise FixtureError(f"fixture {self.name!r} has no morphism {name!r}")

    def metric_for(self, chart_name: str, identity: QuasiMetric | None = None) -> QuasiMetric:
        """The chart's metric (at most one, checked on load); otherwise `identity`,
        by default a new identity metric of the chart's rank."""
        for on, metric in self.metrics.values():
            if on == chart_name:
                return metric
        return identity or QuasiMetric.identity(self.charts[chart_name].rank)

    def kernel_rows(self, morphism_name: str) -> tuple[list, list]:
        return self.kernels.get(morphism_name, ([], []))


def _parse_entry(text, coords, where: str) -> ScalarField:
    if not isinstance(text, str):
        raise FixtureError(f"{where}: expressions must be strings, got {text!r}")
    try:
        return parse_expression(text, coords)
    except ExpressionError as exc:
        raise FixtureError(f"{where}: {exc}") from exc
    except (ArithmeticError, ValueError) as exc:  # e.g. 10^400, exp(1000), 0^-1
        raise FixtureError(f"{where}: cannot fold the constants of {text!r}: {exc}") from exc


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise FixtureError(f"{where}: expected a JSON object, got {value!r}")
    return value


def _rows(value, where: str) -> list:
    """A JSON list of lists; a string is not a matrix."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise FixtureError(f"{where}: expected a list of rows, got {value!r}")
    return value


def _names(value, where: str) -> tuple[str, ...]:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)
            and len(set(value)) == len(value)):
        raise FixtureError(f"{where}: expected a list of distinct names, got {value!r}")
    return tuple(value)


def _known(name, table: dict, what: str, where: str):
    if not isinstance(name, str) or name not in table:
        raise FixtureError(f"{where}: unknown {what} {name!r}")
    return table[name]


def _parse_matrix(rows, coords, expect_shape: tuple[int, int], where: str):
    n_rows, n_cols = expect_shape
    if len(_rows(rows, where)) != n_rows or any(len(row) != n_cols for row in rows):
        raise FixtureError(
            f"{where}: expected a {n_rows}x{n_cols} matrix, "
            f"got {len(rows)} rows of lengths {[len(r) for r in rows]}"
        )
    return [[_parse_entry(e, coords, f"{where}[{r + 1}][{c + 1}]")
             for c, e in enumerate(row)] for r, row in enumerate(rows)]


def _json_int(value) -> int:
    """A JSON integer as it is; a float, a boolean or a numeric string is a TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _brackets(entries, rank: int, coords, where: str) -> dict:
    """Frame brackets {(i, j): {k: coefficient}} from 1-based JSON entries, one per pair."""
    if not isinstance(entries, list):
        raise FixtureError(f"{where}: brackets must be a list, got {entries!r}")
    brackets: dict[tuple[int, int], dict[int, ScalarField]] = {}
    for entry in entries:
        try:
            i, j = _json_int(entry["i"]) - 1, _json_int(entry["j"]) - 1
            keyed = [(int(k) - 1, k, text) for k, text in entry.get("coeffs", {}).items()]
        except (AttributeError, KeyError, TypeError, ValueError):
            raise FixtureError(f"{where}: bracket {entry!r} needs integer i and j "
                               "and coefficients keyed by integers")
        texts, keys = {}, {}
        for k, key, text in keyed:  # "2" and "02" name one index
            if k in texts:
                raise FixtureError(f"{where}: bracket ({i + 1},{j + 1}) keys {keys[k]!r} "
                                   f"and {key!r} name coefficient {k + 1} twice")
            texts[k], keys[k] = text, key
        coeffs = {k: _parse_entry(text, coords, f"{where} bracket ({i + 1},{j + 1})")
                  for k, text in texts.items()}
        if not (0 <= i < rank and 0 <= j < rank) or any(not 0 <= k < rank for k in coeffs):
            raise FixtureError(f"{where}: bracket indices out of range for rank {rank}")
        if (i, j) in brackets or (j, i) in brackets:
            raise FixtureError(f"{where}: bracket ({i + 1},{j + 1}) repeats the pair "
                               f"{{{min(i, j) + 1},{max(i, j) + 1}}}")
        brackets[(i, j)] = coeffs
    return brackets


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The members of one JSON object; json.loads would keep the last of two equal keys."""
    table = {}
    for key, value in pairs:
        if key in table:
            raise FixtureError(f"key {key!r} repeats in one JSON object")
        table[key] = value
    return table


def load_fixture(path: str | Path) -> Fixture:
    """Load and shape-check a fixture file; all expressions are parsed eagerly.

    Malformed structure is a FixtureError that names its section.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(), object_pairs_hook=_unique_keys)
    except OSError as exc:  # a directory, a missing or an unreadable file
        raise FixtureError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FixtureError(f"{path}: not valid JSON ({exc})") from exc
    except FixtureError as exc:
        raise FixtureError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict) or "coords" not in _object(raw.get("base", {}), "base"):
        raise FixtureError(f"{path}: missing base.coords")
    coords = _names(raw["base"]["coords"], "base.coords")
    fixture = Fixture(path.stem, coords)
    for name, spec in _object(raw.get("algebroids", {}), "algebroids").items():
        where = f"algebroid {name!r}"
        basis = _names(_object(spec, where).get("basis", []), f"{where} basis")
        if not basis:
            raise FixtureError(f"{where}: missing basis")
        rank = len(basis)
        anchor = _parse_matrix(spec.get("anchor", []), coords, (rank, len(coords)),
                               f"{where} anchor")
        brackets = _brackets(spec.get("brackets", []), rank, coords, where)
        try:
            fixture.charts[name] = AlgebroidChart(name, coords, basis, anchor, brackets)
        except ValueError as exc:
            raise FixtureError(f"{where}: {exc}") from exc
    for name, spec in _object(raw.get("morphisms", {}), "morphisms").items():
        where = f"morphism {name!r}"
        source = _known(_object(spec, where).get("from"), fixture.charts, "source", where)
        target = _known(spec.get("to"), fixture.charts, "target", where)
        matrix = _parse_matrix(spec.get("matrix", []), coords,
                               (source.rank, target.rank), where)
        fixture.morphisms[name] = Morphism(source, target, matrix, name)
    for name, spec in _object(raw.get("metrics", {}), "metrics").items():
        where = f"metric {name!r}"
        on = _object(spec, where).get("on")
        rank = _known(on, fixture.charts, "algebroid", where).rank
        for other, (other_on, _) in fixture.metrics.items():
            if other_on == on:
                raise FixtureError(f"{where}: algebroid {on!r} already has metric {other!r}")
        matrix = _parse_matrix(spec.get("matrix", []), coords, (rank, rank), where)
        fixture.metrics[name] = (on, QuasiMetric(rank, 1, matrix))
    for name, spec in _object(raw.get("kernels", {}), "kernels").items():
        phi = _known(name, fixture.morphisms, "morphism", "kernels")
        spec = _object(spec, f"kernels of {name!r}")
        rows = []
        for key, label, length in (("ker", "kernel", phi.source.rank),
                                   ("coker", "cokernel", phi.target.rank)):
            where = f"{label} of {name!r}"
            found = _rows(spec.get(key, []), where)
            if any(len(row) != length for row in found):
                raise FixtureError(f"{label} rows of {name!r} must have length {length}")
            rows.append([[_parse_entry(e, coords, where) for e in row] for row in found])
        fixture.kernels[name] = (rows[0], rows[1])
    return fixture


def builtin_fixture_names() -> list[str]:
    files = resources.files("algebroids").joinpath("data")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def builtin_fixture_path(name: str) -> Path:
    files = resources.files("algebroids").joinpath("data")
    candidate = files.joinpath(f"{name}.json")
    with resources.as_file(candidate) as path:
        if not path.exists():
            raise FixtureError(
                f"unknown bundled fixture {name!r}; available: {builtin_fixture_names()}"
            )
        return Path(path)


def resolve_fixture(spec: str | Path) -> Fixture:
    """Load from a path, or fall back to a bundled fixture name."""
    path = Path(spec)
    if path.exists():
        return load_fixture(path)
    return load_fixture(builtin_fixture_path(str(spec)))
