"""Fixture files: named charts, morphisms, metrics, and kernel frames.

Schema (JSON, frame and bracket indices are 1-based):
  base       {"coords": [names]}
  algebroids {name: {"basis": [names], "anchor": [[expr..], ..],
                     "brackets": [{"i": int, "j": int, "coeffs": {"k": expr}}]}}
  morphisms  {name: {"from": name, "to": name, "matrix": [[expr..], ..]}}
  metrics    {name: {"on": algebroid, "matrix": [[expr..], ..]}}
  kernels    {morphism: {"ker": [[expr..], ..], "coker": [[expr..], ..]}}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .algebroid import AlgebroidChart, Morphism
from .connections import QuasiMetric
from .expressions import ExpressionError, ScalarField, parse_expression
from .sampling import first_point, sample_points


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

    def metric_for(self, chart_name: str) -> QuasiMetric:
        """Named metric on a chart if present, identity otherwise."""
        for on, metric in self.metrics.values():
            if on == chart_name:
                return metric
        return QuasiMetric.identity(self.charts[chart_name].rank)

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


def _parse_matrix(rows, coords, expect_shape: tuple[int, int], where: str):
    n_rows, n_cols = expect_shape
    if len(rows) != n_rows or any(len(row) != n_cols for row in rows):
        raise FixtureError(
            f"{where}: expected a {n_rows}x{n_cols} matrix, "
            f"got {len(rows)} rows of lengths {[len(r) for r in rows]}"
        )
    return [[_parse_entry(e, coords, f"{where}[{r + 1}][{c + 1}]")
             for c, e in enumerate(row)] for r, row in enumerate(rows)]


def load_fixture(path: str | Path) -> Fixture:
    """Load and shape-check a fixture file; all expressions are parsed eagerly."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FixtureError(f"{path}: not valid JSON ({exc})") from exc
    if "base" not in raw or "coords" not in raw["base"]:
        raise FixtureError(f"{path}: missing base.coords")
    coords = tuple(raw["base"]["coords"])
    fixture = Fixture(path.stem, coords)
    for name, spec in raw.get("algebroids", {}).items():
        basis = spec.get("basis")
        if not basis:
            raise FixtureError(f"algebroid {name!r}: missing basis")
        rank = len(basis)
        anchor = _parse_matrix(spec.get("anchor", []), coords,
                               (rank, len(coords)), f"algebroid {name!r} anchor")
        brackets: dict[tuple[int, int], dict[int, ScalarField]] = {}
        for entry in spec.get("brackets", []):
            try:
                i, j = int(entry["i"]) - 1, int(entry["j"]) - 1
            except (KeyError, TypeError, ValueError):
                raise FixtureError(f"algebroid {name!r}: bracket needs integer i, j")
            coeffs = {}
            for k, expr in entry.get("coeffs", {}).items():
                coeffs[int(k) - 1] = _parse_entry(
                    expr, coords, f"algebroid {name!r} bracket ({i + 1},{j + 1})"
                )
            if not (0 <= i < rank and 0 <= j < rank) or \
               any(not 0 <= k < rank for k in coeffs):
                raise FixtureError(
                    f"algebroid {name!r}: bracket indices out of range for rank {rank}"
                )
            key = (i, j)
            merged = brackets.setdefault(key, {})
            merged.update(coeffs)
        try:
            fixture.charts[name] = AlgebroidChart(name, coords, basis, anchor, brackets)
        except ValueError as exc:
            raise FixtureError(f"algebroid {name!r}: {exc}") from exc
    for name, spec in raw.get("morphisms", {}).items():
        source_name, target_name = spec.get("from"), spec.get("to")
        if source_name not in fixture.charts:
            raise FixtureError(f"morphism {name!r}: unknown source {source_name!r}")
        if target_name not in fixture.charts:
            raise FixtureError(f"morphism {name!r}: unknown target {target_name!r}")
        source = fixture.charts[source_name]
        target = fixture.charts[target_name]
        matrix = _parse_matrix(spec.get("matrix", []), coords,
                               (source.rank, target.rank), f"morphism {name!r}")
        fixture.morphisms[name] = Morphism(source, target, matrix, name)
    for name, spec in raw.get("metrics", {}).items():
        on = spec.get("on")
        if on not in fixture.charts:
            raise FixtureError(f"metric {name!r}: unknown algebroid {on!r}")
        rank = fixture.charts[on].rank
        matrix = _parse_matrix(spec.get("matrix", []), coords, (rank, rank),
                               f"metric {name!r}")
        metric = QuasiMetric(rank, 1, matrix)
        points = sample_points(len(coords), 5, 3)
        point = first_point(~np.isfinite(metric.values(points)), points)
        if point is not None:
            raise FixtureError(f"metric {name!r} is not finite at probe point {point}")
        if metric.symmetry_residual(points) > 1e-9:
            raise FixtureError(f"metric {name!r} is not symmetric")
        fixture.metrics[name] = (on, metric)
    for morphism_name, spec in raw.get("kernels", {}).items():
        if morphism_name not in fixture.morphisms:
            raise FixtureError(f"kernels: unknown morphism {morphism_name!r}")
        phi = fixture.morphisms[morphism_name]
        ker = [
            [_parse_entry(e, coords, f"kernel of {morphism_name!r}") for e in row]
            for row in spec.get("ker", [])
        ]
        coker = [
            [_parse_entry(e, coords, f"cokernel of {morphism_name!r}") for e in row]
            for row in spec.get("coker", [])
        ]
        for row in ker:
            if len(row) != phi.source.rank:
                raise FixtureError(
                    f"kernel rows of {morphism_name!r} must have length {phi.source.rank}"
                )
        for row in coker:
            if len(row) != phi.target.rank:
                raise FixtureError(
                    f"cokernel rows of {morphism_name!r} must have length {phi.target.rank}"
                )
        fixture.kernels[morphism_name] = (ker, coker)
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
