"""Benchmark of the ``algebroids`` command line: seeded workloads, a correctness
gate on every command, and an outside-in per-layer trace.

Run from the repository root:

    python3 benchmarks/run.py --workload sa3_verify --seed 42 --seconds 55 --trace 0

Every CLI command runs in a fresh interpreter (``benchmarks/worker.py``), as it
does for a user, so a module-level cache cannot carry results from one
iteration into the next.  The benchmark seed is passed to every command as
its probe ``--seed``.

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``).  ``--trace 1`` runs one untraced iteration and then traced
ones, and reports the per-layer metrics (see ``benchmarks/README.md``).  The
last line of stdout is the result object; the line before it holds the
samples, failures and provenance.  Spans of traced runs are written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from tracer import COUNTERS, COUNTING, CUMULATIVE_PREFIXES, MAIN_SPAN, SPANS, layer_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
EXPECTED = json.loads((HERE / "expected.json").read_text())

SMALL_FIXTURES = ("action_x", "broken_jacobi", "chain", "sl2aff", "so3",
                  "so3_double", "solvable2d", "tangent_r2")
WORKLOADS = {
    "sa3_verify": [["verify", "sa3", "--suite", "all"]],
    "sa3_mu": [["mu", "sa3", "--morphism", "zero", "--h", "2"]],
    "sweep_dense": [["verify", name, "--suite", "all", "--points", "1000"]
                    for name in SMALL_FIXTURES],
}

# Set-up samples are spread over the run, so that their median sees the
# same machine phases as the iterations': MIN_SETUP_RUNS first, then one
# before an iteration whenever set-up has taken less than SETUP_SHARE of
# the run so far.
MIN_SETUP_RUNS = 3
SETUP_SHARE = 0.1
MIN_ITERATIONS = 3
PROBE_SEED_STRIDE = 1_000_003
MIN_TRACED_ITERATIONS = 2
# No iteration starts if it would end past HARD_LIMIT_S, and no process
# outlives RUN_LIMIT_S: a run must end within 180 s.
HARD_LIMIT_S = 140.0
RUN_LIMIT_S = 170.0


class BenchmarkError(RuntimeError):
    """No result can be measured: the package fails to load, or no iteration completes."""


def _worker(spec: dict, timeout: float) -> dict:
    env = dict(os.environ)
    # The workloads are single-threaded.  Left alone, numpy's BLAS starts one
    # thread per CPU at import, and on a shared host that start-up took
    # anywhere from 0.07 to 0.19 s, most of the noise in `setup_s`.  The
    # package only multiplies matrices of rank 11 or less, which BLAS runs
    # on one thread anyway.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise BenchmarkError(f"worker exited {proc.returncode}: {tail[0]}")
    result = json.loads(lines[-1])
    package = Path(result["package"]).resolve()
    if ROOT / "src" not in package.parents:
        raise BenchmarkError(f"imported algebroids from {package}, not from {ROOT / 'src'}")
    return result


def gate(argv: list[str], rc: int, stdout: str) -> list[str]:
    """Known answers for one command: exit status, each check's passed flag,
    and the class forms a dump must contain.  Residual values are not compared."""
    expected = EXPECTED[" ".join(argv[:2])]
    problems = []
    if rc != expected["exit"]:
        problems.append(f"exit {rc}, expected {expected['exit']}")
    try:
        report = json.loads(stdout)
        passed = {check["name"]: check["passed"] for check in report["checks"]}
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable report ({exc})"]
    problems += [f"missing check {name}" for name in expected["checks"] if name not in passed]
    for name in expected["must_fail"]:
        if passed.get(name, True):
            problems.append(f"{name} passed, expected to fail")
    if expected["others_pass"]:
        problems += [f"{name} failed" for name, ok in passed.items()
                     if not ok and name not in expected["must_fail"]]
    for form, degree in expected.get("forms", {}).items():
        dump = report.get("forms", {}).get(form, {})
        if dump.get("degree") != degree or not dump.get("coefficients"):
            problems.append(f"form {form} missing, empty or not of degree {degree}")
    return problems


class Run:
    """Commands of one workload, with the gate and byte-identity bookkeeping."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = perf_counter() + RUN_LIMIT_S
        self.digests: dict[tuple, str] = {}
        self.probe_seeds: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counts_repeat = True
        self.numpy = None

    def _time_left(self) -> float:
        return max(1.0, self.deadline - perf_counter())

    def commands(self, probe: int = 0) -> list[list[str]]:
        """The workload's commands with the probe seed of index `probe`:
        the benchmark seed itself for index 0."""
        probe_seed = (self.seed + probe * PROBE_SEED_STRIDE) % 2 ** 32
        return [argv + ["--seed", str(probe_seed)] for argv in WORKLOADS[self.workload]]

    def setup(self) -> float:
        fixtures = sorted({argv[1] for argv in self.commands()})
        result = _worker({"mode": "setup", "fixtures": fixtures}, self._time_left())
        self.numpy = result["numpy"]
        return result["setup_s"]

    def iteration(self, probe: int = 0, tag: str | None = None) -> list[dict]:
        """Run every command once; with a tag, trace them and keep span files."""
        results = []
        commands = self.commands(probe)
        self.probe_seeds.append(int(commands[0][-1]))
        for j, argv in enumerate(commands):
            spec = {"mode": "command", "argv": argv}
            if tag is not None:
                spec["spans"] = str(OUT / f"{tag}-c{j}.jsonl")
            self.attempted += 1
            try:
                result = _worker(spec, self._time_left())
            except (BenchmarkError, subprocess.TimeoutExpired, ValueError) as exc:
                self.failed += 1
                self.failures.append(f"{' '.join(argv)}: {exc}")
                results.append(None)
                continue
            self.numpy = result["numpy"]
            problems = gate(argv, result["rc"], result["stdout"])
            digest = hashlib.sha256(result["stdout"].encode()).hexdigest()
            if self.digests.setdefault(tuple(argv), digest) != digest:
                problems.append("report differs from an earlier run of the same command")
            if problems:
                self.failed += 1
                self.failures.append(f"{' '.join(argv)}: {'; '.join(problems)}")
            results.append(result)
        return results


def _loop(started: float, seconds: float, minimum: int, step) -> list:
    """Repeat `step` at least `minimum` times, then while the middle of the
    next iteration (sized by the median so far) falls within `seconds`, so
    that a run measures for `seconds` on average even when one iteration
    takes a sizeable part of it."""
    samples, durations = [], []
    while True:
        begun = perf_counter()
        samples.append(step(len(samples)))
        durations.append(perf_counter() - begun)
        elapsed = perf_counter() - started
        typical = statistics.median(durations)
        if elapsed + typical > HARD_LIMIT_S:
            break
        if len(samples) >= minimum and elapsed + typical / 2 > seconds:
            break
    return samples


def _wall(results: list) -> float | None:
    if any(r is None for r in results):
        return None
    return sum(r["wall_s"] for r in results)


def _median(values: list) -> float:
    values = [v for v in values if v is not None]
    if not values:
        raise BenchmarkError("no iteration completed every command")
    return statistics.median(values)


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    started = perf_counter()
    setup: list[float] = []
    setup_spent = 0.0

    def sample_setup() -> None:
        nonlocal setup_spent
        begun = perf_counter()
        setup.append(run.setup())
        setup_spent += perf_counter() - begun

    for _ in range(MIN_SETUP_RUNS):
        sample_setup()

    # Iterations 0 and 1 use the benchmark seed, so every run checks that a
    # report repeats byte for byte; each later one draws fresh probe inputs,
    # because the work of a command depends on its seed (random forms and
    # connections), and a median over several seeds keeps runs comparable.
    def step(i: int) -> list[dict]:
        while setup_spent < SETUP_SHARE * (perf_counter() - started):
            sample_setup()
        return run.iteration(max(0, i - 1))

    iterations = _loop(started, seconds, MIN_ITERATIONS, step)
    walls = [_wall(results) for results in iterations]
    rss = [max(r["peak_rss_mb"] for r in results) for results in iterations
           if all(r is not None for r in results)]
    metrics = {
        "wall_s": {"value": _median(walls), "unit": "s"},
        "setup_s": {"value": _median(setup), "unit": "s"},
        "peak_rss_mb": {"value": _median(rss), "unit": "MB"},
    }
    detail = {"wall_s_samples": walls, "setup_s_samples": setup,
              "peak_rss_mb_samples": rss, "iterations": len(iterations)}
    return metrics, detail


def _layer_iteration(results: list, tag: str) -> dict:
    """Per-layer seconds, calls and counters of one traced iteration."""
    seconds: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    for j, result in enumerate(results):
        if result is None:
            continue
        with open(OUT / f"{tag}-c{j}.jsonl") as handle:
            spans = [json.loads(line) for line in handle]
        span_seconds, span_calls = layer_times(spans)
        seconds.update(span_seconds)
        calls.update(span_calls)
        counts.update(result["counts"])
    return {"seconds": seconds, "calls": calls, "counts": counts,
            "wall_s": _wall(results),
            "missing": sorted({m for r in results if r for m in r["missing"]})}


def per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    started = perf_counter()
    untraced = _median([_wall(run.iteration())])
    tag = f"{run.workload}-seed{run.seed}"

    def traced(i: int) -> dict:
        return _layer_iteration(run.iteration(0, f"{tag}-i{i}"), f"{tag}-i{i}")

    layers = _loop(started, seconds, MIN_TRACED_ITERATIONS, traced)
    exact = [({n: it["calls"][n] for n in SPANS}, {n: it["counts"][n] for n in COUNTERS})
             for it in layers]
    run.counts_repeat = all(e == exact[0] for e in exact)
    calls, counters = exact[0]
    metrics = {}
    for name in SPANS:
        value = _median([it["seconds"][name] for it in layers])
        metrics[f"{name}_s"] = {"value": value, "unit": "s"}
        metrics[f"{name}_calls"] = {"value": calls[name], "unit": "count"}
    for name in COUNTERS:
        metrics[name] = {"value": counters[name], "unit": "count"}
    traced_wall = _median([it["wall_s"] for it in layers])
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced, "unit": "s"}
    # Shares of the traced wall time, self-timed layers only; the rest is
    # CLI and glue code outside every traced span, plus counting.
    shares = {name: _median([it["seconds"][name] / it["wall_s"] for it in layers
                             if it["wall_s"]])
              for name in SPANS if not name.startswith(CUMULATIVE_PREFIXES)}
    shares["unattributed"] = 1.0 - sum(shares.values())
    detail = {
        "iterations": len(layers),
        "untraced_wall_s": untraced,
        "traced_wall_s_samples": [it["wall_s"] for it in layers],
        "counting_s": _median([it["seconds"][COUNTING] for it in layers]),
        "main_self_s": _median([it["seconds"][MAIN_SPAN] for it in layers]),
        "self_time_shares": shares,
        "counts_repeat": run.counts_repeat,
        "missing_targets": layers[0]["missing"],
        "spans": f".bench_out/{tag}-i*-c*.jsonl",
    }
    return metrics, detail


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(run: Run) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": run.numpy,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "seed": run.seed,
        "probe_seeds": run.probe_seeds,
        "commands": [" ".join(argv[:-2]) for argv in run.commands()],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "algebroids" / "cli.py").is_file():
        sys.stderr.write(f"error: no algebroids sources under {ROOT / 'src'}\n")
        return 2
    run = Run(args.workload, args.seed)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, detail = measure(run, args.seconds)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    detail.update({
        "workload": args.workload,
        "trace": args.trace,
        "fail_ratio": run.failed / run.attempted,
        "failures": run.failures[:20],
        "provenance": provenance(run),
    })
    print(json.dumps(detail, sort_keys=True))
    correct = run.failed == 0 and run.counts_repeat
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
