"""One benchmark process: set-up timing, or one CLI command in a fresh interpreter.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 benchmarks/worker.py '{"mode": "setup", "fixtures": ["sa3"]}'
    python3 benchmarks/worker.py '{"mode": "command", "argv": [...], "spans": PATH}'

``setup`` times importing numpy and ``algebroids`` and loading each fixture.
``command`` times ``algebroids.cli.main(argv)`` after import, with stdout
captured; with ``spans`` set, the package is traced and the spans are written
to that file.  The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter


def _setup(fixtures: list[str]) -> dict:
    start = perf_counter()
    import numpy
    import algebroids.cli
    from algebroids.fixtures import resolve_fixture

    for name in fixtures:
        resolve_fixture(name)
    seconds = perf_counter() - start
    return {"setup_s": seconds, "numpy": numpy.__version__,
            "package": algebroids.cli.__file__}


def _command(argv: list[str], spans_path: str | None) -> dict:
    import numpy
    import algebroids.cli

    tracer = None
    if spans_path:
        from tracer import MAIN_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        start = perf_counter()
        if tracer is not None:
            main_span = tracer.begin(MAIN_SPAN)
        rc = algebroids.cli.main(argv)
        if tracer is not None:
            tracer.end(main_span)
        wall = perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"rc": rc, "wall_s": wall, "peak_rss_mb": peak_kb / 1024.0,
              "stdout": captured.getvalue(), "numpy": numpy.__version__,
              "package": algebroids.cli.__file__}
    if tracer is not None:
        tracer.write(spans_path)
        result["counts"] = tracer.totals()
        result["missing"] = tracer.missing
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "setup":
        result = _setup(spec["fixtures"])
    else:
        result = _command(spec["argv"], spec.get("spans"))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
