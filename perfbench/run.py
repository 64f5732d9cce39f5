"""Run one perfbench workload and print its result as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload survey --seed 1 --seconds 15 --trace 0

Inputs are generated from ``--seed`` before set-up and are not timed.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same work with the benchmark's spans and the program's ``repro.obs``
registry installed, prints the per-layer table, and reports the
per-layer metrics instead.  The last line of standard output is always
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: the workloads, the metrics with their units,
    and the run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src``, or fail loudly."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no repro sources under {src}; run from a checkout"
        )
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, "
            f"not from {src}"
        )


def _workload(name: str):
    if name == "survey":
        import survey_workload as module
    elif name == "resurvey":
        import resurvey_workload as module
    else:
        import serve_workload as module
    return module


def _result(outcome, trace: bool, spec: dict) -> dict:
    """The result line; every metric of the mode, in the listed order.

    A per-layer metric whose layer does not run on the workload reads 0.
    """
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = outcome.layers if trace else outcome.metrics
    unknown = set(measured) - {metric["name"] for metric in wanted}
    if unknown:
        raise RuntimeError(f"unlisted metrics {sorted(unknown)}")
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if not trace and name not in measured:
            raise RuntimeError(f"end-to-end metric {name} not measured")
        value, measured_unit = measured.get(name, (0.0, unit))
        if measured_unit != unit:
            raise RuntimeError(f"{name}: unit {measured_unit}, listed {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def main(argv: "list[str] | None" = None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=[workload["name"] for workload in spec["workloads"]],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"])
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _bootstrap()
    module = _workload(args.workload)
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    (workdir / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(workdir / "tmp")
    try:
        outcome = module.run(
            args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still works there
    for line in outcome.report:
        print(line)
    # Traced runs print their own end-to-end figures too, so the cost of
    # tracing can be read off against an untraced run.
    print("end-to-end: " + ", ".join(
        f"{name} {value:.6g} {unit}"
        for name, (value, unit) in outcome.metrics.items()
    ))
    for name, (passed, details) in outcome.checks.items():
        print(f"[{'ok' if passed else 'FAIL'}] {name}: {'; '.join(details)}")
    print(json.dumps(_result(outcome, bool(args.trace), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
