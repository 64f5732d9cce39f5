"""Repeat workloads over seeds and print each end-to-end metric's median
and quartiles, the way the benchmark's steadiness is judged.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads survey,serve]
        [--out runs.jsonl]

Workloads default to those ``BENCHMARK.json`` lists, and every run is
untraced and measures its ``run_seconds``.  Runs are sequential.  Each
run's result line is appended to ``--out`` (when given) as
``{"workload", "seed", "result"}``.  The spread is the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as
a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from run import benchmark_spec

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run in a child process; its result line."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def table(rows: list[dict]) -> str:
    """Median, quartiles and spread per workload and metric."""
    by_key: dict = {}
    shares: dict = {}
    for row in rows:
        result = row["result"]
        shares.setdefault(row["workload"], set()).add(
            (result["failed"], result["attempted"])
        )
        for name, metric in result["metrics"].items():
            by_key.setdefault((row["workload"], name, metric["unit"]), []).append(
                metric["value"]
            )
    lines = [
        "| workload | metric | unit | runs | median | Q1 | Q3 | (Q3-Q1)/median |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for (workload, name, unit), values in by_key.items():
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / med if med else float("nan")
        lines.append(
            f"| {workload} | {name} | {unit} | {len(values)} | {med:.4g} | "
            f"{q1:.4g} | {q3:.4g} | {spread:.3f} |"
        )
    for workload, pairs in shares.items():
        # The share must be the same in every run, not just close.
        distinct = sorted({Fraction(f, a) for f, a in pairs})
        lines.append(
            f"\n{workload}: failed share {', '.join(map(str, distinct))} "
            f"over {len(pairs)} distinct (failed, attempted) pairs"
        )
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument(
        "--workloads",
        default=",".join(workload["name"] for workload in spec["workloads"]),
    )
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    rows = []
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"])
            row = {"workload": workload, "seed": seed, "result": result}
            rows.append(row)
            if args.out is not None:
                with args.out.open("a") as handle:
                    handle.write(json.dumps(row) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr)
    print(table(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
