"""Survey-scale parsing throughput: per-record loop vs ``parse_many``.

Section 6 parses the WHOIS records of the full com zone (102M domains)
with an already-trained model, so parse throughput -- not training time --
bounds the survey.  This bench times the three ways to run that workload:

- the per-record ``parse()`` loop (the naive baseline);
- ``parse_many`` in one process (batched Viterbi + memoized line
  encoding, the steady-state survey path);
- ``parse_many`` sharded over worker processes (``jobs=2`` and
  ``jobs=4``).

It also times worker *spin-up* on the spawn path, where an
``mmap=True``-loaded model ships to each worker as a small file
descriptor instead of pickled weight bytes.

All paths must produce identical :class:`ParsedRecord` outputs; the
speedup lines printed at the end are the bench's deliverable.  Scale with
``REPRO_BENCH_TRAIN`` / ``REPRO_BENCH_TEST`` (see conftest).  Set
``REPRO_BENCH_HOTPATH`` to a path to archive the timings as JSON (the
``BENCH_hotpath.json`` CI artifact).
"""

import json
import os
import pickle
import time

import pytest
from conftest import TEST_SIZE, emit

from repro import obs
from repro.parser import WhoisParser

#: wall-clock minima, keyed by path name, for the closing summary.
_TIMINGS: dict[str, float] = {}


@pytest.fixture(scope="module")
def records(test_corpus):
    return [r.to_record() for r in test_corpus]


@pytest.fixture(scope="module")
def serial_parsed(trained_parser, records):
    """Reference outputs from the per-record loop (computed untimed)."""
    return [trained_parser.parse(r) for r in records]


def test_per_record_loop_baseline(benchmark, trained_parser, records):
    def parse_loop():
        return [trained_parser.parse(r) for r in records]

    parsed = benchmark.pedantic(parse_loop, rounds=2, iterations=1)
    assert len(parsed) == len(records)
    best = benchmark.stats["min"]
    _TIMINGS["loop"] = best
    emit(
        f"Throughput: per-record parse() loop ({len(records)} records)",
        f"{len(records) / best:,.0f} records/s",
    )


def test_parse_many_single_process(
    benchmark, trained_parser, records, serial_parsed
):
    def parse_bulk():
        return trained_parser.parse_many(records)

    # warmup_rounds=1 fills the line-encoding cache: the measurement is
    # the steady state a long-running survey actually operates in.
    parsed = benchmark.pedantic(
        parse_bulk, rounds=5, iterations=1, warmup_rounds=1
    )
    assert parsed == serial_parsed, "bulk path diverged from parse() loop"
    best = benchmark.stats["min"]
    _TIMINGS["bulk"] = best
    emit(
        f"Throughput: parse_many, one process ({len(records)} records)",
        f"{len(records) / best:,.0f} records/s",
    )


def test_parse_many_two_processes(
    benchmark, trained_parser, records, serial_parsed
):
    def parse_sharded():
        return trained_parser.parse_many(records, jobs=2)

    parsed = benchmark.pedantic(parse_sharded, rounds=2, iterations=1)
    assert parsed == serial_parsed, "sharded path diverged from parse() loop"
    _TIMINGS["jobs2"] = benchmark.stats["min"]


def test_parse_many_four_processes(
    benchmark, trained_parser, records, serial_parsed
):
    def parse_sharded():
        return trained_parser.parse_many(records, jobs=4)

    parsed = benchmark.pedantic(parse_sharded, rounds=2, iterations=1)
    assert parsed == serial_parsed, "jobs=4 path diverged from parse() loop"
    best = benchmark.stats["min"]
    _TIMINGS["jobs4"] = best

    loop, bulk = _TIMINGS["loop"], _TIMINGS["bulk"]
    jobs2 = _TIMINGS["jobs2"]
    body = [
        f"{'path':<24} {'records/s':>12} {'speedup':>9}",
        f"{'parse() loop':<24} {len(records) / loop:>12,.0f} {'1.0x':>9}",
        f"{'parse_many':<24} {len(records) / bulk:>12,.0f} "
        f"{loop / bulk:>8.1f}x",
        f"{'parse_many jobs=2':<24} {len(records) / jobs2:>12,.0f} "
        f"{loop / jobs2:>8.1f}x",
        f"{'parse_many jobs=4':<24} {len(records) / best:>12,.0f} "
        f"{loop / best:>8.1f}x",
    ]
    emit(
        f"Throughput summary ({len(records)} records, identical outputs)",
        "\n".join(body),
    )
    if TEST_SIZE >= 500:
        # At survey scale the batched path must win decisively; the
        # multiprocess paths are only asserted correct (CI boxes may
        # have a single core, where forked workers cannot pay for
        # themselves -- the multi-core numbers live in EXPERIMENTS.md).
        assert loop / bulk >= 2.0, (
            f"parse_many only {loop / bulk:.1f}x faster than the loop"
        )


def test_spawn_spinup_mmap_vs_eager(
    tmp_path_factory, trained_parser, records, serial_parsed
):
    """Worker spin-up on the spawn path: descriptor vs pickled weights.

    Spawned workers (the macOS/Windows default, and the safe choice
    under threads) receive the parser by pickle.  Loaded with
    ``mmap=True`` the weights pickle as a ``(file, dtype, shape,
    offset)`` descriptor, so the bench asserts the mmap pickle is a
    fraction of the eager one and times a tiny sharded parse on both --
    a spin-up proxy dominated by worker startup, not decoding.
    """
    model_dir = tmp_path_factory.mktemp("spinup_model")
    trained_parser.save(model_dir)
    eager = WhoisParser.load(model_dir)
    mapped = WhoisParser.load(model_dir, mmap=True)
    eager_bytes = len(pickle.dumps(eager))
    mapped_bytes = len(pickle.dumps(mapped))
    assert mapped_bytes < eager_bytes, "mmap pickle not smaller than eager"

    subset = records[: min(len(records), 24)]
    expected = serial_parsed[: len(subset)]
    spinup: dict[str, float] = {}
    for name, parser in (("eager", eager), ("mmap", mapped)):
        started = time.perf_counter()
        parsed = parser.parse_many(subset, jobs=2, start_method="spawn")
        spinup[name] = time.perf_counter() - started
        assert parsed == expected, f"spawn ({name}) diverged from the loop"
    _TIMINGS["spawn_spinup_eager"] = spinup["eager"]
    _TIMINGS["spawn_spinup_mmap"] = spinup["mmap"]
    _TIMINGS["pickle_bytes_eager"] = eager_bytes
    _TIMINGS["pickle_bytes_mmap"] = mapped_bytes
    emit(
        f"Spawn spin-up: mmap descriptor vs eager weights "
        f"({len(subset)} records, jobs=2)",
        f"{'model pickle':<18} eager {eager_bytes:>10,d} B   "
        f"mmap {mapped_bytes:>10,d} B "
        f"({eager_bytes / mapped_bytes:.0f}x smaller)\n"
        f"{'spawn+parse':<18} eager {spinup['eager']:>10.2f} s   "
        f"mmap {spinup['mmap']:>10.2f} s",
    )

    artifact = os.environ.get("REPRO_BENCH_HOTPATH")
    if artifact:
        payload = {
            "bench": "parse_throughput",
            "records": len(records),
            "seconds": {
                key: value
                for key, value in _TIMINGS.items()
                if not key.startswith("pickle_")
            },
            "records_per_s": {
                key: len(records) / _TIMINGS[key]
                for key in ("loop", "bulk", "jobs2", "jobs4")
                if key in _TIMINGS
            },
            "pickle_bytes": {
                "eager": eager_bytes,
                "mmap": mapped_bytes,
            },
        }
        with open(artifact, "w") as handle:
            json.dump(payload, handle, indent=2)


def test_instrumentation_overhead(trained_parser, records):
    """Metrics must be cheap enough to leave on: the CI tripwire.

    Times ``parse_many`` with the ``repro.obs`` registry uninstalled
    (the no-op fast path) and with one installed (full span/counter
    emission), best of several rounds each, interleaved so thermal and
    cache drift hits both alike.  Fails the job when enabling
    instrumentation costs more than 5% throughput.
    """
    rounds = 5

    def best_time(run) -> float:
        best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - started)
        return best

    trained_parser.parse_many(records)  # warm caches for both variants
    previous = obs.active()
    try:
        obs.uninstall()
        off = best_time(lambda: trained_parser.parse_many(records))
        registry = obs.install(obs.MetricsRegistry())
        on = best_time(lambda: trained_parser.parse_many(records))
    finally:
        obs.uninstall()
        if previous is not None:
            obs.install(previous)
    overhead = on / off - 1.0
    emit(
        f"Instrumentation overhead ({len(records)} records)",
        f"{'off':<12} {len(records) / off:>12,.0f} records/s\n"
        f"{'on':<12} {len(records) / on:>12,.0f} records/s\n"
        f"{'overhead':<12} {overhead:>12.1%}",
    )
    assert registry.histogram("parse.decode_seconds", level="block").count > 0
    # 5% plus a 10ms absolute floor so tiny CI scales don't flake on
    # scheduler noise.
    assert on <= off * 1.05 + 0.010, (
        f"instrumentation overhead {overhead:.1%} exceeds the 5% budget"
    )
