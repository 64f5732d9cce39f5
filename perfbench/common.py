"""Set-up, tracing proxies and result plumbing shared by the workloads.

Every workload sets up the same way, the way ``repro train`` followed
by a ``--mmap`` load does: fit a :class:`~repro.parser.WhoisParser` on a
small seeded labeled corpus, save the snapshot, and reload it with
``mmap=True``.  Set-up runs :data:`SETUP_REPEATS` times per run and
``setup_s`` is the median, so one slow fit does not decide the figure.

The timed work is split into as many segments, one after each set-up.
The shared machine's speed drifts over tens of seconds, so a run whose
timed work lay in one contiguous stretch read as fast or slow as that
stretch; spread over the whole run, and taken as medians over rounds
or segments, one slow stretch moves a run's figures less.
"""

from __future__ import annotations

import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from harness import (
    NullTracer,
    Tracer,
    derive_seed,
    format_layer_table,
    median,
    percentile,
)

from repro import obs
from repro.datagen import CorpusGenerator
from repro.datagen.corpus import CorpusConfig
from repro.parser import WhoisParser

#: Labeled records the parser is fitted on (``repro train`` defaults:
#: l2 0.1, min_count 1, the default OpenBLAS thread count).
FIT_RECORDS = 100
FIT_L2 = 0.1
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: check name -> [passed, details]; a check repeated per round
    #: passes only if it passed every time
    checks: dict = field(default_factory=dict)
    #: end-to-end metrics: name -> (value, unit)
    metrics: dict = field(default_factory=dict)
    #: per-layer metrics (traced runs): name -> (value, unit)
    layers: dict = field(default_factory=dict)
    #: human-readable report lines printed before the result
    report: list = field(default_factory=list)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        """Record one oracle check (again, for a later round)."""
        entry = self.checks.setdefault(name, [True, []])
        entry[0] = entry[0] and bool(passed)
        entry[1].append(detail)

    @property
    def correct(self) -> bool:
        """Every oracle check passed."""
        return all(passed for passed, _ in self.checks.values())


def fit_corpus(seed: int):
    """The seeded labeled corpus set-up fits on."""
    generator = CorpusGenerator(CorpusConfig(seed=derive_seed(seed, "fit")))
    return generator.labeled_corpus(FIT_RECORDS)


def fit_and_snapshot(corpus, model_dir: Path) -> tuple:
    """Fit, save and mmap-reload one parser.

    Returns ``(loaded parser, fit wall s, fit CPU s, snapshot s)``; the
    CPU time is the whole process's, so idle-spinning BLAS threads
    show up in it.
    """
    if model_dir.exists():
        shutil.rmtree(model_dir)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    parser = WhoisParser(l2=FIT_L2, min_count=1).fit(corpus)
    fit_s = time.perf_counter() - wall0
    fit_cpu_s = time.process_time() - cpu0
    snap0 = time.perf_counter()
    parser.save(model_dir)
    loaded = WhoisParser.load(model_dir, mmap=True)
    return loaded, fit_s, fit_cpu_s, time.perf_counter() - snap0


def interleaved_setups(
    corpus, model_dir: Path, open_fn: Callable, close_fn: Callable,
    measure: Callable,
) -> dict:
    """Set up :data:`SETUP_REPEATS` times, each followed by one segment
    of the timed work.

    ``open_fn(parser)`` opens what the workload serves from (stores, a
    serving app) and returns it; ``measure(index, parser, opened)``
    runs segment ``index``; ``close_fn(opened)`` releases it after the
    segment.  Returns the per-layer set-up figures, ``setup_s`` being
    the median set-up's seconds.
    """
    totals, fits, cpus, snaps, opens = [], [], [], [], []
    for index in range(SETUP_REPEATS):
        start = time.perf_counter()
        parser, fit_s, fit_cpu_s, snapshot_s = fit_and_snapshot(
            corpus, model_dir
        )
        open0 = time.perf_counter()
        opened = open_fn(parser)
        opens.append(time.perf_counter() - open0)
        totals.append(time.perf_counter() - start)
        fits.append(fit_s)
        cpus.append(fit_cpu_s)
        snaps.append(snapshot_s)
        try:
            measure(index, parser, opened)
        finally:
            close_fn(opened)
    return {
        "setup_s": median(totals),
        "parser.fit_s": median(fits),
        "parser.fit_cpu_s": median(cpus),
        "parser.snapshot_s": median(snaps),
        "setup.open_s": median(opens),
    }


def segment_end(seconds: float, index: int) -> float:
    """Timed seconds by which segment ``index`` should end."""
    return seconds * (index + 1) / SETUP_REPEATS


def point_queries(domains: list, query: Callable, passes: int) -> tuple:
    """Query every domain once per pass, ``passes`` times over.

    Returns the first pass's answers by domain and, per domain, its
    mean query latency over the passes in seconds.  One pass takes a
    few milliseconds, so a workload repeats it: averaging a domain's
    repeats smooths the jitter of single ~10 us calls while keeping
    what differs between domains (a missing row answers faster than a
    stored record; a scan finds early rows sooner).  The number of
    passes is fixed, so the phase's share of a round is set by how fast
    the queries are.
    """
    answers = {}
    totals = [0.0] * len(domains)
    clock = time.perf_counter
    for done in range(passes):
        for index, domain in enumerate(domains):
            start = clock()
            answer = query(domain)
            totals[index] += clock() - start
            if done == 0:
                answers[domain] = answer
    return answers, [total / passes for total in totals]


@dataclass
class Rounds:
    """The timed rounds of a run that measures whole rounds.

    End-to-end figures are medians over rounds, so a burst of noise
    from the shared machine spoils one round, not the run's figure.
    """

    walls: list = field(default_factory=list)
    records: list = field(default_factory=list)
    p50s: list = field(default_factory=list)
    p95s: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        """Timed seconds so far, over every round."""
        return sum(self.walls)

    def another(self, seconds: float) -> bool:
        """Whether to start one more round: always a first, then only
        while the next is expected to end closer to ``seconds`` than
        stopping now would."""
        if not self.walls:
            return True
        return self.wall + 0.5 * self.wall / len(self.walls) < seconds

    def add(self, records: int, wall: float, latencies: list) -> None:
        """Record one round: its records, timed seconds and its point
        queries' latencies (seconds, one mean per queried domain)."""
        self.records.append(records)
        self.walls.append(wall)
        self.p50s.append(percentile(latencies, 50))
        self.p95s.append(percentile(latencies, 95))

    def describe(self) -> str:
        """Per-round figures, for the report."""
        return "; ".join(
            f"{r / w:.1f} rec/s, p50 {p50 * 1e3:.4f} ms, p95 {p95 * 1e3:.4f} ms"
            for r, w, p50, p95 in zip(
                self.records, self.walls, self.p50s, self.p95s
            )
        )

    def metrics(self, setup_s: float, peak_mib: float) -> dict:
        """The end-to-end metrics of the run."""
        return {
            "setup_s": (setup_s, "s"),
            "records_per_s": (
                median([r / w for r, w in zip(self.records, self.walls)]),
                "rec/s",
            ),
            "peak_rss_mb": (peak_mib, "MiB"),
            "latency_p50_ms": (median(self.p50s) * 1e3, "ms"),
        }


def new_tracer(trace: bool):
    """A recording tracer for traced runs, the null tracer otherwise."""
    return Tracer() if trace else NullTracer()


# ----------------------------------------------------------------------
# Proxies that put program calls into the benchmark's spans
# ----------------------------------------------------------------------


class TracedParser:
    """A parser whose bulk parse and confidence calls are spans.

    Everything else passes through to the wrapped parser, so the
    program's own code paths run unchanged underneath.
    """

    def __init__(self, parser, tracer) -> None:
        self._parser = parser
        self.parse_many = tracer.wrap("parser.parse", parser.parse_many)
        self.line_confidences = tracer.wrap(
            "parser.confidence", parser.line_confidences
        )

    def __getattr__(self, name):
        return getattr(self._parser, name)


class TracedGate:
    """A :class:`~repro.resilience.RecordGate` whose checks are spans."""

    def __init__(self, gate, tracer) -> None:
        self.inspect = tracer.wrap("resilience.gate", gate.inspect)


@contextmanager
def traced_function(module, attr: str, tracer, layer: str, trace: bool):
    """While the block runs, calls the program makes to ``module.attr``
    are spans of ``layer`` (traced runs only)."""
    if not trace:
        yield
        return
    original = getattr(module, attr)
    setattr(module, attr, tracer.wrap(layer, original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def instrument(parser, gate, tracer, trace: bool):
    """The parser and gate to hand the program: proxies when traced,
    the objects themselves when not."""
    if not trace:
        return parser, gate
    return (
        TracedParser(parser, tracer),
        TracedGate(gate, tracer) if gate is not None else None,
    )


# ----------------------------------------------------------------------
# Reading the program's own obs series
# ----------------------------------------------------------------------


def histogram_total(registry, name: str) -> float:
    """Sum of every observation of histogram ``name``, all label sets."""
    series = registry.snapshot()["histograms"].get(name, [])
    return sum(row["value"]["sum"] for row in series)


def histogram_count(registry, name: str) -> int:
    """Observation count of histogram ``name``, all label sets."""
    series = registry.snapshot()["histograms"].get(name, [])
    return sum(row["value"]["count"] for row in series)


def counter_total(registry, name: str) -> float:
    """Value of counter ``name`` summed over its label sets."""
    return sum(registry.counter_series(name).values())


def parse_breakdown(registry) -> dict[str, float]:
    """The bulk parser's own stage timings and line-cache accounting."""
    hits = counter_total(registry, "parse.line_cache.hits")
    misses = counter_total(registry, "parse.line_cache.misses")
    return {
        "encode": histogram_total(registry, "parse.encode_seconds"),
        "decode": histogram_total(registry, "parse.decode_seconds"),
        "assemble": histogram_total(registry, "parse.assemble_seconds"),
        "hits": hits,
        "misses": misses,
    }


def new_registry(trace: bool):
    """An obs registry to install for traced runs (None untraced)."""
    return obs.MetricsRegistry() if trace else None


@contextmanager
def observing(registry):
    """Install ``registry`` for the block; untraced runs pass None and
    leave the program's instrumentation off."""
    if registry is None:
        yield
        return
    with obs.use(registry):
        yield


# ----------------------------------------------------------------------
# The per-layer table of a traced run
# ----------------------------------------------------------------------


#: The most of the timed wall time layers may leave unattributed.
MAX_UNATTRIBUTED = 0.05


def trace_rounds(
    outcome: Outcome, tracer: Tracer, registry, setup: dict,
    rounds: Rounds, root: str, inclusive: tuple[str, ...],
) -> None:
    """The per-layer table and metrics of a traced run made of rounds.

    ``root`` is the round span: its self time is the unattributed part
    of the timed wall time.  The program's own encode/decode/assemble
    histograms become children of ``parser.parse``, whose self time is
    what is left of it.  Layer metrics are seconds per round: the
    layers named in ``inclusive`` with their children, the ingest and
    the unattributed part by self time.  The point queries' p95 is the
    median over rounds.
    """
    wall, count = rounds.wall, len(rounds.walls)
    parse = parse_breakdown(registry)
    layers = tracer.layers()
    rows = []
    unattributed = layers[root].self_time
    for name, totals in sorted(layers.items()):
        if name == root:
            continue
        self_time = totals.self_time
        if name == "parser.parse":
            self_time -= parse["encode"] + parse["decode"] + parse["assemble"]
        rows.append((name, totals.count, totals.total, self_time))
    for stage in ("encode", "decode", "assemble"):
        rows.append((f"parser.parse/{stage}", layers["parser.parse"].count,
                     parse[stage], parse[stage]))
    rows.append(("(unattributed)", 0, unattributed, unattributed))
    outcome.report.append(format_layer_table(rows, wall))
    outcome.report.append(
        f"timed wall {wall:.4f} s over {count} round(s); layers' self "
        f"time accounts for {100.0 * (wall - unattributed) / wall:.1f}%, "
        f"unattributed {100.0 * unattributed / wall:.1f}%"
    )
    outcome.check(
        f"layers' self time covers >= {1 - MAX_UNATTRIBUTED:.0%} of the "
        "timed wall time",
        unattributed <= MAX_UNATTRIBUTED * wall,
        f"{100.0 * unattributed / wall:.2f}% unattributed",
    )
    outcome.layers = base_layers(setup, parse, count, wall)
    outcome.layers["trace.unattributed_s"] = (unattributed / count, "s")
    outcome.layers["survey.ingest_self_s"] = (
        layers["survey.ingest"].self_time / count, "s"
    )
    for name in inclusive:
        total = layers[name].total if name in layers else 0.0
        outcome.layers[f"{name}_s"] = (total / count, "s")
    outcome.layers["survey.query_p95_ms"] = (median(rounds.p95s) * 1e3, "ms")


def base_layers(setup: dict, parse: dict, rounds: int, wall: float) -> dict:
    """Per-layer figures every workload has: set-up, the timed wall time
    and the bulk parser's stages (seconds per round), and the
    line-cache hit rate."""
    layers = {
        name: (setup[name], "s")
        for name in (
            "parser.fit_s", "parser.fit_cpu_s", "parser.snapshot_s",
            "setup.open_s",
        )
    }
    layers["trace.wall_s"] = (wall / rounds, "s")
    for stage in ("encode", "decode", "assemble"):
        layers[f"parser.{stage}_s"] = (parse[stage] / rounds, "s")
    lookups = parse["hits"] + parse["misses"]
    layers["parser.line_cache_hit_rate"] = (
        parse["hits"] / lookups if lookups else 0.0, "ratio"
    )
    return layers
