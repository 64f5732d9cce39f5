"""The one process pool of the bulk paths.

The paper's §6 survey parses 102M records; here the bulk parse
(:meth:`WhoisParser.parse_many
<repro.parser.statistical.WhoisParser.parse_many>` and
``label_lines_many`` with ``jobs > 1``) and the sharded survey ingest
(:func:`repro.survey.ingest.sharded_ingest` with ``shards > 1``) both
fan out through :func:`map_chunks`, so they share one start method,
one way of cutting the input and one way of bringing back the
workers' metrics.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Any, Callable

from repro import obs

__all__ = ["map_chunks"]

#: The object every worker shares (the parser), installed once per
#: worker by the pool initializer: inherited copy-on-write under fork,
#: pickled once per worker under spawn -- small when the model was
#: loaded with ``mmap=True``.  Per-chunk payloads stay small either way.
_SHARED: Any = None


def _install_shared(shared: Any) -> None:
    global _SHARED
    _SHARED = shared


def _run_chunk(payload: tuple) -> tuple[Any, "dict | None"]:
    """Worker body: ``work(shared, chunk)`` under a fresh registry when
    the caller records metrics; returns the result and the registry's
    :meth:`dump <repro.obs.MetricsRegistry.dump>` (or None)."""
    work, chunk, record = payload
    registry = obs.MetricsRegistry() if record else None
    with obs.use(registry):
        result = work(_SHARED, chunk)
    return result, registry.dump() if registry is not None else None


def map_chunks(
    work: Callable[[Any, list], Any],
    shared: Any,
    items: list,
    n: int,
    *,
    start_method: str | None = None,
) -> list:
    """Run ``work(shared, chunk)`` over ``n`` chunks in ``n`` processes.

    ``items`` is cut into ``n`` contiguous chunks at ``len(items) * i //
    n``, and the results come back as a list in chunk order, so a
    caller that concatenates them gets its single-process output.
    ``work`` must pickle (a module-level function, or a
    :func:`functools.partial` of one); ``shared`` travels once per
    worker, through the pool initializer.

    ``start_method`` pins the multiprocessing start method; by default
    ``fork`` is used where the platform has it (workers inherit the
    parent's warm caches copy-on-write), else the platform default.

    When a registry is installed (:func:`repro.obs.active`), each chunk
    records into a fresh :class:`~repro.obs.MetricsRegistry` and its
    dump is merged back: counters add and histograms combine, so they
    read as they would had the work run in this process.  Gauges
    describe one process and stay in the worker.
    """
    method = start_method
    if method is None:
        method = "fork" if "fork" in mp.get_all_start_methods() else None
    registry = obs.active()
    bounds = [len(items) * i // n for i in range(n + 1)]
    payloads = [
        (work, items[bounds[i]:bounds[i + 1]], registry is not None)
        for i in range(n)
    ]
    with mp.get_context(method).Pool(
        n, initializer=_install_shared, initargs=(shared,)
    ) as pool:
        done = pool.map(_run_chunk, payloads)
    results = []
    for result, dumped in done:
        if dumped is not None:
            registry.merge(dumped)
        results.append(result)
    return results
