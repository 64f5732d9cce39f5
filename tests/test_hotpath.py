"""The zero-copy hot path: mmap snapshots, warm encoder caches, arenas.

Pins the three contracts the hot-path work rests on: (1) models loaded
with ``mmap=True`` produce bit-identical outputs and pickle as tiny
file descriptors (so spawned workers and hot-swaps share one physical
weight copy), (2) the persistent line-encoder cache round-trips through
disk, is rejected on vocabulary mismatch, and makes a restarted parser
hit on its very first batch, and (3) arena-backed decoding reuses pooled
buffers without any batch's returned paths or marginals aliasing them.
"""

from __future__ import annotations

import gc
import os
import pickle
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.crf.arena import TensorArena
from repro.crf.batch import EncodedBatch
from repro.crf.decode import batch_marginals, batch_viterbi
from repro.crf.objective import ParamView
from repro.datagen import CorpusConfig, CorpusGenerator
from repro.parser import WhoisParser
from repro.parser.bulk import LineEncoder
from repro.serve import ModelRegistry


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    generator = CorpusGenerator(CorpusConfig(seed=77))
    corpus = generator.labeled_corpus(90)
    parser = WhoisParser(l2=0.1).fit(corpus[:60])
    texts = [record.text for record in corpus[60:]]
    model_dir = tmp_path_factory.mktemp("model")
    parser.save(model_dir)
    return parser, texts, model_dir


@pytest.fixture()
def clean_registry():
    previous = obs.active()
    obs.uninstall()
    registry = obs.MetricsRegistry()
    obs.install(registry)
    yield registry
    obs.uninstall()
    if previous is not None:
        obs.install(previous)


# ----------------------------------------------------------------------
# Shared mmap model snapshots
# ----------------------------------------------------------------------


def test_mmap_load_maps_weights_readonly(world):
    _parser, _texts, model_dir = world
    eager = WhoisParser.load(model_dir)
    mapped = WhoisParser.load(model_dir, mmap=True)
    assert not isinstance(eager.block_crf.params, np.memmap)
    assert isinstance(mapped.block_crf.params, np.memmap)
    assert isinstance(mapped.registrant_crf.params, np.memmap)
    assert not mapped.block_crf.params.flags.writeable


def test_mmap_parse_outputs_bit_identical(world):
    _parser, texts, model_dir = world
    eager = WhoisParser.load(model_dir)
    mapped = WhoisParser.load(model_dir, mmap=True)
    assert mapped.parse_many(texts) == eager.parse_many(texts)
    assert mapped.label_lines_many(texts[:10]) == eager.label_lines_many(
        texts[:10]
    )
    # The bulk path (arena-backed internally) equals per-record parses.
    assert mapped.parse_many(texts[:10]) == [
        eager.parse(text) for text in texts[:10]
    ]


def test_mmap_model_pickles_as_descriptor(world):
    _parser, texts, model_dir = world
    eager = WhoisParser.load(model_dir)
    mapped = WhoisParser.load(model_dir, mmap=True)
    eager_blob = pickle.dumps(eager)
    mapped_blob = pickle.dumps(mapped)
    # The weights dominate the eager pickle; the descriptor pickle ships
    # (filename, dtype, shape, offset) instead of the array bytes.
    assert len(mapped_blob) < len(eager_blob) / 2
    restored = pickle.loads(mapped_blob)
    assert isinstance(restored.block_crf.params, np.memmap)
    assert restored.parse_many(texts[:5]) == eager.parse_many(texts[:5])


def test_mmap_adopts_npz_only_snapshot(world, tmp_path):
    parser, texts, _model_dir = world
    legacy_dir = tmp_path / "legacy"
    parser.save(legacy_dir)
    for npy in legacy_dir.glob("*.npy"):
        npy.unlink()
    adopted = WhoisParser.load(legacy_dir, mmap=True)
    assert isinstance(adopted.block_crf.params, np.memmap)
    # The raw snapshot was materialized next to the .npz for next time.
    assert any(legacy_dir.glob("*.npy"))
    assert adopted.parse_many(texts[:5]) == parser.parse_many(texts[:5])


def test_spawn_path_matches_single_process(world):
    _parser, texts, model_dir = world
    mapped = WhoisParser.load(model_dir, mmap=True)
    baseline = mapped.parse_many(texts[:12])
    spawned = mapped.parse_many(texts[:12], jobs=2, start_method="spawn")
    assert spawned == baseline
    labeled = mapped.label_lines_many(
        texts[:12], jobs=2, start_method="spawn"
    )
    assert labeled == mapped.label_lines_many(texts[:12])


# ----------------------------------------------------------------------
# Registry hot-swap under mmap
# ----------------------------------------------------------------------


def _mapped_snapshot_count(root: Path) -> int:
    maps = Path("/proc/self/maps").read_text()
    return sum(str(root) in line for line in maps.splitlines())


def test_registry_swaps_under_load_without_leaking(world, tmp_path):
    parser, texts, _model_dir = world
    root = tmp_path / "registry"
    seed = ModelRegistry(root)
    for _ in range(2):
        seed.publish(parser)
    del seed

    registry = ModelRegistry(root)  # resumes v0002 via the ACTIVE pointer
    assert isinstance(
        registry.current_parser.block_crf.params, np.memmap
    )
    expected = parser.parse(texts[0])

    stop = threading.Event()
    mismatches: list[object] = []

    def hammer() -> None:
        while not stop.is_set():
            got = registry.current_parser.parse(texts[0])
            if got != expected:
                mismatches.append(got)

    threads = [threading.Thread(target=hammer) for _ in range(2)]
    for thread in threads:
        thread.start()
    registry.activate("v0001")  # both versions now cached and mapped
    gc.collect()
    fds_before = len(os.listdir("/proc/self/fd"))
    maps_before = _mapped_snapshot_count(root)
    for i in range(10):
        registry.activate("v0002" if i % 2 == 0 else "v0001")
    stop.set()
    for thread in threads:
        thread.join()
    gc.collect()
    assert not mismatches
    # Ten swaps added no file descriptors and no new mappings: the two
    # live versions keep their original maps, nothing accumulates.
    assert len(os.listdir("/proc/self/fd")) <= fds_before
    assert _mapped_snapshot_count(root) <= maps_before


def test_registry_evicts_superseded_mappings(world, tmp_path):
    parser, _texts, _model_dir = world
    root = tmp_path / "registry"
    seed = ModelRegistry(root)
    for _ in range(3):
        seed.publish(parser)
    del seed

    registry = ModelRegistry(root)  # activates v0003
    registry.activate("v0001")
    registry.activate("v0002")  # keep = {v0001, v0002}; v0003 evicted
    assert set(registry._parsers) <= {"v0001", "v0002"}
    gc.collect()
    maps = Path("/proc/self/maps").read_text()
    assert str(root / "v0003") not in maps
    assert str(root / "v0002") in maps  # the active version stays mapped


# ----------------------------------------------------------------------
# Persistent line-encoder cache
# ----------------------------------------------------------------------


def test_encoder_cache_roundtrip_warm_first_batch(world, tmp_path):
    _parser, texts, model_dir = world
    warm = WhoisParser.load(model_dir)
    warm.parse_many(texts)
    cache_file = tmp_path / "encoder_cache.json"
    written = warm.save_encoder_cache(cache_file)
    assert written > 0

    restarted = WhoisParser.load(model_dir)
    loaded = restarted.load_encoder_cache(cache_file)
    assert loaded >= written  # both levels load; `written` counts block
    block_encoder, _ = restarted._encoders()
    assert block_encoder.warm_entries == written
    parsed = restarted.parse_many(texts[:10])
    hits, _misses = restarted.encoder_cache_totals()
    assert hits > 0  # warm on the very first batch
    assert parsed == warm.parse_many(texts[:10])

    # A restart that skips the cache file hits strictly less.
    cold = WhoisParser.load(model_dir)
    cold.parse_many(texts[:10])
    cold_hits, _ = cold.encoder_cache_totals()
    assert hits > cold_hits


def test_encoder_cache_rejected_on_fingerprint_mismatch(world, tmp_path):
    _parser, texts, model_dir = world
    generator = CorpusGenerator(CorpusConfig(seed=901))
    other = WhoisParser(l2=0.1).fit(generator.labeled_corpus(40))
    other.parse_many([record.text for record in generator.labeled_corpus(10)])
    cache_file = tmp_path / "other_cache.json"
    assert other.save_encoder_cache(cache_file) > 0
    assert other.encoder_fingerprint() != WhoisParser.load(
        model_dir
    ).encoder_fingerprint()

    ours = WhoisParser.load(model_dir)
    assert ours.load_encoder_cache(cache_file) == 0  # stale vocabulary
    assert ours.load_encoder_cache(tmp_path / "missing.json") == 0
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json")
    assert ours.load_encoder_cache(corrupt) == 0
    assert ours.parse_many(texts[:5]) == WhoisParser.load(
        model_dir
    ).parse_many(texts[:5])


def test_registry_persists_and_warm_starts_encoder_cache(
    world, tmp_path, clean_registry
):
    parser, texts, _model_dir = world
    root = tmp_path / "registry"
    seed = ModelRegistry(root)
    seed.publish(parser)
    parser.parse_many(texts)  # warm the active parser's caches
    assert seed.persist_encoder_cache() > 0
    assert (root / "v0001" / "encoder_cache.json").exists()
    del seed

    restarted = ModelRegistry(root)
    block_encoder, _ = restarted.current_parser._encoders()
    assert block_encoder.warm_entries > 0
    assert (
        clean_registry.counter_value("serve.encoder_cache_warm_loads") >= 1
    )
    assert clean_registry.gauge_value("serve.encoder_cache_warm_entries") > 0


def test_encoder_cache_full_counter_surfaces(world, clean_registry):
    _parser, texts, model_dir = world
    parser = WhoisParser.load(model_dir)
    profiles: dict = {}
    parser._bulk_encoders = (
        LineEncoder(
            parser.featurizer,
            parser.block_crf.index,
            cache_size=2,
            profiles=profiles,
        ),
        LineEncoder(
            parser.featurizer,
            parser.registrant_crf.index,
            cache_size=2,
            profiles=profiles,
        ),
    )
    baseline = WhoisParser.load(model_dir).parse_many(texts[:10])
    assert parser.parse_many(texts[:10]) == baseline  # cap never corrupts
    assert (
        clean_registry.counter_value("parse.encoder_cache_full", level="block")
        > 0
    )
    block_encoder = parser._bulk_encoders[0]
    assert block_encoder.cache_full_skips > 0
    # Cached lines keep hitting even once insertion has stopped.
    parser.parse_many(texts[:10])
    hits, _misses = parser.encoder_cache_totals()
    assert hits > 0


def test_line_encoder_drain_includes_full_skips(world):
    parser, _texts, _model_dir = world
    encoder = LineEncoder(
        parser.featurizer, parser.block_crf.index, cache_size=3
    )
    lines = [f"Field {i}: value {i}" for i in range(12)]
    encoder.encode_record(lines)
    hits, misses, full = encoder.drain_cache_stats()
    assert misses == 12
    assert full == 12 - 3
    assert encoder.drain_cache_stats() == (0, 0, 0)  # deltas, not totals


# ----------------------------------------------------------------------
# Tensor arenas
# ----------------------------------------------------------------------


def test_arena_reuses_and_grows_buffers():
    arena = TensorArena()
    first = arena.take("x", (4, 5))
    first[:] = 7.0
    assert arena.allocations == 1
    second = arena.take("x", (2, 3))  # fits: reuse, no allocation
    assert arena.allocations == 1 and arena.takes == 2
    assert second.shape == (2, 3)
    third = arena.take("x", (100,))  # outgrows: one realloc
    assert arena.allocations == 2
    assert third.shape == (100,)
    zeroed = arena.zeros("y", (3, 3))
    assert not zeroed.any()
    filled = arena.full("z", (2, 2), -1.0)
    assert (filled == -1.0).all()
    assert arena.nbytes > 0
    arena.clear()
    assert arena.nbytes == 0


def test_arena_results_do_not_alias_across_batches(world):
    parser, texts, _model_dir = world
    crf = parser.block_crf
    encoder, _ = parser._encoders()
    view = ParamView.of(crf.params, crf.index)
    first, second = (
        EncodedBatch.from_encoded(
            [encoder.encode_record(parser._raw_lines(text)) for text in part],
            crf.index,
        )
        for part in (texts[:8], texts[8:20])
    )
    arena = TensorArena()

    def decode(batch):
        emit, trans = batch.potentials(view, arena)
        return (
            batch_viterbi(batch, emit, trans, arena),
            batch_marginals(batch, emit, trans, arena),
        )

    labels1, marginals1 = decode(first)
    kept = ([p.copy() for p in labels1], [m.copy() for m in marginals1])
    decode(second)  # reuses (and may outgrow) the same buffers
    for expected, got in zip(kept[0], labels1):
        np.testing.assert_array_equal(expected, got)
    for expected, got in zip(kept[1], marginals1):
        np.testing.assert_array_equal(expected, got)
    # Decoding batch 1 again is bit-identical and, since buffers never
    # shrink, allocates nothing.
    allocations = arena.allocations
    labels_again, marginals_again = decode(first)
    assert arena.allocations == allocations  # steady state
    for expected, got in zip(kept[0], labels_again):
        np.testing.assert_array_equal(expected, got)
    for expected, got in zip(kept[1], marginals_again):
        np.testing.assert_array_equal(expected, got)
