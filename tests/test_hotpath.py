"""The zero-copy hot path: mmap snapshots, warm encoder caches, decoding.

Pins the three contracts the hot-path work rests on: (1) models loaded
with ``mmap=True`` produce bit-identical outputs and pickle as tiny
file descriptors (so spawned workers and hot-swaps share one physical
weight copy), (2) the persistent line-encoder cache round-trips through
disk, is rejected on vocabulary mismatch, and makes a restarted parser
hit on its very first batch, and (3) no batch's returned paths or
marginals alias another batch's.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.crf.batch import EncodedBatch
from repro.crf.decode import batch_marginals, batch_viterbi
from repro.crf.objective import ParamView
from repro.datagen import CorpusConfig, CorpusGenerator
from repro.parser import WhoisParser
from repro.parser import bulk
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
    # The bulk path equals per-record parses.
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


def _files(directory):
    """Every file under ``directory`` with its size and mtime."""
    return {
        path: (path.stat().st_size, path.stat().st_mtime_ns)
        for path in Path(directory).rglob("*")
    }


def _older_snapshot(parser, directory, *, keep_npy):
    """Save ``parser`` in the layout written before a snapshot held its
    settings: ``parser.json`` without them and with a null lexicon, no
    iteration budget in the level files, and each level's weights as a
    compressed ``.npz`` (beside the raw ``.npy`` when ``keep_npy``)."""
    parser.save(directory)
    meta_path = directory / "parser.json"
    meta = json.loads(meta_path.read_text())
    for key in ("l2", "min_count", "max_iterations", "second_level"):
        del meta[key]
    meta_path.write_text(json.dumps({**meta, "lexicon": None}))
    for level in ("block", "registrant"):
        level_path = directory / f"{level}.json"
        level_meta = json.loads(level_path.read_text())
        del level_meta["max_iterations"]
        level_path.write_text(json.dumps(level_meta))
        npy = directory / f"{level}.npy"
        np.savez_compressed(directory / f"{level}.npz", params=np.load(npy))
        if not keep_npy:
            npy.unlink()


def test_a_snapshot_writes_each_weight_vector_once(world, tmp_path):
    parser, _texts, _model_dir = world
    parser.save(tmp_path / "model")
    assert sorted(path.name for path in (tmp_path / "model").iterdir()) == [
        "block.json", "block.npy", "parser.json",
        "registrant.json", "registrant.npy",
    ]


def _assert_loads_as_before(parser, texts, directory, *, maps):
    """Both load modes parse as ``parser`` does, with the defaults for
    the settings the snapshot lacks, and write nothing; with mmap the
    weights are mapped only when ``maps``."""
    before = _files(directory)
    expected = parser.parse_many(texts)
    for mmap in (False, True):
        loaded = WhoisParser.load(directory, mmap=mmap)
        assert loaded.parse_many(texts) == expected
        mapped = isinstance(loaded.block_crf.params, np.memmap)
        assert mapped == (mmap and maps)
        assert loaded.settings == {
            **parser.settings, "l2": 1.0, "max_iterations": 120,
        }
        assert loaded.block_crf._max_iterations == 200
        assert loaded.block_crf._l2 == parser.block_crf._l2
    assert _files(directory) == before


def test_parent_layout_snapshot_loads_without_writing(world, tmp_path):
    parser, texts, _model_dir = world
    _older_snapshot(parser, tmp_path / "legacy", keep_npy=True)
    _assert_loads_as_before(parser, texts, tmp_path / "legacy", maps=True)


def test_mmap_adopts_npz_only_snapshot(world, tmp_path):
    # A snapshot from before the raw format loads eagerly under mmap.
    parser, texts, _model_dir = world
    _older_snapshot(parser, tmp_path / "legacy", keep_npy=False)
    _assert_loads_as_before(parser, texts, tmp_path / "legacy", maps=False)


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


def _cache_hits(parser) -> int:
    return sum(
        encoder.hits for encoder in parser._encoders() if encoder is not None
    )


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
    hits = _cache_hits(restarted)
    assert hits > 0  # warm on the very first batch
    assert parsed == warm.parse_many(texts[:10])

    # A restart that skips the cache file hits strictly less.
    cold = WhoisParser.load(model_dir)
    cold.parse_many(texts[:10])
    assert hits > _cache_hits(cold)


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


def _encoder_caches(parser):
    return [(encoder._lines, encoder._ctx) for encoder in parser._encoders()]


def _assert_cold(parser):
    for lines, ctx in _encoder_caches(parser):
        assert lines == {} and ctx == {}


@pytest.fixture()
def saved_cache(world, tmp_path):
    _parser, texts, model_dir = world
    warm = WhoisParser.load(model_dir)
    warm.parse_many(texts)
    path = tmp_path / "cache"
    assert warm.save_encoder_cache(path) > 0
    return warm, path


def test_encoder_cache_file_round_trips_exactly(world, saved_cache):
    _parser, texts, model_dir = world
    warm, path = saved_cache
    # Lands at exactly the path given: nothing appended, no temp left.
    assert sorted(p.name for p in path.parent.iterdir()) == ["cache"]
    restarted = WhoisParser.load(model_dir)
    assert restarted.load_encoder_cache(path) > 0
    assert _encoder_caches(restarted) == _encoder_caches(warm)
    for (lines, _ctx), encoder in zip(
        _encoder_caches(restarted), restarted._encoders()
    ):
        assert all(type(i) is int for obs, _e, _i, _h in lines.values()
                   for i in obs)
        assert encoder.hits == encoder.misses == 0
    block_warm, _ = warm._encoders()
    block_restarted, _ = restarted._encoders()
    for text in texts[:10]:
        assert block_restarted.encode_record(text.splitlines()) == (
            block_warm.encode_record(text.splitlines())
        )
    assert block_restarted.misses == 0


def test_encoder_cache_keys_round_trip_any_string(world, tmp_path):
    _parser, _texts, model_dir = world
    odd = ["Name: J\u00f6rg \u4e2d\u6587", "Lone: \ud800 surrogate",
           "Pair: \ud83d\ude00", "Emoji: \U0001f600", "Tab:\tx\x00"]
    parser = WhoisParser.load(model_dir)
    parser.parse_many(["\n".join(odd)])
    path = tmp_path / "odd.npz"
    parser.save_encoder_cache(path)
    restarted = WhoisParser.load(model_dir)
    assert restarted.load_encoder_cache(path) > 0
    assert _encoder_caches(restarted) == _encoder_caches(parser)
    assert set(odd) <= set(restarted._encoders()[0]._lines)


def test_encoder_cache_file_with_labelability_arrays_still_loads(
    world, saved_cache, tmp_path
):
    # Files written when the encoders also memoized labelability carry
    # three more arrays per level; the reader never asks for them.
    from repro.parser.bulk import _pack_strings

    _parser, _texts, model_dir = world
    warm, path = saved_cache
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    for level, encoder in zip(("block", "registrant"), warm._encoders()):
        keys = list(encoder._lines) + ["", "   ", "-----%%%-----"]
        flags = [True] * len(encoder._lines) + [False] * 3
        blob, lengths = _pack_strings(keys)
        arrays[f"{level}.labelable"] = blob
        arrays[f"{level}.labelable_lengths"] = lengths
        arrays[f"{level}.labelable_flags"] = np.array(flags, dtype=np.bool_)
    legacy = tmp_path / "with-labelability"
    with legacy.open("wb") as handle:
        np.savez(handle, **arrays)

    current = WhoisParser.load(model_dir)
    restarted = WhoisParser.load(model_dir)
    assert restarted.load_encoder_cache(legacy) == (
        current.load_encoder_cache(path)
    ) > 0
    assert _encoder_caches(restarted) == _encoder_caches(warm)


def test_encoder_cache_loads_into_a_warm_encoder_under_its_cap(
    world, saved_cache, monkeypatch
):
    _parser, texts, model_dir = world
    _warm, path = saved_cache
    cap = 40
    parser = WhoisParser.load(model_dir)
    profiles: dict = {}
    monkeypatch.setattr(bulk, "CACHE_SIZE", cap)
    parser._bulk_encoders = tuple(
        LineEncoder(parser.featurizer, crf.index, profiles=profiles)
        for crf in (parser.block_crf, parser.registrant_crf)
    )
    parser.parse_many(texts[:1])
    before = [
        (dict(lines), dict(ctx)) for lines, ctx in _encoder_caches(parser)
    ]
    assert all(0 < len(lines) < cap for lines, _ctx in before)

    loaded = parser.load_encoder_cache(path)
    for (lines, ctx), old, encoder in zip(
        _encoder_caches(parser), before, parser._encoders()
    ):
        old_lines, old_ctx = old
        # The file holds more lines than fit: the cap holds exactly.
        assert len(lines) == cap
        assert encoder.warm_entries == cap - len(old_lines)
        # Entries already cached are kept, not replaced by the file's.
        assert all(lines[key] is value for key, value in old_lines.items())
        assert old_ctx.items() <= ctx.items()
    assert loaded == sum(cap - len(old) for old, _ctx in before)
    monkeypatch.undo()
    assert parser.parse_many(texts) == WhoisParser.load(model_dir).parse_many(
        texts
    )


def test_encoder_cache_rejects_damaged_files(world, saved_cache, tmp_path):
    import json

    _parser, _texts, model_dir = world
    warm, path = saved_cache
    blob = path.read_bytes()
    fingerprint = warm.encoder_fingerprint()
    damaged = []
    for cut in (0, 10, len(blob) // 3, len(blob) // 2, len(blob) - 30,
                len(blob) - 1):
        truncated = tmp_path / f"truncated{cut}"
        truncated.write_bytes(blob[:cut])
        damaged.append(truncated)
    # The JSON file an earlier version wrote, fingerprint and all.
    legacy = tmp_path / "encoder_cache.json"
    legacy.write_text(json.dumps({
        "fingerprint": fingerprint,
        "block": {"lines": [["Registrar: X", [1, 2], [], 0, None]],
                  "ctx": {}, "labelable": [["Registrar: X", True]]},
        "registrant": None,
    }))
    damaged.append(legacy)
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    stale = tmp_path / "stale"
    with stale.open("wb") as handle:
        np.savez(handle, **{**arrays, "fingerprint": np.array("0" * 64)})
    damaged.append(stale)
    for name, cut in (("block.indents", 1), ("registrant.obs_ids", 1),
                      ("block.lines", 1), ("block.ctx_counts", 1)):
        mismatched = tmp_path / f"mismatched-{name}"
        with mismatched.open("wb") as handle:
            np.savez(handle, **{**arrays, name: arrays[name][:-cut]})
        damaged.append(mismatched)
    for name, vocab in (
        ("block.obs_ids", warm.block_crf.index.obs_vocab),
        ("registrant.edge_ids", warm.registrant_crf.index.edge_vocab),
        ("block.ctx_ids", warm.block_crf.index.obs_vocab),
    ):
        outside = tmp_path / f"outside-{name}"
        ids = arrays[name].copy()
        ids[-1] = len(vocab)  # one past the vocabulary's last id
        with outside.open("wb") as handle:
            np.savez(handle, **{**arrays, name: ids})
        damaged.append(outside)
    for bad in damaged:
        parser = WhoisParser.load(model_dir)
        assert parser.load_encoder_cache(bad) == 0, bad.name
        _assert_cold(parser)


def test_registry_persists_and_warm_starts_encoder_cache(
    world, tmp_path, clean_registry
):
    parser, texts, _model_dir = world
    root = tmp_path / "registry"
    seed = ModelRegistry(root)
    seed.publish(parser)
    parser.parse_many(texts)  # warm the active parser's caches
    assert seed.persist_encoder_cache() > 0
    assert (root / "v0001" / "encoder_cache.npz").exists()
    del seed

    restarted = ModelRegistry(root)
    block_encoder, _ = restarted.current_parser._encoders()
    assert block_encoder.warm_entries > 0
    assert (
        clean_registry.counter_value("serve.encoder_cache_warm_loads") >= 1
    )
    assert clean_registry.gauge_value("serve.encoder_cache_warm_entries") > 0


def test_encoder_cache_full_counter_surfaces(
    world, clean_registry, monkeypatch
):
    _parser, texts, model_dir = world
    baseline = WhoisParser.load(model_dir).parse_many(texts[:10])
    parser = WhoisParser.load(model_dir)
    profiles: dict = {}
    monkeypatch.setattr(bulk, "CACHE_SIZE", 2)
    parser._bulk_encoders = tuple(
        LineEncoder(parser.featurizer, crf.index, profiles=profiles)
        for crf in (parser.block_crf, parser.registrant_crf)
    )
    assert parser.parse_many(texts[:10]) == baseline  # cap never corrupts
    assert (
        clean_registry.counter_value("parse.encoder_cache_full", level="block")
        > 0
    )
    block_encoder = parser._bulk_encoders[0]
    assert block_encoder.cache_full_skips > 0
    # Cached lines keep hitting even once insertion has stopped.
    parser.parse_many(texts[:10])
    assert _cache_hits(parser) > 0


def test_line_encoder_drain_includes_full_skips(world, monkeypatch):
    parser, _texts, _model_dir = world
    monkeypatch.setattr(bulk, "CACHE_SIZE", 3)
    encoder = LineEncoder(parser.featurizer, parser.block_crf.index)
    lines = [f"Field {i}: value {i}" for i in range(12)]
    encoder.encode_record(lines)
    hits, misses, full = encoder.drain_cache_stats()
    assert misses == 12
    assert full == 12 - 3
    assert encoder.drain_cache_stats() == (0, 0, 0)  # deltas, not totals


def test_header_context_memo_stays_under_the_cap(world, monkeypatch):
    # Every fresh block header with an indented line under it adds a
    # header-context entry; a serving process must not grow with them.
    parser, _texts, _model_dir = world
    index = parser.block_crf.index
    fresh = LineEncoder(parser.featurizer, index)
    full = LineEncoder(parser.featurizer, index)
    monkeypatch.setattr(bulk, "CACHE_SIZE", 100)
    encoder = LineEncoder(parser.featurizer, index)
    records = [[f"Zq{i}x:", "   Indented line"] for i in range(5_000)]
    for lines in records:
        encoder.encode_record(lines)
    assert len(encoder._ctx) <= 100
    # Skipped line profiles and header contexts both count.
    assert encoder.cache_full_skips >= 2 * (5_000 - 100)
    # Past the cap a header resolves to the same ids as before it.
    assert encoder.encode_record(records[-1]) == fresh.encode_record(records[-1])
    # A cache file takes no more header contexts than the cap either.
    for lines in records[:300]:
        full.encode_record(lines)
    small = LineEncoder(parser.featurizer, index)
    small.load_cache_state(small.read_cache_arrays(full.cache_arrays()))
    assert len(full._ctx) == 300
    assert len(small._ctx) <= 100 and len(small._lines) <= 100


def test_line_cache_counters_add_up_under_concurrent_batches(
    world, clean_registry
):
    # The parse and RDAP batchers' executor threads can run parse_many
    # on one parser at once; each call drains its encoders' deltas into
    # the registry.  No lookup may be lost or counted twice.
    _parser, texts, model_dir = world
    parser = WhoisParser.load(model_dir)
    failures: list[Exception] = []

    def hammer(offset: int) -> None:
        try:
            for start in range(offset, len(texts) - 1, 2):
                for _ in range(3):
                    parser.parse_many(texts[start:start + 2])
        except Exception as exc:  # asserted on in the test's thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [
            threading.Thread(target=hammer, args=(offset,))
            for offset in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    for encoder, level in zip(parser._encoders(), ("block", "registrant")):
        counted = clean_registry.counter_value(
            "parse.line_cache.hits", level=level
        ) + clean_registry.counter_value(
            "parse.line_cache.misses", level=level
        )
        assert counted == encoder.hits + encoder.misses > 0


# ----------------------------------------------------------------------
# Decoded results
# ----------------------------------------------------------------------


def test_decode_results_do_not_alias_across_batches(world):
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

    def decode(batch):
        emit, trans = batch.potentials(view)
        return (
            batch_viterbi(batch, emit, trans),
            batch_marginals(batch, emit, trans),
        )

    labels1, marginals1 = decode(first)
    kept = ([p.copy() for p in labels1], [m.copy() for m in marginals1])
    decode(second)
    for expected, got in zip(kept[0], labels1):
        np.testing.assert_array_equal(expected, got)
    for expected, got in zip(kept[1], marginals1):
        np.testing.assert_array_equal(expected, got)
    # Decoding batch 1 again is bit-identical.
    labels_again, marginals_again = decode(first)
    for expected, got in zip(kept[0], labels_again):
        np.testing.assert_array_equal(expected, got)
    for expected, got in zip(kept[1], marginals_again):
        np.testing.assert_array_equal(expected, got)
