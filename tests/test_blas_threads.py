"""The L-BFGS fit runs on one BLAS thread, whatever the environment says.

numpy and scipy each bundle an OpenBLAS, and the fit's dot products sum
in an order that depends on their thread count.  ``LBFGSTrainer.fit``
pins every loaded OpenBLAS to one thread while it runs and restores the
previous count afterwards, so the fitted parameters are the same floats
under any ``OPENBLAS_NUM_THREADS``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.crf import train
from repro.crf.model import ChainCRF
from repro.crf.train import one_blas_thread, openblas_libraries
from tests.crf_data import indexed

REPO_ROOT = Path(__file__).resolve().parents[1]

#: A 10-record block-level fit: 11,730 parameters, past the size at
#: which OpenBLAS splits a dot product across threads.
_FIT_DIGEST = """
import hashlib
from repro.datagen import CorpusConfig, CorpusGenerator
from repro.parser import WhoisParser
corpus = CorpusGenerator(CorpusConfig(seed=3)).labeled_corpus(10)
parser = WhoisParser(l2=0.1, second_level=False, max_iterations=30).fit(corpus)
print(hashlib.sha256(parser.block_crf.params.tobytes()).hexdigest())
"""


def _thread_counts() -> list[int]:
    """Each loaded OpenBLAS's thread count (set, then put back)."""
    counts = []
    for library in openblas_libraries():
        count = library.openblas_set_num_threads_local(1)
        library.openblas_set_num_threads_local(count)
        counts.append(count)
    return counts


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS on two threads for the test, then restored."""
    libraries = openblas_libraries()
    if not libraries:
        pytest.skip("no OpenBLAS is loaded")
    previous = [library.openblas_set_num_threads_local(2) for library in libraries]
    try:
        if _thread_counts() != [2] * len(libraries):
            pytest.skip("OpenBLAS will not run two threads here")
        yield [2] * len(libraries)
    finally:
        for library, count in zip(libraries, previous):
            library.openblas_set_num_threads_local(count)


def _tiny_crf_data():
    index, seqs = indexed(["p", "q"], [
        ([["a", "x"], ["b"], ["a"]], [[], ["NL"], []]),
        [["b"], ["x"]],
        [["a"]],
    ])
    labels = [["p", "q", "p"], ["q", "p"], ["p"]]
    return index, seqs, labels


def _fit_tiny(max_iterations=5):
    index, seqs, labels = _tiny_crf_data()
    return ChainCRF(["p", "q"], max_iterations=max_iterations).fit(
        index, seqs, labels
    )


def test_fit_params_do_not_depend_on_the_blas_thread_count():
    if not openblas_libraries():
        pytest.skip("no OpenBLAS is loaded")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
        )
        out = subprocess.run(
            [sys.executable, "-c", _FIT_DIGEST],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        digests.add(out.strip())
    assert len(digests) == 1, digests


def test_fit_runs_on_one_thread_and_restores_the_count(
    two_blas_threads, monkeypatch
):
    seen = []
    evaluate = train.batch_nll_grad

    def recording(*args, **kwargs):
        seen.append(_thread_counts())
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(train, "batch_nll_grad", recording)
    _fit_tiny()
    assert seen and all(counts == [1] * len(two_blas_threads) for counts in seen)
    assert _thread_counts() == two_blas_threads


def test_count_is_restored_when_the_objective_raises(two_blas_threads, monkeypatch):
    def failing(*_args, **_kwargs):
        raise RuntimeError("objective failed")

    monkeypatch.setattr(train, "batch_nll_grad", failing)
    with pytest.raises(RuntimeError, match="objective failed"):
        _fit_tiny()
    assert _thread_counts() == two_blas_threads


def test_nested_fit_keeps_the_pin(two_blas_threads, monkeypatch):
    after_inner = []
    evaluate = train.batch_nll_grad

    def nesting(*args, **kwargs):
        if not after_inner:
            after_inner.append(None)
            _fit_tiny(max_iterations=2)
            after_inner.append(_thread_counts())
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(train, "batch_nll_grad", nesting)
    _fit_tiny()
    assert after_inner[1] == [1] * len(two_blas_threads)
    assert _thread_counts() == two_blas_threads


def test_overlapping_holders_keep_one_thread_until_the_last_leaves(
    two_blas_threads,
):
    first, second = one_blas_thread(), one_blas_thread()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)
    assert _thread_counts() == [1] * len(two_blas_threads)
    second.__exit__(None, None, None)
    assert _thread_counts() == two_blas_threads


def test_pin_does_nothing_without_openblas(monkeypatch):
    monkeypatch.setattr(train, "openblas_libraries", lambda: [])
    with one_blas_thread():
        crf = _fit_tiny()
    assert crf.is_fitted
