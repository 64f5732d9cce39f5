"""Reusable tensor arenas for the CRF hot path.

The batched decode/training routines allocate the same large padded
tensors on every call -- emission ``(R, T, S)`` and transition
``(R, T-1, S, S)`` potentials, the alpha/beta recursion tables, Viterbi
backpointers.  At survey scale (Section 6: 102M records in ~400k
chunks) those ``np.empty``/``np.zeros`` calls are pure allocator churn:
every chunk frees multi-megabyte blocks it will need again milliseconds
later.  A :class:`TensorArena` keeps one flat buffer per (name, dtype)
and hands out reshaped views, so steady-state chunks run with zero
heap allocation for their big intermediates.

Safety rules, enforced by convention across :mod:`repro.crf.batch` and
:mod:`repro.crf.decode`:

- A buffer named ``name`` is valid only until the next ``take(name,...)``
  on the same arena.  Only the intermediates that callers chain within
  one batch (potentials, forward-backward tables) are returned as arena
  views; anything that escapes a batch (Viterbi paths, marginal rows,
  ``log Z``) is copied out first.
- Arenas are **not** shared between threads.  The serving tier decodes
  batches on executor threads, so the hot paths reach their arena via
  :func:`get_arena`, which hands each thread its own instance.

Buffers grow to exactly the largest shape seen and never shrink;
``chunk_size`` bounds ``R`` and the longest record bounds ``T``, so the
steady-state footprint is a handful of chunk-sized tensors
(:attr:`TensorArena.nbytes` reports it, exported as the
``parse.arena_bytes`` gauge by the bulk parser).
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["TensorArena", "get_arena"]


class TensorArena:
    """A pool of named, reusable flat buffers handed out as shaped views.

    ``take(name, shape, dtype)`` returns an *uninitialized* array of
    exactly ``shape`` backed by the pooled buffer for ``(name, dtype)``,
    growing the buffer to fit when the request outsizes it.  The
    view is valid until the next ``take`` of the same name; callers own
    nothing and must copy anything that outlives the batch.
    """

    def __init__(self) -> None:
        """Create an empty arena; buffers appear on first ``take``."""
        self._buffers: dict[tuple[str, str], np.ndarray] = {}
        #: buffers handed out / buffers newly allocated, for introspection
        self.takes = 0
        self.allocations = 0

    def take(
        self, name: str, shape: tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        """An uninitialized ``shape`` array reusing the ``name`` buffer."""
        dtype = np.dtype(dtype)
        size = 1
        for dim in shape:
            size *= int(dim)
        key = (name, dtype.str)
        buffer = self._buffers.get(key)
        self.takes += 1
        if buffer is None or buffer.size < size:
            buffer = np.empty(size, dtype=dtype)
            self._buffers[key] = buffer
            self.allocations += 1
        return buffer[:size].reshape(shape)

    def zeros(
        self, name: str, shape: tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        """Like :meth:`take`, but zero-filled."""
        out = self.take(name, shape, dtype)
        out.fill(0)
        return out

    def full(
        self, name: str, shape: tuple[int, ...], value, dtype=np.float64
    ) -> np.ndarray:
        """Like :meth:`take`, but filled with ``value``."""
        out = self.take(name, shape, dtype)
        out.fill(value)
        return out

    @property
    def nbytes(self) -> int:
        """Total bytes currently pooled across all buffers."""
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def clear(self) -> None:
        """Release every pooled buffer (outstanding views keep theirs)."""
        self._buffers.clear()


class _ThreadArena(threading.local):
    """Per-thread slot; ``__init__`` runs once in each thread that reads it."""

    def __init__(self) -> None:
        self.arena = TensorArena()


_local = _ThreadArena()


def get_arena() -> TensorArena:
    """This thread's shared :class:`TensorArena` (created on first use).

    One arena per thread keeps the serving tier safe: executor threads
    decoding concurrent batches each reuse their own buffers and never
    see another batch's views.
    """
    return _local.arena
