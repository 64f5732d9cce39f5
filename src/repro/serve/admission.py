"""Admission control and backpressure for the serving tier.

A server that accepts every request dies by queueing: past saturation,
latency grows without bound and every client times out.  The admission
controller bounds the work the process will hold at once and sheds the
rest *early*, with typed :mod:`repro.errors` rejections a client can
act on:

- :class:`~repro.errors.Overloaded` (503) once admitted-but-unfinished
  requests reach ``queue_depth`` -- the load-shedding bound covering
  both the batcher queues and in-flight batches;
- :class:`~repro.errors.RateLimited` (429) when one client exceeds its
  per-client budget.  The budget is a
  :class:`~repro.netsim.ratelimit.RateLimiter` -- the *same* slide-and-
  penalize semantics the simulated registrar servers enforce against
  our crawler in Section 4.1, now applied from the server's side of the
  counter;
- :class:`~repro.errors.Unavailable` (503) after :meth:`close`, i.e.
  during shutdown.

Admission is synchronous and cheap (a counter compare and a deque
trim), so it runs before any request is enqueued anywhere.
"""

from __future__ import annotations

import time

from repro import errors, obs
from repro.netsim.ratelimit import RateLimiter

__all__ = ["AdmissionController", "WallClock"]

#: Seconds over which a client's ``rate_limit`` admissions are counted.
RATE_WINDOW = 1.0

#: Seconds a client that tripped its limit is locked out.
RATE_PENALTY = 1.0


class WallClock:
    """Monotonic wall time behind the ``now()`` protocol SimClock set.

    Lets the serving tier reuse the netsim :class:`RateLimiter`
    unchanged: the limiter only ever calls ``clock.now()``.
    """

    @staticmethod
    def now() -> float:
        """Monotonic seconds; the default serving clock."""
        return time.monotonic()


class AdmissionController:
    """Bound concurrent work and per-client request rates.

    Parameters
    ----------
    queue_depth:
        Maximum admitted-but-unfinished requests across the process.
    rate_limit:
        Per-client budget: at most ``rate_limit`` admissions per
        :data:`RATE_WINDOW` seconds, with a :data:`RATE_PENALTY`-second
        lockout once tripped (``None`` disables per-client limiting).
    clock:
        Any ``now() -> float`` object; defaults to the wall clock.
        Tests pass a :class:`~repro.netsim.clock.SimClock` to step
        through penalty windows deterministically.
    """

    def __init__(
        self,
        *,
        queue_depth: int = 256,
        rate_limit: int | None = None,
        clock=None,
    ) -> None:
        """See the class docstring for the parameter semantics."""
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.queue_depth = queue_depth
        self._limiter = (
            RateLimiter(
                clock or WallClock(),
                limit=rate_limit,
                window=RATE_WINDOW,
                penalty=RATE_PENALTY,
            )
            if rate_limit is not None
            else None
        )
        self.inflight = 0
        self.admitted = 0
        self.rejected = 0
        self._closed = False

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop admitting; subsequent :meth:`admit` raises Unavailable."""
        self._closed = True

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; new requests are Unavailable."""
        return self._closed

    def _reject(self, exc: errors.ReproError) -> errors.ReproError:
        self.rejected += 1
        obs.inc("serve.rejected", code=exc.code)
        return exc

    def admit(self, client: str = "local") -> None:
        """Admit one request or raise a typed rejection.

        Every successful ``admit`` must be paired with a
        :meth:`release` (use ``try/finally``); the in-flight gauge is
        the difference.
        """
        if self._closed:
            raise self._reject(
                errors.Unavailable("server is shutting down")
            )
        if self.inflight >= self.queue_depth:
            raise self._reject(
                errors.Overloaded(
                    f"{self.inflight} requests in flight "
                    f"(queue depth {self.queue_depth})"
                )
            )
        if self._limiter is not None and not self._limiter.allow(client):
            raise self._reject(
                errors.RateLimited(f"client {client} over per-client limit")
            )
        self.inflight += 1
        self.admitted += 1
        obs.inc("serve.admitted")
        obs.set_gauge("serve.inflight", self.inflight)

    def release(self) -> None:
        """Mark one admitted request finished (success or failure)."""
        self.inflight -= 1
        obs.set_gauge("serve.inflight", self.inflight)
