"""Micro-batching queue for streaming recommendation requests.

Every served call pays a fixed per-call cost (argument checks, one top-K
pass against the item index, Python overhead) regardless of how many users
ride along.  The :class:`RequestBatcher` therefore accumulates incoming
requests and serves them in one vectorized batch, either when the queue
reaches ``max_batch_size`` or when the caller flushes explicitly.

The design is deliberately synchronous and thread-free: callers get a
:class:`PendingRequest` ticket back, and every ticket of a batch is resolved
(fulfilled or failed) during the same ``flush()``.  This keeps serving fully
deterministic, which the correctness tests (serve vs. brute force) rely on;
the concurrent front-end (:class:`~repro.serve.ServingFrontend`) wraps
``submit``/``poll``/``flush`` under a lock without changing this core.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from .server import ColdStartServer, Recommendation


class PendingRequest:
    """A future-like ticket for one enqueued recommendation request."""

    def __init__(self, user: int, k: Optional[int]):
        self.user = int(user)
        self.k = k
        self._result: Optional[Recommendation] = None
        self._error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        """Whether the batch containing this request has been flushed.

        True for both outcomes — fulfilled and failed; check :attr:`failed`
        (or call :meth:`result`, which re-raises) to tell them apart.
        """
        return self._result is not None or self._error is not None

    @property
    def failed(self) -> bool:
        """Whether this request's serve raised instead of producing a list."""
        return self._error is not None

    def result(self) -> Recommendation:
        """Return the recommendation; raises if not flushed yet or failed.

        A request that failed during its flush (e.g. an out-of-range user
        id) re-raises the original error here, on *its* caller — never on
        the co-batched requests.
        """
        if self._error is not None:
            raise self._error
        if self._result is None:
            raise RuntimeError(
                f"request for user {self.user} is still queued; call flush() "
                "on the batcher first"
            )
        return self._result

    def _fulfill(self, recommendation: Recommendation) -> None:
        self._result = recommendation

    def _fail(self, error: BaseException) -> None:
        self._error = error


class RequestBatcher:
    """Accumulate requests and serve them in vectorized batches.

    Parameters
    ----------
    server:
        The :class:`ColdStartServer` used to fulfil batches.
    max_batch_size:
        Auto-flush threshold; queueing the ``max_batch_size``-th request
        triggers an immediate flush.
    max_delay:
        Optional age limit (seconds) for the oldest queued request.  A
        ``submit`` or :meth:`poll` that finds the queue older than this
        flushes the partial batch, bounding tail latency under light
        traffic.  ``None`` (default) keeps the original size-only policy.
    clock:
        Monotonic time source; injectable so timeout behaviour is testable
        without sleeping.
    """

    def __init__(self, server: ColdStartServer, max_batch_size: int = 256,
                 max_delay: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_delay is not None and max_delay < 0:
            raise ValueError(f"max_delay must be non-negative, got {max_delay}")
        self.server = server
        self.max_batch_size = int(max_batch_size)
        self.max_delay = max_delay
        self._clock = clock
        self._oldest_enqueued: Optional[float] = None
        self._queue: List[PendingRequest] = []
        self.batches_flushed = 0

    def __len__(self) -> int:
        return len(self._queue)

    def _deadline_passed(self) -> bool:
        return (self.max_delay is not None
                and self._oldest_enqueued is not None
                and self._clock() - self._oldest_enqueued >= self.max_delay)

    def submit(self, user: int, k: Optional[int] = None) -> PendingRequest:
        """Enqueue one request; auto-flushes when the batch is full.

        With ``max_delay`` configured, a submit that finds the oldest queued
        request past its deadline also flushes — so a timed-out partial
        batch is served together with the request that discovered it.
        """
        request = PendingRequest(user, k)
        if not self._queue:
            self._oldest_enqueued = self._clock()
        self._queue.append(request)
        if len(self._queue) >= self.max_batch_size or self._deadline_passed():
            self.flush()
        return request

    def poll(self) -> List[Recommendation]:
        """Flush iff the oldest queued request has exceeded ``max_delay``.

        Call periodically from a serving loop; returns the flushed
        recommendations (empty when nothing was due).
        """
        if self._deadline_passed():
            return self.flush()
        return []

    def flush(self) -> List[Optional[Recommendation]]:
        """Serve every queued request in one batched call.

        Every ticket of the flushed queue is resolved by the time this
        returns: fulfilled, or — when its request raised — failed with the
        original error attached (:meth:`PendingRequest.result` re-raises
        it).  A poisoned batch (e.g. one out-of-range user id riding with
        valid requests) degrades that ``k``-group to per-request serving so
        only the offending requests fail; co-batched tickets are never
        dropped.  Failed positions are ``None`` in the returned list.
        """
        if not self._queue:
            return []
        queue, self._queue = self._queue, []
        self._oldest_enqueued = None
        # Requests with an explicit k are grouped per k so each group is still
        # a single vectorized call; the common case (default k) is one batch.
        by_k = {}
        for position, request in enumerate(queue):
            by_k.setdefault(request.k, []).append(position)
        results: List[Optional[Recommendation]] = [None] * len(queue)
        for k, positions in by_k.items():
            try:
                recommendations = self.server.recommend(
                    [queue[p].user for p in positions], k=k
                )
            except Exception:
                # The vectorized call is all-or-nothing: one bad request in
                # the group raised before *any* ticket was fulfilled.  Retry
                # per request so valid co-batched traffic is still served and
                # only the offenders carry the error.
                for position in positions:
                    try:
                        recommendation = self.server.recommend(
                            [queue[position].user], k=k)[0]
                    except Exception as error:
                        queue[position]._fail(error)
                    else:
                        queue[position]._fulfill(recommendation)
                        results[position] = recommendation
                continue
            for position, recommendation in zip(positions, recommendations):
                queue[position]._fulfill(recommendation)
                results[position] = recommendation
        self.batches_flushed += 1
        return results
