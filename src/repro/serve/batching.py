"""Micro-batching queue for streaming recommendation requests.

Every served call pays a fixed per-call cost (argument checks, one top-K
pass against the item index, Python overhead) regardless of how many users
ride along.  The :class:`RequestBatcher` therefore accumulates incoming
requests and serves them in one vectorized batch: when the queue reaches
``max_batch_size``, when the oldest request passes ``max_delay``, or when
the caller flushes explicitly.  ``submit`` returns a :class:`PendingRequest`
ticket, and every ticket of a batch is resolved (fulfilled or failed)
during the same ``flush()``.

Used synchronously, nothing runs in the background and serving is fully
deterministic; the correctness tests (serve vs. brute force) rely on this.
:meth:`RequestBatcher.start` adds a background flusher thread, so client
threads only ``submit()`` and block on ``ticket.result()``.  Batches are
formed and served under one lock either way, so served lists are
**bit-identical** to synchronous :meth:`~repro.serve.ColdStartServer.recommend`
calls for the same traffic (pinned by ``tests/test_serve_frontend.py``)::

    with RequestBatcher(server, max_delay=0.005).start() as batcher:
        ticket = batcher.submit(user=4)          # from any thread
        print(ticket.result(timeout=1.0).items)
"""

from __future__ import annotations

import logging
import operator
import threading
import time
from typing import Callable, List, Optional

from .server import ColdStartServer, Recommendation

_log = logging.getLogger(__name__)


class PendingRequest:
    """A future-like ticket for one enqueued recommendation request.

    ``user`` must be an integer (``operator.index``): a float id raises
    :class:`TypeError` at submit time instead of being truncated.
    """

    def __init__(self, user: int, k: Optional[int], batcher: "RequestBatcher"):
        self.user = operator.index(user)
        self.k = k
        self._batcher = batcher
        self._result: Optional[Recommendation] = None
        self._error: Optional[BaseException] = None
        self._resolved = threading.Event()

    @property
    def done(self) -> bool:
        """Whether the batch containing this request has been flushed.

        True for both outcomes — fulfilled and failed; check :attr:`failed`
        (or call :meth:`result`, which re-raises) to tell them apart.
        """
        return self._resolved.is_set()

    @property
    def failed(self) -> bool:
        """Whether this request's serve raised instead of producing a list."""
        return self._error is not None

    def result(self, timeout: Optional[float] = None) -> Recommendation:
        """Return the recommendation, waiting up to ``timeout`` seconds.

        A request that failed during its flush (e.g. an out-of-range user
        id) re-raises the original error here, on *its* caller — never on
        the co-batched requests.  An unresolved request raises
        :class:`TimeoutError` once ``timeout`` passes.  With ``timeout=None``
        it blocks until its batch is served on a started or closing batcher,
        and raises :class:`RuntimeError` at once otherwise, since nothing but
        the caller could flush it.
        """
        batcher = self._batcher
        if (timeout is None and not self.done
                and batcher._flusher is None and not batcher._closed):
            raise RuntimeError(
                f"request for user {self.user} is still queued; call flush() "
                "on the batcher first, or start() it")
        if not self._resolved.wait(timeout):
            raise TimeoutError(
                f"request for user {self.user} not served within "
                f"{timeout!r}s; is the batcher stalled?")
        if self._error is not None:
            raise self._error
        return self._result

    def _fulfill(self, recommendation: Recommendation) -> None:
        self._result = recommendation
        self._resolved.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._resolved.set()


class RequestBatcher:
    """Accumulate requests and serve them in vectorized batches.

    Safe to call from any thread.  Call :meth:`start` to launch the
    background flusher, and :meth:`close` (or leave a ``with`` block) to
    stop it and serve what is still queued.

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
        traffic; the started flusher checks it every ``max_delay / 4``
        (clamped to [0.5 ms, 50 ms]).  ``None`` (default) keeps the
        size-only policy.
    clock:
        Monotonic time source; injectable so timeout behaviour is testable
        without sleeping.  The flusher thread itself sleeps in real time.
    """

    def __init__(self, server: ColdStartServer, max_batch_size: int = 256,
                 max_delay: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_delay is not None and not max_delay >= 0:  # also rejects NaN
            raise ValueError(f"max_delay must be non-negative, got {max_delay}")
        self.server = server
        self.max_batch_size = int(max_batch_size)
        self.max_delay = max_delay
        self._clock = clock
        self._lock = threading.RLock()
        self._oldest_enqueued: Optional[float] = None
        self._queue: List[PendingRequest] = []
        self._submits = 0               # idle detection (see _flusher_loop)
        self._closed = False
        self._crash: Optional[BaseException] = None
        self._stop = threading.Event()
        self._flusher: Optional[threading.Thread] = None
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
        Raises :class:`TypeError` for a non-integer ``user`` (nothing is
        queued) and :class:`RuntimeError` once the batcher is closed.
        """
        with self._lock:
            if self._closed:
                if self._crash is not None:
                    raise RuntimeError(
                        f"batcher closed: its flusher died with "
                        f"{self._crash!r}") from self._crash
                raise RuntimeError("batcher is closed; no new submits")
            request = PendingRequest(user, k, self)
            if not self._queue:
                self._oldest_enqueued = self._clock()
            self._queue.append(request)
            self._submits += 1
            if len(self._queue) >= self.max_batch_size or self._deadline_passed():
                self.flush()
        return request

    def poll(self) -> List[Optional[Recommendation]]:
        """Flush iff the oldest queued request has exceeded ``max_delay``.

        Call periodically from a serving loop; returns the flushed
        recommendations (empty when nothing was due).
        """
        with self._lock:
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
        with self._lock:
            if not self._queue:
                return []
            queue, self._queue = self._queue, []
            self._oldest_enqueued = None
            # Requests with an explicit k are grouped per k so each group is
            # still a single vectorized call; the common case (default k) is
            # one batch.
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
                    # The vectorized call is all-or-nothing: one bad request
                    # in the group raised before *any* ticket was fulfilled.
                    # Retry per request so valid co-batched traffic is still
                    # served and only the offenders carry the error.
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

    def start(self) -> "RequestBatcher":
        """Launch the background flusher thread (idempotent); returns self.

        The flusher enforces ``max_delay`` without any further call, and
        also flushes a queue that saw no submit for a whole tick — the
        closed-loop case where every client is blocked on a ticket and
        waiting out ``max_delay`` would only add latency.
        """
        with self._lock:
            if self._flusher is None:
                self._flusher = threading.Thread(
                    target=self._flusher_loop, name="request-batcher-flusher",
                    daemon=True)
                self._flusher.start()
        return self

    def _flusher_loop(self) -> None:
        tick = (self.max_delay / 4.0) if self.max_delay else 0.002
        tick = min(0.05, max(0.0005, tick))
        submits_at_last_tick = -1
        try:
            while not self._stop.wait(tick):
                with self._lock:
                    if self._queue and submits_at_last_tick == self._submits:
                        self.flush()
                    else:
                        self.poll()
                    submits_at_last_tick = self._submits
        except Exception as error:
            # A dead flusher would strand every queued ticket until its
            # timeout; fail them now and refuse further work instead.
            _log.exception("request batcher flusher died; failing queued "
                           "requests and closing the batcher")
            with self._lock:
                self._closed = True
                self._crash = error
                queue, self._queue = self._queue, []
                self._oldest_enqueued = None
            for request in queue:
                request._fail(error)

    def close(self) -> None:
        """Stop the flusher, serve everything still queued, refuse new work.

        Idempotent; every queued ticket is resolved before this returns, so
        no caller is left blocking on ``result()``.
        """
        with self._lock:
            self._closed = True
        self._stop.set()
        if self._flusher is not None:
            self._flusher.join()
        self.flush()

    def __enter__(self) -> "RequestBatcher":
        """Context-manager entry: the batcher itself."""
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Context-manager exit: stop the flusher and drain the queue."""
        self.close()


class ServingFrontend(RequestBatcher):
    """A :class:`RequestBatcher` started at construction, ``max_delay`` 5 ms.

    Equivalent to ``RequestBatcher(server, max_batch_size, max_delay,
    clock).start()``; kept only for callers that still construct it by
    name.
    """

    def __init__(self, server: ColdStartServer, max_batch_size: int = 256,
                 max_delay: Optional[float] = 0.005,
                 clock: Callable[[], float] = time.monotonic):
        super().__init__(server, max_batch_size=max_batch_size,
                         max_delay=max_delay, clock=clock)
        self.start()
