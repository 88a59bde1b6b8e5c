"""Micro-batching queue for streaming recommendation requests.

Every served call pays a fixed per-call cost (argument checks, one top-K
pass against the item index, Python overhead) regardless of how many users
ride along.  The :class:`RequestBatcher` therefore queues incoming requests
and serves them in vectorized batches of at most ``max_batch_size``.
``submit`` checks a request and returns a :class:`PendingRequest` ticket,
and every ticket of a flushed queue is resolved during the same ``flush()``.

Used synchronously, nothing runs in the background and serving is fully
deterministic; the correctness tests (serve vs. brute force) rely on this.
:meth:`RequestBatcher.start` adds a work-conserving flusher thread that
flushes whenever it is idle and the queue is not empty, so batches grow
with load by themselves (dynamic batching, as in Clipper).  Client threads
only ``submit()``, which never waits behind a batch in progress, and block
on ``ticket.result()``.  The queue lock is the batcher's only lock: serving
runs outside it, and since :meth:`~repro.serve.ColdStartServer.recommend`
keeps no state, the flusher and a caller's ``flush()`` may serve at once.
Served lists are **bit-identical** to synchronous
:meth:`~repro.serve.ColdStartServer.recommend` calls for the same traffic
(pinned by ``tests/test_serve_frontend.py``)::

    with RequestBatcher(server).start() as batcher:
        ticket = batcher.submit(user=4)          # from any thread
        print(ticket.result(timeout=1.0).items)
"""

from __future__ import annotations

import logging
import operator
import threading
from typing import List, Optional

from .item_index import _as_k
from .server import ColdStartServer, Recommendation

_log = logging.getLogger(__name__)


class PendingRequest:
    """A future-like ticket for one enqueued recommendation request.

    ``user`` must be a row of the served user table and ``k``, when given,
    an integer >= 1.  Both are checked here, at submit time, with the
    exception types ``recommend`` raises, so nothing request-specific can
    fail once the request is queued.
    """

    def __init__(self, user: int, k: Optional[int], batcher: "RequestBatcher"):
        if isinstance(user, bool):  # operator.index(True) == 1
            raise TypeError(f"user ids must be integers, got {user!r}")
        self.user = operator.index(user)
        if not 0 <= self.user < batcher._num_users:
            raise ValueError(f"user index out of range (num_users="
                             f"{batcher._num_users}), got {self.user}")
        self.k = None if k is None else _as_k(k)
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

        A request whose ``k``-group failed re-raises that group's one
        ``recommend`` error here; every ticket of the group holds the same
        error object.  An unresolved request raises
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

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._resolved.set()


class RequestBatcher:
    """Queue requests and serve them in vectorized batches.

    Safe to call from any thread.  Call :meth:`start` to launch the
    background flusher, and :meth:`close` (or leave a ``with`` block) to
    stop it and serve what is still queued.

    Parameters
    ----------
    server:
        The :class:`ColdStartServer` used to fulfil batches.
    max_batch_size:
        Most users served in one vectorized call (an integer >= 1; ``2.5``
        raises :class:`TypeError`).  A flush serves a longer
        queue in consecutive batches of this size, and on a batcher that is
        not started, the submit that queues the ``max_batch_size``-th
        request flushes at once.
    """

    def __init__(self, server: ColdStartServer, max_batch_size: int = 256):
        self.server = server
        self.max_batch_size = _as_k(max_batch_size, "max_batch_size")
        # refresh() re-encodes the same source graph, so this is fixed.
        self._num_users = server._snapshot.user_latents.shape[0]
        # The only lock.  It guards the queue, the lifecycle flags and
        # batches_flushed, never serving, so a submit does not wait behind
        # a batch; the flusher waits on it.
        self._lock = threading.Condition(threading.Lock())
        self._queue: List[PendingRequest] = []
        self._closed = False
        self._crash: Optional[BaseException] = None
        self._flusher: Optional[threading.Thread] = None
        self.batches_flushed = 0

    def __len__(self) -> int:
        return len(self._queue)

    def submit(self, user: int, k: Optional[int] = None) -> PendingRequest:
        """Enqueue one request and return its ticket.

        On a started batcher this only appends and wakes the flusher.  On
        one that is not started, the submit that fills a batch flushes it.
        Raises :class:`TypeError` for a non-integer ``user`` or ``k``,
        :class:`ValueError` for a ``user`` outside the served table or
        ``k < 1`` (nothing is queued either way) and :class:`RuntimeError`
        once the batcher is closed.
        """
        request = PendingRequest(user, k, self)
        with self._lock:
            if self._closed:
                if self._crash is not None:
                    raise RuntimeError(
                        f"batcher closed: its flusher died with "
                        f"{self._crash!r}") from self._crash
                raise RuntimeError("batcher is closed; no new submits")
            self._queue.append(request)
            if self._flusher is not None:
                self._lock.notify()
                return request
            full = len(self._queue) >= self.max_batch_size
        if full:
            self.flush()
        return request

    def flush(self) -> List[Optional[Recommendation]]:
        """Serve every queued request, in batches of ``max_batch_size``.

        The queue is swapped out under the queue lock and served outside
        it, so requests submitted meanwhile wait for the next flush.  Every
        ticket of the swapped queue is resolved by the time this returns:
        fulfilled, or failed with the error its ``k``-group's one
        ``recommend`` call raised (:meth:`PendingRequest.result` re-raises
        it).  Failed positions are ``None`` in the returned list.
        """
        size = self.max_batch_size
        with self._lock:
            queue, self._queue = self._queue, []
            self.batches_flushed += -(-len(queue) // size)  # ceil division
        if not queue:
            return []
        # recommend is stateless, so concurrent flushes need no lock here.
        for start in range(0, len(queue), size):
            self._serve(queue[start:start + size])
        # Wake callers only now: every ticket of a flush resolves together.
        for request in queue:
            request._resolved.set()
        return [request._result for request in queue]

    def _serve(self, batch: List[PendingRequest]) -> None:
        """Serve one batch, recording each request's list or error on it."""
        # Requests with an explicit k are grouped per k so each group is
        # still a single vectorized call; the common case (default k) is
        # one call.
        by_k = {}
        for request in batch:
            by_k.setdefault(request.k, []).append(request)
        for k, requests in by_k.items():
            try:
                served = self.server.recommend([r.user for r in requests], k=k)
            except Exception as error:
                for request in requests:
                    request._error = error
                continue
            for request, recommendation in zip(requests, served):
                request._result = recommendation

    def start(self) -> "RequestBatcher":
        """Launch the background flusher thread (idempotent); returns self.

        The flusher sleeps until the queue is non-empty, then flushes it,
        so it never holds a request back once it is free to serve it.
        """
        with self._lock:
            if self._flusher is None:
                self._flusher = threading.Thread(
                    target=self._flusher_loop, name="request-batcher-flusher",
                    daemon=True)
                self._flusher.start()
        return self

    def _flusher_loop(self) -> None:
        try:
            while True:
                with self._lock:
                    while not self._queue and not self._closed:
                        self._lock.wait()
                    if not self._queue:  # closed and drained
                        return
                self.flush()
        except Exception as error:
            # A dead flusher would strand every queued ticket until its
            # timeout; fail them now and refuse further work instead.
            _log.exception("request batcher flusher died; failing queued "
                           "requests and closing the batcher")
            with self._lock:
                self._closed = True
                self._crash = error
                queue, self._queue = self._queue, []
            for request in queue:
                request._fail(error)

    def close(self) -> None:
        """Stop the flusher, serve everything still queued, refuse new work.

        Idempotent; every queued ticket is resolved before this returns, so
        no caller is left blocking on ``result()``.
        """
        with self._lock:
            self._closed = True
            self._lock.notify_all()
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
    """``RequestBatcher(server, max_batch_size).start()``, by another name.

    ``max_delay`` is accepted and ignored (a started batcher has no delay
    to set); both remain only because ``bench/workloads.py`` passes it.
    """

    def __init__(self, server: ColdStartServer, max_batch_size: int = 256,
                 max_delay: Optional[float] = None):
        super().__init__(server, max_batch_size=max_batch_size)
        self.start()
