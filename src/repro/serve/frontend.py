"""Concurrent serving front-end: thread-safe tickets over ``RequestBatcher``.

:class:`~repro.serve.RequestBatcher` is deliberately synchronous and
thread-free — that keeps the batching core deterministic and testable.  A
real serving process, however, has many client threads producing requests
concurrently and nobody whose job it is to call ``flush``.
:class:`ServingFrontend` closes that gap:

* ``submit()`` is safe to call from any thread and returns a
  :class:`FrontendTicket` whose ``result()`` blocks until the batch
  containing the request has been served.
* A background *flusher* thread enforces the batcher's ``max_delay`` (no
  request waits longer than the configured age for a batch to fill) and
  additionally flushes as soon as the queue goes *idle* — the closed-loop
  case where every client thread is blocked waiting and no further submits
  will arrive to top the batch up.
* All batcher and server state is touched under one lock, so the core
  stays single-threaded underneath: batches are formed and served exactly
  as the synchronous path would, and served lists are **bit-identical** to
  calling :meth:`~repro.serve.ColdStartServer.recommend` synchronously for
  the same traffic (pinned by ``tests/test_serve_frontend.py``).

The failure semantics follow the batcher's: a poisoned request fails only
its own ticket (``result()`` re-raises the original error); co-batched
traffic is served normally.

Typical use::

    with ServingFrontend(server, max_batch_size=256, max_delay=0.005) as fe:
        ticket = fe.submit(user=4)          # from any thread
        print(ticket.result(timeout=1.0).items)

The load-generation harness (:mod:`repro.experiments.loadgen`) drives this
front-end with N concurrent workers to record latency percentiles and
saturation curves.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional

from .batching import PendingRequest, RequestBatcher
from .server import ColdStartServer, Recommendation


class FrontendTicket:
    """A thread-safe handle for one request submitted to the front-end.

    Wraps the batcher's :class:`~repro.serve.PendingRequest` with an event
    so a caller on another thread can block until the request's batch has
    been flushed (by the flusher thread, an auto-flush, or an explicit
    :meth:`ServingFrontend.flush`).
    """

    def __init__(self, request: PendingRequest):
        self._request = request
        self._event = threading.Event()

    @property
    def user(self) -> int:
        """The user index this request asked recommendations for."""
        return self._request.user

    @property
    def done(self) -> bool:
        """Whether the request has been resolved (fulfilled or failed)."""
        return self._event.is_set()

    @property
    def failed(self) -> bool:
        """Whether the request's serve raised instead of producing a list."""
        return self._request.failed

    def result(self, timeout: Optional[float] = None) -> Recommendation:
        """Block until the request resolves; return its recommendation.

        Raises :class:`TimeoutError` if ``timeout`` (seconds) elapses first,
        and re-raises the request's own error if its serve failed — exactly
        like :meth:`PendingRequest.result`, but safe to call before the
        flush has happened.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request for user {self.user} not served within "
                f"{timeout!r}s; is the front-end closed or stalled?")
        return self._request.result()


class ServingFrontend:
    """Thread-pool front-end turning concurrent submits into served batches.

    Parameters
    ----------
    server:
        The :class:`~repro.serve.ColdStartServer` that fulfils batches.
    max_batch_size, max_delay:
        Forwarded to the wrapped :class:`~repro.serve.RequestBatcher`:
        auto-flush threshold and the age limit (seconds) for the oldest
        queued request.  ``max_delay`` here defaults to 5 ms rather than
        ``None`` — a concurrent front-end without a deadline would strand
        partial batches forever under light traffic.
    poll_interval:
        How often the flusher thread wakes to check deadlines (seconds);
        defaults to ``max_delay / 4`` clamped to [0.5 ms, 50 ms].  Each
        wake-up also flushes an *idle* queue (no new submits since the
        previous wake-up), which bounds latency well below ``max_delay``
        when every client is blocked waiting on a ticket.
    clock:
        Monotonic time source, injectable for tests (affects the batcher's
        deadline bookkeeping; the flusher thread itself sleeps in real
        time).
    start:
        When False the flusher thread is not started; batches then flush
        only via size auto-flush or explicit :meth:`flush` — useful for
        deterministic single-threaded tests.
    """

    def __init__(self, server: ColdStartServer, max_batch_size: int = 256,
                 max_delay: Optional[float] = 0.005,
                 poll_interval: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic,
                 start: bool = True):
        self._batcher = RequestBatcher(server, max_batch_size=max_batch_size,
                                       max_delay=max_delay, clock=clock)
        if poll_interval is None:
            poll_interval = (max_delay / 4.0) if max_delay else 0.002
        self.poll_interval = min(0.05, max(0.0005, float(poll_interval)))
        self._lock = threading.Lock()
        self._outstanding: List[FrontendTicket] = []
        self._submits_seen = 0          # idle detection (see _flusher_tick)
        self._submits_at_last_tick = -1
        self._closed = False
        self._stop = threading.Event()
        self._flusher: Optional[threading.Thread] = None
        if start:
            self._flusher = threading.Thread(
                target=self._flusher_loop, name="serving-frontend-flusher",
                daemon=True)
            self._flusher.start()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, user: int, k: Optional[int] = None) -> FrontendTicket:
        """Enqueue one request from any thread; returns immediately.

        The returned ticket resolves when its batch is served — by the size
        auto-flush (possibly inside this very call), the background flusher,
        or an explicit :meth:`flush`.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("front-end is closed; no new submits")
            request = self._batcher.submit(user, k)
            ticket = FrontendTicket(request)
            self._outstanding.append(ticket)
            self._submits_seen += 1
            # submit() may have auto-flushed (batch full / deadline passed):
            # resolve every ticket whose request is already done.
            self._resolve_done_locked()
        return ticket

    def flush(self) -> List[Optional[Recommendation]]:
        """Flush the current queue explicitly (thread-safe)."""
        with self._lock:
            results = self._batcher.flush()
            self._resolve_done_locked()
        return results

    # ------------------------------------------------------------------ #
    # Flusher thread
    # ------------------------------------------------------------------ #
    def _flusher_tick(self) -> None:
        """One deadline/idleness check; called under no lock, takes it."""
        with self._lock:
            queued = len(self._batcher)
            if queued and self._submits_at_last_tick == self._submits_seen:
                # No submit arrived for a full poll interval: the queue is
                # idle (e.g. every closed-loop client is blocked on a
                # ticket), so waiting out max_delay only adds latency.
                self._batcher.flush()
            else:
                self._batcher.poll()
            self._submits_at_last_tick = self._submits_seen
            self._resolve_done_locked()

    def _flusher_loop(self) -> None:
        """Background loop enforcing ``max_delay`` and idle flushes."""
        while not self._stop.wait(self.poll_interval):
            self._flusher_tick()

    def _resolve_done_locked(self) -> None:
        """Signal every outstanding ticket whose request has resolved."""
        still_pending = []
        for ticket in self._outstanding:
            if ticket._request.done:
                ticket._event.set()
            else:
                still_pending.append(ticket)
        self._outstanding = still_pending

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Number of submitted-but-unresolved requests."""
        with self._lock:
            return len(self._outstanding)

    @property
    def server(self) -> ColdStartServer:
        """The wrapped server (its stats counters live there)."""
        return self._batcher.server

    @property
    def batches_flushed(self) -> int:
        """Batches served so far (delegates to the wrapped batcher)."""
        return self._batcher.batches_flushed

    def close(self) -> None:
        """Stop the flusher, serve everything still queued, refuse new work.

        Idempotent; every outstanding ticket is resolved before this
        returns, so no caller is left blocking on ``result()``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        if self._flusher is not None:
            self._flusher.join()
        with self._lock:
            self._batcher.flush()
            self._resolve_done_locked()

    def __enter__(self) -> "ServingFrontend":
        """Context-manager entry: the front-end itself."""
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Context-manager exit: drain the queue and stop the flusher."""
        self.close()

    def __repr__(self) -> str:
        return (f"ServingFrontend(batcher={self._batcher!r}, "
                f"poll_interval={self.poll_interval}, "
                f"closed={self._closed})")
