"""Tests for concurrent serving through a started ``RequestBatcher``.

The acceptance pin lives here: top-K lists served through a started
:class:`RequestBatcher` under genuinely concurrent traffic must be
bit-identical to synchronous :meth:`ColdStartServer.recommend` calls for
the same requests.
"""

import logging
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import CDRIB, CDRIBConfig, CDRIBTrainer
from repro.serve import ColdStartServer, RequestBatcher, ServingFrontend


@pytest.fixture(scope="module")
def trained_model(small_scenario):
    model = CDRIB(small_scenario, CDRIBConfig(embedding_dim=16, num_layers=2,
                                              epochs=2, batch_size=128,
                                              num_negatives=2, seed=0))
    CDRIBTrainer(model).fit()
    return model


def make_server(trained_model, small_scenario, **kwargs):
    defaults = dict(top_k=5)
    defaults.update(kwargs)
    return ColdStartServer(trained_model, small_scenario.domain_x.name,
                           small_scenario.domain_y.name, **defaults)


class TestTicketLifecycle:
    def test_submit_returns_pending_ticket(self, trained_model, small_scenario):
        server = make_server(trained_model, small_scenario)
        batcher = RequestBatcher(server, max_batch_size=100)
        ticket = batcher.submit(1)
        assert not ticket.done and not ticket.failed
        assert len(batcher) == 1
        batcher.flush()
        assert ticket.done
        assert len(batcher) == 0
        assert ticket.result().user == 1
        assert len(ticket.result()) == server.top_k

    def test_size_auto_flush_resolves_inline(self, trained_model, small_scenario):
        server = make_server(trained_model, small_scenario)
        batcher = RequestBatcher(server, max_batch_size=2)
        first = batcher.submit(1)
        assert not first.done
        second = batcher.submit(2)          # hits max_batch_size
        assert first.done and second.done
        assert batcher.batches_flushed == 1

    def test_result_timeout_raises(self, trained_model, small_scenario):
        server = make_server(trained_model, small_scenario)
        batcher = RequestBatcher(server, max_batch_size=100)
        ticket = batcher.submit(1)
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.01)
        batcher.flush()
        assert ticket.result(timeout=0.01).user == 1

    def test_close_drains_queue_and_refuses_new_submits(
            self, trained_model, small_scenario):
        server = make_server(trained_model, small_scenario)
        batcher = RequestBatcher(server, max_batch_size=100,
                                 max_delay=0.005).start()
        ticket = batcher.submit(3)
        batcher.close()
        assert ticket.done                  # drained, not stranded
        assert ticket.result().user == 3
        with pytest.raises(RuntimeError):
            batcher.submit(4)
        batcher.close()                    # idempotent

    def test_context_manager_closes(self, trained_model, small_scenario):
        server = make_server(trained_model, small_scenario)
        with RequestBatcher(server, max_batch_size=100,
                            max_delay=0.005).start() as batcher:
            ticket = batcher.submit(2)
        assert ticket.done
        with pytest.raises(RuntimeError):
            batcher.submit(1)

    def test_failed_request_resolves_and_reraises(self, trained_model,
                                                  small_scenario):
        server = make_server(trained_model, small_scenario)
        batcher = RequestBatcher(server, max_batch_size=100)
        good = batcher.submit(1)
        poison = batcher.submit(10**9)
        batcher.flush()
        assert good.done and poison.done and poison.failed
        with pytest.raises(ValueError):
            poison.result(timeout=0.1)
        assert np.array_equal(good.result().items,
                              server.recommend([1])[0].items)


class TestBackgroundFlusher:
    def test_max_delay_flushes_without_any_further_call(
            self, trained_model, small_scenario):
        server = make_server(trained_model, small_scenario)
        with RequestBatcher(server, max_batch_size=100,
                            max_delay=0.01).start() as batcher:
            ticket = batcher.submit(1)
            # No explicit flush, no further submit: only the background
            # flusher can resolve this.
            result = ticket.result(timeout=5.0)
        assert result.user == 1

    def test_idle_queue_flushes_before_max_delay(self, trained_model,
                                                 small_scenario):
        # With a long max_delay the deadline alone cannot explain a flush
        # within the test timeout; the idle check must kick in.
        server = make_server(trained_model, small_scenario)
        with RequestBatcher(server, max_batch_size=100,
                            max_delay=30.0).start() as batcher:
            ticket = batcher.submit(2)
            result = ticket.result(timeout=5.0)
        assert result.user == 2

    def test_serving_frontend_is_a_started_batcher(self, trained_model,
                                                   small_scenario):
        server = make_server(trained_model, small_scenario)
        with ServingFrontend(server, max_batch_size=100) as batcher:
            assert isinstance(batcher, RequestBatcher)
            ticket = batcher.submit(1)
            # No flush call: the flusher started at construction serves it,
            # and result() without a timeout blocks until it does.
            served = []
            waiter = threading.Thread(
                target=lambda: served.append(ticket.result()), daemon=True)
            waiter.start()
            waiter.join(timeout=5.0)
            assert not waiter.is_alive() and served[0].user == 1
            queued = batcher.submit(2)
            batcher.close()
            assert queued.done and queued.result().user == 2

    def test_start_is_idempotent(self, trained_model, small_scenario):
        def flushers():
            return {thread for thread in threading.enumerate()
                    if thread.name == "request-batcher-flusher"}

        server = make_server(trained_model, small_scenario)
        before = flushers()
        batcher = RequestBatcher(server, max_batch_size=100, max_delay=0.005)
        try:
            assert batcher.start() is batcher
            assert batcher.start() is batcher
            started = flushers() - before
            assert len(started) == 1
        finally:
            batcher.close()
        assert not any(thread.is_alive() for thread in started)

    def test_flusher_crash_fails_queued_tickets_and_refuses_submits(
            self, trained_model, small_scenario, caplog):
        class ClockFault(Exception):
            pass

        submitter = threading.get_ident()

        def clock():
            # Only the flusher thread sees the fault, so submit() works and
            # the error can surface nowhere but in the flusher's tick.
            if threading.get_ident() != submitter:
                raise ClockFault("clock failed on the flusher thread")
            return time.monotonic()

        server = make_server(trained_model, small_scenario)
        batcher = RequestBatcher(server, max_batch_size=100, max_delay=30.0,
                                 clock=clock).start()
        try:
            ticket = batcher.submit(1)
            begin = time.monotonic()
            with pytest.raises(ClockFault):
                ticket.result(timeout=1.0)
            assert time.monotonic() - begin < 0.5
            with pytest.raises(RuntimeError, match="flusher died"):
                batcher.submit(2)
        finally:
            batcher.close()
        assert any(record.name == "repro.serve.batching"
                   and record.levelno == logging.ERROR
                   for record in caplog.records)


class TestConcurrentBitIdentity:
    """The acceptance pin: concurrent front-end lists == synchronous lists."""

    def _traffic(self, small_scenario, n=96, seed=11):
        num_users = small_scenario.domain_x.graph.num_users
        rng = np.random.default_rng(seed)
        return rng.integers(0, num_users, size=n)

    def test_concurrent_matches_synchronous_recommend(self, trained_model,
                                                      small_scenario):
        traffic = self._traffic(small_scenario)
        concurrent_server = make_server(trained_model, small_scenario)
        reference_server = make_server(trained_model, small_scenario)

        with RequestBatcher(concurrent_server, max_batch_size=8,
                            max_delay=0.005).start() as batcher:
            def drive(user):
                return batcher.submit(int(user)).result(timeout=30.0)

            with ThreadPoolExecutor(max_workers=4) as pool:
                served = list(pool.map(drive, traffic))

        for user, rec in zip(traffic, served):
            reference = reference_server.recommend([int(user)])[0]
            assert rec.user == int(user)
            assert np.array_equal(rec.items, reference.items)
            np.testing.assert_allclose(rec.scores, reference.scores,
                                       rtol=1e-12, atol=1e-12)

    def test_concurrent_mixed_k_matches_synchronous(self, trained_model,
                                                    small_scenario):
        traffic = self._traffic(small_scenario, n=48, seed=23)
        ks = [3 if i % 3 == 0 else None for i in range(len(traffic))]
        concurrent_server = make_server(trained_model, small_scenario)
        reference_server = make_server(trained_model, small_scenario)

        with RequestBatcher(concurrent_server, max_batch_size=8,
                            max_delay=0.005).start() as batcher:
            def drive(pair):
                user, k = pair
                return batcher.submit(int(user), k=k).result(timeout=30.0)

            with ThreadPoolExecutor(max_workers=4) as pool:
                served = list(pool.map(drive, zip(traffic, ks)))

        for user, k, rec in zip(traffic, ks, served):
            reference = reference_server.recommend([int(user)], k=k)[0]
            assert np.array_equal(rec.items, reference.items)
            assert len(rec) == (k if k is not None else concurrent_server.top_k)

    def test_every_submitted_request_is_served_exactly_once(
            self, trained_model, small_scenario):
        server = make_server(trained_model, small_scenario)
        counted = []
        lock = threading.Lock()
        original_recommend = server.recommend

        def counting_recommend(users, k=None):
            with lock:
                counted.extend(int(u) for u in np.asarray(users))
            return original_recommend(users, k=k)

        server.recommend = counting_recommend
        traffic = self._traffic(small_scenario, n=64, seed=5)
        # Switch threads far more often than the default 5 ms so a submit
        # racing a flush (or the flusher) is actually exercised.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with RequestBatcher(server, max_batch_size=16,
                                max_delay=0.002).start() as batcher:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    list(pool.map(
                        lambda u: batcher.submit(int(u)).result(timeout=30.0),
                        traffic))
        finally:
            sys.setswitchinterval(switch_interval)
            server.recommend = original_recommend
        assert sorted(counted) == sorted(int(u) for u in traffic)
