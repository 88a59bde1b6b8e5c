"""Tests for the concurrent serving front-end (``repro.serve.frontend``).

The acceptance pin lives here: top-K lists served through a
:class:`ServingFrontend` under genuinely concurrent traffic must be
bit-identical to synchronous :meth:`ColdStartServer.recommend` calls for
the same requests.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import CDRIB, CDRIBConfig, CDRIBTrainer
from repro.serve import ColdStartServer, ServingFrontend


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
        frontend = ServingFrontend(server, max_batch_size=100, start=False)
        ticket = frontend.submit(1)
        assert not ticket.done and not ticket.failed
        assert frontend.pending == 1
        frontend.flush()
        assert ticket.done
        assert frontend.pending == 0
        assert ticket.result().user == 1
        assert len(ticket.result()) == server.top_k

    def test_size_auto_flush_resolves_inline(self, trained_model, small_scenario):
        server = make_server(trained_model, small_scenario)
        frontend = ServingFrontend(server, max_batch_size=2, start=False)
        first = frontend.submit(1)
        assert not first.done
        second = frontend.submit(2)          # hits max_batch_size
        assert first.done and second.done
        assert frontend.batches_flushed == 1

    def test_result_timeout_raises(self, trained_model, small_scenario):
        server = make_server(trained_model, small_scenario)
        frontend = ServingFrontend(server, max_batch_size=100, start=False)
        ticket = frontend.submit(1)
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.01)
        frontend.flush()
        assert ticket.result(timeout=0.01).user == 1

    def test_close_drains_queue_and_refuses_new_submits(
            self, trained_model, small_scenario):
        server = make_server(trained_model, small_scenario)
        frontend = ServingFrontend(server, max_batch_size=100)
        ticket = frontend.submit(3)
        frontend.close()
        assert ticket.done                  # drained, not stranded
        assert ticket.result().user == 3
        with pytest.raises(RuntimeError):
            frontend.submit(4)
        frontend.close()                    # idempotent

    def test_context_manager_closes(self, trained_model, small_scenario):
        server = make_server(trained_model, small_scenario)
        with ServingFrontend(server, max_batch_size=100) as frontend:
            ticket = frontend.submit(2)
        assert ticket.done
        with pytest.raises(RuntimeError):
            frontend.submit(1)

    def test_failed_request_resolves_and_reraises(self, trained_model,
                                                  small_scenario):
        server = make_server(trained_model, small_scenario)
        frontend = ServingFrontend(server, max_batch_size=100, start=False)
        good = frontend.submit(1)
        poison = frontend.submit(10**9)
        frontend.flush()
        assert good.done and poison.done and poison.failed
        with pytest.raises(ValueError):
            poison.result(timeout=0.1)
        assert np.array_equal(good.result().items,
                              server.recommend([1])[0].items)


class TestBackgroundFlusher:
    def test_max_delay_flushes_without_any_further_call(
            self, trained_model, small_scenario):
        server = make_server(trained_model, small_scenario)
        with ServingFrontend(server, max_batch_size=100,
                             max_delay=0.01) as frontend:
            ticket = frontend.submit(1)
            # No explicit flush, no further submit: only the background
            # flusher can resolve this.
            result = ticket.result(timeout=5.0)
        assert result.user == 1

    def test_idle_queue_flushes_before_max_delay(self, trained_model,
                                                 small_scenario):
        # With a long max_delay the deadline alone cannot explain a flush
        # within the test timeout; the idle check must kick in.
        server = make_server(trained_model, small_scenario)
        with ServingFrontend(server, max_batch_size=100, max_delay=30.0,
                             poll_interval=0.005) as frontend:
            ticket = frontend.submit(2)
            result = ticket.result(timeout=5.0)
        assert result.user == 2


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

        with ServingFrontend(concurrent_server, max_batch_size=8,
                             max_delay=0.005) as frontend:
            def drive(user):
                return frontend.submit(int(user)).result(timeout=30.0)

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

        with ServingFrontend(concurrent_server, max_batch_size=8,
                             max_delay=0.005) as frontend:
            def drive(pair):
                user, k = pair
                return frontend.submit(int(user), k=k).result(timeout=30.0)

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
        try:
            with ServingFrontend(server, max_batch_size=16,
                                 max_delay=0.002) as frontend:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    list(pool.map(
                        lambda u: frontend.submit(int(u)).result(timeout=30.0),
                        traffic))
        finally:
            server.recommend = original_recommend
        assert sorted(counted) == sorted(int(u) for u in traffic)
