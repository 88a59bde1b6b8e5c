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
from repro.serve import (ColdStartServer, RequestBatcher, ServingFrontend,
                         brute_force_ranking)


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
        batcher = RequestBatcher(server, max_batch_size=100).start()
        ticket = batcher.submit(3)
        batcher.close()
        assert ticket.done                  # drained, not stranded
        assert ticket.result().user == 3
        with pytest.raises(RuntimeError):
            batcher.submit(4)
        batcher.close()                    # idempotent

    def test_context_manager_closes(self, trained_model, small_scenario):
        server = make_server(trained_model, small_scenario)
        with RequestBatcher(server, max_batch_size=100).start() as batcher:
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
    def test_lone_request_served_without_flush(self, trained_model,
                                               small_scenario):
        server = make_server(trained_model, small_scenario)
        with RequestBatcher(server, max_batch_size=100).start() as batcher:
            ticket = batcher.submit(1)
            # No explicit flush, no further submit: only the background
            # flusher can resolve this, and it does not wait for company.
            result = ticket.result(timeout=5.0)
        assert result.user == 1

    def test_batches_grow_under_saturation(self, trained_model,
                                           small_scenario):
        """Requests that arrive while the flusher serves pile up and leave
        together, in batches of at most ``max_batch_size``."""
        server = make_server(trained_model, small_scenario)
        reference = make_server(trained_model, small_scenario)
        sizes = []
        recommend = server.recommend

        def slow_recommend(users, k=None):
            sizes.append(len(users))
            time.sleep(0.02)
            return recommend(users, k=k)

        server.recommend = slow_recommend
        num_users = small_scenario.domain_x.graph.num_users
        traffic = np.random.default_rng(3).integers(0, num_users, size=64)
        with RequestBatcher(server, max_batch_size=8).start() as batcher:
            def drive(users):
                return [batcher.submit(int(u)) for u in users]

            with ThreadPoolExecutor(max_workers=4) as pool:
                tickets = [ticket for chunk in
                           pool.map(drive, np.array_split(traffic, 4))
                           for ticket in chunk]
            served = [ticket.result(timeout=30.0) for ticket in tickets]
        assert batcher.batches_flushed == len(sizes) < len(traffic)
        assert max(sizes) <= 8 and sum(sizes) == len(traffic)
        for ticket, rec in zip(tickets, served):
            expected = reference.recommend([ticket.user])[0]
            assert rec.user == ticket.user
            assert np.array_equal(rec.items, expected.items)

    @pytest.mark.parametrize("started", [False, True])
    def test_reentrant_submit_that_fills_the_batch(self, trained_model,
                                                   small_scenario, started):
        """A submit from inside ``recommend`` that fills a batch neither
        deadlocks nor strands a ticket."""
        server = make_server(trained_model, small_scenario)
        batcher = RequestBatcher(server, max_batch_size=2)
        inner = []
        recommend = server.recommend

        def submitting_recommend(users, k=None):
            if not inner:
                inner.extend(batcher.submit(user) for user in (5, 6))
            return recommend(users, k=k)

        server.recommend = submitting_recommend
        if started:
            batcher.start()
        outer = []
        driver = threading.Thread(
            target=lambda: outer.extend(batcher.submit(u) for u in (1, 2)),
            daemon=True)
        driver.start()
        driver.join(timeout=10.0)
        assert not driver.is_alive()
        try:
            # The outer tickets resolve only after the recommend that
            # queued the inner ones has returned.
            served = [ticket.result(timeout=10.0) for ticket in outer]
            served += [ticket.result(timeout=10.0) for ticket in inner]
        finally:
            batcher.close()
        assert [rec.user for rec in served] == [1, 2, 5, 6]
        for rec in served:
            assert np.array_equal(rec.items, recommend([rec.user])[0].items)

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
        batcher = RequestBatcher(server, max_batch_size=100)
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
        class FlushFault(Exception):
            pass

        submitter = threading.get_ident()
        server = make_server(trained_model, small_scenario)
        batcher = RequestBatcher(server, max_batch_size=100)
        flush = batcher.flush

        def faulty_flush():
            # Only the flusher thread sees the fault, so submit() and the
            # final close() work and the error can surface nowhere but in
            # the flusher.
            if threading.get_ident() != submitter:
                raise FlushFault("flush failed on the flusher thread")
            return flush()

        batcher.flush = faulty_flush
        batcher.start()
        try:
            ticket = batcher.submit(1)
            begin = time.monotonic()
            with pytest.raises(FlushFault):
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

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("max_batch_size", [8, 64])
    @pytest.mark.parametrize("backend", ["exact", "ivf"])
    def test_concurrent_matches_synchronous_recommend(
            self, trained_model, small_scenario, backend, max_batch_size,
            workers):
        traffic = self._traffic(small_scenario)
        concurrent_server = make_server(trained_model, small_scenario,
                                        index_backend=backend)
        reference_server = make_server(trained_model, small_scenario,
                                       index_backend=backend)

        with RequestBatcher(concurrent_server,
                            max_batch_size=max_batch_size).start() as batcher:
            def drive(user):
                return batcher.submit(int(user)).result(timeout=30.0)

            with ThreadPoolExecutor(max_workers=workers) as pool:
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

        with RequestBatcher(concurrent_server,
                            max_batch_size=8).start() as batcher:
            def drive(pair):
                user, k = pair
                return batcher.submit(int(user), k=k).result(timeout=30.0)

            with ThreadPoolExecutor(max_workers=4) as pool:
                served = list(pool.map(drive, zip(traffic, ks)))

        for user, k, rec in zip(traffic, ks, served):
            reference = reference_server.recommend([int(user)], k=k)[0]
            assert np.array_equal(rec.items, reference.items)
            assert len(rec) == (k if k is not None else concurrent_server.top_k)

    def test_bad_user_under_concurrent_load_fails_only_its_ticket(
            self, trained_model, small_scenario):
        server = make_server(trained_model, small_scenario)
        traffic = [0, 1, 10**9, 2]
        with RequestBatcher(server, max_batch_size=4).start() as batcher:
            def drive(user):
                try:
                    return batcher.submit(user).result(timeout=30.0)
                except ValueError as error:
                    return error

            with ThreadPoolExecutor(max_workers=2) as pool:
                served = list(pool.map(drive, traffic))

        failed = [isinstance(rec, ValueError) for rec in served]
        assert failed == [False, False, True, False]
        for user, rec in zip(traffic, served):
            if user == 10**9:
                continue
            reference = server.recommend([user])[0]
            assert rec.user == user
            assert np.array_equal(rec.items, reference.items)
            np.testing.assert_allclose(rec.scores, reference.scores,
                                       rtol=1e-12, atol=1e-12)

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
            with RequestBatcher(server, max_batch_size=16).start() as batcher:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    list(pool.map(
                        lambda u: batcher.submit(int(u)).result(timeout=30.0),
                        traffic))
        finally:
            sys.setswitchinterval(switch_interval)
            server.recommend = original_recommend
        assert sorted(counted) == sorted(int(u) for u in traffic)


class TestStatelessServing:
    """``recommend`` keeps no state, so the batcher serves with no lock:
    a checkpoint swap or a second flusher never corrupts a served list."""

    def test_refresh_under_load_serves_one_snapshot_per_list(
            self, small_scenario):
        # A model of its own: training it must not touch the shared fixture.
        model = CDRIB(small_scenario, CDRIBConfig(embedding_dim=16,
                                                  num_layers=2, batch_size=128,
                                                  num_negatives=2, seed=1))
        trainer = CDRIBTrainer(model)
        trainer.run_steps(2)
        server = make_server(model, small_scenario)
        snapshots = [server._snapshot]
        num_users = small_scenario.domain_x.graph.num_users
        training_done = threading.Event()

        def train_and_refresh():
            try:
                for _ in range(8):
                    trainer.run_steps(1)
                    server.refresh()
                    snapshots.append(server._snapshot)
            finally:
                training_done.set()

        def client(seed):
            rng = np.random.default_rng(seed)
            served = []
            while not training_done.is_set() or len(served) < 32:
                user = int(rng.integers(0, num_users))
                k = 3 if rng.random() < 0.25 else None
                served.append((k, batcher.submit(user, k=k).result(timeout=30.0)))
            return served

        trainer_thread = threading.Thread(target=train_and_refresh, daemon=True)
        with RequestBatcher(server, max_batch_size=8).start() as batcher:
            with ThreadPoolExecutor(max_workers=3) as pool:
                clients = [pool.submit(client, seed) for seed in range(3)]
                trainer_thread.start()
                served = [pair for future in clients for pair in future.result()]
        trainer_thread.join(timeout=60.0)
        assert not trainer_thread.is_alive()
        assert len(snapshots) == 9

        def served_by(snapshot, rec, k):
            """Whether ``rec`` is the brute-force list of ``snapshot``."""
            scores = snapshot.index.scores(snapshot.user_latents[[rec.user]])[0]
            items = brute_force_ranking(scores)[:k]
            return (np.array_equal(rec.items, items)
                    and np.allclose(rec.scores, scores[items],
                                    rtol=1e-12, atol=1e-12))

        for k, rec in served:
            k = server.top_k if k is None else k
            assert any(served_by(snapshot, rec, k) for snapshot in snapshots), (
                f"user {rec.user}: a list no single snapshot serves")

    def test_explicit_flushes_beside_the_flusher(self, trained_model,
                                                 small_scenario):
        server = make_server(trained_model, small_scenario)
        reference_server = make_server(trained_model, small_scenario)
        calls = []
        lock = threading.Lock()
        recommend = server.recommend

        def counting_recommend(users, k=None):
            with lock:
                calls.append([int(u) for u in np.asarray(users)])
            time.sleep(0.001)  # widen the window in which two flushes serve
            return recommend(users, k=k)

        server.recommend = counting_recommend
        num_users = small_scenario.domain_x.graph.num_users
        traffic = np.random.default_rng(17).integers(0, num_users, size=96)
        clients_done = threading.Event()
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with RequestBatcher(server, max_batch_size=4).start() as batcher:
                def flush_in_a_loop():
                    while not clients_done.is_set():
                        batcher.flush()

                flusher = threading.Thread(target=flush_in_a_loop, daemon=True)
                flusher.start()
                try:
                    def drive(users):
                        tickets = [batcher.submit(int(u)) for u in users]
                        return [t.result(timeout=30.0) for t in tickets]

                    with ThreadPoolExecutor(max_workers=4) as pool:
                        served = [rec for chunk in
                                  pool.map(drive, np.array_split(traffic, 4))
                                  for rec in chunk]
                finally:
                    clients_done.set()
                    flusher.join(timeout=30.0)
                assert not flusher.is_alive()
        finally:
            sys.setswitchinterval(switch_interval)
        assert sorted(u for call in calls for u in call) == sorted(
            int(u) for u in traffic)
        assert batcher.batches_flushed == len(calls)
        for user, rec in zip(traffic, served):
            expected = reference_server.recommend([int(user)])[0]
            assert rec.user == int(user)
            assert np.array_equal(rec.items, expected.items)
            np.testing.assert_allclose(rec.scores, expected.scores,
                                       rtol=1e-12, atol=1e-12)
