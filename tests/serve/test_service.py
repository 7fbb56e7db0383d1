"""HitlistService: concurrent serving, backpressure, bit-identity.

The load-bearing assertion of the serving runtime: candidate streams
served through the concurrent facade — under interleaved requests from
many client threads — are **bit-identical** to the serial direct
`AddressModel.session()` + `generate_set` sequence for the same (seed,
workers).
"""

import threading

import numpy as np
import pytest

from repro.core.model import SessionCapacityError
from repro.core.pipeline import EntropyIP
from repro.serve import (
    HitlistService,
    ModelRegistry,
    ServiceClosedError,
    ServiceOverloadedError,
    UnknownModelError,
)


@pytest.fixture(scope="module")
def analysis(structured_set):
    return EntropyIP.fit(structured_set)


@pytest.fixture()
def service(analysis):
    registry = ModelRegistry()
    registry.register("m", analysis)
    with HitlistService(registry=registry, workers=4) as svc:
        yield svc


def direct_stream(analysis, exclude, seed, batches, n, workers=None):
    """The serial direct-library reference sequence for one client."""
    session = analysis.model.session(exclude=exclude)
    rng = np.random.default_rng(seed)
    return [
        analysis.model.generate_set(
            n, rng, state=session, workers=workers
        ).matrix
        for _ in range(batches)
    ]


class TestThreadedBitIdentity:
    BATCHES = 4
    BATCH_ROWS = 120

    @pytest.mark.parametrize(
        "workers", [None, 2], ids=["serial", "workers2"]
    )
    def test_interleaved_streams_match_serial_direct_sequence(
        self, service, analysis, structured_set, workers
    ):
        """Six clients hammer the facade from six threads; every
        client's concatenated stream must equal the serial
        direct-library sequence for its (seed, workers)."""
        clients = [f"c{i}" for i in range(6)]
        served = {}
        errors = []
        barrier = threading.Barrier(len(clients))

        def run(index, client):
            try:
                barrier.wait()  # maximize interleaving
                batches = []
                for _ in range(self.BATCHES):
                    batches.append(
                        service.generate(
                            "m",
                            client,
                            self.BATCH_ROWS,
                            seed=index,
                            workers=workers,
                        ).matrix
                    )
                served[client] = batches
            except BaseException as exc:  # surfaced after join
                errors.append((client, exc))

        threads = [
            threading.Thread(target=run, args=(index, client))
            for index, client in enumerate(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors

        for index, client in enumerate(clients):
            reference = direct_stream(
                analysis,
                structured_set,
                seed=index,
                batches=self.BATCHES,
                n=self.BATCH_ROWS,
                workers=workers,
            )
            for got, want in zip(served[client], reference):
                assert np.array_equal(got, want), (client, workers)

    def test_same_seed_clients_get_identical_streams(self, service):
        a = service.generate("m", "twin-a", 300, seed=42)
        b = service.generate("m", "twin-b", 300, seed=42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_stream_never_repeats_across_requests(self, service):
        first = service.generate("m", "norepeat", 200, seed=1)
        second = service.generate("m", "norepeat", 200, seed=1)
        both = np.vstack([first.packed_rows(), second.packed_rows()])
        assert len(np.unique(both, axis=0)) == len(both)


class TestRequests:
    def test_fit_and_generate_roundtrip(self, structured_set):
        with HitlistService() as svc:
            entry = svc.fit("fresh", structured_set)
            assert entry.version == 1
            batch = svc.generate("fresh", "c", 50)
            assert len(batch) == 50

    def test_membership_request(self, service):
        batch = service.generate("m", "member", 100, seed=2)
        mask = service.membership("m", "member", batch)
        assert bool(mask.all())
        # Rows the stream has never seen (width-32 zeros row is not a
        # plausible candidate of the structured model).
        from repro.ipv6.sets import AddressSet

        unseen = AddressSet.from_ints([0xDEAD], width=32)
        assert not service.membership("m", "member", unseen).any()

    def test_report_request(self, service):
        text = service.report("m", n_candidates=5, seed=0)
        assert "Entropy/IP report: m" in text

    def test_unknown_model_raises_through_future(self, service):
        with pytest.raises(UnknownModelError):
            service.generate("ghost", "c", 10)

    def test_capacity_error_surfaces_through_service(self, service):
        service.open_session(
            "m", "capped", exclude_training=False, capacity=50
        )
        service.generate("m", "capped", 50)
        with pytest.raises(SessionCapacityError):
            service.generate("m", "capped", 1)
        # Rollover gives the client a fresh stream under the same cap.
        service.rollover_session("m", "capped")
        assert len(service.generate("m", "capped", 50)) == 50

    def test_close_session(self, service):
        service.generate("m", "gone", 10)
        assert service.close_session("m", "gone") is True
        assert service.close_session("m", "gone") is False
        # The next generate transparently opens a fresh stream.
        assert len(service.generate("m", "gone", 10)) == 10


class TestBackpressure:
    def test_overload_rejects_synchronously(self, analysis):
        registry = ModelRegistry()
        registry.register("m", analysis)
        release = threading.Event()
        started = threading.Event()

        def block():
            started.set()
            release.wait()

        with HitlistService(registry=registry, workers=1, max_pending=2) as svc:
            # Jam the single worker, then fill the queue.
            blocker = svc.submit("other", block)
            assert started.wait(timeout=5)  # worker holds it, queue empty
            accepted = []
            with pytest.raises(ServiceOverloadedError):
                for _ in range(10):
                    accepted.append(svc.submit("other", lambda: None))
            assert len(accepted) == 2  # exactly max_pending queued
            assert svc.stats()["rejected"] >= 1
            release.set()
            blocker.result(timeout=5)
            for future in accepted:
                future.result(timeout=5)

    def test_closed_service_rejects(self, analysis):
        registry = ModelRegistry()
        registry.register("m", analysis)
        svc = HitlistService(registry=registry)
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.generate("m", "c", 10)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HitlistService(workers=0)
        with pytest.raises(ValueError):
            HitlistService(max_pending=0)


class TestAccounting:
    def test_stats_shape(self, service):
        service.generate("m", "stats", 50, seed=9)
        service.membership("m", "stats", service.sessions.get(
            "m", "stats"
        ).generate(10))
        stats = service.stats()
        assert stats["completed"] >= 2
        assert stats["failed"] == 0
        generate = stats["kinds"]["generate"]
        assert generate["requests"] >= 1
        assert generate["p99_ms"] >= generate["p50_ms"] > 0
        assert stats["requests_per_second"] >= 0
        assert stats["registry"]["models"] == 1
        assert stats["sessions"]["sessions"] >= 1

    def test_failed_requests_counted(self, service):
        with pytest.raises(UnknownModelError):
            service.report("ghost")
        before = service.stats()["failed"]
        with pytest.raises(RuntimeError):
            service.submit("other", self._boom).result()
        assert service.stats()["failed"] == before + 1

    @staticmethod
    def _boom():
        raise RuntimeError("request blew up")


class TestShutdownHygiene:
    """A closed service leaves no worker threads or executor pools."""

    def test_close_shuts_down_session_pools(self, analysis):
        registry = ModelRegistry()
        registry.register("m", analysis)
        service = HitlistService(registry=registry, workers=4)
        # Sharded draws from several clients spin up session-owned
        # worker pools (one long-lived executor each).
        for client in ("a", "b"):
            service.generate("m", client, 300, seed=3, workers=2)
        pools = [
            pool
            for key in service.sessions.keys()
            for pool in service.sessions.get(*key).session._pools.values()
        ]
        assert pools and any(not pool.closed for pool in pools)
        service.close()
        assert all(pool.closed for pool in pools)

    def test_close_leaves_no_service_threads(self, analysis):
        registry = ModelRegistry()
        registry.register("m", analysis)
        before = {t for t in threading.enumerate()}
        service = HitlistService(registry=registry, workers=4)
        service.generate("m", "c", 300, seed=3, workers=2)
        service.close()
        leaked = [
            t
            for t in threading.enumerate()
            if t not in before and t.is_alive() and "hitlist" in t.name
        ]
        assert leaked == []

    def test_shared_session_manager_is_not_closed(self, analysis):
        from repro.serve import SessionManager

        registry = ModelRegistry()
        registry.register("m", analysis)
        shared = SessionManager(registry)
        service = HitlistService(registry=registry, sessions=shared)
        service.generate("m", "c", 200, seed=3, workers=2)
        service.close()
        # The shared manager outlives the service: its session is
        # still live (the manager's owner decides when to close it).
        assert shared.get("m", "c").closed is False
        assert shared.close_all() == 1

    def test_evicted_session_releases_pools(self, analysis):
        from repro.serve import SessionManager

        registry = ModelRegistry()
        registry.register("m", analysis)
        manager = SessionManager(registry, capacity=1)
        first = manager.open("m", "a", workers=2)
        first.generate(200)
        pools = list(first.session._pools.values())
        assert pools
        manager.open("m", "b")  # evicts the LRU session "a"
        assert first.closed
        assert all(pool.closed for pool in pools)
