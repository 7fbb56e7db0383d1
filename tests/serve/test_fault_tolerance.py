"""Service-side fault tolerance: deadlines, worker faults, drain, health."""

import threading
import time

import numpy as np
import pytest

from repro.core.pipeline import EntropyIP
from repro.errors import (
    RequestTimeoutError,
    ServiceClosedError,
)
from repro.faults import FaultPlan, active_plan
from repro.serve import HitlistService, ModelRegistry


@pytest.fixture(scope="module")
def analysis(structured_set):
    return EntropyIP.fit(structured_set)


@pytest.fixture()
def service(analysis):
    registry = ModelRegistry()
    registry.register("m", analysis)
    with HitlistService(registry=registry, workers=2) as svc:
        yield svc


def jam_workers(svc, count):
    """Occupy ``count`` workers with blocking requests; returns the
    release event and the blocker futures."""
    release = threading.Event()
    running = threading.Semaphore(0)

    def block():
        running.release()
        release.wait(timeout=10)
        return "done"

    futures = [svc.submit("other", block) for _ in range(count)]
    for _ in range(count):
        assert running.acquire(timeout=5)
    return release, futures


class TestDeadlines:
    def test_expired_deadline_sheds_with_typed_error(self, service):
        release, blockers = jam_workers(service, 2)
        try:
            late = service.submit("membership", lambda: "ran", deadline=0.0)
            time.sleep(0.01)
        finally:
            release.set()
        with pytest.raises(RequestTimeoutError, match="deadline expired"):
            late.result(timeout=5)
        for blocker in blockers:
            assert blocker.result(timeout=5) == "done"
        stats = service.stats()
        assert stats["timeouts"] == 1
        assert stats["kinds"]["membership"]["timeouts"] == 1
        # A shed request never counts as completed work.
        assert stats["kinds"]["membership"]["requests"] == 0

    def test_generous_deadline_completes_normally(self, service):
        future = service.submit("other", lambda: 41 + 1, deadline=60.0)
        assert future.result(timeout=5) == 42
        assert service.stats()["timeouts"] == 0

    def test_negative_deadline_rejected_at_submit(self, service):
        with pytest.raises(ValueError, match="deadline must be non-negative"):
            service.submit("other", lambda: None, deadline=-1.0)

    def test_generate_after_timeouts_still_bit_identical(self, service,
                                                         analysis):
        """Shed requests never advance any stream's RNG."""
        release, blockers = jam_workers(service, 2)
        try:
            shed = service.submit("generate", lambda: None, deadline=0.0)
            time.sleep(0.01)
        finally:
            release.set()
        with pytest.raises(RequestTimeoutError):
            shed.result(timeout=5)
        for blocker in blockers:
            blocker.result(timeout=5)
        served = service.generate("m", "a", 50, seed=3).matrix
        session = analysis.model.session(
            exclude=analysis.address_set
        )
        direct = analysis.model.generate_set(
            50, np.random.default_rng(3), state=session
        ).matrix
        assert np.array_equal(served, direct)


class TestWorkerFaultRetry:
    def test_transient_fault_requeues_and_succeeds(self, service):
        with FaultPlan.parse("service.worker@1:raise=RuntimeError").armed():
            future = service.submit("other", lambda: "survived")
            assert future.result(timeout=5) == "survived"
        stats = service.stats()
        assert stats["retries"] == 1
        assert stats["kinds"]["other"]["retries"] == 1
        assert stats["kinds"]["other"]["requests"] == 1

    def test_persistent_fault_exhausts_retries(self, service):
        plan = FaultPlan.parse(";".join(
            f"service.worker@{i}:raise=RuntimeError" for i in range(1, 5)
        ))
        with plan.armed():
            future = service.submit("other", lambda: "never runs")
            with pytest.raises(RuntimeError, match="injected fault"):
                future.result(timeout=5)
        stats = service.stats()
        assert stats["retries"] == 4
        assert stats["failed"] == 1

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_shutdown_signal_not_swallowed_into_future(self, analysis):
        """A worker hit by KeyboardInterrupt dies (the signal is
        re-raised), and the waiter gets a typed ServiceClosedError
        instead of the swallowed signal."""
        registry = ModelRegistry()
        registry.register("m", analysis)
        svc = HitlistService(registry=registry, workers=2)
        try:
            def interrupt():
                raise KeyboardInterrupt

            future = svc.submit("other", interrupt)
            with pytest.raises(ServiceClosedError,
                               match="KeyboardInterrupt"):
                future.result(timeout=5)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if sum(t.is_alive() for t in svc._threads) == 1:
                    break
                time.sleep(0.01)
            assert sum(t.is_alive() for t in svc._threads) == 1
            # The surviving worker keeps serving.
            assert svc.submit("other", lambda: "ok").result(timeout=5) == "ok"
        finally:
            svc.close()


class TestCloseDrain:
    def test_clean_close_reports_drained(self, service):
        assert service.close(wait=True, timeout=5.0) is True

    def test_wedged_request_times_out_drain(self, analysis):
        registry = ModelRegistry()
        registry.register("m", analysis)
        svc = HitlistService(registry=registry, workers=1)
        release = threading.Event()
        started = threading.Event()

        def wedge():
            started.set()
            release.wait(timeout=30)

        svc.submit("other", wedge)
        assert started.wait(timeout=5)
        try:
            assert svc.close(wait=True, timeout=0.2) is False
        finally:
            release.set()

    def test_close_without_wait_never_blocks(self, service):
        started = time.monotonic()
        service.close(wait=False)
        assert time.monotonic() - started < 1.0


class TestHealth:
    def test_health_shape(self, service):
        if active_plan() is not None:
            pytest.skip("disarmed-baseline test: an external fault plan "
                        "is armed (CI fault-injection leg)")
        service.generate("m", "a", 20)
        health = service.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["pending"] == 0
        assert health["max_pending"] == 64
        assert health["timeouts"] == 0
        assert health["shed"] == 0
        assert health["retries"] == 0
        assert health["models"] == {"m": 1}
        assert set(health) == {
            "status", "pending", "max_pending", "workers", "timeouts",
            "shed", "retries", "models",
        }

    def test_health_reflects_timeouts_and_closure(self, service):
        release, blockers = jam_workers(service, 2)
        try:
            late = service.submit("other", lambda: None, deadline=0.0)
            time.sleep(0.01)
        finally:
            release.set()
        with pytest.raises(RequestTimeoutError):
            late.result(timeout=5)
        for blocker in blockers:
            blocker.result(timeout=5)
        assert service.health()["timeouts"] == 1
        service.close()
        assert service.health()["status"] == "closed"
