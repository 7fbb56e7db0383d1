"""Mid-run worker-loss recovery: deterministic faults, identical output.

The tentpole contract under test: losing process workers mid-``map``
(a dispatch error, a worker killed between shards) is recovered by
rebuilding the executor and re-dispatching only the unfinished shards
— and because shard draws are pure functions of ``(seed, shard)``, the
recovered output is **bit-identical** to the fault-free run.  Faults
are injected deterministically through :mod:`repro.faults`, so every
assertion here means the same thing run after run.

The worker-kill scenarios run in a subprocess: ``os._exit`` faults
must be armed before any executor (or its manager thread) exists so
the pool's fork path carries the plan into the workers, and a stray
kill in this process would take the whole test session down with it.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.errors import ExecBackendError
from repro.exec import WorkerPool
from repro.faults import FaultPlan, active_plan

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning"  # fork-with-threads notice on 3.12+
)


def _double(x):
    return x * 2


class TestDispatchFaultRecovery:
    """Parent-side dispatch faults: retried without losing results."""

    def test_recovers_and_counts_one_retry(self):
        with WorkerPool(workers=2, backend="process") as pool:
            with FaultPlan.parse("pool.dispatch@2:raise=OSError").armed():
                assert pool.map(_double, [1, 2, 3, 4]) == [2, 4, 6, 8]
            assert pool.retries == 1
            assert pool.degradations == 0
            assert pool.active_backend == "process"

    def test_exhausted_retries_degrade_to_threads(self):
        plan = FaultPlan.parse(
            "pool.dispatch@1:raise=OSError;pool.dispatch@2:raise=OSError"
        )
        with WorkerPool(workers=2, backend="process", max_retries=1,
                        retry_backoff=0.0) as pool:
            with plan.armed():
                assert pool.map(_double, [1, 2, 3]) == [2, 4, 6]
            assert pool.retries == 1
            assert pool.degradations == 1
            assert pool.active_backend == "thread"
            assert pool.stats()["degradations"] == 1

    def test_fallback_false_raises_typed_error(self):
        plan = FaultPlan.parse("pool.dispatch@1:raise=OSError")
        with WorkerPool(workers=2, backend="process", fallback=False,
                        max_retries=0) as pool:
            with plan.armed():
                with pytest.raises(ExecBackendError,
                                   match="process exec backend failed"):
                    pool.map(_double, [1, 2, 3])

    def test_disarmed_pool_runs_clean(self):
        if active_plan() is not None:
            pytest.skip("disarmed-baseline test: an external fault plan "
                        "is armed (CI fault-injection leg)")
        with WorkerPool(workers=2, backend="process") as pool:
            assert pool.map(_double, [1, 2, 3]) == [2, 4, 6]
            assert pool.retries == 0
            assert pool.degradations == 0


#: One deterministic sharded draw; prints a digest of the emitted rows
#: and (when a plan is armed via the environment) asserts the fault
#: actually fired and a retry was recorded.  The plan rides in on
#: ``REPRO_FAULT_PLAN``/``REPRO_FAULT_BOARD`` from process launch — the
#: only arming that reaches pool workers regardless of which
#: multiprocessing start method the executor ends up on.
_DRAW_SCRIPT = textwrap.dedent("""
    import hashlib
    import os

    import numpy as np
    from repro.core.pipeline import EntropyIP
    from repro.datasets.networks import build_network
    from repro.faults import active_plan

    train = build_network("S1").sample(300, seed=3)
    model = EntropyIP.fit(train).model
    session = model.session(exclude=train)
    out = model.generate_set(
        800, np.random.default_rng(11), state=session,
        workers=2, exec_backend="process",
    )
    if os.environ.get("REPRO_FAULT_PLAN"):
        plan = active_plan()
        assert plan is not None
        assert plan.fired() == 1, f"kill fault never fired: {plan!r}"
        assert session.exec_stats()["retries"] >= 1, \\
            "worker loss recovered without recording a retry"
    session.close()
    print(len(out), hashlib.sha256(
        np.ascontiguousarray(out.packed_rows()).tobytes()
    ).hexdigest())
""")

#: The same kill with recovery disabled: ``fallback=False`` +
#: ``max_retries=0`` on the session-owned pool must surface a typed
#: :class:`ExecBackendError` instead of degrading.
_NO_FALLBACK_SCRIPT = textwrap.dedent("""
    import numpy as np
    from repro.core.pipeline import EntropyIP
    from repro.datasets.networks import build_network
    from repro.errors import ExecBackendError

    train = build_network("S1").sample(300, seed=3)
    model = EntropyIP.fit(train).model
    session = model.session(exclude=train)
    pool = session.get_pool(2, "process")
    pool._fallback = False
    pool.max_retries = 0
    try:
        model.generate_set(
            800, np.random.default_rng(11), state=session,
            workers=2, exec_backend="process",
        )
    except ExecBackendError:
        print("TYPED-ERROR-OK")
    else:
        raise AssertionError("fallback=False survived a worker kill")
    finally:
        session.close()
""")


def _run_driver(script, tmp_path, plan=None):
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    )))
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("REPRO_FAULT_PLAN", None)
    env.pop("REPRO_FAULT_BOARD", None)
    if plan is not None:
        board = tmp_path / "board"
        board.mkdir(exist_ok=True)
        env["REPRO_FAULT_PLAN"] = plan
        env["REPRO_FAULT_BOARD"] = str(board)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, (
        f"driver failed (plan={plan!r})\nstdout: {proc.stdout}"
        f"\nstderr: {proc.stderr}"
    )
    return proc.stdout


class TestWorkerKillRecovery:
    def test_killed_worker_mid_run_is_bit_identical(self, tmp_path):
        clean = _run_driver(_DRAW_SCRIPT, tmp_path)
        faulted = _run_driver(
            _DRAW_SCRIPT, tmp_path, plan="pool.shard@0.1:kill"
        )
        assert clean == faulted, (
            "run recovered from a killed worker emitted different rows"
        )

    def test_no_fallback_surfaces_typed_error(self, tmp_path):
        out = _run_driver(
            _NO_FALLBACK_SCRIPT, tmp_path, plan="pool.shard@0.1:kill"
        )
        assert "TYPED-ERROR-OK" in out


class TestSessionExecStats:
    def test_engine_counts_surface_through_session(self):
        """A dispatch fault during a session draw lands in the
        session's aggregated exec counters (the health-verb path)."""
        import numpy as np

        from repro.core.pipeline import EntropyIP
        from repro.datasets.networks import build_network

        train = build_network("S1").sample(300, seed=3)
        model = EntropyIP.fit(train).model
        session = model.session(exclude=train)
        try:
            rng = np.random.default_rng(5)
            with FaultPlan.parse("pool.dispatch@2:raise=OSError").armed():
                model.generate_set(
                    400, rng, state=session, workers=2,
                    exec_backend="process",
                )
            stats = session.exec_stats()
            assert stats["retries"] >= 1
        finally:
            session.close()

    def test_counts_survive_session_close(self):
        """Closing a session releases its pools but keeps their fault
        counts: ``exec_stats`` never goes down."""
        import numpy as np

        from repro.core.pipeline import EntropyIP
        from repro.datasets.networks import build_network

        train = build_network("S1").sample(300, seed=3)
        model = EntropyIP.fit(train).model
        session = model.session(exclude=train)
        with FaultPlan.parse("pool.dispatch@2:raise=OSError").armed():
            model.generate_set(
                400, np.random.default_rng(5), state=session, workers=2,
                exec_backend="process",
            )
        before = session.exec_stats()
        assert before["retries"] >= 1
        session.close()
        assert session.exec_stats() == before
