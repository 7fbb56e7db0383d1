"""The hitlist-as-a-service facade: concurrent requests over warm state.

The top runtime layer.  :class:`HitlistService` fronts a
:class:`~repro.serve.registry.ModelRegistry` and a
:class:`~repro.serve.lifecycle.SessionManager` with a **bounded work
queue** and a small worker-thread pool, serving the three §5.5-shaped
request families concurrently:

- ``generate``  — "next N candidates for network X, excluding what
  this client has seen" (a warm session's stream);
- ``membership`` — "which of these rows has this client's stream
  already retired";
- ``fit`` / ``report`` — "fit this seed set" / "render the full
  analyst report".

Backpressure is explicit: at most ``max_pending`` requests queue; a
submission past that raises :class:`ServiceOverloadedError` immediately
instead of growing an unbounded backlog (the caller sheds load or
retries — the queue never does).  Every request's queue wait and
service time are recorded; :meth:`HitlistService.stats` reports
per-kind counts, p50/p99 latency and completed requests/s — the
serving-side analogue of the addr/s benchmark stages.

Determinism is inherited from the layers below: a served generate
stream is bit-identical to the direct
``AddressModel.session()``/``generate_set`` path for the same (seed,
workers), because the service *is* that path plus queuing —
asserted by the threaded stress suite and the ``service_throughput``
benchmark stage.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.model import ExcludeLike
# Defined in the consolidated hierarchy (repro.errors); re-exported
# here because this module is their historical home.
from repro.errors import (
    RequestTimeoutError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.faults import fault_point
from repro.ipv6.sets import AddressSet
from repro.serve.lifecycle import ManagedSession, SessionManager
from repro.serve.registry import ModelEntry, ModelRegistry

#: Request kinds with dedicated latency accounting.
REQUEST_KINDS = ("generate", "membership", "fit", "ingest", "report", "other")

#: Default cap (seconds) on how long :meth:`HitlistService.close`
#: waits for workers to drain queued requests.  ``None`` waits
#: forever — the pre-deadline behavior.
DEFAULT_CLOSE_TIMEOUT = 30.0

#: How many times a request hit by a transient pre-execution fault
#: (the ``service.worker`` fault site) is requeued before the fault is
#: surfaced on its future.
_MAX_WORKER_RETRIES = 3

_SHUTDOWN = object()


class HitlistService:
    """Thread-safe serving facade over warm models and sessions.

    ``workers`` sizes the executor pool (requests already queued run
    concurrently up to this); ``max_pending`` bounds the work queue —
    the backpressure knob; ``latency_window`` bounds the per-kind
    latency samples kept for percentile reporting.

    The service owns its registry/session-manager by default; passing
    shared ones composes (e.g. several services over one registry).
    Use as a context manager or call :meth:`close` — worker threads
    are non-daemonic bookkeeping-wise but shut down cleanly.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        sessions: Optional[SessionManager] = None,
        workers: int = 2,
        max_pending: int = 64,
        latency_window: int = 2048,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_pending < 1:
            raise ValueError(
                f"max_pending must be positive, got {max_pending}"
            )
        self.registry = registry if registry is not None else ModelRegistry()
        # When the service built its own manager it also owns the
        # sessions' worker pools: close() shuts them down.  A shared
        # manager outlives any one service, so its owner closes it.
        self._owns_sessions = sessions is None
        self.sessions = (
            sessions
            if sessions is not None
            else SessionManager(self.registry)
        )
        self._clock = clock
        self._queue: "queue.Queue" = queue.Queue(maxsize=max_pending)
        self._max_pending = max_pending
        self._lock = threading.Lock()
        self._closed = False
        self._rejected = 0
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        #: (queue wait + service) latency samples per request kind.
        self._latencies: Dict[str, deque] = {
            kind: deque(maxlen=latency_window) for kind in REQUEST_KINDS
        }
        self._kind_counts: Dict[str, int] = {
            kind: 0 for kind in REQUEST_KINDS
        }
        #: Requests shed worker-side: deadline already expired.
        self._timeouts: Dict[str, int] = {kind: 0 for kind in REQUEST_KINDS}
        #: Requests shed submit-side: bounded queue full.
        self._shed: Dict[str, int] = {kind: 0 for kind in REQUEST_KINDS}
        #: Requests requeued after a transient pre-execution fault.
        self._retried: Dict[str, int] = {kind: 0 for kind in REQUEST_KINDS}
        #: Completion timestamps for the requests/s window.
        self._completions: deque = deque(maxlen=latency_window)
        #: model name -> live streaming-ingest pipeline (lazy import of
        #: repro.ingest keeps serving importable on its own).
        self._pipelines: Dict[str, object] = {}
        self._pipelines_lock = threading.Lock()
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"hitlist-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # the request plane
    # ------------------------------------------------------------------

    def submit(
        self,
        kind: str,
        fn: Callable[[], object],
        deadline: Optional[float] = None,
    ) -> "Future":
        """Enqueue ``fn`` as a ``kind`` request; returns its future.

        The one entry point every typed request goes through: the
        bounded queue is the backpressure boundary, so a full queue
        raises :class:`ServiceOverloadedError` *here*, synchronously —
        the caller knows immediately, holding no ticket.

        ``deadline`` is a queue-wait budget in seconds (on the
        service's own clock): a worker that dequeues the request after
        the budget has elapsed sheds it with
        :class:`~repro.errors.RequestTimeoutError` on the future
        *before* doing any work, so a stalled queue fails fast instead
        of making every stream behind the stall later still.  ``None``
        (the default) never expires.
        """
        if kind not in REQUEST_KINDS:
            kind = "other"
        if deadline is not None and deadline < 0:
            raise ValueError(f"deadline must be non-negative, got {deadline}")
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            future: "Future" = Future()
            now = self._clock()
            expires = None if deadline is None else now + deadline
            item = (future, kind, fn, now, expires, 0)
            try:
                self._queue.put_nowait(item)
            except queue.Full:
                self._rejected += 1
                self._shed[kind] += 1
                raise ServiceOverloadedError(
                    f"work queue full ({self._max_pending} pending)"
                ) from None
            self._submitted += 1
            return future

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            future, kind, fn, queued_at, expires, attempts = item
            # The pre-execution fault site.  A transient fault here
            # (injected, or a real pre-dispatch hiccup modeled on one)
            # requeues the request — bounded, counted — rather than
            # failing work that never ran; shutdown signals raised at
            # the site propagate like shutdown signals anywhere else
            # in this loop.
            try:
                fault_point("service.worker")
            except (KeyboardInterrupt, SystemExit) as exc:
                # Same contract as a signal during execution below:
                # unblock the waiter with a typed error, then let the
                # signal stop this worker.
                future.set_exception(
                    ServiceClosedError(
                        f"worker stopped by {type(exc).__name__} "
                        f"before a {kind} request"
                    )
                )
                raise
            except Exception as exc:
                with self._lock:
                    self._retried[kind] += 1
                if attempts < _MAX_WORKER_RETRIES:
                    self._queue.put(
                        (future, kind, fn, queued_at, expires, attempts + 1)
                    )
                    continue
                if future.set_running_or_notify_cancel():
                    with self._lock:
                        self._failed += 1
                    future.set_exception(exc)
                continue
            if not future.set_running_or_notify_cancel():
                continue
            now = self._clock()
            if expires is not None and now >= expires:
                # Shed before doing the work: the caller's budget is
                # already blown, so running the request could only
                # delay everything queued behind it further.
                with self._lock:
                    self._failed += 1
                    self._timeouts[kind] += 1
                future.set_exception(
                    RequestTimeoutError(
                        f"{kind} request deadline expired "
                        f"{now - expires:.3f}s before a worker reached it"
                    )
                )
                continue
            try:
                result = fn()
            except (KeyboardInterrupt, SystemExit) as exc:
                # A shutdown signal is not a request failure: unblock
                # the waiter with a typed error, then let the signal
                # propagate and stop this worker — swallowing it into
                # the future would leave the process uninterruptible.
                future.set_exception(
                    ServiceClosedError(
                        f"worker stopped by {type(exc).__name__} "
                        f"during a {kind} request"
                    )
                )
                raise
            except Exception as exc:  # surfaced via the future
                with self._lock:
                    self._failed += 1
                future.set_exception(exc)
            else:
                future.set_result(result)
            finished = self._clock()
            with self._lock:
                self._completed += 1
                self._kind_counts[kind] += 1
                self._latencies[kind].append(finished - queued_at)
                self._completions.append(finished)

    # ------------------------------------------------------------------
    # typed requests (synchronous wrappers over submit)
    # ------------------------------------------------------------------

    def fit(
        self, name: str, addresses, width: int = 32, **fit_kwargs
    ) -> ModelEntry:
        """Fit and register a model (a queued request like any other)."""
        return self.submit(
            "fit",
            lambda: self.registry.fit(
                name, addresses, width=width, **fit_kwargs
            ),
        ).result()

    def register(self, name: str, analysis) -> ModelEntry:
        """Register an already-fitted analysis (inline: no fit cost)."""
        return self.registry.register(name, analysis)

    def open_session(
        self,
        model: str,
        client: str,
        seed: int = 0,
        exclude: Optional[ExcludeLike] = None,
        exclude_training: bool = True,
        capacity: int = 0,
        workers: Optional[int] = None,
    ) -> ManagedSession:
        """Get-or-create the client's warm stream (inline bookkeeping).

        Defaults to ``exclude_training=True`` — the §5.5 contract that
        served candidates never repeat the model's training rows.
        """
        return self.sessions.open(
            model,
            client,
            seed=seed,
            exclude=exclude,
            exclude_training=exclude_training,
            capacity=capacity,
            workers=workers,
        )

    def generate(
        self,
        model: str,
        client: str,
        n: int,
        seed: int = 0,
        exclude: Optional[ExcludeLike] = None,
        exclude_training: bool = True,
        capacity: int = 0,
        workers: Optional[int] = None,
    ) -> AddressSet:
        """Serve the next ``n`` candidates of ``(model, client)``'s
        stream; blocks for the result.  See :meth:`generate_async`."""
        return self.generate_async(
            model,
            client,
            n,
            seed=seed,
            exclude=exclude,
            exclude_training=exclude_training,
            capacity=capacity,
            workers=workers,
        ).result()

    def generate_async(
        self,
        model: str,
        client: str,
        n: int,
        seed: int = 0,
        exclude: Optional[ExcludeLike] = None,
        exclude_training: bool = True,
        capacity: int = 0,
        workers: Optional[int] = None,
    ) -> "Future":
        """Queue a generate request; the future resolves to the
        :class:`AddressSet`.

        The session open/get happens inside the request (on the worker
        thread), so first-touch session construction is paid under the
        same accounting as the draw.  Open parameters only shape a
        *new* stream; an existing live session ignores them.
        """
        session = None
        try:
            session = self.sessions.get(model, client)
        except KeyError:
            pass

        def run() -> AddressSet:
            live = session
            if live is None or live.closed:
                live = self.open_session(
                    model,
                    client,
                    seed=seed,
                    exclude=exclude,
                    exclude_training=exclude_training,
                    capacity=capacity,
                    workers=workers,
                )
            return live.generate(n, workers=workers)

        return self.submit("generate", run)

    def membership(
        self, model: str, client: str, rows: ExcludeLike
    ) -> np.ndarray:
        """Which of ``rows`` the client's stream has already retired
        (seed exclusions or previously served candidates)."""
        session = self.sessions.get(model, client)
        return self.submit(
            "membership", lambda: session.membership(rows)
        ).result()

    def report(
        self,
        model: str,
        title: Optional[str] = None,
        n_candidates: int = 10,
        seed: int = 0,
    ) -> str:
        """Render the full §1 analyst report for a registered model."""
        from repro.core.report import full_report

        entry = self.registry.get(model)

        def run() -> str:
            return full_report(
                entry.analysis,
                title=title or f"Entropy/IP report: {model}",
                n_candidates=n_candidates,
                rng=np.random.default_rng(seed),
            )

        return self.submit("report", run).result()

    def close_session(self, model: str, client: str) -> bool:
        """Explicitly close one client stream."""
        return self.sessions.close(model, client)

    def rollover_session(self, model: str, client: str) -> ManagedSession:
        """Restart one client stream (same spec/seed, fresh state)."""
        return self.sessions.rollover(model, client)

    # ------------------------------------------------------------------
    # the streaming-ingest plane
    # ------------------------------------------------------------------

    def open_ingest(self, model: str, config=None):
        """Get-or-create the streaming-ingest pipeline for ``model``.

        One pipeline per registered model name: it folds arriving
        batches into cached sufficient statistics and, on drift,
        refits and rolls the new version into this service's registry
        and live sessions (:class:`~repro.ingest.pipeline.IngestPipeline`).
        ``config`` (an :class:`~repro.ingest.pipeline.IngestConfig`)
        only shapes a *newly created* pipeline; an existing one keeps
        its configuration.
        """
        from repro.ingest import IngestPipeline

        with self._pipelines_lock:
            pipeline = self._pipelines.get(model)
            if pipeline is None:
                entry = self.registry.get(model)
                pipeline = IngestPipeline(
                    entry.name,
                    entry.analysis,
                    config=config,
                    registry=self.registry,
                    sessions=self.sessions,
                )
                self._pipelines[model] = pipeline
            return pipeline

    def restore_ingest(self, payload: dict, config=None):
        """Install a streaming-ingest pipeline restored from an
        :meth:`~repro.ingest.pipeline.IngestPipeline.snapshot` payload.

        The restored pipeline is wired to this service's registry and
        session manager (its analysis is re-registered, so a resumed
        feed rolls refits into live streams exactly like an
        uninterrupted one) and replaces any pipeline already open for
        the same model name — a resume supersedes whatever a restarted
        process built up.
        """
        from repro.ingest import IngestPipeline

        pipeline = IngestPipeline.restore(
            payload,
            config=config,
            registry=self.registry,
            sessions=self.sessions,
        )
        with self._pipelines_lock:
            self._pipelines[pipeline.name] = pipeline
        return pipeline

    def ingest(self, model: str, rows):
        """Feed one batch of arriving addresses into ``model``'s
        streaming-ingest pipeline; blocks for the
        :class:`~repro.ingest.pipeline.IngestReport`.

        Queued like any other request — the bounded work queue is the
        ingest backpressure boundary too, so a producer outrunning the
        service sees :class:`ServiceOverloadedError` instead of an
        unbounded backlog.
        """
        pipeline = self.open_ingest(model)
        return self.submit("ingest", lambda: pipeline.ingest(rows)).result()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Service counters and latency percentiles.

        ``requests_per_second`` is measured over the retained window of
        completion timestamps; ``p50_ms``/``p99_ms`` per request kind
        over the same window.  All numbers are wall-clock *including*
        queue wait — the latency a caller actually observes.
        """
        with self._lock:
            kinds = {}
            for kind in REQUEST_KINDS:
                samples = self._latencies[kind]
                activity = (
                    self._kind_counts[kind]
                    + self._timeouts[kind]
                    + self._shed[kind]
                    + self._retried[kind]
                )
                if activity == 0:
                    continue
                entry = {"requests": self._kind_counts[kind]}
                if self._timeouts[kind]:
                    entry["timeouts"] = self._timeouts[kind]
                if self._shed[kind]:
                    entry["shed"] = self._shed[kind]
                if self._retried[kind]:
                    entry["retries"] = self._retried[kind]
                if samples:
                    values = np.asarray(samples, dtype=np.float64)
                    entry["p50_ms"] = round(
                        float(np.percentile(values, 50)) * 1e3, 3
                    )
                    entry["p99_ms"] = round(
                        float(np.percentile(values, 99)) * 1e3, 3
                    )
                kinds[kind] = entry
            completions = list(self._completions)
            rate = 0.0
            if len(completions) >= 2:
                span = completions[-1] - completions[0]
                if span > 0:
                    rate = round((len(completions) - 1) / span, 2)
            return {
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "rejected": self._rejected,
                "timeouts": sum(self._timeouts.values()),
                "retries": sum(self._retried.values()),
                "pending": self._queue.qsize(),
                "max_pending": self._max_pending,
                "workers": len(self._threads),
                "requests_per_second": rate,
                "kinds": kinds,
                "registry": self.registry.stats(),
                "sessions": self.sessions.stats(),
            }

    def health(self) -> dict:
        """A compact liveness/ops summary — the ``health`` verb of the
        serve protocol.

        Everything an operator needs at a glance: queue depth against
        its bound, worker count, shed/timeout/retry totals, and the
        registered models with their current versions.
        """
        with self._lock:
            depth = self._queue.qsize()
            summary = {
                "status": "closed" if self._closed else "ok",
                "pending": depth,
                "max_pending": self._max_pending,
                "workers": len(self._threads),
                "timeouts": sum(self._timeouts.values()),
                "shed": self._rejected,
                "retries": sum(self._retried.values()),
            }
        summary["models"] = self.registry.versions()
        return summary

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------

    def close(
        self,
        wait: bool = True,
        timeout: Optional[float] = DEFAULT_CLOSE_TIMEOUT,
    ) -> bool:
        """Stop accepting requests; drain queued work, stop workers.

        The drain runs under a deadline: ``timeout`` bounds the total
        time spent waiting for workers (seconds; ``None`` waits
        forever — the pre-deadline behavior).  A request wedged past
        the deadline no longer hangs shutdown: close returns ``False``
        with the stuck worker left behind (daemonic, so process exit
        is never blocked), instead of ``True`` for a clean full drain.

        When the service owns its session manager (it was not passed a
        shared one), every live session is closed too, releasing the
        sessions' worker pool threads — a closed service
        leaves nothing running.
        """
        with self._lock:
            if self._closed:
                return True
            self._closed = True
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        drained = True
        if wait:
            deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            for thread in self._threads:
                remaining = (
                    None
                    if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                thread.join(remaining)
                if thread.is_alive():
                    drained = False
        if self._owns_sessions:
            self.sessions.close_all()
        return drained

    def __enter__(self) -> "HitlistService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"HitlistService(workers={len(self._threads)}, "
            f"max_pending={self._max_pending}, "
            f"models={len(self.registry)}, sessions={len(self.sessions)})"
        )
