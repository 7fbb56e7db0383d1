"""A thin, ordered worker pool over ``concurrent.futures`` threads.

The shard work units are numpy-heavy (BN inverse-CDF sampling, segment
decoding, packed-row hashing), and numpy releases the GIL inside its
kernels, so a thread pool overlaps real work without pickling anything
across process boundaries.

The executor is **long-lived**: it is created lazily on the first
parallel ``map`` and reused by every later call until :meth:`close`.
A pool with ``workers <= 1`` degrades to a plain loop — no executor,
no threads — which keeps the serial path allocation-free and trivially
debuggable.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def available_cpus() -> int:
    """CPUs this process may actually run on.

    Prefers ``len(os.sched_getaffinity(0))`` where the platform has it:
    a cgroup/affinity-restricted container (exactly what CI runs on)
    may be pinned to far fewer cores than ``os.cpu_count()`` reports,
    and sizing a pool past the affinity mask only adds contention.
    Falls back to ``os.cpu_count()`` elsewhere (macOS, Windows).
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms only
            pass
    return os.cpu_count() or 1


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers`` argument into a concrete worker count.

    ``None`` means serial (1); any negative value means "all available
    cores" — measured by :func:`available_cpus`, i.e. the scheduling
    affinity mask where the platform exposes one (``os.cpu_count()``
    ignores cgroup/affinity limits and would oversubscribe restricted
    containers); positive values pass through.  Zero is rejected — a
    pool with no workers cannot make progress.
    """
    if workers is None:
        return 1
    workers = int(workers)
    if workers == 0:
        raise ValueError("workers must be nonzero (None or 1 means serial)")
    if workers < 0:
        return available_cpus()
    return workers


class WorkerPool:
    """Execute tasks across ``workers`` threads, in order.

    ``map`` returns results in input order regardless of completion
    order, and the first task exception propagates to the caller (the
    remaining tasks still run to completion — shard work units are
    side-effect free, so there is nothing to unwind).

    The pool owns one long-lived executor, created lazily and reused
    across ``map`` calls; call :meth:`close` (or use the pool as a
    context manager) to release its threads.  A closed pool
    transparently re-creates the executor if mapped again — close is a
    resource release, not a poison pill.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = resolve_workers(workers)
        self._executor: Optional[ThreadPoolExecutor] = None

    def close(self) -> None:
        """Release the executor's threads (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    @property
    def closed(self) -> bool:
        """Whether the pool currently holds no live executor."""
        return self._executor is None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item; results in input order."""
        items = list(items)
        if self.workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.workers)
        return list(self._executor.map(fn, items))

    def __repr__(self) -> str:
        return f"WorkerPool(workers={self.workers})"
