"""Shared pieces of the benchmark: spans, statistics, checks, host record.

Everything here is benchmark-side.  The program under test is only
ever called through its public API; the timing of each layer comes
from spans recorded around those calls (:class:`Trace`), never from
instrumentation inside ``src/``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


class Trace:
    """Spans and counters recorded from the benchmark's own wrappers.

    A span is ``[name, start, end, parent]``; a layer's self time is
    its spans' durations minus the part their child spans cover.
    Spans are kept in memory and written out when the run ends.
    ``span`` nests through a per-thread stack; ``add`` records a span
    measured elsewhere (worker threads, replays) with an explicit
    parent.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None) -> int:
        with self._lock:
            self.spans.append([name, start, end, -1 if parent is None else parent])
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        index = self.add(name, time.perf_counter(), 0.0,
                         stack[-1] if stack else None)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()

    def window(self, start: int, stop: Optional[int] = None) -> "Trace":
        """The spans recorded in ``[start, stop)``, parents re-indexed
        (a parent recorded before ``start`` is dropped)."""
        out = Trace()
        out.spans = [[name, begin, end, parent - start if parent >= start else -1]
                     for name, begin, end, parent in self.spans[start:stop]]
        return out

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def totals(self) -> Dict[str, float]:
        """Summed span duration per name (seconds)."""
        out: Dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> Dict[str, float]:
        """Summed self time per name: duration minus child durations."""
        out = self.totals()
        for name, start, end, parent in self.spans:
            if parent >= 0:
                parent_name = self.spans[parent][0]
                out[parent_name] -= end - start
        return out


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (numpy's linear interpolation); NaN if empty."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def rows_digest(words: np.ndarray) -> str:
    """sha256 of a packed-row matrix (order-sensitive, byte-exact)."""
    return hashlib.sha256(np.ascontiguousarray(words).tobytes()).hexdigest()


def distinct_rows(words: np.ndarray) -> int:
    """Number of distinct rows of a packed uint64 word matrix.

    Sort-based and independent of the program's own hash tables, so it
    can check their output.
    """
    if len(words) == 0:
        return 0
    order = np.lexsort(words.T[::-1])
    ordered = words[order]
    changed = np.any(ordered[1:] != ordered[:-1], axis=1)
    return 1 + int(np.count_nonzero(changed))


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_ticks() -> List[int]:
    """The machine-wide ``cpu`` line of ``/proc/stat`` (empty if absent)."""
    try:
        with open("/proc/stat") as handle:
            return [int(v) for v in handle.readline().split()[1:]]
    except OSError:
        return []


def steal_share(start: dict, end: dict) -> float:
    """Share of CPU time the hypervisor gave to other guests between two
    host records: a run with a high share measured a busy machine."""
    a, b = start["cpu_ticks"], end["cpu_ticks"]
    if len(a) < 8 or len(b) < 8:
        return 0.0
    delta = [y - x for x, y in zip(a, b)]
    return delta[7] / max(1, sum(delta))


def host_record() -> dict:
    """Where a result came from; results of different hosts never compare."""
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        affinity = []
    return {
        "cpu_ticks": _cpu_ticks(),
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "loadavg_1m": os.getloadavg()[0],
    }


@dataclass
class Checks:
    """Output checks of one run; each failure is a failed operation."""

    results: List[dict] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
        return bool(ok)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r["ok"])


@dataclass
class PassResult:
    """What one timed pass of a workload produced.

    ``e2e`` holds the end-to-end metric values; ``report`` the
    workload's own named figures (``scan.cand_per_s`` ...);
    ``outputs`` digests that a second pass on the same inputs must
    reproduce bit for bit; ``layers`` the per-layer metrics of a
    traced pass.
    """

    wall_s: float
    e2e: Dict[str, float]
    report: Dict[str, float]
    outputs: Dict[str, object]
    attempted: int
    layers: Dict[str, float] = field(default_factory=dict)
    #: Spans recorded after this index are measurement-only work done
    #: after the timed region (None: every span is inside it).
    timed_spans: Optional[int] = None
    #: Index of the first span of the timed region.
    timed_spans_start: int = 0


def derive_seed(*parts: int) -> int:
    """A 31-bit seed derived from ``parts`` (distinct parts, distinct seeds)."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0]
               & 0x7FFFFFFF)
