"""The simulated network oracle standing in for live scanning.

The paper validated generated candidates by (a) membership in the
held-out test set, (b) ICMPv6 echo ("Ping"), and (c) reverse DNS
("rDNS").  Offline we replace (b) and (c) with a deterministic oracle
over the synthetic network's *population* — the full set of deployed
addresses, of which any observed dataset is only a sample.  Each
population member answers pings with probability ``ping_rate`` and has
an rDNS record with probability ``rdns_rate``, decided by a keyed hash
so the same address always behaves the same way.

The oracle is array-native: the population lives as an
:class:`~repro.ipv6.sets.AddressSet` whose bucket-table membership
index answers batch probes in ~1-2 gathers per row, and the keyed hash
runs as numpy uint64 ops — :meth:`SimulatedResponder.member_mask`,
:meth:`~SimulatedResponder.ping_mask` and
:meth:`~SimulatedResponder.rdns_mask` score a 1M-candidate batch
without materializing a single Python integer, and
:meth:`~SimulatedResponder.oracle_masks` produces all three verdicts
from one membership pass, optionally sharded across a worker pool.
The scalar
:meth:`~SimulatedResponder.ping`/:meth:`~SimulatedResponder.rdns` and
the list-based ``*_many`` interfaces remain as thin wrappers (and as
the references the equivalence tests pin the vectorized paths to).

The paper also notes a validation caveat: "part of the positive
responses ... might have been generated automatically (e.g. replying to
any ping request destined to a certain prefix, causing false
positives)."  ``wildcard_ping_prefixes`` models exactly that failure
mode for robustness testing: population members are still scored by the
vectorized oracle, and only the (typically few) non-members fall back
to a per-value prefix check.
"""

from __future__ import annotations

import weakref
from typing import Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.ipv6.prefix import Prefix
from repro.ipv6.sets import AddressSet, _mix64

#: The vectorized SplitMix64 finalizer (shared with the membership
#: index in :mod:`repro.ipv6.sets`, so the constants cannot diverge).
_splitmix64_array = _mix64


def _splitmix64(value: int) -> int:
    """SplitMix64 finalizer: a fast, well-mixed 64-bit hash."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def _keyed_uniform(value: int, key: int) -> float:
    """Deterministic pseudo-uniform in [0, 1) keyed by (value, key)."""
    mixed = _splitmix64((value & 0xFFFFFFFFFFFFFFFF) ^ _splitmix64(value >> 64) ^ key)
    return mixed / 2.0**64


def _keyed_uniform_array(
    low_words: np.ndarray, high_words: np.ndarray, key: int
) -> np.ndarray:
    """Vectorized :func:`_keyed_uniform`, bit-identical to the scalar."""
    mixed = _splitmix64_array(
        low_words ^ _splitmix64_array(high_words) ^ np.uint64(key)
    )
    return mixed.astype(np.float64) / 2.0**64


class SimulatedResponder:
    """Deterministic ping/rDNS oracle over a ground-truth population."""

    def __init__(
        self,
        population: AddressSet,
        ping_rate: float = 0.8,
        rdns_rate: float = 0.3,
        seed: int = 0,
        wildcard_ping_prefixes: Sequence[Prefix] = (),
    ):
        if not 0 <= ping_rate <= 1 or not 0 <= rdns_rate <= 1:
            raise ValueError("rates must lie in [0, 1]")
        # Distinct rows only: unique() sorts the big-endian packed
        # words, which is ascending numeric order.
        self._population = population.unique()
        self._width = population.width
        self._ping_rate = ping_rate
        self._rdns_rate = rdns_rate
        self._ping_key = _splitmix64(seed * 2 + 1)
        self._rdns_key = _splitmix64(seed * 2 + 2)
        self._wildcards = list(wildcard_ping_prefixes)
        # Python-int membership set, built lazily: only the scalar
        # ping()/rdns()/is_member() paths need it.
        self._member_ints: Optional[Set[int]] = None
        # Per-population-row oracle verdicts, computed lazily (one
        # vectorized keyed-hash pass each): batch scoring then reduces
        # to match positions + one gather per oracle.
        self._ping_verdicts: Optional[np.ndarray] = None
        self._rdns_verdicts: Optional[np.ndarray] = None
        # Match positions of the most recent candidate batch, keyed by
        # a weak reference to it: scan_experiment scores the same
        # 1M-row batch with ping + rdns (+ membership), and the match
        # pass dominates — but a dropped batch must not stay pinned in
        # memory just because the responder outlives it.
        self._last_match: "Optional[tuple[weakref.ref, np.ndarray]]" = None

    @property
    def population_size(self) -> int:
        return len(self._population)

    @property
    def width(self) -> int:
        """Nybble width of the population (32 full / 16 prefix mode)."""
        return self._width

    def _members(self) -> Set[int]:
        if self._member_ints is None:
            self._member_ints = set(self._population.to_ints())
        return self._member_ints

    def is_member(self, value: int) -> bool:
        """True if the address belongs to the deployed population."""
        return value in self._members()

    def ping(self, value: int) -> bool:
        """Simulated ICMPv6 echo: member + responder, or wildcard hit."""
        if value in self._members():
            return _keyed_uniform(value, self._ping_key) < self._ping_rate
        return self._wildcard_hit(value)

    def rdns(self, value: int) -> bool:
        """Simulated reverse-DNS lookup (dynamic records excluded)."""
        return (
            value in self._members()
            and _keyed_uniform(value, self._rdns_key) < self._rdns_rate
        )

    def _wildcard_hit(self, value: int) -> bool:
        """Non-member wildcard check: inside any auto-replying prefix?"""
        if not self._wildcards:
            return False
        padded = value << (4 * (32 - self._width))
        return any(p.contains(padded) for p in self._wildcards)

    # ------------------------------------------------------------------
    # vectorized batch interfaces
    # ------------------------------------------------------------------

    def _match_positions(self, candidates: AddressSet) -> np.ndarray:
        """Population row matched by each candidate (-1 when absent).

        The dominant cost of batch scoring; cached by batch identity so
        scoring the same candidates with ping + rdns + membership pays
        the :meth:`~repro.ipv6.sets.AddressSet.match_rows` pass once.
        """
        if candidates.width != self._width:
            raise ValueError(
                f"candidate width {candidates.width} != "
                f"population width {self._width}"
            )
        if self._last_match is not None and self._last_match[0]() is candidates:
            return self._last_match[1]
        positions = self._population.match_rows(candidates)
        self._last_match = (weakref.ref(candidates), positions)
        return positions

    def member_mask(self, candidates: AddressSet) -> np.ndarray:
        """Boolean mask: which candidate rows belong to the population.

        One probe against the population's cached bucket-table
        membership index — O(m) with no per-candidate Python.
        """
        return self._match_positions(candidates) >= 0

    def oracle_masks(
        self,
        candidates: AddressSet,
        workers: "Optional[int]" = None,
        shards: "Optional[int]" = None,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(member, ping, rdns)`` masks in one membership pass.

        The batch-scoring fast path: each row is matched against the
        population once and all three verdicts are gathered from that
        single set of positions.  With ``workers`` set, the candidate
        rows are split into contiguous chunks scored across a thread
        pool (:func:`repro.exec.sharded_map_rows`); every mask is a
        pure per-row function, so any worker count produces identical
        masks.
        """
        from repro.exec import sharded_map_rows

        if candidates.width != self._width:
            raise ValueError(
                f"candidate width {candidates.width} != "
                f"population width {self._width}"
            )
        n = len(candidates)
        if n == 0:
            empty = np.zeros(0, dtype=bool)
            return empty, empty.copy(), empty.copy()
        # Materialize the shared inputs serially before any threads
        # fork: the packed rows, the population's membership index and
        # the lazy per-population verdict caches.  (Concurrent lazy
        # builds would be correct — last assignment wins and every
        # built index is complete — just wasted work.)
        packed = candidates.packed_rows()
        if len(self._population):
            self._population._membership_index()
            ping_verdicts = self._verdicts("ping")
            rdns_verdicts = self._verdicts("rdns")

        def score(start: int, stop: int) -> np.ndarray:
            out = np.zeros((stop - start, 3), dtype=bool)
            if len(self._population):
                positions = self._population.match_words(packed[start:stop])
                member = positions >= 0
                out[:, 0] = member
                out[member, 1] = ping_verdicts[positions[member]]
                out[member, 2] = rdns_verdicts[positions[member]]
            if self._wildcards:
                for i in np.flatnonzero(~out[:, 0]):
                    out[i, 1] = self._wildcard_hit(
                        candidates.row_int(start + int(i))
                    )
            return out

        scored = sharded_map_rows(score, n, workers=workers, shards=shards)
        return scored[:, 0], scored[:, 1], scored[:, 2]

    def ping_mask(self, candidates: AddressSet) -> np.ndarray:
        """Boolean mask of candidates answering the simulated ping.

        Population members are scored entirely in numpy: one (cached)
        :meth:`~repro.ipv6.sets.AddressSet.match_rows` lookup against
        the population, then a gather of per-member verdicts that were
        precomputed with the vectorized keyed hash (bit-identical to
        :meth:`ping`).  Only when wildcard prefixes are configured do
        the *non-member* rows fall back to a per-value prefix check.
        """
        mask = self._verdict_mask(candidates, "ping")
        if self._wildcards:
            for i in np.flatnonzero(self._match_positions(candidates) < 0):
                mask[i] = self._wildcard_hit(candidates.row_int(int(i)))
        return mask

    def rdns_mask(self, candidates: AddressSet) -> np.ndarray:
        """Boolean mask of candidates with simulated rDNS records."""
        return self._verdict_mask(candidates, "rdns")

    def _verdicts(self, which: str) -> np.ndarray:
        """Per-population-row oracle outcomes, one vectorized hash pass."""
        cached = self._ping_verdicts if which == "ping" else self._rdns_verdicts
        if cached is None:
            low, high = self._population.value_words()
            if which == "ping":
                key, rate = self._ping_key, self._ping_rate
            else:
                key, rate = self._rdns_key, self._rdns_rate
            cached = _keyed_uniform_array(low, high, key) < rate
            if which == "ping":
                self._ping_verdicts = cached
            else:
                self._rdns_verdicts = cached
        return cached

    def _verdict_mask(self, candidates: AddressSet, which: str) -> np.ndarray:
        """Match candidates to population rows; gather their verdicts."""
        if candidates.width != self._width:
            raise ValueError(
                f"candidate width {candidates.width} != "
                f"population width {self._width}"
            )
        mask = np.zeros(len(candidates), dtype=bool)
        if not len(candidates) or not len(self._population):
            return mask
        positions = self._match_positions(candidates)
        member = positions >= 0
        if member.any():
            mask[member] = self._verdicts(which)[positions[member]]
        return mask

    # ------------------------------------------------------------------
    # list-based wrappers (compatibility + scalar reference)
    # ------------------------------------------------------------------

    def ping_many(self, values: Iterable[int]) -> List[int]:
        """The subset of ``values`` answering pings.

        Thin wrapper over :meth:`ping_mask`: values are packed into an
        :class:`AddressSet` once and scored by the array oracle —
        including the wildcard-prefix mode, where only non-members take
        the scalar fallback.
        """
        values = list(values)
        return self._select(values, self.ping_mask, self.ping)

    def rdns_many(self, values: Iterable[int]) -> List[int]:
        """The subset of ``values`` with rDNS records."""
        return self._select(list(values), self.rdns_mask, self.rdns)

    def _select(self, values: List[int], mask_fn, scalar_fn) -> List[int]:
        if not values:
            return []
        try:
            candidates = AddressSet.from_ints(
                values, width=self._width, already_truncated=True
            )
        except ValueError:
            # Values outside the population width (negative or too
            # wide) cannot be packed into rows; score the batch with
            # the scalar oracle instead, which treats them as plain
            # non-members — the pre-array behavior.
            return [v for v in values if scalar_fn(v)]
        mask = mask_fn(candidates)
        return [values[i] for i in np.flatnonzero(mask)]

    def responding_set(self) -> AddressSet:
        """All population members that would answer a ping, as rows.

        One vectorized keyed-hash pass over the population plus a row
        gather — the array-native replacement for the per-int
        ``responding_population`` loop (members never consult
        wildcards).  Rows come back in ascending address order.
        """
        return self._population.take(np.flatnonzero(self._verdicts("ping")))

    def responding_population(self) -> List[int]:
        """All population members that would answer a ping (ascending).

        Compatibility wrapper over :meth:`responding_set`.
        """
        if not len(self._population):
            return []
        return self.responding_set().to_ints()
