"""Snapshot-series generation for temporal experiments (§6).

Formalizes what the temporal example improvises: given a base network,
produce a series of observation snapshots with controllable events —
address churn (clients come and go), growth (sample size increases),
and renumbering (the subnet bits move to a new block).  Used by the
temporal tests and the change-detection extension bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.datasets.networks import SyntheticNetwork
from repro.ipv6.address import NYBBLES_PER_ADDRESS
from repro.ipv6.sets import AddressSet, unpack_rows


@dataclass(frozen=True)
class TemporalEvent:
    """A structural event applied from snapshot ``at_index`` onward."""

    at_index: int
    kind: str  # "renumber" | "grow"
    #: For "renumber": XOR mask applied to address bits 32-64 (the
    #: subnet identifier); 0 selects a default mask.  For "grow": extra
    #: sample rows as a fraction of the base sample size.
    magnitude: float = 0.0


@dataclass
class SnapshotSeries:
    """A reproducible series of observation snapshots of one network."""

    network: SyntheticNetwork
    n_snapshots: int = 4
    sample_size: int = 2000
    #: Fraction of each snapshot resampled fresh (client churn).
    churn: float = 0.3
    events: Sequence[TemporalEvent] = field(default_factory=tuple)
    seed: int = 0

    def build(self) -> List[AddressSet]:
        """Materialize the snapshot series."""
        if not 0 <= self.churn <= 1:
            raise ValueError("churn must lie in [0, 1]")
        if self.sample_size < 1 or self.n_snapshots < 1:
            raise ValueError("series dimensions must be positive")
        for event in self.events:
            if event.kind not in ("renumber", "grow"):
                raise ValueError(f"unknown event kind: {event.kind!r}")
        population = self.network.population(self.seed)
        if self.sample_size > len(population):
            raise ValueError("sample_size exceeds the population")
        rng = np.random.default_rng(self.seed + 101)

        effective = population  # the deployed addresses as of "now"
        growth = 0.0
        current = effective.sample(self.sample_size, rng)
        snapshots: List[AddressSet] = []
        for index in range(self.n_snapshots):
            for event in self.events:
                if event.at_index != index:
                    continue
                if event.kind == "renumber":
                    mask = int(event.magnitude) or 0xA5
                    effective = _renumber(effective, mask)
                    # Already-observed hosts migrate with the network.
                    current = _renumber(current, mask)
                else:  # grow
                    growth = event.magnitude
            keep = int(round((1 - self.churn) * len(current)))
            kept_rows = np.sort(
                rng.choice(len(current), size=keep, replace=False)
            )
            fresh = effective.sample(self.sample_size - keep, rng)
            snapshot = current.take(kept_rows).concat(fresh)
            if growth > 0:
                extra_count = min(
                    int(growth * self.sample_size), len(effective)
                )
                snapshot = snapshot.concat(effective.sample(extra_count, rng))
            snapshots.append(snapshot)
            current = snapshot
        return snapshots


def _renumber(address_set: AddressSet, mask: int) -> AddressSet:
    """XOR address bits 56-64 (the low subnet byte) with ``mask``.

    Models an operator moving its customer pools to a new block while
    leaving the /32 and the IIDs untouched.  Those bits are the low
    byte of the first big-endian packed word, so the whole set is
    renumbered by one vectorized XOR.
    """
    if not 0 < mask <= 0xFF:
        raise ValueError("mask must fit in the low subnet byte (1..0xff)")
    if address_set.width != NYBBLES_PER_ADDRESS:
        raise ValueError(
            f"renumbering needs full {NYBBLES_PER_ADDRESS}-nybble "
            f"addresses, got width {address_set.width}"
        )
    words = address_set.packed_rows().copy()
    words[:, 0] ^= np.uint64(mask)
    return AddressSet(unpack_rows(words, address_set.width))
