"""Tests for the snapshot-series generator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.temporal import detect_changes
from repro.datasets.temporal import SnapshotSeries, TemporalEvent, _renumber
from repro.ipv6.sets import AddressSet
from repro.scan.generator import prefixes64


class TestSnapshotSeries:
    def test_builds_requested_count(self, jp_small):
        series = SnapshotSeries(jp_small, n_snapshots=3,
                                sample_size=500).build()
        assert len(series) == 3
        assert all(len(s) == 500 for s in series)

    def test_churn_keeps_overlap(self, jp_small):
        series = SnapshotSeries(
            jp_small, n_snapshots=2, sample_size=500, churn=0.3
        ).build()
        first = set(series[0].to_ints())
        second = set(series[1].to_ints())
        overlap = len(first & second) / 500
        assert 0.5 < overlap < 0.9  # ~70% kept

    def test_full_churn_disjoint_mostly(self, jp_small):
        series = SnapshotSeries(
            jp_small, n_snapshots=2, sample_size=500, churn=1.0
        ).build()
        overlap = len(set(series[0].to_ints()) & set(series[1].to_ints()))
        assert overlap < 200  # resampled from a 6K population

    def test_renumber_event_moves_64s(self, jp_small):
        series = SnapshotSeries(
            jp_small,
            n_snapshots=3,
            sample_size=600,
            events=[TemporalEvent(at_index=1, kind="renumber",
                                  magnitude=0xA5)],
        ).build()
        before = prefixes64(series[0].to_ints(), 32)
        after = prefixes64(series[1].to_ints(), 32)
        # Nearly every /64 moved (XOR collisions leave a tiny overlap).
        assert len(before & after) < 0.05 * len(before)

    def test_grow_event_increases_size(self, jp_small):
        series = SnapshotSeries(
            jp_small,
            n_snapshots=2,
            sample_size=500,
            events=[TemporalEvent(at_index=1, kind="grow", magnitude=0.5)],
        ).build()
        assert len(series[1]) == 750

    def test_detector_catches_the_series_event(self, jp_small):
        series = SnapshotSeries(
            jp_small,
            n_snapshots=4,
            sample_size=800,
            events=[TemporalEvent(at_index=2, kind="renumber",
                                  magnitude=0xA5)],
            seed=1,
        ).build()
        changes = detect_changes(series)
        assert 2 in {c.index for c in changes}

    def test_validation(self, jp_small):
        with pytest.raises(ValueError):
            SnapshotSeries(jp_small, churn=2.0).build()
        with pytest.raises(ValueError):
            SnapshotSeries(jp_small, sample_size=0).build()
        with pytest.raises(ValueError):
            SnapshotSeries(
                jp_small,
                events=[TemporalEvent(0, "explode")],
            ).build()
        with pytest.raises(ValueError):
            SnapshotSeries(jp_small, sample_size=10**9).build()

    def test_deterministic(self, jp_small):
        make = lambda: SnapshotSeries(
            jp_small, n_snapshots=2, sample_size=300, seed=7
        ).build()
        first, second = make(), make()
        assert all(a == b for a, b in zip(first, second))


class TestRenumber:
    """The vectorized renumbering equals XOR-ing each row as an int."""

    @settings(max_examples=50)
    @given(
        st.lists(st.integers(0, (1 << 128) - 1), max_size=40),
        st.integers(1, 0xFF),
    )
    def test_matches_per_int_reference(self, values, mask):
        addresses = AddressSet.from_ints(values)
        reference = AddressSet.from_ints(
            [v ^ (mask << 64) for v in addresses.to_ints()]
        )
        assert _renumber(addresses, mask) == reference

    def test_validation(self):
        addresses = AddressSet.from_ints([1 << 64])
        with pytest.raises(ValueError):
            _renumber(addresses, 0)
        with pytest.raises(ValueError):
            _renumber(addresses, 0x100)
        narrow = AddressSet.from_ints([1], width=16, already_truncated=True)
        with pytest.raises(ValueError):
            _renumber(narrow, 0xA5)
