"""Tests for the Table 4/5/6 experiment harness (scaled down)."""

import pytest

from repro.datasets.networks import build_c5, build_r1, build_s3
from repro.scan.evaluate import (
    prefix_prediction_experiment,
    scan_experiment,
    training_size_sweep,
)


@pytest.fixture(scope="module")
def r1_result():
    network = build_r1(population_size=6000)
    return scan_experiment(
        network, train_size=300, n_candidates=3000, seed=0
    )


class TestScanExperiment:
    def test_result_consistency(self, r1_result):
        r = r1_result
        assert r.n_candidates <= 3000
        assert r.found_overall <= r.n_candidates
        assert r.found_test_set <= r.found_overall
        assert max(r.found_ping, r.found_rdns) <= r.found_overall
        assert 0 <= r.success_rate <= 1

    def test_routers_scannable(self, r1_result):
        # R1's ::1/::2 pattern is learnable → nonzero success.
        assert r1_result.found_overall > 0

    def test_new_prefixes_found(self, r1_result):
        # The paper's headline: /64s never seen in training are found.
        assert r1_result.new_prefixes64 > 0

    def test_row_rendering(self, r1_result):
        row = r1_result.row()
        assert "R1" in row and "success" in row

    def test_deterministic(self):
        network = build_s3(population_size=5000)
        a = scan_experiment(network, train_size=200, n_candidates=500, seed=3)
        b = scan_experiment(network, train_size=200, n_candidates=500, seed=3)
        assert a == b

    def test_dense_network_high_success(self):
        network = build_s3(population_size=20000)
        result = scan_experiment(
            network, train_size=500, n_candidates=2000, seed=1
        )
        # At this scaled-down population the host-space density is
        # ~3.8%, and generated candidates hit at roughly that rate.
        assert result.success_rate > 0.02


class TestPrefixPrediction:
    def test_result_consistency(self):
        network = build_c5(population_size=20000)
        result = prefix_prediction_experiment(
            network, train_size=300, n_candidates=3000, seed=0
        )
        assert result.predicted_day <= result.predicted_week
        assert result.predicted_week <= result.n_candidates
        assert 0 <= result.success_rate_week <= 1
        assert "C5" in result.row()

    def test_dense_client_predictable(self):
        network = build_c5(population_size=20000)
        result = prefix_prediction_experiment(
            network, train_size=300, n_candidates=3000, seed=0
        )
        assert result.success_rate_week > 0.02


class TestTrainingSizeSweep:
    def test_sweep_returns_requested_sizes(self):
        network = build_s3(population_size=8000)
        results = training_size_sweep(
            network,
            train_sizes=(100, 500),
            n_candidates=1000,
            seed=0,
        )
        assert set(results) == {100, 500}
        assert all(0 <= v <= 1 for v in results.values())

    def test_oversized_training_skipped(self):
        network = build_s3(population_size=3000)
        results = training_size_sweep(
            network,
            train_sizes=(100, 10_000),
            n_candidates=500,
            seed=0,
        )
        assert 10_000 not in results

    def test_population_counted_once(self, monkeypatch):
        """The availability check builds the population once, not once
        per training size on top of each experiment's own build."""
        network = build_s3(population_size=3000)
        calls = []
        real = type(network).population

        def counting(self, seed=0):
            calls.append(seed)
            return real(self, seed)

        monkeypatch.setattr(type(network), "population", counting)
        results = training_size_sweep(
            network, train_sizes=(100, 200, 10_000), n_candidates=200, seed=0
        )
        assert set(results) == {100, 200}
        assert len(calls) == 1 + len(results)

    def test_prefix_mode(self):
        network = build_c5(population_size=10000)
        results = training_size_sweep(
            network,
            train_sizes=(200,),
            n_candidates=1000,
            prefix_mode=True,
            seed=0,
        )
        assert set(results) == {200}


class _PrefixNetwork:
    """A width-16 (/64-identifier) 'network' for prefix-mode scans."""

    name = "P16"
    ping_rate = 1.0
    rdns_rate = 0.5

    def population(self, seed=0):
        import numpy as np

        from repro.ipv6.sets import AddressSet

        rng = np.random.default_rng(seed + 40)
        subnets = rng.integers(0, 8, size=4000)
        hosts = rng.integers(0, 1 << 12, size=4000)
        values = [
            0x20010DB8_0000_0000 | (int(s) << 16) | int(h)
            for s, h in zip(subnets, hosts)
        ]
        return AddressSet.from_ints(values, width=16, already_truncated=True)


class TestWidth16ScanExperiment:
    """Regression for the hardcoded ``prefixes64(..., 32)`` width bug.

    In prefix mode a candidate row *is* its /64 identifier and training
    is excluded from candidates, so every overall hit sits in a new /64:
    ``new_prefixes64`` must equal ``found_overall``.  The seed code
    shifted the overall side by 64 bits before subtracting, collapsing
    the count to garbage (and in fact could not run width-16 at all —
    it fitted the model at the default width 32).
    """

    def test_new_prefixes_equal_overall(self):
        result = scan_experiment(
            _PrefixNetwork(), train_size=300, n_candidates=2000, seed=0
        )
        assert result.found_overall > 0
        assert result.new_prefixes64 == result.found_overall

    def test_deterministic(self):
        a = scan_experiment(_PrefixNetwork(), train_size=200,
                            n_candidates=500, seed=3)
        b = scan_experiment(_PrefixNetwork(), train_size=200,
                            n_candidates=500, seed=3)
        assert a == b
