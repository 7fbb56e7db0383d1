"""Determinism and correctness tests for the sharded execution engine.

The engine's contract: the shard decomposition (sizes, RNG streams) is
a pure function of the caller's seed and the ``shards`` count, and the
worker count only decides how many shards run concurrently.  Everything
here pins that — ``workers=4`` must be bit-identical to ``workers=1``
across generation, scan experiments and whole campaigns.
"""

import os

import numpy as np
import pytest

from repro.core.pipeline import EntropyIP
from repro.datasets.networks import build_network
from repro.exec import (
    DEFAULT_SHARDS,
    WorkerPool,
    available_cpus,
    derive_seed_sequence,
    resolve_workers,
    shard_bounds,
    shard_sizes,
    sharded_map_rows,
)
from repro.exec.engine import _empty_shard
from repro.exec.sharding import spawn_generators
from repro.faults import FaultPlan
from repro.scan.campaign import run_campaign
from repro.scan.evaluate import scan_experiment
from repro.scan.responder import SimulatedResponder


@pytest.fixture(scope="module")
def s1_model():
    network = build_network("S1")
    train = network.sample(600, seed=3)
    return EntropyIP.fit(train).model, train


@pytest.fixture(scope="module")
def r1_model():
    network = build_network("R1")
    train = network.sample(600, seed=3)
    return EntropyIP.fit(train).model, train


class TestSharding:
    def test_shard_sizes_sum_and_balance(self):
        for total in (0, 1, 7, 8, 9, 1000, 12345):
            for shards in (1, 2, 8, 13):
                sizes = shard_sizes(total, shards)
                assert sizes.sum() == total
                assert len(sizes) == shards
                assert sizes.max() - sizes.min() <= 1

    def test_shard_sizes_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            shard_sizes(-1, 4)
        with pytest.raises(ValueError):
            shard_sizes(10, 0)

    def test_shard_bounds_cover_range(self):
        bounds = shard_bounds(103, 8)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 103
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start

    def test_derived_sequence_is_deterministic(self):
        a = derive_seed_sequence(np.random.default_rng(11))
        b = derive_seed_sequence(np.random.default_rng(11))
        c = derive_seed_sequence(np.random.default_rng(12))
        assert a.entropy == b.entropy
        assert a.entropy != c.entropy

    def test_spawned_generators_are_independent_and_reproducible(self):
        first = spawn_generators(derive_seed_sequence(np.random.default_rng(5)), 4)
        second = spawn_generators(derive_seed_sequence(np.random.default_rng(5)), 4)
        draws_first = [g.random(8).tolist() for g in first]
        draws_second = [g.random(8).tolist() for g in second]
        assert draws_first == draws_second
        # Distinct shards see distinct streams.
        assert draws_first[0] != draws_first[1]

    def test_spawn_advances_across_rounds(self):
        sequence = derive_seed_sequence(np.random.default_rng(5))
        round1 = [np.random.default_rng(c).random(4).tolist() for c in sequence.spawn(3)]
        round2 = [np.random.default_rng(c).random(4).tolist() for c in sequence.spawn(3)]
        assert round1 != round2


class TestWorkerPool:
    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(-1) >= 1
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_negative_workers_respect_affinity_mask(self, monkeypatch):
        """Regression: ``resolve_workers(-1)`` must size by the
        scheduling-affinity mask, not ``os.cpu_count()`` — a cgroup-
        restricted container pinned to 2 of 64 cores gets 2 workers."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
            )
            assert available_cpus() == 2
            assert resolve_workers(-1) == 2
            assert resolve_workers(-4) == 2
        else:  # pragma: no cover - non-Linux fallback
            assert available_cpus() == 64

    def test_negative_workers_fall_back_to_cpu_count(self, monkeypatch):
        """Platforms without sched_getaffinity use os.cpu_count()."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert available_cpus() == 6
        assert resolve_workers(-1) == 6

    def test_map_preserves_order(self):
        pool = WorkerPool(4)
        assert pool.map(lambda x: x * x, range(20)) == [x * x for x in range(20)]

    def test_map_serial_when_one_worker(self):
        pool = WorkerPool(1)
        assert pool.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]

    def test_map_propagates_exceptions(self):
        pool = WorkerPool(4)

        def boom(x):
            if x == 3:
                raise RuntimeError("shard failed")
            return x

        with pytest.raises(RuntimeError):
            pool.map(boom, range(6))


class TestPoolLifetime:
    def test_executor_is_long_lived_and_reused(self):
        pool = WorkerPool(2)
        assert pool.closed  # lazy: nothing spawned yet
        pool.map(lambda x: x, range(8))
        assert not pool.closed
        first = pool._executor
        pool.map(lambda x: x, range(8))
        assert pool._executor is first  # reused, not rebuilt per map
        pool.close()
        assert pool.closed

    def test_close_is_idempotent_and_pool_recreates(self):
        pool = WorkerPool(2)
        pool.map(lambda x: x, range(4))
        pool.close()
        pool.close()
        # A closed pool transparently comes back on the next map.
        assert pool.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        pool.close()

    def test_context_manager_closes(self):
        with WorkerPool(2) as pool:
            pool.map(lambda x: x, range(4))
            assert not pool.closed
        assert pool.closed

    def test_serial_pool_never_spawns_executor(self):
        pool = WorkerPool(1)
        pool.map(lambda x: x, range(8))
        assert pool._executor is None

    def test_session_reuses_one_pool_and_closes_it(self, s1_model):
        model, train = s1_model
        session = model.session(exclude=train)
        rng = np.random.default_rng(7)
        model.generate_set(2000, rng, state=session, workers=2)
        pool = session.get_pool(2)
        assert not pool.closed
        model.generate_set(2000, rng, state=session, workers=2)
        assert session.get_pool(2) is pool  # same pool, same executor
        session.close()
        assert pool.closed

    def test_session_context_manager_closes_pools(self, s1_model):
        model, train = s1_model
        with model.session(exclude=train) as session:
            model.generate_set(
                1000, np.random.default_rng(7), state=session, workers=2
            )
            pool = session.get_pool(2)
        assert pool.closed


class TestEmptyShards:
    """A batch smaller than ``shards`` produces zero-size shards; they
    must never reach a sampler (size=0 draws are skipped entirely)."""

    @pytest.mark.parametrize("fused", [None, False])
    def test_n_smaller_than_shards(self, s1_model, fused):
        model, train = s1_model
        out = model.generate_set(
            10,
            np.random.default_rng(9),
            exclude=train,
            workers=2,
            shards=5000,  # far beyond the 4096-row batch floor
            fused=fused,
        )
        assert len(out) == 10
        uniques = {tuple(row) for row in out.matrix.tolist()}
        assert len(uniques) == 10
        assert not train.contains_rows(out).any()

    def test_n_zero(self, s1_model):
        model, train = s1_model
        out = model.generate_set(
            0, np.random.default_rng(9), exclude=train, workers=2
        )
        assert len(out) == 0
        assert out.width == model.encoder.width

    @pytest.mark.parametrize("use_fused", [True, False])
    def test_zero_size_task_returns_shaped_empties(self, s1_model, use_fused):
        model, _ = s1_model
        width = model.encoder.width
        matrix, words = _empty_shard(width, use_fused)
        assert words.shape == (0, (width + 15) // 16)
        assert words.dtype == np.uint64
        if use_fused:
            assert matrix is None
        else:
            assert matrix.shape == (0, width)


class TestShardFaultSite:
    def test_shard_fault_site_fires_at_its_coordinates(self, s1_model):
        """``pool.shard@C.S`` raises inside shard S of draw C on the
        thread pool, and the error reaches the caller."""
        model, train = s1_model
        plan = FaultPlan.parse("pool.shard@0.1:raise=OSError")
        with plan.armed():
            with pytest.raises(OSError, match="call 0 shard 1"):
                model.generate_set(
                    1000, np.random.default_rng(9), exclude=train, workers=2
                )
        assert plan.fired() == 1


class TestShardedMapRows:
    def test_matches_inline_result(self):
        values = np.arange(100_000, dtype=np.int64)

        def fn(start, stop):
            return values[start:stop] % 7 == 0

        serial = sharded_map_rows(fn, len(values), workers=None)
        parallel = sharded_map_rows(fn, len(values), workers=4)
        assert np.array_equal(serial, parallel)

    def test_small_inputs_run_inline(self):
        calls = []

        def fn(start, stop):
            calls.append((start, stop))
            return np.zeros(stop - start, dtype=bool)

        sharded_map_rows(fn, 100, workers=4)
        assert calls == [(0, 100)]


class TestGenerationDeterminism:
    """Same seed, any worker count → bit-identical generate_set output."""

    @pytest.mark.parametrize("fixture", ["s1_model", "r1_model"])
    def test_workers_bit_identical(self, fixture, request):
        model, train = request.getfixturevalue(fixture)
        rng = np.random.default_rng(7)
        results = [
            model.generate_set(20_000, rng, exclude=train, workers=1)
        ]
        for workers in (2, 4):
            rng = np.random.default_rng(7)
            results.append(
                model.generate_set(
                    20_000, rng, exclude=train, workers=workers
                )
            )
        assert np.array_equal(results[0].matrix, results[1].matrix)
        assert np.array_equal(results[0].matrix, results[2].matrix)
        # The packed words travel with the rows and must agree too.
        assert np.array_equal(
            results[0].packed_rows(), results[2].packed_rows()
        )

    def test_changing_shards_changes_decomposition_not_contract(self, s1_model):
        model, train = s1_model
        rng = np.random.default_rng(7)
        base = model.generate_set(5000, rng, exclude=train, workers=1, shards=4)
        rng = np.random.default_rng(7)
        same = model.generate_set(5000, rng, exclude=train, workers=4, shards=4)
        assert np.array_equal(base.matrix, same.matrix)
        # Output rows are distinct and never in the exclusion set.
        assert len(base) == 5000
        assert not train.contains_rows(base).any()
        uniques = {tuple(row) for row in base.matrix.tolist()}
        assert len(uniques) == len(base)

    def test_default_shard_count_used(self, s1_model):
        model, train = s1_model
        rng = np.random.default_rng(7)
        explicit = model.generate_set(
            3000, rng, exclude=train, workers=1, shards=DEFAULT_SHARDS
        )
        rng = np.random.default_rng(7)
        implicit = model.generate_set(3000, rng, exclude=train, workers=1)
        assert np.array_equal(explicit.matrix, implicit.matrix)

    def test_two_step_path_is_worker_invariant(self, s1_model):
        model, train = s1_model
        results = [
            model.generate_set(
                4000,
                np.random.default_rng(5),
                exclude=train,
                workers=workers,
                fused=False,
            )
            for workers in (1, 2)
        ]
        assert np.array_equal(results[0].matrix, results[1].matrix)

    def test_evidence_path_is_worker_invariant(self, s1_model):
        model, _ = s1_model
        label = model.encoder.variable_names[0]
        results = []
        for workers in (1, 4):
            rng = np.random.default_rng(13)
            results.append(
                model.generate_set(
                    500, rng, evidence={label: 0}, workers=workers
                )
            )
        assert np.array_equal(results[0].matrix, results[1].matrix)


class TestScanDeterminism:
    def test_scan_experiment_workers_bit_identical(self):
        network = build_network("S1")
        counts = []
        for workers in (1, 4):
            result = scan_experiment(
                network,
                train_size=400,
                n_candidates=20_000,
                seed=1,
                workers=workers,
            )
            counts.append(
                (
                    result.found_test_set,
                    result.found_ping,
                    result.found_rdns,
                    result.found_overall,
                    result.new_prefixes64,
                )
            )
        assert counts[0] == counts[1]

    def test_campaign_workers_bit_identical(self):
        network = build_network("R1")
        train = network.sample(400, seed=2)
        responder = SimulatedResponder(
            network.population(2),
            ping_rate=network.ping_rate,
            rdns_rate=network.rdns_rate,
            seed=2,
        )
        outcomes = []
        for workers in (1, 4):
            result = run_campaign(
                train,
                responder,
                probe_budget=9000,
                round_size=3000,
                adaptive=True,
                seed=2,
                workers=workers,
            )
            outcomes.append(
                (
                    len(result.rounds),
                    tuple(result.discovery_curve()),
                    tuple(r.new_prefixes64 for r in result.rounds),
                    tuple(result.discovered),
                    tuple(sorted(result.discovered_prefixes64)),
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_oracle_masks_match_serial_masks(self):
        network = build_network("S1")
        population = network.population(4)
        responder = SimulatedResponder(
            population,
            ping_rate=network.ping_rate,
            rdns_rate=network.rdns_rate,
            seed=4,
        )
        candidates = population.sample(
            min(20_000, len(population)), np.random.default_rng(0)
        )
        member, ping, rdns = responder.oracle_masks(candidates, workers=4)
        assert np.array_equal(member, responder.member_mask(candidates))
        assert np.array_equal(ping, responder.ping_mask(candidates))
        assert np.array_equal(rdns, responder.rdns_mask(candidates))
