"""The ``scan`` workload: the paper's §5.5 scanning job (Table 4).

``scan_experiment(net, train_size=1000, n_candidates=1M, seed=…)`` on
S1, R1 and S3, called exactly as ``repro scan`` calls it.  S1 is
dominated by population synthesis, R1 runs multi-round generation with
real hits, and S3 saturates its model's support, so dedup, sampling and
the responder build dominate there.

Every scan gets a seed of its own: a (network, seed) pair is never
reused within a process, so a per-process population cache could not
show a gain that ``repro scan`` users never get.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from repro.core.model import AddressModel
from repro.datasets.networks import build_network, build_r1, build_r5, build_s1, build_s3
from repro.ipv6.sets import split_train_test
from repro.scan.evaluate import scan_experiment
from repro.scan.responder import SimulatedResponder
from repro.serve.lifecycle import SessionSpec

from common import Checks, PassResult, Trace, derive_seed, distinct_rows, rows_digest
from layers import staged_fit, traced_generate

NETWORKS = ("S1", "R1", "S3")
TRAIN_SIZE = 1000
SETUP_REPEATS = 3

SCALES = {
    # Paper scale: 1M candidates per network, default populations.
    "full": {"candidates": 1_000_000, "population": None},
    # Self-test scale: same code paths, tiny populations.
    "smoke": {"candidates": 20_000, "population": 4_000},
}

_BUILDERS = {"S1": build_s1, "R1": build_r1, "S3": build_s3}


def setup(seed: int, scale: str, trace: Trace):
    """Build the networks and warm the scan path on a small one."""
    size = SCALES[scale]["population"]
    networks = [
        build_network(name) if size is None else _BUILDERS[name](size)
        for name in NETWORKS
    ]
    scan_experiment(build_r5(), train_size=500, n_candidates=20_000,
                    seed=derive_seed(seed, 99))
    return networks


@contextmanager
def _capture_generation(captured: list):
    """Record each ``generate_set`` call's prior session rows and output.

    Only a reference and a copy of the session's prior rows are taken,
    so the untraced scan stays the call users make.  The candidates are
    then checked outside the timed region.
    """
    original = AddressModel.generate_set

    def generate_set(self, n, rng, *args, **kwargs):
        state = kwargs.get("state")
        prior = (np.array(state.table.stored_words(), copy=True)
                 if state is not None else None)
        out = original(self, n, rng, *args, **kwargs)
        captured.append((prior, out))
        return out

    AddressModel.generate_set = generate_set
    try:
        yield
    finally:
        AddressModel.generate_set = original


def _traced_scan(network, n_candidates: int, seed: int, trace: Trace) -> dict:
    """``scan_experiment`` rebuilt from its public steps, one span each."""
    with trace.span("datasets.population"):
        population = network.population(seed)
    trace.count("datasets.rows", len(population))
    with trace.span("oracle.build"):
        responder = SimulatedResponder(
            population,
            ping_rate=network.ping_rate,
            rdns_rate=network.rdns_rate,
            seed=seed,
        )
    rng = np.random.default_rng(seed + 17)
    dataset_size = max(TRAIN_SIZE * 2, len(population) // 2)
    dataset = population.sample(min(dataset_size, len(population)), rng)
    train, test = split_train_test(dataset, TRAIN_SIZE, rng)
    analysis = staged_fit(train, trace)
    session = SessionSpec(
        exclude=train, capacity=n_candidates + len(train)
    ).open(analysis.model)
    try:
        candidates = traced_generate(analysis.model, n_candidates, rng, session, trace)
    finally:
        session.close()
    packed = candidates.packed_rows()
    with trace.span("sets.match"):
        test_mask = test.match_words(packed) >= 0
    with trace.span("oracle.score"):
        _, ping_mask, rdns_mask = responder.oracle_masks(candidates)
    overall_mask = test_mask | ping_mask | rdns_mask
    overall = candidates.take(np.flatnonzero(overall_mask))
    new_64s = np.setdiff1d(overall.prefixes64(), train.prefixes64(),
                           assume_unique=True)
    return {
        "n_candidates": len(candidates),
        "found_test_set": int(test_mask.sum()),
        "found_ping": int(ping_mask.sum()),
        "found_rdns": int(rdns_mask.sum()),
        "found_overall": len(overall),
        "new_prefixes64": len(new_64s),
        "_train": train.packed_rows(),
        "_candidates": packed,
    }


def run(networks, seed: int, seconds: float, scale: str, trace, checks: Checks,
        repeats=None) -> PassResult:
    """Whole passes over S1, R1 and S3 until ``seconds`` have elapsed
    (or exactly ``repeats`` passes)."""
    n_candidates = SCALES[scale]["candidates"]
    walls, rows = [], []
    scan_walls = {}
    outputs = {}
    attempted = 0
    elapsed = 0.0
    pass_index = 0
    while (pass_index < repeats) if repeats is not None else (
            pass_index == 0 or elapsed < seconds):
        for index, network in enumerate(networks):
            scan_seed = derive_seed(seed, pass_index, index)
            captured = []
            start = time.perf_counter()
            if trace is None:
                with _capture_generation(captured):
                    result = scan_experiment(
                        network, train_size=TRAIN_SIZE,
                        n_candidates=n_candidates, seed=scan_seed,
                    )
                counts = {
                    "n_candidates": result.n_candidates,
                    "found_test_set": result.found_test_set,
                    "found_ping": result.found_ping,
                    "found_rdns": result.found_rdns,
                    "found_overall": result.found_overall,
                    "new_prefixes64": result.new_prefixes64,
                }
            else:
                counts = _traced_scan(network, n_candidates, scan_seed, trace)
            wall = time.perf_counter() - start
            elapsed += wall
            walls.append(wall)
            attempted += 1
            if trace is None:
                ok = checks.check(f"scan.{network.name}.captured", len(captured) == 1,
                                  f"{len(captured)} generate_set calls")
                train_words = captured[0][0] if ok else np.empty((0, 2), np.uint64)
                cand_words = (captured[0][1].packed_rows() if ok
                              else np.empty((0, 2), np.uint64))
            else:
                train_words = counts.pop("_train")
                cand_words = counts.pop("_candidates")
            key = f"{network.name}.{pass_index}"
            scan_walls[key] = wall
            _check_scan(checks, key, counts, train_words, cand_words)
            counts["digest"] = rows_digest(cand_words)
            outputs[key] = counts
            rows.append(counts)
        pass_index += 1
    total = sum(r["n_candidates"] for r in rows)
    hits = sum(r["found_overall"] for r in rows)
    wall_total = sum(walls)
    report = {
        "scan.cand_per_s": total / wall_total,
        "scan.success_rate": hits / total,
        "scan.new_64s": sum(r["new_prefixes64"] for r in rows),
        "repeats": pass_index,
        "scan.walls_s": scan_walls,
    }
    # The three calls differ by network, so the typical wait is their
    # mean (a median of three would be whichever network is in the
    # middle), and the tail is the slowest call.
    e2e = {
        "throughput": report["scan.cand_per_s"],
        "latency_ms": wall_total / len(walls) * 1e3,
        "tail_latency_ms": max(walls) * 1e3,
    }
    result = PassResult(wall_total, e2e, report, outputs, attempted)
    if trace is not None:
        result.layers = {"oracle.hits": hits, "oracle.hit_ratio": hits / total,
                         "oracle.new_64s": report["scan.new_64s"]}
    return result


def _check_scan(checks: Checks, key: str, counts: dict, train_words, cand_words) -> None:
    n = counts["n_candidates"]
    checks.check(f"scan.{key}.count", len(cand_words) == n and n > 0,
                 f"{len(cand_words)} rows, result says {n}")
    checks.check(f"scan.{key}.distinct", distinct_rows(cand_words) == len(cand_words),
                 "candidates repeat")
    both = np.vstack([train_words, cand_words]) if len(train_words) else cand_words
    checks.check(
        f"scan.{key}.disjoint",
        distinct_rows(both) == distinct_rows(train_words) + len(cand_words),
        "candidates overlap the training set",
    )
    overall = counts["found_overall"]
    parts = (counts["found_test_set"], counts["found_ping"], counts["found_rdns"])
    checks.check(f"scan.{key}.hits", max(parts) <= overall <= min(sum(parts), n),
                 f"overall {overall} vs parts {parts}")
