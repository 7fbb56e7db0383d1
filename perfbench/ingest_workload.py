"""The ``ingest`` workload: drifting feeds refit online.

Drifting feeds of S1 (its scheme over 30K hosts) and JP (10K-row
snapshots, 30% churn, a renumber event at the fourth snapshot) are
replayed in four batches per snapshot
through an ``IngestPipeline`` wired to a ``ModelRegistry`` and a
monitor session.  After each snapshot the monitor generates a small
batch from the adopted model, and the pipeline is checkpointed,
reloaded and restored, then continues.  Fit and fold dominate here,
while sampling and dedup stay small.

The refit threshold is fixed at 0.002, below every drift score these
feeds produce (0.003 to 0.3), so a refit follows every batch: 20 per
feed per replay, 0.1 s at 11K rows rising to 0.4 s at 60K on S1 and
0.06-0.15 s on JP.  A threshold inside that range (0.008 gave 16-20
refits on S1 and 12-19 on JP) makes the work, and so rows/s, depend on
the seed far more than on the code.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import EntropyIP, IngestConfig, IngestPipeline, ModelRegistry, SessionManager
from repro.checkpoint import load_checkpoint, save_checkpoint
from repro.datasets.networks import build_japanese_telco, build_network, build_s1
from repro.datasets.temporal import SnapshotSeries, TemporalEvent
from repro.serve.registry import model_digest

from common import Checks, PassResult, Trace, derive_seed, percentile, rows_digest
from layers import staged_fit, traced_generate

FEEDS = ("S1", "JP")
CONFIG = IngestConfig(threshold=0.002, min_refit_rows=1)
BATCHES_PER_SNAPSHOT = 4
SETUP_REPEATS = 1

SCALES = {
    # S1 at half its default population: its synthesis is most of the
    # set-up, while the refits depend on the feed's 10K-60K rows.
    "full": {"snapshots": 6, "sample_size": 10_000, "monitor_rows": 1000,
             "population": {"S1": 30_000, "JP": None}},
    "smoke": {"snapshots": 3, "sample_size": 1000, "monitor_rows": 200,
              "population": {"S1": 3000, "JP": 3000}},
}


def _network(name: str, scale: str):
    size = SCALES[scale]["population"][name]
    if size is None:
        return build_network(name)
    return build_s1(size) if name == "S1" else build_japanese_telco(size)


def setup(seed: int, scale: str, trace: Trace):
    """Build each feed's snapshot series and fit its seed model."""
    cfg = SCALES[scale]
    feeds = []
    for index, name in enumerate(FEEDS):
        network = _network(name, scale)
        with trace.span("datasets.population"):
            snapshots = SnapshotSeries(
                network, n_snapshots=cfg["snapshots"], sample_size=cfg["sample_size"],
                churn=0.3, events=(TemporalEvent(3 if cfg["snapshots"] > 3 else 1,
                                                 "renumber"),),
                seed=derive_seed(seed, 21, index),
            ).build()
        trace.count("datasets.rows", sum(len(s) for s in snapshots))
        batches = []
        for snapshot in snapshots[1:]:
            bounds = np.linspace(0, len(snapshot), BATCHES_PER_SNAPSHOT + 1, dtype=int)
            batches.append([snapshot.take(range(lo, hi))
                            for lo, hi in zip(bounds[:-1], bounds[1:])])
        feeds.append({
            "name": name,
            "analysis": EntropyIP.fit(snapshots[0]),
            "batches": batches,
            "monitor_seed": derive_seed(seed, 22, index),
        })
    return {"feeds": feeds, "cfg": cfg, "seed": seed}


def _replay(feed: dict, cfg: dict, checkpoint_path, trace):
    """One pass of one feed; returns per-snapshot latencies and outputs.

    ``checkpoint_path=None`` is the uninterrupted feed the checks
    compare against.
    """
    registry = ModelRegistry()
    sessions = SessionManager(registry)
    name = feed["name"]
    pipeline = IngestPipeline(name, feed["analysis"], config=CONFIG,
                              registry=registry, sessions=sessions)
    monitor = sessions.open(name, "monitor", seed=feed["monitor_seed"],
                            exclude_training=True)
    latencies, monitor_digests, refits = [], [], []
    rows = 0
    for snapshot in feed["batches"]:
        start = time.perf_counter()
        for batch in snapshot:
            if trace is None:
                report = pipeline.ingest(batch)
            else:
                call_start = time.perf_counter()
                report = pipeline.ingest(batch)
                call_end = time.perf_counter()
                span = trace.add("ingest.call", call_start, call_end)
                if report.refit:
                    trace.add("ingest.refit", call_end - report.refit_seconds,
                              call_end, span)
                    # Cumulative rows of this refit, refit from scratch
                    # (layer by layer) after the timed region.
                    refits.append((pipeline.analysis.address_set, report.digest))
                trace.count("ingest.batches")
            rows += report.rows
        if trace is None:
            served = monitor.generate(cfg["monitor_rows"])
        else:
            served = traced_generate(monitor.entry.analysis.model, cfg["monitor_rows"],
                                     monitor.rng, monitor.session, trace)
        monitor_digests.append(rows_digest(served.packed_rows()))
        if checkpoint_path is not None:
            if trace is None:
                save_checkpoint(checkpoint_path, "ingest", pipeline.snapshot())
                payload = load_checkpoint(checkpoint_path, kind="ingest")
                pipeline = IngestPipeline.restore(payload, config=CONFIG,
                                                  registry=registry, sessions=sessions)
            else:
                with trace.span("checkpoint.save"):
                    save_checkpoint(checkpoint_path, "ingest", pipeline.snapshot())
                trace.count("checkpoint.bytes", os.path.getsize(checkpoint_path))
                trace.count("checkpoint.count")
                with trace.span("checkpoint.load"):
                    payload = load_checkpoint(checkpoint_path, kind="ingest")
                    pipeline = IngestPipeline.restore(payload, config=CONFIG,
                                                      registry=registry, sessions=sessions)
        latencies.append(time.perf_counter() - start)
    outputs = {"digest": pipeline.digest, "version": pipeline.version,
               "refits": pipeline.refits, "monitor": monitor_digests}
    final = pipeline.analysis
    sessions.close_all()
    return latencies, rows, outputs, final, refits


def run(state, seed: int, seconds: float, scale: str, trace, checks: Checks,
        repeats=None) -> PassResult:
    """Whole replays of both feeds until ``seconds`` have elapsed (or
    exactly ``repeats`` replays)."""
    cfg = state["cfg"]
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    latencies, outputs = [], {}
    rows = 0
    wall = 0.0
    refits, finals = [], {}
    replay = 0
    while (replay < repeats) if repeats is not None else (replay == 0 or wall < seconds):
        for feed in state["feeds"]:
            path = os.path.join(out_dir, f"ingest-{feed['name']}-{os.getpid()}.ckpt")
            start = time.perf_counter()
            lat, feed_rows, feed_out, final, feed_refits = _replay(feed, cfg, path, trace)
            wall += time.perf_counter() - start
            os.unlink(path)
            latencies += lat
            rows += feed_rows
            refits += feed_refits
            key = feed["name"]
            if key in outputs:
                checks.check(f"ingest.{key}.replay_{replay}", outputs[key] == feed_out,
                             "a replay of the same feed diverged")
            outputs[key] = feed_out
            finals[key] = final
        replay += 1
    for feed in state["feeds"]:
        _check_feed(checks, feed, cfg, outputs[feed["name"]], finals[feed["name"]])
    report = {"ingest.rows_per_s": rows / wall, "repeats": replay}
    # Twenty snapshots a run: too few for a p99, so the tail is the
    # slowest snapshot.
    e2e = {"throughput": rows / wall,
           "latency_ms": percentile(latencies, 50) * 1e3,
           "tail_latency_ms": max(latencies) * 1e3}
    attempted = replay * sum(len(f["batches"]) * (BATCHES_PER_SNAPSHOT + 2)
                             for f in state["feeds"])
    result = PassResult(wall, e2e, report, outputs, attempted)
    if trace is not None:
        result.timed_spans = len(trace.spans)
        mismatched = 0
        for rows_at_refit, digest in refits:
            mismatched += model_digest(staged_fit(rows_at_refit, trace)) != digest
        checks.check("ingest.staged_refits", mismatched == 0,
                     f"{mismatched} of {len(refits)} layer-by-layer refits differ")
    return result


def _check_feed(checks: Checks, feed: dict, cfg: dict, measured: dict, final) -> None:
    """The checkpointed feed ends where the uninterrupted feed and a
    from-scratch fit of the final cumulative rows do."""
    name = feed["name"]
    _, _, straight, _, _ = _replay(feed, cfg, None, None)
    checks.check(f"ingest.{name}.uninterrupted", straight == measured,
                 f"checkpointed {measured['digest'][:12]} v{measured['version']}, "
                 f"uninterrupted {straight['digest'][:12]} v{straight['version']}")
    scratch = model_digest(EntropyIP.fit(final.address_set))
    checks.check(f"ingest.{name}.from_scratch", scratch == measured["digest"],
                 f"from-scratch fit {scratch[:12]} != {measured['digest'][:12]}")
