"""Command-line interface: ``entropy-ip`` / ``python -m repro``.

Subcommands:

- ``analyze``  — read addresses from a file (or stdin), print the
  entropy/ACR plot, segmentation, mining table and BN structure;
- ``generate`` — fit on a file of addresses and emit candidate targets;
- ``dataset``  — emit one of the built-in synthetic datasets;
- ``scan``     — run the §5.5 scanning experiment on a built-in network;
- ``mi``       — pairwise nybble mutual-information heat map (§6);
- ``compare``  — temporal comparison of two address files (§6);
- ``report``   — full composed analysis report (the §1 "web page");
- ``serve``    — run a :class:`~repro.serve.service.HitlistService`
  over a seed file: a line-protocol loop on stdin, or a synthetic
  concurrent load (``--requests``) that prints requests/s + p50/p99;
- ``ingest``   — replay a time-sliced feed from
  :mod:`repro.datasets.temporal` through the streaming-ingest pipeline
  and report drift scores, refits and sustained ingest rate.

``generate``, ``report``, ``serve`` and ``ingest`` all route through
the serving runtime (:mod:`repro.serve`) rather than hand-rolling
model/session construction — the same registry/lifecycle path
concurrent callers use, with output bit-identical to the direct
library calls.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.core.pipeline import EntropyIP
from repro.datasets.networks import build_network
from repro.ipv6.address import addresses_from_text
from repro.scan.evaluate import scan_experiment
from repro.viz.figures import (
    render_acr_entropy_plot,
    render_bn_graph,
    render_mining_table,
)


def _read_addresses(path: str) -> List[str]:
    stream = sys.stdin if path == "-" else open(path, "r", encoding="utf-8")
    try:
        return [a.hex32() for a in addresses_from_text(stream)]
    finally:
        if stream is not sys.stdin:
            stream.close()


def _cmd_analyze(args: argparse.Namespace) -> int:
    addresses = _read_addresses(args.file)
    analysis = EntropyIP.fit(addresses, width=args.width)
    print(render_acr_entropy_plot(analysis, title=f"Entropy/IP: {args.file}"))
    print()
    print(render_mining_table(analysis))
    print()
    print(render_bn_graph(analysis))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.serve import HitlistService

    addresses = _read_addresses(args.file)
    # One-shot use of the same runtime path the long-running service
    # serves: fit → registry, session → lifecycle, draw → facade.
    # Bit-identical to the direct EntropyIP.fit + generate_addresses
    # call for the same (seed, workers).
    with HitlistService() as service:
        service.fit(args.file, addresses, width=args.width)
        candidates = service.generate(
            args.file,
            "cli",
            args.count,
            seed=args.seed,
            workers=args.workers or None,
        )
    for address in candidates.addresses():
        print(address.compressed())
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    network = build_network(args.name)
    sample = network.sample(args.count, seed=args.seed)
    for address in sample.addresses():
        print(address.compressed())
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    network = build_network(args.name)
    result = scan_experiment(
        network,
        train_size=args.train,
        n_candidates=args.count,
        seed=args.seed,
        workers=args.workers or None,
    )
    print(result.row())
    return 0


def _cmd_mi(args: argparse.Namespace) -> int:
    from repro.ipv6.sets import AddressSet
    from repro.stats.mutual_information import top_dependent_pairs
    from repro.viz.figures import render_mi_heatmap

    addresses = _read_addresses(args.file)
    address_set = AddressSet.from_strings(addresses, width=args.width)
    print(render_mi_heatmap(address_set))
    pairs = top_dependent_pairs(address_set, limit=10)
    if pairs:
        print("\nstrongest non-adjacent dependencies (1-indexed nybbles):")
        for i, j, nmi in pairs:
            print(f"  nybble {i:>2} <-> nybble {j:>2}   NMI={nmi:.2f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.core.temporal import compare_snapshots
    from repro.viz.figures import render_snapshot_delta

    before = EntropyIP.fit(_read_addresses(args.before), width=args.width)
    after = EntropyIP.fit(_read_addresses(args.after), width=args.width)
    delta = compare_snapshots(before, after)
    print(render_snapshot_delta(delta))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.serve import HitlistService

    with HitlistService() as service:
        service.fit(args.file, _read_addresses(args.file), width=args.width)
        print(
            service.report(
                args.file,
                title=f"Entropy/IP report: {args.file}",
                n_candidates=args.count,
                seed=args.seed,
            )
        )
    return 0


def _save_serve_checkpoint(service, directory: str) -> str:
    """Snapshot every live session into ``directory`` (one file)."""
    import os

    from repro.checkpoint import save_checkpoint

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "sessions.ckpt")
    save_checkpoint(
        path, "sessions", {"sessions": service.sessions.snapshot_all()}
    )
    return path


def _restore_serve_checkpoint(service, directory: str) -> int:
    """Reinstall checkpointed client streams, if a checkpoint exists.

    Returns how many streams were restored.  A stream whose model is
    missing or has a different digest is skipped with a warning — the
    rest of the checkpoint still restores (a partial resume beats
    refusing to start).
    """
    import os

    from repro.checkpoint import load_checkpoint
    from repro.errors import CheckpointError, UnknownModelError

    path = os.path.join(directory, "sessions.ckpt")
    if not os.path.exists(path):
        return 0
    restored = 0
    for payload in load_checkpoint(path, kind="sessions")["sessions"]:
        try:
            service.sessions.restore_session(payload)
            restored += 1
        except (CheckpointError, UnknownModelError) as exc:
            print(f"error: skipping checkpointed stream: {exc}",
                  file=sys.stderr)
    return restored


def _serve_stdin(
    service, name: str, width: int, stream,
    checkpoint_dir: Optional[str] = None,
) -> int:
    """The ``serve`` line protocol: one request per line.

    ``gen <client> <n>``        — next n candidates of the client's stream
    ``member <client> <addr>…`` — membership-check rows against the stream
    ``observe <client> <addr>…`` — fold client-observed rows into it
    ``rollover <client>``       — restart the client's stream
    ``ingest <addr>…``          — feed arriving rows into the model's
    streaming-ingest pipeline (drift may refit it; live streams adopt
    the new version without resetting)
    ``stats``                   — service counters + latency percentiles
    ``health``                  — queue depth, shed/timeout/retry and
    exec degradation counters, registered model versions (JSON)
    ``checkpoint``              — snapshot live streams to
    ``--checkpoint-dir`` now (also done automatically on exit)
    ``quit``                    — exit

    A malformed or unknown request — or a request that fails in any
    unforeseen way — yields an ``error:`` line on stderr and the loop
    keeps reading; only ``quit``/EOF (or a real shutdown signal) ends
    it.
    """
    import json

    from repro.errors import ReproError
    from repro.ipv6.sets import AddressSet

    def rows_from(tokens: List[str]) -> AddressSet:
        return AddressSet.from_strings(tokens, width=width)

    for raw in stream:
        tokens = raw.split()
        if not tokens:
            continue
        command, rest = tokens[0].lower(), tokens[1:]
        try:
            if command == "quit":
                break
            elif command == "gen" and len(rest) == 2:
                batch = service.generate(name, rest[0], int(rest[1]))
                for address in batch.addresses():
                    print(address.compressed())
            elif command == "member" and len(rest) >= 2:
                mask = service.membership(name, rest[0], rows_from(rest[1:]))
                for token, seen in zip(rest[1:], mask):
                    print(f"{token} {'seen' if seen else 'new'}")
            elif command == "observe" and len(rest) >= 2:
                session = service.sessions.get(name, rest[0])
                print(f"observed {session.observe(rows_from(rest[1:]))} new")
            elif command == "rollover" and len(rest) == 1:
                service.rollover_session(name, rest[0])
                print(f"rolled over {rest[0]}")
            elif command == "ingest" and len(rest) >= 1:
                report = service.ingest(name, rows_from(rest))
                line = (
                    f"ingested {report.rows} rows, "
                    f"drift {report.signal.score:.3f}"
                )
                if report.refit:
                    line += (
                        f", refit in {report.refit_seconds:.3f}s -> "
                        f"version {report.version}"
                    )
                print(line)
            elif command == "stats" and not rest:
                print(json.dumps(service.stats(), sort_keys=True))
            elif command == "health" and not rest:
                print(json.dumps(service.health(), sort_keys=True))
            elif command == "checkpoint" and not rest:
                if checkpoint_dir is None:
                    print("error: serve was started without "
                          "--checkpoint-dir", file=sys.stderr)
                else:
                    print(
                        f"checkpointed to "
                        f"{_save_serve_checkpoint(service, checkpoint_dir)}"
                    )
            else:
                print(f"error: unknown request {raw.strip()!r}", file=sys.stderr)
        except (ReproError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
        except Exception as exc:  # never let one request kill the loop
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 0


def _serve_synthetic(service, name: str, args: argparse.Namespace) -> int:
    """The ``serve --requests N`` mode: measured concurrent load.

    ``--clients`` threads issue ``--requests`` generate calls of
    ``--count`` rows round-robin through the facade; prints the served
    row total and the service's own requests/s + p50/p99 accounting.
    """
    import threading
    import time

    counts = [
        args.requests // args.clients
        + (1 if i < args.requests % args.clients else 0)
        for i in range(args.clients)
    ]

    def drive(index: int, requests: int) -> None:
        for _ in range(requests):
            service.generate(
                name,
                f"client-{index}",
                args.count,
                seed=args.seed + index,
                workers=args.workers or None,
            )

    threads = [
        threading.Thread(target=drive, args=(index, requests))
        for index, requests in enumerate(counts)
        if requests
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    stats = service.stats()
    generate = stats["kinds"].get("generate", {})
    rows = args.requests * args.count
    print(
        f"served {args.requests} requests x {args.count} rows "
        f"from {args.clients} clients in {elapsed:.3f}s"
    )
    print(
        f"requests/s={stats['requests_per_second']:.2f}  "
        f"rows/s={rows / elapsed:,.0f}  "
        f"p50={generate.get('p50_ms', 0.0):.3f}ms  "
        f"p99={generate.get('p99_ms', 0.0):.3f}ms"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import HitlistService

    addresses = _read_addresses(args.file)
    name = args.name or args.file
    with HitlistService(
        workers=args.service_workers, max_pending=args.max_pending
    ) as service:
        service.fit(name, addresses, width=args.width)
        if args.checkpoint_dir:
            restored = _restore_serve_checkpoint(service, args.checkpoint_dir)
            if restored:
                print(f"restored {restored} checkpointed stream(s)",
                      file=sys.stderr)
        try:
            if args.requests:
                return _serve_synthetic(service, name, args)
            return _serve_stdin(
                service, name, args.width, sys.stdin,
                checkpoint_dir=args.checkpoint_dir,
            )
        finally:
            # A final sweep so a clean exit (quit/EOF) always leaves a
            # resumable checkpoint behind.
            if args.checkpoint_dir:
                _save_serve_checkpoint(service, args.checkpoint_dir)


def _cmd_ingest(args: argparse.Namespace) -> int:
    import time

    from repro.datasets.temporal import SnapshotSeries, TemporalEvent
    from repro.ingest import IngestConfig
    from repro.serve import HitlistService

    network = build_network(args.name)
    events = ()
    if args.renumber_at is not None:
        events = (TemporalEvent(at_index=args.renumber_at, kind="renumber"),)
    snapshots = SnapshotSeries(
        network,
        n_snapshots=args.snapshots,
        sample_size=args.sample_size,
        churn=args.churn,
        events=events,
        seed=args.seed,
    ).build()
    config = IngestConfig(
        threshold=args.threshold, min_refit_rows=args.min_refit_rows
    )
    with HitlistService() as service:
        service.fit(args.name, snapshots[0])
        if args.resume:
            from repro.checkpoint import load_checkpoint

            pipeline = service.restore_ingest(
                load_checkpoint(args.resume, kind="ingest"), config=config
            )
            print(
                f"resumed from {args.resume}: {pipeline.batches} batches "
                f"({pipeline.rows_ingested} rows) already ingested, "
                f"model version {pipeline.version}"
            )
        else:
            pipeline = service.open_ingest(args.name, config=config)
        batches_done = pipeline.batches
        # A live monitor stream, to demonstrate that drift-triggered
        # rolls never reset a client: rows served before the feed stay
        # retired after it.
        service.open_session(
            args.name,
            "monitor",
            seed=args.seed,
            capacity=args.capacity,
            workers=args.workers or None,
        )
        before = service.generate(args.name, "monitor", args.count)
        per_snapshot = max(1, args.batches)
        rows = refits = 0
        refit_seconds = 0.0
        batch_number = 0
        started = time.perf_counter()
        for index, snapshot in enumerate(snapshots[1:], start=1):
            bounds = np.linspace(
                0, len(snapshot), per_snapshot + 1, dtype=int
            )
            for batch_index, (low, high) in enumerate(
                zip(bounds[:-1], bounds[1:]), start=1
            ):
                batch_number += 1
                if batch_number <= batches_done:
                    # Already folded in before the checkpointed process
                    # died; the feed is deterministic, so skipping it
                    # here continues exactly where that run stopped.
                    continue
                report = service.ingest(
                    args.name, snapshot.take(range(low, high))
                )
                rows += report.rows
                line = (
                    f"snapshot {index} batch {batch_index}/{per_snapshot}: "
                    f"{report.rows} rows, drift {report.signal.score:.3f}"
                )
                if report.refit:
                    refits += 1
                    refit_seconds += report.refit_seconds
                    line += (
                        f", refit in {report.refit_seconds:.3f}s -> "
                        f"version {report.version}"
                    )
                print(line)
                if args.checkpoint:
                    from repro.checkpoint import save_checkpoint

                    save_checkpoint(
                        args.checkpoint, "ingest", pipeline.snapshot()
                    )
        elapsed = time.perf_counter() - started
        after = service.generate(args.name, "monitor", args.count)
        entry = service.registry.get(args.name)
        repeats = int(before.contains_rows(after).sum())
        print(
            f"ingested {rows} rows in {elapsed:.3f}s "
            f"({rows / elapsed:,.0f} rows/s), {refits} refits "
            f"({refit_seconds:.3f}s), model version {entry.version} "
            f"({entry.digest[:12]}…)"
        )
        print(
            f"monitor stream: {len(before)} + {len(after)} rows served "
            f"across the roll, {repeats} repeats"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="entropy-ip",
        description="Entropy/IP: uncover structure in IPv6 address sets "
        "(IMC 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze an address file")
    analyze.add_argument("file", help="address file, '-' for stdin")
    analyze.add_argument("--width", type=int, default=32,
                         help="nybbles to analyze (16 = /64 prefix mode)")
    analyze.set_defaults(func=_cmd_analyze)

    generate = sub.add_parser("generate", help="generate candidate targets")
    generate.add_argument("file", help="training address file, '-' for stdin")
    generate.add_argument("--count", type=int, default=1000)
    generate.add_argument("--width", type=int, default=32)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--workers", type=int, default=0,
                          help="shard generation across N worker threads "
                          "(0 = serial; output depends only on the seed)")
    generate.set_defaults(func=_cmd_generate)

    dataset = sub.add_parser("dataset", help="emit a built-in synthetic set")
    dataset.add_argument("name", help="S1-S5, R1-R5, C1-C5 or JP")
    dataset.add_argument("--count", type=int, default=1000)
    dataset.add_argument("--seed", type=int, default=0)
    dataset.set_defaults(func=_cmd_dataset)

    scan = sub.add_parser("scan", help="run the scanning experiment")
    scan.add_argument("name", help="S1-S5, R1-R5 or JP")
    scan.add_argument("--train", type=int, default=1000)
    scan.add_argument("--count", type=int, default=10_000)
    scan.add_argument("--seed", type=int, default=0)
    scan.add_argument("--workers", type=int, default=0,
                      help="shard generation and oracle scoring across N "
                      "worker threads (0 = serial)")
    scan.set_defaults(func=_cmd_scan)

    mi = sub.add_parser("mi", help="mutual-information heat map")
    mi.add_argument("file", help="address file, '-' for stdin")
    mi.add_argument("--width", type=int, default=32)
    mi.set_defaults(func=_cmd_mi)

    compare = sub.add_parser("compare", help="compare two snapshots")
    compare.add_argument("before", help="earlier address file")
    compare.add_argument("after", help="later address file")
    compare.add_argument("--width", type=int, default=32)
    compare.set_defaults(func=_cmd_compare)

    report = sub.add_parser("report", help="full composed analysis report")
    report.add_argument("file", help="address file, '-' for stdin")
    report.add_argument("--width", type=int, default=32)
    report.add_argument("--count", type=int, default=10,
                        help="candidate targets to append")
    report.add_argument("--seed", type=int, default=0)
    report.set_defaults(func=_cmd_report)

    serve = sub.add_parser(
        "serve",
        help="run a HitlistService over a seed file (line protocol on "
        "stdin, or a measured synthetic load with --requests)",
    )
    serve.add_argument("file", help="training address file, '-' for stdin")
    serve.add_argument("--name", default=None,
                       help="registry name for the model (default: the file)")
    serve.add_argument("--width", type=int, default=32)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--count", type=int, default=1000,
                       help="rows per generate request (synthetic mode)")
    serve.add_argument("--requests", type=int, default=0,
                       help="run a synthetic load of N generate requests "
                       "and print requests/s + p50/p99 (0 = line protocol)")
    serve.add_argument("--clients", type=int, default=4,
                       help="concurrent client threads in synthetic mode")
    serve.add_argument("--workers", type=int, default=0,
                       help="shard each draw across N worker threads")
    serve.add_argument("--service-workers", type=int, default=2,
                       help="service worker threads draining the queue")
    serve.add_argument("--max-pending", type=int, default=64,
                       help="bounded work queue depth (backpressure knob)")
    serve.add_argument("--checkpoint-dir", default=None,
                       help="restore client streams checkpointed here on "
                       "startup and snapshot them on exit (plus the "
                       "'checkpoint' protocol verb on demand); resumed "
                       "streams continue bit-identically")
    serve.set_defaults(func=_cmd_serve)

    ingest = sub.add_parser(
        "ingest",
        help="replay a time-sliced feed through the streaming-ingest "
        "pipeline (drift-triggered refits roll into live streams)",
    )
    ingest.add_argument("name", help="S1-S5, R1-R5, C1-C5 or JP")
    ingest.add_argument("--snapshots", type=int, default=4,
                        help="snapshots in the simulated feed (the first "
                        "trains the model)")
    ingest.add_argument("--sample-size", type=int, default=800,
                        help="rows per snapshot")
    ingest.add_argument("--batches", type=int, default=4,
                        help="ingest batches per snapshot")
    ingest.add_argument("--churn", type=float, default=0.3,
                        help="fraction of each snapshot resampled fresh")
    ingest.add_argument("--renumber-at", type=int, default=None,
                        help="inject a renumbering event at this snapshot "
                        "index (default: none)")
    ingest.add_argument("--threshold", type=float, default=0.15,
                        help="drift score that triggers a refit")
    ingest.add_argument("--min-refit-rows", type=int, default=1,
                        help="pending rows required before a refit can fire")
    ingest.add_argument("--count", type=int, default=200,
                        help="rows drawn on the monitor stream before and "
                        "after the feed")
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument("--workers", type=int, default=0,
                        help="shard monitor draws across N worker threads")
    ingest.add_argument("--capacity", type=int, default=0,
                        help="capacity cap of the monitor stream (0 = "
                        "uncapped)")
    ingest.add_argument("--checkpoint", default=None,
                        help="write the pipeline's resumable state here "
                        "after every batch (atomic; a killed run resumes "
                        "with --resume)")
    ingest.add_argument("--resume", default=None,
                        help="resume a killed run from this checkpoint "
                        "file: already-ingested batches of the "
                        "deterministic feed are skipped, the rest "
                        "continue bit-identically")
    ingest.set_defaults(func=_cmd_ingest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
