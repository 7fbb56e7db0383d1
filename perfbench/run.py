"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scan --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced in a child process, then traced
here on the same inputs, checks that both produced the same outputs,
and prints the per-layer metrics together with the tracing overhead and
the share of wall time the layers' self times cover.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record (host, checks, named
figures, spans) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = {"scan": "scan_workload", "serve": "serve_workload",
             "ingest": "ingest_workload"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the self-test")
    parser.add_argument("--record", help="where to write the full record "
                        "(default perfbench/out/<workload>-seed<seed>-trace<t>.json)")
    return parser.parse_args(argv)


def _layer_metrics(trace, result, untraced_wall: float) -> dict:
    """Per-layer metrics from the traced pass's spans and counters."""
    window = trace.window(result.timed_spans_start, result.timed_spans)
    everything = trace.totals()
    totals, selfs = window.totals(), window.self_times()
    counts = trace.counts

    def total(name):
        return totals.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    population_s = everything.get("datasets.population", 0.0)
    checkpoints = counts.get("checkpoint.count", 0)
    replay_s = counts.get("trace.replay_s", 0.0)
    production_wall = result.wall_s - replay_s
    layers = {
        "datasets.population_s": population_s,
        "datasets.rows_per_s": ratio(counts.get("datasets.rows", 0), population_s),
        "fit.entropy_s": everything.get("fit.entropy", 0.0),
        "fit.segment_s": everything.get("fit.segment", 0.0),
        "fit.mine_s": everything.get("fit.mine", 0.0),
        "fit.structure_s": everything.get("fit.structure", 0.0),
        "fit.rows": counts.get("fit.rows", 0),
        "sampling.draw_s": total("sampling.draw"),
        "sampling.rows_drawn": counts.get("sampling.rows_drawn", 0),
        "sets.insert_s": total("sets.insert"),
        "sets.rows_inserted": counts.get("sets.rows_inserted", 0),
        "sets.fresh_ratio": ratio(counts.get("sets.rows_fresh", 0),
                                  counts.get("sets.rows_inserted", 0)),
        "sets.unpack_s": total("sets.unpack"),
        "sets.match_s": total("sets.match"),
        "gen.rounds": counts.get("gen.rounds", 0),
        "gen.self_s": selfs.get("gen", 0.0),
        "oracle.build_s": total("oracle.build"),
        "oracle.score_s": total("oracle.score"),
        "ingest.fold_s": selfs.get("ingest.call", 0.0),
        "ingest.refit_s": total("ingest.refit"),
        "ingest.refits": sum(1 for span in window.spans if span[0] == "ingest.refit"),
        "ingest.batches": counts.get("ingest.batches", 0),
        "checkpoint.save_ms": ratio(total("checkpoint.save"), checkpoints) * 1e3,
        "checkpoint.load_ms": ratio(total("checkpoint.load"), checkpoints) * 1e3,
        "checkpoint.bytes": ratio(counts.get("checkpoint.bytes", 0), checkpoints),
        "trace.overhead": production_wall / untraced_wall - 1.0,
        "trace.coverage": ratio(sum(selfs.values()), production_wall),
    }
    layers.update(result.layers)
    return layers


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source under {os.path.join(ROOT, 'src')}: run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    import importlib

    import numpy  # noqa: F401  (timed with the program's own imports)
    import repro  # noqa: F401
    from common import Checks, Trace, host_record, peak_rss_mb, steal_share

    module = importlib.import_module(WORKLOADS[args.workload])
    import_s = time.perf_counter() - _STARTED
    host = {"start": host_record()}
    os.makedirs(OUT, exist_ok=True)
    record_path = args.record or os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    checks = Checks()

    child = None
    if args.trace:
        # The untraced pass runs in a fresh process, so nothing one pass
        # caches can speed up the other.
        child_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-untraced-"
                                       f"{os.getpid()}.json")
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", "0",
                   "--scale", args.scale, "--record", child_path]
        completed = subprocess.run(command, stdout=subprocess.PIPE, timeout=170)
        sys.stderr.write(completed.stdout.decode(errors="replace"))
        if completed.returncode != 0:
            print(f"untraced child exited {completed.returncode}", file=sys.stderr)
            return 1
        with open(child_path) as handle:
            child = json.load(handle)
        os.unlink(child_path)

    setup_times = []
    repeats = 1 if args.trace else module.SETUP_REPEATS
    trace = Trace()
    for rep in range(repeats):
        # Earlier repetitions use seeds of their own, so none of them
        # warms a cache for the set-up that is kept.
        setup_seed = args.seed if rep == repeats - 1 else args.seed + 1_000_003 * (rep + 1)
        start = time.perf_counter()
        state = module.setup(setup_seed, args.scale, trace if args.trace else Trace())
        setup_times.append(time.perf_counter() - start)
        if rep < repeats - 1 and hasattr(module, "close"):
            module.close(state)
    setup_s = import_s + statistics.median(setup_times)

    try:
        timed_start = len(trace.spans)
        result = module.run(state, args.seed, args.seconds, args.scale,
                            trace if args.trace else None, checks,
                            repeats=child["report"].get("repeats") if child else None)
    finally:
        if hasattr(module, "close"):
            module.close(state)
    result.timed_spans_start = timed_start

    outputs = json.loads(json.dumps(result.outputs))
    if child is not None:
        checks.check("trace.identical_outputs", outputs == child["outputs"],
                     "traced and untraced passes produced different outputs")
        checks.check("trace.untraced_correct", child["correct"],
                     "the untraced pass failed its own checks")
        checks.check("trace.replay_agrees", not trace.counts.get("trace.replay_mismatch"),
                     "a generation replay kept a different number of rows")
    failed = checks.failed
    attempted = result.attempted + len(checks.results)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        layers = _layer_metrics(trace, result, child["wall_s"])
        names = [m["name"] for m in spec["per_layer"]]
        values = {name: float(layers.get(name, 0.0)) for name in names}
    else:
        e2e = dict(result.e2e, setup_s=setup_s, peak_rss_mb=peak_rss_mb())
        names = [m["name"] for m in spec["end_to_end"]]
        values = {name: float(e2e[name]) for name in names}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}

    host["end"] = host_record()
    host["steal_share"] = steal_share(host["start"], host["end"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "host": host,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "wall_s": result.wall_s, "setup_s": setup_s, "setup_times": setup_times,
        "import_s": import_s, "report": result.report, "outputs": outputs,
        "checks": checks.results, "metrics": metrics,
    }
    if args.trace:
        record["spans"] = trace.spans
        record["counts"] = trace.counts
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1, default=str)

    for name, value in result.report.items():
        print(f"{name:28s} {value}")
    print(f"checks: {len(checks.results) - checks.failed} passed, {checks.failed} failed")
    print("host " + json.dumps({key: value for key, value in host["end"].items()
                                if key != "cpu_ticks"}
                               | {"steal_share": host["steal_share"]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
