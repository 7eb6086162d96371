"""CDC benchmark entry point.

    python3 perfbench/run.py --workload {backfill,tail,serve} --seed N \
        --seconds S --trace {0,1}

Starts Ray with one CPU slot per host CPU, runs one workload closed-loop
with a single client, checks every result against the oracle and prints one
JSON line as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
operations twice, untraced and then traced, and reports the per-layer
metrics (including the tracing overhead between the two passes). The full
record (provenance, sample counts, errors and, when traced, every span) goes
to ``.perfbench_out/<workload>-seed<N>-trace<T>.json``; Ray's and the
engine's chatter goes to stderr. Exits 2 without a result when the engine
package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402

OUT_DIR = harness.ROOT / ".perfbench_out"
SCRATCH = harness.ROOT / ".perfbench_run"

#: end-to-end metric → unit; also the order of the printed metrics
END_TO_END = {
    "setup_s": "s",
    "ingest_events_per_s": "ev/s",
    "freshness_p50_s": "s",
    "read_p50_s": "s",
    "stored_bytes_per_input_byte": "ratio",
    "driver_peak_rss_mb": "MB",
}


def _pct(samples: list, q: float):
    import numpy as np

    return float(np.percentile(samples, q)) if samples else None


def end_to_end_values(rec, ray_start_s: float) -> dict:
    """The user-visible metrics of one untraced pass (None where a failed
    run left no sample)."""
    import numpy as np

    return {
        "setup_s": ray_start_s + rec.setup_s,
        "ingest_events_per_s": (rec.ingest_events / rec.ingest_s
                                if rec.ingest_s else None),
        "freshness_p50_s": _pct(rec.freshness, 50),
        "freshness_p90_s": _pct(rec.freshness, 90),
        "read_p50_s": _pct(rec.reads, 50),
        "read_p90_s": _pct(rec.reads, 90),
        "stored_bytes_per_input_byte": (float(np.median(rec.stored_ratio))
                                        if rec.stored_ratio else None),
        "driver_peak_rss_mb": rec.peak_rss_mb,
    }


def _detail(rec) -> dict:
    return {
        "attempted": rec.attempted, "failed": rec.failed,
        "errors": rec.errors, "inputs": rec.inputs,
        "samples": {"freshness": len(rec.freshness), "reads": len(rec.reads)},
        "freshness_s": rec.freshness, "read_s": rec.reads,
        "workload_setup_s": rec.setup_s, "measure_s": rec.measure_s,
        "call_s": rec.call_s,
    }


def run(workload: str, seed: int, seconds: int, trace: bool,
        size=None) -> tuple[dict, dict]:
    """Run one workload at ``size`` (default ``workloads.BENCH``); return
    (result line, full record)."""
    from perfbench import workloads

    size = size or workloads.BENCH
    body = workloads.WORKLOADS[workload]
    with harness.Session(str(SCRATCH)) as session:
        ray_start_s = session.start_ray()
        plain = workloads.Run(session, workloads.Engine(), seed, seconds, size,
                              tag="untraced")
        rec = body(plain)
        record = {"untraced": _detail(rec)}
        e2e = end_to_end_values(rec, ray_start_s)
        attempted, failed = rec.attempted, rec.failed
        if trace:
            from perfbench import trace as tr

            session.wipe("untraced")
            tracer = tr.Tracer(workload)
            with tr.instrument(tracer) as load:
                engine = tr.TracingEngine(tracer, load, session.path("shadow"))
                traced = workloads.Run(session, engine, seed, seconds, size,
                                       tag="traced")
                traced.on_round = lambda i: setattr(tracer, "round", i)
                trec = body(traced)
            layers = tr.layer_values(tracer, rec.call_s)
            attempted += trec.attempted
            failed += trec.failed
            record["traced"] = _detail(trec)
            record["self_s"] = tracer.self_times()
            record["spans"] = tracer.spans
            metrics = {k: {"value": layers[k], "unit": u}
                       for k, (u, _) in tr.LAYER_METRICS.items()}
        else:
            metrics = {k: {"value": e2e[k], "unit": u}
                       for k, u in END_TO_END.items()}
        record["end_to_end"] = e2e
        record["provenance"] = harness.provenance(
            session, workload, seed, seconds, trace, rec.inputs)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record["result"] = result
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["backfill", "tail", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (harness.PACKAGE_DIR / "__init__.py").is_file():
        print(f"perfbench: engine package not found at {harness.PACKAGE_DIR}",
              file=sys.stderr)
        return 2

    # a terminated run still stops Ray and removes its scratch root
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Only the result line may reach stdout: send everything else, Ray's
    # and native libraries' output included, to stderr until then.
    sys.stdout.flush()
    real_stdout = os.dup(1)
    os.dup2(2, 1)
    t0 = time.perf_counter()
    result, record = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    record["wall_s"] = time.perf_counter() - t0
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, default=str))
    sys.stdout.flush()
    os.dup2(real_stdout, 1)
    os.close(real_stdout)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
