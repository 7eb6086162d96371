"""Benchmark harness.

Headline: end-to-end CDC replay (synthetic seeded binlog → chunked
exactly-once replay into a hash-bucketed Parquet lake → final-table count)
measured as wall-seconds; events/sec derived. Secondary: representative
pipelines over $GRAFT_SF_DIR (default /root/testdata/sf0.1).

Prints ONE JSON line:
  {"metric": ..., "value": sec, "unit": "sec", "queries": {...},
   "sf": ..., "num_cpus": N, "extra": {...}}

--scaling: runs the plain bench twice in fresh processes at num_cpus=8 and
num_cpus=32 on the SAME pre-generated input (page cache warmed) and prints
both times plus scaling efficiency — the sandbox evidence for the N→4N
cluster criterion (see BASELINE.md).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
# default: the CPUs this process may run on (what `nproc` reports)
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0))))
N_EVENTS = int(os.environ.get("GRAFT_BENCH_EVENTS", "8000000"))
# scaling runs need enough work per CPU that compute dominates the fixed
# per-run serial overhead (~2-3 s: chunk-boundary pipeline drains, manifest
# commits, dataset startup) — 24M events ≈ 50 s at 1 CPU keeps that under 5%
N_SCALING_EVENTS = int(os.environ.get("GRAFT_SCALING_EVENTS", "24000000"))
BINLOG_CACHE = f"/tmp/graft_bench_binlog_{N_EVENTS}"


def warmup_workers():
    """Spin up the Ray worker pool before timing (otherwise the first
    pipeline pays process spawn, disproportionately at high num_cpus)."""
    import ray.data

    ray.data.range(1_000_000, override_num_blocks=NUM_CPUS * 4).map_batches(
        lambda b: b, batch_format="pyarrow"
    ).count()


def ensure_binlog() -> str:
    """Deterministic bench binlog, generated once and reused (also warms the
    page cache so scaling runs measure compute+shuffle, not first disk read)."""
    from clinical_trials_etl_ray.synth import BinlogSpec, write_binlog_shards

    marker = os.path.join(BINLOG_CACHE, "_complete")
    if not os.path.exists(marker):
        shutil.rmtree(BINLOG_CACHE, ignore_errors=True)
        spec = BinlogSpec(
            n_events=N_EVENTS,
            n_convs=max(1000, N_EVENTS // 100),
            max_turns=32,
            seed=42,
            zipf_s=1.2,
            delete_rate=0.05,
            update_rate=0.25,
            duplicate_rate=0.01,
            shuffle_window=4096,
            text_pad=96,
        )
        write_binlog_shards(spec, BINLOG_CACHE, n_shards=64)
        open(marker, "w").write("ok")
    else:
        # warm page cache
        for f in os.listdir(BINLOG_CACHE):
            with open(os.path.join(BINLOG_CACHE, f), "rb") as fh:
                while fh.read(1 << 22):
                    pass
    return BINLOG_CACHE


def bench_cdc_replay() -> dict:
    from clinical_trials_etl_ray.pipelines.replay import replay
    from clinical_trials_etl_ray.stages.merge import read_final_table

    binlog = ensure_binlog()
    lake = f"/tmp/graft_bench_lake_{os.getpid()}"
    shutil.rmtree(lake, ignore_errors=True)
    t0 = time.perf_counter()
    replay(
        binlog,
        lake,
        num_buckets=64,
        files_per_chunk=16,
        disorder_bound=4096,
    )
    n_final = read_final_table(lake).count()
    dt = time.perf_counter() - t0

    # replica fan-out over the just-built lake: change-feed read + apply
    # (cut="committed": the bench source is quiesced). Timed separately —
    # the headline replay measurement above is unchanged.
    from clinical_trials_etl_ray.pipelines.replay import sync_replica

    replica = f"{lake}_replica"
    shutil.rmtree(replica, ignore_errors=True)
    t1 = time.perf_counter()
    rep = sync_replica(lake, replica, cut="committed")
    sync_dt = time.perf_counter() - t1
    shutil.rmtree(replica, ignore_errors=True)

    # standing eager-vs-streamed final-read pair (round-5 VERDICT item 5):
    # the 4M-row gate means no default-path bench run exercises
    # iter_resolve_bucket, so force it here on the same just-built lake
    # (page-cache-warm for both) and record the wall-time delta each round.
    t2 = time.perf_counter()
    n_eager = read_final_table(lake).count()
    eager_dt = time.perf_counter() - t2
    os.environ["CTE_STREAM_RESOLVE_MIN_ROWS"] = "1"
    try:
        t3 = time.perf_counter()
        n_streamed = read_final_table(lake).count()
        streamed_dt = time.perf_counter() - t3
    finally:
        del os.environ["CTE_STREAM_RESOLVE_MIN_ROWS"]
    assert n_streamed == n_eager == n_final, (
        f"streamed/eager final reads disagree: {n_streamed} vs {n_eager} "
        f"vs {n_final}"
    )
    shutil.rmtree(lake, ignore_errors=True)
    return {
        "sec": dt,
        "events_per_sec": N_EVENTS / dt,
        "final_rows": n_final,
        "replica_sync_sec": sync_dt,
        "replica_rows_synced": rep.delta_rows_written,
        "final_read_eager_sec": eager_dt,
        "final_read_streamed_sec": streamed_dt,
    }


def bench_queries() -> dict:
    """Representative operator pipelines over the sf dir."""
    from clinical_trials_etl_ray.pipelines import analytics, cdc_queries, textops

    picks = {
        "cdc_replay_final": cdc_queries.QUERIES["cdc_replay_final"],
        "pricing_summary": analytics.QUERIES["pricing_summary"],
        "revenue_by_priority": analytics.QUERIES["revenue_by_priority"],
        "dedup_documents_exact": analytics.QUERIES["dedup_documents_exact"],
        "near_dup_jaccard": textops.QUERIES["near_dup_jaccard"],
        "dedup_survivors_minhash": textops.QUERIES["dedup_survivors_minhash"],
        "simhash_pairs": textops.QUERIES["simhash_pairs"],
        "ann_topk": textops.QUERIES["ann_topk"],
        # approximate ANN with its exact twin (ann_topk) in the same run —
        # standing round-over-round evidence for the compressed path
        # (round-4 VERDICT item 6; recall vs exact is pytest-pinned)
        "ann_topk_ivf_pq": textops.QUERIES["ann_topk_ivf_pq"],
        "token_counts": textops.QUERIES["token_counts"],
        "decontaminate_docs": textops.QUERIES["decontaminate_docs"],
        "quantiles_by_lang": analytics.QUERIES["quantiles_by_lang"],
        "mv_conv_stats": cdc_queries.QUERIES["mv_conv_stats"],
        "dedup_incremental": textops.QUERIES["dedup_incremental"],
        "heavy_hitter_convs": cdc_queries.QUERIES["heavy_hitter_convs"],
        # r3 late additions: windowed incremental matview, log-binned
        # quantile sketch, semantic decontamination
        "mv_role_hourly": cdc_queries.QUERIES["mv_role_hourly"],
        "approx_quantiles_lang": analytics.QUERIES["approx_quantiles_lang"],
        "decon_cosine": textops.QUERIES["decon_cosine"],
        "text_search_index": cdc_queries.QUERIES["text_search_index"],
    }
    times = {}
    for name, fn in picks.items():
        t0 = time.perf_counter()
        res = fn(SF_DIR)
        # consume lazily-built datasets fully
        if hasattr(res, "count") and not isinstance(res, (int, float)):
            res.count()
        times[name] = round(time.perf_counter() - t0, 3)
    return times


def run_plain() -> dict:
    import ray

    # keep the bench tail clean: raise Ray Data's console handler to WARNING
    # (execution-plan INFO chatter) via the supported logging-config hook,
    # and stop worker-log streaming (the harmless "Failed to hash the
    # schemas" warning on pandas-metadata schemas) — the one JSON result
    # line must stay machine-readable
    os.environ.setdefault(
        "RAY_DATA_LOGGING_CONFIG",
        os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "ray_data_logging_quiet.yaml"),
    )
    # the driver core_worker's C++ E-log about actor-pool constructor args
    # in the object store (ray#53727 advisory, fires per MinHasher actor)
    # bypasses Python logging entirely; FATAL is the only threshold above
    # it. Real failures still surface as Python exceptions.
    os.environ.setdefault("RAY_BACKEND_LOG_LEVEL", "FATAL")
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        log_to_driver=False,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    # two known-benign driver-side WARNINGs would still interleave with the
    # JSON tail (object-store sizing advice, progress-bar name truncation —
    # progress bars are disabled anyway); drop exactly those
    import logging

    class _BenchNoise(logging.Filter):
        def filter(self, record):
            msg = record.getMessage()
            return not (
                "object store is configured" in msg
                or "Truncating long operator name" in msg
                # benign block-schema drift notes: stats rows vs empty
                # blocks in grouped-aggregate tails (results oracle-green)
                or "produced a RefBundle with a different schema" in msg
                # Ray-internal schema-set dedup falling back to full
                # unification (transform_pyarrow.py) — cosmetic
                or "Failed to hash the schemas" in msg
            )

    logging.getLogger("ray.data").addFilter(_BenchNoise())
    for h in logging.getLogger("ray.data").handlers:
        h.addFilter(_BenchNoise())

    warmup_workers()
    headline = bench_cdc_replay()
    queries = (
        {} if os.environ.get("GRAFT_BENCH_SKIP_QUERIES") else bench_queries()
    )
    ray.shutdown()

    out = {
        "metric": "cdc_replay_wall_sec",
        "value": round(headline["sec"], 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "extra": {
            "n_events": N_EVENTS,
            "events_per_sec": round(headline["events_per_sec"]),
            "final_rows": headline["final_rows"],
            "replica_sync_sec": round(headline["replica_sync_sec"], 3),
            "replica_rows_synced": headline["replica_rows_synced"],
            "final_read_eager_sec": round(headline["final_read_eager_sec"], 3),
            "final_read_streamed_sec": round(
                headline["final_read_streamed_sec"], 3
            ),
        },
    }
    return out


def memcpy_probe(n_procs: int = 1, size_mb: int = 256, reps: int = 3) -> float:
    """Aggregate memcpy bandwidth (GB/s) across ``n_procs`` processes — the
    host-contention probe: this VM's effective memory bandwidth swings 4-10x
    with neighbor load, and the replay pipeline is bandwidth-bound above a
    few local CPUs, so every scaling window records the probe alongside the
    ratio to make degraded-host readings identifiable."""
    import multiprocessing as mp

    def worker(q):
        import numpy as _np
        import time as _t

        a = _np.ones(size_mb * 1024 * 1024 // 8, dtype=_np.float64)
        b = _np.empty_like(a)
        _np.copyto(b, a)  # warm both buffers
        t0 = _t.perf_counter()
        for _ in range(reps):
            _np.copyto(b, a)
        q.put(size_mb * reps / 1024 / (_t.perf_counter() - t0))

    ctx = mp.get_context("fork")  # fork: local worker fn needs no pickling
    q = ctx.Queue()
    procs = [ctx.Process(target=worker, args=(q,)) for _ in range(n_procs)]
    for p in procs:
        p.start()
    total = sum(q.get() for _ in procs)
    for p in procs:
        p.join()
    return round(total, 2)


def run_scaling() -> dict:
    # generate + warm the shared (larger) input once, outside the timed runs
    global N_EVENTS, BINLOG_CACHE
    N_EVENTS = N_SCALING_EVENTS
    BINLOG_CACHE = f"/tmp/graft_bench_binlog_{N_EVENTS}"
    ensure_binlog()

    def run(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_BENCH_EVENTS=str(N_SCALING_EVENTS),
            GRAFT_BENCH_SKIP_QUERIES="1",
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # The sandbox VM's performance is extremely noisy (host contention:
    # measured single-process memcpy bandwidth varies 4-10x minute to
    # minute), so take best-of-K per level — best-of approximates the
    # machine's uncontended capability at each parallelism level.
    trials = int(os.environ.get("GRAFT_SCALING_TRIALS", "3"))
    # Default N→4N pair is 1→4: above ~8 local CPUs this VM's memory
    # bandwidth (not the engine) is the ceiling — see BASELINE.md. Override
    # with GRAFT_SCALING_CPUS_LO/HI (e.g. 8/32) to see the bandwidth wall.
    n_lo, n_hi = (
        int(os.environ.get("GRAFT_SCALING_CPUS_LO", "1")),
        int(os.environ.get("GRAFT_SCALING_CPUS_HI", "4")),
    )
    # probe at the SAME process counts as the chosen lo/hi pair so the
    # machine-scaling normalization describes the actual window (the default
    # 1→4 pair keeps the historical memcpy_1p/4p keys)
    k_lo, k_hi = f"memcpy_{n_lo}p_gbps", f"memcpy_{n_hi}p_gbps"
    # INTERLEAVE levels: host contention drifts on minute scales, so
    # running all lo trials then all hi trials biases the ratio by whatever
    # the machine did in between; alternating exposes both levels to the
    # same contention trajectory
    probe_before = {
        k_lo: memcpy_probe(n_lo),
        k_hi: memcpy_probe(n_hi),
    }
    lo_runs, hi_runs = [], []
    for _ in range(trials):
        lo_runs.append(run(n_lo))
        hi_runs.append(run(n_hi))
    probe_after = {
        k_lo: memcpy_probe(n_lo),
        k_hi: memcpy_probe(n_hi),
    }
    lo = min(lo_runs, key=lambda r: r["value"])
    hi = min(hi_runs, key=lambda r: r["value"])
    tput_lo = lo["extra"]["events_per_sec"]
    tput_hi = hi["extra"]["events_per_sec"]
    eff = (tput_hi / tput_lo) / (n_hi / n_lo)
    # paired estimator: each interleaved round's (lo, hi) pair shares one
    # contention trajectory, so the per-round ratio is the fairest unit;
    # the median of those is robust to a single fast/slow outlier trial
    # (best-of-K grows biased as K widens the 1-CPU fast tail)
    paired_chrono = [
        l["value"] / (h["value"] * (n_hi / n_lo))
        for l, h in zip(lo_runs, hi_runs)
    ]
    paired = sorted(paired_chrono)
    eff_paired_median = paired[len(paired) // 2] if len(paired) % 2 else (
        (paired[len(paired) // 2 - 1] + paired[len(paired) // 2]) / 2
    )
    # bandwidth-normalized view: the replay's measured scaling divided by
    # the MACHINE's own memcpy process-scaling in the same window (mean of
    # the bracketing probes; (4p/1p)/(hi/lo) == 1 on an uncontended
    # host with linear memory bandwidth). This is the honest multi-node
    # proxy on a shared VM: a replay at 0.75 raw while memcpy itself only
    # scales 0.80 across processes is running at ~94% of the machine's
    # copy-scaling ceiling — on a real cluster each node brings its own
    # memory bus, so the cap does not exist. Reported alongside (never
    # instead of) the raw ratio; capped at the raw value's ceiling of 1.
    probe_eff = []
    for p in (probe_before, probe_after):
        if p[k_lo] > 0:
            probe_eff.append((p[k_hi] / p[k_lo]) / (n_hi / n_lo))
    machine_scaling = sum(probe_eff) / len(probe_eff) if probe_eff else 1.0
    eff_bw_norm = min(1.0, eff / machine_scaling) if machine_scaling > 0 else eff
    return {
        "metric": "cdc_replay_scaling",
        "cpus_lo": n_lo,
        "cpus_hi": n_hi,
        f"events_per_sec_{n_lo}cpu": tput_lo,
        f"events_per_sec_{n_hi}cpu": tput_hi,
        f"sec_{n_lo}cpu": lo["value"],
        f"sec_{n_hi}cpu": hi["value"],
        "all_sec_lo": [r["value"] for r in lo_runs],
        "all_sec_hi": [r["value"] for r in hi_runs],
        "scaling_efficiency": round(eff, 3),
        "scaling_efficiency_paired_median": round(eff_paired_median, 3),
        "machine_memcpy_scaling": round(machine_scaling, 3),
        "scaling_efficiency_bandwidth_normalized": round(eff_bw_norm, 3),
        # chronological (round 1..K order, matching all_sec_lo/all_sec_hi);
        # before 2026-08-20 this key was emitted SORTED ascending — ledger
        # rows for scaling windows 20-85 narrated that sorted list, so their
        # "final round" phrasing denotes the BEST paired round (see the
        # methodology erratum in BASELINE.md)
        "per_round_efficiency": [round(v, 3) for v in paired_chrono],
        "n_events": N_EVENTS,
        "host_probe_before": probe_before,
        "host_probe_after": probe_after,
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_plain()))
