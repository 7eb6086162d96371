"""The three benchmark workloads and their oracle checks.

Each workload drives only the engine's public entry points (``replay``,
``read_final_table``, ``upsert_table``) through an ``Engine`` object, so the
traced run can swap in a span-recording ``Engine`` without touching the
workload code. Every result is checked against ``clinical_trials_etl_ray.
oracle``; a call that raises or disagrees with the oracle counts as failed
and the run goes on.

Work per run is a fixed function of ``--seconds`` (nominal rates calibrated
so one run measures about that long on a 1-CPU host), so two commits run the
same operations on the same inputs and counters repeat exactly.
"""

from __future__ import annotations

import os
import shutil
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import harness


@dataclass(frozen=True)
class Sizing:
    """Input sizes and nominal rates. ``BENCH`` is what ``run.py`` runs;
    ``TINY`` keeps the self-tests to seconds."""

    buckets: int = 64
    zipf_s: float = 1.2
    duplicate_rate: float = 0.01
    shuffle_window: int = 4096
    text_pad: int = 96
    backfill_events: int = 300_000
    backfill_shards: int = 8
    backfill_files_per_chunk: int = 4
    backfill_unit_s: float = 4.0       # one bulk load + scan per this many s
    tail_shard_events: int = 5_000
    tail_rounds_per_s: float = 0.8
    tail_scans: int = 3
    serve_events: int = 150_000
    serve_shards: int = 16
    serve_ops_per_s: float = 5.0
    serve_upsert_every: int = 10       # every Nth serve op is an upsert


BENCH = Sizing()
TINY = Sizing(
    buckets=8, shuffle_window=256, text_pad=8,
    backfill_events=20_000, backfill_shards=4, backfill_files_per_chunk=2,
    backfill_unit_s=2.0,
    tail_shard_events=1_000, tail_rounds_per_s=2.0, tail_scans=1,
    serve_events=20_000, serve_shards=4, serve_ops_per_s=10.0,
)


def binlog_spec(size: Sizing, n_events: int, seed: int):
    from clinical_trials_etl_ray.synth import BinlogSpec

    return BinlogSpec(
        n_events=n_events,
        n_convs=max(1000, n_events // 100),
        max_turns=32,
        seed=seed,
        zipf_s=size.zipf_s,
        delete_rate=0.05,
        update_rate=0.25,
        duplicate_rate=size.duplicate_rate,
        shuffle_window=size.shuffle_window,
        text_pad=size.text_pad,
    )


def zipf_probs(n: int, s: float) -> np.ndarray:
    """Same rank law as the binlog generator: conv ``c{i}`` has rank i+1."""
    p = np.arange(1, n + 1, dtype=np.float64) ** (-s)
    return p / p.sum()


def read_events(paths: list) -> pa.Table:
    return pa.concat_tables(
        [pq.read_table(p) for p in paths], promote_options="default"
    )


def canonical(t: pa.Table) -> pa.Table:
    """Transcript columns in schema order, sorted by (conv_id, turn_idx)."""
    from clinical_trials_etl_ray.schema import TRANSCRIPT_SCHEMA

    t = t.select(TRANSCRIPT_SCHEMA.names).cast(TRANSCRIPT_SCHEMA)
    return t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")]
                     ).combine_chunks()


def expected_final_table(events: pa.Table) -> pa.Table:
    """The oracle's final table for a set of delivered events."""
    from clinical_trials_etl_ray.oracle import oracle_final_table

    return canonical(oracle_final_table(events))


def tables_match(got: pa.Table, want: pa.Table) -> bool:
    return canonical(got).equals(want)


class Engine:
    """The public entry points a workload drives, one method per user call.
    Reads materialize the dataset, so a read's time covers its execution."""

    def replay(self, binlog: str, lake: str, **kwargs):
        from clinical_trials_etl_ray.pipelines.replay import replay

        return replay(binlog, lake, **kwargs)

    def read(self, lake: str, conv_id: str | None = None) -> pa.Table:
        import ray

        from clinical_trials_etl_ray.stages.merge import read_final_table

        refs = read_final_table(lake, conv_id=conv_id).to_arrow_refs()
        blocks = [b for b in ray.get(refs) if b.num_rows]
        if not blocks:
            from clinical_trials_etl_ray.schema import TRANSCRIPT_SCHEMA

            return TRANSCRIPT_SCHEMA.empty_table()
        return pa.concat_tables(blocks, promote_options="default")

    def upsert(self, lake: str, table: pa.Table):
        from clinical_trials_etl_ray.pipelines.retention import upsert_table

        return upsert_table(lake, table)

    def settle(self) -> None:
        """Follow-up work after a call, run outside its timing."""


@dataclass
class Recorder:
    """Samples and op accounting for one pass over a workload."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    ingest_events: int = 0
    ingest_s: float = 0.0
    freshness: list = field(default_factory=list)
    reads: list = field(default_factory=list)
    stored_ratio: list = field(default_factory=list)
    call_s: float = 0.0          # wall of all timed public calls
    setup_s: float = 0.0         # workload set-up (serve's lake preload)
    measure_s: float = 0.0
    peak_rss_mb: float = 0.0
    inputs: dict = field(default_factory=dict)

    def call(self, fn, *args, **kwargs):
        """Run one public call; return (result, seconds), or (None, seconds)
        and record a failure when it raises."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # a failing op is recorded, the run goes on
            dt = time.perf_counter() - t0
            self.fail(f"{getattr(fn, '__name__', fn)}: "
                      f"{traceback.format_exc(limit=3)}")
            return None, dt
        dt = time.perf_counter() - t0
        self.call_s += dt
        return out, dt

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


class Run:
    """One pass over a workload: scratch paths, engine, recorder, and the
    hooks the traced run uses to tag spans with a round id."""

    def __init__(self, session: harness.Session, engine: Engine, seed: int,
                 seconds: int, size: Sizing, tag: str):
        self.session = session
        self.engine = engine
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.tag = tag
        self.rec = Recorder()
        self.on_round = lambda i: None

    def path(self, *parts: str) -> str:
        return self.session.path(self.tag, *parts)

    def call(self, fn, *args, **kwargs):
        """Time one engine call (``Recorder.call``), then let the engine do
        its untimed follow-up work."""
        try:
            return self.rec.call(fn, *args, **kwargs)
        finally:
            self.engine.settle()

    def begin_measure(self) -> float:
        harness.reset_peak_rss()
        return time.perf_counter()

    def end_measure(self, t0: float) -> None:
        self.rec.measure_s = time.perf_counter() - t0
        self.rec.peak_rss_mb = harness.peak_rss_mb()


def _write_shards(run: Run, n_events: int, n_shards: int, out: str) -> list:
    from clinical_trials_etl_ray.synth import write_binlog_shards

    spec = binlog_spec(run.size, n_events, run.seed)
    return write_binlog_shards(spec, out, n_shards=n_shards, parallel=False)


def backfill(run: Run) -> Recorder:
    """Bulk load: replay a seeded binlog into an empty lake in a few chunks,
    then read the whole final table. Repeated on fresh lakes."""
    size, rec, eng = run.size, run.rec, run.engine
    binlog = run.path("binlog")
    paths = _write_shards(run, size.backfill_events, size.backfill_shards, binlog)
    events = read_events(paths)
    n_events = events.num_rows
    want = expected_final_table(events)
    del events
    in_bytes = sum(os.path.getsize(p) for p in paths)
    units = max(1, round(run.seconds / size.backfill_unit_s))
    rec.inputs = {"events": n_events, "shards": len(paths),
                  "buckets": size.buckets, "loads": units,
                  "binlog_bytes": in_bytes, "final_rows": want.num_rows}

    t0 = run.begin_measure()
    for u in range(units):
        run.on_round(u)
        lake = run.path(f"lake{u}")
        rep, dt = run.call(eng.replay, binlog, lake, num_buckets=size.buckets,
                           files_per_chunk=size.backfill_files_per_chunk)
        if rep is not None:
            rec.ingest_events += n_events
            rec.ingest_s += dt
            rec.freshness.append(dt)
            rec.check(rep.events_read == n_events
                      and rep.chunks_applied == rep.chunks_total,
                      f"backfill load {u}: {rep}")
        got, dt = run.call(eng.read, lake)
        if got is not None:
            rec.reads.append(dt)
            rec.check(tables_match(got, want),
                      f"backfill load {u}: final table differs from oracle")
        rec.stored_ratio.append(harness.dir_bytes(lake) / in_bytes)
        shutil.rmtree(lake, ignore_errors=True)
    run.end_measure(t0)
    return rec


def tail(run: Run) -> Recorder:
    """Continuous tail: publish one shard, replay the growing binlog
    directory (the body of ``follow()``), repeat; then full scans."""
    size, rec, eng = run.size, run.rec, run.engine
    rounds = max(2, round(run.seconds * size.tail_rounds_per_s))
    stage, binlog = run.path("stage"), run.path("binlog")
    paths = _write_shards(run, rounds * size.tail_shard_events, rounds, stage)
    events = read_events(paths)
    want = expected_final_table(events)
    shard_rows = [pq.read_metadata(p).num_rows for p in paths]
    in_bytes = sum(os.path.getsize(p) for p in paths)
    rec.inputs = {"events": events.num_rows, "shards": len(paths),
                  "buckets": size.buckets, "rounds": rounds,
                  "scans": size.tail_scans, "binlog_bytes": in_bytes,
                  "final_rows": want.num_rows}
    del events
    os.makedirs(binlog)
    shutil.copy(os.path.join(stage, "_meta.json"), binlog)
    lake = run.path("lake")

    t0 = run.begin_measure()
    for i, p in enumerate(paths):
        run.on_round(i)
        published = time.perf_counter()
        os.rename(p, os.path.join(binlog, os.path.basename(p)))
        publish_s = time.perf_counter() - published
        rep, dt = run.call(eng.replay, binlog, lake, num_buckets=size.buckets,
                           files_per_chunk=1)
        if rep is not None:
            rec.freshness.append(publish_s + dt)
            rec.ingest_events += shard_rows[i]
            rec.ingest_s += dt
            rec.check(rep.chunks_applied >= 1,
                      f"tail round {i}: new shard not applied: {rep}")
    for k in range(size.tail_scans):
        run.on_round(rounds + k)
        got, dt = run.call(eng.read, lake)
        if got is not None:
            rec.reads.append(dt)
            rec.check(tables_match(got, want),
                      f"tail scan {k}: final table differs from oracle")
    rec.stored_ratio.append(harness.dir_bytes(lake) / in_bytes)
    run.end_measure(t0)
    return rec


class ServeOracle:
    """Oracle state for point lookups, advanced by each upsert."""

    def __init__(self, events: pa.Table):
        from clinical_trials_etl_ray.oracle import replay_events

        self.state = replay_events(events)
        self.by_conv: dict = {}
        for key in self.state:
            self.by_conv.setdefault(key[0], []).append(key)

    def live_keys(self, conv_id: str) -> list:
        return sorted(k for k in self.by_conv.get(conv_id, [])
                      if self.state[k]["op"] != "delete")

    def conv_table(self, conv_id: str) -> pa.Table:
        from clinical_trials_etl_ray.schema import TRANSCRIPT_SCHEMA

        rows = [self.state[k] for k in self.live_keys(conv_id)]
        return canonical(pa.Table.from_pylist(
            [{c: r[c] for c in TRANSCRIPT_SCHEMA.names} for r in rows],
            schema=TRANSCRIPT_SCHEMA,
        ))

    def apply_upsert(self, row: dict, lsn: int) -> None:
        """LWW-apply a correction of an existing key (serve only corrects
        live turns)."""
        key = (row["conv_id"], row["turn_idx"])
        cur = self.state[key]
        if (cur["ts"], cur["lsn"]) < (row["ts"], lsn):
            self.state[key] = dict(row, lsn=lsn, op="update")

    def final_table(self) -> pa.Table:
        from clinical_trials_etl_ray.oracle import final_table

        return canonical(final_table(self.state))


def serve(run: Run) -> Recorder:
    """Reads and corrections on a lake of ~1k uncompacted delta files:
    Zipf-drawn point lookups, every Nth op an upsert on a hot live key."""
    from clinical_trials_etl_ray.schema import TRANSCRIPT_SCHEMA

    size, rec, eng = run.size, run.rec, run.engine
    binlog, lake = run.path("binlog"), run.path("lake")
    paths = _write_shards(run, size.serve_events, size.serve_shards, binlog)
    events = read_events(paths)
    n_convs = binlog_spec(size, size.serve_events, run.seed).n_convs
    oracle = ServeOracle(events)
    in_bytes = sum(os.path.getsize(p) for p in paths)
    ops = max(size.serve_upsert_every,
              round(run.seconds * size.serve_ops_per_s))
    rec.inputs = {"events": events.num_rows, "shards": len(paths),
                  "buckets": size.buckets, "ops": ops,
                  "upserts": ops // size.serve_upsert_every,
                  "binlog_bytes": in_bytes}
    del events

    run.on_round(-1)
    rep, dt = run.call(eng.replay, binlog, lake, num_buckets=size.buckets,
                       files_per_chunk=1)
    rec.setup_s = dt
    if rep is not None:
        rec.check(rep.chunks_applied == rep.chunks_total,
                  f"serve preload: {rep}")
    # one untimed lookup first, so lazy imports and caches on the read path
    # are filled before the timed ops (it counts as set-up)
    got, dt = run.call(eng.read, lake, conv_id="c0")
    rec.setup_s += dt
    if got is not None:
        rec.check(tables_match(got, oracle.conv_table("c0")),
                  "serve warm-up lookup differs from oracle")

    rng = np.random.default_rng([run.seed, 1])
    probs = zipf_probs(n_convs, size.zipf_s)
    t0 = run.begin_measure()
    for i in range(ops):
        run.on_round(i)
        conv = f"c{rng.choice(n_convs, p=probs)}"
        if (i + 1) % size.serve_upsert_every:
            got, dt = run.call(eng.read, lake, conv_id=conv)
            if got is not None:
                rec.reads.append(dt)
                rec.check(tables_match(got, oracle.conv_table(conv)),
                          f"serve lookup {i} ({conv}) differs from oracle")
            continue
        while not oracle.live_keys(conv):  # corrections target live keys
            conv = f"c{rng.choice(n_convs, p=probs)}"
        keys = oracle.live_keys(conv)
        row = dict(oracle.state[keys[rng.integers(len(keys))]])
        row["text"] = f"fix|{i}|{row['text']}"
        fix = pa.Table.from_pylist(
            [{c: row[c] for c in TRANSCRIPT_SCHEMA.names}],
            schema=TRANSCRIPT_SCHEMA,
        )
        in_bytes += fix.nbytes
        rep, dt = run.call(eng.upsert, lake, fix)
        if rep is not None:
            rec.freshness.append(dt)
            rec.ingest_events += fix.num_rows
            rec.ingest_s += dt
            if rec.check(rep.rows_applied == 1, f"serve upsert {i}: {rep}"):
                oracle.apply_upsert(row, rep.upsert_lsn)
    run.end_measure(t0)

    run.on_round(ops)
    got, _ = run.call(eng.read, lake)
    if got is not None:
        rec.check(tables_match(got, oracle.final_table()),
                  "serve final table differs from oracle")
    rec.stored_ratio.append(harness.dir_bytes(lake) / in_bytes)
    return rec


WORKLOADS = {"backfill": backfill, "tail": tail, "serve": serve}
