"""Traced run: spans around the engine's public entry points and an
in-process shadow of the worker-side data path, reduced to per-layer metrics.

Driver-side layers are timed in the real call by rebinding
``Manifest.commit`` and ``Manifest.load`` for the traced pass and by
wrapping the benchmark's ``Engine`` methods (``replay``, ``read_final_table``
and ``upsert_table``). Worker-side layers run in Ray tasks, out of reach of
a driver-side span, so after each call the traced engine repeats that call's
data path in-process: ``plan_chunks`` → shard read → ``prep_batch`` →
``dedupe_batch`` → ``make_direct_delta_writer`` into a throw-away shadow
lake, and ``resolve_bucket`` for reads. Shadow spans carry the call's span as
their parent but are not nested in its interval; the call's own timing never
includes them. Counters (files, bytes, rows) come from the real calls.

Spans stay in memory and are written out with the run's result file.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import time
from collections import Counter

import numpy as np

from . import harness
from .workloads import Engine, read_events


class Tracer:
    """In-memory span store: (name, start, end, parent, workload, round)."""

    def __init__(self, workload: str):
        self.workload = workload
        self.round: int | None = None
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.commit_ms: list[float] = []
        self.load_ms: list[float] = []
        self.snapshot_bytes = 0
        self.manifest_dir_bytes = 0
        self.call_overhead_s = 0.0

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None, shadow: bool = False):
        if parent is None and self._stack:
            parent = self._stack[-1]
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "workload": self.workload, "round": self.round,
               "shadow": shadow, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @staticmethod
    def dur(rec: dict) -> float:
        return rec["end"] - rec["start"]

    def total(self, name: str) -> float:
        return sum(self.dur(s) for s in self.spans if s["name"] == name)

    def children(self, rec: dict) -> list[dict]:
        return [s for s in self.spans[rec["id"] + 1:] if s["parent"] == rec["id"]]

    def self_times(self) -> dict:
        """Per-layer self time: a span's duration minus its nested (non-
        shadow) children; shadow spans count whole."""
        out: Counter = Counter()
        kids: dict = {}
        for s in self.spans:
            if s["parent"] is not None and not s["shadow"]:
                kids[s["parent"]] = kids.get(s["parent"], 0.0) + self.dur(s)
        for s in self.spans:
            out[s["name"]] += self.dur(s) - kids.get(s["id"], 0.0)
        return dict(out)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind ``Manifest.commit`` and ``Manifest.load`` to span-recording
    wrappers for the duration of the block."""
    from clinical_trials_etl_ray.state.manifest import MANIFEST_DIR, Manifest

    orig_commit = Manifest.__dict__["commit"]
    orig_load = Manifest.__dict__["load"]
    load = orig_load.__get__(None, Manifest)

    def commit(self, new_files, *args, **kwargs):
        with tracer.span("manifest.commit") as sp:
            nxt = orig_commit(self, new_files, *args, **kwargs)
        tracer.commit_ms.append(Tracer.dur(sp) * 1e3)
        tracer.counters["merge.files_written"] += len(new_files)
        tracer.counters["merge.bytes_written"] += sum(
            os.path.getsize(os.path.join(self.lake_dir, f["path"]))
            for f in new_files
        )
        mdir = os.path.join(self.lake_dir, MANIFEST_DIR)
        tracer.snapshot_bytes = os.path.getsize(
            os.path.join(mdir, f"v{nxt.version:06d}.json"))
        tracer.manifest_dir_bytes = max(tracer.manifest_dir_bytes,
                                        harness.dir_bytes(mdir))
        return nxt

    def traced_load(cls, lake_dir):
        with tracer.span("manifest.load") as sp:
            man = load(lake_dir)
        tracer.load_ms.append(Tracer.dur(sp) * 1e3)
        return man

    Manifest.commit = commit
    Manifest.load = classmethod(traced_load)
    try:
        yield load
    finally:
        Manifest.commit = orig_commit
        Manifest.load = orig_load


class TracingEngine(Engine):
    """``Engine`` whose calls record a span each; ``settle()``, which runs
    after the call's timing has stopped, repeats its data path in-process on
    a shadow lake (see the module docstring)."""

    def __init__(self, tracer: Tracer, load, shadow_dir: str):
        self.tracer = tracer
        self._load = load          # the unwrapped Manifest.load
        self.shadow_dir = shadow_dir
        self._pending = None       # (call span, shadow work) of the last call

    def settle(self) -> None:
        pending, self._pending = self._pending, None
        if pending is None:
            return  # the call raised
        op, shadow = pending
        shadow()
        t = self.tracer
        # the call's wall not covered by any of its layers goes to Ray Data:
        # task scheduling, serialization, iterator start-up
        t.call_overhead_s += t.dur(op) - sum(t.dur(c) for c in t.children(op))
        shutil.rmtree(self.shadow_dir, ignore_errors=True)

    def replay(self, binlog, lake, **kwargs):
        self._pending = None
        with self.tracer.span("replay") as op:
            rep = super().replay(binlog, lake, **kwargs)
        self._pending = (op, lambda: self._shadow_replay(op, rep, binlog, lake, kwargs))
        return rep

    def _shadow_replay(self, op, rep, binlog, lake, kwargs):
        from clinical_trials_etl_ray.pipelines.replay import (
            plan_chunks, producer_disorder_bound)
        from clinical_trials_etl_ray.schema import EVENT_SCHEMA
        from clinical_trials_etl_ray.stages.dedupe import dedupe_batch
        from clinical_trials_etl_ray.stages.merge import (
            make_direct_delta_writer, prep_batch)
        from clinical_trials_etl_ray.state.manifest import Manifest

        t, sid = self.tracer, op["id"]
        for k in ("chunks_applied", "chunks_skipped", "stale_skipped",
                  "events_read", "rows_deduped", "delta_rows_written"):
            t.counters[f"replay.{k}"] += getattr(rep, k)
        # every applied chunk committed one version on top of the lake as
        # the call found it
        before = Manifest.load_version(lake, rep.final_version - rep.chunks_applied)
        nb = before.num_buckets
        shards = sorted(os.path.join(binlog, f) for f in os.listdir(binlog)
                        if f.endswith(".parquet"))
        with t.span("replay.plan", parent=sid, shadow=True):
            chunks = plan_chunks(shards, kwargs.get("files_per_chunk", 16),
                                 producer_disorder_bound(binlog) or 0)
        own = before.watermarks()
        for paths, commit_wm, chunk_max, _ in chunks:
            wm_global = min(own.values())
            if chunk_max <= wm_global:
                continue
            with t.span("replay.read", parent=sid, shadow=True):
                batch = read_events(paths)
            with t.span("merge.prep", parent=sid, shadow=True):
                batch = prep_batch(batch, nb, -1, before.salt_factor, EVENT_SCHEMA)
            with t.span("dedupe.dedupe", parent=sid, shadow=True):
                batch = dedupe_batch(batch)
            with t.span("merge.write", parent=sid, shadow=True):
                make_direct_delta_writer(self.shadow_dir, own)(batch)
            done = max(commit_wm, wm_global)
            own = {b: max(v, done) for b, v in own.items()}

    def read(self, lake, conv_id=None):
        self._pending = None
        with self.tracer.span("read_final_table") as op:
            out = super().read(lake, conv_id=conv_id)
        self._pending = (op, lambda: self._shadow_read(op, lake, conv_id))
        return out

    def _shadow_read(self, op, lake, conv_id):
        from clinical_trials_etl_ray.functions.bloom import bloom_might_contain
        from clinical_trials_etl_ray.functions.hashing import hash_strings
        from clinical_trials_etl_ray.stages.merge import (
            candidate_buckets, resolve_bucket)

        t = self.tracer
        man = self._load(lake)
        if conv_id is None:
            buckets, key_hash = range(man.num_buckets), None
        else:
            buckets = candidate_buckets(conv_id, man.num_buckets, man.salt_factor)
            key_hash = int(hash_strings([conv_id])[0])
        with t.span("read.resolve", parent=op["id"], shadow=True):
            for b in buckets:
                files = man.files_for_bucket(b)
                if not files:
                    continue
                t.counters["read.buckets_visited"] += 1
                t.counters["read.candidate_files"] += len(files)
                if key_hash is not None:
                    kept = [f for f in files if f.get("conv_bloom") is None
                            or bloom_might_contain(f["conv_bloom"], key_hash)]
                    t.counters["read.bloom_candidates"] += len(files)
                    t.counters["read.bloom_skipped"] += len(files) - len(kept)
                    files = kept
                t.counters["read.files_opened"] += len(files)
                if files:
                    resolve_bucket(lake, b, files, conv_range=(
                        None if conv_id is None else (conv_id, conv_id)))

    def upsert(self, lake, table):
        self._pending = None
        with self.tracer.span("upsert_table") as op:
            rep = super().upsert(lake, table)
        self._pending = (op, lambda: self._shadow_upsert(op, rep, lake, table))
        return rep

    def _shadow_upsert(self, op, rep, lake, table):
        import pyarrow as pa

        from clinical_trials_etl_ray.schema import EVENT_SCHEMA
        from clinical_trials_etl_ray.stages.merge import (
            make_direct_delta_writer, prep_batch)

        t = self.tracer
        t.counters["retention.upsert_files"] += rep.files_written
        t.counters["retention.upsert_rows"] += rep.rows_applied
        man = self._load(lake)  # an upsert leaves watermarks and layout as-is
        n = table.num_rows
        events = table.append_column(
            "op", pa.array(["update"] * n, pa.string())
        ).append_column("lsn", pa.array([rep.upsert_lsn] * n, pa.int64()))
        with t.span("merge.prep", parent=op["id"], shadow=True):
            batch = prep_batch(events, man.num_buckets, -1, man.salt_factor,
                               EVENT_SCHEMA)
        with t.span("merge.write", parent=op["id"], shadow=True):
            make_direct_delta_writer(self.shadow_dir, man.watermarks())(batch)


#: per-layer metric → (unit, better); also the order of the printed metrics
LAYER_METRICS = {
    "replay.plan_s": ("s", "lower"),
    "replay.read_s": ("s", "lower"),
    "replay.chunks_applied": ("count", "lower"),
    "replay.chunks_skipped": ("count", "higher"),
    "replay.stale_skipped": ("count", "lower"),
    "merge.prep_s": ("s", "lower"),
    "dedupe.dedupe_s": ("s", "lower"),
    "dedupe.keep_ratio": ("ratio", "lower"),
    "merge.write_s": ("s", "lower"),
    "merge.files_written": ("count", "lower"),
    "merge.bytes_written": ("bytes", "lower"),
    "merge.rows_written_per_event": ("ratio", "lower"),
    "manifest.commit_s": ("s", "lower"),
    "manifest.commit_p50_ms": ("ms", "lower"),
    "manifest.commit_max_ms": ("ms", "lower"),
    "manifest.commits": ("count", "lower"),
    "manifest.snapshot_bytes": ("bytes", "lower"),
    "manifest.dir_bytes": ("bytes", "lower"),
    "manifest.load_p50_ms": ("ms", "lower"),
    "manifest.loads": ("count", "lower"),
    "read.resolve_s": ("s", "lower"),
    "read.files_per_bucket": ("count", "lower"),
    "read.files_opened": ("count", "lower"),
    "read.bloom_skip_ratio": ("ratio", "higher"),
    "retention.upsert_files": ("count", "lower"),
    "ray_data.overhead_s": ("s", "lower"),
    "layer.manifest_share": ("ratio", "lower"),
    "layer.kernel_share": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.shadow_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer: Tracer, untraced_call_s: float) -> dict:
    """Reduce the spans and counters of a traced pass to LAYER_METRICS;
    ``untraced_call_s`` is the wall of the same calls without tracing."""
    t, c = tracer, tracer.counters
    calls = sum(t.total(n) for n in ("replay", "read_final_table", "upsert_table"))
    manifest_s = t.total("manifest.commit") + t.total("manifest.load")
    kernel_s = sum(t.total(n) for n in ("merge.prep", "dedupe.dedupe", "merge.write"))
    shadow_s = sum(t.dur(s) for s in t.spans if s["shadow"])
    events_in = c["replay.events_read"] + c["retention.upsert_rows"]
    rows_out = c["replay.delta_rows_written"] + c["retention.upsert_rows"]
    return {
        "replay.plan_s": t.total("replay.plan"),
        "replay.read_s": t.total("replay.read"),
        "replay.chunks_applied": c["replay.chunks_applied"],
        "replay.chunks_skipped": c["replay.chunks_skipped"],
        "replay.stale_skipped": c["replay.stale_skipped"],
        "merge.prep_s": t.total("merge.prep"),
        "dedupe.dedupe_s": t.total("dedupe.dedupe"),
        "dedupe.keep_ratio": _ratio(c["replay.rows_deduped"], c["replay.events_read"]),
        "merge.write_s": t.total("merge.write"),
        "merge.files_written": c["merge.files_written"],
        "merge.bytes_written": c["merge.bytes_written"],
        "merge.rows_written_per_event": _ratio(rows_out, events_in),
        "manifest.commit_s": t.total("manifest.commit"),
        "manifest.commit_p50_ms": float(np.median(t.commit_ms)) if t.commit_ms else 0.0,
        "manifest.commit_max_ms": max(t.commit_ms, default=0.0),
        "manifest.commits": len(t.commit_ms),
        "manifest.snapshot_bytes": t.snapshot_bytes,
        "manifest.dir_bytes": t.manifest_dir_bytes,
        "manifest.load_p50_ms": float(np.median(t.load_ms)) if t.load_ms else 0.0,
        "manifest.loads": len(t.load_ms),
        "read.resolve_s": t.total("read.resolve"),
        "read.files_per_bucket": _ratio(c["read.candidate_files"], c["read.buckets_visited"]),
        "read.files_opened": c["read.files_opened"],
        "read.bloom_skip_ratio": _ratio(c["read.bloom_skipped"], c["read.bloom_candidates"]),
        "retention.upsert_files": c["retention.upsert_files"],
        "ray_data.overhead_s": t.call_overhead_s,
        "layer.manifest_share": _ratio(manifest_s, calls),
        "layer.kernel_share": _ratio(kernel_s, calls),
        "trace.overhead_ratio": _ratio(calls, untraced_call_s),
        "trace.shadow_s": shadow_s,
    }
