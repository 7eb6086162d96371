"""Incremental materialized-view maintenance over the CDC lake.

A materialized view is a grouped aggregate (``ViewSpec``: any group key +
mergeable aggs; default: per-conversation ``conv_id → n_turns, n_tool,
text_chars, last_ts``) kept continuously consistent with the lake by
*incremental refresh*: only buckets whose committed file lists changed are
recomputed — O(change rate), never O(lake) — and the result is published
through the same exactly-once ``Manifest`` commit protocol as the lake
itself (optimistic-concurrency version files, content-hash-named immutable
parquet, time travel via retained versions; the spec is persisted in the
view manifest).

Why this is bucket-local (shuffle-free): every agg kind's merge is
associative, so each bucket stores *mergeable partials* under any group
key. When the key IS the lake's partition key (``conv_id``, unsalted) the
partials are already exact and reads are zero-shuffle; otherwise
``read_matview`` finishes with one small groupby over view-sized partial
rows (≤ groups × buckets) — exchange volume is the view, not the lake.

Scale shape at 100 TB: refresh cost is driven by the CHANGE RATE, not the
table size. A poll loop (``pipelines.replay.follow`` + ``refresh_matview``)
touches only the buckets the last commits wrote into; all other buckets are
skipped from manifest metadata alone (no file I/O at all).

Reference analog: the Streamlit dashboard re-runs its Mongo aggregation
pipelines from scratch on every page load
(st_trial_analytics.py:207-243,346-454); this is the incremental
re-expression — the aggregate is maintained, not recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc

from ..state.manifest import Manifest
from .lifecycle import refresh_consumer, store_file
from .merge import driver_dataset, live_rows, resolve_bucket

MV_SCHEMA = pa.schema(
    [
        pa.field("conv_id", pa.string()),
        pa.field("n_turns", pa.int64()),
        pa.field("n_tool", pa.int64()),
        pa.field("text_chars", pa.int64()),
        pa.field("last_ts", pa.timestamp("us")),
    ]
)


@dataclass
class MatviewRefreshReport:
    """What one refresh did — the observability contract mirroring
    ``ReplayReport`` (buckets skipped purely from manifest metadata are the
    incremental win)."""

    buckets_total: int = 0
    buckets_refreshed: int = 0
    rows_written: int = 0
    mv_version: int = 0
    as_of_watermark: int = -1


# --------------------------------------------------------------------------
# View specs: arbitrary group key + mergeable aggregates
# --------------------------------------------------------------------------

# agg kinds → (arrow groupby function for the partial, merge function).
# Every kind's merge is associative, which is what makes per-bucket partials
# exact under any split (salting, non-key group columns, re-merges).
_AGG_KINDS = {
    "count": ("count_all", "sum"),       # row count
    "nn_count": ("count", "sum"),        # non-null count of col
    "sum": ("sum", "sum"),
    "min": ("min", "min"),
    "max": ("max", "max"),
    "sum_utf8_len": ("sum", "sum"),      # sum of utf8_length(coalesce(col,''))
}


@dataclass(frozen=True)
class ViewAgg:
    name: str                 # output column
    kind: str                 # key of _AGG_KINDS
    col: str | None = None    # source column (None only for "count")

    def __post_init__(self):
        if self.kind not in _AGG_KINDS:
            raise ValueError(f"unknown agg kind {self.kind!r}")
        if self.kind != "count" and not self.col:
            raise ValueError(f"agg {self.name!r}: kind {self.kind!r} needs a col")


@dataclass(frozen=True)
class ViewSpec:
    """What a materialized view computes: ``key → aggs``. The key need NOT
    be the lake's partition key — per-bucket partials are mergeable for any
    group column (a ``role``-keyed view stores ≤ num_buckets partial rows
    per role and merges at read), the classic partial/final combine.

    ``time_col``/``window_s`` turn the view into an event-time TUMBLING
    WINDOW aggregate: rows are additionally grouped by
    ``win_start = floor(time_col / window_s) * window_s`` (a derived
    timestamp column in the view output). Combined with the incremental
    refresh loop this is the streaming windowed aggregate: windows update
    at O(change rate) as events (including late, out-of-order ones —
    LWW re-resolves their bucket and the refresh recomputes exactly the
    touched buckets' partials) keep arriving, and closed windows cost
    nothing once their buckets stop changing. Same mergeable-partial math —
    a (key, win_start) group is just a finer group key."""

    key: str = "conv_id"
    aggs: tuple = (
        ViewAgg("n_turns", "count"),
        ViewAgg("n_tool", "nn_count", "tool"),
        ViewAgg("text_chars", "sum_utf8_len", "text"),
        ViewAgg("last_ts", "max", "ts"),
    )
    time_col: str | None = None
    window_s: int | None = None

    def __post_init__(self):
        if (self.time_col is None) != (self.window_s is None):
            raise ValueError("time_col and window_s must be set together")
        if self.window_s is not None and self.window_s <= 0:
            raise ValueError("window_s must be a positive number of seconds")

    @property
    def group_keys(self) -> list:
        return [self.key, "win_start"] if self.window_s else [self.key]

    def to_json(self) -> dict:
        doc = {
            "key": self.key,
            "aggs": [[a.name, a.kind, a.col] for a in self.aggs],
        }
        # only present for windowed views, so specs persisted by earlier
        # versions round-trip and compare equal (to_json is the conflict
        # check in refresh_matview)
        if self.window_s:
            doc["window"] = [self.time_col, self.window_s]
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ViewSpec":
        win = doc.get("window") or (None, None)
        return cls(
            key=doc["key"],
            aggs=tuple(ViewAgg(n, k, c) for n, k, c in doc["aggs"]),
            time_col=win[0],
            window_s=win[1],
        )


DEFAULT_SPEC = ViewSpec()


# null-typed (all-null) columns — e.g. hand-built tables or evolution gaps
# before schema unification — need a concrete type per agg kind: string for
# text/count kernels, int64 for arithmetic. Production buckets always carry
# committed-schema types (resolve_bucket unifies), so this only guards edges.
_NULL_FALLBACK = {
    "nn_count": pa.string(),
    "sum_utf8_len": pa.string(),
    "sum": pa.int64(),
    "min": pa.int64(),
    "max": pa.int64(),
}


def _typed(col: pa.ChunkedArray, kind: str) -> pa.ChunkedArray:
    return (
        col.cast(_NULL_FALLBACK[kind]) if pa.types.is_null(col.type) else col
    )


def _win_start(ts: pa.ChunkedArray, window_s: int) -> pa.ChunkedArray:
    """Tumbling-window start for each event time: epoch-μs integer floor
    division (vectorized, exact — no float round-trip), null-preserving.
    Event times are non-negative in this engine (validated at ingest), so
    truncating integer division IS floor division here."""
    if pa.types.is_null(ts.type):
        return ts.cast(pa.timestamp("us"))
    win_us = int(window_s) * 1_000_000
    epoch = ts.cast(pa.timestamp("us")).cast(pa.int64())
    return pc.multiply(
        pc.divide(epoch, pa.scalar(win_us, pa.int64())),
        pa.scalar(win_us, pa.int64()),
    ).cast(pa.timestamp("us"))


def view_partials(live: pa.Table, spec: ViewSpec = DEFAULT_SPEC) -> pa.Table:
    """Per-bucket partial aggregate of live rows under ``spec`` (vectorized
    Arrow groupby — no Python row loop). Exact totals when every group lives
    in one bucket (key == partition key, unsalted); mergeable via
    ``view_merge`` otherwise. Returns None for empty input (caller skips —
    the authoritative empty schema lives in the view manifest)."""
    if live.num_rows == 0:
        return None
    cols = {spec.key: live[spec.key]}
    if spec.window_s:
        cols["win_start"] = _win_start(live[spec.time_col], spec.window_s)
    aggregations = []
    for a in spec.aggs:
        if a.kind == "count":
            aggregations.append(([], "count_all"))
            continue
        src = _typed(live[a.col], a.kind)
        if a.kind == "sum_utf8_len":
            src = pc.cast(
                pc.utf8_length(
                    pc.coalesce(src.cast(pa.string()), pa.scalar("", pa.string()))
                ),
                pa.int64(),
            )
        cols[f"__{a.name}"] = src
        aggregations.append((f"__{a.name}", _AGG_KINDS[a.kind][0]))
    g = pa.table(cols).group_by(spec.group_keys).aggregate(aggregations)
    out = {k: g[k] for k in spec.group_keys}
    for a in spec.aggs:
        fn = _AGG_KINDS[a.kind][0]
        src_name = "count_all" if a.kind == "count" else f"__{a.name}_{fn}"
        col = g[src_name]
        if a.kind in ("count", "nn_count"):
            col = col.cast(pa.int64())
        out[a.name] = col
    return pa.table(out)


def view_merge(partials: pa.Table, spec: ViewSpec = DEFAULT_SPEC) -> pa.Table:
    """Combine partials that share a key (salted lakes / non-key group
    columns): counts and sums add, mins/maxes fold — the standard
    partial/final combine."""
    if partials.num_rows == 0:
        return partials
    aggregations = [
        (a.name, _AGG_KINDS[a.kind][1]) for a in spec.aggs
    ]
    g = partials.group_by(spec.group_keys).aggregate(aggregations)
    out = {k: g[k] for k in spec.group_keys}
    for a in spec.aggs:
        col = g[f"{a.name}_{_AGG_KINDS[a.kind][1]}"]
        if a.kind in ("count", "nn_count"):
            col = col.cast(pa.int64())
        out[a.name] = col
    return pa.table(out)


def conv_partials(live: pa.Table) -> pa.Table:
    """Default conv-stats view partials (kept for the stable MV_SCHEMA
    surface; generic path: ``view_partials``)."""
    out = view_partials(live, DEFAULT_SPEC)
    return MV_SCHEMA.empty_table() if out is None else out.cast(MV_SCHEMA)


def merge_partials(partials: pa.Table) -> pa.Table:
    """Default conv-stats view merge (see ``view_merge``)."""
    if partials.num_rows == 0:
        return MV_SCHEMA.empty_table()
    return view_merge(partials, DEFAULT_SPEC).cast(MV_SCHEMA)


def refresh_matview(
    lake_dir: str,
    mv_dir: str,
    full: bool = False,
    spec: ViewSpec | None = None,
) -> MatviewRefreshReport:
    """Bring the view up to the lake's committed state.

    Incremental by manifest metadata: a bucket's resolved state is a pure
    function of its committed file list (LWW is deterministic), so bucket
    ``b`` is recomputed only when the fingerprint of its lake file list
    differs from the one recorded at the view's last refresh — exact for
    ordered AND out-of-order binlogs (an LSN-watermark test would re-refresh
    everything forever under a conservative ``disorder_bound`` tail
    watermark, since committed files legitimately carry LSNs above it).
    Compaction changes the file list without changing state and so triggers
    a harmless one-time re-refresh of the folded buckets. Each touched
    bucket resolves its LWW winners, drops tombstones and runs an Arrow
    groupby — with NO shuffle, packed into a few tasks; the driver then
    publishes one atomic ``Manifest`` commit swapping exactly the touched
    buckets' view files (``lifecycle.refresh_consumer``; crash-safe and
    exactly-once like the lake: losers of a concurrent race get
    ``ConcurrentWriterError``, retries rewrite identical content hashes).

    ``full=True`` forces a complete rebuild (used to seed a new view — and
    as the equivalence oracle for the incremental path in tests).

    ``spec`` selects WHAT the view computes (group key + mergeable aggs);
    it is fixed at view creation — persisted in the view manifest so later
    refreshes (and reads) agree without restating it, and a conflicting
    explicit spec fails loudly rather than silently recomputing a different
    view into the same directory."""
    lake_man = Manifest.load(lake_dir)
    stored = (
        Manifest.load(mv_dir).metrics.get("view_spec")
        if Manifest.exists(mv_dir) else None
    )
    if spec is None:
        spec = ViewSpec.from_json(stored) if stored else DEFAULT_SPEC
    elif stored is not None and spec.to_json() != stored:
        raise ValueError(
            f"view at {mv_dir!r} was built with spec {stored}, refusing to "
            f"refresh with a different spec {spec.to_json()}"
        )
    # Validate the spec against the lake's committed schema up front so a
    # typo'd column fails with a clear message, not a KeyError from inside
    # a Ray task (the committed schema is authoritative for every bucket).
    if lake_man.schema_names:
        # live_rows projects away the CDC bookkeeping columns before the
        # aggregate sees the rows, so they are not valid spec inputs.
        known = set(lake_man.schema_names) - {"lsn", "op"}
        wanted = {spec.key} | {a.col for a in spec.aggs if a.col}
        if spec.time_col:
            wanted.add(spec.time_col)
        missing = sorted(wanted - known)
        if missing:
            raise ValueError(
                f"view spec references column(s) {missing} not in the lake "
                f"schema {sorted(known)}"
            )

    # projection pushdown: the view is a pure function of its key + agg
    # columns, so only those (plus the always-read LWW key columns) are
    # decoded from Parquet — at transcript scale a non-text view skips
    # ~all payload I/O (stages/merge.resolve_bucket columns=…)
    view_cols = sorted(
        {spec.key}
        | {a.col for a in spec.aggs if a.col}
        | ({spec.time_col} if spec.time_col else set())
    )

    def recompute(bucket: int, files: list) -> list:
        from ..functions.hashing import content_hash

        agg = view_partials(
            live_rows(resolve_bucket(lake_dir, bucket, files, columns=view_cols)),
            spec,
        )
        if agg is None or agg.num_rows == 0:
            return []
        return [store_file(mv_dir, bucket, "mv", agg, content_hash(agg), prefix="agg")]

    mv_man, refreshed = refresh_consumer(
        lake_man,
        mv_dir,
        recompute,
        # the view definition, fixed at creation
        {"matview_refresh": True, "view_spec": spec.to_json()},
        full=full,
        schema_names=[*spec.group_keys, *(a.name for a in spec.aggs)],
    )
    return MatviewRefreshReport(
        buckets_total=lake_man.num_buckets,
        buckets_refreshed=len(refreshed),
        rows_written=sum(r["row_count"] for rs in refreshed.values() for r in rs),
        mv_version=mv_man.version,
        as_of_watermark=mv_man.global_watermark(),
    )


def build_matview(
    lake_dir: str, mv_dir: str, spec: ViewSpec | None = None
) -> MatviewRefreshReport:
    """Seed a view directory with a full build (= forced refresh)."""
    return refresh_matview(lake_dir, mv_dir, full=True, spec=spec)


def read_matview(mv_dir: str, version: int | None = None):
    """Ray Dataset of the view (the manifest records which spec it holds).
    Partials are exact as stored when every group is bucket-local (key ==
    the lake partition key ``conv_id``, unsalted) — zero shuffle; otherwise
    one groupby over the view-sized partials finishes the combine."""
    import os

    import ray.data

    man = Manifest.load(mv_dir) if version is None else Manifest.load_version(
        mv_dir, version
    )
    stored = man.metrics.get("view_spec")
    spec = ViewSpec.from_json(stored) if stored else DEFAULT_SPEC
    paths = sorted(os.path.join(mv_dir, p) for p in man.all_files())
    if not paths:
        if man.schema_ipc:
            from ..schema import schema_from_b64

            return driver_dataset(schema_from_b64(man.schema_ipc).empty_table())
        return driver_dataset(MV_SCHEMA.empty_table())
    # partitioning=None: the bucket=NNNNN layout is lake plumbing, not a
    # hive partition column of the view
    ds = ray.data.read_parquet(paths, partitioning=None)
    if man.salt_factor == 1 and spec.key == "conv_id":
        # bucket-local groups (a window split is still within the conv's
        # bucket) — the stored partials are already exact, zero shuffle
        return ds
    keys = spec.group_keys
    return ds.groupby(keys[0] if len(keys) == 1 else keys).map_groups(
        lambda t: view_merge(t, spec), batch_format="pyarrow"
    )
