"""Per-bucket LWW merge (delta writer), partition-aligned read path, compaction.

Write path (merge-on-read, Hudi/Iceberg-style, shuffle-free):
  events chunk → (prep: unify schema, add bucket) → in-batch dedupe →
  ``make_direct_delta_writer``: each task splits its batch by bucket,
  filters stale LSNs against the broadcast watermark map and writes one
  immutable content-hash-named winner delta per (task, bucket), returning a
  tiny stats row each. The driver turns the stats into manifest file
  records (``file_records``) and commits them atomically
  (state/manifest.py).

Read path: the lake is already hash-partitioned by conv_id, so final-table
resolution needs NO shuffle — each bucket's base+delta files are read, LWW
winners resolved, tombstones dropped, bucket by bucket. ``scan_buckets``
packs the buckets into a few tasks sized to the cluster; a point lookup
runs in the driver.

Compaction folds a bucket's base+deltas into a single new base file
(tombstones retained by default — required for correctness while future
chunks may carry ts-older events; see ``tombstone_horizon_us``).

Reference analog: S10/S11/K6 Mongo insert-or-update / LWW upsert
(trials_extractor/storage/mongodb_storage.py:154-245) re-expressed as a
partition-local, deterministic, exactly-once merge.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.hashing import content_hash
from ..schema import EVENT_SCHEMA, TRANSCRIPT_SCHEMA
from ..state.manifest import bucket_dir
from .dedupe import lww_winners


def prep_batch(
    batch: pa.Table,
    num_buckets: int,
    min_lsn_exclusive: int,
    salt_factor: int = 1,
    target_schema: pa.Schema | None = None,
) -> pa.Table:
    """Stateless prep: unify to the canonical (possibly evolved) schema —
    additive evolution: shards written before a column existed gain a null
    column, nested struct/list payload columns included — drop events at or
    below the global watermark (resume/idempotent re-delivery), validate
    ops, and add the routing ``bucket`` column (hot-key-salted when
    salt_factor > 1, see functions.hashing.salted_bucket_ids)."""
    from ..functions.hashing import salted_bucket_ids
    from ..schema import unify_to_schema

    t = unify_to_schema(batch, target_schema or EVENT_SCHEMA)
    if min_lsn_exclusive >= 0:
        t = t.filter(pc.greater(t["lsn"], min_lsn_exclusive))
    if t.num_rows == 0:
        return t.append_column("bucket", pa.array([], pa.int32()))
    ok = pc.is_in(t["op"], value_set=pa.array(["insert", "update", "delete"]))
    if not pc.all(ok).as_py():
        bad = t.filter(pc.invert(ok))["op"].slice(0, 3).to_pylist()
        raise ValueError(f"invalid op values: {bad}")
    b = salted_bucket_ids(t["conv_id"], t["turn_idx"], num_buckets, salt_factor)
    return t.append_column("bucket", pa.array(b, pa.int32()))


_STATS_SCHEMA = pa.schema(
    [
        pa.field("bucket", pa.int32()),
        pa.field("path", pa.string()),
        pa.field("kind", pa.string()),
        pa.field("content_hash", pa.string()),
        pa.field("row_count", pa.int64()),
        pa.field("min_lsn", pa.int64()),
        pa.field("max_lsn", pa.int64()),
        # per-file conv_id min/max — the manifest-level "secondary index"
        # that lets non-LSN predicates prune files without opening them
        # (reference analog: secondary indexes, mongodb_storage.py:94-134)
        pa.field("conv_min", pa.string()),
        pa.field("conv_max", pa.string()),
        # ingest observability: rows that reached this writer vs rows
        # filtered as already-applied (≤ committed bucket watermark)
        pa.field("rows_in", pa.int64()),
        pa.field("stale_skipped", pa.int64()),
        # per-file event-time range (epoch µs, over ALL rows INCLUDING
        # tombstones — a delete's ts must keep its file un-prunable or a
        # ts_min prune could resurrect the deleted key from older deltas).
        # Enables the sound ts file prunes in read_final_table.
        pa.field("ts_us_min", pa.int64()),
        pa.field("ts_us_max", pa.int64()),
        # base64 Bloom filter over the file's distinct conv_id hashes —
        # point-lookup file prune with no false negatives (functions/bloom)
        pa.field("conv_bloom", pa.string()),
        # hot-key monitor (round-4 VERDICT item 4): the most frequent
        # conv_id in this writer's slice and its row count. The driver
        # sums counts per key across a chunk's stats rows — a LOWER BOUND
        # on the true hottest key's share (a key is only counted in slices
        # where it is the top), tight exactly in the heavy-skew regime the
        # monitor exists for. Reference analog: SURVEY §4 skew row.
        pa.field("top_conv", pa.string()),
        pa.field("top_conv_rows", pa.int64()),
    ]
)


def _top_conv(t: pa.Table) -> tuple:
    """(most frequent conv_id, its count) — vectorized value_counts."""
    if t.num_rows == 0:
        return None, 0
    vc = pc.value_counts(t["conv_id"].combine_chunks())
    counts = vc.field("counts").to_numpy()
    i = int(np.argmax(counts))
    return vc.field("values")[i].as_py(), int(counts[i])


def _conv_bloom(t: pa.Table) -> str:
    from ..functions.bloom import bloom_b64_from_hashes
    from ..functions.hashing import hash_strings

    return bloom_b64_from_hashes(hash_strings(t["conv_id"]))


def _conv_minmax(t: pa.Table) -> tuple[str | None, str | None]:
    mm = pc.min_max(t["conv_id"]).as_py()
    return mm["min"], mm["max"]


def _ts_us_minmax(t: pa.Table) -> tuple[int | None, int | None]:
    """(min, max) of the ts column in epoch microseconds (None if empty or
    all-null)."""
    mm = pc.min_max(t["ts"].cast(pa.int64())).as_py()
    return mm["min"], mm["max"]


def _to_ts_us(value) -> int | None:
    """A user ts predicate (datetime / ISO string / pa scalar / int µs) →
    epoch µs, or None if unconvertible (callers then skip file pruning —
    the row filter still applies, so never wrong, just unpruned)."""
    try:
        if isinstance(value, (int, np.integer)):
            return int(value)
        return pa.scalar(value, pa.timestamp("us")).cast(pa.int64()).as_py()
    except Exception:
        return None


#: Parquet codec for every lake file (deltas, bases, matview partials).
#: Writer-side only — Parquet files self-describe their codec, so mixed
#: generations coexist and readers need no configuration. zstd roughly
#: halves text-heavy payload bytes vs snappy at comparable decode speed —
#: at transcript scale the lake IS text, so storage AND every downstream
#: read/compact/export pays the snappy premium twice. Override with
#: CTE_LAKE_COMPRESSION=snappy for CPU-bound single-node ingest.
LAKE_COMPRESSION = os.environ.get("CTE_LAKE_COMPRESSION", "zstd")

#: rows per Parquet row group in lake files. The conv-predicate scan
#: pushdown prunes at ROW-GROUP granularity via column statistics, and a
#: compacted bucket base at 100-TB scale holds tens of millions of rows —
#: parquet's 1Mi-row default would leave point lookups decoding ~1M rows
#: per hit. 256k keeps pruning fine-grained at negligible metadata cost;
#: small deltas (< one group) are unaffected.
LAKE_ROW_GROUP_SIZE = int(os.environ.get("CTE_LAKE_ROW_GROUP_SIZE", "262144"))


def _write_immutable(table: pa.Table, directory: str, name: str) -> str:
    """Idempotent write: tmp file + atomic rename to a content-hash name.

    A retried task writing the same logical content targets the same final
    path; os.replace makes the last writer harmless. (Content-hash names
    digest the LOGICAL rows, not the file bytes, so the codec knob never
    breaks retry idempotency.)"""
    os.makedirs(directory, exist_ok=True)
    final = os.path.join(directory, name)
    if not os.path.exists(final):
        tmp = final + f".tmp.{os.getpid()}"
        pq.write_table(
            table, tmp,
            compression=LAKE_COMPRESSION,
            row_group_size=LAKE_ROW_GROUP_SIZE,
        )
        os.replace(tmp, final)
    return final


def make_direct_delta_writer(lake_dir: str, watermarks: dict):
    """The delta writer: each (read→prep→dedupe) task splits its
    already-deduped batch by bucket and writes one winner-delta file per
    (task, bucket) directly — no all-to-all exchange at all.

    This is sound because the LWW winner by (ts, lsn) is associative: the
    read path / compaction resolves across any number of per-task deltas to
    the same global winner one consolidated delta per bucket would give.
    The trade is write amplification (tasks × buckets small files per
    chunk) for zero shuffle — the Hudi-style MoR delta-log pattern;
    compaction (partition-aligned, still shuffle-free) folds the files back
    down. ``watermarks`` is the small per-bucket watermark dict captured by
    closure (broadcast once in the serialized task spec)."""

    def write_deltas(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _STATS_SCHEMA.empty_table()
        # hot-key monitor sample: ONE value_counts over the whole (already
        # deduped) task batch; attached to the first stats row below
        batch_top_conv, batch_top_rows = _top_conv(batch)
        b = batch.column("bucket").to_numpy(zero_copy_only=False)
        order = np.argsort(b, kind="stable")
        t_sorted = batch.take(pa.array(order))
        bs = b[order]
        bounds = np.concatenate(
            ([0], np.flatnonzero(np.diff(bs)) + 1, [len(bs)])
        )
        out = []
        for i in range(len(bounds) - 1):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            bucket = int(bs[lo])
            sub = t_sorted.slice(lo, hi - lo)
            rows_in = sub.num_rows
            wm = watermarks.get(bucket, watermarks.get(str(bucket), -1))
            sub = sub.filter(pc.greater(sub["lsn"], wm))
            stale = rows_in - sub.num_rows
            if sub.num_rows == 0:
                if stale:
                    out.append(
                        {"bucket": bucket, "path": None, "kind": "noop",
                         "content_hash": None, "row_count": 0,
                         "min_lsn": -1, "max_lsn": -1,
                         "conv_min": None, "conv_max": None,
                         "rows_in": rows_in, "stale_skipped": stale,
                         "conv_bloom": None}
                    )
                continue
            sub = sub.drop_columns(["bucket"])
            h = content_hash(sub)
            path = _write_immutable(
                sub, bucket_dir(lake_dir, bucket), f"delta-{h}.parquet"
            )
            cmin, cmax = _conv_minmax(sub)
            tmin, tmax = _ts_us_minmax(sub)
            out.append(
                {
                    "bucket": bucket,
                    "path": os.path.relpath(path, lake_dir),
                    "kind": "delta",
                    "content_hash": h,
                    "row_count": sub.num_rows,
                    "min_lsn": pc.min(sub["lsn"]).as_py(),
                    "max_lsn": pc.max(sub["lsn"]).as_py(),
                    "conv_min": cmin,
                    "conv_max": cmax,
                    "rows_in": rows_in,
                    "stale_skipped": stale,
                    "ts_us_min": tmin,
                    "ts_us_max": tmax,
                    "conv_bloom": _conv_bloom(sub),
                }
            )
        if not out:
            return _STATS_SCHEMA.empty_table()
        out[0]["top_conv"] = batch_top_conv
        out[0]["top_conv_rows"] = batch_top_rows
        return pa.Table.from_pylist(out, schema=_STATS_SCHEMA)

    return write_deltas


def file_records(stats) -> list:
    """Writer stats rows (``_STATS_SCHEMA``) → JSON-safe manifest file
    records, one per written file; stale-only ``noop`` rows (metrics, no
    file) are dropped. ``take_all`` may yield numpy scalars, so every
    integer is cast."""

    def opt_int(v):
        return int(v) if v is not None else None

    return [
        {
            "bucket": int(r["bucket"]),
            "path": r["path"],
            "kind": r["kind"],
            "content_hash": r["content_hash"],
            "row_count": int(r["row_count"]),
            "min_lsn": int(r["min_lsn"]),
            "max_lsn": int(r["max_lsn"]),
            "conv_min": r.get("conv_min"),
            "conv_max": r.get("conv_max"),
            # event-time range over all rows, tombstones included: the
            # read path's sound ts prunes apply before any compaction
            "ts_us_min": opt_int(r.get("ts_us_min")),
            "ts_us_max": opt_int(r.get("ts_us_max")),
            # point-lookup file prune (functions/bloom)
            "conv_bloom": r.get("conv_bloom"),
        }
        for r in stats
        if r["kind"] != "noop"
    ]


# ---------------------------------------------------------------------------
# Read path / compaction (partition-aligned, shuffle-free)
# ---------------------------------------------------------------------------


#: columns LWW resolution itself requires — always read even under
#: projection (upsert key + ordering + op)
KEY_COLS = ("conv_id", "turn_idx", "ts", "lsn", "op")


def _prune_resolve_files(
    files: list,
    as_of_lsn: int | None = None,
    since_lsn: int | None = None,
    conv_range: tuple | None = None,
) -> list:
    """Manifest-stats file pruning shared by the eager and streaming
    resolvers (soundness arguments in ``resolve_bucket``'s docstring)."""
    if as_of_lsn is not None:
        files = [f for f in files if f.get("min_lsn", 0) <= as_of_lsn]
    if since_lsn is not None:
        files = [f for f in files if f.get("max_lsn", since_lsn + 1) > since_lsn]
    if conv_range is not None:
        lo, hi = conv_range
        files = [
            f
            for f in files
            if f.get("conv_min") is None
            or f.get("conv_max") is None
            or ((lo is None or f["conv_max"] >= lo)
                and (hi is None or f["conv_min"] <= hi))
        ]
    return files


def _conv_range_rows(t: pa.Table, conv_range: tuple | None) -> pa.Table:
    """The rows of ``t`` whose conv_id lies in ``conv_range=(lo, hi)``
    (inclusive, either end None-able)."""
    if conv_range is None:
        return t
    lo, hi = conv_range
    if lo is not None:
        t = t.filter(pc.greater_equal(t["conv_id"], lo))
    if hi is not None:
        t = t.filter(pc.less_equal(t["conv_id"], hi))
    return t


def _overlapping_row_groups(pf: pq.ParquetFile, conv_range: tuple) -> list:
    """Row groups of ``pf`` whose conv_id min/max statistics can overlap
    ``conv_range``; a row group without statistics is always kept."""
    lo, hi = conv_range
    md = pf.metadata
    col = next(
        (c for c in range(md.num_columns) if md.schema.column(c).path == "conv_id"),
        None,
    )
    keep = []
    for i in range(md.num_row_groups):
        stats = None if col is None else md.row_group(i).column(col).statistics
        if (
            stats is None
            or not stats.has_min_max
            or ((lo is None or stats.max >= lo) and (hi is None or stats.min <= hi))
        ):
            keep.append(i)
    return keep


def _read_resolve_file(
    lake_dir: str,
    f: dict,
    needed: list | None,
    conv_range: tuple | None,
    as_of_lsn: int | None,
    since_lsn: int | None,
) -> pa.Table:
    """Read one lake file with projection + pushed filters (shared by the
    eager resolver and the streaming resolver's unsorted-delta run). One
    open serves the schema, the row-group statistics and the read: a
    ``conv_range`` skips the row groups whose conv_id statistics cannot
    overlap it, and the kept rows are filtered in Arrow."""
    with pq.ParquetFile(os.path.join(lake_dir, f["path"])) as pf:
        cols = None
        if needed is not None:
            present = set(pf.schema_arrow.names)
            cols = [c for c in needed if c in present]
        if conv_range is None:
            t = pf.read(columns=cols)
        else:
            groups = _overlapping_row_groups(pf, conv_range)
            t = _conv_range_rows(pf.read_row_groups(groups, columns=cols), conv_range)
    if as_of_lsn is not None and f.get("max_lsn", as_of_lsn) > as_of_lsn:
        t = t.filter(pc.less_equal(t["lsn"], as_of_lsn))
    if since_lsn is not None and f.get("min_lsn", since_lsn) <= since_lsn:
        t = t.filter(pc.greater(t["lsn"], since_lsn))
    return t


def _read_files(read, files: list) -> list:
    """``[read(f) for f in files]``, fanned over a thread pool no wider than
    the CPUs this process may run on (Arrow's parquet decode releases the
    GIL); sequential when that is one CPU, where threads only add start-up."""
    n = min(8, len(os.sched_getaffinity(0)), len(files))
    if n <= 1 or len(files) <= 2:
        return [read(f) for f in files]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n) as ex:
        return list(ex.map(read, files))


def resolve_bucket(
    lake_dir: str,
    bucket: int,
    files: list,
    as_of_lsn: int | None = None,
    conv_range: tuple | None = None,
    since_lsn: int | None = None,
    columns: list | None = None,
) -> pa.Table:
    """Read one bucket's base+delta files and resolve LWW winners.

    ``since_lsn`` (exclusive lower bound) restricts to rows with
    lsn > since_lsn — files whose manifest ``max_lsn`` ≤ since_lsn are
    pruned unread. Combined with ``as_of_lsn`` this yields the net-change
    window (since, as_of]; see ``read_change_feed``.

    Returns full event-payload rows (incl. op/lsn) — tombstones still present.
    Schema evolution across file generations is handled by unifying every
    file onto EVENT_SCHEMA (null-fill for files written pre-`tool`).

    ``conv_range=(lo, hi)`` (inclusive, either end None-able) prunes files
    whose manifest conv_id min/max cannot overlap the predicate BEFORE any
    read — safe because every version of a key lives in this bucket and a
    pruned file contains no rows for the surviving keys, so LWW winners are
    unaffected. Files without recorded stats (older manifests) are always
    read. Within kept files the predicate is ALSO applied before LWW
    (``_read_resolve_file``): range membership is a function of ``conv_id``
    alone, so dropping out-of-range rows keeps every version of every
    in-range key and LWW winners for them are identical — unlike ``ts``
    predicates, which must stay post-LWW. On compacted (key-sorted) bases
    this skips whole row groups via column statistics; the caller's
    post-LWW filter remains as a harmless no-op.

    ``as_of_lsn`` gives time travel: files are pruned by their manifest
    ``min_lsn`` (no read) and rows filtered to ``lsn <= as_of_lsn`` before
    LWW. EXACT when the cut cleanly separates delivered batches — for an
    LSN-ordered log (disorder 0), any chunk watermark qualifies. With
    out-of-order delivery it is best-effort near chunk tails: ingest writes
    winner deltas, so a row at or below the cut that was superseded (by
    LWW on (ts, lsn)) within the same batch by a row above the cut is
    already collapsed — the same trade as compaction, at batch granularity.
    For exact snapshots of any committed state use
    ``read_final_table(version=...)``.

    ``columns``: projection pushdown — only these payload columns (plus the
    LWW-required ``KEY_COLS``) are decoded from Parquet. At transcript scale
    the ``text`` column IS the table; an aggregate over roles or a turn
    count should not move it off disk. LWW semantics are unaffected: the
    winner is decided entirely by KEY_COLS, which are always read. Columns
    a given file generation lacks (schema evolution) are skipped at that
    file and null-filled by the schema unification below.

    Direct-mode ingest leaves MANY small delta files per bucket between
    compactions; on a multi-CPU worker they are read over a thread pool
    (``_read_files``) so per-file open/decode latency overlaps instead of
    serializing."""
    files = _prune_resolve_files(files, as_of_lsn, since_lsn, conv_range)
    if not files:
        return EVENT_SCHEMA.empty_table()

    needed = None
    if columns is not None:
        needed = list(dict.fromkeys(list(KEY_COLS) + list(columns)))

    tables = _read_files(
        lambda f: _read_resolve_file(
            lake_dir, f, needed, conv_range, as_of_lsn, since_lsn
        ),
        files,
    )
    # unify every file generation onto the union of their schemas (older
    # files null-fill columns added later, nested types included)
    from ..schema import unify_to_schema, union_event_schema

    target = union_event_schema([t.schema for t in tables])
    if needed is not None:
        # the union floors to full EVENT_SCHEMA (null-filling the columns
        # projection skipped — cheap Arrow null arrays, never decoded);
        # project back down so callers see exactly key + requested columns
        target = pa.schema([f for f in target if f.name in needed])
    return lww_winners(pa.concat_tables([unify_to_schema(t, target) for t in tables]))


# ---------------------------------------------------------------------------
# Streaming (bounded-memory) bucket resolution — the 100-TB read path
# ---------------------------------------------------------------------------

#: buckets whose SORTED files hold at least this many rows resolve via the
#: streaming k-way merge in ``read_final_table`` (eager below it — the
#: in-memory path is faster for small buckets). Override with
#: CTE_STREAM_RESOLVE_MIN_ROWS.
STREAM_RESOLVE_MIN_ROWS = 4_000_000

#: parquet read granularity of one streaming run (rows per batch)
STREAM_RESOLVE_BATCH_ROWS = 262_144


def stream_resolve_min_rows() -> int:
    return int(
        os.environ.get("CTE_STREAM_RESOLVE_MIN_ROWS", str(STREAM_RESOLVE_MIN_ROWS))
    )


def _merge_key(t: pa.Table) -> pa.Array:
    """Composite binary merge key whose byte order equals the
    (conv_id ASC, turn_idx ASC) sort order: conv_id + \\x00 + zero-padded
    (turn_idx + 2^31). The \\x00 separator sorts below any text byte, so a
    conv_id that is a strict prefix of another orders identically to the
    two-column comparison; the +2^31 offset keeps negative turn indices
    ordered under the fixed-width decimal encoding."""
    tu = pc.utf8_lpad(
        pc.cast(
            pc.add(pc.cast(t["turn_idx"], pa.int64()), pa.scalar(1 << 31, pa.int64())),
            pa.string(),
        ),
        10,
        "0",
    )
    k = pc.binary_join_element_wise(pc.cast(t["conv_id"], pa.string()), tu, "\x00")
    return k.combine_chunks() if isinstance(k, pa.ChunkedArray) else k


def _sorted_file_run(
    lake_dir: str,
    f: dict,
    needed: list | None,
    target: pa.Schema,
    as_of_lsn: int | None,
    since_lsn: int | None,
    conv_range: tuple | None,
    batch_rows: int,
):
    """Generator over one key-sorted lake file: unified, filtered,
    ``__key``-tagged batches in key order. Never holds more than one parquet
    batch (~``batch_rows`` rows) in memory."""
    from ..schema import unify_to_schema

    pf = pq.ParquetFile(os.path.join(lake_dir, f["path"]))
    try:
        names = set(pf.schema_arrow.names)
        cols = [c for c in needed if c in names] if needed is not None else None
        for rb in pf.iter_batches(batch_size=batch_rows, columns=cols):
            t = pa.Table.from_batches([rb])
            if as_of_lsn is not None and f.get("max_lsn", as_of_lsn) > as_of_lsn:
                t = t.filter(pc.less_equal(t["lsn"], as_of_lsn))
            if since_lsn is not None and f.get("min_lsn", since_lsn) <= since_lsn:
                t = t.filter(pc.greater(t["lsn"], since_lsn))
            t = _conv_range_rows(t, conv_range)
            if t.num_rows == 0:
                continue
            t = unify_to_schema(t, target)
            yield t.append_column("__key", _merge_key(t))
    finally:
        pf.close()


def _kway_merge_lww(runs: list, stats: dict | None = None):
    """K-way merge of key-sorted ``__key``-tagged runs → LWW winner slabs in
    key order, bounded memory.

    Invariant: a slab is emitted only below ``safe`` = min over non-exhausted
    runs of their buffered max key, so every version of a key meets in
    exactly ONE slab and per-slab ``lww_winners`` equals the global LWW
    (associativity). Peak rows held = sum of run buffers (~one parquet batch
    per sorted run + the in-memory delta run), never the bucket.
    ``stats['peak_rows']`` records the observed maximum."""
    k = len(runs)
    iters = [iter(r) for r in runs]
    bufs: list = [None] * k
    done = [False] * k

    def refill(i) -> bool:
        while True:
            try:
                t = next(iters[i])
            except StopIteration:
                done[i] = True
                return False
            if t.num_rows:
                bufs[i] = (
                    t
                    if bufs[i] is None or bufs[i].num_rows == 0
                    else pa.concat_tables([bufs[i], t])
                )
                return True

    for i in range(k):
        refill(i)
    while True:
        for i in range(k):
            if not done[i] and (bufs[i] is None or bufs[i].num_rows == 0):
                refill(i)
        have = [i for i in range(k) if bufs[i] is not None and bufs[i].num_rows]
        active = [i for i in range(k) if not done[i]]
        if stats is not None:
            held = sum(bufs[i].num_rows for i in have)
            if held > stats.get("peak_rows", 0):
                stats["peak_rows"] = held
        if not have:
            if not active:
                return
            continue
        if active:
            safe = min(bufs[i]["__key"][-1].as_py() for i in active)
            emit = []
            total_emit = 0
            for i in have:
                n_lt = int(
                    pc.sum(
                        pc.cast(pc.less(bufs[i]["__key"], safe), pa.int64())
                    ).as_py()
                    or 0
                )
                if n_lt == 0:
                    continue
                # buffers are key-sorted → the emit set is a zero-copy prefix
                emit.append(bufs[i].slice(0, n_lt))
                bufs[i] = (
                    None if n_lt == bufs[i].num_rows else bufs[i].slice(n_lt)
                )
                total_emit += n_lt
            if total_emit == 0:
                # every buffered key equals ``safe`` — extend the runs that
                # could still produce it (progress: each refill advances or
                # exhausts a run, so the loop terminates)
                for i in active:
                    if (
                        bufs[i] is None
                        or bufs[i].num_rows == 0
                        or bufs[i]["__key"][-1].as_py() == safe
                    ):
                        refill(i)
                continue
        else:
            emit = [bufs[i] for i in have]
            for i in have:
                bufs[i] = None
        slab = pa.concat_tables(emit)
        w = lww_winners(slab)
        yield w.take(pc.sort_indices(w, sort_keys=[("__key", "ascending")]))
        if not active:
            if all(b is None or b.num_rows == 0 for b in bufs):
                return


def iter_resolve_bucket(
    lake_dir: str,
    bucket: int,
    files: list,
    as_of_lsn: int | None = None,
    conv_range: tuple | None = None,
    since_lsn: int | None = None,
    columns: list | None = None,
    stream_rows: int = STREAM_RESOLVE_BATCH_ROWS,
    stats: dict | None = None,
):
    """Bounded-memory streaming variant of ``resolve_bucket``: yields LWW
    winner slabs in (conv_id, turn_idx) order instead of materializing the
    whole bucket.

    Files flagged ``sorted`` in the manifest (compaction output — bases and
    consolidated deltas are written key-sorted, ``compact_bucket``) stream
    as k-way merge runs at ``stream_rows`` granularity; unsorted files (raw
    ingest deltas — O(data since last compaction), NOT O(bucket)) are
    resolved in memory into one sorted run. Peak memory is therefore
    ~(k_sorted × stream_rows + unsorted delta rows + one emit slab) rows —
    a bucket that outgrew the worker heap resolves as long as compaction
    runs at any cadence. Winner set is identical to ``resolve_bucket``
    (pinned by tests/test_stream_resolve.py); same filter/projection
    semantics. Reference analog: Mongo never holds a partition in RAM
    (storage/mongodb_storage.py:204-245 is per-document); this is the
    partition-local equivalent for the lake read."""
    from ..schema import unify_to_schema, union_event_schema

    files = _prune_resolve_files(files, as_of_lsn, since_lsn, conv_range)
    if not files:
        return
    needed = None
    if columns is not None:
        needed = list(dict.fromkeys(list(KEY_COLS) + list(columns)))
    target = union_event_schema(
        [pq.read_schema(os.path.join(lake_dir, f["path"])) for f in files]
    )
    if needed is not None:
        target = pa.schema([fld for fld in target if fld.name in needed])

    sorted_files = [f for f in files if f.get("sorted")]
    unsorted = [f for f in files if not f.get("sorted")]
    # total buffered rows ≈ (#sorted runs × stream_rows): a bucket that
    # accumulated many sorted generations (repeated minor compactions
    # without a major fold) scales each run's batch DOWN so the merge's
    # working set stays ~4×stream_rows regardless of k. Any batch size is
    # correct (the safe-boundary rule is size-agnostic); this only bounds
    # memory.
    if len(sorted_files) > 4:
        stream_rows = max(16_384, (stream_rows * 4) // len(sorted_files))
    runs: list = []
    if unsorted:
        tables = _read_files(
            lambda f: _read_resolve_file(
                lake_dir, f, needed, conv_range, as_of_lsn, since_lsn
            ),
            unsorted,
        )
        mem = pa.concat_tables([unify_to_schema(t, target) for t in tables])
        mem = lww_winners(mem)
        if mem.num_rows:
            mem = mem.append_column("__key", _merge_key(mem))
            mem = mem.take(pc.sort_indices(mem, sort_keys=[("__key", "ascending")]))
            runs.append(iter((mem,)))
    for f in sorted_files:
        runs.append(
            _sorted_file_run(
                lake_dir, f, needed, target, as_of_lsn, since_lsn,
                conv_range, stream_rows,
            )
        )
    if not runs:
        return
    for w in _kway_merge_lww(runs, stats=stats):
        yield w.drop_columns(["__key"])


def live_rows(resolved: pa.Table) -> pa.Table:
    """Winners minus delete tombstones, projected to the transcript schema
    plus any evolved payload columns (internal lsn/op dropped)."""
    t = resolved.filter(pc.not_equal(resolved["op"], "delete"))
    return t.select([n for n in t.column_names if n not in ("lsn", "op")])


def candidate_buckets(
    conv_id: str, num_buckets: int, salt_factor: int = 1
) -> list:
    """The (at most ``salt_factor``) buckets that can hold a conv_id's turns
    — the point-lookup prune derived from the salted routing function.

    The arithmetic MUST mirror ``salted_bucket_ids`` exactly, including its
    uint64 wrap of ``h*salt_factor+sub`` (mod 2^64) BEFORE the bucket modulo:
    with unbounded Python ints the candidate set diverges for ~half of all
    keys whenever ``num_buckets`` is not a power of two, silently dropping
    the real bucket from point lookups.
    """
    from ..functions.hashing import hash_strings

    return _candidate_buckets(int(hash_strings([conv_id])[0]), num_buckets, salt_factor)


def _candidate_buckets(key_hash: int, num_buckets: int, salt_factor: int) -> list:
    """``candidate_buckets`` for an already-hashed key."""
    h = np.array([key_hash], dtype=np.uint64)  # array ops wrap silently
    if salt_factor <= 1:
        return [int((h % np.uint64(num_buckets))[0])]
    subs = np.arange(salt_factor, dtype=np.uint64)
    buckets = (h * np.uint64(salt_factor) + subs) % np.uint64(num_buckets)
    return sorted({int(b) for b in buckets})


def _scan_blocks() -> int:
    """How many blocks a bucket scan packs its buckets into: two per CPU
    slot of the Ray cluster (of this process, before Ray starts)."""
    import ray

    if ray.is_initialized():
        return 2 * max(1, int(ray.cluster_resources().get("CPU", 1)))
    return 2 * len(os.sched_getaffinity(0))


def _work_bytes(lake_dir: str, work) -> int:
    """On-disk bytes of the file records in one bucket's work item (a list
    of records, or a tuple of such lists); files already gone count 0."""
    records = [f for part in work for f in part] if isinstance(work, tuple) else work
    total = 0
    for f in records:
        try:
            total += os.path.getsize(os.path.join(lake_dir, f["path"]))
        except OSError:
            pass
    return total


def _pack_buckets(weights: dict, n_groups: int) -> list:
    """Longest-first greedy packing: each bucket, heaviest first, joins the
    currently lightest of ``n_groups`` groups."""
    import heapq

    heap = [(0, i) for i in range(n_groups)]
    groups: list = [[] for _ in range(n_groups)]
    for b in sorted(weights, key=lambda b: (-weights[b], b)):
        load, i = heapq.heappop(heap)
        groups[i].append(b)
        heapq.heappush(heap, (load + weights[b], i))
    return [sorted(g) for g in groups if g]


def driver_dataset(table: pa.Table):
    """A Dataset of one table already in the driver: one ``ray.put`` block
    behind a plan that is already executed, so consuming it starts no
    streaming executor (``ray.data.from_arrow`` runs a metadata task and an
    executor per consumption). Built the way ``Dataset.materialize()``
    builds its output; the Ray Data internals it needs live only here."""
    import ray
    from ray.data._internal.execution.interfaces import RefBundle
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.input_data_operator import InputData
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.block import BlockAccessor
    from ray.data.context import DataContext
    from ray.data.dataset import MaterializedDataset

    meta = BlockAccessor.for_block(table).get_metadata()
    bundle = RefBundle(((ray.put(table), meta),), owns_blocks=False, schema=table.schema)
    ctx = DataContext.get_current().copy()
    ds = MaterializedDataset(
        ExecutionPlan(DatasetStats(metadata={}, parent=None), ctx),
        LogicalPlan(InputData(input_data=[bundle]), ctx),
    )
    ds._plan.execute()  # no-op that marks the plan as executed
    return ds


def scan_buckets(
    lake_dir: str,
    work: dict,
    fn,
    empty: pa.Table,
    in_driver: bool = False,
    concurrency: int | None = None,
    schema_known: bool = True,
):
    """Run a per-bucket pass over a lake as one Ray Dataset: the shared
    fan-out of every bucket-parallel verb (final table, change feed, version
    diff, purge). ``work`` maps each bucket to what its pass needs (its file
    records); ``fn(bucket, work[bucket])`` yields the bucket's result tables;
    ``empty`` is the zero-row result. ``schema_known`` says every table
    ``fn`` yields has ``empty``'s schema: the Dataset is then told it up
    front, so ``schema()`` and ``to_arrow_refs()`` need not run the plan a
    second time just to find it.

    The lake is hash-partitioned on conv_id, so no pass needs a shuffle.
    Buckets are packed into at most 2 × the cluster's CPUs blocks
    (``_scan_blocks``), balanced by file bytes, one task each; a block
    carries only its own buckets' work, never the whole manifest. A plan
    narrowed to one key's candidate buckets (``in_driver``) is smaller than
    Ray Data's own planning and task launch: it runs ``fn`` in the driver
    and returns its result as an already-executed ``driver_dataset``, as
    does a scan with no work. Both paths run the same ``fn`` and return the
    same rows; full scans never run in the driver."""
    if not work:
        return driver_dataset(empty)
    if in_driver:
        tables = [t for b in sorted(work) for t in fn(b, work[b]) if t.num_rows]
        return driver_dataset(
            pa.concat_tables(tables, promote_options="default") if tables else empty
        )
    import pickle

    import ray.data

    weights = {b: _work_bytes(lake_dir, w) for b, w in work.items()}
    groups = _pack_buckets(weights, min(len(work), _scan_blocks()))
    items = [{"work": pickle.dumps([(b, work[b]) for b in g])} for g in groups]

    def scan(batch: pa.Table):
        # generator UDF: a bucket's slabs stream through Ray's block
        # pipeline instead of collecting in the task
        emitted = False
        for blob in batch["work"].to_pylist():
            for b, w in pickle.loads(blob):
                for t in fn(b, w):
                    if t.num_rows:
                        emitted = True
                        yield t
        if not emitted:
            yield empty

    ds = ray.data.from_items(items, override_num_blocks=len(items))
    kwargs = {"concurrency": concurrency} if concurrency else {}
    ds = ds.map_batches(scan, batch_format="pyarrow", batch_size=1, **kwargs)
    if schema_known:
        ds._plan.cache_schema(empty.schema)  # Ray Data has no public setter
    return ds


def _resolve_slabs(lake_dir: str, bucket: int, files: list, stream_min: int, **kw):
    """One bucket's LWW winners: streamed as key-ordered slabs by the
    bounded-memory k-way merge when its sorted files hold at least
    ``stream_min`` rows (a full sync must not materialize a big bucket),
    else resolved eagerly into one table. ``kw`` as ``resolve_bucket``."""
    sorted_rows = sum(int(f.get("row_count") or 0) for f in files if f.get("sorted"))
    if sorted_rows >= stream_min:
        yield from iter_resolve_bucket(lake_dir, bucket, files, **kw)
    else:
        yield resolve_bucket(lake_dir, bucket, files, **kw)


def read_final_table(
    lake_dir: str,
    concurrency: int | None = None,
    as_of_lsn: int | None = None,
    version: int | None = None,
    conv_id: str | None = None,
    conv_range: tuple | None = None,
    ts_min=None,
    ts_max=None,
    columns: list | None = None,
):
    """Ray Dataset of the committed lake state (transcript schema).

    ``columns``: projection pushdown — only these payload columns (plus the
    key/ordering columns LWW needs) are decoded from Parquet; see
    ``resolve_bucket``. The result schema is the key columns + the
    requested columns, in schema order.

    Shuffle-free (the data is already hash-partitioned on conv_id): buckets
    are resolved by ``scan_buckets``, packed into a few tasks of whole
    buckets, each shipped only its own buckets' file records. A ``conv_id``
    lookup touches only the key's candidate buckets and resolves in the
    driver: its result is an already-executed Dataset (``driver_dataset``),
    so the lookup costs its manifest load (cached per version, see
    ``Manifest.load``) and resolve, with no Ray Data task or executor.

    Predicate pushdown (the secondary-index analog, reference:
    mongodb_storage.py:94-134):
      - ``conv_id`` prunes to the key's ``salt_factor`` candidate BUCKETS
        (hash routing), then to files overlapping it (manifest min/max
        stats), then by each file's conv_id Bloom filter (functions/bloom —
        no false negatives, so the skip is sound; decisive on UNCOMPACTED
        deltas whose random-key min/max ranges all overlap);
      - ``conv_range=(lo, hi)`` prunes FILES by per-file conv_id min/max
        recorded in the manifest (compaction sorts each bucket by
        (conv_id, turn_idx), so post-compaction ranges are tight);
      - ``ts_min``/``ts_max`` filter ROWS post-LWW, with two SOUND
        file-level prunes from the manifest's per-file ts range (recorded
        over all rows incl. tombstones):
        (a) ``ts_min``: a file whose max ts < ts_min can be skipped in ANY
            mix of bases/deltas — if a key's true LWW winner lives in that
            file, every other version of the key loses to it and so has
            ts ≤ winner ts < ts_min; the pseudo-winner resolved without the
            file is therefore also removed by the row filter (tombstone
            winners are covered because their ts is in the file stats);
        (b) ``ts_max``: skipping a file whose min ts > ts_max is only sound
            when it empties the ENTIRE bucket (otherwise a superseded older
            version of a key could be resurrected from the remaining
            files), so it is applied as a whole-bucket skip.
        Files without recorded ts stats (older manifests) are always read.
    Time travel: ``version`` reads an older manifest snapshot (retained —
    see Manifest.cleanup_orphans); ``as_of_lsn`` reconstructs the state as
    of an LSN (exact at committed chunk watermarks — see
    ``resolve_bucket``). All options compose."""
    from ..state.manifest import Manifest

    man = Manifest.load(lake_dir) if version is None else Manifest.load_version(
        lake_dir, version
    )
    buckets = range(man.num_buckets)
    # point-lookup Bloom prune: a file whose Bloom filter rejects the key
    # provably holds no row of that key (no false negatives), so skipping
    # it cannot change the key's LWW winner — the same soundness argument
    # as the conv_range prune in resolve_bucket. Files without a recorded
    # filter (older manifests) are always read. The one hash also routes
    # the key to its candidate buckets.
    key_hash = None
    if conv_id is not None:
        from ..functions.hashing import hash_strings

        conv_range = (conv_id, conv_id)
        key_hash = int(hash_strings([conv_id])[0])
        buckets = _candidate_buckets(key_hash, man.num_buckets, man.salt_factor)

    # every bucket unifies onto the manifest's COMMITTED schema — a bucket
    # no evolving run touched still emits the evolved columns (null-filled),
    # so exports carry ONE uniform schema (older lakes without a recorded
    # schema fall back to per-bucket unions)
    committed = None
    if man.schema_ipc:
        from ..schema import schema_from_b64

        full = schema_from_b64(man.schema_ipc)
        committed = pa.schema([f for f in full if f.name not in ("lsn", "op")])
        if columns is not None:
            keep = set(KEY_COLS) | set(columns)
            committed = pa.schema([f for f in committed if f.name in keep])

    # ts file prunes (see docstring): (a) drop files entirely below ts_min;
    # (b) skip buckets whose EVERY file is entirely above ts_max
    ts_min_us = _to_ts_us(ts_min) if ts_min is not None else None
    ts_max_us = _to_ts_us(ts_max) if ts_max is not None else None

    def _pruned_files(b: int) -> list:
        files = man.files_for_bucket(b)
        if key_hash is not None:
            from ..functions.bloom import bloom_might_contain

            files = [
                f
                for f in files
                if f.get("conv_bloom") is None
                or bloom_might_contain(f["conv_bloom"], key_hash)
            ]
        if ts_min_us is not None:
            files = [
                f
                for f in files
                if f.get("ts_us_max") is None or f["ts_us_max"] >= ts_min_us
            ]
        if (
            ts_max_us is not None
            and files
            and all(
                f.get("ts_us_min") is not None and f["ts_us_min"] > ts_max_us
                for f in files
            )
        ):
            files = []
        return files

    work = {b: _pruned_files(b) for b in buckets}
    work = {b: files for b, files in work.items() if files}
    if committed is not None:
        empty = committed.empty_table()
    else:
        # older lakes without a recorded schema: the transcript columns
        keep = set(KEY_COLS) | set(columns or TRANSCRIPT_SCHEMA.names)
        empty = pa.schema(
            [f for f in TRANSCRIPT_SCHEMA if f.name in keep]
        ).empty_table()

    stream_min = stream_resolve_min_rows()

    def _post(t: pa.Table) -> pa.Table:
        t = live_rows(t)
        if committed is not None:
            from ..schema import unify_to_schema

            t = unify_to_schema(t, committed)
        t = _conv_range_rows(t, conv_range)
        # row filters compare in epoch-µs when the predicate converted
        # (accepts datetime / ISO string / int µs uniformly)
        if ts_min is not None:
            t = (
                t.filter(pc.greater_equal(t["ts"].cast(pa.int64()), ts_min_us))
                if ts_min_us is not None
                else t.filter(pc.greater_equal(t["ts"], ts_min))
            )
        if ts_max is not None:
            t = (
                t.filter(pc.less_equal(t["ts"].cast(pa.int64()), ts_max_us))
                if ts_max_us is not None
                else t.filter(pc.less_equal(t["ts"], ts_max))
            )
        return t

    def resolve(b: int, files: list):
        for slab in _resolve_slabs(
            lake_dir, b, files, stream_min,
            as_of_lsn=as_of_lsn, conv_range=conv_range, columns=columns,
        ):
            yield _post(slab)

    return scan_buckets(
        lake_dir, work, resolve, empty, in_driver=conv_id is not None,
        concurrency=concurrency, schema_known=committed is not None,
    )


def read_change_feed(
    lake_dir: str,
    since_lsn: int,
    until_lsn: int | None = None,
    concurrency: int | None = None,
    version: int | None = None,
):
    """Net-change feed for downstream CDC consumers: the LWW-collapsed
    change rows with ``since_lsn < lsn ≤ until_lsn`` (until None = current
    watermark), INCLUDING delete tombstones — full event rows (op/lsn kept)
    so a consumer can apply them to its own copy of the table.

    Shuffle-free like the final-table read (``scan_buckets``: buckets
    packed into a few tasks); files are pruned unread from manifest lsn
    ranges (a consumer polling "changes since my last watermark" touches
    only the delta files committed since — O(new data), not O(lake)).

    Semantics (tested invariant): for any S ≤ U on one manifest snapshot,
    LWW-applying feed(S, U] onto the as-of-S winners yields exactly the
    as-of-U winners — because every file row lands on exactly one side of
    the S cut and LWW is associative. Changes superseded WITHIN the window
    (or collapsed by ingest pre-dedupe / compaction) appear only as their
    net effect — the standard collapsed CDC feed, same granularity as
    ``as_of_lsn`` time travel.

    Reference analog: the reference has no incremental consumption at all
    (SURVEY §4) — downstreams re-exported the full collection
    (trials_extractor/storage/json_exporter.py); this is the Ray-native
    incremental replacement.
    """
    from ..schema import unify_to_schema
    from ..state.manifest import Manifest

    man = (
        Manifest.load(lake_dir)
        if version is None
        else Manifest.load_version(lake_dir, version)
    )

    # one uniform output schema across buckets (evolved columns null-fill)
    committed = None
    if man.schema_ipc:
        from ..schema import schema_from_b64

        committed = schema_from_b64(man.schema_ipc)

    work = {}
    for b in range(man.num_buckets):
        files = [
            f for f in man.files_for_bucket(b)
            if f.get("max_lsn", since_lsn + 1) > since_lsn
            and (until_lsn is None or f.get("min_lsn", 0) <= until_lsn)
        ]
        if files:
            work[b] = files

    stream_min = stream_resolve_min_rows()

    def feed(b: int, files: list):
        for slab in _resolve_slabs(
            lake_dir, b, files, stream_min, as_of_lsn=until_lsn, since_lsn=since_lsn
        ):
            yield slab if committed is None else unify_to_schema(slab, committed)

    empty = (committed if committed is not None else EVENT_SCHEMA).empty_table()
    return scan_buckets(
        lake_dir, work, feed, empty,
        concurrency=concurrency, schema_known=committed is not None,
    )


#: sentinel: streaming compaction could not run soundly (missing ts stats
#: under a tombstone horizon) — caller falls back to the eager path
_EAGER_FALLBACK = object()


def _compact_bucket_streaming(
    lake_dir: str,
    bucket: int,
    files: list,
    tombstone_horizon_us: int | None,
    out_kind: str,
    stream_rows: int = STREAM_RESOLVE_BATCH_ROWS,
    stats: dict | None = None,
):
    """Bounded-memory compaction: pipe ``iter_resolve_bucket`` winner slabs
    straight into a ParquetWriter. Output rows are identical to the eager
    path (same winners, same (conv_id, turn_idx) order — winners have unique
    keys, so the LWW-then-sort of the eager path equals the merge emission
    order). The content-hash filename is computed over the slab IPC stream
    (deterministic for a given input set → retried tasks stay idempotent;
    it intentionally differs from the eager path's whole-table hash, which
    would require materializing the bucket).

    With ``tombstone_horizon_us``, the cutoff needs max winner ts, which
    equals max row ts (the globally max-ts row always wins its key) — read
    from the manifest's per-file ts stats; if any file lacks them, returns
    ``_EAGER_FALLBACK``."""
    import hashlib

    cutoff_us = None
    if tombstone_horizon_us is not None:
        ts_maxes = [f.get("ts_us_max") for f in files]
        if any(m is None for m in ts_maxes):
            return _EAGER_FALLBACK
        cutoff_us = max(ts_maxes) - tombstone_horizon_us

    import uuid

    directory = bucket_dir(lake_dir, bucket)
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".compact.tmp.{uuid.uuid4().hex}")
    sha = hashlib.sha256()
    writer = None
    n_rows = 0
    lsn_min = lsn_max = None
    conv_min = conv_max = None
    ts_min = ts_max = None
    conv_hash_chunks: list = []
    pending: list = []
    pending_rows = 0

    def _flush(force: bool = False):
        nonlocal pending, pending_rows, writer
        if not pending or (not force and pending_rows < LAKE_ROW_GROUP_SIZE):
            return
        t = pa.concat_tables(pending).combine_chunks()
        if writer is None:
            writer = pq.ParquetWriter(
                tmp, t.schema, compression=LAKE_COMPRESSION
            )
        writer.write_table(t, row_group_size=LAKE_ROW_GROUP_SIZE)
        pending, pending_rows = [], 0

    try:
        for slab in iter_resolve_bucket(
            lake_dir, bucket, files, stream_rows=stream_rows, stats=stats
        ):
            if cutoff_us is not None and slab.num_rows:
                keep = pc.or_(
                    pc.not_equal(slab["op"], "delete"),
                    pc.greater_equal(slab["ts"].cast(pa.int64()), cutoff_us),
                )
                slab = slab.filter(keep)
            if slab.num_rows == 0:
                continue
            n_rows += slab.num_rows
            mm = pc.min_max(slab["lsn"]).as_py()
            lsn_min = mm["min"] if lsn_min is None else min(lsn_min, mm["min"])
            lsn_max = mm["max"] if lsn_max is None else max(lsn_max, mm["max"])
            cmin, cmax = _conv_minmax(slab)
            if cmin is not None:
                conv_min = cmin if conv_min is None else min(conv_min, cmin)
                conv_max = cmax if conv_max is None else max(conv_max, cmax)
            tmin, tmax = _ts_us_minmax(slab)
            if tmin is not None:
                ts_min = tmin if ts_min is None else min(ts_min, tmin)
                ts_max = tmax if ts_max is None else max(ts_max, tmax)
            from ..functions.hashing import hash_strings

            conv_hash_chunks.append(np.unique(hash_strings(slab["conv_id"])))
            sink = pa.BufferOutputStream()
            with pa.ipc.new_stream(sink, slab.schema) as w:
                w.write_table(slab)
            sha.update(sink.getvalue().to_pybytes())
            pending.append(slab)
            pending_rows += slab.num_rows
            _flush()
        _flush(force=True)
        if writer is not None:
            writer.close()
            writer = None
        if n_rows == 0:
            return None
        h = sha.hexdigest()[:24]
        final = os.path.join(directory, f"{out_kind}-{h}.parquet")
        if os.path.exists(final):
            os.remove(tmp)  # idempotent retry — keep the existing file
        else:
            os.replace(tmp, final)
        from ..functions.bloom import bloom_b64_from_hashes

        all_hashes = (
            np.unique(np.concatenate(conv_hash_chunks))
            if conv_hash_chunks
            else np.empty(0, dtype=np.uint64)
        )
        return {
            "path": os.path.relpath(final, lake_dir),
            "kind": out_kind,
            "content_hash": h,
            "row_count": n_rows,
            "min_lsn": int(lsn_min),
            "max_lsn": int(lsn_max),
            "conv_min": conv_min,
            "conv_max": conv_max,
            "ts_us_min": ts_min,
            "ts_us_max": ts_max,
            "conv_bloom": bloom_b64_from_hashes(all_hashes),
            "sorted": True,
        }
    finally:
        if writer is not None:
            writer.close()
        if os.path.exists(tmp):
            try:
                os.remove(tmp)
            except FileNotFoundError:
                pass


def compact_bucket(
    lake_dir: str,
    bucket: int,
    files: list,
    tombstone_horizon_us: int | None = None,
    out_kind: str = "base",
) -> dict | None:
    """Fold a bucket's files into one file of ``out_kind``; returns new
    fileinfo.

    out_kind="base" (major compaction): ``files`` must be the bucket's FULL
    list — the output is the bucket's fully resolved state.

    out_kind="delta" (minor compaction): ``files`` is a subset of the
    bucket's DELTA files; they fold into one consolidated delta via the same
    LWW resolution (sound by LWW associativity — resolving deltas among
    themselves, then against the base at read time, yields the same global
    winner). Tombstone dropping is REFUSED here: the untouched base may
    still carry the deleted key, so removing its tombstone would resurrect
    it.

    Tombstones are RETAINED by default even for bases: future (higher-LSN)
    chunks may carry events whose `ts` is older than a delete's — dropping
    the tombstone would resurrect the key. If the producer guarantees
    bounded event-time disorder, pass ``tombstone_horizon_us`` to drop
    tombstones older than (max ts − horizon)."""
    if out_kind not in ("base", "delta"):
        raise ValueError(f"out_kind must be 'base' or 'delta', got {out_kind!r}")
    if out_kind == "delta" and tombstone_horizon_us is not None:
        raise ValueError(
            "tombstone_horizon_us is unsound for minor (delta-only) "
            "compaction: the base is not rewritten, so a dropped tombstone "
            "would resurrect the base row it deletes"
        )
    # big buckets with a sorted base stream-merge instead of materializing:
    # steady-state major compaction (sorted base + fresh deltas) is the one
    # place a bucket larger than worker heap MUST still fold
    sorted_rows = sum(
        int(f.get("row_count") or 0) for f in files if f.get("sorted")
    )
    if sorted_rows >= stream_resolve_min_rows():
        out = _compact_bucket_streaming(
            lake_dir, bucket, files, tombstone_horizon_us, out_kind
        )
        if out is not _EAGER_FALLBACK:
            return out
    resolved = resolve_bucket(lake_dir, bucket, files)
    if tombstone_horizon_us is not None and resolved.num_rows:
        max_ts = pc.max(resolved["ts"]).as_py()
        if max_ts is not None:
            import datetime

            cutoff = max_ts - datetime.timedelta(microseconds=tombstone_horizon_us)
            keep = pc.or_(
                pc.not_equal(resolved["op"], "delete"),
                pc.greater_equal(resolved["ts"], pa.scalar(cutoff, pa.timestamp("us"))),
            )
            resolved = resolved.filter(keep)
    if resolved.num_rows == 0:
        return None
    # sort-within-file on (conv_id, turn_idx): tightens the manifest's
    # per-file conv stats and gives parquet page-level locality for key
    # scans — the clustered half of the secondary-index analog
    resolved = resolved.take(
        pc.sort_indices(
            resolved,
            sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")],
        )
    )
    h = content_hash(resolved)
    path = _write_immutable(
        resolved, bucket_dir(lake_dir, bucket), f"{out_kind}-{h}.parquet"
    )
    cmin, cmax = _conv_minmax(resolved)
    tmin, tmax = _ts_us_minmax(resolved)
    return {
        "path": os.path.relpath(path, lake_dir),
        "kind": out_kind,
        "content_hash": h,
        "row_count": resolved.num_rows,
        "min_lsn": pc.min(resolved["lsn"]).as_py(),
        "max_lsn": pc.max(resolved["lsn"]).as_py(),
        "conv_min": cmin,
        "conv_max": cmax,
        # winner event-time range (tombstones included): on a compacted
        # base every row IS the resolved state, so these stats make the
        # ts file prunes in read_final_table tight
        "ts_us_min": tmin,
        "ts_us_max": tmax,
        "conv_bloom": _conv_bloom(resolved),
        # written key-sorted (the take above) — the streaming resolver
        # (iter_resolve_bucket) merges flagged files in bounded memory
        "sorted": True,
    }


def _paired_key_slabs(iter_a, iter_b):
    """Align two key-sorted unique-key winner streams (iter_resolve_bucket
    outputs) into (slab_a, slab_b) pairs covering the SAME key range —
    every key's (old, new) versions meet in exactly one pair, in bounded
    memory (the two-stream sibling of ``_kway_merge_lww``'s safe-boundary
    rule; a key below both streams' buffered max cannot appear again in
    either)."""
    iters = [iter(iter_a), iter(iter_b)]
    bufs: list = [None, None]
    done = [False, False]

    def refill(i) -> bool:
        while True:
            try:
                t = next(iters[i])
            except StopIteration:
                done[i] = True
                return False
            if t.num_rows:
                t = t.append_column("__key", _merge_key(t))
                bufs[i] = (
                    t
                    if bufs[i] is None or bufs[i].num_rows == 0
                    else pa.concat_tables([bufs[i], t])
                )
                return True

    refill(0)
    refill(1)
    while True:
        for i in (0, 1):
            if not done[i] and (bufs[i] is None or bufs[i].num_rows == 0):
                refill(i)
        have = [i for i in (0, 1) if bufs[i] is not None and bufs[i].num_rows]
        active = [i for i in (0, 1) if not done[i]]
        if not have:
            if not active:
                return
            continue
        if active:
            safe = min(bufs[i]["__key"][-1].as_py() for i in active)
            out = [None, None]
            total = 0
            for i in have:
                n_lt = int(
                    pc.sum(
                        pc.cast(pc.less(bufs[i]["__key"], safe), pa.int64())
                    ).as_py()
                    or 0
                )
                if n_lt:
                    out[i] = bufs[i].slice(0, n_lt)
                    bufs[i] = (
                        None if n_lt == bufs[i].num_rows else bufs[i].slice(n_lt)
                    )
                    total += n_lt
            if total == 0:
                for i in active:
                    if (
                        bufs[i] is None
                        or bufs[i].num_rows == 0
                        or bufs[i]["__key"][-1].as_py() == safe
                    ):
                        refill(i)
                continue
        else:
            out = [bufs[0], bufs[1]]
            bufs = [None, None]
        yield (
            out[0].drop_columns(["__key"]) if out[0] is not None else None,
            out[1].drop_columns(["__key"]) if out[1] is not None else None,
        )
        if not active and all(b is None or b.num_rows == 0 for b in bufs):
            return


def diff_versions(lake_dir: str, v_old: int, v_new: int | None = None):
    """Audit diff between two committed versions of the SAME lake: a Ray
    Dataset of the rows you would apply to the ``v_old`` state to obtain
    the ``v_new`` state (default: current). Output = the ``v_new`` winner
    rows whose ``(ts, lsn, op)`` differ from (or don't exist in) the
    ``v_old`` winners, PLUS synthetic ``op='purge'`` key rows for keys
    present in ``v_old`` but physically absent from ``v_new`` (a
    ``purge_conv`` removes a key's rows AND tombstones, which no LSN-based
    feed can represent). This is the version-based complement of
    ``read_change_feed``: it sees out-of-band writes above the watermark,
    compaction effects (none, by LWW — folded buckets fingerprint-skip),
    and physical erasure.

    Scale shape: shuffle-free (``scan_buckets``), and buckets whose
    committed file lists carry identical content-hash fingerprints are
    skipped WITHOUT any I/O — an audit of a small commit touches only the
    buckets that commit changed, O(change) not O(lake). Within a touched
    bucket both versions resolve (winners incl. tombstones) and the diff
    is a vectorized Arrow join on the key.

    Time travel durability: exact while both versions are retained
    (``Manifest.expire_versions`` keeps the window; a cleaned-up ``v_old``
    raises at file-read time rather than fabricating a diff).
    """
    from ..state.manifest import Manifest

    man_old = Manifest.load_version(lake_dir, v_old)
    man_new = (
        Manifest.load(lake_dir) if v_new is None
        else Manifest.load_version(lake_dir, v_new)
    )
    if man_old.num_buckets != man_new.num_buckets:
        raise ValueError(
            "diff_versions requires both versions to share the bucket "
            f"layout (got {man_old.num_buckets} vs {man_new.num_buckets})"
        )

    import hashlib

    def _fp(files):
        ids = sorted(f.get("content_hash") or f["path"] for f in files)
        return hashlib.sha1("\n".join(ids).encode()).hexdigest()

    work = {}
    for b in range(man_new.num_buckets):
        fo, fn = man_old.files_for_bucket(b), man_new.files_for_bucket(b)
        if _fp(fo) != _fp(fn):
            work[b] = (fo, fn)

    from ..schema import schema_from_b64, unify_to_schema, union_event_schema

    out_schema = None
    if man_new.schema_ipc:
        out_schema = schema_from_b64(man_new.schema_ipc)
    elif man_old.schema_ipc:
        out_schema = schema_from_b64(man_old.schema_ipc)
    if out_schema is None:
        out_schema = EVENT_SCHEMA
    out_schema = union_event_schema([out_schema])  # floor in lsn/op

    def _diff_tables(old: pa.Table, new: pa.Table) -> list:
        """Vectorized audit diff of aligned (same key range) winner sets:
        v_new rows whose (key, ts, lsn, op) identity changed, plus
        synthetic op='purge' rows for keys present only in v_old."""
        out = []

        def key(t):
            return pc.binary_join_element_wise(
                t["conv_id"].cast(pa.string()),
                pc.cast(t["turn_idx"], pa.string()),
                "\x1f",
            )

        ko, kn = key(old), key(new)
        # identity of a winner = (key, ts, lsn, op); any change in
        # those re-emits the v_new row
        def ident(t, k):
            return pc.binary_join_element_wise(
                k,
                pc.cast(t["ts"].cast(pa.int64()), pa.string()),
                pc.cast(t["lsn"], pa.string()),
                t["op"].cast(pa.string()),
                "\x1f",
            )

        io_, in_ = ident(old, ko), ident(new, kn)
        changed = pc.invert(pc.is_in(in_, value_set=io_.combine_chunks()))
        out.append(new.filter(changed))

        # keys physically gone from v_new (purge): in old, not in new
        gone = pc.invert(pc.is_in(ko, value_set=kn.combine_chunks()))
        gone_rows = old.filter(gone)
        if gone_rows.num_rows:
            n = gone_rows.num_rows
            purge = gone_rows.set_column(
                gone_rows.column_names.index("op"),
                "op",
                pa.array(["purge"] * n, pa.string()),
            )
            out.append(purge)
        return out

    stream_min = stream_resolve_min_rows()

    def diff(b: int, pair: tuple):
        # big buckets diff as aligned streaming slab pairs (each version
        # resolved via the bounded-memory k-way merge), so a version audit
        # never holds two full bucket copies per task
        files_old, files_new = pair
        big = max(
            sum(int(f.get("row_count") or 0) for f in fl if f.get("sorted"))
            for fl in pair
        )
        if big >= stream_min:
            pairs = _paired_key_slabs(
                iter_resolve_bucket(lake_dir, b, files_old),
                iter_resolve_bucket(lake_dir, b, files_new),
            )
            for slab_old, slab_new in pairs:
                old = unify_to_schema(
                    slab_old if slab_old is not None
                    else out_schema.empty_table(),
                    out_schema,
                )
                new = unify_to_schema(
                    slab_new if slab_new is not None
                    else out_schema.empty_table(),
                    out_schema,
                )
                yield from _diff_tables(old, new)
        else:
            old = unify_to_schema(
                resolve_bucket(lake_dir, b, files_old), out_schema
            )
            new = unify_to_schema(
                resolve_bucket(lake_dir, b, files_new), out_schema
            )
            yield from _diff_tables(old, new)

    return scan_buckets(lake_dir, work, diff, out_schema.empty_table())
