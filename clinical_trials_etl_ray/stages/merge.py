"""Per-bucket LWW merge (delta writer), partition-aligned read path, compaction.

Write path (merge-on-read, Hudi/Iceberg-style, shuffle-free): every lake
writer (replay, replica sync, bootstrap, upsert/delete, rebucket) goes
through ``write_deltas``:
  events → (prep: unify schema, add bucket) → optional in-batch dedupe →
  delta writer: each task splits its batch by bucket, filters stale LSNs
  against the broadcast watermark map and writes one immutable
  content-hash-named winner delta per (task, bucket), returning a tiny
  stats row each → manifest file records + counters. The caller commits
  the records atomically (state/manifest.py).

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
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.hashing import content_hash
from ..schema import EVENT_SCHEMA, TRANSCRIPT_SCHEMA
from ..state.manifest import bucket_dir
from .dedupe import dedupe_batch, lww_winners


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
#: read/compact/export pays the snappy premium twice.
LAKE_COMPRESSION = "zstd"

#: rows per Parquet row group in lake files. The conv-predicate scan
#: pushdown prunes at ROW-GROUP granularity via column statistics, and a
#: compacted bucket base at 100-TB scale holds tens of millions of rows —
#: parquet's 1Mi-row default would leave point lookups decoding ~1M rows
#: per hit. 256k keeps pruning fine-grained at negligible metadata cost;
#: small deltas (< one group) are unaffected.
LAKE_ROW_GROUP_SIZE = 262_144


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

    def write_bucket_deltas(batch: pa.Table) -> pa.Table:
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
            wm = watermarks.get(bucket, -1)
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

    return write_bucket_deltas


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


#: prep's global LSN floor for every writer: none. Stale rows (lsn ≤ the
#: committed watermark) are filtered at the delta writer against each
#: bucket's own watermark instead, which makes ``stale_skipped`` an exact
#: count. Correctness is unchanged: a stale row is already in the lake, so
#: even if it wins the in-batch pre-combine, the read path resolves the
#: same global winner.
_NO_LSN_FLOOR = -1


def with_event_columns(t: pa.Table, op: str, lsn: int) -> pa.Table:
    """A transcript-shaped batch as change events: append ``op`` and
    ``lsn`` filled with the given constants where the batch lacks them."""
    n = t.num_rows
    if "op" not in t.column_names:
        t = t.append_column("op", pa.array([op] * n, pa.string()))
    if "lsn" not in t.column_names:
        t = t.append_column("lsn", pa.array([lsn] * n, pa.int64()))
    return t


@dataclass
class DeltaWrite:
    """One ``write_deltas`` pass: the file records to commit and its
    counters. ``rows_in`` counts rows that reached the writer (after the
    dedupe); ``(hot_key, hot_rows)`` is the summed per-task top conv_id, a
    lower bound on the pass's hottest key."""

    files: list
    rows_in: int
    stale_skipped: int
    delta_rows: int
    hot_key: str | None
    hot_rows: int


def write_deltas(
    lake_dir: str,
    events,
    *,
    num_buckets: int,
    salt_factor: int,
    target_schema: pa.Schema | None,
    watermarks: dict,
    dedupe: bool,
    batch_size: int | None = None,
) -> DeltaWrite:
    """The lake's one delta-write operator: prep → (``dedupe``: in-batch
    LWW) → direct delta writer → manifest file records. It writes
    immutable files only; the caller publishes them with one commit.

    ``events`` is a Ray Dataset, run as fused ``map_batches`` and one
    ``take_all`` of the tiny stats (≤ one row per (task, bucket)), or an
    in-memory ``pa.Table``, prepped and written right here in the driver —
    a small correction should not pay for a Ray Data plan. ``watermarks``
    ({bucket: lsn}) gates staleness per bucket. File names are content
    hashes of the logical rows, so a rerun writes the same files."""
    prep_kwargs = {
        "num_buckets": num_buckets,
        "min_lsn_exclusive": _NO_LSN_FLOOR,
        "salt_factor": salt_factor,
        "target_schema": target_schema,
    }
    writer = make_direct_delta_writer(lake_dir, watermarks)
    if isinstance(events, pa.Table):
        batch = prep_batch(events, **prep_kwargs)
        stats = writer(dedupe_batch(batch) if dedupe else batch).to_pylist()
    else:
        ds = events.map_batches(
            prep_batch, batch_format="pyarrow", batch_size=batch_size,
            fn_kwargs=prep_kwargs,
        )
        if dedupe:
            ds = ds.map_batches(
                dedupe_batch, batch_format="pyarrow", batch_size=batch_size
            )
        stats = ds.map_batches(
            writer, batch_format="pyarrow", batch_size=batch_size
        ).take_all()

    files = file_records(stats)
    top: dict = {}
    for r in stats:
        if r.get("top_conv"):
            top[r["top_conv"]] = top.get(r["top_conv"], 0) + int(
                r.get("top_conv_rows") or 0
            )
    hot_key = max(top, key=top.get) if top else None
    return DeltaWrite(
        files=files,
        rows_in=sum(int(r.get("rows_in") or 0) for r in stats),
        stale_skipped=sum(int(r.get("stale_skipped") or 0) for r in stats),
        delta_rows=sum(f["row_count"] for f in files),
        hot_key=hot_key,
        hot_rows=top.get(hot_key, 0),
    )


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
    """The resolver's manifest-stats file pruning (soundness arguments in
    ``iter_resolve_bucket``'s docstring)."""
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
    """Read one lake file whole, with projection + pushed filters: a file
    of the resolver's in-memory run. One open serves the schema, the
    row-group statistics and the read: a ``conv_range`` skips the row
    groups whose conv_id statistics cannot overlap it, and the kept rows
    are filtered in Arrow."""
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


#: parquet read granularity of one sorted-file run (rows per batch)
STREAM_RESOLVE_BATCH_ROWS = 262_144


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


def _keyed(t: pa.Table) -> pa.Table:
    return t.append_column("__key", _merge_key(t))


def _sorted_file_run(
    pf: pq.ParquetFile,
    f: dict,
    needed: list | None,
    target: pa.Schema,
    as_of_lsn: int | None,
    since_lsn: int | None,
    batch_rows: int,
):
    """Generator over one open key-sorted lake file: unified, filtered,
    ``__key``-tagged batches in key order. Never holds more than one parquet
    batch (~``batch_rows`` rows) in memory."""
    from ..schema import unify_to_schema

    names = set(pf.schema_arrow.names)
    cols = [c for c in needed if c in names] if needed is not None else None
    for rb in pf.iter_batches(batch_size=batch_rows, columns=cols):
        t = pa.Table.from_batches([rb])
        if as_of_lsn is not None and f.get("max_lsn", as_of_lsn) > as_of_lsn:
            t = t.filter(pc.less_equal(t["lsn"], as_of_lsn))
        if since_lsn is not None and f.get("min_lsn", since_lsn) <= since_lsn:
            t = t.filter(pc.greater(t["lsn"], since_lsn))
        if t.num_rows:
            yield _keyed(unify_to_schema(t, target))


def _aligned_slices(runs: list, stats: dict | None = None):
    """Safe-boundary merge of key-sorted ``__key``-tagged runs: yields, for
    each successive key range, every run's slice of that range (``None``
    where a run has no row in it), in key order, in bounded memory.

    Invariant: a range ends below ``safe`` = min over non-exhausted runs of
    their buffered max key, so a key below it cannot appear again in any
    run and all of a key's rows meet in exactly ONE range. Peak rows held =
    sum of run buffers (~one parquet batch per sorted run + the in-memory
    run), never the bucket. ``stats['peak_rows']`` records the observed
    maximum."""
    k = len(runs)
    iters = [iter(r) for r in runs]
    bufs: list = [None] * k
    done = [False] * k

    def refill(i) -> None:
        for t in iters[i]:
            if t.num_rows:
                bufs[i] = t if bufs[i] is None else pa.concat_tables([bufs[i], t])
                return
        done[i] = True

    while True:
        # every live run holds a non-empty buffer (or is exhausted)
        for i in range(k):
            if not done[i] and bufs[i] is None:
                refill(i)
        active = [i for i in range(k) if not done[i]]
        if stats is not None:
            held = sum(b.num_rows for b in bufs if b is not None)
            stats["peak_rows"] = max(stats.get("peak_rows", 0), held)
        if not active:
            if any(b is not None for b in bufs):
                yield bufs  # every run exhausted: the rest is one range
            return
        safe = min(bufs[i]["__key"][-1].as_py() for i in active)
        out: list = [None] * k
        for i in range(k):
            if bufs[i] is None:
                continue
            # buffers are key-sorted → the slice is a zero-copy prefix
            n_lt = int(
                pc.sum(pc.cast(pc.less(bufs[i]["__key"], safe), pa.int64())).as_py()
                or 0
            )
            if n_lt:
                out[i] = bufs[i].slice(0, n_lt)
                bufs[i] = None if n_lt == bufs[i].num_rows else bufs[i].slice(n_lt)
        if any(s is not None for s in out):
            yield out
        else:
            # every buffered key equals ``safe``: extend the runs that could
            # still produce it (each refill advances or exhausts a run, so
            # the loop terminates)
            for i in active:
                if bufs[i]["__key"][-1].as_py() == safe:
                    refill(i)


def _resolve(
    lake_dir, files, as_of_lsn, conv_range, since_lsn, columns, stream_rows, stats
):
    """``iter_resolve_bucket``'s body, as a generator whose first item is
    the winners' schema (so ``resolve_bucket`` can type an empty result),
    followed by the winner slabs."""
    from ..schema import unify_to_schema, union_event_schema

    files = _prune_resolve_files(files, as_of_lsn, since_lsn, conv_range)
    if not files:
        yield EVENT_SCHEMA
        return
    needed = None
    if columns is not None:
        needed = list(dict.fromkeys(list(KEY_COLS) + list(columns)))
    # total buffered rows ≈ (#sorted runs × stream_rows): a bucket that
    # accumulated many sorted generations (repeated minor compactions
    # without a major fold) scales each run's batch DOWN so the merge's
    # working set stays ~4×stream_rows regardless of k. Any batch size is
    # correct (the safe-boundary rule is size-agnostic).
    n_sorted = sum(1 for f in files if f.get("sorted"))
    if n_sorted > 4:
        stream_rows = max(16_384, (stream_rows * 4) // n_sorted)

    def streams(f: dict) -> bool:
        # a sorted file of at most one batch is read whole (streaming it
        # would hold the same rows), and a range read takes a sorted
        # file's overlapping row groups in one read (``_read_resolve_file``)
        return (
            bool(f.get("sorted"))
            and conv_range is None
            and (f.get("row_count") is None or f["row_count"] > stream_rows)
        )

    streamed = [f for f in files if streams(f)]
    whole = [f for f in files if not streams(f)]
    tables = dict(zip(
        (f["path"] for f in whole),
        _read_files(
            lambda f: _read_resolve_file(
                lake_dir, f, needed, conv_range, as_of_lsn, since_lsn
            ),
            whole,
        ),
    ))
    pfs: dict = {}
    try:
        for f in streamed:
            pfs[f["path"]] = pq.ParquetFile(os.path.join(lake_dir, f["path"]))
        # every file generation unifies onto the union of their schemas, in
        # file order (older files null-fill columns added later, nested
        # types included); each file is opened exactly once
        target = union_event_schema([
            tables[f["path"]].schema if f["path"] in tables
            else pfs[f["path"]].schema_arrow
            for f in files
        ])
        if needed is not None:
            # the union floors to full EVENT_SCHEMA; project back down so
            # callers see exactly key + requested columns
            target = pa.schema([fld for fld in target if fld.name in needed])
        yield target

        mem = None
        if tables:
            mem = lww_winners(
                pa.concat_tables([unify_to_schema(t, target) for t in tables.values()])
            )
        if not pfs:
            # no streamed run: the in-memory run (LWW winners come out in
            # (conv_id, turn_idx) order, the ``_merge_key`` order) is the slab
            if stats is not None:
                stats["peak_rows"] = max(stats.get("peak_rows", 0), mem.num_rows)
            if mem.num_rows:
                yield mem
            return
        runs: list = []
        if mem is not None and mem.num_rows:
            runs.append([_keyed(mem)])
        runs += [
            _sorted_file_run(
                pfs[f["path"]], f, needed, target, as_of_lsn, since_lsn, stream_rows
            )
            for f in streamed
        ]
        for slices in _aligned_slices(runs, stats):
            w = lww_winners(pa.concat_tables([s for s in slices if s is not None]))
            yield w.drop_columns(["__key"])
    finally:
        for pf in pfs.values():
            pf.close()


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
    """The lake's one bucket resolver: read one bucket's base+delta files
    and yield its LWW winners as slabs in (conv_id, turn_idx) order, in
    bounded memory.

    Winners are full event-payload rows (incl. op/lsn) — tombstones still
    present. Schema evolution across file generations is handled by
    unifying every file onto the union of their schemas (null-fill for
    files written before a column existed).

    Files flagged ``sorted`` in the manifest (compaction output — bases and
    consolidated deltas are written key-sorted, ``compact_bucket``) stream
    as k-way merge runs at ``stream_rows`` granularity; every other file
    (raw ingest deltas — O(data since last compaction), NOT O(bucket)) is
    read whole into one in-memory LWW run (``lww_winners`` emits winners
    in key order), and so are a sorted file of at most one stream batch
    and a sorted file's slice under ``conv_range``. With no streamed run,
    the in-memory run is the one slab. Otherwise a
    slab is emitted only below every unexhausted run's buffered max key
    (``_aligned_slices``), so all versions of a key meet in ONE slab and
    per-slab LWW equals the global LWW (associativity). Peak memory is
    ~(k_sorted × stream_rows + unsorted delta rows + one slab) rows — a
    bucket that outgrew the worker heap resolves as long as compaction
    runs at any cadence. ``stats['peak_rows']`` records the rows held.
    Each file is opened once.

    ``since_lsn`` (exclusive lower bound) restricts to rows with
    lsn > since_lsn — files whose manifest ``max_lsn`` ≤ since_lsn are
    pruned unread. Combined with ``as_of_lsn`` this yields the net-change
    window (since, as_of]; see ``read_change_feed``.

    ``conv_range=(lo, hi)`` (inclusive, either end None-able) prunes files
    whose manifest conv_id min/max cannot overlap the predicate BEFORE any
    read — safe because every version of a key lives in this bucket and a
    pruned file contains no rows for the surviving keys, so LWW winners are
    unaffected. Files without recorded stats (older manifests) are always
    read. Within kept files the predicate is ALSO applied before LWW
    (``_read_resolve_file``): range membership is a function of ``conv_id``
    alone, so dropping out-of-range rows keeps every version of every
    in-range key and LWW winners for them are identical — unlike ``ts``
    predicates, which must stay post-LWW. On sorted files this reads only
    the row groups whose conv_id statistics overlap the range, in one read;
    the caller's post-LWW filter remains as a harmless no-op.

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
    file and null-filled by the schema unification.

    Ingest leaves MANY small delta files per bucket between compactions; on
    a multi-CPU worker they are read over a thread pool (``_read_files``) so
    per-file open/decode latency overlaps instead of serializing.
    Reference analog: Mongo never holds a partition in RAM
    (storage/mongodb_storage.py:204-245 is per-document); this is the
    partition-local equivalent for the lake read."""
    slabs = _resolve(
        lake_dir, files, as_of_lsn, conv_range, since_lsn, columns, stream_rows, stats
    )
    next(slabs)  # the schema
    yield from slabs


def resolve_bucket(
    lake_dir: str,
    bucket: int,
    files: list,
    as_of_lsn: int | None = None,
    conv_range: tuple | None = None,
    since_lsn: int | None = None,
    columns: list | None = None,
) -> pa.Table:
    """One bucket's LWW winners as one table: the concatenation of
    ``iter_resolve_bucket``'s key-ordered slabs (semantics there). An empty
    result keeps the winners' schema (``EVENT_SCHEMA`` when every file is
    pruned)."""
    slabs = _resolve(
        lake_dir, files, as_of_lsn, conv_range, since_lsn, columns,
        STREAM_RESOLVE_BATCH_ROWS, None,
    )
    target = next(slabs)
    tables = list(slabs)
    return pa.concat_tables(tables) if tables else target.empty_table()


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
    ``iter_resolve_bucket``. The result schema is the key columns + the
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
    ``iter_resolve_bucket``). All options compose."""
    from ..state.manifest import Manifest

    man = Manifest.load(lake_dir) if version is None else Manifest.load_version(
        lake_dir, version
    )
    buckets = range(man.num_buckets)
    # point-lookup Bloom prune: a file whose Bloom filter rejects the key
    # provably holds no row of that key (no false negatives), so skipping
    # it cannot change the key's LWW winner — the same soundness argument
    # as the conv_range prune in iter_resolve_bucket. Files without a recorded
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
        for slab in iter_resolve_bucket(
            lake_dir, b, files,
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

    def feed(b: int, files: list):
        for slab in iter_resolve_bucket(
            lake_dir, b, files, as_of_lsn=until_lsn, since_lsn=since_lsn
        ):
            yield slab if committed is None else unify_to_schema(slab, committed)

    empty = (committed if committed is not None else EVENT_SCHEMA).empty_table()
    return scan_buckets(
        lake_dir, work, feed, empty,
        concurrency=concurrency, schema_known=committed is not None,
    )


def _file_ts_us_max(lake_dir: str, f: dict) -> int | None:
    """A file's max event time in epoch µs: its manifest stat, or, for a
    record written without one, read from the file's ts column."""
    if f.get("ts_us_max") is not None:
        return f["ts_us_max"]
    return _ts_us_minmax(
        pq.read_table(os.path.join(lake_dir, f["path"]), columns=["ts"])
    )[1]


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
    tombstones older than (max ts − horizon). Max winner ts equals max row
    ts (the globally max-ts row always wins its key), so the cutoff comes
    from the files' ``ts_us_max`` stats without a resolve.

    Bounded memory: ``iter_resolve_bucket``'s winner slabs, already in
    (conv_id, turn_idx) order, are cut into pieces of exactly
    ``LAKE_ROW_GROUP_SIZE`` rows, one Parquet row group each, written as
    they fill. Sort-within-file tightens the manifest's per-file conv stats
    and gives page-level locality for key scans (the clustered half of the
    secondary-index analog); the output is flagged ``sorted`` so the
    resolver merges it as a streamed run. The file is named by a hash of
    its pieces' IPC bytes, a function of the output rows alone: a retried
    task lands on the same file, and a bucket of one piece gets exactly its
    ``content_hash`` name, so re-compacting a compacted bucket keeps its
    file."""
    import hashlib
    import uuid

    from ..functions.bloom import bloom_b64_from_hashes
    from ..functions.hashing import hash_strings, ipc_bytes

    if out_kind not in ("base", "delta"):
        raise ValueError(f"out_kind must be 'base' or 'delta', got {out_kind!r}")
    if out_kind == "delta" and tombstone_horizon_us is not None:
        raise ValueError(
            "tombstone_horizon_us is unsound for minor (delta-only) "
            "compaction: the base is not rewritten, so a dropped tombstone "
            "would resurrect the base row it deletes"
        )
    cutoff_us = None
    if tombstone_horizon_us is not None:
        ts_maxes = [_file_ts_us_max(lake_dir, f) for f in files]
        ts_maxes = [m for m in ts_maxes if m is not None]
        if ts_maxes:
            cutoff_us = max(ts_maxes) - tombstone_horizon_us

    directory = bucket_dir(lake_dir, bucket)
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".compact.tmp.{uuid.uuid4().hex}")
    sha = hashlib.sha256()
    writer = None
    # per-piece stats: row count, lsn / conv_id / ts (min, max), key hashes
    rows = 0
    lsns: list = []
    convs: list = []
    tss: list = []
    key_hashes: list = []

    def write_piece(t: pa.Table) -> None:
        nonlocal writer, rows
        # one fresh chunk per column: the IPC bytes of a zero-copy slice
        # carry its parent's buffers, so equal rows would hash apart
        t = pa.Table.from_arrays(
            [pa.concat_arrays(c.chunks) for c in t.columns], schema=t.schema
        )
        sha.update(ipc_bytes(t))
        if writer is None:
            writer = pq.ParquetWriter(tmp, t.schema, compression=LAKE_COMPRESSION)
        writer.write_table(t, row_group_size=LAKE_ROW_GROUP_SIZE)
        rows += t.num_rows
        lsns.extend(pc.min_max(t["lsn"]).as_py().values())
        convs.extend(_conv_minmax(t))
        tss.extend(_ts_us_minmax(t))
        key_hashes.append(np.unique(hash_strings(t["conv_id"])))

    pending: list = []
    pending_rows = 0
    try:
        for slab in iter_resolve_bucket(lake_dir, bucket, files):
            if cutoff_us is not None:
                slab = slab.filter(pc.or_(
                    pc.not_equal(slab["op"], "delete"),
                    pc.greater_equal(slab["ts"].cast(pa.int64()), cutoff_us),
                ))
            pending.append(slab)
            pending_rows += slab.num_rows
            while pending_rows >= LAKE_ROW_GROUP_SIZE:
                t = pa.concat_tables(pending)
                write_piece(t.slice(0, LAKE_ROW_GROUP_SIZE))
                pending = [t.slice(LAKE_ROW_GROUP_SIZE)]
                pending_rows -= LAKE_ROW_GROUP_SIZE
        if pending_rows:
            write_piece(pa.concat_tables(pending))
        if writer is None:
            return None
        writer.close()
        writer = None
        h = sha.hexdigest()[:24]
        final = os.path.join(directory, f"{out_kind}-{h}.parquet")
        if os.path.exists(final):
            os.remove(tmp)  # idempotent retry — keep the existing file
        else:
            os.replace(tmp, final)
    finally:
        if writer is not None:
            writer.close()
        if os.path.exists(tmp):
            os.remove(tmp)

    def lo_hi(vals: list) -> tuple:
        vals = [v for v in vals if v is not None]
        return (min(vals), max(vals)) if vals else (None, None)

    (lsn_min, lsn_max), (conv_min, conv_max), (ts_min, ts_max) = map(
        lo_hi, (lsns, convs, tss)
    )
    return {
        "path": os.path.relpath(final, lake_dir),
        "kind": out_kind,
        "content_hash": h,
        "row_count": rows,
        "min_lsn": lsn_min,
        "max_lsn": lsn_max,
        "conv_min": conv_min,
        "conv_max": conv_max,
        # winner event-time range (tombstones included): on a compacted
        # base every row IS the resolved state, so these stats make the
        # ts file prunes in read_final_table tight
        "ts_us_min": ts_min,
        "ts_us_max": ts_max,
        "conv_bloom": bloom_b64_from_hashes(np.concatenate(key_hashes)),
        "sorted": True,
    }


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
    bucket both versions' winners (tombstones included) stream from
    ``iter_resolve_bucket`` in key order, ``_aligned_slices`` pairs their
    slices of each key range, and each pair diffs as a vectorized Arrow
    join on the key: bounded memory, never two whole bucket copies.

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

    def diff(b: int, pair: tuple):
        # both versions' winners stream in key order; aligned slices hold
        # every key's (old, new) winners together, in bounded memory
        runs = [map(_keyed, iter_resolve_bucket(lake_dir, b, files)) for files in pair]
        for slices in _aligned_slices(runs):
            old, new = (
                unify_to_schema(
                    out_schema.empty_table() if t is None
                    else t.drop_columns(["__key"]),
                    out_schema,
                )
                for t in slices
            )
            yield from _diff_tables(old, new)

    return scan_buckets(lake_dir, work, diff, out_schema.empty_table())
