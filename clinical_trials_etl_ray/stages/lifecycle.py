"""Store lifecycle: the maintenance decisions every partitioned store shares.

Five stores persist per-bucket state on the exactly-once ``Manifest``
protocol — the lake, the seen-fingerprint index, the LSH index, the
materialized view and the text index — and the IVF/PQ index keeps
per-list files in a plain directory. They differ in what a partition
holds, how rows are routed to it and how a partition folds; they share
every decision about the partitions themselves, and those live here once:

  - ``partition_width`` / ``open_store``: the creation width (rows over a
    per-partition budget, clamped) and the open-or-create check that an
    existing store's committed layout wins;
  - ``partition_rows`` / ``growth_advice``: the "fullest partition holds
    more than 2 × budget rows" rule and the width to re-partition to;
  - ``fold_commit``: compaction — fold each (bucket, kind)'s files, swap
    them in with a rebase-able commit, collect age-gated orphans;
  - ``layout_commit`` / ``reroute_commit``: the whole-layout swap of a
    rebucket, and an index store's whole rebucket around it;
  - ``refresh_consumer``: recompute the buckets of a lake consumer whose
    lake file lists changed, adopting a new lake layout when there is one;
  - ``bucket_records`` / ``grouped_records``: the per-bucket fan-out over
    committed files (``merge.scan_buckets``) and the hash exchange that
    routes fresh rows to their buckets, both returning the file records
    their writers produced.

Each store keeps only what is its own: its fold kernel, its routing hash,
its warning text and where its advice is recorded.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings

import pyarrow as pa

from ..state.manifest import ORPHAN_DATA_MIN_AGE_SEC, Manifest, bucket_dir
from .merge import _write_immutable, scan_buckets

_RECORDS = pa.schema([("bucket", pa.int64()), ("record", pa.string())])


def partition_width(rows: int, budget: int, floor: int, cap: int) -> int:
    """Partitions needed to hold ``rows`` at ~``budget`` rows each
    (ceil-divided), clamped to ``[floor, cap]``."""
    n = -(-max(0, int(rows)) // budget)
    return max(floor, min(cap, n))


def open_store(
    store_dir: str, num_buckets: int | None, width, rebucket_verb: str,
    strict: bool = True,
) -> Manifest:
    """The store's current manifest, created if absent. ``num_buckets``
    applies only at creation; ``None`` takes ``width()`` (called only
    then — it may count the input). On an existing store the committed
    layout is authoritative: with ``strict`` an explicit mismatching
    ``num_buckets`` raises, naming ``rebucket_verb`` as the fix."""
    if not Manifest.exists(store_dir):
        return Manifest.create(
            store_dir, num_buckets if num_buckets is not None else width()
        )
    man = Manifest.load(store_dir)
    if strict and num_buckets is not None and num_buckets != man.num_buckets:
        raise ValueError(
            f"index at {store_dir!r} has num_buckets={man.num_buckets}, "
            f"requested {num_buckets} — use {rebucket_verb} to change the "
            "layout in place"
        )
    return man


def store_file(
    store_dir: str, bucket: int, kind: str, table: pa.Table, content_hash: str,
    prefix: str | None = None,
) -> dict:
    """Write one index/consumer partition file, immutable and named
    ``<prefix or kind>-<content_hash>.parquet``, and return its manifest
    record (these stores carry no LSN range)."""
    path = _write_immutable(
        table, bucket_dir(store_dir, bucket), f"{prefix or kind}-{content_hash}.parquet"
    )
    return {
        "bucket": int(bucket),
        "path": os.path.relpath(path, store_dir),
        "kind": kind,
        "content_hash": content_hash,
        "row_count": table.num_rows,
        "min_lsn": -1,
        "max_lsn": -1,
    }


def partition_rows(man: Manifest, new_records: list, kind: str | None = None) -> dict:
    """Committed rows per bucket from manifest file metadata (no data
    read) plus ``new_records`` (with ``bucket``) about to be committed;
    only files of ``kind`` when given."""
    rows: dict = {}
    committed = (
        {"bucket": b, **f}
        for b in range(man.num_buckets)
        for f in man.files_for_bucket(b)
    )
    for f in (*committed, *new_records):
        if kind is None or f["kind"] == kind:
            rows[int(f["bucket"])] = rows.get(int(f["bucket"]), 0) + int(f["row_count"])
    return rows


def growth_advice(
    rows_by_part: dict, width: int, budget: int, cap: int, warning,
    stacklevel: int = 2,
) -> tuple:
    """(fullest partition's rows, advised width or None). A store has
    outgrown its layout when its fullest partition holds more than
    2 × ``budget`` rows; the advice is ``min(cap, ceil(total / budget))``
    partitions, given only when that is wider than ``width``. Advice is
    warned as ``warning(fullest, advised)``; ``stacklevel`` counts from
    the caller's frame, as for ``warnings.warn``."""
    fullest = max(rows_by_part.values(), default=0)
    if fullest <= 2 * budget:
        return fullest, None
    advised = partition_width(sum(rows_by_part.values()), budget, 0, cap)
    if advised <= width:
        return fullest, None  # already at the cap
    warnings.warn(warning(fullest, advised), stacklevel=stacklevel + 1)
    return fullest, advised


def bucket_records(data_dir: str, work: dict, fn) -> dict:
    """Run ``fn(bucket, work[bucket])`` — which writes files and returns
    their manifest records — for every bucket of ``work`` as one
    ``scan_buckets`` pass (a few cluster-sized tasks, each shipped only its
    own buckets' work). ``data_dir`` is where the work's files live.
    Records travel as JSON, so they come back exactly as written; a
    record's ``bucket`` key is dropped. Returns ``{bucket: [record...]}``
    for the buckets that produced any."""
    def run(b: int, w):
        recs = [r for r in fn(b, w) if r]
        yield pa.table(
            {"bucket": [b] * len(recs), "record": [json.dumps(r) for r in recs]},
            schema=_RECORDS,
        )

    out: dict = {}
    for row in scan_buckets(data_dir, work, run, _RECORDS.empty_table()).take_all():
        rec = json.loads(row["record"])
        rec.pop("bucket", None)
        out.setdefault(int(row["bucket"]), []).append(rec)
    return out


def grouped_records(ds, key: str, write) -> list:
    """Route ``ds``'s rows to their partition by the ``key`` column (one
    hash exchange) and run ``write(group)`` — a pandas frame of one
    partition's rows, which writes its file and returns the record, or
    None — per partition. Returns the records."""
    import pandas as pd

    def run(g: pd.DataFrame) -> pd.DataFrame:
        info = write(g)
        return pd.DataFrame({"info": pd.Series([info] if info else [], dtype=object)})

    return [
        r["info"]
        for r in ds.groupby(key).map_groups(run, batch_format="pandas").take_all()
    ]  # tiny: ≤ one record per partition


def fold_commit(
    man: Manifest, fold, metrics: dict, min_files: int = 2,
    kinds: set | None = None, split_kinds: bool = True,
) -> int:
    """Compact a store: fold each bucket's files of one kind (each kind of
    ``kinds``, or all kinds in one group with ``split_kinds=False``) into
    ``fold(bucket, files)``'s record when there are at least ``min_files``
    of them. One commit swaps the folded files for the outputs. It names
    the files it ``consumed``, so a commit from a stale ``man`` rebases
    onto whatever a concurrent writer landed meanwhile and keeps those
    files. The orphan sweep after it is age-gated: a concurrent writer's
    staged files are referenced by no snapshot until its commit lands.
    Returns the number of groups folded."""
    work: dict = {}
    for b in range(man.num_buckets):
        groups: dict = {}
        for f in man.files_for_bucket(b):
            if kinds is None or f["kind"] in kinds:
                groups.setdefault(f["kind"] if split_kinds else None, []).append(f)
        picked = tuple(g for g in groups.values() if len(g) >= min_files)
        if picked:
            work[b] = picked
    if not work:
        return 0
    consumed = {f["path"] for groups in work.values() for g in groups for f in g}
    folded = bucket_records(
        man.lake_dir, work, lambda b, groups: [fold(b, g) for g in groups]
    )
    replace = {
        b: [f for f in man.files_for_bucket(b) if f["path"] not in consumed]
        + folded.get(b, [])
        for b in work
    }
    man.commit(
        [],
        new_watermark_lsn=man.global_watermark(),
        replace_buckets=replace,
        consumed_paths=consumed,
        metrics=metrics,
    ).cleanup_orphans(min_data_age_sec=ORPHAN_DATA_MIN_AGE_SEC)
    return sum(len(groups) for groups in work.values())


def layout_commit(
    man: Manifest, records: list, num_buckets: int, salt_factor: int,
    metrics: dict, carry_except: tuple | None = None,
    watermark: int | None = None,
) -> Manifest:
    """Publish a whole new bucket layout: ``records`` (each with its new
    ``bucket``) become the file lists of a ``num_buckets`` ×
    ``salt_factor`` layout in one atomic ``commit_layout``. With
    ``carry_except`` the store's metrics (its parameters) carry forward,
    minus those keys — the advice the re-layout acted on. Bucket
    watermarks are ``watermark``, by default the store's own."""
    by_bucket: dict = {}
    for r in records:
        by_bucket.setdefault(int(r["bucket"]), []).append(
            {k: v for k, v in r.items() if k != "bucket"}
        )
    if carry_except is not None:
        carried = {k: v for k, v in man.metrics.items() if k not in carry_except}
        metrics = {**carried, **metrics}
    return man.commit_layout(
        num_buckets,
        salt_factor,
        by_bucket,
        new_watermark_lsn=man.global_watermark() if watermark is None else watermark,
        metrics=metrics,
    )


def reroute_commit(
    store_dir: str, new_num_buckets: int, routes: dict, metrics: dict,
    carry_except: tuple,
) -> int:
    """Re-partition an index store in place: the files of each kind in
    ``routes`` are read once and re-routed at the new width —
    ``routes[kind] = (stamp, key, write)`` stamps each pandas batch with
    its new partition in column ``key`` and ``write``s one partition (see
    ``grouped_records``) — and ``layout_commit`` swaps the whole layout,
    carrying the store's metrics forward minus ``carry_except``. Returns
    the new manifest version (the current one when the width is
    unchanged)."""
    import ray.data

    man = Manifest.load(store_dir)
    if new_num_buckets == man.num_buckets:
        return man.version
    records: list = []
    for kind, (stamp, key, write) in routes.items():
        files = [
            os.path.join(store_dir, f["path"])
            for b in range(man.num_buckets)
            for f in man.files_for_bucket(b)
            if f["kind"] == kind
        ]
        if files:
            ds = ray.data.read_parquet(files).map_batches(stamp, batch_format="pandas")
            records += grouped_records(ds, key, write)
    return layout_commit(
        man,
        records,
        new_num_buckets,
        man.salt_factor,
        {**metrics, "old_num_buckets": man.num_buckets},
        carry_except=carry_except,
    ).version


def _files_fingerprint(files: list) -> str:
    """Order-insensitive digest of a bucket's committed file list. Content
    hashes name the immutable files, so equal fingerprints ⇒ byte-identical
    inputs ⇒ identical resolved state."""
    ids = sorted(f.get("content_hash") or f["path"] for f in files)
    return hashlib.sha1("\n".join(ids).encode()).hexdigest()


def refresh_consumer(
    lake_man: Manifest, consumer_dir: str, recompute, metrics: dict,
    full: bool = False, schema_names: list | None = None,
) -> tuple:
    """Bring a lake consumer (matview, text index) up to ``lake_man``.

    A bucket's resolved state is a pure function of its committed file
    list, so bucket ``b`` is recomputed — ``recompute(b, files)`` writes
    its artifacts and returns their records — only when the fingerprint of
    its lake file list differs from the one recorded at the consumer's
    last refresh (or with ``full``). One commit swaps exactly those
    buckets' files; if the lake was rebucketed since, every bucket is
    rebuilt and ``layout_commit`` adopts the new layout atomically (older
    consumer versions keep the old one for time travel). The commit's
    metrics are ``metrics`` plus the lake version, the counts and the full
    fingerprint map (the next refresh's skip oracle). ``schema_names``
    records the consumer's schema, read from its first new file, when it
    has none yet. Returns ``(consumer manifest, {bucket: [record...]})``
    over the recomputed buckets."""
    if Manifest.exists(consumer_dir):
        man = Manifest.load(consumer_dir)
        layout_changed = (man.num_buckets, man.salt_factor) != (
            lake_man.num_buckets, lake_man.salt_factor
        )
    else:  # a fresh consumer starts on the lake's current layout
        man = Manifest.create(
            consumer_dir, lake_man.num_buckets, salt_factor=lake_man.salt_factor
        )
        layout_changed = False
    prior = man.metrics.get("bucket_fps", {})
    fps, todo = {}, {}
    for b in range(lake_man.num_buckets):
        files = lake_man.files_for_bucket(b)
        fps[str(b)] = _files_fingerprint(files)
        if full or layout_changed or fps[str(b)] != prior.get(str(b)):
            todo[b] = files
    if not todo:
        return man, {}
    records = bucket_records(lake_man.lake_dir, todo, recompute)
    replace = {b: records.get(b, []) for b in todo}
    metrics = {
        **metrics,
        "lake_version": lake_man.version,
        "buckets_refreshed": len(todo),
        "rows_written": sum(r["row_count"] for rs in replace.values() for r in rs),
        "bucket_fps": fps,
    }
    if layout_changed:
        man = layout_commit(
            man,
            [{"bucket": b, **r} for b, rs in replace.items() for r in rs],
            lake_man.num_buckets,
            lake_man.salt_factor,
            {**metrics, "layout_migrated": True},
            watermark=lake_man.global_watermark(),
        )
        return man, replace
    schema = {}
    first = next((rs[0] for rs in replace.values() if rs), None)
    if schema_names is not None and (man.schema_ipc or first):
        import pyarrow.parquet as pq

        from ..schema import schema_to_b64

        schema = {
            "schema_names": schema_names,
            "schema_ipc": man.schema_ipc or schema_to_b64(
                pq.read_schema(os.path.join(consumer_dir, first["path"]))
            ),
        }
    man = man.commit(
        [],
        new_watermark_lsn=lake_man.global_watermark(),
        replace_buckets=replace,
        metrics=metrics,
        **schema,
    )
    return man, replace
