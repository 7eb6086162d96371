"""Write-side lifecycle operators: predicate deletes and physical purge.

``delete_where`` is the lake's DELETE statement: match rows of the CURRENT
committed state by predicate (conv point/range, event-time window), emit
delete tombstones for the matched keys, and commit them through the same
exactly-once manifest protocol as ingest. It is a *logical* delete — the
payload bytes stay in the immutable files until compaction folds them away
— and it composes with normal CDC semantics: a later change event with a
newer ``(ts, lsn)`` legitimately resurrects the key (standard LWW).

``purge_conv`` is the lake's right-to-erasure pass: physically REWRITE
every file that may hold a conversation's rows (tombstones included) with
those rows removed, replacing the files in one manifest commit. After the
commit no retained manifest version ≥ that commit references the payload;
run ``Manifest.expire_versions`` + ``cleanup_orphans`` to drop the old
file generations from disk.

Scale shape: both operators are partition-aligned and shuffle-free.
``delete_where`` reads ONLY the LWW key columns via projection pushdown
(at transcript scale the text column is ~all the bytes — matching a
retention predicate must not move it off disk), and all manifest prunes
(bucket routing, conv min/max, Bloom, ts file ranges) apply to the match
scan. ``purge_conv`` touches only the ≤ ``salt_factor`` candidate buckets
and, inside them, only files whose range/Bloom stats may contain the key —
on a compacted lake that is O(salt_factor) files regardless of lake size.

Reference analog: the reference deletes trial documents by query and
re-inserts corrected ones through Mongo (mongodb_storage.py:154-245);
here both are replayable, exactly-once lake commits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc

from ..schema import EVENT_SCHEMA
from ..state.manifest import Manifest


@dataclass
class DeleteReport:
    matched_rows: int = 0
    files_written: int = 0
    tombstone_lsn: int = -1
    final_version: int | None = None
    dry_run: bool = False


@dataclass
class PurgeReport:
    conv_id: str = ""
    rows_purged: int = 0
    files_rewritten: int = 0
    files_dropped: int = 0
    files_scanned: int = 0
    buckets_scanned: int = 0
    final_version: int | None = None


def _tombstones(batch: pa.Table, lsn: int) -> pa.Table:
    """Matched final-table keys → delete change events.

    The tombstone reuses the matched winner's own ``ts`` and takes the
    first uncommitted LSN: ``(ts, lsn)`` then strictly beats the current
    winner's ``(ts, lsn)`` (same ts, higher lsn), so the delete wins
    deterministically — while an event with a genuinely newer ts keeps
    normal LWW priority over it."""
    n = batch.num_rows
    return pa.Table.from_arrays(
        [
            pa.array([lsn] * n, pa.int64()),
            pa.array(["delete"] * n, pa.string()),
            batch.column("conv_id").cast(pa.string()),
            batch.column("turn_idx").cast(pa.int32()),
            pa.nulls(n, pa.string()),
            pa.nulls(n, pa.string()),
            pa.nulls(n, pa.string()),
            batch.column("ts").cast(pa.timestamp("us")),
        ],
        schema=EVENT_SCHEMA,
    )


def _next_oob_lsn(man: Manifest) -> int:
    """First LSN above every committed ROW — not just above the watermark:
    with a producer disorder bound the commit watermark is held back, so
    committed rows can carry higher LSNs and would otherwise outrank an
    out-of-band write. Manifest per-file max_lsn gives this without opening
    any file."""
    mx = man.global_watermark()
    for b in range(man.num_buckets):
        for f in man.files_for_bucket(b):
            if f.get("max_lsn") is not None:
                mx = max(mx, int(f["max_lsn"]))
    return mx + 1


def delete_where(
    lake_dir: str,
    conv_id: str | None = None,
    conv_range: tuple | None = None,
    ts_min=None,
    ts_max=None,
    dry_run: bool = False,
    allow_full: bool = False,
) -> DeleteReport:
    """Tombstone every current live row matching the predicate; one commit.

    The match scan is ``read_final_table(columns=[])`` — projection
    pushdown decodes only (conv_id, turn_idx, ts, lsn, op) from Parquet,
    and every manifest prune (candidate buckets for ``conv_id``, per-file
    conv min/max + Bloom, sound ts file prunes) applies before any I/O.
    Matched keys flow through the SAME delta-write operator as ingest
    (``stages.merge.write_deltas``): per-bucket immutable
    content-hash-named tombstone deltas, one atomic commit. The tombstone
    LSN is the first LSN above every committed row; the watermark is NOT
    advanced to it (that would stale-drop undelivered producer events in
    between) — the tombstone outranks current winners purely by (ts, lsn).
    Exactly-once: a crash before the commit leaves only unreferenced
    orphans; a re-run recomputes the identical tombstones (same snapshot,
    same LSN) and the commit publishes once.

    Semantics: a logical delete of the CURRENT committed snapshot.
    Concurrent ingest racing this commit fails one writer loudly
    (ConcurrentWriterError) rather than interleaving. Later change events
    with newer ``(ts, lsn)`` re-create the key — that is LWW, not a bug;
    use ``purge_conv`` for physical erasure.

    ``dry_run`` returns the matched-row count without writing anything.
    An empty predicate is refused unless ``allow_full=True`` (truncate).
    """
    from ..stages.merge import read_final_table, write_deltas

    if conv_id is None and conv_range is None and ts_min is None and ts_max is None:
        if not allow_full:
            raise ValueError(
                "refusing a full-table delete without allow_full=True"
            )

    man = Manifest.load(lake_dir)
    tombstone_lsn = _next_oob_lsn(man)
    report = DeleteReport(tombstone_lsn=tombstone_lsn, dry_run=dry_run)

    matched = read_final_table(
        lake_dir,
        conv_id=conv_id,
        conv_range=conv_range,
        ts_min=ts_min,
        ts_max=ts_max,
        columns=[],
    )
    if dry_run:
        report.matched_rows = matched.count()
        report.final_version = man.version
        return report

    ds = matched.map_batches(
        _tombstones, batch_format="pyarrow", fn_kwargs={"lsn": tombstone_lsn}
    )
    out = write_deltas(
        lake_dir, ds, num_buckets=man.num_buckets, salt_factor=man.salt_factor,
        target_schema=None, watermarks=man.watermarks(), dedupe=False,
    )
    if out.files:
        man = man.commit(
            out.files,
            new_watermark_lsn=man.global_watermark(),
            metrics={
                "delete_where": {
                    "conv_id": conv_id,
                    "conv_range": list(conv_range) if conv_range else None,
                    "ts_min": str(ts_min) if ts_min is not None else None,
                    "ts_max": str(ts_max) if ts_max is not None else None,
                },
            },
        )
    report.matched_rows = out.delta_rows
    report.files_written = len(out.files)
    report.final_version = man.version
    return report


@dataclass
class UpsertReport:
    rows_applied: int = 0
    files_written: int = 0
    upsert_lsn: int = -1
    final_version: int | None = None


def upsert_table(lake_dir: str, table, op_default: str = "update") -> UpsertReport:
    """Apply an out-of-band correction/backfill batch — the MERGE INTO of
    the lake. ``table`` is transcript-shaped (a Parquet path/dir, a
    ``ray.data.Dataset``, or a ``pyarrow.Table``) WITHOUT an ``lsn``
    column: every row gets the first LSN above all committed rows and
    ``op_default`` (an ``op`` column in the input overrides it per row, so
    a correction batch can mix updates and deletes).

    LWW semantics are unchanged: a correction wins against the current
    winner iff its ``(ts, lsn)`` ranks higher — with the allocated LSN
    above everything, that means whenever its event time ``ts`` is at or
    after the winner's. To override a row unconditionally, set its ``ts``
    to the current value (e.g. from ``read_final_table``); a correction
    carrying an older event time losing to newer data is the intended
    out-of-order protection, not a failure.

    Same scale/exactly-once shape as ``delete_where``: one shuffle-free
    pass through the ingest delta-write operator
    (``stages.merge.write_deltas``) → one atomic commit; the watermark
    does not advance. An in-memory ``pa.Table`` is written from
    the driver; paths and Datasets run as a Ray Data ``map_batches`` pass.
    Streams keep flowing: a later producer event with a newer
    ``(ts, lsn)`` updates the corrected row as usual."""
    import ray.data

    man = Manifest.load(lake_dir)
    lsn = _next_oob_lsn(man)
    report = UpsertReport(upsert_lsn=lsn)

    if isinstance(table, str):
        table = ray.data.read_parquet(table)
    in_schema = (
        table.schema if isinstance(table, pa.Table) else table.schema().base_schema
    )

    # additive evolution: correction columns beyond the committed schema
    # join it (same union rule as replay); committed columns the batch
    # lacks are null-filled by prep
    from ..schema import schema_from_b64, schema_to_b64, union_event_schema
    from ..stages.merge import with_event_columns, write_deltas

    prior = [schema_from_b64(man.schema_ipc)] if man.schema_ipc else []
    target_schema = union_event_schema(prior + [in_schema])

    if "lsn" in in_schema.names:
        raise ValueError(
            "upsert_table input must not carry an lsn column — LSNs are "
            "allocated by the engine (use replay() for real change-log data)"
        )

    kw = {"op": op_default, "lsn": lsn}
    events = (
        with_event_columns(table, **kw) if isinstance(table, pa.Table)
        else table.map_batches(
            with_event_columns, batch_format="pyarrow", fn_kwargs=kw
        )
    )
    out = write_deltas(
        lake_dir, events, num_buckets=man.num_buckets,
        salt_factor=man.salt_factor, target_schema=target_schema,
        watermarks=man.watermarks(), dedupe=False,
    )
    if out.files:
        man = man.commit(
            out.files,
            new_watermark_lsn=man.global_watermark(),
            schema_names=list(target_schema.names),
            schema_ipc=schema_to_b64(target_schema),
            metrics={"upsert_table": {"lsn": lsn}},
        )
    report.rows_applied = out.delta_rows
    report.files_written = len(out.files)
    report.final_version = man.version
    return report


def purge_conv(lake_dir: str, conv_id: str) -> PurgeReport:
    """Physically erase one conversation from the current file generation.

    Partition-pruned: only the key's ``candidate_buckets`` are visited;
    inside each, files whose manifest conv min/max range excludes the key
    or whose Bloom filter rejects it are kept untouched WITHOUT being
    opened (Blooms have no false negatives, so the skip is sound). Each
    remaining file is rewritten (``scan_buckets``, one pass per bucket) with
    the key's rows — live versions AND tombstones — removed; emptied files
    are dropped from the manifest. One atomic commit swaps the affected
    buckets' file lists; the watermark does NOT advance (a purge is a
    rewrite, not new change data). Re-delivered chunks at or below the
    committed watermark are skipped, so they cannot resurrect the payload;
    with a producer disorder bound, the tail ABOVE the watermark can be
    legitimately re-applied — purge after the log horizon has passed, or
    ``delete_where`` (tombstone) first.

    The old file generation remains referenced by OLDER manifest versions
    (time travel); complete the erasure with
    ``Manifest.expire_versions(keep_last=1)`` + ``cleanup_orphans()``.
    """
    import json

    from ..functions.bloom import bloom_might_contain
    from ..functions.hashing import hash_strings
    from ..stages.merge import (
        _candidate_buckets,
        _conv_bloom,
        _conv_minmax,
        _ts_us_minmax,
        _write_immutable,
        content_hash,
        scan_buckets,
    )
    from ..state.manifest import bucket_dir

    man = Manifest.load(lake_dir)
    key_hash = int(hash_strings([conv_id])[0])
    report = PurgeReport(conv_id=conv_id)

    work: dict[int, list] = {}  # bucket → its files that may contain the key
    kept: dict[int, list] = {}
    for b in _candidate_buckets(key_hash, man.num_buckets, man.salt_factor):
        report.buckets_scanned += 1
        kept[b] = []
        for f in man.files_for_bucket(b):
            lo, hi = f.get("conv_min"), f.get("conv_max")
            out_of_range = (
                lo is not None and hi is not None
                and not (lo <= conv_id <= hi)
            )
            bloom_miss = f.get("conv_bloom") is not None and not bloom_might_contain(
                f["conv_bloom"], key_hash
            )
            if out_of_range or bloom_miss:
                kept[b].append(f)
            else:
                work.setdefault(b, []).append(f)
    scanned = [f for files in work.values() for f in files]
    report.files_scanned = len(scanned)
    if not work:
        report.final_version = man.version
        return report

    # one row per scanned file; the new file record travels as JSON so it
    # comes back exactly as written
    out_schema = pa.schema([
        ("bucket", pa.int64()), ("action", pa.string()),
        ("purged", pa.int64()), ("fileinfo", pa.string()),
    ])

    def rewrite(b: int, files: list):
        import pyarrow.parquet as pq

        out = []
        for f in files:
            t = pq.read_table(os.path.join(lake_dir, f["path"]))
            keep_mask = pc.not_equal(t["conv_id"], conv_id)
            n_purged = t.num_rows - pc.sum(keep_mask.cast(pa.int64())).as_py()
            if n_purged == 0:  # Bloom false positive — file untouched
                out.append({"bucket": b, "action": "kept", "purged": 0,
                            "fileinfo": json.dumps(f)})
                continue
            t2 = t.filter(keep_mask)
            if t2.num_rows == 0:
                out.append({"bucket": b, "action": "dropped",
                            "purged": n_purged, "fileinfo": None})
                continue
            h = content_hash(t2)
            path = _write_immutable(
                t2, bucket_dir(lake_dir, b), f"{f['kind']}-{h}.parquet"
            )
            cmin, cmax = _conv_minmax(t2)
            tmin, tmax = _ts_us_minmax(t2)
            out.append({
                "bucket": b, "action": "rewritten", "purged": n_purged,
                "fileinfo": json.dumps({
                    "path": os.path.relpath(path, lake_dir),
                    "kind": f["kind"],
                    "content_hash": h,
                    "row_count": t2.num_rows,
                    "min_lsn": pc.min(t2["lsn"]).as_py(),
                    "max_lsn": pc.max(t2["lsn"]).as_py(),
                    "conv_min": cmin,
                    "conv_max": cmax,
                    "ts_us_min": tmin,
                    "ts_us_max": tmax,
                    "conv_bloom": _conv_bloom(t2),
                    # a row filter preserves order: a sorted source file
                    # stays streamable after the purge rewrite
                    **({"sorted": True} if f.get("sorted") else {}),
                }),
            })
        yield pa.Table.from_pylist(out, schema=out_schema)

    results = scan_buckets(lake_dir, work, rewrite, out_schema.empty_table()).take_all()
    for r in results:
        b = int(r["bucket"])
        if r["action"] == "dropped":
            report.files_dropped += 1
        else:
            if r["action"] == "rewritten":
                report.files_rewritten += 1
            kept[b].append(json.loads(r["fileinfo"]))
        report.rows_purged += int(r["purged"])

    if report.rows_purged == 0:
        report.final_version = man.version
        return report

    man = man.commit(
        [],
        new_watermark_lsn=man.global_watermark(),
        replace_buckets=kept,
        metrics={"purge_conv": conv_id, "rows_purged": report.rows_purged},
        # rebase-able vs concurrent ingest: only the files this purge
        # actually rewrote/dropped are swapped out on a rebase
        consumed_paths={f["path"] for f in scanned},
    )
    report.final_version = man.version
    return report


@dataclass
class RebucketReport:
    old_num_buckets: int = 0
    new_num_buckets: int = 0
    old_salt_factor: int = 1
    new_salt_factor: int = 1
    rows_routed: int = 0
    files_written: int = 0
    final_version: int | None = None
    noop: bool = False


def rebucket(
    lake_dir: str,
    new_num_buckets: int,
    new_salt_factor: int = 1,
    batch_size: int | None = None,
) -> RebucketReport:
    """In-place re-partitioning of the lake: change the bucket count and/or
    hot-key salt factor WITHOUT replicating to a new directory — the missing
    lifecycle verb for a lake that outgrew its creation-time layout (the
    ``num_buckets`` knob bounds per-bucket merge state; see
    stages/merge.py).

    One pass, one commit: read every bucket's LWW-collapsed winner rows
    (tombstones included — full event rows, op/lsn kept) via the
    shuffle-free change feed pinned at the current version, re-route them
    through the SAME delta-write operator as ingest
    (``stages.merge.write_deltas``, with the in-batch LWW dedupe) at the
    new ``(num_buckets, salt_factor)``, and atomically publish
    a manifest version that swaps the whole layout
    (``lifecycle.layout_commit``). Equivalent by LWW associativity to a
    ``sync_replica`` rebuild into the new layout (pinned by
    tests/test_rebucket.py), but no second lake, no directory move, no
    window where readers see a half-migrated state: older manifest versions
    keep the old layout for time travel, and content-hash file names keep
    the two generations collision-free in the shared bucket dirs. Reclaim
    the old generation with ``Manifest.expire_versions`` once the retention
    window allows.

    The watermark carries over unchanged (a rebucket re-routes committed
    rows; it delivers nothing new), so resumed ingest after the rebucket
    skips/applies exactly the chunks it would have anyway — pass the new
    layout (or ``hot_key_salt="auto"``) to subsequent ``replay`` calls.

    Cost: O(lake) read + write once — the escape hatch to run when the
    hot-key monitor advises a bigger salt or buckets outgrow worker heaps,
    not a steady-state pass. Reference analog: the reference has no
    re-partitioning at all (Mongo re-shards server-side); SURVEY §4 skew
    row."""
    from ..schema import EVENT_SCHEMA, schema_from_b64, union_event_schema
    from ..stages.lifecycle import layout_commit
    from ..stages.merge import read_change_feed, write_deltas

    man = Manifest.load(lake_dir)
    report = RebucketReport(
        old_num_buckets=man.num_buckets,
        new_num_buckets=new_num_buckets,
        old_salt_factor=man.salt_factor,
        new_salt_factor=new_salt_factor,
    )
    if (new_num_buckets, new_salt_factor) == (man.num_buckets, man.salt_factor):
        report.noop = True
        report.final_version = man.version
        return report

    schemas = [EVENT_SCHEMA]
    if man.schema_ipc:
        schemas.append(schema_from_b64(man.schema_ipc))
    target_schema = union_event_schema(schemas)

    feed = read_change_feed(lake_dir, since_lsn=-1, version=man.version)
    # empty watermark map: every winner row is re-routed (nothing is stale
    # relative to the NEW layout, whose buckets have no committed files yet)
    out = write_deltas(
        lake_dir, feed, num_buckets=new_num_buckets,
        salt_factor=new_salt_factor, target_schema=target_schema,
        watermarks={}, dedupe=True, batch_size=batch_size,
    )
    report.rows_routed = out.delta_rows
    report.files_written = len(out.files)
    report.final_version = layout_commit(
        man,
        out.files,
        new_num_buckets,
        new_salt_factor,
        {
            "rebucket": True,
            "old_num_buckets": man.num_buckets,
            "old_salt_factor": man.salt_factor,
            "rows_routed": report.rows_routed,
        },
    ).version
    return report
