"""Snapshot bootstrap: create a lake from an existing corpus, then stream.

The standard CDC onboarding flow (Debezium-style snapshot → streaming
handoff): an existing transcript table becomes the lake's initial state,
and the change stream continues from the snapshot's log position. Two
input shapes:

- **Plain corpus** (no ``lsn``/``op`` columns — any transcript-shaped
  Parquet): every row becomes an insert at ``base_lsn`` (default 0, below
  every stream LSN). Sound when the stream's events carry event times at
  or after the snapshot rows' (normal LWW: an older-``ts`` late event
  loses to the snapshot row; a newer one updates it). NOT disorder-proof
  for deletes: a key deleted before the snapshot simply isn't in it, so a
  late pre-snapshot-``ts`` event could resurrect it — use a CDC-aware
  snapshot when the producer has a disorder bound.

- **CDC-aware snapshot** (``lsn`` + ``op`` columns — the output of
  ``export_snapshot``, i.e. the LWW winners INCLUDING delete tombstones):
  rows keep their true ``(ts, lsn)`` rank and tombstones keep guarding
  their keys, so replaying the remaining log converges to exactly the
  state a full from-scratch replay would produce, under any disorder the
  engine itself supports. The lake watermark starts at the snapshot cut,
  so re-delivered pre-cut chunks are skipped (exactly-once handoff).

Scale shape: one pass of ``map_batches`` over the snapshot (zero-copy
Arrow) through the SAME delta-write operator as ingest
(``stages.merge.write_deltas``) and one atomic manifest commit —
shuffle-free, partition-aligned. Additive schema evolution applies:
snapshot columns beyond the transcript schema are carried into the lake's
committed schema.

Reference analog: the reference's bulk first-run scrape → Mongo insert
(trials_extractor/storage/mongodb_storage.py:154-245) before incremental
re-scrapes; here the bulk load and the increments share one code path and
one exactly-once commit protocol.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..state.manifest import Manifest


@dataclass
class BootstrapReport:
    rows_loaded: int = 0
    files_written: int = 0
    watermark_lsn: int = -1
    final_version: int | None = None


def export_snapshot(lake_dir: str, out_dir: str, cut_lsn=None) -> int:
    """Write a CDC-aware snapshot of a lake: the LWW winners INCLUDING
    delete tombstones, with their original ``(lsn, op, ts)`` — the sound
    bootstrap input under out-of-order producers. Returns the cut LSN.

    ``cut_lsn`` (same contract as ``sync_replica``):
      - ``None`` / ``"stable"`` (default): the committed watermark — the
        only sound horizon while producers are still delivering (a
        bootstrap sets the new lake's watermark to the cut, so a cut above
        undelivered LSNs would stale-drop them). NOTE this cut EXCLUDES
        out-of-band writes (``delete_where`` tombstones, ``upsert_table``
        corrections), which deliberately take LSNs above the watermark.
      - ``"committed"``: every committed row (max committed LSN incl.
        out-of-band writes) — the FULL current state; requires quiesced
        producers, like any consistent full export.
      - an int: an explicit LSN cut.

    Implemented as the change feed from the beginning of time to the cut
    (``stages.merge.read_change_feed`` with ``since_lsn=-1`` collapses to
    exactly winners-with-tombstones), written as partitioned Parquet —
    shuffle-free, buckets packed into cluster-sized ``scan_buckets``
    blocks."""
    from ..pipelines.retention import _next_oob_lsn
    from ..stages.merge import read_change_feed

    man = Manifest.load(lake_dir)
    if cut_lsn is None or cut_lsn == "stable":
        cut_lsn = man.global_watermark()
    elif cut_lsn == "committed":
        cut_lsn = _next_oob_lsn(man) - 1
    ds = read_change_feed(lake_dir, since_lsn=-1, until_lsn=int(cut_lsn))
    ds.write_parquet(out_dir)
    return int(cut_lsn)


def bootstrap_lake(
    snapshot,
    lake_dir: str,
    num_buckets: int = 64,
    hot_key_salt: int = 1,
    base_lsn: int = 0,
    cut_lsn: int | None = None,
) -> BootstrapReport:
    """Create ``lake_dir`` from a snapshot; refuse a lake that has already
    committed data. A lake left at its empty version 0 by an interrupted
    bootstrap (or by any writer that crashed before its first commit) is
    resumed: the rerun rewrites the same content-hash-named files and
    commits once.

    ``snapshot``: a Parquet path/dir (or a ``ray.data.Dataset``) of either
    input shape (see module docstring). ``cut_lsn``: the log position the
    snapshot represents — the lake's starting watermark; defaults to the
    snapshot's max ``lsn`` for CDC-aware input and to ``base_lsn`` for
    plain corpora. Streaming then continues with ``replay(binlog, lake)``,
    whose watermark filter skips everything at or below the cut."""
    import ray.data

    from ..stages.merge import with_event_columns, write_deltas

    if Manifest.exists(lake_dir) and Manifest.load(lake_dir).version > 0:
        raise ValueError(
            f"{lake_dir} already has a manifest — bootstrap creates lakes; "
            "use replay() to apply changes to an existing one"
        )

    if isinstance(snapshot, str):
        if os.path.isdir(snapshot):
            paths = sorted(
                os.path.join(snapshot, f)
                for f in os.listdir(snapshot)
                if f.endswith(".parquet")
            )
        else:
            paths = [snapshot]
        if not paths:
            raise ValueError(f"no parquet files under {snapshot}")
        import pyarrow.parquet as pq

        ds = ray.data.read_parquet(paths)
        raw_schemas = [pq.read_schema(p) for p in paths]
    else:
        ds = snapshot
        raw_schemas = [ds.schema().base_schema]

    cdc_aware = all("lsn" in s.names for s in raw_schemas)
    if cdc_aware and cut_lsn is None:
        # max lsn from parquet row-group stats when reading from disk;
        # fall back to a lightweight column scan for in-memory datasets
        if isinstance(snapshot, str):
            import pyarrow.parquet as pq

            mx = base_lsn
            for p in paths:
                md = pq.ParquetFile(p).metadata
                idx = md.schema.to_arrow_schema().get_field_index("lsn")
                for rg in range(md.num_row_groups):
                    st = md.row_group(rg).column(idx).statistics
                    if st is not None and st.has_min_max:
                        mx = max(mx, int(st.max))
            cut_lsn = mx
        else:
            cut_lsn = int(ds.max("lsn"))
    if cut_lsn is None:
        cut_lsn = base_lsn

    from ..schema import schema_to_b64, union_event_schema

    target_schema = union_event_schema(raw_schemas)

    man = Manifest.load_or_create(lake_dir, num_buckets, salt_factor=hot_key_salt)

    ds = ds.map_batches(
        with_event_columns,
        batch_format="pyarrow",
        fn_kwargs={"op": "insert", "lsn": base_lsn},
    )
    out = write_deltas(
        lake_dir, ds, num_buckets=num_buckets, salt_factor=man.salt_factor,
        target_schema=target_schema, watermarks=man.watermarks(), dedupe=False,
    )
    report = BootstrapReport(
        rows_loaded=out.delta_rows,
        files_written=len(out.files),
        watermark_lsn=cut_lsn,
    )
    man = man.commit(
        out.files,
        new_watermark_lsn=cut_lsn,
        schema_names=list(target_schema.names),
        schema_ipc=schema_to_b64(target_schema),
        metrics={"bootstrap_rows": report.rows_loaded, "cut_lsn": cut_lsn},
    )
    report.final_version = man.version
    return report
