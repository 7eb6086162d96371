"""Cross-run incremental deduplication: a persisted seen-fingerprint index.

At 100 TB you cannot re-shuffle the historical corpus to dedup each day's
increment against it. The engine instead keeps a SEEN-FINGERPRINT INDEX —
one md5 per distinct document ever ingested (~16 bytes/doc, 4 orders of
magnitude smaller than the corpus) — stored PRE-PARTITIONED by fingerprint
hash into ``num_buckets`` parquet partitions and published through the same
exactly-once ``Manifest`` commit protocol as the lake (optimistic-
concurrency version files, content-hash-named immutable files, orphan
cleanup, time travel).

Dedup of an increment exchanges ONLY the increment: one ``map_batches``
stamps ``(md5, bucket)`` per row, ONE hash groupby routes each row to its
fingerprint's bucket, and one task per touched bucket reads that bucket's
index partition (index_size / num_buckets rows) and drops rows whose
fingerprint is already present. The historical corpus is never read or
moved. Partitioning assumption: one bucket's index slice plus one bucket's
share of the increment fit a worker heap — ``num_buckets`` is the knob,
the same constraint ``read_final_table`` documents.

``update_seen_index`` appends each bucket's NOVEL fingerprints (set-minus
against the existing partition, within-increment deduped) as new immutable
files, so the index is append-only and mergeable; because the bucket
routing is deterministic, building it in N increments equals building it
in one shot. ``filter_then_update`` runs both against ONE stamping pass.

Reference analog: the scraper's Mongo unique index on nct_id
(trials_extractor/storage/mongodb_storage.py:94-134) is the same
"have I seen this document before" state, rebuilt as a distributed,
versioned, pre-partitioned fingerprint lake instead of a server-side
B-tree consulted per insert.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.hashing import hash_strings
from ..state.manifest import Manifest
from .lifecycle import (
    fold_commit,
    grouped_records,
    growth_advice,
    open_store,
    partition_rows,
    partition_width,
    reroute_commit,
    store_file,
)

FP_COL = "_fp"
BUCKET_COL = "_fp_bucket"

#: target committed fingerprints per index partition at CREATION; the
#: first increment sizes the layout, ``rebucket_seen_index`` re-sizes it
#: in place when history outgrows it (rules: stages/lifecycle.py)
SEEN_PARTITION_FP_BUDGET = 2_000_000
SEEN_MIN_BUCKETS = 32  # small corpora keep the historical layout floor
SEEN_MAX_BUCKETS = 65_536


def seen_index_width(n_docs: int) -> int:
    """Creation-time partition count for the fingerprint store, scaled
    with the first increment: ``n_docs`` fingerprints land in partitions
    of ~SEEN_PARTITION_FP_BUDGET each (``lifecycle.partition_width``);
    floors at SEEN_MIN_BUCKETS, caps at SEEN_MAX_BUCKETS."""
    return partition_width(
        n_docs, SEEN_PARTITION_FP_BUDGET, SEEN_MIN_BUCKETS, SEEN_MAX_BUCKETS
    )


@dataclass
class SeenIndexReport:
    """What one index update did (mirrors ``ReplayReport`` observability)."""

    buckets_touched: int = 0
    fps_added: int = 0
    version: int = 0


def stamp_fingerprints(
    df: pd.DataFrame, text_col: str, num_buckets: int
) -> pd.DataFrame:
    """Append (md5 hex, fingerprint bucket) columns. md5 is per-row by
    nature (DuckDB-md5 oracle parity — same trade as ``stages.text
    .md5_exact``); the bucket routing is the vectorized uint64 hash."""
    fps = [
        hashlib.md5((t if isinstance(t, str) else "").encode()).hexdigest()
        for t in df[text_col]
    ]
    out = df.copy()
    out[FP_COL] = fps
    out[BUCKET_COL] = (
        hash_strings(np.asarray(fps, dtype=object)) % np.uint64(num_buckets)
    ).astype(np.int32)
    return out


def _bucket_seen_among(index_dir: str, files: list, fps) -> pd.Index:
    """The subset of ``fps`` already committed in this bucket — probe-
    bounded parquet pushdown: index files are written SORTED by fp, so the
    ``isin`` filter prunes row groups via column stats and the task
    materializes only the intersection (O(duplicates in this bucket)),
    never the partition history. The same working-set bound as
    ``lsh_index._read_postings``."""
    probe = [f for f in dict.fromkeys(fps)]
    if not files or not probe:
        return pd.Index([], dtype=object)
    import pyarrow.dataset as pads

    flt = pads.field("fp").isin(probe)
    tables = [
        pq.read_table(
            os.path.join(index_dir, f["path"]), columns=["fp"], filters=flt
        )
        for f in files
    ]
    return pd.Index(pa.concat_tables(tables)["fp"].to_pandas())


def _novel_file_info(index_dir: str, bucket: int, novel: list) -> dict:
    h = hashlib.sha1("\n".join(novel).encode()).hexdigest()[:16]
    return store_file(
        index_dir, bucket, "seen", pa.table({"fp": pa.array(novel, pa.string())}), h
    )


def update_seen_index(
    index_dir: str, ds, text_col: str = "text", num_buckets: int | None = None
) -> SeenIndexReport:
    """Fold a dataset's fingerprints into the index (create it if absent).

    One increment-only exchange; one task per touched bucket computes the
    set-minus against that bucket's committed partition and writes the
    novel fingerprints as an immutable content-hash-named file (idempotent
    under task retry); ONE atomic manifest commit publishes all of them.

    ``num_buckets`` matters only at CREATION: ``None`` (default) derives
    the partition count from the first increment's size
    (``seen_index_width``). On an existing index the committed layout is
    authoritative (an explicit mismatching value raises); grow an outgrown
    layout in place with ``rebucket_seen_index``.
    """
    man = open_store(
        index_dir, num_buckets, lambda: seen_index_width(ds.count()),
        "rebucket_seen_index",
    )
    buckets = man.num_buckets
    stamped = ds.map_batches(
        lambda df: stamp_fingerprints(df, text_col, buckets)[
            [FP_COL, BUCKET_COL]
        ],
        batch_format="pandas",
    )
    return _update_from_stamped(man, stamped)


def _update_from_stamped(man: Manifest, stamped) -> SeenIndexReport:
    index_dir = man.lake_dir
    files_by_bucket = {
        b: man.files_for_bucket(b) for b in range(man.num_buckets)
    }

    def write_novel(g: pd.DataFrame):
        bucket = int(g[BUCKET_COL].iat[0])
        seen = _bucket_seen_among(
            index_dir, files_by_bucket[bucket], g[FP_COL]
        )
        novel = sorted(set(g[FP_COL][~g[FP_COL].isin(seen)]))
        return _novel_file_info(index_dir, bucket, novel) if novel else None

    infos = grouped_records(stamped, BUCKET_COL, write_novel)

    # growth advisory from manifest file metadata, this increment included;
    # the advice is recorded in the commit metrics for automation to act on
    max_part_rows, advice_width = growth_advice(
        partition_rows(man, infos),
        man.num_buckets,
        SEEN_PARTITION_FP_BUDGET,
        SEEN_MAX_BUCKETS,
        lambda fullest, advised: (
            f"seen index at {index_dir!r}: fullest partition holds {fullest} "
            f"fingerprints (> 2x the {SEEN_PARTITION_FP_BUDGET}-row budget) "
            f"at num_buckets={man.num_buckets}; run "
            f"rebucket_seen_index(index_dir, {advised}) to re-partition in place"
        ),
        stacklevel=3,
    )
    if not infos:
        return SeenIndexReport(version=man.version)
    fps_added = sum(i["row_count"] for i in infos)
    metrics = {
        "seen_index": True,
        "fps_added": fps_added,
        "seen_partition_max_rows": max_part_rows,
    }
    if advice_width is not None:
        metrics["seen_rebucket_advice_width"] = advice_width
    man = man.commit(
        infos,
        new_watermark_lsn=man.global_watermark(),
        schema_names=["fp"],
        metrics=metrics,
    )
    return SeenIndexReport(
        buckets_touched=len(infos), fps_added=fps_added, version=man.version
    )


# build is the degenerate update (open_store creates an empty index)
build_seen_index = update_seen_index


def filter_unseen(ds, index_dir: str, text_col: str = "text"):
    """Rows of ``ds`` whose content fingerprint is NOT in the index.

    Pure cross-run filter: duplicates WITHIN ``ds`` all survive (compose
    with the exact-dedup operator for within-increment collapse). Exchange
    volume is the increment only; each bucket task loads one index
    partition once.
    """
    man = Manifest.load(index_dir)
    buckets = man.num_buckets  # ship the int, not the manifest, per task
    stamped = ds.map_batches(
        lambda df: stamp_fingerprints(df, text_col, buckets),
        batch_format="pandas",
    )
    return _filter_from_stamped(man, stamped)


def _filter_from_stamped(man: Manifest, stamped):
    index_dir = man.lake_dir
    files_by_bucket = {
        b: man.files_for_bucket(b) for b in range(man.num_buckets)
    }
    drop = [FP_COL, BUCKET_COL]

    def _filter(g: pd.DataFrame) -> pd.DataFrame:
        bucket = int(g[BUCKET_COL].iat[0])
        seen = _bucket_seen_among(
            index_dir, files_by_bucket[bucket], g[FP_COL]
        )
        return g[~g[FP_COL].isin(seen)].drop(columns=drop)

    return stamped.groupby(BUCKET_COL).map_groups(
        _filter, batch_format="pandas"
    )


def filter_then_update(
    index_dir: str, ds, text_col: str = "text",
    num_buckets: int | None = None,
):
    """The nightly-ingest composite: survivors = rows the index has never
    seen, AND the increment's novel fingerprints are folded into the index
    for the next run. ONE stamping pass: the stamped increment is
    materialized (it is the SMALL side — the history is never read beyond
    the touched index partitions) and feeds both exchanges. The filter
    runs against the PRE-update manifest snapshot (captured before the
    commit), so the increment's own fingerprints never filter it.

    ``num_buckets`` only applies when the index does not exist yet; an
    existing index keeps its committed bucket count.

    Returns ``(survivors Dataset, SeenIndexReport)``.
    """
    man = open_store(
        index_dir, num_buckets, lambda: seen_index_width(ds.count()),
        "rebucket_seen_index", strict=False,
    )
    buckets = man.num_buckets
    stamped = ds.map_batches(
        lambda df: stamp_fingerprints(df, text_col, buckets),
        batch_format="pandas",
    ).materialize()
    survivors = _filter_from_stamped(man, stamped)  # pre-update snapshot
    report = _update_from_stamped(
        man,
        stamped.map_batches(
            lambda df: df[[FP_COL, BUCKET_COL]], batch_format="pandas"
        ),
    )
    return survivors, report


def _fold_partition(index_dir: str, bucket: int, files: list) -> dict:
    """Union + sort of one partition's fingerprint files."""
    fps: set = set()
    for f in files:
        fps.update(
            pq.read_table(os.path.join(index_dir, f["path"]), columns=["fp"])[
                "fp"
            ].to_pylist()
        )
    return _novel_file_info(index_dir, bucket, sorted(fps))


def compact_seen_index(index_dir: str, min_files: int = 2) -> int:
    """Fold each partition's accumulated increment files into one — the
    steady-state maintenance pass: every ``update_seen_index`` writes one
    novel-fps file per touched bucket, so the per-probe file fan-in grows
    with increment count until folded. Sound because the store is an
    append-only fingerprint SET — folding is union + sort, committed by
    ``lifecycle.fold_commit`` so a fold racing a concurrent update rebases
    cleanly and keeps the newer files. Returns the number of partitions
    folded."""
    man = Manifest.load(index_dir)
    return fold_commit(
        man,
        lambda b, files: _fold_partition(index_dir, b, files),
        {**man.metrics, "seen_compaction": True},
        min_files=min_files,
    )


def rebucket_seen_index(index_dir: str, new_num_buckets: int) -> int:
    """In-place re-partitioning of the fingerprint store: when the indexed
    history outgrows the creation-time partition count (each partition is
    O(history/num_buckets)), read the fingerprints once, re-route them at
    the new width through the SAME deterministic hash rule every probe
    uses (``hash_strings(fp) % N`` — exactly ``stamp_fingerprints``'s
    routing), and atomically publish a manifest version that swaps the
    whole layout (``lifecycle.reroute_commit``). Identical fps from
    re-delivered increments fold away, so the result is also a full
    compaction. Filter/update results are unchanged (pinned ≡ a
    from-scratch rebuild by tests/test_seen_index.py); older versions
    keep the old layout for time travel; reclaim with
    ``Manifest.expire_versions``. Returns the new manifest version.

    Cost: O(index) read+write once — the index is one md5 per distinct
    document (~16 bytes raw), 3-4 orders of magnitude smaller than the
    corpus, so this is cheap relative to re-fingerprinting anything."""
    def stamp(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(**{
            BUCKET_COL: (
                hash_strings(df["fp"].to_numpy(object))
                % np.uint64(new_num_buckets)
            ).astype(np.int32)
        })

    def write(g: pd.DataFrame) -> dict:
        bucket = int(g[BUCKET_COL].iat[0])
        return _novel_file_info(index_dir, bucket, sorted(set(g["fp"])))

    # the growth advice the rebucket just acted on is dropped (the next
    # update recomputes it at the new layout)
    return reroute_commit(
        index_dir,
        new_num_buckets,
        {"seen": (stamp, BUCKET_COL, write)},
        {"seen_rebucket": True},
        carry_except=("seen_rebucket_advice_width", "seen_partition_max_rows"),
    )
