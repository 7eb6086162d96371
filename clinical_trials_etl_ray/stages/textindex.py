"""Incremental inverted TEXT index over the CDC lake — token search without
a full scan.

The secondary-index idea of `stages/merge.py` (conv min/max per file) applied
to text: each bucket materializes its live rows' distinct
``(token, conv_id)`` postings as an immutable, token-sorted parquet file,
published through the same exactly-once ``Manifest`` commit protocol as the
lake and the materialized views. Maintenance is the matview refresh loop:
only buckets whose committed file lists changed recompute (file-list
fingerprints — metadata-only skip, O(change rate) not O(lake)), so the
search index FOLLOWS the lake under continuous ingest the way the IVF
index follows it for embeddings (stages/embed.ivf_index_add).

A search reads, per bucket, ONLY the postings row groups matching the
probe tokens (token-sorted files + parquet min/max stats ⇒ storage-level
pruning), then resolves AND/OR semantics over the tiny matched
``(conv_id, token)`` set — query cost is O(posting lists touched), never
O(corpus). Conversations are bucket-local on unsalted lakes, but the
final combine runs over the result-sized matches anyway, so salted lakes
are handled identically.

Tokenization parity with the DuckDB oracles (and stages/decon.py):
``lower(text)`` split on a single literal space; empty tokens dropped.
Updates/deletes are exact: a bucket recompute rebuilds postings from the
bucket's LIVE rows, so a conversation whose text no longer contains a
token leaves its posting list on refresh.

Reference analog: the 5 secondary Mongo indexes incl. the text-ish ones
(trials_extractor/storage/mongodb_storage.py:94-134); re-expressed as an
incrementally-maintained partitioned artifact instead of a per-row B-tree.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa

from ..state.manifest import Manifest
from .lifecycle import refresh_consumer, store_file
from .merge import live_rows, resolve_bucket


@dataclass
class TextIndexReport:
    buckets_total: int = 0
    buckets_refreshed: int = 0
    postings_written: int = 0
    idx_version: int = 0


_POSTING_SCHEMA = pa.schema(
    [
        pa.field("token", pa.string()),
        pa.field("conv_id", pa.string()),
        pa.field("tf", pa.int64()),
    ]
)

_DOCLEN_SCHEMA = pa.schema(
    [pa.field("conv_id", pa.string()), pa.field("dl", pa.int64())]
)


def bucket_postings(live: pa.Table) -> tuple:
    """(postings, doclens) of a bucket's live rows. Postings are distinct
    (token, conv_id) with the conversation-level term frequency ``tf``,
    token-sorted so parquet row-group min/max stats prune probes; doclens
    are tokens-per-conversation (BM25's ``dl``), conv-sorted for
    candidate-filtered reads. Vectorized: pandas str split + explode, one
    C-level groupby each."""
    if live.num_rows == 0:
        return _POSTING_SCHEMA.empty_table(), _DOCLEN_SCHEMA.empty_table()
    s = live.select(["conv_id", "text"]).to_pandas()
    toks = s["text"].fillna("").str.lower().str.split(" ")
    n = toks.str.len().to_numpy()
    flat = np.concatenate(toks.to_numpy()) if n.sum() else np.array([], object)
    pairs = pd.DataFrame(
        {
            "token": flat,
            "conv_id": s["conv_id"].to_numpy().repeat(n),
        }
    )
    pairs = pairs[pairs["token"] != ""]
    out = (
        pairs.groupby(["token", "conv_id"], as_index=False)
        .size()
        .rename(columns={"size": "tf"})
        .sort_values(["token", "conv_id"], kind="stable")
    )
    dl = (
        pairs.groupby("conv_id", as_index=False)
        .size()
        .rename(columns={"size": "dl"})
        .sort_values("conv_id", kind="stable")
    )
    return (
        pa.Table.from_pandas(out, preserve_index=False).cast(_POSTING_SCHEMA),
        pa.Table.from_pandas(dl, preserve_index=False).cast(_DOCLEN_SCHEMA),
    )


def refresh_text_index(
    lake_dir: str, idx_dir: str, full: bool = False
) -> TextIndexReport:
    """Bring the inverted index up to the lake's committed state —
    matview-style incremental maintenance (see module docstring and
    ``lifecycle.refresh_consumer``)."""
    from ..functions.hashing import content_hash

    lake_man = Manifest.load(lake_dir)

    def recompute(bucket: int, files: list) -> list:
        postings, doclens = bucket_postings(
            live_rows(
                resolve_bucket(
                    lake_dir, bucket, files, columns=["conv_id", "text"]
                )
            )
        )
        if postings.num_rows == 0:
            return []
        return [
            store_file(idx_dir, bucket, kind, table, content_hash(table))
            for kind, table in (("tidx", postings), ("tlen", doclens))
        ]

    idx_man, refreshed = refresh_consumer(
        lake_man, idx_dir, recompute, {"text_index": True}, full=full
    )
    return TextIndexReport(
        buckets_total=lake_man.num_buckets,
        buckets_refreshed=len(refreshed),
        postings_written=sum(
            r["row_count"] for rs in refreshed.values() for r in rs
            if r["kind"] == "tidx"
        ),
        idx_version=idx_man.version,
    )


def build_text_index(lake_dir: str, idx_dir: str) -> TextIndexReport:
    return refresh_text_index(lake_dir, idx_dir, full=True)


def search_text_index(
    idx_dir: str, tokens: list, mode: str = "all"
) -> pa.Table:
    """conv_ids whose final-state text contains ALL (``mode="all"``) or ANY
    (``mode="any"``) of ``tokens`` — resolved from posting lists only.

    One Ray task per bucket reads the bucket's postings with a
    ``token IN probe`` parquet filter (token-sorted files ⇒ row-group
    stat pruning skips non-matching groups at the storage layer); the
    driver combines the RESULT-SIZED matched pairs: OR = union,
    AND = convs matching all |tokens| distinct tokens. Sorted conv_id
    output for deterministic comparisons."""
    import pyarrow.dataset as pads
    import ray

    if mode not in ("all", "any"):
        raise ValueError(f"mode must be 'all' or 'any', got {mode!r}")
    probe = sorted({t.lower() for t in tokens if t})
    if not probe:
        return pa.table({"conv_id": pa.array([], pa.string())})
    man = Manifest.load(idx_dir)

    @ray.remote
    def _probe_bucket(paths: list):
        frags = [
            pads.dataset(p, format="parquet").to_table(
                filter=pads.field("token").isin(probe)
            )
            for p in paths
        ]
        good = [f for f in frags if f.num_rows] or [
            _POSTING_SCHEMA.empty_table()
        ]
        return pa.concat_tables(good)

    futures = []
    for b in range(man.num_buckets):
        paths = [
            os.path.join(idx_dir, f["path"])
            for f in man.files_for_bucket(b)
            if f["kind"] == "tidx"
        ]
        if paths:
            futures.append(_probe_bucket.remote(paths))
    matched = (
        pa.concat_tables(ray.get(futures))
        if futures
        else _POSTING_SCHEMA.empty_table()
    )
    df = matched.to_pandas().drop_duplicates(["token", "conv_id"])
    if df.empty:
        return pa.table({"conv_id": pa.array([], pa.string())})
    if mode == "any":
        convs = df["conv_id"].unique()
    else:
        per_conv = df.groupby("conv_id")["token"].nunique()
        convs = per_conv[per_conv == len(probe)].index.to_numpy()
    return pa.table({"conv_id": pa.array(sorted(convs), pa.string())})


def rank_text_index(
    idx_dir: str,
    tokens: list,
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
) -> pa.Table:
    """BM25-ranked top-k conversations for ``tokens`` — resolved from the
    index alone, never the corpus.

    Cost shape: probe the posting lists (storage-pruned, as in
    ``search_text_index``) → the candidate set is the matched convs; their
    ``dl`` values come from the conv-sorted doclen files via a
    candidate-filtered parquet read (result-sized); the corpus constants
    N and avgdl are exact sums over the doclen files' parquet FOOTER
    metadata (num_rows + column statistics are not enough for the token
    sum, so one tiny aggregate read of the dl column per bucket — still
    O(convs), metadata-light, and independent of text size). df per token
    is the probed posting-list length (exact). Deterministic: ties break
    by conv_id ascending.

    Output: (conv_id, score float64 rounded to 9) — top ``k`` by score
    desc, conv_id asc."""
    import pyarrow.dataset as pads
    import ray

    probe = sorted({t.lower() for t in tokens if t})
    empty = pa.table(
        {"conv_id": pa.array([], pa.string()),
         "score": pa.array([], pa.float64())}
    )
    if not probe:
        return empty
    man = Manifest.load(idx_dir)
    tidx_paths, tlen_paths = [], []
    for bkt in range(man.num_buckets):
        for f in man.files_for_bucket(bkt):
            (tidx_paths if f["kind"] == "tidx" else tlen_paths).append(
                os.path.join(idx_dir, f["path"])
            )
    if not tidx_paths:
        return empty

    @ray.remote
    def _probe(paths: list):
        t = pads.dataset(paths, format="parquet").to_table(
            filter=pads.field("token").isin(probe)
        )
        return t

    salted = man.salt_factor > 1

    @ray.remote
    def _len_stats(paths: list):
        import pyarrow.compute as pc

        cols = ["conv_id", "dl"] if salted else ["dl"]
        t = pads.dataset(paths, format="parquet").to_table(columns=cols)
        n = (
            pc.count_distinct(t["conv_id"]).as_py()  # conv spans sub-buckets
            if salted
            else t.num_rows
        )
        return n, int(pc.sum(t["dl"]).as_py() or 0)

    matched_f = _probe.remote(tidx_paths)
    stats_f = _len_stats.remote(tlen_paths)
    matched = ray.get(matched_f).to_pandas()
    n_docs, total_tokens = ray.get(stats_f)
    if matched.empty or n_docs == 0:
        return empty
    # salted lakes split a conv across buckets: fold partial tfs (and,
    # below, partial dls) before the nonlinear BM25 term
    matched = matched.groupby(["token", "conv_id"], as_index=False)["tf"].sum()
    avgdl = total_tokens / n_docs

    cands = sorted(matched["conv_id"].unique())

    @ray.remote
    def _cand_lens(paths: list, cand: list):
        return pads.dataset(paths, format="parquet").to_table(
            filter=pads.field("conv_id").isin(cand)
        )

    dl = ray.get(_cand_lens.remote(tlen_paths, cands)).to_pandas()
    dl_map = dl.groupby("conv_id")["dl"].sum()

    df_per_token = matched.groupby("token")["conv_id"].nunique()
    idf = np.log(
        1.0 + (n_docs - df_per_token + 0.5) / (df_per_token + 0.5)
    )
    m = matched.copy()
    m["idf"] = m["token"].map(idf)
    m["dl"] = m["conv_id"].map(dl_map).astype(float)
    tf = m["tf"].to_numpy().astype(float)
    denom = tf + k1 * (1.0 - b + b * m["dl"].to_numpy() / avgdl)
    m["part"] = m["idf"].to_numpy() * tf * (k1 + 1.0) / denom
    scores = (
        m.groupby("conv_id", as_index=False)["part"].sum()
        .rename(columns={"part": "score"})
    )
    scores["score"] = scores["score"].round(9)
    scores = scores.sort_values(
        ["score", "conv_id"], ascending=[False, True], kind="stable"
    ).head(k)
    return pa.Table.from_pandas(scores, preserve_index=False).cast(
        pa.schema([pa.field("conv_id", pa.string()),
                   pa.field("score", pa.float64())])
    )
