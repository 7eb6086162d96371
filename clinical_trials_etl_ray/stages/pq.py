"""Product quantization (PQ) for the ANN index — the memory-compression
scale path.

At 100 TB of float32/float64 embeddings, even IVF partition pruning leaves
each probe reading full-width vectors. IVF-PQ is the standard fix (Jégou
et al., "Product Quantization for Nearest Neighbor Search", TPAMI 2011):
split the (L2-normalized) vector into ``m`` subspaces, k-means each
subspace to ``ks ≤ 256`` centroids, and store ONE BYTE per subspace —
a 64-dim float64 vector becomes 8 bytes (64× smaller). Search uses
asymmetric distance computation (ADC): per query, an (m × ks) table of
subspace dot-product contributions is built once, and every candidate's
approximate cosine is ``m`` table lookups summed — no float vector is
ever read.

Distributed shape mirrors the IVF index (stages/embed.py):
- training is a bounded prefix sample (deterministic strided seed + Lloyd
  per subspace — same discipline as ``coarse_centroids``),
- encoding is one streaming ``map_batches`` pass that assigns the IVF
  list AND emits the codes,
- the materialized index is hive-partitioned by list; a probe reads ONLY
  its ``nprobe`` list partitions and only the (vec_id, code) columns,
- optional exact re-rank: the ADC top-R candidate ids are joined back to
  the ORIGINAL corpus with a candidate-filtered (result-sized) read and
  re-scored exactly — the standard two-stage retrieval.

Approximate by design (rows-only in the driver contract): ADC error is
bounded by the per-subspace quantization error; determinism at any
parallelism is exact (fixed codebooks, per-row encode, ties break low).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from .embed import (
    normalize_rows,
    read_lowest_vec_ids,
    read_prefix_rows,
    table_to_matrix,
    topk_per_query,
)
from .merge import driver_dataset


def pq_train(
    sample: np.ndarray, m: int = 8, ks: int = 256, iters: int = 10
) -> np.ndarray:
    """Per-subspace Lloyd k-means over an L2-NORMALIZED sample →
    (m, ks, d/m) codebooks. Deterministic: strided seeds, argmin ties
    break low, empty clusters keep their centroid."""
    n, d = sample.shape
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m} subspaces")
    dsub = d // m
    ks = min(ks, n)
    x = normalize_rows(sample).reshape(n, m, dsub)
    books = np.empty((m, ks, dsub), dtype=np.float64)
    for j in range(m):
        xs = x[:, j, :]
        stride = max(1, n // ks)
        cent = xs[: stride * ks : stride][:ks].copy()
        for _ in range(iters):
            d2 = (
                (xs**2).sum(1)[:, None]
                + (cent**2).sum(1)[None, :]
                - 2.0 * xs @ cent.T
            )
            assign = np.argmin(d2, axis=1)
            sums = np.zeros_like(cent)
            np.add.at(sums, assign, xs)
            counts = np.bincount(assign, minlength=len(cent)).astype(float)
            nonempty = counts > 0
            cent[nonempty] = sums[nonempty] / counts[nonempty, None]
        books[j] = cent
    return books


def pq_encode(matrix: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, d) float matrix (normalized internally) → (n, m) uint8 codes.
    Vectorized per subspace: one (n × ks) distance argmin each."""
    m, ks, dsub = books.shape
    x = normalize_rows(matrix).reshape(len(matrix), m, dsub)
    codes = np.empty((len(matrix), m), dtype=np.uint8)
    for j in range(m):
        xs = x[:, j, :]
        cent = books[j]
        d2 = (
            (xs**2).sum(1)[:, None]
            + (cent**2).sum(1)[None, :]
            - 2.0 * xs @ cent.T
        )
        codes[:, j] = np.argmin(d2, axis=1).astype(np.uint8)
    return codes


def adc_scores(qm: np.ndarray, codes: np.ndarray, books: np.ndarray):
    """Approximate cosine of each query (rows of the NORMALIZED ``qm``)
    against each coded vector: per query an (m × ks) dot-contribution
    table, then m byte-indexed lookups per candidate. Returns (nq, nb)."""
    m, ks, dsub = books.shape
    nq = len(qm)
    q = qm.reshape(nq, m, dsub)
    # tables[q, j, c] = q_sub · codebook[j][c]
    tables = np.einsum("qjd,jcd->qjc", q, books)
    out = np.zeros((nq, len(codes)), dtype=np.float64)
    for j in range(m):  # m ≤ 16 vectorized gathers
        out += tables[:, j, :][:, codes[:, j]]
    return out


def build_pq_index(
    sf_dir: str,
    index_dir: str,
    n_centroids: int = 16,
    m: int = 8,
    ks: int = 256,
):
    """Materialize the IVF-PQ index: codebooks + coarse centroids from the
    bounded prefix sample, then ONE streaming pass assigns each vector's
    IVF list and PQ code; the lake layout is hive-partitioned by list with
    ONLY (vec_id, list_id, code) — the full-width vectors stay in the
    corpus, read again only for candidate re-rank."""
    import pyarrow.parquet as pq_
    import ray
    import ray.data

    from .embed import coarse_centroids

    path = os.path.join(sf_dir, "embeddings.parquet")
    centroids = coarse_centroids(path, n_centroids)
    sample = table_to_matrix(
        read_prefix_rows(path, max(2048, ks * 8)).sort_by("vec_id")
    )
    books = pq_train(sample, m=m, ks=ks)

    os.makedirs(index_dir, exist_ok=True)
    cm = normalize_rows(centroids)
    pq_.write_table(
        pa.table(
            {
                "centroid_id": pa.array(range(len(cm)), pa.int64()),
                "embedding": pa.array(
                    [r.tolist() for r in cm], pa.list_(pa.float64())
                ),
            }
        ),
        os.path.join(index_dir, "centroids.parquet"),
    )
    mm, kk, dsub = books.shape
    pq_.write_table(
        pa.table(
            {
                "subspace": pa.array(
                    np.repeat(np.arange(mm), kk), pa.int32()
                ),
                "code": pa.array(np.tile(np.arange(kk), mm), pa.int32()),
                "centroid": pa.array(
                    [r.tolist() for r in books.reshape(mm * kk, dsub)],
                    pa.list_(pa.float64()),
                ),
            }
        ),
        os.path.join(index_dir, "codebooks.parquet"),
    )

    state = ray.put({"cm": cm, "books": books})

    class AssignEncode:
        def __init__(self):
            import ray as _ray

            s = _ray.get(state)
            self.cm, self.books = s["cm"], s["books"]

        def __call__(self, batch: pa.Table) -> pa.Table:
            mtx = normalize_rows(table_to_matrix(batch))
            assign = np.argmax(self.cm @ mtx.T, axis=0).astype(np.int32)
            codes = pq_encode(mtx, self.books)
            return pa.table(
                {
                    "vec_id": batch.column("vec_id"),
                    "ivf_list": pa.array(assign),
                    "list_id": pa.array(assign),
                    "code": pa.array(
                        list(codes), pa.list_(pa.uint8(), codes.shape[1])
                    ),
                }
            )

    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    ds = ds.map_batches(
        AssignEncode, batch_format="pyarrow", batch_size=4096,
        concurrency=(1, 4),
    )
    ds.write_parquet(
        os.path.join(index_dir, "data"), partition_cols=["ivf_list"]
    )
    return books


def ann_topk_ivf_pq(
    sf_dir: str,
    index_dir: str,
    n_queries: int = 5,
    k: int = 5,
    nprobe: int = 4,
    rerank: int = 0,
):
    """Two-stage IVF-PQ retrieval: probe ``nprobe`` list partitions, score
    candidates by ADC over their byte codes (no vectors read), keep the
    top ``max(k, rerank)`` per query; if ``rerank`` > 0, re-score exactly
    against the corpus with a candidate-filtered result-sized read and cut
    to ``k``. Self-matches excluded (parity with the exact ANN paths)."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq_
    import ray
    import ray.data

    cm = normalize_rows(
        table_to_matrix(
            pq_.read_table(os.path.join(index_dir, "centroids.parquet"))
        )
    )
    cb = pq_.read_table(os.path.join(index_dir, "codebooks.parquet"))
    mm = int(pa.compute.max(cb["subspace"]).as_py()) + 1
    kk = int(pa.compute.max(cb["code"]).as_py()) + 1
    dsub = len(cb["centroid"][0].as_py())
    books = (
        table_to_matrix(cb, col="centroid").reshape(mm, kk, dsub)
    )

    corpus_path = os.path.join(sf_dir, "embeddings.parquet")
    qt = read_lowest_vec_ids(corpus_path, n_queries)
    qids = qt.column("vec_id").to_numpy(zero_copy_only=False)
    qm = normalize_rows(table_to_matrix(qt))
    nprobe = min(nprobe, len(cm))
    probe_idx = np.argsort(-(qm @ cm.T), axis=1)[:, :nprobe]
    lists = sorted({int(v) for v in probe_idx.ravel()})
    probe_mask = np.zeros((len(qm), len(cm)), dtype=bool)
    np.put_along_axis(probe_mask, probe_idx, True, axis=1)

    data_dir = os.path.join(index_dir, "data")
    paths = []
    for v in lists:
        d = os.path.join(data_dir, f"ivf_list={v}")
        if os.path.isdir(d):
            paths.extend(
                os.path.join(d, f)
                for f in sorted(os.listdir(d))
                if f.endswith(".parquet")
            )
    empty = pa.table(
        {"qid": pa.array([], pa.int64()),
         "vec_id": pa.array([], pa.int64()),
         "cos_sim": pa.array([], pa.float64())}
    )
    if not paths:
        return driver_dataset(empty)

    r = max(k, rerank)
    state = ray.put(
        {"qids": qids, "qm": qm, "books": books, "probe_mask": probe_mask}
    )

    class ADCScorer:
        def __init__(self):
            import ray as _ray

            s = _ray.get(state)
            self.qids, self.qm = s["qids"], s["qm"]
            self.books, self.probe_mask = s["books"], s["probe_mask"]

        def __call__(self, batch: pa.Table) -> pa.Table:
            vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            lists_col = (
                batch.column("list_id").to_numpy(zero_copy_only=False)
                .astype(int)
            )
            codes = np.stack(
                batch.column("code").to_numpy(zero_copy_only=False)
            ).astype(np.uint8)
            cos = adc_scores(self.qm, codes, self.books)
            allowed = self.probe_mask[:, lists_col]
            allowed &= self.qids[:, None] != vec_ids[None, :]
            return topk_per_query(self.qids, vec_ids, cos, r, allowed=allowed)

    ds = ray.data.read_parquet(paths)
    scores = ds.map_batches(
        ADCScorer, batch_format="pyarrow", batch_size=4096,
        concurrency=(1, 4),
    )

    from .embed import _make_final_topk

    cands = scores.groupby("qid").map_groups(
        _make_final_topk(r), batch_format="pandas"
    )
    if rerank <= 0:
        return cands

    # exact re-rank: candidate-filtered (result-sized) corpus read
    cand_t = pa.concat_tables(
        list(cands.iter_batches(batch_format="pyarrow")) or [empty]
    )
    if cand_t.num_rows == 0:
        return driver_dataset(empty)
    cand_ids = sorted(set(cand_t["vec_id"].to_pylist()))
    vecs = pads.dataset(corpus_path, format="parquet").to_table(
        columns=["vec_id", "embedding"],
        filter=pads.field("vec_id").isin(cand_ids),
    )
    vm = normalize_rows(table_to_matrix(vecs))
    vid = vecs.column("vec_id").to_numpy(zero_copy_only=False)
    pos = {int(v): i for i, v in enumerate(vid)}
    import pandas as pd

    df = cand_t.to_pandas()
    rows = df["vec_id"].map(pos).to_numpy()
    qpos = {int(q): i for i, q in enumerate(qids)}
    qrow = df["qid"].map(qpos).to_numpy()
    df["cos_sim"] = np.einsum("nd,nd->n", qm[qrow], vm[rows])
    df = df.sort_values(
        ["qid", "cos_sim", "vec_id"], ascending=[True, False, True]
    )
    df = df.groupby("qid", as_index=False).head(k)
    out = pa.Table.from_pandas(
        df.reset_index(drop=True), preserve_index=False
    ).select(["qid", "vec_id", "cos_sim"])
    return driver_dataset(out)


def pq_index_add(index_dir: str, embeddings) -> int:
    """Incrementally ADD vectors to the materialized IVF-PQ index — the
    PQ twin of stages/embed.ivf_index_add: new vectors route through the
    SAVED coarse centroids and codebooks (assignment and codes stay
    consistent with the existing index), and encoded rows append as fresh
    files into the hive list partitions. O(new vectors), no rebuild, no
    existing file touched; a probe picks the appended files up
    automatically. ``embeddings``: Parquet path/dir or a
    ``ray.data.Dataset`` with (vec_id, embedding). Returns rows added."""
    import pyarrow.parquet as pq_
    import ray
    import ray.data

    cm = normalize_rows(
        table_to_matrix(
            pq_.read_table(os.path.join(index_dir, "centroids.parquet"))
        )
    )
    cb = pq_.read_table(os.path.join(index_dir, "codebooks.parquet"))
    mm = int(pa.compute.max(cb["subspace"]).as_py()) + 1
    kk = int(pa.compute.max(cb["code"]).as_py()) + 1
    dsub = len(cb["centroid"][0].as_py())
    books = table_to_matrix(cb, col="centroid").reshape(mm, kk, dsub)
    state = ray.put({"cm": cm, "books": books})

    if isinstance(embeddings, str):
        ds = ray.data.read_parquet(embeddings, columns=["vec_id", "embedding"])
    else:
        ds = embeddings

    class AssignEncode:
        def __init__(self):
            import ray as _ray

            s = _ray.get(state)
            self.cm, self.books = s["cm"], s["books"]

        def __call__(self, batch: pa.Table) -> pa.Table:
            mtx = normalize_rows(table_to_matrix(batch))
            assign = np.argmax(self.cm @ mtx.T, axis=0).astype(np.int32)
            codes = pq_encode(mtx, self.books)
            return pa.table(
                {
                    "vec_id": batch.column("vec_id"),
                    "ivf_list": pa.array(assign),
                    "list_id": pa.array(assign),
                    "code": pa.array(
                        list(codes), pa.list_(pa.uint8(), codes.shape[1])
                    ),
                }
            )

    ds = ds.map_batches(
        AssignEncode, batch_format="pyarrow", batch_size=4096,
        concurrency=(1, 4),
    ).materialize()  # the add batch is O(new) — count + write share compute
    n = ds.count()
    ds.write_parquet(
        os.path.join(index_dir, "data"), partition_cols=["ivf_list"]
    )
    # same growth monitor as the float-vector IVF store, different fix:
    # PQ codes are lossy, so a wider codebook needs the corpus — the
    # prescription is a rebuild, not an index-local re-split
    from .embed import _ivf_growth_advice

    _ivf_growth_advice(
        index_dir,
        fix="rebuild with build_pq_index at n_centroids={advised} "
            "(PQ codes are lossy — re-splitting needs the corpus)",
    )
    return n
