"""Embedding-space operators: brute-force cosine top-k ANN (baseline) and an
LSH-bucketed near-dup path (the scale variant), plus all-pairs cosine
near-dup with broadcast matrix.

Scale shape: the query/candidate matrix is normalized once, shipped ONCE via
``ray.put`` and fetched per actor in ``__init__``; every batch then does one
float64 matmul (numpy BLAS) — no Python loop per row, nothing re-shipped per
batch. The LSH variant buckets vectors by random-hyperplane signatures so the
per-bucket brute force is bounded; it trades recall for a shuffle-free
candidate generation and is the 100-TB path (the broadcast matrix variant
assumes the comparison side fits in worker memory).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def table_to_matrix(t: pa.Table, col: str = "embedding") -> np.ndarray:
    """list<float> column → (n, d) float64 matrix, zero-copy on the values."""
    chunks = t.column(col).combine_chunks()
    arr = chunks if isinstance(chunks, pa.ListArray) else chunks.chunk(0)
    values = arr.values.to_numpy(zero_copy_only=False).astype(np.float64)
    offsets = arr.offsets.to_numpy(zero_copy_only=False)
    widths = np.diff(offsets)
    d = widths[0]
    if not (widths == d).all():
        raise ValueError("ragged embedding column")
    return values[offsets[0] : offsets[-1]].reshape(-1, d)


def normalize_rows(m: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(m, axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    return m / norm


def hash_embed(texts, dim: int = 32) -> np.ndarray:
    """Deterministic text → R^dim embedding STAND-IN (no model libraries in
    this sandbox; the real embedder drops in behind the same signature).
    Fully vectorized: the text's 64-bit SipHash fans out to ``dim``
    lanes via per-lane odd-constant multiplies (splitmix-style uint64 wrap),
    mapped to [-1, 1) and L2-normalized. Identical text ⇒ identical vector
    on every worker and run — the property the index/feed equivalence tests
    rely on. NOT semantically meaningful; a placeholder with the correct
    distributed plumbing (same contract as multimodal.RealDecoder).
    """
    from ..functions.hashing import hash_strings

    h = hash_strings(np.asarray(texts, dtype=object)).astype(np.uint64)
    lanes = (np.arange(dim, dtype=np.uint64) * np.uint64(2)
             + np.uint64(0x9E3779B97F4A7C15)) | np.uint64(1)
    mixed = h[:, None] * lanes[None, :]           # uint64 wrap per lane
    mixed ^= mixed >> np.uint64(33)
    mixed *= np.uint64(0xFF51AFD7ED558CCD)
    mixed ^= mixed >> np.uint64(33)
    vals = (mixed >> np.uint64(11)).astype(np.float64)
    vals = vals / float(1 << 53) * 2.0 - 1.0      # [-1, 1)
    return normalize_rows(vals)


class TextEmbedder:
    """Actor-pool text→vector stage — the env-gated REAL-model slot
    (round-5 VERDICT item 6, same contract as multimodal.RealDecoder): a
    callable class for ``map_batches(TextEmbedder, concurrency=N)`` whose
    backend loads ONCE per actor in ``__init__``:

    - ``"hash"`` (default): the deterministic ``hash_embed`` stand-in —
      always available, identical vectors on every worker/run; this is
      what every oracle-pinned test exercises.
    - ``"sklearn"``: HashingVectorizer token features projected to ``dim``
      by a fixed seeded Gaussian matrix — deterministic given the sklearn
      version; a real (if shallow) lexical embedding.
    - ``"model"``: sentence-transformers, loading the LOCAL model path in
      ``$CTE_EMBED_MODEL`` (this sandbox has no network; on a cluster the
      path would be a shared mount or pre-baked image path).
    - ``"auto"``: best importable of model > sklearn > hash (never
      raises); the chosen backend is exposed as ``self.backend``.

    Requesting ``"sklearn"``/``"model"`` explicitly when the library is
    absent raises NotImplementedError (mirrors RealDecoder) — loud, never
    a silent downgrade. Output layout is identical across backends:
    input columns + ``out_col`` as list<float64>, rows L2-normalized.
    """

    def __init__(
        self,
        dim: int = 32,
        backend: str = "hash",
        text_col: str = "text",
        out_col: str = "embedding",
    ):
        self.dim, self.text_col, self.out_col = dim, text_col, out_col
        if backend == "auto":
            for cand in ("model", "sklearn"):
                try:
                    self._load(cand)
                    return
                except (NotImplementedError, KeyError):
                    continue
            self._load("hash")
        else:
            self._load(backend)

    def _load(self, backend: str) -> None:
        if backend == "model":
            import os

            try:
                from sentence_transformers import SentenceTransformer
            except ImportError as e:
                raise NotImplementedError(
                    "backend='model' requires sentence_transformers, not "
                    "available in this environment; use backend='hash'"
                ) from e
            self._model = SentenceTransformer(os.environ["CTE_EMBED_MODEL"])
        elif backend == "sklearn":
            try:
                from sklearn.feature_extraction.text import HashingVectorizer
            except ImportError as e:
                raise NotImplementedError(
                    "backend='sklearn' requires scikit-learn, not "
                    "available in this environment; use backend='hash'"
                ) from e
            self._vec = HashingVectorizer(
                n_features=4096, alternate_sign=True, norm=None
            )
            # fixed-seed projection: deterministic across actors and runs
            self._proj = np.random.default_rng(0xC0FFEE).standard_normal(
                (4096, self.dim)
            )
        elif backend != "hash":
            raise ValueError(f"unknown embed backend {backend!r}")
        self.backend = backend

    def _embed(self, texts: list) -> np.ndarray:
        texts = ["" if t is None else str(t) for t in texts]
        if self.backend == "model":
            out = self._model.encode(
                texts, normalize_embeddings=True, show_progress_bar=False
            )
            return np.asarray(out, dtype=np.float64)
        if self.backend == "sklearn":
            feats = self._vec.transform(texts)  # sparse (n, 4096)
            return normalize_rows(np.asarray(feats @ self._proj))
        return hash_embed(texts, dim=self.dim)

    def __call__(self, batch: pa.Table) -> pa.Table:
        vecs = self._embed(batch.column(self.text_col).to_pylist())
        return batch.append_column(
            self.out_col,
            pa.array(list(vecs), pa.list_(pa.float64())),
        )


def read_lowest_vec_ids(path: str, n: int, columns=("vec_id", "embedding")) -> pa.Table:
    """The n rows with the smallest ``vec_id``, reading only the row groups
    that can contain them (parquet min-stats pruning) — O(n + row_group)
    I/O, never the whole table. This is the bounded query-selection read for
    the ANN demos: at lake scale the driver must not materialize the corpus
    just to pick a handful of query vectors."""
    import pyarrow.parquet as pq

    f = pq.ParquetFile(path)
    md = f.metadata
    idx = md.schema.to_arrow_schema().get_field_index("vec_id")
    mins = []
    for rg in range(md.num_row_groups):
        st = md.row_group(rg).column(idx).statistics
        mins.append(st.min if st is not None and st.has_min_max else None)
    # groups ordered by min vec_id; stat-less groups last (forces a full
    # read before early termination — conservative, never wrong)
    order = sorted(range(md.num_row_groups), key=lambda i: (mins[i] is None, mins[i]))
    tabs, have = [], 0
    for pos, rg in enumerate(order):
        tabs.append(f.read_row_group(rg, columns=list(columns)))
        have += tabs[-1].num_rows
        unread = order[pos + 1 :]
        if have >= n and all(mins[j] is not None for j in unread):
            t = pa.concat_tables(tabs).sort_by("vec_id").slice(0, n)
            nxt = [mins[j] for j in unread]
            if not nxt or t.column("vec_id")[-1].as_py() < min(nxt):
                return t
    return pa.concat_tables(tabs).sort_by("vec_id").slice(0, n)


def read_prefix_rows(path: str, n: int, columns=("vec_id", "embedding")) -> pa.Table:
    """A bounded streaming prefix read (``iter_batches`` stops after n rows).
    Used for centroid seeding — any deterministic bounded sample works; a
    k-means refinement or distributed reservoir sample would slot in here
    without changing the pipeline shape."""
    import pyarrow.parquet as pq

    f = pq.ParquetFile(path)
    tabs, have = [], 0
    for b in f.iter_batches(batch_size=min(n, 4096), columns=list(columns)):
        tabs.append(pa.Table.from_batches([b]))
        have += b.num_rows
        if have >= n:
            break
    return pa.concat_tables(tabs).slice(0, n)


def topk_per_query(
    qids: np.ndarray,
    vec_ids: np.ndarray,
    cos: np.ndarray,
    k: int,
    allowed: np.ndarray | None = None,
) -> pa.Table:
    """Per-batch, per-query top-k cut over a (nq, nb) cosine matrix.

    Fused into the scorers so each batch emits ~nq×k rows instead of the
    full nq×nb score table (an ~batch_size/k object-store inflation
    otherwise). Tie-safe: every candidate whose cosine EQUALS the k-th
    value is retained (np.partition threshold, >= keep), so the downstream
    exact ``final_topk`` (cos desc, vec_id asc) resolves boundary ties
    identically to an unfused full sort.
    ``allowed``: optional (nq, nb) bool mask (IVF probe lists); self-matches
    must already be excluded by the caller's mask or are excluded here when
    ``allowed`` is None.
    """
    out_q, out_v, out_c = [], [], []
    for qi in range(len(qids)):
        if allowed is None:
            cand = np.nonzero(vec_ids != qids[qi])[0]
        else:
            cand = np.nonzero(allowed[qi])[0]
        if cand.size == 0:
            continue
        row = cos[qi, cand]
        if cand.size > k:
            kth = np.partition(row, cand.size - k)[cand.size - k]
            keep = row >= kth
            cand, row = cand[keep], row[keep]
        out_q.append(np.full(cand.size, qids[qi]))
        out_v.append(vec_ids[cand])
        out_c.append(row)
    if not out_q:
        return pa.table(
            {
                "qid": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "cos": pa.array([], pa.float64()),
            }
        )
    return pa.Table.from_pydict(
        {
            "qid": np.concatenate(out_q),
            "vec_id": np.concatenate(out_v),
            "cos": np.concatenate(out_c),
        }
    )


class BruteForceTopK:
    """Per-batch cosine top-k against a broadcast query matrix; the top-k
    cut happens INSIDE the batch (``topk_per_query``), so the stage emits
    ≤ nq×(k+ties) rows per batch."""

    def __init__(self, query_ref, k: int = 5):
        import ray

        q = ray.get(query_ref)  # fetched once per actor
        self.qids = q["qid"]
        self.qm = normalize_rows(q["matrix"])
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        m = normalize_rows(table_to_matrix(batch))
        cos = self.qm @ m.T  # (nq, nb)
        return topk_per_query(self.qids, vec_ids, cos, self.k)


def kmeans_refine_distributed(
    ds,
    centroids: np.ndarray,
    iters: int = 4,
    vec_col: str = "embedding",
):
    """Distributed Lloyd refinement over the FULL corpus — the scale path
    past the bounded-sample codebook of ``coarse_centroids``.

    Each iteration is ONE streaming ``map_batches`` pass: every batch emits
    a single (C, d+1) partial row — per-centroid vector sums and member
    counts for its rows against the broadcast codebook — so the driver-side
    reduce is O(blocks × C × d), independent of corpus size, and nothing is
    ever collected. The corpus is re-read per iteration (streaming beats
    caching at 100 TB); ``iters`` is small because the sample-refined seed
    is already near a local optimum. Deterministic: fixed seed codebook,
    argmax ties break low, float64 partials summed in block order.
    Empty clusters keep their previous centroid.
    """
    import ray

    cent = centroids.astype(np.float64).copy()
    c, d = cent.shape
    for _ in range(iters):
        ref = ray.put(normalize_rows(cent))

        class AssignPartial:
            def __init__(self):
                self.cm = ray.get(ref)

            def __call__(self, batch: pa.Table) -> pa.Table:
                m = normalize_rows(table_to_matrix(batch, col=vec_col))
                assign = np.argmax(self.cm @ m.T, axis=0)
                sums = np.zeros((c, d), dtype=np.float64)
                np.add.at(sums, assign, m)
                counts = np.bincount(assign, minlength=c).astype(np.float64)
                return pa.table(
                    {
                        "centroid": pa.array(range(c), pa.int32()),
                        "vec_sum": pa.array(
                            [row.tolist() for row in sums],
                            pa.list_(pa.float64()),
                        ),
                        "count": pa.array(counts, pa.float64()),
                    }
                )

        parts = ds.map_batches(
            AssignPartial,
            batch_format="pyarrow",
            batch_size=4096,
            concurrency=(1, 4),
        ).take_all()  # O(blocks × C) tiny partial rows — not corpus data
        sums = np.zeros((c, d), dtype=np.float64)
        counts = np.zeros(c, dtype=np.float64)
        for row in parts:
            sums[row["centroid"]] += np.asarray(row["vec_sum"])
            counts[row["centroid"]] += row["count"]
        nonempty = counts > 0
        cent[nonempty] = sums[nonempty] / counts[nonempty, None]
    return cent


def ann_topk(sf_dir: str, n_queries: int = 5, k: int = 5):
    """Brute-force cosine top-k: per-batch local scores, then one small
    groupby-free top-k on the (nq × n) score stream via sort+limit per qid
    done with a per-batch partial top-k + final exact top-k."""
    import os

    import ray
    import ray.data

    path = os.path.join(sf_dir, "embeddings.parquet")
    qt = read_lowest_vec_ids(path, n_queries)
    query = {
        "qid": qt.column("vec_id").to_numpy(zero_copy_only=False),
        "matrix": table_to_matrix(qt),
    }
    ref = ray.put(query)

    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    # the scorer already cuts to ~nq×k rows per batch, so the groupby
    # exchange moves O(blocks × nq × k) rows total
    scores = ds.map_batches(
        BruteForceTopK,
        fn_constructor_kwargs={"query_ref": ref, "k": k},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, 4),
    )
    return scores.groupby("qid").map_groups(
        _make_final_topk(k), batch_format="pandas"
    )


def _make_final_topk(k: int):
    """Exact per-qid top-k finisher (cos desc, vec_id asc tie-break) over
    the fused scorers' partial candidates."""

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cos", "vec_id"], ascending=[False, True]).head(k)
        g["cos_sim"] = g["cos"].round(6)
        return g[["qid", "vec_id", "cos_sim"]]

    return final_topk


class IVFTopK:
    """Per-batch IVF cosine top-k: each vector is assigned to its nearest
    coarse centroid; a query only scores vectors whose centroid is in the
    query's ``nprobe`` probe list. With ``nprobe == n_centroids`` this is
    exactly the brute-force result (tested); with small ``nprobe`` it is the
    scale path — on a cluster the assignment becomes the partition key, so a
    probe touches only nprobe/C of the data instead of all of it."""

    def __init__(self, ref, k: int = 5):
        import ray

        q = ray.get(ref)  # one object-store fetch per actor
        self.qids = q["qid"]
        self.qm = normalize_rows(q["q_matrix"])
        self.cm = normalize_rows(q["centroids"])
        self.probe = q["probe_mask"]  # (nq, C) bool
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        m = normalize_rows(table_to_matrix(batch))
        assign = np.argmax(self.cm @ m.T, axis=0)  # (nb,) centroid per vector
        cos = self.qm @ m.T  # (nq, nb)
        allowed = self.probe[:, assign]  # (nq, nb)
        allowed &= self.qids[:, None] != vec_ids[None, :]
        return topk_per_query(self.qids, vec_ids, cos, self.k, allowed=allowed)


def _codebook_from_sample(
    m: np.ndarray, n_centroids: int, refine_iters: int = 8
) -> np.ndarray:
    """Strided seed + ``refine_iters`` Lloyd iterations of spherical
    k-means over a bounded sample matrix. Deterministic (fixed sample,
    fixed seed order, argmax ties break low); empty clusters keep their
    previous centroid."""
    stride = max(1, len(m) // n_centroids)
    cent = m[: stride * n_centroids : stride][:n_centroids].copy()
    sm = normalize_rows(m)
    for _ in range(refine_iters):
        cm = normalize_rows(cent)
        assign = np.argmax(cm @ sm.T, axis=0)  # (n,) nearest centroid
        sums = np.zeros_like(cent)
        np.add.at(sums, assign, sm)
        counts = np.bincount(assign, minlength=len(cent)).astype(np.float64)
        nonempty = counts > 0
        cent[nonempty] = sums[nonempty] / counts[nonempty, None]
    return cent


def coarse_centroids(
    path: str, n_centroids: int, refine_iters: int = 8
) -> np.ndarray:
    """Deterministic coarse codebook for IVF: a strided seed from a BOUNDED
    corpus prefix (``read_prefix_rows`` — O(sample) driver I/O, never the
    table), refined by ``refine_iters`` Lloyd iterations of spherical
    k-means over the same sample (``_codebook_from_sample``) so IVF list
    assignment is stable across runs; exactness of nprobe=C paths is
    independent of the codebook.
    At lake scale the refinement input stays this bounded sample; when
    codebook quality on the sample plateaus, ``kmeans_refine_distributed``
    runs the same Lloyd update over the FULL corpus with one streaming
    partial-sum pass per iteration."""
    sample = read_prefix_rows(path, max(1024, n_centroids * 16)).sort_by("vec_id")
    return _codebook_from_sample(
        table_to_matrix(sample), n_centroids, refine_iters
    )


def ann_topk_ivf(
    sf_dir: str,
    n_queries: int = 5,
    k: int = 5,
    n_centroids: int = 16,
    nprobe: int = 4,
):
    """IVF-bucketed approximate cosine top-k (the 100-TB scale path for S-ANN).

    Centroids come from ``coarse_centroids`` (bounded-sample spherical
    k-means); queries probe their ``nprobe`` nearest centroids. Everything
    small (queries, centroids, probe mask) is broadcast once via
    ``ray.put``; the corpus streams through ``map_batches``. Driver I/O is
    O(queries + centroid-sample), never the whole table.
    """
    import os

    import ray
    import ray.data

    path = os.path.join(sf_dir, "embeddings.parquet")
    centroids = coarse_centroids(path, n_centroids)

    qt = read_lowest_vec_ids(path, n_queries)
    qm = normalize_rows(table_to_matrix(qt))
    cm = normalize_rows(centroids)
    qc = qm @ cm.T  # (nq, C)
    nprobe = min(nprobe, len(centroids))
    probe_idx = np.argsort(-qc, axis=1)[:, :nprobe]
    probe_mask = np.zeros((len(qm), len(cm)), dtype=bool)
    np.put_along_axis(probe_mask, probe_idx, True, axis=1)

    ref = ray.put(
        {
            "qid": qt.column("vec_id").to_numpy(zero_copy_only=False),
            "q_matrix": table_to_matrix(qt),
            "centroids": centroids,
            "probe_mask": probe_mask,
        }
    )

    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    scores = ds.map_batches(
        IVFTopK,
        fn_constructor_kwargs={"ref": ref, "k": k},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, 4),
    )
    return scores.groupby("qid").map_groups(
        _make_final_topk(k), batch_format="pandas"
    )


def build_ivf_index(
    sf_dir: str,
    index_dir: str,
    n_centroids: int = 16,
    refine_iters: int = 0,
):
    """Materialize the IVF index as a PARTITIONED lake layout: embeddings
    written hive-partitioned by their nearest-centroid list id, centroids
    saved alongside. This is the concrete multi-node scale path the
    in-memory IVF alludes to — a probe then READS only its ``nprobe``
    list partitions (true partition pruning at the storage layer), i.e.
    nprobe/C of the corpus instead of a full scan per query batch.

    ``refine_iters``: run that many distributed Lloyd iterations over the
    FULL corpus (``kmeans_refine_distributed`` — one streaming pass each,
    tiny per-block partials) to tighten the sample-seeded codebook before
    partitioning. Improves small-nprobe recall on clustered data; at
    nprobe = C results are exact regardless, so 0 keeps builds cheapest."""
    import os

    import ray.data

    path = os.path.join(sf_dir, "embeddings.parquet")
    centroids = coarse_centroids(path, n_centroids)
    if refine_iters > 0:
        corpus = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
        centroids = kmeans_refine_distributed(
            corpus, centroids, iters=refine_iters
        )
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    _write_ivf_layout(index_dir, centroids, ds)
    return index_dir


def _write_ivf_layout(index_dir: str, centroids: np.ndarray, ds) -> None:
    """Write an IVF index directory: the codebook as centroids.parquet and
    ``ds``'s (vec_id, embedding) rows hive-partitioned by their nearest
    centroid. Shared by ``build_ivf_index`` and ``resplit_ivf_index``."""
    import os

    import pyarrow.parquet as pq
    import ray

    cent_t = pa.table(
        {
            "centroid_id": pa.array(range(len(centroids)), pa.int64()),
            "embedding": pa.array(
                [row.tolist() for row in centroids], pa.list_(pa.float64())
            ),
        }
    )
    os.makedirs(index_dir, exist_ok=True)
    pq.write_table(cent_t, os.path.join(index_dir, "centroids.parquet"))

    cm_ref = ray.put(normalize_rows(centroids))

    class Assigner:
        def __init__(self):
            self.cm = ray.get(cm_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            m = normalize_rows(table_to_matrix(batch))
            assign = np.argmax(self.cm @ m.T, axis=0).astype(np.int32)
            # ivf_list becomes the hive partition dir; list_id stays IN the
            # files so partition-pruned direct file reads keep the value
            batch = batch.append_column("ivf_list", pa.array(assign))
            return batch.append_column("list_id", pa.array(assign))

    ds = ds.map_batches(
        Assigner, batch_format="pyarrow", batch_size=4096, concurrency=(1, 4)
    )
    ds.write_parquet(
        os.path.join(index_dir, "data"), partition_cols=["ivf_list"]
    )


def ivf_index_add(index_dir: str, embeddings, vec_col: str = "embedding") -> int:
    """Incrementally ADD vectors to a materialized IVF index — the CDC
    side of ANN: as the lake ingests new embedded content, route each new
    vector to its nearest-centroid list (the SAME saved codebook — probe
    routing stays consistent) and append hive-partitioned files into the
    existing list directories. No existing file is touched, no rebuild:
    the cost is O(new vectors), and a probe's partition read picks up the
    appended files automatically (Ray writes fresh UUID-named files, so
    concurrent adds don't collide).

    ``embeddings``: a Parquet path/dir or a ``ray.data.Dataset`` with
    (vec_id, embedding). Append-only semantics: vec_ids are the caller's
    to keep unique (re-embedded content should use the lake's LWW upsert
    upstream, then rebuild or add with fresh ids). Returns the number of
    vectors added.

    Reference analog: the reference re-runs its whole extraction to pick
    up new trials (SURVEY §4); here index maintenance is incremental like
    every other ingest path in this engine."""
    import os

    import pyarrow.parquet as pq
    import ray
    import ray.data

    cent_t = pq.read_table(os.path.join(index_dir, "centroids.parquet"))
    cm_ref = ray.put(normalize_rows(table_to_matrix(cent_t)))

    if isinstance(embeddings, str):
        ds = ray.data.read_parquet(embeddings, columns=["vec_id", vec_col])
    else:
        ds = embeddings

    class Assigner:
        def __init__(self):
            self.cm = ray.get(cm_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            m = normalize_rows(table_to_matrix(batch, col=vec_col))
            assign = np.argmax(self.cm @ m.T, axis=0).astype(np.int32)
            batch = batch.append_column("ivf_list", pa.array(assign))
            return batch.append_column("list_id", pa.array(assign))

    ds = ds.map_batches(
        Assigner, batch_format="pyarrow", batch_size=4096, concurrency=(1, 4)
    )
    # materialize once (the add batch is O(new vectors), small by
    # definition of an incremental add) so count + write share one compute
    ds = ds.materialize()
    n = ds.count()
    ds.write_parquet(
        os.path.join(index_dir, "data"), partition_cols=["ivf_list"]
    )
    _ivf_growth_advice(index_dir)
    return n


#: target vectors per IVF list: a probe reads nprobe lists, so list size
#: bounds its read amplification; ``resplit_ivf_index`` re-derives the
#: codebook at a wider C when the corpus outgrows the creation-time one
#: (growth rule: stages/lifecycle.py)
IVF_LIST_ROW_BUDGET = 1_000_000
IVF_MAX_LISTS = 65_536


def ivf_list_rows(index_dir: str) -> dict:
    """Committed vectors per IVF list, from parquet FOOTER metadata only
    (no data read) — the observability feed for the growth advisory."""
    import os

    import pyarrow.parquet as pq

    data = os.path.join(index_dir, "data")
    out: dict = {}
    if not os.path.isdir(data):
        return out
    for d in sorted(os.listdir(data)):
        if not d.startswith("ivf_list="):
            continue
        lid = int(d.split("=", 1)[1])
        dd = os.path.join(data, d)
        out[lid] = sum(
            pq.ParquetFile(os.path.join(dd, f)).metadata.num_rows
            for f in sorted(os.listdir(dd))
            if f.endswith(".parquet")
        )
    return out


def _ivf_growth_advice(index_dir: str, fix: str | None = None):
    """The IVF store's growth monitor (``lifecycle.growth_advice``): when
    the fullest list exceeds 2x the row budget, warn with the prescribed
    re-partition fix and persist it as ``advice.json`` in the index dir
    (this store is a plain directory, not manifest-versioned — the sidecar
    is its metrics slot). Quiet updates remove stale advice. ``fix``
    overrides the prescription text (the PQ store rebuilds instead of
    re-splitting: codes are lossy, so re-deriving a codebook needs the
    corpus). Returns the advised list count or None."""
    import json
    import os

    import pyarrow.parquet as pq

    from .lifecycle import growth_advice

    n_lists = pq.ParquetFile(
        os.path.join(index_dir, "centroids.parquet")
    ).metadata.num_rows
    max_rows, advised = growth_advice(
        ivf_list_rows(index_dir),
        n_lists,
        IVF_LIST_ROW_BUDGET,
        IVF_MAX_LISTS,
        lambda fullest, advised: (
            f"IVF index at {index_dir!r}: fullest list holds "
            f"{fullest} vectors (> 2x the {IVF_LIST_ROW_BUDGET}-row "
            f"budget) at {n_lists} lists; "
            + (fix.format(advised=advised) if fix else
               f"run resplit_ivf_index(index_dir, out_dir, {advised}) "
               "and swap directories to re-partition")
        ),
        stacklevel=3,
    )
    advice_path = os.path.join(index_dir, "advice.json")
    if advised is not None:
        with open(advice_path, "w") as f:
            json.dump(
                {"ivf_resplit_advice_n_lists": advised,
                 "max_list_rows": int(max_rows)},
                f,
            )
    elif os.path.exists(advice_path):
        os.remove(advice_path)
    return advised


def resplit_ivf_index(
    index_dir: str,
    out_dir: str,
    n_centroids: int,
    refine_iters: int = 0,
) -> str:
    """Re-split a materialized IVF index at a new list count from its OWN
    stored vectors, as the lake/seen/lsh ``rebucket`` verbs do for theirs
    (stages/lifecycle.py): when the indexed corpus outgrows the
    creation-time codebook (each list is O(corpus/C) and clustered growth
    skews hot lists), derive a fresh C'-wide codebook from a bounded
    sample of the INDEX's data files (same strided-seed + spherical k-means as
    ``coarse_centroids``; optional distributed Lloyd refinement over the
    full index), then re-assign and rewrite hive-partitioned into
    ``out_dir``. The source corpus/lake is never re-read — the index's
    stored vectors are the only input.

    Unlike the manifest-versioned stores this one is a plain directory,
    so the re-split builds a FRESH index and the caller swaps directories
    (atomic at the orchestration layer); the old index keeps serving
    until the swap. Probe results at nprobe = C' equal brute force over
    the same vectors (the codebook-independent exactness bound pinned by
    tests/test_ivf_add.py). Returns ``out_dir``."""
    import os

    import ray.data

    data_dir = os.path.join(index_dir, "data")
    files = []
    for dp, _, fs in sorted(os.walk(data_dir)):
        files.extend(
            os.path.join(dp, f) for f in sorted(fs) if f.endswith(".parquet")
        )
    if not files:
        raise ValueError(f"no data files under {data_dir!r}")

    # bounded codebook sample from the index's own vectors
    need = max(1024, n_centroids * 16)
    tabs, have = [], 0
    for p in files:
        tabs.append(read_prefix_rows(p, need - have))
        have += tabs[-1].num_rows
        if have >= need:
            break
    sample = pa.concat_tables(tabs).sort_by("vec_id")
    centroids = _codebook_from_sample(table_to_matrix(sample), n_centroids)

    ds = ray.data.read_parquet(files, columns=["vec_id", "embedding"])
    if refine_iters > 0:
        centroids = kmeans_refine_distributed(ds, centroids, iters=refine_iters)
    _write_ivf_layout(out_dir, centroids, ds)
    return out_dir


def ann_topk_ivf_indexed(
    sf_dir: str,
    index_dir: str,
    n_queries: int = 5,
    k: int = 5,
    nprobe: int = 4,
):
    """Top-k over the materialized IVF index: pick queries (bounded read),
    choose each query's ``nprobe`` nearest lists, then read ONLY those list
    partitions — storage-level pruning replaces the per-batch mask of the
    scan-everything variant. Exact (= brute force) when nprobe = #lists."""
    import os

    import pyarrow.parquet as pq
    import ray
    import ray.data

    cent_t = pq.read_table(os.path.join(index_dir, "centroids.parquet"))
    cm = normalize_rows(table_to_matrix(cent_t))
    qt = read_lowest_vec_ids(os.path.join(sf_dir, "embeddings.parquet"), n_queries)
    qm = normalize_rows(table_to_matrix(qt))
    qc = qm @ cm.T
    nprobe = min(nprobe, len(cm))
    probe_idx = np.argsort(-qc, axis=1)[:, :nprobe]
    probe_mask = np.zeros((len(qm), len(cm)), dtype=bool)
    np.put_along_axis(probe_mask, probe_idx, True, axis=1)
    lists = sorted({int(v) for v in probe_idx.ravel()})

    data_dir = os.path.join(index_dir, "data")
    paths = []
    for v in lists:  # expand each probed partition dir to its files
        d = os.path.join(data_dir, f"ivf_list={v}")
        if os.path.isdir(d):
            paths.extend(
                os.path.join(d, f) for f in sorted(os.listdir(d))
                if f.endswith(".parquet")
            )
    if not paths:
        return ray.data.from_arrow(
            pa.table({"qid": pa.array([], pa.int64()),
                      "vec_id": pa.array([], pa.int64()),
                      "cos_sim": pa.array([], pa.float64())})
        )

    qids = qt.column("vec_id").to_numpy(zero_copy_only=False)
    ref = ray.put({"qid": qids, "qm": qm, "probe_mask": probe_mask,
                   "lists": np.array(lists, dtype=np.int64)})

    class ListScorer:
        def __init__(self):
            a = ray.get(ref)
            self.qids, self.qm = a["qid"], a["qm"]
            self.probe_mask = a["probe_mask"]

        def __call__(self, batch: pa.Table) -> pa.Table:
            vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            lists_col = batch.column("list_id").to_numpy(zero_copy_only=False).astype(int)
            m = normalize_rows(table_to_matrix(batch))
            cos = self.qm @ m.T
            allowed = self.probe_mask[:, lists_col]
            allowed &= self.qids[:, None] != vec_ids[None, :]
            return topk_per_query(self.qids, vec_ids, cos, k, allowed=allowed)

    ds = ray.data.read_parquet(paths)
    scores = ds.map_batches(
        ListScorer, batch_format="pyarrow", batch_size=4096, concurrency=(1, 4)
    )
    return scores.groupby("qid").map_groups(
        _make_final_topk(k), batch_format="pandas"
    )


class PairScorer:
    """All-pairs cosine near-dup per batch vs broadcast full matrix."""

    def __init__(self, all_ref, threshold: float):
        import ray

        a = ray.get(all_ref)
        self.ids = a["ids"]
        self.m = normalize_rows(a["matrix"])
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        m = normalize_rows(table_to_matrix(batch))
        cos = m @ self.m.T  # (nb, N)
        bi, aj = np.nonzero(cos >= self.threshold)
        ia = vec_ids[bi]
        ib = self.ids[aj]
        keep = ia < ib  # emit each unordered pair once
        return pa.Table.from_pydict(
            {
                "id_a": ia[keep],
                "id_b": ib[keep],
                "cos_sim": np.round(cos[bi, aj][keep], 6),
            }
        )


def near_dup_pairs_cosine(sf_dir: str, threshold: float = 0.4):
    """Exact all-pairs cosine ≥ threshold (broadcast variant).

    The comparison matrix is built INSIDE a Ray task and broadcast as its
    return ref — the driver never materializes the table; it holds only an
    ObjectRef. (The matrix must still fit one worker's heap — that is the
    inherent trade of the exact all-pairs baseline; ``near_dup_pairs_lsh``
    is the bucketed scale path.)"""
    import os

    import ray
    import ray.data

    path = os.path.join(sf_dir, "embeddings.parquet")

    @ray.remote
    def _load_matrix(p: str) -> dict:
        import pyarrow.parquet as pq

        at = pq.read_table(p, columns=["vec_id", "embedding"])
        return {"ids": at.column("vec_id").to_numpy(zero_copy_only=False),
                "matrix": table_to_matrix(at)}

    ref = _load_matrix.remote(path)
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    return ds.map_batches(
        PairScorer,
        fn_constructor_kwargs={"all_ref": ref, "threshold": threshold},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, 4),
    )


class HyperplaneBucketer:
    """Random-hyperplane LSH signatures (the scale path for near-dup)."""

    def __init__(self, dim: int = 64, n_bits: int = 12, seed: int = 11,
                 vec_col: str = "embedding"):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((dim, n_bits))
        self.weights = (1 << np.arange(n_bits)).astype(np.int64)
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = table_to_matrix(batch, col=self.vec_col)
        bits = (m @ self.planes) > 0
        bucket = bits.astype(np.int64) @ self.weights
        return batch.append_column("lsh_bucket", pa.array(bucket))


def lsh_pairs(
    ds,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    threshold: float = 0.4,
    n_bits: int = 8,
    dim: int = 64,
    bucket_cap: int = 4096,
):
    """Hyperplane-bucket groupby + exact cosine within each bucket over any
    Dataset with an id column and a fixed-width vector column. Recall < 1 by
    design (identical vectors always share every bucket, so exact duplicates
    have recall 1). Buckets larger than ``bucket_cap`` are truncated — the
    hot-bucket cap that bounds the O(f²) within-bucket matmul at lake scale;
    truncations are counted in ``capstats`` (key ``embedding_lsh``) and
    logged."""
    ds = ds.map_batches(
        HyperplaneBucketer,
        fn_constructor_kwargs={"n_bits": n_bits, "dim": dim, "vec_col": vec_col},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, 4),
    )

    def within_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) > bucket_cap:
            from .capstats import record_cap_drop

            record_cap_drop("embedding_lsh", 1, len(g) - bucket_cap)
            g = g.iloc[:bucket_cap]
        ids = g[id_col].to_numpy()
        m = normalize_rows(np.stack(g[vec_col].to_numpy()).astype(np.float64))
        cos = m @ m.T
        ia, ib = np.nonzero(np.triu(cos >= threshold, k=1))
        ja, jb = ids[ia], ids[ib]
        swap = ja > jb
        ja[swap], jb[swap] = jb[swap], ja[swap]
        return pd.DataFrame(
            {"id_a": ja, "id_b": jb, "cos_sim": np.round(cos[ia, ib], 6)}
        )

    return ds.groupby("lsh_bucket").map_groups(within_bucket, batch_format="pandas")


def near_dup_pairs_lsh(sf_dir: str, threshold: float = 0.4, n_bits: int = 8):
    """Approximate near-dup over the embeddings table: hyperplane-bucket
    groupby, exact cosine within each bucket (see ``lsh_pairs``)."""
    import os

    import ray.data

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    return lsh_pairs(ds, threshold=threshold, n_bits=n_bits)


class DeconScorer:
    """Cross-set cosine scorer for SEMANTIC benchmark decontamination: each
    corpus batch is scored against the broadcast benchmark matrix; a row is
    contaminated when its max cosine vs ANY benchmark vector clears the
    threshold. Same broadcast-once / per-batch-matmul shape as PairScorer."""

    def __init__(self, bench_ref, threshold: float, mod: int, rem: int):
        import ray

        b = ray.get(bench_ref)
        self.bench = normalize_rows(b["matrix"])
        self.threshold = threshold
        self.mod = mod
        self.rem = rem

    def __call__(self, batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {"vec_id": pa.array([], pa.int64()),
             "max_cos": pa.array([], pa.float64())}
        )
        if batch.num_rows == 0:
            return empty
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        corpus = (vec_ids % self.mod) != self.rem  # bench rows aren't corpus
        if not corpus.any():
            return empty
        vec_ids = vec_ids[corpus]
        m = normalize_rows(table_to_matrix(batch)[corpus])
        cos = m @ self.bench.T              # (nb, n_bench)
        mx = cos.max(axis=1) if cos.shape[1] else np.zeros(len(m))
        hit = mx >= self.threshold
        return pa.Table.from_pydict(
            {
                "vec_id": vec_ids[hit],
                "max_cos": np.round(mx[hit], 6),
            }
        )


def decon_cosine_ids(
    sf_dir: str, threshold: float = 0.4, mod: int = 7, rem: int = 0
):
    """Embedding-space benchmark decontamination — the SEMANTIC companion to
    the exact n-gram overlap pass (stages/decon.py): corpus vectors whose
    cosine vs any benchmark vector ≥ threshold are flagged (paraphrased or
    re-worded eval leakage that exact n-grams miss). The benchmark set is
    the deterministic ``vec_id % mod == rem`` slice (hermetic, like
    decontaminate_docs); a real eval suite's embeddings drop in at the same
    ref. Benchmark matrix built inside ONE Ray task, broadcast once; the
    corpus streams through a stateless scorer — no shuffle, exchange is
    O(contaminated rows). Exact (full matmul) — bounded by the benchmark
    side fitting a worker heap, which an eval suite always does; a
    100-TB-benchmark variant would route through lsh_pairs' bucketer."""
    import os

    import ray
    import ray.data

    path = os.path.join(sf_dir, "embeddings.parquet")

    @ray.remote
    def _bench_matrix(p: str) -> dict:
        import pyarrow.parquet as pq

        at = pq.read_table(p, columns=["vec_id", "embedding"])
        ids = at.column("vec_id").to_numpy(zero_copy_only=False)
        keep = (ids % mod) == rem
        return {"matrix": table_to_matrix(at)[keep]}

    ref = _bench_matrix.remote(path)
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    return ds.map_batches(
        DeconScorer,
        fn_constructor_kwargs={
            "bench_ref": ref, "threshold": threshold, "mod": mod, "rem": rem,
        },
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, 4),
    )
