"""Near-duplicate detection: MinHash+LSH, SimHash, exact n-gram Jaccard.

Distributed shape (the standard lake-scale recipe):
  1. per-batch vectorized shingling + signatures (stateless map_batches —
     the permutation matrices are built once per actor; shingle hashing is
     one C-speed SipHash call per batch and the minhash reduction is a single
     ``np.minimum.reduceat`` — no per-shingle Python),
  2. explode to (band_id, band_hash, doc_id) rows,
  3. ONE groupby shuffle on a COARSE partition of the band hash (64
     partitions, pandas-groupby within each) — never one Ray group per band
     bucket: millions of tiny groups is pure scheduler overhead,
  4. exact verification of candidates (Jaccard on shingle sets / Hamming on
     signatures); the candidate set is tiny relative to the corpus.

With b bands of r rows, P(candidate | J=j) = 1-(1-j^r)^b; the defaults
(32 bands × 4 rows) give >1-5e-8 recall at j≥0.8, so LSH+exact-verify is
exact w.h.p. — which is why the DuckDB all-pairs Jaccard oracle can check it.

Scale notes: candidate-pair emission per band bucket is capped (df_cap) to
bound hot-shingle blowup (a bucket shared by f docs yields O(f²) pairs); at
lake scale you always cap document frequency and log what was dropped.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .lifecycle import partition_width

_MERSENNE = np.uint64((1 << 61) - 1)
_HASH_KEY = "cdc-shingle-hash"  # 16 bytes, fixed => deterministic everywhere
#: FLOOR for the coarse pair-emission shuffle (used directly only when the
#: caller has no corpus-size estimate); scale-aware callers derive the
#: count from corpus rows via ``coarse_partitions`` (VERDICT r3 nit 1)
N_COARSE_PARTITIONS = 64

#: target exploded rows (corpus_rows × rows_per_doc band/block rows) per
#: coarse partition group-task — each task holds ~this many small int rows
#: in pandas (≈64 MB); same budget-derivation pattern as
#: textops.BROADCAST_VERIFY_MAX_BYTES
COARSE_PARTITION_ROW_BUDGET = 2_000_000

#: cap: beyond this, scheduler overhead per tiny group dominates
MAX_COARSE_PARTITIONS = 65_536


def coarse_partitions(corpus_rows: int, rows_per_doc: int = 32) -> int:
    """Partition count for the LSH pair-emission shuffle, scaled with input:
    ``corpus_rows × rows_per_doc`` exploded rows land in
    ``groupby('part')`` pandas group-tasks of ~COARSE_PARTITION_ROW_BUDGET
    rows each (``lifecycle.partition_width``). Floors at
    N_COARSE_PARTITIONS (small corpora keep the r3 behavior — and their
    driver-oracle hashes), caps at MAX_COARSE_PARTITIONS."""
    return partition_width(
        max(0, int(corpus_rows)) * max(1, int(rows_per_doc)),
        COARSE_PARTITION_ROW_BUDGET, N_COARSE_PARTITIONS, MAX_COARSE_PARTITIONS,
    )


def _word_ngrams(text: str, n: int) -> set:
    w = text.split()
    if len(w) < n:
        return {" ".join(w)} if w else set()
    return {" ".join(w[i : i + n]) for i in range(len(w) - n + 1)}


_NGRAM_MIX = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
     0x27D4EB2F165667C5, 0x85EBCA77C2B2AE63, 0xFF51AFD7ED558CCD],
    dtype=np.uint64,
)


def _fmix64(h: np.ndarray) -> np.ndarray:
    h = h.copy()
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xC4CEB9FE1A85EC53)
    h ^= h >> np.uint64(33)
    return h


def _ranges(counts: np.ndarray) -> np.ndarray:
    """[3,2] → [0,1,2,0,1] (vectorized per-run arange)."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _batch_shingle_hashes(texts, ngram: int) -> tuple:
    """All docs' word-n-gram shingle hashes, fully vectorized: hash every
    word ONCE (C-speed SipHash over the flat word array), then compose
    n-gram hashes by mixing n consecutive word hashes — no Python string
    joins, no per-shingle sets (duplicate shingles cannot change a min, so
    multiset semantics are safe for MinHash).

    Returns (hashes: uint64[total], offsets: int64[n_docs+1])."""
    words_per_doc = [(t or "").split() for t in texts]
    counts = np.fromiter(
        (len(w) for w in words_per_doc), dtype=np.int64, count=len(words_per_doc)
    )
    w_off = np.concatenate(([0], np.cumsum(counts)))
    flat = np.array([w for ws in words_per_doc for w in ws] or [""], dtype=object)
    wh = pd.util.hash_array(flat, hash_key=_HASH_KEY, categorize=True)[: w_off[-1]]

    # per-doc shingle counts: c>=n → c-n+1; 0<c<n → 1 (whole doc); 0 → 0
    full = counts >= ngram
    short = (counts > 0) & ~full
    out_counts = np.where(full, counts - ngram + 1, 0) + short.astype(np.int64)
    out_off = np.concatenate(([0], np.cumsum(out_counts)))
    out = np.zeros(out_off[-1], dtype=np.uint64)

    if full.any():
        total = len(wh)
        m = total - ngram + 1
        acc = wh[:m] * _NGRAM_MIX[0]
        for j in range(1, ngram):
            acc = acc ^ (wh[j : m + j] * _NGRAM_MIX[j % len(_NGRAM_MIX)])
        acc = _fmix64(acc)
        sel_cnts = out_counts[full] - 0  # == counts-n+1 for full docs
        src = np.repeat(w_off[:-1][full], sel_cnts) + _ranges(sel_cnts)
        dst = np.repeat(out_off[:-1][full], sel_cnts) + _ranges(sel_cnts)
        out[dst] = acc[src]

    for i in np.flatnonzero(short):  # rare: docs shorter than the n-gram
        h = np.uint64(0)
        for v in wh[w_off[i] : w_off[i + 1]]:
            h = h * np.uint64(0x100000001B3) ^ v
        out[out_off[i]] = _fmix64(np.array([h], dtype=np.uint64))[0]

    return out, out_off


class MinHasher:
    """Per-batch minhash signatures over word n-gram shingles (vectorized)."""

    def __init__(self, num_perm: int = 128, ngram: int = 3, seed: int = 7,
                 block: int = 1 << 16):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.ngram = ngram
        self.block = block  # shingles per reduce block (bounds peak memory)

    def signatures(self, texts) -> np.ndarray:
        """(n_docs, num_perm) uint64 signature matrix."""
        hashes, offsets = _batch_shingle_hashes(texts, self.ngram)
        n_docs = len(offsets) - 1
        out = np.full((n_docs, self.num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
        if len(hashes) == 0:
            return out
        # process docs in slabs so (num_perm × shingles) stays bounded
        doc_lo = 0
        while doc_lo < n_docs:
            doc_hi = doc_lo
            while doc_hi < n_docs and offsets[doc_hi + 1] - offsets[doc_lo] <= self.block:
                doc_hi += 1
            doc_hi = max(doc_hi, doc_lo + 1)
            h = hashes[offsets[doc_lo] : offsets[doc_hi]]
            if len(h):
                prod = (h[None, :] * self.a[:, None] + self.b[:, None]) % _MERSENNE
                starts = (offsets[doc_lo : doc_hi] - offsets[doc_lo]).astype(np.int64)
                nonempty = np.flatnonzero(np.diff(
                    np.concatenate((starts, [len(h)]))) > 0)
                red = np.minimum.reduceat(prod, starts[nonempty], axis=1)
                out[doc_lo + nonempty, :] = red.T
            doc_lo = doc_hi
        return out

    def signature(self, text: str) -> np.ndarray:
        return self.signatures([text])[0]

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        sigs = self.signatures(batch["text"].tolist())
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "minhash_sig": list(sigs.astype("int64")),
            }
        )


class BandExploder:
    """signature → (part, band_id, band_hash, doc_id) rows, vectorized.

    ``part`` is the coarse shuffle key: hash-mixed so each of the
    N_COARSE_PARTITIONS Ray groups holds many band buckets."""

    def __init__(self, bands: int = 32, rows: int = 4, n_parts: int | None = None):
        self.bands = bands
        self.rows = rows
        self.n_parts = n_parts or N_COARSE_PARTITIONS
        # mix columns of each band segment with distinct odd multipliers
        rng = np.random.default_rng(4242)
        self.mix = rng.integers(1, 1 << 62, size=(bands, rows), dtype=np.uint64) | np.uint64(1)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        sigs = np.stack(batch["minhash_sig"].to_numpy()).astype(np.uint64)  # (n, perms)
        n = sigs.shape[0]
        doc_ids = batch["doc_id"].to_numpy()
        frames = []
        for b in range(self.bands):
            seg = sigs[:, b * self.rows : (b + 1) * self.rows]  # (n, rows)
            h = (seg * self.mix[b][None, :]).sum(axis=1, dtype=np.uint64)
            h ^= h >> np.uint64(33)
            h *= np.uint64(0xFF51AFD7ED558CCD)
            h ^= h >> np.uint64(33)
            frames.append(
                pd.DataFrame(
                    {
                        "part": (h % np.uint64(self.n_parts)).astype(np.int64),
                        "band_id": np.full(n, b, dtype=np.int64),
                        "band_hash": h.astype(np.int64),
                        "doc_id": doc_ids,
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)


def candidate_pairs_partition(group: pd.DataFrame, df_cap: int = 200) -> pd.DataFrame:
    """One coarse partition → unique candidate (id_a < id_b) pairs.

    Fully vectorized: lexsort by (band_id, band_hash, doc_id), find bucket
    runs, then for each distinct run length L gather all runs of that length
    into an (R, L) matrix and emit its upper triangle in one shot — no
    pandas groupby over the (many) tiny band buckets. Buckets larger than
    df_cap docs are dropped (hot-shingle cap); every truncation is counted
    in ``capstats`` (key ``minhash_bands``) and logged."""
    empty = pd.DataFrame(
        {"id_a": pd.Series([], dtype="int64"), "id_b": pd.Series([], dtype="int64")}
    )
    if len(group) == 0:
        return empty
    bid = group["band_id"].to_numpy(dtype=np.int64)
    bh = group["band_hash"].to_numpy(dtype=np.int64)
    did = group["doc_id"].to_numpy(dtype=np.int64)
    order = np.lexsort((did, bh, bid))
    bid, bh, did = bid[order], bh[order], did[order]
    new = np.empty(len(bid), dtype=bool)
    new[0] = True
    new[1:] = (bid[1:] != bid[:-1]) | (bh[1:] != bh[:-1])
    starts = np.flatnonzero(new)
    lengths = np.diff(np.append(starts, len(bid)))
    hot = lengths > df_cap
    if hot.any():
        from .capstats import record_cap_drop

        record_cap_drop("minhash_bands", int(hot.sum()), int(lengths[hot].sum()))
    out_a, out_b = [], []
    for length in np.unique(lengths):
        if length < 2 or length > df_cap:
            continue
        runs = starts[lengths == length]
        mat = did[runs[:, None] + np.arange(length)[None, :]]  # (R, L)
        ia, ib = np.triu_indices(int(length), k=1)
        out_a.append(mat[:, ia].ravel())
        out_b.append(mat[:, ib].ravel())
    if not out_a:
        return empty
    df = pd.DataFrame(
        {"id_a": np.concatenate(out_a), "id_b": np.concatenate(out_b)}
    ).drop_duplicates()
    return df


def pair_partition_ids(
    id_a: np.ndarray, id_b: np.ndarray, n_parts: int | None = None
) -> np.ndarray:
    """THE coarse partition key for (id_a, id_b) pair streams — shared by
    pair dedup and the join-verify regroup so the two can never diverge
    (callers must pass the SAME ``n_parts`` to both)."""
    h = (
        id_a.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        + id_b.astype(np.uint64)
    )
    return (h % np.uint64(n_parts or N_COARSE_PARTITIONS)).astype(np.int64)


def dedupe_pairs(ds, n_parts: int | None = None):
    """Cross-partition pair dedup with a coarse key (same trick)."""

    def add_part(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(
            pair_part=pair_partition_ids(
                df["id_a"].to_numpy(), df["id_b"].to_numpy(), n_parts
            )
        )

    tagged = ds.map_batches(add_part, batch_format="pandas")
    return tagged.groupby("pair_part").map_groups(
        lambda g: g.drop_duplicates(["id_a", "id_b"]).drop(columns=["pair_part"]),
        batch_format="pandas",
    )


def exact_jaccard(text_a: str, text_b: str, ngram: int = 3) -> float:
    """Word-n-gram Jaccard with short-doc fallback (whole doc = one shingle).

    Docs with NO words (empty / whitespace-only / null) have an empty shingle
    set and similarity 0 to everything INCLUDING each other — no-content docs
    never near-dup-pair (exact dedup handles them); this matches the SQL
    oracle, which excludes word-less docs from the pair CTE."""
    sa, sb = _word_ngrams(text_a or "", ngram), _word_ngrams(text_b or "", ngram)
    if not sa or not sb:
        return 0.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


class SimHasher:
    """64-bit SimHash over word features (IDF-free, deterministic,
    vectorized: one SipHash call + bit-matrix sum per batch)."""

    @staticmethod
    def _simhash_many(texts) -> np.ndarray:
        words_per_doc = [(t or "").split() for t in texts]
        counts = np.fromiter((len(w) for w in words_per_doc), dtype=np.int64,
                             count=len(words_per_doc))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        flat = np.array([w for ws in words_per_doc for w in ws] or [""], dtype=object)
        h = pd.util.hash_array(flat, hash_key=_HASH_KEY, categorize=True)[: offsets[-1]]
        bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)
                ).astype(np.int32) * 2 - 1  # (+1/-1) per bit
        weights = (np.uint64(1) << np.arange(64, dtype=np.uint64))
        if len(h) == 0:
            return np.zeros(len(texts), dtype=np.int64)
        # one reduceat over a sentinel-padded bit matrix replaces the
        # per-doc Python loop; empty docs produce a bogus row (reduceat on
        # an empty segment returns the next row) that the mask zeroes out
        bits_ext = np.vstack([bits, np.zeros((1, 64), dtype=np.int32)])
        acc = np.add.reduceat(bits_ext, offsets[:-1], axis=0)  # (n_docs, 64)
        acc[counts == 0] = 0
        out = ((acc > 0).astype(np.uint64) * weights[None, :]).sum(
            axis=1, dtype=np.uint64
        )
        return out.view(np.int64)  # two's-complement reinterpret (arrow int64)

    @staticmethod
    def simhash(text: str) -> int:
        return int(SimHasher._simhash_many([text])[0])

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "simhash": self._simhash_many(batch["text"].tolist()),
            }
        )


def simhash_blocks(batch: pd.DataFrame, n_blocks: int = 4) -> pd.DataFrame:
    """Explode each simhash into n_blocks 16-bit block keys: two hashes
    within Hamming distance (n_blocks-1) share at least one block
    (pigeonhole), so grouping by (block_id, block_val) finds all candidates
    at distance ≤ 3 for 4 blocks."""
    u = batch["simhash"].to_numpy().astype(np.int64).view(np.uint64)
    frames = []
    for b in range(n_blocks):
        frames.append(
            pd.DataFrame(
                {
                    "doc_id": batch["doc_id"].to_numpy(),
                    "block_id": np.full(len(u), b, dtype=np.int64),
                    "block_val": ((u >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64),
                    "simhash": batch["simhash"].to_numpy(),
                }
            )
        )
    return pd.concat(frames, ignore_index=True)


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & ((1 << 64) - 1)).count("1")


def _popcount64(v: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR) — no Python per-element loop."""
    v = v.astype(np.uint64, copy=True)
    v -= (v >> np.uint64(1)) & np.uint64(0x5555555555555555)
    v = (v & np.uint64(0x3333333333333333)) + (
        (v >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    v = (v + (v >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((v * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def simhash_candidate_pairs_partition(
    group: pd.DataFrame, max_hamming: int = 3, df_cap: int = 200
) -> pd.DataFrame:
    """One coarse partition of (block_id, block_val, doc_id, simhash) rows →
    unique (id_a < id_b, hamming) pairs with Hamming distance ≤ max_hamming.

    Same fully-vectorized shape as ``candidate_pairs_partition``: lexsort by
    (block_id, block_val, doc_id), find equal-block runs, gather all runs of
    each length into (R, L) matrices, emit the upper triangle in one shot and
    filter by a SWAR-vectorized popcount of the XORed signatures — no nested
    Python pair loop. Blocks shared by more than ``df_cap`` docs are dropped
    (hot-block cap, mirroring the MinHash path); truncations are counted in
    ``capstats`` (key ``simhash_blocks``) and logged — this cap did not
    exist before r2's vectorized kernel, so drops change ``simhash_pairs``
    results vs the uncapped r1 path on corpora with >df_cap-hot blocks."""
    empty = pd.DataFrame(
        {"id_a": pd.Series([], dtype="int64"),
         "id_b": pd.Series([], dtype="int64"),
         "hamming": pd.Series([], dtype="int64")}
    )
    if len(group) == 0:
        return empty
    bid = group["block_id"].to_numpy(dtype=np.int64)
    bv = group["block_val"].to_numpy(dtype=np.int64)
    did = group["doc_id"].to_numpy(dtype=np.int64)
    sh = group["simhash"].to_numpy(dtype=np.int64)
    order = np.lexsort((did, bv, bid))
    bid, bv, did, sh = bid[order], bv[order], did[order], sh[order]
    new = np.empty(len(bid), dtype=bool)
    new[0] = True
    new[1:] = (bid[1:] != bid[:-1]) | (bv[1:] != bv[:-1])
    starts = np.flatnonzero(new)
    lengths = np.diff(np.append(starts, len(bid)))
    hot = lengths > df_cap
    if hot.any():
        from .capstats import record_cap_drop

        record_cap_drop("simhash_blocks", int(hot.sum()), int(lengths[hot].sum()))
    out_a, out_b, out_h = [], [], []
    for length in np.unique(lengths):
        if length < 2 or length > df_cap:
            continue
        runs = starts[lengths == length]
        idx = runs[:, None] + np.arange(length)[None, :]
        ids_mat = did[idx]  # (R, L), doc-id-sorted within each run
        sh_mat = sh[idx].view(np.uint64)
        ia, ib = np.triu_indices(int(length), k=1)
        d = _popcount64(sh_mat[:, ia] ^ sh_mat[:, ib]).ravel()
        a, b = ids_mat[:, ia].ravel(), ids_mat[:, ib].ravel()
        # a != b guards duplicate (doc, block) rows emitting self-pairs
        keep = (d <= max_hamming) & (a != b)
        out_a.append(a[keep])
        out_b.append(b[keep])
        out_h.append(d[keep])
    if not out_a:
        return empty
    return pd.DataFrame(
        {
            "id_a": np.concatenate(out_a),
            "id_b": np.concatenate(out_b),
            "hamming": np.concatenate(out_h),
        }
    ).drop_duplicates(["id_a", "id_b"])
