"""Per-file key Bloom filters for point-lookup pruning.

The manifest's per-file conv_id min/max ranges prune well on compacted
(key-sorted) bases, but on uncompacted delta files the key ranges of random
conv_ids all span nearly the whole keyspace — a point lookup then opens
every file in the key's candidate buckets. A small Bloom filter over each
file's distinct key hashes (sized ~10 bits/key, capped at 512 bytes) gives
a sound skip: Blooms have NO false negatives, so a file whose filter
rejects the key cannot hold any row of that key, and skipping it cannot
change the key's LWW winner (same soundness argument as the range prune in
``stages.merge.iter_resolve_bucket``).

Reference analog: the secondary indexes the reference leans on for point
reads (trials_extractor/storage/mongodb_storage.py:94-134), rebuilt as
immutable per-file metadata instead of a server-side mutable index.

Layout: double hashing over the existing uint64 SipHash key hash —
``pos_i = (h1 + i*h2) mod m`` with ``h2`` forced odd, ``m`` a power of two
encoded implicitly by the byte length. Stored base64 in the manifest file
entry (``conv_bloom``), ~90 B for a 64-key delta, ≤684 B at the cap.
"""

from __future__ import annotations

import base64

import numpy as np

BLOOM_K = 6  # hash probes; ~1% FP at 10 bits/key
_MIN_BITS = 64
_MAX_BITS = 4096  # 512 B cap per file


def _h2(h1: np.ndarray | np.uint64):
    """Second hash for double hashing: an odd mix of the first."""
    x = (h1 >> np.uint64(17)) ^ (h1 * np.uint64(0x9E3779B97F4A7C15))
    return x | np.uint64(1)


def bloom_bits_for(n_keys: int) -> int:
    """Power-of-two bit size targeting ~10 bits per distinct key."""
    m = _MIN_BITS
    while m < 10 * max(1, n_keys) and m < _MAX_BITS:
        m *= 2
    return m


def bloom_from_hashes(hashes: np.ndarray) -> bytes:
    """Build a Bloom filter over uint64 key hashes (vectorized)."""
    h1 = np.unique(np.asarray(hashes, dtype=np.uint64))
    m = np.uint64(bloom_bits_for(len(h1)))
    h2 = _h2(h1)
    bits = np.zeros(int(m) // 8, dtype=np.uint8)
    for i in range(BLOOM_K):
        pos = (h1 + np.uint64(i) * h2) % m
        np.bitwise_or.at(bits, pos >> np.uint64(3),
                         np.uint8(1) << (pos & np.uint64(7)).astype(np.uint8))
    return bits.tobytes()


def bloom_b64_from_hashes(hashes: np.ndarray) -> str:
    return base64.b64encode(bloom_from_hashes(hashes)).decode()


def bloom_might_contain(b64: str, key_hash: int) -> bool:
    """Membership probe; False means the key is PROVABLY absent.

    Double hashing works in Z/2^64 — probe arithmetic in plain Python ints
    with an explicit 2^64 wrap (numpy uint64 scalar ops wrap identically
    but emit RuntimeWarning: overflow on every probe)."""
    bits = np.frombuffer(base64.b64decode(b64), dtype=np.uint8)
    m = len(bits) * 8
    mask = 0xFFFFFFFFFFFFFFFF
    h1 = int(key_hash) & mask
    h2 = (((h1 >> 17) ^ (h1 * 0x9E3779B97F4A7C15)) & mask) | 1  # == _h2
    for i in range(BLOOM_K):
        pos = ((h1 + i * h2) & mask) % m
        if not (bits[pos >> 3] >> (pos & 7)) & 1:
            return False
    return True
