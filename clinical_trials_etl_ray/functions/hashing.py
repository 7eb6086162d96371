"""Deterministic, vectorized hashing used for bucket routing and lineage.

Bucket routing must be stable across processes and Python versions (builtin
``hash`` is salted per-process), and vectorized (no Python loop per row in the
hot path). We use pandas' SipHash-based ``hash_array`` with a fixed key —
C-speed over object arrays, with ``categorize=True`` amortizing repeated keys.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

_HASH_KEY = "cdc-bucket-hash0"  # exactly 16 bytes, fixed => deterministic


def hash_strings(arr) -> np.ndarray:
    """uint64 deterministic hash of a string array (pa.Array/ChunkedArray/np)."""
    if isinstance(arr, (pa.Array, pa.ChunkedArray)):
        arr = arr.to_pandas().to_numpy(dtype=object)
    elif not isinstance(arr, np.ndarray):
        arr = np.asarray(arr, dtype=object)
    return pd.util.hash_array(arr, hash_key=_HASH_KEY, categorize=True)


def bucket_ids(conv_ids, num_buckets: int) -> np.ndarray:
    """int32 bucket per conv_id: hash(conv_id) % num_buckets.

    This IS the lake's primary "index" — the Ray-native replacement for the
    reference's MongoDB unique index on the document key
    (trials_extractor/storage/mongodb_storage.py:87-92): co-locating all
    events for one conversation in one partition makes keyed upsert a
    partition-local merge and point lookups a partition prune.
    """
    return (hash_strings(conv_ids) % np.uint64(num_buckets)).astype(np.int32)


def salted_bucket_ids(
    conv_ids, turn_idx, num_buckets: int, salt_factor: int = 1
) -> np.ndarray:
    """Hot-key salting (SURVEY §7.2 step 5): spread ONE conversation's turns
    over ``salt_factor`` adjacent buckets so a viral conv_id cannot pin an
    entire partition to one worker. Deterministic per KEY — the bucket
    depends only on (conv_id, turn_idx), so merge/compaction/read semantics
    are unchanged (every event for a key still meets in exactly one bucket);
    safe because the LWW winner is an associative max (stages/dedupe.py).
    ``salt_factor=1`` degenerates to ``bucket_ids`` exactly. The factor is a
    lake-creation-time parameter (persisted in the manifest): changing it
    would re-route keys mid-lake.
    """
    if salt_factor <= 1:
        return bucket_ids(conv_ids, num_buckets)
    h = hash_strings(conv_ids)
    if isinstance(turn_idx, (pa.Array, pa.ChunkedArray)):
        turn_idx = turn_idx.to_numpy(zero_copy_only=False)
    sub = np.asarray(turn_idx).astype(np.uint64) % np.uint64(salt_factor)
    return (
        (h * np.uint64(salt_factor) + sub) % np.uint64(num_buckets)
    ).astype(np.int32)


def content_hash(table: pa.Table) -> str:
    """Deterministic content hash of a table (for idempotent staged files).

    Hash of the Arrow IPC stream of the table sorted by (conv_id, turn_idx,
    ts, lsn): a retried merge task producing the same logical content yields
    the same hash, making staged-file writes idempotent (commit-once manifest,
    SURVEY §7.4 exactly-once).
    """
    import pyarrow.compute as pc

    keys = [
        (c, "ascending")
        for c in ("conv_id", "turn_idx", "ts", "lsn")
        if c in table.column_names
    ] or [(c, "ascending") for c in table.column_names]  # e.g. keyed view
    # aggregates carry none of the canonical columns; any total order works
    idx = pc.sort_indices(table, sort_keys=keys)
    return hashlib.sha256(ipc_bytes(table.take(idx))).hexdigest()[:24]


def ipc_bytes(table: pa.Table) -> bytes:
    """The Arrow IPC stream of ``table`` as one record batch
    (``combine_chunks`` canonicalizes the batch layout first): the bytes
    every content hash digests, so equal rows give equal bytes."""
    table = table.combine_chunks()
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return sink.getvalue().to_pybytes()
