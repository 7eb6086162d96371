"""Multi-writer commit coordination (round-4 VERDICT item 5): losing a
manifest version race now retries with rebase instead of failing, for the
provably-safe cases — appends (LWW-associative winner deltas) and
consumed-path-aware replaces (compaction/purge). Unsafe rebases still
raise ConcurrentWriterError: wholesale replace without a consumed set, and
any commit across a concurrent layout change (rebucket).

Pinned here:
  - pure manifest-level rebase: two stale-based appenders both land, files
    and watermark merged, schema unioned additively;
  - refusal cases;
  - compaction committing AFTER a newer ingest commit keeps the new deltas
    (the (current − consumed) + outputs merge);
  - the two-thread end-to-end: concurrent replay of disjoint-LSN binlogs
    into one lake == the serialized replay (VERDICT's done-criterion).
"""

import os
import threading

import pandas as pd
import pytest

from clinical_trials_etl_ray.pipelines.replay import compact, replay
from clinical_trials_etl_ray.stages.merge import read_final_table
from clinical_trials_etl_ray.state.manifest import (
    ConcurrentWriterError,
    Manifest,
)
from clinical_trials_etl_ray.synth import BinlogSpec, write_binlog_shards


def _fi(path, lo, hi, rows=10, kind="delta"):
    return {
        "path": path, "kind": kind, "content_hash": path, "row_count": rows,
        "min_lsn": lo, "max_lsn": hi, "conv_min": None, "conv_max": None,
        "ts_us_min": None, "ts_us_max": None, "conv_bloom": None,
    }


def _nf(bucket, path, lo, hi):
    return {"bucket": bucket, **_fi(path, lo, hi)}


def test_manifest_append_rebase(tmp_path):
    lake = str(tmp_path / "lake")
    Manifest.create(lake, num_buckets=2)
    a = Manifest.load(lake)
    b = Manifest.load(lake)  # same base version — the race

    a2 = a.commit([_nf(0, "data/bucket=00000/delta-a.parquet", 0, 10)], 10)
    assert a2.version == 1
    # b's commit targets v1 too — loses the race, rebases, lands as v2
    b2 = b.commit([_nf(1, "data/bucket=00001/delta-b.parquet", 200, 300)], 300)
    assert b2.version == 2
    cur = Manifest.load(lake)
    paths = cur.all_files()
    assert "data/bucket=00000/delta-a.parquet" in paths
    assert "data/bucket=00001/delta-b.parquet" in paths
    assert cur.global_watermark() == 300  # max of both (total-order claim)


def test_manifest_rebase_refusals(tmp_path):
    lake = str(tmp_path / "lake")
    Manifest.create(lake, num_buckets=2)
    a = Manifest.load(lake)
    b = Manifest.load(lake)
    a.commit([_nf(0, "data/bucket=00000/delta-a.parquet", 0, 10)], 10)

    # wholesale replace without consumed_paths: cannot merge safely
    with pytest.raises(ConcurrentWriterError):
        b.commit(
            [], 10,
            replace_buckets={0: [_fi("data/bucket=00000/base-x.parquet", 0, 10, kind="base")]},
        )

    # layout changed underneath (rebucket): staged files are mis-routed
    c = Manifest.load(lake)
    Manifest.load(lake).commit_layout(4, 2, {}, new_watermark_lsn=10)
    with pytest.raises(ConcurrentWriterError):
        c.commit([_nf(0, "data/bucket=00000/delta-c.parquet", 11, 20)], 20)

    # retries are bounded: a writer that keeps losing eventually raises
    d = Manifest.load(lake)
    d_stale = Manifest.load(lake)
    d.commit([_nf(0, "data/bucket=00000/delta-d.parquet", 21, 30)], 30)
    with pytest.raises(ConcurrentWriterError):
        d_stale.commit(
            [_nf(0, "data/bucket=00000/delta-e.parquet", 31, 40)], 40,
            max_retries=0,
        )


def _shifted_binlog(tmp_path, name, spec, lsn_offset):
    """A one-shard binlog whose LSNs start ``lsn_offset`` above ``spec``'s."""
    import shutil

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    raw = str(tmp_path / f"{name}_raw")
    write_binlog_shards(spec, raw, n_shards=1, parallel=False)
    out = str(tmp_path / name)
    os.makedirs(out)
    for f in sorted(os.listdir(raw)):
        src = os.path.join(raw, f)
        if f.endswith(".parquet"):
            t = pq.read_table(src)
            i = t.schema.get_field_index("lsn")
            t = t.set_column(i, "lsn", pc.add(t.column("lsn"), pa.scalar(lsn_offset)))
            pq.write_table(t, os.path.join(out, f))
        else:
            shutil.copy(src, os.path.join(out, f))
    return out


def _lake_store(tmp_path):
    """The lake: two replay chunks, then a second ingest generation; the
    fold is major compaction (each bucket's whole file list, one group)."""
    from clinical_trials_etl_ray.stages.merge import compact_bucket

    binlog = str(tmp_path / "binlog")
    spec = BinlogSpec(n_events=3_000, n_convs=30, seed=51, delete_rate=0.05)
    write_binlog_shards(spec, binlog, n_shards=2, parallel=False)
    lake = str(tmp_path / "lake")
    binlog2 = _shifted_binlog(
        tmp_path, "binlog2", BinlogSpec(n_events=1_000, n_convs=30, seed=52), 50_000
    )
    key = ["conv_id", "turn_idx"]

    def state():
        df = read_final_table(lake).to_pandas()
        return df.sort_values(key, kind="mergesort").reset_index(drop=True)[
            sorted(df.columns)
        ]

    return (
        lake,
        lambda: replay(binlog, lake, num_buckets=2, files_per_chunk=1),
        lambda: replay(binlog2, lake, num_buckets=2, files_per_chunk=1),
        lambda b, files: compact_bucket(lake, b, files),
        {"min_files": 1, "split_kinds": False},
        state,
    )


def _index_rows(store: str) -> dict:
    """Every distinct row of an index store, by file kind."""
    import pyarrow.parquet as pq

    man = Manifest.load(store)
    rows: dict = {}
    for b in range(man.num_buckets):
        for f in man.files_for_bucket(b):
            t = pq.read_table(os.path.join(store, f["path"])).to_pylist()
            rows.setdefault(f["kind"], set()).update(
                tuple(tuple(v) if isinstance(v, list) else v for v in r.values())
                for r in t
            )
    return rows


def _seen_store(tmp_path):
    """The seen index: two increments, then a third; the fold is union."""
    import ray.data

    from clinical_trials_etl_ray.stages import seen_index as S

    idx = str(tmp_path / "seen")

    def inc(lo, hi):
        docs = pd.DataFrame({"doc_id": range(lo, hi), "text": [f"doc {i}" for i in range(lo, hi)]})
        return lambda: S.update_seen_index(idx, ray.data.from_pandas(docs), num_buckets=2)

    def build():
        inc(0, 20)()
        inc(20, 40)()

    return (
        idx, build, inc(40, 60),
        lambda b, files: S._fold_partition(idx, b, files), {},
        lambda: _index_rows(idx),
    )


def _lsh_store(tmp_path):
    """The LSH index: two increments, then a third; the fold is concat +
    dedupe per (bucket, kind)."""
    import numpy as np
    import ray.data

    from clinical_trials_etl_ray.stages import lsh_index as L

    idx = str(tmp_path / "lsh")
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(300)]
    texts = [" ".join(rng.choice(vocab, 40)) for _ in range(15)]

    def inc(lo, hi):
        docs = pd.DataFrame({"doc_id": np.arange(lo, hi, dtype=np.int64), "text": texts[lo:hi]})
        return lambda: L.update_lsh_index(idx, ray.data.from_pandas(docs), num_buckets=2)

    def build():
        inc(0, 5)()
        inc(5, 10)()

    return (
        idx, build, inc(10, 15),
        lambda b, files: L._fold_partition(idx, b, files), {},
        lambda: _index_rows(idx),
    )


@pytest.mark.parametrize("store", ["lake", "seen", "lsh"])
def test_compaction_rebase_keeps_concurrent_deltas(ray_session, tmp_path, store):
    """A fold whose commit lands AFTER a newer update commit must not drop
    the files that update added — the consumed-paths merge of the shared
    fold commit (stages/lifecycle.fold_commit), for every store that
    compacts: the lake, the seen index and the LSH index."""
    from clinical_trials_etl_ray.stages.lifecycle import fold_commit

    make = {"lake": _lake_store, "seen": _seen_store, "lsh": _lsh_store}[store]
    path, build, update, fold, fold_kw, state = make(tmp_path)
    build()
    man0 = Manifest.load(path)  # the fold plans against this snapshot

    # a newer update commits BEFORE the fold's commit
    update()
    newer = Manifest.load(path).all_files() - man0.all_files()
    assert newer
    want = state()

    # the fold's stale-based commit rebases and keeps the update's files
    assert fold_commit(man0, fold, {"compaction": True}, **fold_kw) > 0
    cur = Manifest.load(path)
    assert cur.version == man0.version + 2
    assert newer <= cur.all_files()
    if store == "lake":
        kinds = {
            f["kind"] for b in range(cur.num_buckets) for f in cur.files_for_bucket(b)
        }
        assert {"base", "delta"} <= kinds  # folded gen-1 + live gen-2
        pd.testing.assert_frame_equal(state(), want)
    else:
        assert state() == want


def test_crashed_low_range_producer_rerun_delivers(ray_session, tmp_path):
    """Round-5 ADVICE (medium): a low-range producer that crashed before
    delivering anything re-runs AFTER a concurrent high-range producer
    advanced the combined watermark past its entire range. Seeded from the
    combined watermark, the re-run would skip every chunk (chunk_max_lsn ≤
    global watermark) and the delta writer would stale-filter any rows —
    silent data loss while the watermark claims delivery. With producer
    ids, the re-run seeds from ITS OWN ledger entry (-1: never delivered)
    and lands its range; a second re-run then skips via the ledger."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    lo_log = str(tmp_path / "binlog_lo")
    write_binlog_shards(
        BinlogSpec(n_events=2_000, n_convs=20, seed=71, delete_rate=0.05),
        lo_log, n_shards=2, parallel=False,
    )
    raw = str(tmp_path / "binlog_hi_raw")
    write_binlog_shards(
        BinlogSpec(n_events=2_000, n_convs=20, seed=72, delete_rate=0.05),
        raw, n_shards=2, parallel=False,
    )
    hi_log = str(tmp_path / "binlog_hi")
    os.makedirs(hi_log)
    for name in sorted(os.listdir(raw)):
        src = os.path.join(raw, name)
        if name.endswith(".parquet"):
            t = pq.read_table(src)
            i = t.schema.get_field_index("lsn")
            t = t.set_column(
                i, "lsn", pc.add(t.column("lsn"), pa.scalar(1_000_000))
            )
            pq.write_table(t, os.path.join(hi_log, name))
        else:
            import shutil

            shutil.copy(src, os.path.join(hi_log, name))

    lake = str(tmp_path / "lake")
    Manifest.create(lake, num_buckets=2)

    # producer "lo" crashes before delivering ANYTHING; producer "hi"
    # completes its whole (higher) range, advancing the combined watermark
    r_hi = replay(hi_log, lake, num_buckets=2, files_per_chunk=1,
                  producer="hi")
    assert r_hi.chunks_applied == r_hi.chunks_total
    man = Manifest.load(lake)
    assert man.global_watermark() >= 1_000_000
    assert man.producer_watermark("hi") >= 1_000_000
    assert man.producer_watermark("lo") == -1

    # the documented crash remedy — "re-run with its own range" — must
    # actually deliver, not no-op
    r_lo = replay(lo_log, lake, num_buckets=2, files_per_chunk=1,
                  producer="lo")
    assert r_lo.chunks_skipped == 0
    assert r_lo.delta_rows_written > 0

    serial = str(tmp_path / "serial")
    replay(lo_log, serial, num_buckets=2, files_per_chunk=1)
    replay(hi_log, serial, num_buckets=2, files_per_chunk=1)
    key = ["conv_id", "turn_idx"]
    got = read_final_table(lake).to_pandas()
    want = read_final_table(serial).to_pandas()
    pd.testing.assert_frame_equal(
        got.sort_values(key, kind="mergesort").reset_index(drop=True)[sorted(got.columns)],
        want.sort_values(key, kind="mergesort").reset_index(drop=True)[sorted(want.columns)],
    )

    # idempotence: a THIRD run of "lo" resumes from its ledger and skips all
    r_again = replay(lo_log, lake, num_buckets=2, files_per_chunk=1,
                     producer="lo")
    assert r_again.chunks_applied == 0
    assert r_again.chunks_skipped == r_again.chunks_total
    # ledger persisted and monotone for both producers
    man2 = Manifest.load(lake)
    assert man2.producer_watermark("lo") >= 0
    assert man2.producer_watermark("hi") >= 1_000_000


def test_two_thread_replay_disjoint_ranges(ray_session, tmp_path):
    """VERDICT item 5's done-criterion: two producers feeding disjoint LSN
    ranges replay CONCURRENTLY into one lake; both commit chains land, and
    the final state equals the serialized replay."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    lo_log = str(tmp_path / "binlog_lo")
    write_binlog_shards(
        BinlogSpec(n_events=3_000, n_convs=25, seed=61, delete_rate=0.05),
        lo_log, n_shards=3, parallel=False,
    )
    raw = str(tmp_path / "binlog_hi_raw")
    write_binlog_shards(
        BinlogSpec(n_events=3_000, n_convs=25, seed=62, delete_rate=0.05),
        raw, n_shards=3, parallel=False,
    )
    hi_log = str(tmp_path / "binlog_hi")
    os.makedirs(hi_log)
    for name in sorted(os.listdir(raw)):
        src = os.path.join(raw, name)
        if name.endswith(".parquet"):
            t = pq.read_table(src)
            i = t.schema.get_field_index("lsn")
            t = t.set_column(
                i, "lsn", pc.add(t.column("lsn"), pa.scalar(1_000_000))
            )
            pq.write_table(t, os.path.join(hi_log, name))
        else:
            import shutil

            shutil.copy(src, os.path.join(hi_log, name))

    lake = str(tmp_path / "lake")
    Manifest.create(lake, num_buckets=2)

    errs = []
    barrier = threading.Barrier(2)

    def run(log):
        try:
            barrier.wait()
            replay(log, lake, num_buckets=2, files_per_chunk=1)
        except Exception as e:  # pragma: no cover - failure reporting
            errs.append(e)

    threads = [threading.Thread(target=run, args=(l,)) for l in (lo_log, hi_log)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errs, errs

    serial = str(tmp_path / "serial")
    replay(lo_log, serial, num_buckets=2, files_per_chunk=1)
    replay(hi_log, serial, num_buckets=2, files_per_chunk=1)

    key = ["conv_id", "turn_idx"]
    got = read_final_table(lake).to_pandas()
    want = read_final_table(serial).to_pandas()
    pd.testing.assert_frame_equal(
        got.sort_values(key, kind="mergesort").reset_index(drop=True)[sorted(got.columns)],
        want.sort_values(key, kind="mergesort").reset_index(drop=True)[sorted(want.columns)],
    )
