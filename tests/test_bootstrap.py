"""Snapshot bootstrap → streaming handoff (pipelines/bootstrap.py)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from clinical_trials_etl_ray.pipelines.bootstrap import bootstrap_lake, export_snapshot
from clinical_trials_etl_ray.pipelines.replay import replay
from clinical_trials_etl_ray.stages.merge import read_final_table
from clinical_trials_etl_ray.state.manifest import Manifest
from clinical_trials_etl_ray.synth import BinlogSpec, write_binlog_shards


def _final(lake_dir) -> pd.DataFrame:
    return (
        read_final_table(lake_dir)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )


def _ts(h: int):
    return np.datetime64(10**6 * (1_700_000_000 + 3600 * h), "us")


def test_plain_corpus_bootstrap_then_stream(ray_session, tmp_path):
    """A plain transcript Parquet becomes the initial lake state at
    base_lsn; a subsequent change stream updates / deletes / extends it
    under normal LWW."""
    corpus = pa.table({
        "conv_id": pa.array(["a", "a", "b"], pa.string()),
        "turn_idx": pa.array([0, 1, 0], pa.int32()),
        "role": pa.array(["user", "assistant", "user"], pa.string()),
        "text": pa.array(["hi", "hello", "yo"], pa.string()),
        "tool": pa.array([None, None, None], pa.string()),
        "ts": pa.array([_ts(0), _ts(1), _ts(2)], pa.timestamp("us")),
    })
    snap = tmp_path / "corpus"
    snap.mkdir()
    pq.write_table(corpus, str(snap / "part0.parquet"))

    lake = str(tmp_path / "lake")
    rep = bootstrap_lake(str(snap), lake, num_buckets=4)
    assert rep.rows_loaded == 3 and rep.watermark_lsn == 0
    assert len(_final(lake)) == 3

    changes = pa.table({
        "lsn": pa.array([1, 2, 3], pa.int64()),
        "op": pa.array(["update", "delete", "insert"], pa.string()),
        "conv_id": pa.array(["a", "b", "c"], pa.string()),
        "turn_idx": pa.array([0, 0, 0], pa.int32()),
        "role": pa.array(["user", None, "user"], pa.string()),
        "text": pa.array(["hi v2", None, "new"], pa.string()),
        "tool": pa.array([None, None, None], pa.string()),
        "ts": pa.array([_ts(5), _ts(5), _ts(5)], pa.timestamp("us")),
    })
    binlog = tmp_path / "binlog"
    binlog.mkdir()
    pq.write_table(changes, str(binlog / "s0.parquet"))
    replay(str(binlog), lake, num_buckets=4)

    got = _final(lake)
    assert dict(zip(zip(got["conv_id"], got["turn_idx"]), got["text"])) == {
        ("a", 0): "hi v2", ("a", 1): "hello", ("c", 0): "new",
    }


def test_cdc_aware_handoff_matches_full_replay(ray_session, tmp_path):
    """The flagship invariant: replay(first half) → export_snapshot →
    bootstrap a NEW lake from it → replay the FULL log. The result equals
    a from-scratch full replay exactly — tombstones in the snapshot keep
    guarding their keys, pre-cut chunks are watermark-skipped, straddling
    rows are stale-filtered per bucket."""
    binlog = str(tmp_path / "binlog")
    spec = BinlogSpec(
        n_events=5_000, n_convs=40, seed=23, delete_rate=0.1,
        duplicate_rate=0.05, shuffle_window=64,
    )
    write_binlog_shards(spec, binlog, n_shards=6, parallel=False)

    truth_lake = str(tmp_path / "truth")
    replay(binlog, truth_lake, num_buckets=8, files_per_chunk=2)
    truth = _final(truth_lake)

    import os

    shards = sorted(
        os.path.join(binlog, f) for f in os.listdir(binlog)
        if f.endswith(".parquet")
    )
    half_lake = str(tmp_path / "half")
    replay(shards[:3], half_lake, num_buckets=8, files_per_chunk=2)

    snap = str(tmp_path / "snapshot")
    cut = export_snapshot(half_lake, snap)
    assert cut == Manifest.load(half_lake).global_watermark()

    lake_b = str(tmp_path / "lakeb")
    rep = bootstrap_lake(snap, lake_b, num_buckets=4)  # re-partitioning OK
    assert rep.watermark_lsn == cut
    assert rep.rows_loaded > 0

    replay(binlog, lake_b, num_buckets=4, files_per_chunk=2)
    pd.testing.assert_frame_equal(_final(lake_b), truth)


def test_cdc_bootstrap_handoff_matches_oracle(ray_session):
    """Driver-contract pin for the tail entry "cdc_bootstrap_handoff" (the
    50-slot window is full): half-replay → export_snapshot → bootstrap →
    full replay equals the from-scratch SQL LWW final state."""
    import __ray_entry__ as entrymod
    from util_compare import assert_matches_oracle

    sf = "/root/testdata/sf0.001"
    q = entrymod.queries()["cdc_bootstrap_handoff"]
    sql = entrymod.oracle_sql()["cdc_bootstrap_handoff"]
    assert_matches_oracle(q(sf), sql, sf)


def test_snapshot_cut_semantics_with_out_of_band_writes(ray_session, tmp_path):
    """delete_where/upsert_table tombstones take LSNs ABOVE the watermark
    (deliberately — the watermark must not advance past undelivered
    producer LSNs). The default 'stable' snapshot cut therefore EXCLUDES
    them; cut='committed' captures the full current state. Both semantics
    are pinned here so neither regresses silently."""
    from clinical_trials_etl_ray.pipelines.retention import delete_where

    binlog = str(tmp_path / "binlog")
    # shuffle_window=0: the watermark covers every producer LSN, so the
    # stable cut differs from committed ONLY by the out-of-band writes
    spec = BinlogSpec(n_events=3_000, n_convs=30, seed=5, delete_rate=0.05,
                      shuffle_window=0)
    write_binlog_shards(spec, binlog, n_shards=3, parallel=False)
    lake = str(tmp_path / "lake")
    replay(binlog, lake, num_buckets=4, files_per_chunk=1)

    before = _final(lake)
    in_range = before["conv_id"].between("c1", "c19")
    assert in_range.any()
    delete_where(lake, conv_range=("c1", "c19"))
    after = _final(lake)

    # committed cut: bootstrap state == post-delete state
    snap_c = str(tmp_path / "snap_committed")
    export_snapshot(lake, snap_c, cut_lsn="committed")
    lake_c = str(tmp_path / "lake_c")
    bootstrap_lake(snap_c, lake_c, num_buckets=2)
    pd.testing.assert_frame_equal(_final(lake_c), after)

    # stable (default) cut: excludes the out-of-band tombstones — the
    # documented active-producer trade-off
    snap_s = str(tmp_path / "snap_stable")
    export_snapshot(lake, snap_s)
    lake_s = str(tmp_path / "lake_s")
    bootstrap_lake(snap_s, lake_s, num_buckets=2)
    got_s = _final(lake_s)
    assert len(got_s) == len(before)  # deletions not in the stable cut


def test_bootstrap_refuses_existing_lake(ray_session, tmp_path):
    corpus = pa.table({
        "conv_id": pa.array(["a"], pa.string()),
        "turn_idx": pa.array([0], pa.int32()),
        "role": pa.array(["user"], pa.string()),
        "text": pa.array(["hi"], pa.string()),
        "tool": pa.array([None], pa.string()),
        "ts": pa.array([_ts(0)], pa.timestamp("us")),
    })
    snap = tmp_path / "corpus"
    snap.mkdir()
    pq.write_table(corpus, str(snap / "p0.parquet"))
    lake = str(tmp_path / "lake")
    bootstrap_lake(str(snap), lake, num_buckets=2)
    with pytest.raises(ValueError, match="already has a manifest"):
        bootstrap_lake(str(snap), lake, num_buckets=2)


def test_bootstrap_carries_evolved_columns(ray_session, tmp_path):
    """Snapshot columns beyond the transcript schema join the committed
    schema (additive evolution) and survive the read path."""
    corpus = pa.table({
        "conv_id": pa.array(["a", "b"], pa.string()),
        "turn_idx": pa.array([0, 0], pa.int32()),
        "role": pa.array(["user", "user"], pa.string()),
        "text": pa.array(["hi", "yo"], pa.string()),
        "tool": pa.array([None, None], pa.string()),
        "ts": pa.array([_ts(0), _ts(1)], pa.timestamp("us")),
        "score": pa.array([0.5, 0.9], pa.float64()),
    })
    snap = tmp_path / "corpus"
    snap.mkdir()
    pq.write_table(corpus, str(snap / "p0.parquet"))
    lake = str(tmp_path / "lake")
    bootstrap_lake(str(snap), lake, num_buckets=2)
    got = _final(lake)
    assert "score" in got.columns
    assert sorted(got["score"].tolist()) == [0.5, 0.9]


def test_bootstrap_resumes_after_crash_before_commit(
    ray_session, tmp_path, monkeypatch
):
    """A bootstrap that dies after publishing the lake's empty version 0
    (here: a failure injected into ``Manifest.commit``) is resumed by a
    rerun, which ends exactly where an uninterrupted bootstrap does."""
    binlog = str(tmp_path / "binlog")
    spec = BinlogSpec(n_events=3_000, n_convs=30, seed=41, delete_rate=0.1,
                      shuffle_window=16)
    write_binlog_shards(spec, binlog, n_shards=2, parallel=False)
    src = str(tmp_path / "src")
    replay(binlog, src, num_buckets=4, files_per_chunk=1)
    snap = str(tmp_path / "snapshot")
    export_snapshot(src, snap)

    clean = str(tmp_path / "clean")
    want = bootstrap_lake(snap, clean, num_buckets=4)

    lake = str(tmp_path / "lake")
    real_commit = Manifest.commit

    def failing_commit(self, *a, **k):
        raise RuntimeError("injected crash before manifest commit")

    monkeypatch.setattr(Manifest, "commit", failing_commit)
    with pytest.raises(RuntimeError, match="injected"):
        bootstrap_lake(snap, lake, num_buckets=4)
    monkeypatch.setattr(Manifest, "commit", real_commit)
    assert Manifest.load(lake).version == 0

    got = bootstrap_lake(snap, lake, num_buckets=4)
    assert got == want
    pd.testing.assert_frame_equal(_final(lake), _final(clean))

    def records(lake_dir):
        man = Manifest.load(lake_dir)
        return sorted(
            (b, sorted(f.items()))
            for b in range(man.num_buckets)
            for f in man.files_for_bucket(b)
        )

    assert records(lake) == records(clean)
    # a lake that has committed data is still refused
    with pytest.raises(ValueError, match="already has a manifest"):
        bootstrap_lake(snap, lake, num_buckets=4)
