"""Write-side lifecycle ops (pipelines/retention.py): predicate deletes
(tombstone emission through the exactly-once commit path) and physical
purge (file rewrite with manifest swap)."""

import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from clinical_trials_etl_ray.pipelines.replay import compact, replay
from clinical_trials_etl_ray.pipelines.retention import (
    delete_where,
    purge_conv,
    upsert_table,
)
from clinical_trials_etl_ray.stages.merge import read_final_table
from clinical_trials_etl_ray.state.manifest import Manifest
from clinical_trials_etl_ray.synth import BinlogSpec, write_binlog_shards


@pytest.fixture()
def lake(ray_session, tmp_path):
    binlog = str(tmp_path / "binlog")
    spec = BinlogSpec(
        n_events=6_000, n_convs=40, seed=7, delete_rate=0.08,
        duplicate_rate=0.05, shuffle_window=64,
    )
    write_binlog_shards(spec, binlog, n_shards=4, parallel=False)
    lake = str(tmp_path / "lake")
    replay(binlog, lake, num_buckets=8, files_per_chunk=2)
    return lake


def _final(lake_dir, **kw) -> pd.DataFrame:
    return (
        read_final_table(lake_dir, **kw)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )


def test_delete_conv_range(lake):
    before = _final(lake)
    in_range = before["conv_id"].between("c1", "c19")
    assert in_range.any() and (~in_range).any()

    rep = delete_where(lake, conv_range=("c1", "c19"))
    assert rep.matched_rows == int(in_range.sum())
    assert rep.files_written > 0
    assert rep.tombstone_lsn > 0

    after = _final(lake)
    pd.testing.assert_frame_equal(
        after, before[~in_range].reset_index(drop=True)
    )
    # logical delete: the payload bytes are still in the (immutable) files;
    # a later compaction folds them away
    assert Manifest.load(lake).version == rep.final_version


def test_delete_idempotent_rerun(lake):
    rep1 = delete_where(lake, conv_range=("c1", "c19"))
    assert rep1.matched_rows > 0
    v1 = Manifest.load(lake).version

    rep2 = delete_where(lake, conv_range=("c1", "c19"))
    assert rep2.matched_rows == 0
    assert rep2.files_written == 0
    assert Manifest.load(lake).version == v1  # no empty commit


def test_delete_dry_run(lake):
    before = _final(lake)
    n = int(before["conv_id"].between("c1", "c19").sum())
    rep = delete_where(lake, conv_range=("c1", "c19"), dry_run=True)
    assert rep.dry_run and rep.matched_rows == n
    pd.testing.assert_frame_equal(_final(lake), before)  # nothing written


def test_delete_ts_retention(lake):
    before = _final(lake)
    cutoff = before["ts"].quantile(0.5)
    rep = delete_where(lake, ts_max=cutoff)
    assert rep.matched_rows == int((before["ts"] <= cutoff).sum())
    after = _final(lake)
    assert (after["ts"] > cutoff).all()
    pd.testing.assert_frame_equal(
        after, before[before["ts"] > cutoff].reset_index(drop=True)
    )


def test_delete_refuses_full_without_flag(lake):
    with pytest.raises(ValueError, match="allow_full"):
        delete_where(lake)
    rep = delete_where(lake, allow_full=True)
    assert rep.matched_rows > 0
    assert read_final_table(lake).count() == 0


def test_delete_then_late_event_resurrects(lake, tmp_path):
    """A tombstone is a normal LWW participant: a later change event with a
    newer (ts, lsn) legitimately re-creates the key."""
    import numpy as np
    import pyarrow as pa

    before = _final(lake)
    victim = before.iloc[0]
    rep = delete_where(lake, conv_id=str(victim["conv_id"]))
    assert rep.matched_rows > 0
    assert str(victim["conv_id"]) not in set(_final(lake)["conv_id"])

    new_ts = before["ts"].max().to_datetime64() + np.timedelta64(1, "h")
    late = pa.table({
        "lsn": pa.array([rep.tombstone_lsn + 1], pa.int64()),
        "op": pa.array(["insert"], pa.string()),
        "conv_id": pa.array([str(victim["conv_id"])], pa.string()),
        "turn_idx": pa.array([int(victim["turn_idx"])], pa.int32()),
        "role": pa.array(["user"], pa.string()),
        "text": pa.array(["back"], pa.string()),
        "tool": pa.array([None], pa.string()),
        "ts": pa.array([new_ts], pa.timestamp("us")),
    })
    shard_dir = tmp_path / "late"
    shard_dir.mkdir()
    pq.write_table(late, str(shard_dir / "s0.parquet"))
    replay(str(shard_dir), lake, num_buckets=8)

    after = _final(lake)
    row = after[after["conv_id"] == str(victim["conv_id"])]
    assert len(row) == 1 and row.iloc[0]["text"] == "back"


def test_purge_physical_erasure(lake):
    before = _final(lake)
    victim = str(before["conv_id"].iloc[0])

    rep = purge_conv(lake, victim)
    assert rep.rows_purged > 0
    assert rep.files_rewritten + rep.files_dropped > 0

    after = _final(lake)
    pd.testing.assert_frame_equal(
        after, before[before["conv_id"] != victim].reset_index(drop=True)
    )
    # physical: no current-manifest file holds ANY row (incl. tombstones)
    man = Manifest.load(lake)
    for b in range(man.num_buckets):
        for f in man.files_for_bucket(b):
            t = pq.read_table(
                os.path.join(lake, f["path"]), columns=["conv_id"]
            )
            assert victim not in set(t["conv_id"].to_pylist())


def test_purge_prunes_files_on_compacted_lake(lake):
    compact(lake)
    man = Manifest.load(lake)
    total_files = sum(len(man.files_for_bucket(b)) for b in range(man.num_buckets))
    victim = str(_final(lake)["conv_id"].iloc[0])
    rep = purge_conv(lake, victim)
    assert rep.rows_purged > 0
    # candidate-bucket + range/Bloom pruning: only the key's buckets opened
    assert rep.buckets_scanned <= man.salt_factor
    assert rep.files_scanned < total_files


def test_purge_then_replay_is_noop(ray_session, tmp_path):
    """Re-delivering an already-committed binlog cannot resurrect purged
    data: with no producer disorder the watermark covers every committed
    LSN, so every old chunk is skipped. (With a disorder bound, the tail
    above the held-back watermark is legitimately re-appliable — the
    documented purge-after-horizon caveat.)"""
    binlog = str(tmp_path / "binlog")
    spec = BinlogSpec(
        n_events=3_000, n_convs=30, seed=11, delete_rate=0.05,
        shuffle_window=0,
    )
    write_binlog_shards(spec, binlog, n_shards=3, parallel=False)
    lake = str(tmp_path / "lake")
    replay(binlog, lake, num_buckets=4, files_per_chunk=1)

    victim = str(_final(lake)["conv_id"].iloc[0])
    purge_conv(lake, victim)
    rep = replay(binlog, lake, num_buckets=4, files_per_chunk=1)
    assert rep.chunks_applied == 0
    assert victim not in set(_final(lake)["conv_id"])


def test_cdc_upsert_corrections_matches_oracle(ray_session):
    """Driver-contract pin for the tail entry "cdc_upsert_corrections"
    (the 50-slot window is full): replay → rewrite c7's text via
    upsert_table → final equals SQL_FINAL with the same CASE rewrite."""
    import __ray_entry__ as entrymod
    from util_compare import assert_matches_oracle

    sf = "/root/testdata/sf0.001"
    q = entrymod.queries()["cdc_upsert_corrections"]
    sql = entrymod.oracle_sql()["cdc_upsert_corrections"]
    assert_matches_oracle(q(sf), sql, sf)


def test_cdc_delete_where_matches_oracle(ray_session):
    """Driver-contract pin for the tail entry "cdc_delete_where" (the
    50-slot window is full): replay → delete_where(conv_range) → final
    table equals the SQL LWW state minus the range."""
    import __ray_entry__ as entrymod
    from util_compare import assert_matches_oracle

    sf = "/root/testdata/sf0.001"
    q = entrymod.queries()["cdc_delete_where"]
    sql = entrymod.oracle_sql()["cdc_delete_where"]
    assert_matches_oracle(q(sf), sql, sf)


def test_upsert_table_corrections(lake):
    """A correction batch built from the current winners (same ts, engine
    LSN above everything) overrides text; an op column mixes in deletes;
    an older-ts correction loses (out-of-order protection)."""
    import pyarrow as pa

    before = _final(lake)
    victims = before.head(3)
    corr = pa.table({
        "conv_id": pa.array(victims["conv_id"].tolist(), pa.string()),
        "turn_idx": pa.array(victims["turn_idx"].tolist(), pa.int32()),
        "role": pa.array(victims["role"].tolist(), pa.string()),
        "text": pa.array(["fixed"] * 3, pa.string()),
        "tool": pa.array([None] * 3, pa.string()),
        "ts": pa.array(victims["ts"].to_numpy()).cast(pa.timestamp("us")),
        "op": pa.array(["update", "update", "delete"], pa.string()),
    })
    rep = upsert_table(lake, corr)
    assert rep.rows_applied == 3 and rep.upsert_lsn > 0

    after = _final(lake)
    keymap = dict(zip(zip(after["conv_id"], after["turn_idx"]), after["text"]))
    k0 = (victims.iloc[0]["conv_id"], victims.iloc[0]["turn_idx"])
    k1 = (victims.iloc[1]["conv_id"], victims.iloc[1]["turn_idx"])
    k2 = (victims.iloc[2]["conv_id"], victims.iloc[2]["turn_idx"])
    assert keymap[k0] == "fixed" and keymap[k1] == "fixed"
    assert k2 not in keymap  # the delete row
    assert len(after) == len(before) - 1

    # an older-event-time correction loses to the current winner
    import numpy as np

    old = pa.table({
        "conv_id": pa.array([k0[0]], pa.string()),
        "turn_idx": pa.array([int(k0[1])], pa.int32()),
        "role": pa.array(["user"], pa.string()),
        "text": pa.array(["stale correction"], pa.string()),
        "tool": pa.array([None], pa.string()),
        "ts": pa.array(
            [victims.iloc[0]["ts"].to_datetime64() - np.timedelta64(1, "D")],
            pa.timestamp("us"),
        ),
    })
    upsert_table(lake, old)
    after2 = _final(lake)
    got = after2[(after2["conv_id"] == k0[0]) & (after2["turn_idx"] == k0[1])]
    assert got.iloc[0]["text"] == "fixed"


def test_upsert_table_dataset_matches_table_input(lake, tmp_path):
    """The delta-write operator's two input paths agree: the same
    correction batch upserted as an in-memory ``pa.Table`` (written in the
    driver) and as a one-block Ray Dataset (``map_batches``) into two
    copies of one lake commits identical file records — paths, content
    hashes, row/LSN/conv/ts stats and Bloom filters."""
    import json
    import shutil

    import pyarrow as pa
    import ray.data

    # one row from each of 12 conversations: the batch spans buckets
    victims = _final(lake).drop_duplicates("conv_id").head(12)
    corr = pa.table({
        "conv_id": pa.array(victims["conv_id"].tolist(), pa.string()),
        "turn_idx": pa.array(victims["turn_idx"].tolist(), pa.int32()),
        "role": pa.array(victims["role"].tolist(), pa.string()),
        "text": pa.array([f"fix {i}" for i in range(12)], pa.string()),
        "tool": pa.array([None] * 12, pa.string()),
        "ts": pa.array(victims["ts"].to_numpy()).cast(pa.timestamp("us")),
    })
    twin = str(tmp_path / "twin")
    shutil.copytree(lake, twin)

    rep_table = upsert_table(lake, corr)
    rep_ds = upsert_table(twin, ray.data.from_arrow(corr))
    assert rep_table == rep_ds
    assert rep_table.rows_applied == 12 and rep_table.files_written > 1

    def records(lake_dir):
        man = Manifest.load(lake_dir)
        return {
            json.dumps(f, sort_keys=True)
            for b in range(man.num_buckets)
            for f in man.files_for_bucket(b)
        }

    before = {
        json.dumps(f, sort_keys=True)
        for b in range(8)
        for f in Manifest.load_version(lake, rep_table.final_version - 1)
        .files_for_bucket(b)
    }
    assert len(records(lake) - before) == rep_table.files_written
    assert records(lake) == records(twin)
    pd.testing.assert_frame_equal(_final(lake), _final(twin))


def test_upsert_table_evolved_column(lake):
    """Correction columns beyond the committed schema evolve it
    additively and survive the read path."""
    import pyarrow as pa

    before = _final(lake)
    v = before.iloc[0]
    corr = pa.table({
        "conv_id": pa.array([v["conv_id"]], pa.string()),
        "turn_idx": pa.array([int(v["turn_idx"])], pa.int32()),
        "role": pa.array([v["role"]], pa.string()),
        "text": pa.array([v["text"]], pa.string()),
        "tool": pa.array([None], pa.string()),
        "ts": pa.array([v["ts"].to_datetime64()], pa.timestamp("us")),
        "reviewed_by": pa.array(["qa-team"], pa.string()),
    })
    upsert_table(lake, corr)
    after = _final(lake)
    assert "reviewed_by" in after.columns
    hit = after[(after["conv_id"] == v["conv_id"]) & (after["turn_idx"] == v["turn_idx"])]
    assert hit.iloc[0]["reviewed_by"] == "qa-team"
    assert after["reviewed_by"].notna().sum() == 1


def test_upsert_table_rejects_lsn_column(lake):
    import numpy as np
    import pyarrow as pa

    bad = pa.table({
        "conv_id": pa.array(["x"], pa.string()),
        "turn_idx": pa.array([0], pa.int32()),
        "lsn": pa.array([1], pa.int64()),
        "ts": pa.array([np.datetime64("2024-01-01", "us")], pa.timestamp("us")),
    })
    with pytest.raises(ValueError, match="lsn"):
        upsert_table(lake, bad)


def test_lifecycle_ops_on_salted_lake(ray_session, tmp_path):
    """delete_where / purge_conv / upsert_table on a hot-key-SALTED lake:
    a conversation's turns live in up to salt_factor buckets, so the
    candidate-bucket routing and the prep-stage salted re-routing must all
    agree with ingest's."""
    binlog = str(tmp_path / "binlog")
    spec = BinlogSpec(
        n_events=4_000, n_convs=12, seed=13, delete_rate=0.05,
        zipf_s=1.6, shuffle_window=16,
    )
    write_binlog_shards(spec, binlog, n_shards=3, parallel=False)
    lake = str(tmp_path / "lake")
    replay(binlog, lake, num_buckets=6, files_per_chunk=1, hot_key_salt=3)
    assert Manifest.load(lake).salt_factor == 3

    before = _final(lake)
    hot = before["conv_id"].value_counts().idxmax()

    rep = delete_where(lake, conv_id=str(hot))
    n_hot = int((before["conv_id"] == hot).sum())
    assert rep.matched_rows == n_hot
    after = _final(lake)
    pd.testing.assert_frame_equal(
        after, before[before["conv_id"] != hot].reset_index(drop=True)
    )

    victim = str(after["conv_id"].iloc[0])
    prep_ = purge_conv(lake, victim)
    assert prep_.rows_purged > 0
    assert prep_.buckets_scanned <= 3  # candidate_buckets under salt
    assert victim not in set(_final(lake)["conv_id"])

    import numpy as np
    import pyarrow as pa

    row = _final(lake).iloc[0]
    corr = pa.table({
        "conv_id": pa.array([row["conv_id"]], pa.string()),
        "turn_idx": pa.array([int(row["turn_idx"])], pa.int32()),
        "role": pa.array([row["role"]], pa.string()),
        "text": pa.array(["salted fix"], pa.string()),
        "tool": pa.array([None], pa.string()),
        "ts": pa.array([row["ts"].to_datetime64()], pa.timestamp("us")),
    })
    upsert_table(lake, corr)
    got = _final(lake)
    hit = got[(got["conv_id"] == row["conv_id"])
              & (got["turn_idx"] == row["turn_idx"])]
    assert hit.iloc[0]["text"] == "salted fix"


def test_purge_missing_conv_is_noop(lake):
    v = Manifest.load(lake).version
    rep = purge_conv(lake, "no-such-conv")
    assert rep.rows_purged == 0
    assert Manifest.load(lake).version == v
