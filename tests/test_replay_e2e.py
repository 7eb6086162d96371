"""End-to-end CDC replay vs the oracle: the conformance gate (SURVEY §5).

Covers: full replay equality (per-turn `text` under stable (conv_id,
turn_idx) ordering), idempotent re-run, resume after partial commit,
duplicate + out-of-order delivery, delete semantics, additive schema
evolution mid-stream, compaction equivalence, and parallelism invariance.
"""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from clinical_trials_etl_ray.oracle import oracle_final_table
from clinical_trials_etl_ray.pipelines.replay import compact, plan_chunks, replay
from clinical_trials_etl_ray.schema import TRANSCRIPT_SCHEMA
from clinical_trials_etl_ray.stages.merge import read_final_table
from clinical_trials_etl_ray.synth import BinlogSpec, generate_events, write_binlog_shards

SPEC = BinlogSpec(
    n_events=20_000,
    n_convs=300,
    max_turns=24,
    seed=42,
    zipf_s=1.3,
    delete_rate=0.06,
    update_rate=0.3,
    duplicate_rate=0.05,
    shuffle_window=256,
    evolution_frac=0.5,
)
# producer-guaranteed out-of-order bound in LSN units for this stream
DISORDER = SPEC.shuffle_window


def _final_sorted(lake_dir):
    t = pa.concat_tables(
        [b for b in read_final_table(lake_dir).iter_batches(batch_format="pyarrow")]
        or [TRANSCRIPT_SCHEMA.empty_table()]
    )
    return t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])


@pytest.fixture(scope="module")
def binlog_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("binlog")
    write_binlog_shards(SPEC, str(d), n_shards=16)
    return str(d)


@pytest.fixture(scope="module")
def oracle_table():
    return oracle_final_table(generate_events(SPEC))


def test_replay_matches_oracle(ray_session, binlog_dir, oracle_table, tmp_path):
    lake = str(tmp_path / "lake")
    report = replay(binlog_dir, lake, num_buckets=16, files_per_chunk=4,
                    disorder_bound=DISORDER)
    assert report.chunks_applied == 4
    got = _final_sorted(lake)
    assert got.num_rows == oracle_table.num_rows
    assert got.equals(oracle_table), "final table != oracle (LWW/CDC semantics)"


def test_replay_idempotent_rerun(ray_session, binlog_dir, oracle_table, tmp_path):
    lake = str(tmp_path / "lake")
    replay(binlog_dir, lake, num_buckets=16, files_per_chunk=4, disorder_bound=DISORDER)
    report2 = replay(binlog_dir, lake, num_buckets=16, files_per_chunk=4,
                     disorder_bound=DISORDER)
    # all but the final chunk are pruned at the file level; the final chunk's
    # conservative watermark (disorder bound) causes a harmless re-apply
    assert report2.chunks_skipped >= 3
    assert _final_sorted(lake).equals(oracle_table)


def test_replay_strictly_ordered_skips_everything(ray_session, oracle_table, tmp_path):
    """With an LSN-ordered log (disorder_bound=0) a re-run prunes every chunk."""
    spec = BinlogSpec(n_events=8000, seed=21, duplicate_rate=0.0, shuffle_window=0)
    d = tmp_path / "binlog"
    write_binlog_shards(spec, str(d), n_shards=8)
    lake = str(tmp_path / "lake")
    replay(str(d), lake, num_buckets=8, files_per_chunk=2)
    report = replay(str(d), lake, num_buckets=8, files_per_chunk=2)
    assert report.chunks_applied == 0 and report.chunks_skipped == 4
    assert _final_sorted(lake).equals(oracle_final_table(generate_events(spec)))


def test_resume_from_partial_commit(ray_session, binlog_dir, oracle_table, tmp_path):
    """Simulate a crash after the first committed chunk; resume must finish
    and converge (watermark skip, no loss, no double-apply effects)."""
    import os

    lake = str(tmp_path / "lake")
    paths = sorted(
        os.path.join(binlog_dir, f) for f in os.listdir(binlog_dir) if f.endswith(".parquet")
    )
    chunks = plan_chunks(paths, 4, DISORDER)
    first_chunk_paths = chunks[0][0]
    replay(first_chunk_paths, lake, num_buckets=16, files_per_chunk=4,
           disorder_bound=DISORDER)
    partial = _final_sorted(lake)
    assert 0 < partial.num_rows < oracle_table.num_rows
    report = replay(binlog_dir, lake, num_buckets=16, files_per_chunk=4,
                    disorder_bound=DISORDER)
    assert report.chunks_applied >= 3
    assert _final_sorted(lake).equals(oracle_table)


def test_compaction_preserves_state(ray_session, binlog_dir, oracle_table, tmp_path):
    lake = str(tmp_path / "lake")
    replay(binlog_dir, lake, num_buckets=16, files_per_chunk=4, disorder_bound=DISORDER)
    n = compact(lake)
    assert n > 0
    assert _final_sorted(lake).equals(oracle_table)
    # after compaction each touched bucket has exactly one base file
    from clinical_trials_etl_ray.state.manifest import Manifest

    man = Manifest.load(lake)
    for b in range(man.num_buckets):
        files = man.files_for_bucket(b)
        assert len(files) <= 1
        if files:
            assert files[0]["kind"] == "base"


def test_ingest_after_compaction(ray_session, oracle_table, tmp_path):
    """Compaction mid-stream must not change the final state (tombstones are
    retained, so later ts-older events cannot resurrect deleted keys)."""
    spec = SPEC
    d = tmp_path / "binlog"
    all_paths = write_binlog_shards(spec, str(d), n_shards=16)
    lake = str(tmp_path / "lake")
    replay(all_paths[:8], lake, num_buckets=16, files_per_chunk=4,
           disorder_bound=DISORDER)
    compact(lake)
    replay(all_paths, lake, num_buckets=16, files_per_chunk=4,
           disorder_bound=DISORDER)
    assert _final_sorted(lake).equals(oracle_table)


def test_parallelism_invariance_small(ray_session, binlog_dir, oracle_table, tmp_path):
    """Different chunking/bucketing → identical final state (the §2.9 race,
    fixed). Full cross-num_cpus invariance is evidenced by bench --scaling."""
    lake_a = str(tmp_path / "lake_a")
    lake_b = str(tmp_path / "lake_b")
    replay(binlog_dir, lake_a, num_buckets=4, files_per_chunk=16, disorder_bound=DISORDER)
    replay(binlog_dir, lake_b, num_buckets=32, files_per_chunk=2, disorder_bound=DISORDER)
    assert _final_sorted(lake_a).equals(_final_sorted(lake_b))
    assert _final_sorted(lake_a).equals(oracle_table)


def test_schema_evolution_visible(ray_session, binlog_dir, tmp_path):
    lake = str(tmp_path / "lake")
    replay(binlog_dir, lake, num_buckets=8, files_per_chunk=4, disorder_bound=DISORDER)
    t = _final_sorted(lake)
    assert "tool" in t.column_names
    assert pc.count(t["tool"], mode="only_valid").as_py() > 0


def test_replay_hot_key_salted_matches_oracle(
    ray_session, binlog_dir, oracle_table, tmp_path
):
    """Salting spreads a conversation's turns across buckets without
    changing the final table (winner max is associative; bucket is a pure
    function of the key)."""
    lake = str(tmp_path / "lake_salted")
    replay(binlog_dir, lake, num_buckets=16, files_per_chunk=4,
           disorder_bound=DISORDER, hot_key_salt=4)
    assert _final_sorted(lake).equals(oracle_table)


def test_salt_factor_pinned_in_manifest(ray_session, binlog_dir, tmp_path):
    lake = str(tmp_path / "lake_pin")
    replay(binlog_dir, lake, num_buckets=16, files_per_chunk=16,
           disorder_bound=DISORDER, hot_key_salt=2)
    with pytest.raises(ValueError, match="salt_factor"):
        replay(binlog_dir, lake, num_buckets=16, files_per_chunk=16,
               disorder_bound=DISORDER, hot_key_salt=8)


def test_salted_bucket_ids_properties():
    import numpy as np

    from clinical_trials_etl_ray.functions.hashing import (
        bucket_ids,
        salted_bucket_ids,
    )

    convs = np.array([f"c{i%7}" for i in range(200)], dtype=object)
    turns = np.arange(200) % 24
    # salt=1 degenerates to the unsalted mapping
    assert (salted_bucket_ids(convs, turns, 16, 1) == bucket_ids(convs, 16)).all()
    # deterministic per key
    b1 = salted_bucket_ids(convs, turns, 16, 4)
    b2 = salted_bucket_ids(convs, turns, 16, 4)
    assert (b1 == b2).all()
    assert ((b1 >= 0) & (b1 < 16)).all()
    # a single hot conv is spread over exactly salt_factor buckets
    hot = np.array(["viral"] * 100, dtype=object)
    bh = salted_bucket_ids(hot, np.arange(100), 16, 4)
    assert len(np.unique(bh)) == 4


def test_candidate_buckets_matches_routing_nonpow2():
    """Regression: candidate_buckets must replicate salted_bucket_ids'
    uint64 wrap of h*salt_factor+sub. With unbounded Python ints the
    candidate set misses the real bucket for ~50% of keys whenever
    num_buckets is not a power of two (observed 7519/12800 misses),
    making salted point lookups silently incomplete."""
    import numpy as np

    from clinical_trials_etl_ray.functions.hashing import salted_bucket_ids
    from clinical_trials_etl_ray.stages.merge import candidate_buckets

    rng = np.random.default_rng(7)
    for num_buckets in (48, 24, 100, 17, 64):
        for salt_factor in (1, 2, 4, 8):
            convs = np.array(
                [f"conv-{i:05d}" for i in range(400)], dtype=object
            )
            turns = rng.integers(0, 1000, size=400)
            routed = salted_bucket_ids(convs, turns, num_buckets, salt_factor)
            for conv, b in zip(convs, routed):
                cand = candidate_buckets(conv, num_buckets, salt_factor)
                assert int(b) in cand, (
                    f"bucket {int(b)} for {conv} missing from candidates "
                    f"{cand} (num_buckets={num_buckets}, salt={salt_factor})"
                )
                assert len(cand) <= salt_factor


def test_time_travel_as_of_lsn(ray_session, tmp_path):
    """as_of_lsn at chunk watermarks reconstructs the exact state for an
    LSN-ordered log (uncompacted lake). LWW still differs from max-lsn
    (ts jitter), so this exercises real winner resolution at each cut."""
    import os

    spec = BinlogSpec(
        n_events=20_000, n_convs=300, max_turns=24, seed=43, zipf_s=1.3,
        delete_rate=0.06, update_rate=0.3, duplicate_rate=0.0,
        shuffle_window=0, evolution_frac=0.5,
    )
    binlog = str(tmp_path / "binlog_ordered")
    write_binlog_shards(spec, binlog, n_shards=16)
    lake = str(tmp_path / "lake_tt")
    replay(binlog, lake, num_buckets=16, files_per_chunk=4)
    events = generate_events(spec)
    paths = sorted(
        os.path.join(binlog, f)
        for f in os.listdir(binlog)
        if f.endswith(".parquet")
    )
    watermarks = [wm for _, wm, _, _ in plan_chunks(paths, 4)]
    for x in watermarks:
        want = oracle_final_table(
            events.filter(pc.less_equal(events["lsn"], x))
        )
        got = pa.concat_tables(
            [b for b in read_final_table(lake, as_of_lsn=x).iter_batches(
                batch_format="pyarrow")]
            or [TRANSCRIPT_SCHEMA.empty_table()]
        ).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
        assert got.equals(want), f"as_of_lsn={x} mismatch"


def test_time_travel_by_version(ray_session, binlog_dir, tmp_path):
    """Reading an older manifest snapshot returns the state after exactly
    that chunk's commit."""
    import os

    import pyarrow.parquet as pq

    lake = str(tmp_path / "lake_ver")
    replay(binlog_dir, lake, num_buckets=16, files_per_chunk=4,
           disorder_bound=DISORDER)
    paths = sorted(
        os.path.join(binlog_dir, f)
        for f in os.listdir(binlog_dir)
        if f.endswith(".parquet")
    )
    chunks = plan_chunks(paths, 4, DISORDER)
    # version v2 == state after applying chunks 0 and 1
    from clinical_trials_etl_ray.schema import unify_to_event_schema

    first_two = [p for chunk in chunks[:2] for p in chunk[0]]
    events = pa.concat_tables(
        [unify_to_event_schema(pq.read_table(p)) for p in first_two]
    )
    want = oracle_final_table(events)
    got = pa.concat_tables(
        [b for b in read_final_table(lake, version=2).iter_batches(
            batch_format="pyarrow")]
    ).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert got.equals(want)


def test_follow_tails_growing_binlog(ray_session, tmp_path):
    """follow() ingests shards that arrive while it is polling and
    converges to the oracle state."""
    import os
    import shutil
    import threading

    from clinical_trials_etl_ray.pipelines.replay import follow

    src = str(tmp_path / "all_shards")
    spec = BinlogSpec(n_events=12_000, n_convs=200, seed=11,
                      duplicate_rate=0.02, shuffle_window=64)
    all_paths = sorted(write_binlog_shards(spec, src, n_shards=8))
    live = str(tmp_path / "live_binlog")
    os.makedirs(live)
    for p in all_paths[:4]:
        shutil.copy(p, live)

    def feeder():
        # atomic publish: temp name, then rename (the follow() contract)
        for p in all_paths[4:]:
            tmp = os.path.join(live, os.path.basename(p) + ".tmp")
            shutil.copy(p, tmp)
            os.replace(tmp, os.path.join(live, os.path.basename(p)))

    t = threading.Thread(target=feeder)
    lake = str(tmp_path / "lake_follow")
    # first round ingests the initial 4 shards; feeder adds the rest while
    # follow polls; loop exits after 2 idle rounds
    t.start()
    rep = follow(live, lake, poll_interval_s=0.5, idle_rounds=2,
                 num_buckets=16, files_per_chunk=2,
                 disorder_bound=spec.shuffle_window)
    t.join()
    assert rep.chunks_applied >= 4
    want = oracle_final_table(generate_events(spec))
    assert _final_sorted(lake).equals(want)
