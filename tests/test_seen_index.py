"""Cross-run incremental dedup (stages/seen_index.py): persisted
fingerprint index semantics — append-only novelty, increment-split
invariance, cross-run filtering, exactly-once manifest versioning."""

import pandas as pd
import pytest

from util_compare import assert_matches_oracle

SF = "/root/testdata/sf0.001"


def _docs_ds(rows):
    import ray.data

    return ray.data.from_pandas(pd.DataFrame(rows))


def test_dedup_incremental_matches_oracle(ray_session):
    """The registered query (oracle-bearing tail entry — the driver's
    50-slot window is full) stays pinned to its DuckDB NOT-IN oracle."""
    import __ray_entry__ as entrymod

    q = entrymod.queries()["dedup_incremental"]
    sql = entrymod.oracle_sql()["dedup_incremental"]
    assert_matches_oracle(q(SF), sql, SF)


def test_update_adds_only_novel_and_split_invariant(ray_session, tmp_path):
    """Folding the same corpus in twice adds nothing the second time, and
    building the index in two increments equals building it in one shot
    (bucket routing is deterministic ⇒ the index is mergeable)."""
    from clinical_trials_etl_ray.state.manifest import Manifest
    from clinical_trials_etl_ray.stages.seen_index import update_seen_index

    rows_a = [{"doc_id": i, "text": f"doc number {i}"} for i in range(40)]
    rows_b = [
        {"doc_id": 100 + i, "text": f"doc number {i}"} for i in range(20)
    ] + [{"doc_id": 200 + i, "text": f"fresh {i}"} for i in range(15)]

    idx = str(tmp_path / "idx")
    r1 = update_seen_index(idx, _docs_ds(rows_a), num_buckets=8)
    assert r1.fps_added == 40 and r1.version == 1

    # re-ingesting the identical corpus is a no-op (no files, no commit)
    r2 = update_seen_index(idx, _docs_ds(rows_a), num_buckets=8)
    assert r2.fps_added == 0 and Manifest.load(idx).version == 1

    # second increment adds only its 15 genuinely novel fingerprints
    r3 = update_seen_index(idx, _docs_ds(rows_b), num_buckets=8)
    assert r3.fps_added == 15

    # split-invariance: one-shot index over a+b has identical fp sets
    idx2 = str(tmp_path / "idx2")
    update_seen_index(idx2, _docs_ds(rows_a + rows_b), num_buckets=8)

    import os

    import pyarrow.parquet as pq

    def all_fps(d):
        m = Manifest.load(d)
        fps = set()
        for b in range(m.num_buckets):
            for f in m.files_for_bucket(b):
                fps |= set(
                    pq.read_table(os.path.join(d, f["path"]))["fp"].to_pylist()
                )
        return fps

    assert all_fps(idx) == all_fps(idx2)


def test_filter_unseen_is_cross_run_only(ray_session, tmp_path):
    """filter_unseen drops exactly the rows whose content is in the index;
    duplicates WITHIN the increment all survive (pure cross-run filter),
    and unindexed buckets pass everything through."""
    from clinical_trials_etl_ray.stages.seen_index import (
        filter_unseen,
        update_seen_index,
    )

    idx = str(tmp_path / "idx")
    update_seen_index(
        idx,
        _docs_ds([{"doc_id": i, "text": f"seen {i}"} for i in range(10)]),
        num_buckets=4,
    )

    increment = [
        {"doc_id": 50, "text": "seen 3"},      # dropped: in the index
        {"doc_id": 51, "text": "novel x"},
        {"doc_id": 52, "text": "novel x"},     # within-increment dup SURVIVES
        {"doc_id": 53, "text": "seen 7"},      # dropped
        {"doc_id": 54, "text": None},          # NULL hashes as '' — novel here
    ]
    got = (
        filter_unseen(_docs_ds(increment), idx)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert list(got["doc_id"]) == [51, 52, 54]
    assert list(got.columns) == ["doc_id", "text"]


def test_filter_all_seen_keeps_increment_schema(ray_session, tmp_path):
    """An increment whose every row is already indexed filters to 0 rows
    that keep the increment's column types, not types inferred from an
    empty frame (the fingerprint and bucket columns are dropped)."""
    import pyarrow as pa
    import ray.data

    from clinical_trials_etl_ray.stages.seen_index import (
        filter_unseen,
        update_seen_index,
    )

    idx = str(tmp_path / "idx")
    rows = [{"doc_id": i, "text": f"seen {i}"} for i in range(10)]
    update_seen_index(idx, _docs_ds(rows), num_buckets=4)

    increment = pa.Table.from_pylist(rows[2:8])
    got = filter_unseen(ray.data.from_arrow(increment), idx).materialize()
    assert got.count() == 0
    assert got.schema().base_schema == increment.schema


def test_concurrent_index_writers_coordinate(ray_session, tmp_path):
    """Two updates racing to the same index version: the raw race is an
    exclusive-create loss (observable with max_retries=0, same protocol as
    the lake); since round 4 the default path REBASES the losing append
    onto the winner — both writers' postings stay referenced, lineage is
    never silently overwritten."""
    from clinical_trials_etl_ray.state.manifest import (
        ConcurrentWriterError,
        Manifest,
    )
    from clinical_trials_etl_ray.stages.seen_index import update_seen_index

    idx = str(tmp_path / "idx")
    update_seen_index(
        idx,
        _docs_ds([{"doc_id": 0, "text": "base"}]),
        num_buckets=4,
    )
    stale = Manifest.load(idx)
    # a second writer commits first...
    update_seen_index(
        idx, _docs_ds([{"doc_id": 1, "text": "w2"}]), num_buckets=4
    )
    # ...the stale handle's raw commit to the now-taken version loses
    with pytest.raises(ConcurrentWriterError):
        stale.commit(
            [], new_watermark_lsn=stale.global_watermark(), max_retries=0
        )
    # and the default rebase path lands it WITHOUT dropping the winner's
    # files (an empty append preserves the newer lineage wholesale)
    before = Manifest.load(idx)
    landed = stale.commit([], new_watermark_lsn=stale.global_watermark())
    assert landed.version == before.version + 1
    assert Manifest.load(idx).all_files() == before.all_files()


def test_cli_seen_update_and_filter(tmp_path):
    """Operational surface: `seen update` twice (second is a novel-only
    no-op), then `seen filter` drops exactly the indexed content
    (subprocess — the CLI owns its own Ray session)."""
    import json
    import subprocess
    import sys

    import pyarrow as pa
    import pyarrow.parquet as pq

    hist = str(tmp_path / "hist.parquet")
    pq.write_table(
        pa.table({"doc_id": [0, 1, 2], "text": ["a b", "c d", "e f"]}), hist
    )
    inc = str(tmp_path / "inc.parquet")
    pq.write_table(
        pa.table({"doc_id": [10, 11], "text": ["c d", "new stuff"]}), inc
    )
    idx = str(tmp_path / "idx")

    def run(*args):
        out = subprocess.run(
            [sys.executable, "-m", "clinical_trials_etl_ray.cli",
             "--num-cpus", "2", *args],
            capture_output=True, text=True, cwd="/root/repo", check=True,
        )
        return json.loads(out.stdout.strip().splitlines()[-1])

    r1 = run("seen", "update", idx, hist, "--buckets", "4")
    assert r1["fps_added"] == 3
    r2 = run("seen", "update", idx, hist, "--buckets", "4")
    assert r2["fps_added"] == 0  # idempotent re-ingest

    outdir = str(tmp_path / "survivors")
    run("seen", "filter", idx, inc, "--out-dir", outdir)
    got = pq.read_table(outdir)
    assert got.column("doc_id").to_pylist() == [11]


def test_filter_then_update_composite(ray_session, tmp_path):
    """One-pass nightly-ingest composite: survivors are computed against
    the PRE-update index state (the increment's own fps never filter it),
    and the update makes a re-run of the same increment fully seen."""
    from clinical_trials_etl_ray.stages.seen_index import (
        filter_then_update,
        filter_unseen,
        update_seen_index,
    )

    idx = str(tmp_path / "idx")
    update_seen_index(
        idx,
        _docs_ds([{"doc_id": i, "text": f"old {i}"} for i in range(6)]),
        num_buckets=4,
    )
    increment = [
        {"doc_id": 20, "text": "old 2"},   # seen → dropped
        {"doc_id": 21, "text": "brand new"},
        {"doc_id": 22, "text": "brand new"},  # within-increment dup survives
    ]
    survivors, report = filter_then_update(idx, _docs_ds(increment))
    got = survivors.to_pandas().sort_values("doc_id")
    assert list(got["doc_id"]) == [21, 22]
    assert report.fps_added == 1  # 'old 2' was known; 'brand new' is one fp

    # the composite recorded the increment: a re-run is fully seen
    assert filter_unseen(_docs_ds(increment), idx).count() == 0


def test_seen_index_width_derivation():
    """Creation width scales with the first increment (the seen-index
    sibling of lsh_index_width): floored for small corpora, ceil-divided
    by the fp budget above it, capped at the max."""
    from clinical_trials_etl_ray.stages.seen_index import (
        SEEN_MAX_BUCKETS,
        SEEN_MIN_BUCKETS,
        SEEN_PARTITION_FP_BUDGET,
        seen_index_width,
    )

    assert seen_index_width(0) == SEEN_MIN_BUCKETS
    assert seen_index_width(10) == SEEN_MIN_BUCKETS
    big = 100 * SEEN_PARTITION_FP_BUDGET
    assert seen_index_width(big) == 100 > SEEN_MIN_BUCKETS
    assert seen_index_width(10**13) == SEEN_MAX_BUCKETS


def test_update_refuses_width_change_on_existing_index(ray_session, tmp_path):
    """The committed layout is authoritative: an explicit mismatching
    num_buckets raises and points at rebucket_seen_index."""
    from clinical_trials_etl_ray.stages.seen_index import update_seen_index

    idx = str(tmp_path / "idx")
    update_seen_index(idx, _docs_ds([{"doc_id": 0, "text": "a"}]),
                      num_buckets=4)
    with pytest.raises(ValueError, match="rebucket_seen_index"):
        update_seen_index(idx, _docs_ds([{"doc_id": 1, "text": "b"}]),
                          num_buckets=8)


def test_bucket_seen_among_is_probe_bounded(ray_session, tmp_path):
    """A probe task's working set is O(matching fingerprints), not
    O(partition history): _bucket_seen_among returns ONLY the probe fps
    already committed, however large the partition's files are."""
    from clinical_trials_etl_ray.stages.seen_index import (
        _bucket_seen_among,
        _novel_file_info,
    )

    committed = sorted(f"{i:032x}" for i in range(50_000))
    idx = str(tmp_path / "idx")
    info = _novel_file_info(idx, 0, committed)
    probe = [committed[5], committed[17], committed[49_999],
             "f" * 32]  # 3 hits, 1 miss
    got = _bucket_seen_among(idx, [info], probe)
    assert len(got) == 3
    assert set(got) == {committed[5], committed[17], committed[49_999]}


def _all_fps(index_dir):
    import os

    import pyarrow.parquet as pq

    from clinical_trials_etl_ray.state.manifest import Manifest

    m = Manifest.load(index_dir)
    fps = set()
    for b in range(m.num_buckets):
        for f in m.files_for_bucket(b):
            fps |= set(
                pq.read_table(os.path.join(index_dir, f["path"]))[
                    "fp"
                ].to_pylist()
            )
    return fps


def test_rebucket_seen_index_filter_equivalence(ray_session, tmp_path):
    """In-place rebucket: filter results across a width change equal a
    from-scratch index built at the new width, in both directions (grow
    and shrink); the layout change is one atomic version; novelty
    detection keeps working at the new layout."""
    from clinical_trials_etl_ray.stages.seen_index import (
        filter_unseen,
        rebucket_seen_index,
        update_seen_index,
    )
    from clinical_trials_etl_ray.state.manifest import Manifest

    hist = [{"doc_id": i, "text": f"hist {i}"} for i in range(30)]
    inc = (
        [{"doc_id": 100 + i, "text": f"hist {i}"} for i in range(10)]
        + [{"doc_id": 200 + i, "text": f"new {i}"} for i in range(5)]
    )
    grown = str(tmp_path / "grown")
    update_seen_index(grown, _docs_ds(hist), num_buckets=8)

    def survivors(d):
        df = filter_unseen(_docs_ds(inc), d).to_pandas()
        return sorted(df["doc_id"]) if len(df) else []  # empty → no columns

    want = survivors(grown)
    assert want == [200, 201, 202, 203, 204]

    for width in (16, 2):  # grow, then shrink
        v = rebucket_seen_index(grown, width)
        man = Manifest.load(grown)
        assert man.version == v and man.num_buckets == width
        assert man.metrics.get("seen_rebucket") is True
        # ≡ a from-scratch index built at this width
        scratch = str(tmp_path / f"scratch{width}")
        update_seen_index(scratch, _docs_ds(hist), num_buckets=width)
        assert survivors(grown) == survivors(scratch) == want
        assert _all_fps(grown) == _all_fps(scratch)

    # novelty detection still exact at the new layout
    r = update_seen_index(grown, _docs_ds(inc))
    assert r.fps_added == 5
    assert survivors(grown) == []


def test_update_emits_growth_advisory_and_rebucket_clears_it(
    ray_session, tmp_path, monkeypatch
):
    """When the fullest partition exceeds 2x the fp budget the update
    warns with the prescribed rebucket width and records it in the
    manifest metrics; after rebucketing at the advised width the next
    update is quiet and the acted-on advice is dropped."""
    import warnings

    import clinical_trials_etl_ray.stages.seen_index as S
    from clinical_trials_etl_ray.state.manifest import Manifest

    monkeypatch.setattr(S, "SEEN_PARTITION_FP_BUDGET", 12)
    idx = str(tmp_path / "idx")
    docs = [{"doc_id": i, "text": f"doc {i}"} for i in range(30)]
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        S.update_seen_index(idx, _docs_ds(docs), num_buckets=1)
    hits = [x for x in w if "rebucket_seen_index" in str(x.message)]
    assert hits, [str(x.message) for x in w]
    man = Manifest.load(idx)
    advised = man.metrics.get("seen_rebucket_advice_width")
    assert advised == 3  # ceil(30 fps / 12-row budget)
    assert man.metrics["seen_partition_max_rows"] == 30

    S.rebucket_seen_index(idx, advised)
    man2 = Manifest.load(idx)
    # the acted-on advice is dropped at the layout commit
    assert "seen_rebucket_advice_width" not in man2.metrics
    assert "seen_partition_max_rows" not in man2.metrics

    with warnings.catch_warnings(record=True) as w2:
        warnings.simplefilter("always")
        S.update_seen_index(
            idx, _docs_ds([{"doc_id": 100, "text": "fresh one"}])
        )
    assert not [x for x in w2 if "rebucket_seen_index" in str(x.message)], \
        [str(x.message) for x in w2]


def test_compact_seen_index_folds_files(ray_session, tmp_path):
    """Per-increment files fold to one per partition; filter results are
    unchanged; a second compact is a no-op; orphan collection is
    age-gated (fresh superseded files survive the sweep for concurrent
    writers, reclaimed later by expire_versions)."""
    import os

    from clinical_trials_etl_ray.stages.seen_index import (
        compact_seen_index,
        filter_unseen,
        update_seen_index,
    )
    from clinical_trials_etl_ray.state.manifest import Manifest

    idx = str(tmp_path / "idx")
    for k in range(3):
        update_seen_index(
            idx,
            _docs_ds(
                [{"doc_id": 10 * k + i, "text": f"inc{k} doc {i}"}
                 for i in range(8)]
            ),
            num_buckets=2 if k == 0 else None,
        )
    man = Manifest.load(idx)
    assert max(len(man.files_for_bucket(b)) for b in range(2)) >= 2

    inc = [{"doc_id": 900, "text": "inc1 doc 3"},   # seen → dropped
           {"doc_id": 901, "text": "genuinely new"}]
    before = sorted(filter_unseen(_docs_ds(inc), idx).to_pandas()["doc_id"])

    folded = compact_seen_index(idx)
    assert folded >= 1
    man2 = Manifest.load(idx)
    assert all(len(man2.files_for_bucket(b)) <= 1 for b in range(2))
    assert len(_all_fps(idx)) == 24  # folding is a pure union, no loss
    after = sorted(filter_unseen(_docs_ds(inc), idx).to_pandas()["doc_id"])
    assert before == after == [901]

    assert compact_seen_index(idx) == 0  # already one file per partition
    # superseded files still on disk (age gate) until versions expire
    superseded = man.all_files() - man2.all_files()
    assert all(
        os.path.exists(os.path.join(idx, f)) for f in superseded
    ), "fresh superseded files must survive the age-gated orphan sweep"


def test_cli_seen_compact_and_rebucket(tmp_path):
    """Operational surface for the new lifecycle verbs (subprocess — the
    CLI owns its own Ray session)."""
    import json
    import subprocess
    import sys

    import pyarrow as pa
    import pyarrow.parquet as pq

    a = str(tmp_path / "a.parquet")
    pq.write_table(
        pa.table({"doc_id": [0, 1, 2], "text": ["a b", "c d", "e f"]}), a
    )
    b = str(tmp_path / "b.parquet")
    pq.write_table(
        pa.table({"doc_id": [3, 4], "text": ["c d", "g h"]}), b
    )
    idx = str(tmp_path / "idx")

    def run(*args):
        out = subprocess.run(
            [sys.executable, "-m", "clinical_trials_etl_ray.cli",
             "--num-cpus", "2", *args],
            capture_output=True, text=True, cwd="/root/repo", check=True,
        )
        return json.loads(out.stdout.strip().splitlines()[-1])

    r1 = run("seen", "update", idx, a, "--buckets", "2")
    r2 = run("seen", "update", idx, b)
    assert (r1["fps_added"], r2["fps_added"]) == (3, 1)
    rc = run("seen", "compact", idx)
    rr = run("seen", "rebucket", idx, "--buckets", "4")
    # v1, v2 from the updates; compact commits only if it folded
    assert rr == {"new_num_buckets": 4,
                  "version": 3 + (1 if rc["partitions_folded"] else 0)}

    c = str(tmp_path / "c.parquet")
    pq.write_table(
        pa.table({"doc_id": [5, 6], "text": ["g h", "brand new"]}), c
    )
    outdir = str(tmp_path / "survivors")
    run("seen", "filter", idx, c, "--out-dir", outdir)
    got = pq.read_table(outdir)  # 'g h' is indexed, survives only the novel
    assert got.column("doc_id").to_pylist() == [6]
