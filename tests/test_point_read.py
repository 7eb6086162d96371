"""The point-read path: ``read_final_table(conv_id=...)`` costs its resolve.

Pinned here:
  - the process-local manifest cache never serves a stale snapshot: a
    commit from another process is seen at once, a lake deleted and
    re-created at the same path is re-read, and two loads of one version
    never share mutable state;
  - a lookup returns an already-executed Dataset (``merge.driver_dataset``)
    that hands out its rows without running a Ray Data plan — a Ray upgrade
    that changes those internals fails here;
  - a ``conv_range`` read of a key-sorted file reads only the row groups
    whose conv_id statistics overlap the range.

Every read that returns rows is checked against the single-process oracle.
"""

import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from clinical_trials_etl_ray.oracle import final_table, replay_events
from clinical_trials_etl_ray.schema import TRANSCRIPT_SCHEMA
from clinical_trials_etl_ray.stages import merge
from clinical_trials_etl_ray.state.manifest import MANIFEST_DIR, Manifest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KEY = [("conv_id", "ascending"), ("turn_idx", "ascending")]
NAMES = TRANSCRIPT_SCHEMA.names


def _build(root: str, seed: int, num_buckets: int = 4) -> tuple:
    """(lake, delivered events): two one-shard chunks."""
    from clinical_trials_etl_ray.pipelines.replay import replay
    from clinical_trials_etl_ray.synth import BinlogSpec, write_binlog_shards

    binlog, lake = os.path.join(root, "binlog"), os.path.join(root, "lake")
    spec = BinlogSpec(n_events=1_500, n_convs=60, seed=seed, zipf_s=1.2)
    paths = write_binlog_shards(spec, binlog, n_shards=2, parallel=False)
    replay(binlog, lake, num_buckets=num_buckets, files_per_chunk=1)
    events = pa.concat_tables(
        [pq.read_table(p) for p in paths], promote_options="default"
    )
    return lake, events


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    return _build(str(tmp_path_factory.mktemp("point_read")), seed=5)


@pytest.fixture
def lake_copy(built, tmp_path):
    """A private copy of the built lake, for tests that commit to it."""
    lake, events = built
    dst = str(tmp_path / "lake")
    shutil.copytree(lake, dst)
    return dst, events


def _canon(t: pa.Table) -> pa.Table:
    return t.select(NAMES).cast(TRANSCRIPT_SCHEMA).sort_by(KEY).combine_chunks()


def _lookup(lake: str, conv: str) -> pa.Table:
    import ray

    ds = merge.read_final_table(lake, conv_id=conv)
    blocks = ray.get(ds.to_arrow_refs())
    return _canon(pa.concat_tables(blocks) if blocks else ds.schema().base_schema.empty_table())


def _oracle_conv(events: pa.Table, conv: str) -> pa.Table:
    want = final_table(replay_events(events))
    return _canon(want.filter(pc.equal(want["conv_id"], conv)))


def _on_disk(lake: str, version: int) -> dict:
    with open(os.path.join(lake, MANIFEST_DIR, f"v{version:06d}.json")) as f:
        return json.load(f)


def _same_as_disk(man: Manifest) -> bool:
    doc = _on_disk(man.lake_dir, man.version)
    return (
        man.buckets == doc["buckets"]
        and man.num_buckets == doc["num_buckets"]
        and man.metrics == doc["metrics"]
        and man.producers == doc["producers"]
        and man.schema_names == doc["schema_names"]
    )


_UPSERT = """
import sys
import pyarrow.parquet as pq
from clinical_trials_etl_ray.pipelines.retention import upsert_table
rep = upsert_table(sys.argv[1], pq.read_table(sys.argv[2]))
print(rep.final_version)
"""


def test_commit_from_another_process_is_seen(lake_copy, tmp_path):
    lake, events = lake_copy
    conv = "c0"
    want = _oracle_conv(events, conv)
    assert _lookup(lake, conv).equals(want)  # warms the manifest cache
    before = Manifest.load(lake).version

    fix = want.slice(0, 1).to_pylist()[0]
    fix["text"] = "corrected in another process"
    fix_path = str(tmp_path / "fix.parquet")
    pq.write_table(pa.Table.from_pylist([fix], schema=TRANSCRIPT_SCHEMA), fix_path)
    out = subprocess.run(
        [sys.executable, "-c", _UPSERT, lake, fix_path],
        capture_output=True, text=True, check=True, timeout=300,
        env={**os.environ, "PYTHONPATH": ROOT},
    )
    assert int(out.stdout.split()[-1]) == before + 1

    man = Manifest.load(lake)
    assert man.version == before + 1 and _same_as_disk(man)
    text = want["text"].to_pylist()
    text[0] = fix["text"]
    expected = want.set_column(NAMES.index("text"), "text", pa.array(text, pa.string()))
    assert _lookup(lake, conv).equals(_canon(expected))


def test_recreated_lake_is_reread(ray_session, tmp_path):
    first, _ = _build(str(tmp_path / "a"), seed=1, num_buckets=4)
    second, events = _build(str(tmp_path / "b"), seed=2, num_buckets=8)
    old = Manifest.load(first)
    new_version = Manifest.load(second).version
    assert old.version == new_version
    assert not _lookup(first, "c3").equals(_oracle_conv(events, "c3"))

    # the second lake takes the first one's path: same real path, same
    # version number, different version file
    shutil.rmtree(first)
    os.rename(second, first)
    man = Manifest.load(first)
    assert man.num_buckets == 8 and _same_as_disk(man)
    assert Manifest.load_version(first, new_version).num_buckets == 8
    for conv in ("c0", "c3", "c17"):
        assert _lookup(first, conv).equals(_oracle_conv(events, conv)), conv


def test_loads_share_no_mutable_state(lake_copy):
    lake, _ = lake_copy
    a = Manifest.load(lake)
    b = Manifest.load(lake)  # a cache hit on the same version
    a.buckets["0"]["files"].append({"path": "data/bogus.parquet"})
    a.buckets["0"]["files"][0]["row_count"] = -1
    a.buckets["1"]["watermark_lsn"] = -7
    a.metrics["bogus"] = 1
    a.producers["bogus"] = 1
    a.schema_names.append("bogus")
    for man in (b, Manifest.load(lake), Manifest.load_version(lake, a.version)):
        assert _same_as_disk(man)

    # a commit seeds the cache with the version it linked; mutating the
    # returned Manifest must not leak into later loads either
    nxt = Manifest.load(lake).commit([], new_watermark_lsn=-1, metrics={"k": [1]})
    nxt.buckets["0"]["files"].clear()
    nxt.metrics["k"].append(2)
    again = Manifest.load(lake)
    assert again.version == nxt.version and _same_as_disk(again)
    assert again.metrics == {"k": [1]}


def test_lookup_is_an_executed_dataset(built, monkeypatch):
    import ray
    from ray.data._internal.plan import ExecutionPlan

    lake, events = built
    hit = merge.read_final_table(lake, conv_id="c0")
    miss = merge.read_final_table(lake, conv_id="no-such-conv")
    assert hit._plan.has_computed_output()
    assert miss._plan.has_computed_output()

    def no_executor(self, *args, **kwargs):
        raise AssertionError("an executed Dataset started an executor")

    monkeypatch.setattr(ExecutionPlan, "create_executor", no_executor)
    got = pa.concat_tables(ray.get(hit.to_arrow_refs()))
    assert _canon(got).equals(_oracle_conv(events, "c0"))
    assert got.num_rows > 0
    assert sum(b.num_rows for b in ray.get(miss.to_arrow_refs())) == 0
    assert miss.schema().base_schema.equals(hit.schema().base_schema)
    assert hit.count() == got.num_rows


def test_conv_range_reads_only_overlapping_row_groups(built, tmp_path, monkeypatch):
    """A key-sorted file of every resolved row in small row groups: a range
    read equals the oracle and reads only the row groups its statistics
    admit."""
    lake, events = built
    man = Manifest.load(lake)
    rows = pa.concat_tables([
        merge.resolve_bucket(lake, b, man.files_for_bucket(b))
        for b in range(man.num_buckets)
    ]).sort_by(KEY)
    group_rows = 64
    os.makedirs(tmp_path / "data")
    pq.write_table(rows, str(tmp_path / "data" / "sorted.parquet"), row_group_size=group_rows)
    rec = {"path": "data/sorted.parquet", "sorted": True,
           "min_lsn": pc.min(rows["lsn"]).as_py(), "max_lsn": pc.max(rows["lsn"]).as_py()}

    convs = sorted(set(rows["conv_id"].to_pylist()))
    lo, hi = convs[len(convs) // 3], convs[len(convs) // 2]
    groups = [
        rows["conv_id"].slice(i, group_rows).to_pylist()
        for i in range(0, rows.num_rows, group_rows)
    ]
    overlapping = [i for i, g in enumerate(groups) if max(g) >= lo and min(g) <= hi]
    n_groups = len(groups)
    assert 0 < len(overlapping) < n_groups

    read = []
    orig = pq.ParquetFile.read_row_groups

    def spy(self, row_groups, *args, **kwargs):
        read.append(list(row_groups))
        return orig(self, row_groups, *args, **kwargs)

    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", spy)
    got = merge.live_rows(
        merge.resolve_bucket(str(tmp_path), 0, [rec], conv_range=(lo, hi))
    )
    assert read == [overlapping]

    want = final_table(replay_events(events))
    ids = want["conv_id"]
    want = want.filter(pc.and_(pc.greater_equal(ids, lo), pc.less_equal(ids, hi)))
    assert want.num_rows > 0
    assert _canon(got).equals(_canon(want))
