"""The shared bucket scan (``stages.merge.scan_buckets``) behind every read
verb: the same plans run as packed Ray Data blocks (1, 2 and 64 blocks) and
in the driver, and every result equals the single-process oracle.

The lake is hot-key salted (``salt_factor`` 3), so a point lookup resolves
over several candidate buckets, and LSN-ordered (no disorder), so every
chunk watermark is an exact ``as_of_lsn`` / ``version`` cut.
"""

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from clinical_trials_etl_ray.oracle import final_table, replay_events
from clinical_trials_etl_ray.schema import EVENT_SCHEMA, TRANSCRIPT_SCHEMA
from clinical_trials_etl_ray.stages import merge
from clinical_trials_etl_ray.state.manifest import Manifest

KEY = [("conv_id", "ascending"), ("turn_idx", "ascending")]


@pytest.fixture(scope="module")
def salted(ray_session, tmp_path_factory):
    """(lake, delivered events): 4 one-shard chunks over 8 buckets."""
    from clinical_trials_etl_ray.pipelines.replay import replay
    from clinical_trials_etl_ray.synth import BinlogSpec, write_binlog_shards

    root = tmp_path_factory.mktemp("bucket_scan")
    binlog, lake = str(root / "binlog"), str(root / "lake")
    spec = BinlogSpec(n_events=4_000, n_convs=150, seed=11, zipf_s=1.3)
    paths = write_binlog_shards(spec, binlog, n_shards=4, parallel=False)
    replay(binlog, lake, num_buckets=8, files_per_chunk=1, hot_key_salt=3)
    events = pa.concat_tables(
        [pq.read_table(p) for p in paths], promote_options="default"
    )
    return lake, events


@pytest.fixture(params=[1, 2, 64, "driver"])
def scan_path(request, monkeypatch):
    """Run every ``scan_buckets`` call as that many packed Ray blocks, or in
    the driver; the read under test must have gone through it."""
    orig, calls = merge.scan_buckets, []

    def forced(*args, **kwargs):
        calls.append(request.param)
        kwargs["in_driver"] = request.param == "driver"
        return orig(*args, **kwargs)

    monkeypatch.setattr(merge, "scan_buckets", forced)
    if request.param != "driver":
        monkeypatch.setattr(merge, "_scan_blocks", lambda: request.param)
    yield
    assert calls


def _collect(ds) -> pa.Table:
    """All rows of a read; every block must carry the Dataset's schema."""
    import ray

    schema = ds.schema().base_schema
    blocks = ray.get(ds.to_arrow_refs())
    for b in blocks:
        assert b.schema.equals(schema), (b.schema, schema)
    return pa.concat_tables(blocks) if blocks else schema.empty_table()


def _canon(t: pa.Table, names: list) -> pa.Table:
    return t.select(names).sort_by(KEY).combine_chunks()


def _oracle(events: pa.Table, max_lsn: int | None = None) -> pa.Table:
    if max_lsn is not None:
        events = events.filter(pc.less_equal(events["lsn"], max_lsn))
    return final_table(replay_events(events))


def _mid_version(lake: str) -> Manifest:
    versions = Manifest._versions_on_disk(lake)
    return Manifest.load_version(lake, versions[len(versions) // 2])


def test_final_table(salted, scan_path):
    lake, events = salted
    got = _collect(merge.read_final_table(lake))
    names = TRANSCRIPT_SCHEMA.names
    assert _canon(got, names).equals(_canon(_oracle(events), names))


def test_salted_point_lookups(salted, scan_path):
    lake, events = salted
    man = Manifest.load(lake)
    assert man.salt_factor == 3
    want = _oracle(events)
    hot = "c0"  # Zipf rank 1: its turns spread over its candidate buckets
    assert len(merge.candidate_buckets(hot, man.num_buckets, 3)) > 1
    for conv in (hot, "c7", "c42", "no-such-conv"):
        got = _collect(merge.read_final_table(lake, conv_id=conv))
        exp = want.filter(pc.equal(want["conv_id"], conv))
        assert _canon(got, TRANSCRIPT_SCHEMA.names).equals(
            _canon(exp, TRANSCRIPT_SCHEMA.names)
        ), conv
    assert want.filter(pc.equal(want["conv_id"], hot)).num_rows > 0


def test_time_travel(salted, scan_path):
    lake, events = salted
    mid = _mid_version(lake)
    wm = mid.global_watermark()
    want = _canon(_oracle(events, wm), TRANSCRIPT_SCHEMA.names)
    by_lsn = _collect(merge.read_final_table(lake, as_of_lsn=wm))
    by_version = _collect(merge.read_final_table(lake, version=mid.version))
    assert _canon(by_lsn, TRANSCRIPT_SCHEMA.names).equals(want)
    assert _canon(by_version, TRANSCRIPT_SCHEMA.names).equals(want)
    assert 0 < want.num_rows < _oracle(events).num_rows


def test_projection_and_ts_window(salted, scan_path):
    lake, events = salted
    want = _oracle(events)
    got = _collect(merge.read_final_table(lake, columns=["role"]))
    assert set(got.column_names) == {"conv_id", "turn_idx", "ts", "role"}
    names = ["conv_id", "turn_idx", "role", "ts"]
    assert _canon(got, names).equals(_canon(want, names))

    us = want["ts"].cast(pa.int64())
    ts = sorted(us.to_pylist())
    lo, hi = ts[len(ts) // 4], ts[3 * len(ts) // 4]  # epoch µs
    got = _collect(merge.read_final_table(lake, ts_min=lo, ts_max=hi))
    exp = want.filter(pc.and_(pc.greater_equal(us, lo), pc.less_equal(us, hi)))
    assert 0 < exp.num_rows < want.num_rows
    assert _canon(got, TRANSCRIPT_SCHEMA.names).equals(
        _canon(exp, TRANSCRIPT_SCHEMA.names)
    )


def test_change_feed(salted, scan_path):
    lake, events = salted
    since = _mid_version(lake).global_watermark()
    got = _collect(merge.read_change_feed(lake, since_lsn=since))
    rows = list(replay_events(events, min_lsn_exclusive=since).values())
    exp = pa.Table.from_pylist(rows, schema=EVENT_SCHEMA)
    assert exp.num_rows and "delete" in exp["op"].to_pylist()
    assert _canon(got, EVENT_SCHEMA.names).equals(_canon(exp, EVENT_SCHEMA.names))
