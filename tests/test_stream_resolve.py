"""The lake's one bucket resolver (stages/merge.py iter_resolve_bucket) and
the readers and compaction built on it, checked against the oracle
(``oracle.replay_events`` over a plain read of the bucket's files).

Pinned here:
  - winners: key-ordered slabs whose concatenation equals the oracle's LWW
    winners (tombstones kept), on the realistic steady state (sorted
    compacted base + unsorted fresh deltas), under filters (as_of_lsn /
    conv_range) and projection pushdown; ``resolve_bucket`` is that
    concatenation;
  - bounded memory: with a tiny stream batch size the merge never holds
    more than a small fraction of the bucket's rows (stats['peak_rows']);
  - each file of a bucket is opened once;
  - compaction: oracle rows in key order, sound stats, a name that depends
    only on the rows (idempotent retry, stable across re-compaction), the
    tombstone horizon with and without manifest ts stats;
  - read_final_table, read_change_feed and diff_versions end to end.
"""

import os
import shutil
from datetime import timedelta

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from clinical_trials_etl_ray.oracle import final_table, replay_events
from clinical_trials_etl_ray.pipelines.replay import compact, replay
from clinical_trials_etl_ray.schema import EVENT_SCHEMA
from clinical_trials_etl_ray.stages import merge
from clinical_trials_etl_ray.stages.merge import (
    compact_bucket,
    iter_resolve_bucket,
    read_final_table,
    resolve_bucket,
)
from clinical_trials_etl_ray.state.manifest import Manifest
from clinical_trials_etl_ray.synth import BinlogSpec, write_binlog_shards

KEY = ["conv_id", "turn_idx"]


def _plain_read(lake: str, files: list) -> pa.Table:
    """Every row of ``files``, as written."""
    return pa.concat_tables(
        [pq.read_table(os.path.join(lake, f["path"])) for f in files],
        promote_options="default",
    )


def _oracle_winners(
    events: pa.Table, as_of_lsn=None, since_lsn=None, conv_range=None
) -> list:
    """Oracle LWW winner rows (tombstones kept) in (conv_id, turn_idx)
    order, with the resolver's row filters applied to its input."""
    if as_of_lsn is not None:
        events = events.filter(pc.less_equal(events["lsn"], as_of_lsn))
    if conv_range is not None:
        lo, hi = conv_range
        ids = events["conv_id"]
        events = events.filter(
            pc.and_(pc.greater_equal(ids, lo), pc.less_equal(ids, hi))
        )
    state = replay_events(
        events, min_lsn_exclusive=-1 if since_lsn is None else since_lsn
    )
    return [state[k] for k in sorted(state)]


def _assert_winners(got: pa.Table, want: list) -> None:
    """``got`` holds exactly the oracle's rows, in the same key order, on
    every event column it carries."""
    cols = [c for c in got.column_names if c in EVENT_SCHEMA.names]
    assert got.select(cols).to_pylist() == [{c: r[c] for c in cols} for r in want]


def _concat(slabs: list, like: pa.Table) -> pa.Table:
    return pa.concat_tables(slabs) if slabs else like.schema.empty_table()


def _frame(df: pd.DataFrame, key) -> pd.DataFrame:
    return (
        df[sorted(df.columns)]
        .sort_values(key, kind="mergesort")
        .reset_index(drop=True)
    )


def _lake_events(lake: str, version: int | None = None) -> pa.Table:
    man = Manifest.load(lake) if version is None else Manifest.load_version(
        lake, version
    )
    return _plain_read(
        lake,
        [f for b in range(man.num_buckets) for f in man.files_for_bucket(b)],
    )


@pytest.fixture(scope="module")
def steady_lake(ray_session, tmp_path_factory):
    """Sorted base (major compaction of gen 1) + unsorted gen-2 deltas on
    top — the steady state the streaming merge is designed for."""
    tmp_path = tmp_path_factory.mktemp("stream_resolve")
    binlog = str(tmp_path / "binlog")
    spec = BinlogSpec(
        n_events=8_000, n_convs=60, seed=31, delete_rate=0.08,
        duplicate_rate=0.05, shuffle_window=32,
    )
    write_binlog_shards(spec, binlog, n_shards=4, parallel=False)
    lake = str(tmp_path / "lake")
    replay(binlog, lake, num_buckets=4, files_per_chunk=1)
    compact(lake)  # major → one SORTED base per bucket

    # gen 2: same conv universe, LSNs shifted above gen 1 → fresh deltas
    raw = str(tmp_path / "binlog2_raw")
    spec2 = BinlogSpec(
        n_events=3_000, n_convs=60, seed=32, delete_rate=0.08,
        shuffle_window=32,
    )
    write_binlog_shards(spec2, raw, n_shards=2, parallel=False)
    binlog2 = str(tmp_path / "binlog2")
    os.makedirs(binlog2)
    for name in sorted(os.listdir(raw)):
        src = os.path.join(raw, name)
        if name.endswith(".parquet"):
            t = pq.read_table(src)
            i = t.schema.get_field_index("lsn")
            t = t.set_column(
                i, "lsn", pc.add(t.column("lsn"), pa.scalar(100_000))
            )
            pq.write_table(t, os.path.join(binlog2, name))
        else:
            shutil.copy(src, os.path.join(binlog2, name))
    replay(binlog2, lake, num_buckets=4, files_per_chunk=1)
    return lake


def test_manifest_flags_compacted_files_sorted(steady_lake):
    man = Manifest.load(steady_lake)
    kinds = {}
    for b in range(man.num_buckets):
        for f in man.files_for_bucket(b):
            kinds.setdefault(f["kind"], set()).add(bool(f.get("sorted")))
    assert kinds["base"] == {True}      # compaction output is flagged
    assert False in kinds["delta"]      # raw ingest deltas are not


def test_stream_matches_eager_with_tombstones(steady_lake):
    """Sorted base + fresh deltas: the k-way merge's slabs are the oracle
    winners in key order, tombstones included, in bounded memory."""
    man = Manifest.load(steady_lake)
    checked = 0
    for b in range(man.num_buckets):
        files = man.files_for_bucket(b)
        stats = {}
        slabs = list(
            iter_resolve_bucket(steady_lake, b, files, stream_rows=64, stats=stats)
        )
        assert len(slabs) > 1  # the merge really split the bucket
        got = pa.concat_tables(slabs)
        _assert_winners(got, _oracle_winners(_plain_read(steady_lake, files)))
        assert resolve_bucket(steady_lake, b, files).equals(got)
        # winners include tombstones (op='delete' survives to the reader)
        if "delete" in set(got["op"].to_pylist()):
            checked += 1
        # bounded memory: never held more than a fraction of the bucket
        total = sum(int(f.get("row_count") or 0) for f in files)
        assert stats["peak_rows"] < total, (stats, total)
        assert stats["peak_rows"] < 0.6 * total
    assert checked >= 1  # the synth log's deletes reached winners


def test_stream_matches_eager_under_filters(steady_lake):
    """Time travel, a conv range and projection: the slabs equal the oracle
    over the filtered rows, and ``resolve_bucket`` is their concatenation
    (same schema, also when empty)."""
    man = Manifest.load(steady_lake)
    # a mid-stream LSN cut (time travel) and a conv range prune
    all_lsns = []
    for b in range(man.num_buckets):
        for f in man.files_for_bucket(b):
            all_lsns.append(int(f["max_lsn"]))
    as_of = sorted(all_lsns)[len(all_lsns) // 2]
    for b in range(man.num_buckets):
        files = man.files_for_bucket(b)
        events = _plain_read(steady_lake, files)
        for kwargs in (
            {"as_of_lsn": as_of},
            {"conv_range": ("c1", "c3")},  # lexicographic: c1, c10..c29, c3
            {"columns": ["role"]},
            {"as_of_lsn": as_of, "columns": ["text"]},
            {"conv_range": ("zzz", "zzzz")},  # no key: an empty result
        ):
            whole = resolve_bucket(steady_lake, b, files, **kwargs)
            got = _concat(
                list(
                    iter_resolve_bucket(
                        steady_lake, b, files, stream_rows=64, **kwargs
                    )
                ),
                whole,
            )
            assert got.equals(whole), (b, kwargs)
            if "columns" in kwargs:
                assert set(got.column_names) == set(merge.KEY_COLS) | set(
                    kwargs["columns"]
                )
            want = _oracle_winners(
                events,
                as_of_lsn=kwargs.get("as_of_lsn"),
                conv_range=kwargs.get("conv_range"),
            )
            _assert_winners(got, want)


def test_stream_handles_unsorted_only_and_sorted_only(ray_session, tmp_path):
    """Fresh lake (no compaction → no sorted files) and fully compacted lake
    (sorted base only) both resolve to the oracle winners in key order."""
    binlog = str(tmp_path / "binlog")
    spec = BinlogSpec(n_events=2_000, n_convs=20, seed=33, delete_rate=0.1)
    write_binlog_shards(spec, binlog, n_shards=2, parallel=False)
    lake = str(tmp_path / "lake")
    replay(binlog, lake, num_buckets=2, files_per_chunk=1)

    def check():
        man = Manifest.load(lake)
        for b in range(man.num_buckets):
            files = man.files_for_bucket(b)
            got = pa.concat_tables(
                list(iter_resolve_bucket(lake, b, files, stream_rows=32))
            )
            _assert_winners(got, _oracle_winners(_plain_read(lake, files)))

    check()          # unsorted-only (raw deltas)
    compact(lake)
    check()          # sorted-only (single base per bucket)


def _streamed_compaction(monkeypatch, stats: dict):
    """Make ``compact_bucket`` resolve with 64-row stream batches and record
    the merge's ``peak_rows`` into ``stats``."""
    real = merge.iter_resolve_bucket

    def small_batches(*args, **kwargs):
        return real(*args, **{**kwargs, "stream_rows": 64, "stats": stats})

    monkeypatch.setattr(merge, "iter_resolve_bucket", small_batches)


def test_streaming_compaction_matches_eager(steady_lake, monkeypatch):
    """compact_bucket writes the oracle winners in (conv_id, turn_idx)
    order, with a sorted-flagged fileinfo whose stats match the file, in
    bounded memory; a retry resolved with other slab sizes lands on the
    same content-hash name."""
    from clinical_trials_etl_ray.functions.bloom import bloom_might_contain
    from clinical_trials_etl_ray.functions.hashing import hash_strings

    man = Manifest.load(steady_lake)
    for b in range(man.num_buckets):
        files = man.files_for_bucket(b)
        stats = {}
        with monkeypatch.context() as m:
            _streamed_compaction(m, stats)
            got = compact_bucket(steady_lake, b, files)
        t_got = pq.read_table(os.path.join(steady_lake, got["path"]))
        _assert_winners(t_got, _oracle_winners(_plain_read(steady_lake, files)))
        assert got["sorted"] is True
        ts = t_got["ts"].cast(pa.int64())
        want = {
            "row_count": t_got.num_rows,
            "min_lsn": pc.min(t_got["lsn"]).as_py(),
            "max_lsn": pc.max(t_got["lsn"]).as_py(),
            "conv_min": pc.min(t_got["conv_id"]).as_py(),
            "conv_max": pc.max(t_got["conv_id"]).as_py(),
            "ts_us_min": pc.min(ts).as_py(),
            "ts_us_max": pc.max(ts).as_py(),
        }
        assert {k: got[k] for k in want} == want, b
        total = sum(int(f.get("row_count") or 0) for f in files)
        assert stats["peak_rows"] < total
        # the streamed base joins the live merge path correctly: Bloom has
        # no false negatives for every key actually present
        for h in hash_strings(t_got["conv_id"].to_pylist()[:50]):
            assert bloom_might_contain(got["conv_bloom"], int(h))
        # idempotent retry, resolved at the default batch size: the same
        # rows land on the same content-hash name
        again = compact_bucket(steady_lake, b, files)
        assert again == got


def test_streaming_compaction_tombstone_horizon(steady_lake):
    """The cutoff (max file ts stat − horizon) drops exactly the oracle
    tombstones older than the max winner ts − horizon; records without ts
    stats (read from the file's ts column instead) give the same file."""
    man = Manifest.load(steady_lake)
    horizon = 1  # µs — drops every tombstone except one at the exact max ts
    dropped_any = False
    for b in range(man.num_buckets):
        files = man.files_for_bucket(b)
        got = compact_bucket(steady_lake, b, files, tombstone_horizon_us=horizon)
        t_got = pq.read_table(os.path.join(steady_lake, got["path"]))
        winners = _oracle_winners(_plain_read(steady_lake, files))
        cutoff = max(r["ts"] for r in winners) - timedelta(microseconds=horizon)
        want = [r for r in winners if r["op"] != "delete" or r["ts"] >= cutoff]
        _assert_winners(t_got, want)
        if len(want) < len(winners):
            dropped_any = True
        stripped = [
            {k: v for k, v in f.items() if k not in ("ts_us_min", "ts_us_max")}
            for f in files
        ]
        assert compact_bucket(
            steady_lake, b, stripped, tombstone_horizon_us=horizon
        ) == got
    assert dropped_any  # the horizon actually exercised tombstone dropping


def test_change_feed_streaming_forced(steady_lake):
    """The change feed (full replica syncs / rebucket read everything via
    since_lsn=-1) equals the oracle's net changes, in full and in a
    window."""
    from clinical_trials_etl_ray.stages.merge import read_change_feed

    key = ["conv_id", "turn_idx", "lsn"]
    events = _lake_events(steady_lake)
    man = Manifest.load(steady_lake)
    mid = sorted(
        int(f["max_lsn"])
        for b in range(man.num_buckets)
        for f in man.files_for_bucket(b)
    )[2]
    for since in (-1, mid):
        got = _frame(read_change_feed(steady_lake, since_lsn=since).to_pandas(), key)
        want = _frame(pd.DataFrame(_oracle_winners(events, since_lsn=since)), key)
        assert len(want) > 0
        pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)


def test_diff_versions_streaming_forced(steady_lake):
    """The version audit equals the oracle diff of the two versions'
    winners: every v_new winner whose (ts, lsn, op) changed or is new, and
    a 'purge' row for every key gone from v_new."""
    from clinical_trials_etl_ray.stages.merge import diff_versions

    versions = Manifest._versions_on_disk(steady_lake)
    v_old = versions[len(versions) // 2]
    old = {
        (r["conv_id"], r["turn_idx"]): r
        for r in _oracle_winners(_lake_events(steady_lake, v_old))
    }
    new = _oracle_winners(_lake_events(steady_lake))
    ident = ("ts", "lsn", "op")
    want = [
        r for r in new
        if (r["conv_id"], r["turn_idx"]) not in old
        or any(old[(r["conv_id"], r["turn_idx"])][c] != r[c] for c in ident)
    ]
    new_keys = {(r["conv_id"], r["turn_idx"]) for r in new}
    want += [{**r, "op": "purge"} for k, r in old.items() if k not in new_keys]
    assert len(want) > 0  # the fixture's gen-2 ingest changed winners

    key = ["conv_id", "turn_idx", "lsn", "op"]
    got = _frame(diff_versions(steady_lake, v_old).to_pandas(), key)
    want = _frame(pd.DataFrame(want), key)
    pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)


def test_read_final_table_streaming_forced(steady_lake):
    """The final table and a projected read equal the oracle's live rows."""
    want = final_table(replay_events(_lake_events(steady_lake))).to_pandas()
    got = read_final_table(steady_lake).to_pandas()
    pd.testing.assert_frame_equal(
        _frame(got, KEY)[sorted(want.columns)], _frame(want, KEY),
        check_dtype=False,
    )
    # projection pushdown through the same resolver
    got_proj = _frame(read_final_table(steady_lake, columns=["role"]).to_pandas(), KEY)
    assert "text" not in got_proj.columns
    pd.testing.assert_frame_equal(
        got_proj, _frame(want, KEY)[got_proj.columns], check_dtype=False
    )


def test_each_file_opened_once(steady_lake, tmp_path, monkeypatch):
    """Resolving an uncompacted bucket and a base+delta bucket opens each
    of its files exactly once (no separate schema pass), whether the base
    is read whole (it fits one stream batch) or streamed."""
    binlog = str(tmp_path / "binlog")
    write_binlog_shards(
        BinlogSpec(n_events=1_000, n_convs=20, seed=34), binlog,
        n_shards=3, parallel=False,
    )
    fresh = str(tmp_path / "lake")
    replay(binlog, fresh, num_buckets=2, files_per_chunk=1)

    opened = []
    real_read_schema = pq.read_schema

    class SpyFile(pq.ParquetFile):
        def __init__(self, source, *args, **kwargs):
            opened.append(os.path.realpath(source))
            super().__init__(source, *args, **kwargs)

    def spy_read_schema(where, *args, **kwargs):
        opened.append(os.path.realpath(where))
        return real_read_schema(where, *args, **kwargs)

    monkeypatch.setattr(pq, "ParquetFile", SpyFile)
    monkeypatch.setattr(pq, "read_schema", spy_read_schema)
    for lake, want_sorted in ((fresh, False), (steady_lake, True)):
        man = Manifest.load(lake)
        files = man.files_for_bucket(0)
        assert len(files) > 1
        assert any(f.get("sorted") for f in files) == want_sorted
        paths = sorted(os.path.realpath(os.path.join(lake, f["path"])) for f in files)
        opened.clear()
        resolve_bucket(lake, 0, files)
        assert sorted(opened) == paths, lake
        for stream_rows in (merge.STREAM_RESOLVE_BATCH_ROWS, 64):
            opened.clear()
            assert list(iter_resolve_bucket(lake, 0, files, stream_rows=stream_rows))
            assert sorted(opened) == paths, (lake, stream_rows)


def test_recompaction_keeps_file_paths(steady_lake, tmp_path, monkeypatch):
    """A second major compact() of a compacted lake commits the same file
    paths and keeps the lake's rows; a bucket of many row-group pieces gets
    a name that does not depend on how the merge sliced it."""
    lake = str(tmp_path / "lake")
    shutil.copytree(steady_lake, lake)
    compact(lake)
    man1 = Manifest.load(lake)
    paths1 = {
        b: [f["path"] for f in man1.files_for_bucket(b)]
        for b in range(man1.num_buckets)
    }
    compact(lake)
    man2 = Manifest.load(lake)
    assert man2.version == man1.version + 1
    assert {
        b: [f["path"] for f in man2.files_for_bucket(b)]
        for b in range(man2.num_buckets)
    } == paths1
    want = final_table(replay_events(_lake_events(steady_lake))).to_pandas()
    got = read_final_table(lake).to_pandas()
    pd.testing.assert_frame_equal(
        _frame(got, KEY)[sorted(want.columns)], _frame(want, KEY),
        check_dtype=False,
    )

    # pieces of 100 rows: the name is a function of the rows alone, not of
    # the 64-row (or default-size) slabs the merge emitted
    monkeypatch.setattr(merge, "LAKE_ROW_GROUP_SIZE", 100)
    files = Manifest.load(steady_lake).files_for_bucket(0)
    plain = compact_bucket(lake, 0, files)
    with monkeypatch.context() as m:
        _streamed_compaction(m, {})
        sliced = compact_bucket(lake, 0, files)
    assert sliced == plain
    md = pq.ParquetFile(os.path.join(lake, plain["path"])).metadata
    assert md.num_row_groups == -(-plain["row_count"] // 100) > 1
    assert all(md.row_group(i).num_rows == 100 for i in range(md.num_row_groups - 1))
