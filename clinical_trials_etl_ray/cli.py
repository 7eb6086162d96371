"""CLI driver — the reference's ``main.py`` surface, Ray-Data-native.

Subcommands mirror the reference pipeline stages (parse→process→store→export,
trials_extractor/main.py:52-118) re-targeted to the CDC engine:

  synth    generate a deterministic binlog (events, shards, knobs)
  replay   ingest a binlog directory into a lake (chunked, resumable)
  compact  fold each bucket's deltas into one base file
  read     materialize the final table to parquet/csv/json
  oracle   run the single-process oracle and write its final table
  verify   replay + oracle + byte-for-byte comparison (exit 1 on mismatch)

Owns its Ray session (scripts only — library code never calls ray.init).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_init(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False,
                  "ignore_reinit_error": True, "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="clinical_trials_etl_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("synth")
    sp.add_argument("out_dir")
    sp.add_argument("--events", type=int, default=100_000)
    sp.add_argument("--convs", type=int, default=1_000)
    sp.add_argument("--shards", type=int, default=16)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--dup-rate", type=float, default=0.01)
    sp.add_argument("--shuffle-window", type=int, default=1024)

    rp = sub.add_parser("replay")
    rp.add_argument("binlog_dir")
    rp.add_argument("lake_dir")
    rp.add_argument("--buckets", type=int, default=64)
    rp.add_argument("--files-per-chunk", type=int, default=16)
    rp.add_argument("--disorder-bound", type=int, default=None,
                    help="producer out-of-order bound in LSN units; default: "
                         "the binlog's _meta.json published bound, else 0")
    rp.add_argument("--hot-key-salt", default="1",
                    help="buckets per conversation for hot-key skew: an "
                         "integer, or 'auto' to derive from a bounded "
                         "key-distribution sample at lake creation")
    rp.add_argument("--producer", default=None,
                    help="producer identity for multi-writer ingest: chunk "
                         "commits record this producer's own delivered LSN "
                         "in the manifest ledger, and a crashed producer's "
                         "re-run resumes from ITS entry instead of the "
                         "combined watermark")
    rp.add_argument("--follow", action="store_true",
                    help="tail the binlog dir until no new shards arrive")
    rp.add_argument("--poll-interval", type=float, default=2.0)
    rp.add_argument("--idle-rounds", type=int, default=3)
    rp.add_argument("--matview-dir", default=None,
                    help="(--follow) incrementally refresh this materialized "
                         "view after every round that ingested data")
    rp.add_argument("--tindex-dir", default=None,
                    help="(--follow) incrementally refresh this inverted "
                         "text index after every round that ingested data")
    rp.add_argument("--replica-dir", default=None,
                    help="(--follow) keep this downstream replica lake "
                         "synced to each round's new stable watermark "
                         "(seal with 'sync --cut committed' once the "
                         "producer quiesces)")
    rp.add_argument("--compact-min-files", type=int, default=None,
                    help="(--follow) minor-compact buckets holding at "
                         "least this many delta files after each ingesting "
                         "round — steady-state read fan-in control")
    rp.add_argument("--expire-keep-last", type=int, default=None,
                    help="(--follow) retire all but the newest N manifest "
                         "versions after each round — bounds manifest "
                         "growth under continuous ingest")
    rp.add_argument("--rebucket-on-advice", action="store_true",
                    help="(--follow) when a round's hot-key advisory fires, "
                         "rebucket in place at the advised salt before that "
                         "round's matview/tindex/replica maintenance "
                         "(implies --hot-key-salt auto on later rounds)")

    cp = sub.add_parser("compact")
    cp.add_argument("lake_dir")
    cp.add_argument("--mode", choices=["major", "minor"], default="major",
                    help="major: fold base+deltas into one resolved base "
                         "per bucket (O(lake)); minor: fold only the delta "
                         "files into one consolidated delta, base untouched "
                         "(O(data since last compaction) — the steady-state "
                         "pass under continuous ingest)")
    cp.add_argument("--min-files", type=int, default=2,
                    help="(minor) skip buckets with fewer delta files")
    cp.add_argument("--expire-keep-last", type=int, default=None,
                    help="after compacting, retire all but the newest N "
                         "manifest versions and reclaim their files "
                         "(time travel works for every retained version)")

    rbp = sub.add_parser(
        "rebucket",
        help="re-partition the lake in place: new bucket count and/or "
             "hot-key salt, one atomic layout commit (old versions keep "
             "the old layout for time travel)",
    )
    rbp.add_argument("lake_dir")
    rbp.add_argument("--buckets", type=int, required=True)
    rbp.add_argument("--salt", type=int, default=1)

    dp = sub.add_parser("read")
    dp.add_argument("lake_dir")
    dp.add_argument("out_dir")
    dp.add_argument("--format", choices=["parquet", "csv", "json"], default="parquet")
    dp.add_argument("--as-of-lsn", type=int, default=None,
                    help="time travel: state as of this LSN")
    dp.add_argument("--version", type=int, default=None,
                    help="time travel: read an older manifest snapshot")
    dp.add_argument("--conv-id", default=None,
                    help="point lookup: prune to the key's buckets + files")
    dp.add_argument("--conv-min", default=None,
                    help="inclusive conv_id range start (manifest file prune)")
    dp.add_argument("--conv-max", default=None,
                    help="inclusive conv_id range end (manifest file prune)")
    dp.add_argument("--ts-min", default=None,
                    help="inclusive event-time start (ISO ts or epoch µs int;"
                         " manifest ts file prune + row filter)")
    dp.add_argument("--ts-max", default=None,
                    help="inclusive event-time end (ISO ts or epoch µs int)")
    dp.add_argument("--columns", default=None,
                    help="comma-separated payload columns to read "
                         "(projection pushdown: other columns are never "
                         "decoded from parquet; keys always included)")

    sqp = sub.add_parser(
        "sql",
        help="ad-hoc SQL over the lake's live state (DuckDB on a streaming "
             "Arrow reader; the view is named 'final') — the interactive "
             "analog of the reference's custom-queries page",
    )
    sqp.add_argument("lake_dir")
    sqp.add_argument("query")
    sqp.add_argument("--version", type=int, default=None,
                     help="time travel: query an older snapshot")
    sqp.add_argument("--out", default=None,
                     help="write the result parquet here instead of "
                          "printing up to --limit rows as JSON")
    sqp.add_argument("--limit", type=int, default=20)

    rnp = sub.add_parser(
        "render",
        help="assembled-conversation export: one row per conversation with "
             "a deterministic rendered transcript — write as json for an "
             "SFT-ready corpus",
    )
    rnp.add_argument("lake_dir")
    rnp.add_argument("out_dir")
    rnp.add_argument("--format", choices=["parquet", "csv", "json"],
                     default="json")
    rnp.add_argument("--version", type=int, default=None)
    rnp.add_argument("--conv-min", default=None)
    rnp.add_argument("--conv-max", default=None)

    dfp = sub.add_parser(
        "diff",
        help="audit diff between two committed versions: the change rows "
             "(incl. out-of-band writes and op='purge' for physical "
             "erasure) that turn v-old's state into v-new's; untouched "
             "buckets fingerprint-skip without I/O",
    )
    dfp.add_argument("lake_dir")
    dfp.add_argument("out_dir")
    dfp.add_argument("--v-old", type=int, required=True)
    dfp.add_argument("--v-new", type=int, default=None,
                     help="default: current version")
    dfp.add_argument("--format", choices=["parquet", "csv", "json"],
                     default="parquet")

    delp = sub.add_parser(
        "delete",
        help="predicate delete: tombstone every live row matching the "
             "predicate through the exactly-once commit path (logical "
             "delete; payload bytes remain until compaction)",
    )
    delp.add_argument("lake_dir")
    delp.add_argument("--conv-id", default=None)
    delp.add_argument("--conv-min", default=None)
    delp.add_argument("--conv-max", default=None)
    delp.add_argument("--ts-min", default=None,
                      help="inclusive event-time start (ISO ts or epoch µs)")
    delp.add_argument("--ts-max", default=None,
                      help="inclusive event-time end (ISO ts or epoch µs)")
    delp.add_argument("--dry-run", action="store_true",
                      help="print the matched-row count; write nothing")
    delp.add_argument("--allow-full", action="store_true",
                      help="required to delete with no predicate (truncate)")

    upp = sub.add_parser(
        "upsert",
        help="apply an out-of-band correction/backfill parquet (no lsn "
             "column; engine allocates one above all committed rows; an "
             "op column may mix updates and deletes) — the MERGE INTO",
    )
    upp.add_argument("lake_dir")
    upp.add_argument("table", help="transcript-shaped parquet file or dir")
    upp.add_argument("--op-default", default="update",
                     choices=["insert", "update", "delete"])

    snap_p = sub.add_parser(
        "snapshot",
        help="export a CDC-aware snapshot (LWW winners incl. tombstones at "
             "the watermark cut) — the sound bootstrap input for a new lake",
    )
    snap_p.add_argument("lake_dir")
    snap_p.add_argument("out_dir")
    snap_p.add_argument("--cut-lsn", default=None,
                        help="snapshot cut: 'stable' (watermark, default — "
                             "sound under active producers but excludes "
                             "out-of-band delete/upsert writes), "
                             "'committed' (full state incl. out-of-band; "
                             "quiesced producers), or an explicit LSN")

    boot_p = sub.add_parser(
        "bootstrap",
        help="create a NEW lake from a snapshot (plain transcript parquet "
             "or a CDC-aware `snapshot` export), then continue with replay",
    )
    boot_p.add_argument("snapshot")
    boot_p.add_argument("lake_dir")
    boot_p.add_argument("--buckets", type=int, default=64)
    boot_p.add_argument("--hot-key-salt", type=int, default=1)
    boot_p.add_argument("--cut-lsn", type=int, default=None,
                        help="log position the snapshot represents "
                             "(default: its max lsn, or 0 for plain input)")

    pup = sub.add_parser(
        "purge",
        help="physically rewrite every file that may hold the conversation "
             "(range/Bloom-pruned) with its rows removed — right-to-erasure;"
             " finish with compact --expire-keep-last to drop old versions",
    )
    pup.add_argument("lake_dir")
    pup.add_argument("conv_id")

    chp = sub.add_parser(
        "changes",
        help="net-change feed (since_lsn, until_lsn] for downstream "
             "consumers — collapsed change rows incl. delete tombstones; "
             "manifest-pruned to the delta files committed in the range",
    )
    chp.add_argument("lake_dir")
    chp.add_argument("out_dir")
    chp.add_argument("--since-lsn", type=int, required=True,
                     help="exclusive lower LSN bound (your last watermark)")
    chp.add_argument("--until-lsn", type=int, default=None,
                     help="inclusive upper LSN bound (default: everything)")
    chp.add_argument("--format", choices=["parquet", "csv", "json"],
                     default="parquet")

    syp = sub.add_parser(
        "sync",
        help="CDC fan-out: apply the source lake's change feed to a "
             "replica lake, advancing it to the source watermark — "
             "incremental (O(change rate)), idempotent, resumable; the "
             "replica may use its own bucket count / salt",
    )
    syp.add_argument("src_lake")
    syp.add_argument("dst_lake")
    syp.add_argument("--buckets", type=int, default=None,
                     help="replica bucket count, fixed at replica creation "
                          "(default: the source's)")
    syp.add_argument("--hot-key-salt", type=int, default=1,
                     help="replica hot-key salt factor, fixed at creation")
    syp.add_argument("--cut", choices=["stable", "committed"],
                     default="stable",
                     help="sync horizon: 'stable' = the source watermark "
                          "(safe while the producer is live and may "
                          "reorder; trails by ≤ the disorder bound), "
                          "'committed' = every committed source row "
                          "(full current state; quiesced sources only)")

    mp = sub.add_parser(
        "matview",
        help="build / incrementally refresh / export the per-conversation "
             "aggregate view (only buckets with new committed data "
             "recompute; skips are decided from manifest metadata alone)",
    )
    mp.add_argument("action", choices=["build", "refresh", "read"])
    mp.add_argument("lake_dir")
    mp.add_argument("mv_dir")
    mp.add_argument("--out-dir", default=None,
                    help="(read) export destination")
    mp.add_argument("--format", choices=["parquet", "csv", "json"],
                    default="parquet")
    mp.add_argument("--version", type=int, default=None,
                    help="(read) time travel: an older view snapshot")
    mp.add_argument("--key", default=None,
                    help="(build) view group key (default conv_id)")
    mp.add_argument("--agg", action="append", default=None,
                    metavar="NAME:KIND[:COL]",
                    help="(build) aggregate spec, repeatable — kinds: "
                         "count, nn_count, sum, min, max, sum_utf8_len "
                         "(e.g. --agg n_turns:count --agg chars:sum_utf8_len:text)")
    mp.add_argument("--window-s", type=int, default=None,
                    help="(build) event-time tumbling-window width in "
                         "seconds: groups additionally by win_start = "
                         "floor(--time-col to the window)")
    mp.add_argument("--time-col", default="ts",
                    help="(build) event-time column for --window-s "
                         "(default ts)")

    tp = sub.add_parser(
        "tindex",
        help="inverted text index over the lake: build / incrementally "
             "refresh (only buckets with new committed data recompute "
             "their postings) / search by token from posting lists alone",
    )
    tp.add_argument("action", choices=["build", "refresh", "search", "rank"])
    tp.add_argument("lake_dir")
    tp.add_argument("idx_dir")
    tp.add_argument("--tokens", nargs="+", default=None,
                    help="(search/rank) probe tokens")
    tp.add_argument("--mode", choices=["all", "any"], default="all",
                    help="(search) require every token (all) or any one")
    tp.add_argument("--k", type=int, default=10,
                    help="(rank) top-k conversations by BM25 score")

    lnp = sub.add_parser(
        "lshidx",
        help="cross-run incremental NEAR-dup: maintain a persisted "
             "MinHash-LSH posting/signature index and probe new data "
             "against it by signature agreement — only the increment and "
             "the touched partitions are read, never the history",
    )
    lnp.add_argument("action",
                     choices=["update", "probe", "compact", "rebucket"])
    lnp.add_argument("index_dir")
    lnp.add_argument("input", nargs="?", default=None,
                     help="(update/probe) parquet file/dir of (doc_id, text)")
    lnp.add_argument("--buckets", type=int, default=None,
                     help="(update) partition count at CREATION only — "
                          "default: derived from the first increment's "
                          "size; (rebucket) the new partition count")
    lnp.add_argument("--est-threshold", type=float, default=0.7,
                     help="(probe) keep pairs with signature-agreement "
                          "Jaccard estimate at or above this")
    lnp.add_argument("--out-dir", default=None,
                     help="(probe) write pairs here as parquet instead of "
                          "printing a preview")

    snp = sub.add_parser(
        "seen",
        help="cross-run incremental dedup: maintain a persisted "
             "fingerprint index (one md5 per distinct document ever "
             "ingested) and filter new data against it — only the "
             "increment is exchanged, never the historical corpus",
    )
    snp.add_argument("action",
                     choices=["update", "filter", "compact", "rebucket"])
    snp.add_argument("index_dir")
    snp.add_argument("input", nargs="?", default=None,
                     help="(update/filter) parquet file/dir of documents")
    snp.add_argument("--out-dir", default=None,
                     help="(filter) survivors destination")
    snp.add_argument("--format", choices=["parquet", "csv", "json"],
                     default="parquet")
    snp.add_argument("--text-col", default="text")
    snp.add_argument("--buckets", type=int, default=None,
                     help="(update) partition count at CREATION only — "
                          "default: derived from the first increment's "
                          "size; (rebucket) the new partition count")

    stp = sub.add_parser(
        "stats",
        help="print the committed lake (or view) state from manifest "
             "metadata alone — no data files opened",
    )
    stp.add_argument("lake_dir")
    stp.add_argument("--version", type=int, default=None)

    op = sub.add_parser("oracle")
    op.add_argument("binlog_dir")
    op.add_argument("out_path")

    vp = sub.add_parser("verify")
    vp.add_argument("binlog_dir")
    vp.add_argument("--buckets", type=int, default=16)
    vp.add_argument("--disorder-bound", type=int, default=None)

    args = p.parse_args(argv)

    if args.cmd == "synth":
        from .synth import BinlogSpec, write_binlog_shards

        spec = BinlogSpec(
            n_events=args.events, n_convs=args.convs, seed=args.seed,
            duplicate_rate=args.dup_rate, shuffle_window=args.shuffle_window,
        )
        if args.events >= 1_000_000:
            _ray_init(args.num_cpus)  # parallel shard build kicks in
        paths = write_binlog_shards(spec, args.out_dir, n_shards=args.shards)
        print(json.dumps({"shards": len(paths), "events": args.events}))
        import ray

        if ray.is_initialized():
            ray.shutdown()
        return 0

    if args.cmd == "stats":
        from .state.manifest import Manifest

        m = (
            Manifest.load(args.lake_dir)
            if args.version is None
            else Manifest.load_version(args.lake_dir, args.version)
        )
        print(json.dumps(m.summary()))
        return 0

    if args.cmd == "oracle":
        import pyarrow.parquet as pq
        import pyarrow as pa
        import os

        from .oracle import oracle_final_table

        tables = [
            pq.read_table(os.path.join(args.binlog_dir, f))
            for f in sorted(os.listdir(args.binlog_dir))
            if f.endswith(".parquet")
        ]
        from .schema import unify_to_event_schema

        events = pa.concat_tables([unify_to_event_schema(t) for t in tables])
        out = oracle_final_table(events)
        pq.write_table(out, args.out_path)
        print(json.dumps({"rows": out.num_rows}))
        return 0

    _ray_init(args.num_cpus)
    import ray

    try:
        if args.cmd == "replay":
            from .pipelines.replay import follow, replay

            salt = (
                "auto" if args.hot_key_salt == "auto" else int(args.hot_key_salt)
            )
            kw = dict(
                num_buckets=args.buckets,
                files_per_chunk=args.files_per_chunk,
                disorder_bound=args.disorder_bound,
                hot_key_salt=salt, producer=args.producer,
            )
            if args.follow:
                r = follow(args.binlog_dir, args.lake_dir,
                           poll_interval_s=args.poll_interval,
                           idle_rounds=args.idle_rounds,
                           matview_dir=args.matview_dir,
                           tindex_dir=args.tindex_dir,
                           replica_dir=args.replica_dir,
                           compact_min_files=args.compact_min_files,
                           expire_keep_last=args.expire_keep_last,
                           rebucket_on_advice=args.rebucket_on_advice, **kw)
            else:
                r = replay(args.binlog_dir, args.lake_dir, **kw)
            print(json.dumps(r.__dict__))
        elif args.cmd == "compact":
            from .pipelines.replay import compact

            n = compact(args.lake_dir, mode=args.mode, min_files=args.min_files)
            expired = []
            if args.expire_keep_last is not None:
                from .state.manifest import Manifest

                expired = Manifest.load(args.lake_dir).expire_versions(
                    keep_last=args.expire_keep_last
                )
            print(json.dumps({"buckets_compacted": n, "expired_versions": expired}))
        elif args.cmd == "read":
            from .sources.writers import write_csv, write_json, write_parquet
            from .stages.merge import read_final_table

            if args.conv_id is not None and (
                args.conv_min is not None or args.conv_max is not None
            ):
                p.error("--conv-id conflicts with --conv-min/--conv-max")
            conv_range = (
                (args.conv_min, args.conv_max)
                if (args.conv_min is not None or args.conv_max is not None)
                else None
            )
            def _ts_arg(v):
                if v is None:
                    return None
                return int(v) if v.lstrip("-").isdigit() else v

            ds = read_final_table(
                args.lake_dir,
                as_of_lsn=args.as_of_lsn,
                version=args.version,
                conv_id=args.conv_id,
                conv_range=conv_range,
                ts_min=_ts_arg(args.ts_min),
                ts_max=_ts_arg(args.ts_max),
                columns=(
                    [c.strip() for c in args.columns.split(",")]
                    if args.columns
                    else None
                ),
            )
            {"parquet": write_parquet, "csv": write_csv, "json": write_json}[
                args.format
            ](ds, args.out_dir)
            print(json.dumps({"out": args.out_dir}))
        elif args.cmd == "render":
            from .pipelines.adhoc import render_lake
            from .sources.writers import write_csv, write_json, write_parquet

            conv_range = (
                (args.conv_min, args.conv_max)
                if (args.conv_min is not None or args.conv_max is not None)
                else None
            )
            ds = render_lake(
                args.lake_dir, version=args.version, conv_range=conv_range
            )
            {"parquet": write_parquet, "csv": write_csv, "json": write_json}[
                args.format
            ](ds, args.out_dir)
            print(json.dumps({"out": args.out_dir}))
        elif args.cmd == "sql":
            from .pipelines.adhoc import sql_on_lake

            res = sql_on_lake(args.lake_dir, args.query, version=args.version)
            if args.out:
                import pyarrow.parquet as _pq

                _pq.write_table(res, args.out)
                print(json.dumps({"out": args.out, "rows": res.num_rows}))
            else:
                rows = res.slice(0, args.limit).to_pylist()
                print(json.dumps({"rows": res.num_rows,
                                  "preview": rows}, default=str))
        elif args.cmd == "diff":
            from .sources.writers import write_csv, write_json, write_parquet
            from .stages.merge import diff_versions

            ds = diff_versions(args.lake_dir, args.v_old, args.v_new)
            {"parquet": write_parquet, "csv": write_csv, "json": write_json}[
                args.format
            ](ds, args.out_dir)
            print(json.dumps({"out": args.out_dir}))
        elif args.cmd == "delete":
            from dataclasses import asdict

            from .pipelines.retention import delete_where

            def _ts_arg(v):
                if v is None:
                    return None
                return int(v) if v.lstrip("-").isdigit() else v

            conv_range = (
                (args.conv_min, args.conv_max)
                if (args.conv_min is not None or args.conv_max is not None)
                else None
            )
            rep = delete_where(
                args.lake_dir,
                conv_id=args.conv_id,
                conv_range=conv_range,
                ts_min=_ts_arg(args.ts_min),
                ts_max=_ts_arg(args.ts_max),
                dry_run=args.dry_run,
                allow_full=args.allow_full,
            )
            print(json.dumps(asdict(rep)))
        elif args.cmd == "rebucket":
            from dataclasses import asdict

            from .pipelines.retention import rebucket

            rep = rebucket(
                args.lake_dir, args.buckets, new_salt_factor=args.salt
            )
            print(json.dumps(asdict(rep)))
        elif args.cmd == "purge":
            from dataclasses import asdict

            from .pipelines.retention import purge_conv

            print(json.dumps(asdict(purge_conv(args.lake_dir, args.conv_id))))
        elif args.cmd == "upsert":
            from dataclasses import asdict

            from .pipelines.retention import upsert_table

            rep = upsert_table(
                args.lake_dir, args.table, op_default=args.op_default
            )
            print(json.dumps(asdict(rep)))
        elif args.cmd == "snapshot":
            from .pipelines.bootstrap import export_snapshot

            cut_arg = args.cut_lsn
            if cut_arg is not None and cut_arg not in ("stable", "committed"):
                cut_arg = int(cut_arg)
            cut = export_snapshot(
                args.lake_dir, args.out_dir, cut_lsn=cut_arg
            )
            print(json.dumps({"out": args.out_dir, "cut_lsn": cut}))
        elif args.cmd == "bootstrap":
            from dataclasses import asdict

            from .pipelines.bootstrap import bootstrap_lake

            rep = bootstrap_lake(
                args.snapshot,
                args.lake_dir,
                num_buckets=args.buckets,
                hot_key_salt=args.hot_key_salt,
                cut_lsn=args.cut_lsn,
            )
            print(json.dumps(asdict(rep)))
        elif args.cmd == "changes":
            from .sources.writers import write_csv, write_json, write_parquet
            from .stages.merge import read_change_feed

            ds = read_change_feed(
                args.lake_dir,
                since_lsn=args.since_lsn,
                until_lsn=args.until_lsn,
            )
            {"parquet": write_parquet, "csv": write_csv, "json": write_json}[
                args.format
            ](ds, args.out_dir)
            print(json.dumps({"out": args.out_dir}))
        elif args.cmd == "sync":
            from .pipelines.replay import sync_replica

            r = sync_replica(
                args.src_lake,
                args.dst_lake,
                num_buckets=args.buckets,
                hot_key_salt=args.hot_key_salt,
                cut=args.cut,
            )
            print(json.dumps(r.__dict__))
        elif args.cmd == "matview":
            from .stages.matview import (
                build_matview,
                read_matview,
                refresh_matview,
            )

            if args.action in ("build", "refresh"):
                spec = None
                if args.key or args.agg or args.window_s:
                    from .stages.matview import DEFAULT_SPEC, ViewAgg, ViewSpec

                    aggs = (
                        tuple(
                            ViewAgg(*(a.split(":", 2) + [None])[:3])
                            for a in args.agg
                        )
                        if args.agg
                        else DEFAULT_SPEC.aggs
                    )
                    spec = ViewSpec(
                        key=args.key or "conv_id",
                        aggs=aggs,
                        time_col=args.time_col if args.window_s else None,
                        window_s=args.window_s,
                    )
                fn = build_matview if args.action == "build" else refresh_matview
                r = fn(args.lake_dir, args.mv_dir, spec=spec)
                print(json.dumps(r.__dict__))
            else:
                if not args.out_dir:
                    p.error("matview read requires --out-dir")
                from .sources.writers import write_csv, write_json, write_parquet

                ds = read_matview(args.mv_dir, version=args.version)
                {"parquet": write_parquet, "csv": write_csv,
                 "json": write_json}[args.format](ds, args.out_dir)
                print(json.dumps({"out": args.out_dir}))
        elif args.cmd == "tindex":
            from .stages.textindex import (
                build_text_index,
                refresh_text_index,
                search_text_index,
            )

            if args.action in ("build", "refresh"):
                fn = (
                    build_text_index
                    if args.action == "build"
                    else refresh_text_index
                )
                print(json.dumps(fn(args.lake_dir, args.idx_dir).__dict__))
            elif args.action == "rank":
                from .stages.textindex import rank_text_index

                if not args.tokens:
                    p.error("tindex rank requires --tokens")
                t = rank_text_index(args.idx_dir, args.tokens, k=args.k)
                print(json.dumps({"ranked": t.to_pylist()}))
            else:
                if not args.tokens:
                    p.error("tindex search requires --tokens")
                t = search_text_index(
                    args.idx_dir, args.tokens, mode=args.mode
                )
                print(json.dumps(
                    {"conv_ids": t["conv_id"].to_pylist(), "mode": args.mode}
                ))
        elif args.cmd in ("lshidx", "seen") and args.action in ("compact", "rebucket"):
            from .stages import lsh_index, seen_index

            compact_index, rebucket_index = {
                "lshidx": (lsh_index.compact_lsh_index, lsh_index.rebucket_lsh_index),
                "seen": (seen_index.compact_seen_index, seen_index.rebucket_seen_index),
            }[args.cmd]
            if args.action == "compact":
                print(json.dumps({"partitions_folded": compact_index(args.index_dir)}))
            else:
                if args.buckets is None:
                    p.error(f"{args.cmd} rebucket requires --buckets")
                v = rebucket_index(args.index_dir, args.buckets)
                print(json.dumps({"new_num_buckets": args.buckets, "version": v}))
        elif args.cmd == "lshidx":
            import ray.data

            from .stages.lsh_index import probe_lsh_index, update_lsh_index

            if args.input is None:
                p.error(f"lshidx {args.action} requires an input path")
            elif args.action == "update":
                ds = ray.data.read_parquet(args.input)
                r = update_lsh_index(
                    args.index_dir, ds, num_buckets=args.buckets
                )
                print(json.dumps(r.__dict__))
            else:
                ds = ray.data.read_parquet(args.input)
                pairs = probe_lsh_index(
                    args.index_dir, ds, est_threshold=args.est_threshold
                )
                if args.out_dir:
                    from .sources.writers import write_parquet

                    write_parquet(pairs, args.out_dir)
                    print(json.dumps({"out": args.out_dir}))
                else:
                    df = pairs.to_pandas()
                    print(json.dumps({
                        "pairs": int(len(df)),
                        "preview": df.head(20).to_dict("records"),
                    }))
        elif args.cmd == "seen":
            import ray.data

            from .stages.seen_index import filter_unseen, update_seen_index

            if args.input is None:
                p.error(f"seen {args.action} requires an input path")
            ds = ray.data.read_parquet(args.input)
            if args.action == "update":
                r = update_seen_index(
                    args.index_dir, ds, text_col=args.text_col,
                    num_buckets=args.buckets,
                )
                print(json.dumps(r.__dict__))
            else:
                if not args.out_dir:
                    p.error("seen filter requires --out-dir")
                from .sources.writers import write_csv, write_json, write_parquet

                out = filter_unseen(ds, args.index_dir, text_col=args.text_col)
                {"parquet": write_parquet, "csv": write_csv,
                 "json": write_json}[args.format](out, args.out_dir)
                print(json.dumps({"out": args.out_dir}))
        elif args.cmd == "verify":
            import pyarrow as pa

            from .functions.scratch import scratch_dir
            from .oracle import oracle_final_table
            from .pipelines.replay import replay
            from .schema import unify_to_event_schema
            from .stages.merge import read_final_table

            lake = scratch_dir("verify_lake_")
            replay(args.binlog_dir, lake, num_buckets=args.buckets,
                   disorder_bound=args.disorder_bound)
            got = pa.concat_tables(
                list(read_final_table(lake).iter_batches(batch_format="pyarrow"))
            ).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])

            import os

            import pyarrow.parquet as pq

            events = pa.concat_tables(
                [
                    unify_to_event_schema(pq.read_table(os.path.join(args.binlog_dir, f)))
                    for f in sorted(os.listdir(args.binlog_dir))
                    if f.endswith(".parquet")
                ]
            )
            want = oracle_final_table(events)
            ok = got.equals(want)
            print(json.dumps({"rows": got.num_rows, "match": ok}))
            return 0 if ok else 1
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
