"""CDC replay driver: chunked LSN-range ingest with atomic commits + resume.

Lifecycle per chunk (SURVEY §3.4):
  read_parquet(shards) → ``stages.merge.write_deltas`` (prep: schema-unify
  + bucket → in-batch LWW dedupe → direct delta writer: one winner delta
  per (task, bucket), no shuffle) → driver collects the tiny
  per-(task, bucket) stats → Manifest.commit (atomic rename) → next chunk.

Resume: shards whose max LSN ≤ the committed global watermark are skipped at
the planning step (file-level pruning from parquet stats — no data read);
rows of straddling shards are filtered per bucket by the delta writer.
Crash between staging and commit leaves unreferenced orphans only.

Constraint (documented, enforced by the chunk planner): out-of-order delivery
must be bounded within one chunk's LSN span — a true CDC binlog is
LSN-ordered across files, so chunk boundaries are safe cut points.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..stages.merge import compact_bucket, write_deltas
from ..state.manifest import Manifest

# Serializes DRIVER-SIDE ray.data.read_parquet planning across concurrent
# replay threads (multi-writer ingest, round-4 item 5). Ray's path
# resolution re-attempts `from fsspec.implementations.http import
# HTTPFileSystem` on every call, catching only ModuleNotFoundError; in an
# env without aiohttp, two threads racing that always-failing import can
# observe a partially-torn module and get a plain ImportError that escapes
# Ray's handler. Planning is cheap (footers only) — execution stays fully
# parallel, so the lock costs nothing at scale.
import threading as _threading

_READ_PLAN_LOCK = _threading.Lock()

#: hot-key advisories only fire for chunks of at least this many rows —
#: a 5-row correction batch where one conv holds every row is not skew
HOT_KEY_ADVISORY_MIN_ROWS = 1_000


@dataclass
class ReplayReport:
    """Per-run ingest metrics (reference analog: bulk-write duplicate
    counting, trials_extractor/storage/mongodb_storage.py:422-430).

    events_read ≥ rows_deduped ≥ winners_written; the difference
    events_read − rows_deduped is events collapsed by in-batch LWW pre-
    combine plus events dropped by the global-watermark prep filter, and
    stale_skipped counts rows a writer additionally filtered against its
    bucket's committed watermark (idempotent re-delivery)."""

    chunks_total: int = 0
    chunks_skipped: int = 0
    chunks_applied: int = 0
    events_read: int = 0
    rows_deduped: int = 0
    stale_skipped: int = 0
    delta_rows_written: int = 0
    final_version: int = 0
    # hot-key monitor (round-4): count of chunks whose observed top-key
    # share exceeded what the lake's salt_factor can flatten (each also
    # emits a warning and a manifest-metrics advisory), and the largest
    # salt_factor any advisory called for (0 = none fired)
    salt_advisories: int = 0
    advised_salt: int = 0

    @property
    def winners_written(self) -> int:
        return self.delta_rows_written


def _shard_meta(path: str):
    """(min_lsn, max_lsn, num_rows, arrow_schema) from parquet metadata —
    no data read; ONE footer fetch serves both chunk planning and the
    schema-evolution union."""
    md = pq.read_metadata(path)
    schema = md.schema.to_arrow_schema()
    lo, hi = None, None
    idx = schema.get_field_index("lsn")
    for rg in range(md.num_row_groups):
        col = md.row_group(rg).column(idx)
        if col.statistics is not None and col.statistics.has_min_max:
            lo = col.statistics.min if lo is None else min(lo, col.statistics.min)
            hi = col.statistics.max if hi is None else max(hi, col.statistics.max)
    if lo is None:  # stats missing: fall back to reading just the lsn column
        t = pq.read_table(path, columns=["lsn"])
        lo = pc.min(t["lsn"]).as_py()
        hi = pc.max(t["lsn"]).as_py()
    return int(lo), int(hi), int(md.num_rows), schema


def _shard_metas(paths: list) -> dict:
    """Parallel footer scan — at 10^10-event scale a binlog has 10^4-10^5
    shards and a serial driver-side metadata pass would dominate planning;
    footer reads are I/O-bound and release the GIL."""
    from concurrent.futures import ThreadPoolExecutor

    if len(paths) <= 2:
        return {p: _shard_meta(p) for p in paths}
    with ThreadPoolExecutor(max_workers=min(32, len(paths))) as ex:
        return dict(zip(paths, ex.map(_shard_meta, paths)))


def plan_chunks(
    shard_paths: list,
    files_per_chunk: int,
    disorder_bound: int = 0,
    metas: dict | None = None,
) -> list:
    """Order shards by min LSN and group into chunks of N files.

    Returns [(paths, commit_watermark_lsn, chunk_max_lsn), ...]. The commit
    watermark for chunk i is the highest LSN *below which every event has
    been delivered* once chunks 0..i are applied: min(running max LSN, (min
    LSN of any later chunk) - 1). For the FINAL chunk there is no later-chunk
    evidence, so the watermark is ``running_max - disorder_bound``:
    ``disorder_bound`` is the producer's guaranteed bound on out-of-order
    delivery in LSN units (0 for a true LSN-ordered WAL). Conservative
    watermarks only cause idempotent re-application (LWW no-ops), never
    loss."""
    if metas is None:
        metas = _shard_metas(shard_paths)
    ranged = sorted(
        ((p,) + metas[p][:3] for p in shard_paths), key=lambda t: t[1]
    )
    groups = [ranged[i : i + files_per_chunk] for i in range(0, len(ranged), files_per_chunk)]
    chunks = []
    running_max = -1
    for i, part in enumerate(groups):
        running_max = max(running_max, max(hi for _, _, hi, _ in part))
        later_min = min(
            (lo for g in groups[i + 1 :] for _, lo, _, _ in g), default=None
        )
        if later_min is None:
            wm = running_max - disorder_bound
        else:
            wm = min(running_max, later_min - 1)
        chunk_max = max(hi for _, _, hi, _ in part)
        chunks.append(
            ([p for p, _, _, _ in part], wm, chunk_max,
             sum(nr for _, _, _, nr in part))
        )
    return chunks


def producer_disorder_bound(binlog) -> int | None:
    """The producer-published out-of-order bound, if the binlog directory
    carries a ``_meta.json`` sidecar (synth.write_binlog_shards writes one).
    None when no sidecar exists.

    Accepts either the binlog directory or an explicit shard list — for a
    list, the sidecar is looked up in the shards' parent directories. This
    matters for PARTIAL replays (e.g. the snapshot-bootstrap handoff):
    silently falling back to bound 0 would over-advance the commit
    watermark past undelivered stragglers, stale-dropping them on the
    later full replay."""
    import json

    dirs: list[str] = []
    if isinstance(binlog, str):
        dirs = [binlog]
    else:
        seen: set[str] = set()
        for shard in binlog:
            d = os.path.dirname(str(shard))
            if d not in seen:
                seen.add(d)
                dirs.append(d)
    bounds = []
    for d in dirs:
        p = os.path.join(d, "_meta.json")
        if os.path.exists(p):
            with open(p) as f:
                bounds.append(int(json.load(f).get("disorder_bound", 0)))
    # mixed-source shard lists: the loosest published bound is the only
    # sound one for the combined stream
    return max(bounds) if bounds else None


def detect_hot_key_salt(
    shard_paths: list,
    num_buckets: int,
    sample_rows: int = 200_000,
    max_salt: int = 16,
) -> int:
    """Pick a salt factor from a BOUNDED sample of the binlog's key
    distribution: a key carrying share ``p`` of events needs its turns
    spread over ~``p × num_buckets`` buckets to flatten the hottest
    partition to average load. Reads at most ``sample_rows`` rows of ONE
    column from the first few shards (streaming, stops early) — never the
    log. Returns 1 for roughly uniform keys."""
    import collections

    counts: collections.Counter = collections.Counter()
    seen = 0
    for p in shard_paths[:4]:
        f = pq.ParquetFile(p)
        for b in f.iter_batches(batch_size=65536, columns=["conv_id"]):
            vals = b.column(0).to_pandas().value_counts()
            counts.update(vals.to_dict())
            seen += len(b)
            if seen >= sample_rows:
                break
        if seen >= sample_rows:
            break
    if not seen:
        return 1
    top_share = counts.most_common(1)[0][1] / seen
    salt = int(np.ceil(top_share * num_buckets)) if top_share > 1.5 / num_buckets else 1
    return max(1, min(salt, max_salt))


def replay(
    binlog: str | list,
    lake_dir: str,
    num_buckets: int = 64,
    files_per_chunk: int = 16,
    batch_size: int | None = None,
    disorder_bound: int | None = None,
    hot_key_salt: int | str = 1,
    producer: str | None = None,
) -> ReplayReport:
    """Replay a binlog directory (or explicit shard list) into the lake.

    producer: identity for MULTI-WRITER ingest (producers feeding disjoint
    LSN ranges concurrently). Each chunk commit records this producer's own
    delivered progress in the manifest's producer ledger, and a re-run
    (crash recovery) seeds its chunk-skip / stale filters from that ledger
    entry — NOT from the combined bucket watermark, which a concurrent
    high-range producer may have advanced past this producer's undelivered
    chunks (the re-run would otherwise silently skip everything while the
    watermark claims delivery). Single-writer runs leave this None and keep
    the plain watermark-resume behavior. The combined watermark remains a
    total-order claim: trust it only after every producer's range has run
    to completion (each re-run as needed under its own producer id).

    disorder_bound: the producer's guaranteed bound on out-of-order delivery
    in LSN units. ``None`` (default) reads the producer-published bound from
    the binlog's ``_meta.json`` sidecar, falling back to 0 (a strictly
    LSN-ordered WAL). Pass explicitly to override.

    Ingest is zero-shuffle: every dedupe task writes per-bucket winner
    deltas immediately (stages.merge.write_deltas); the delta files this
    leaves behind are folded by ``compact``.

    hot_key_salt: spread each conversation's turns over this many buckets
    (deterministic per key; fixed at lake creation, persisted in the
    manifest) — mitigates a viral conv_id pinning one partition. Pass
    ``"auto"`` to derive it from a bounded sample of the binlog's key
    distribution (``detect_hot_key_salt``) on lake CREATION; on an existing
    lake the manifest's persisted factor is used.

    Idempotent and resumable: re-running after any interruption converges to
    the same committed state. Ray must already be initialized (or Ray Data
    will auto-init in standalone use); this function never calls ray.init."""
    import ray.data

    if isinstance(binlog, str):
        shard_paths = sorted(
            os.path.join(binlog, f)
            for f in os.listdir(binlog)
            if f.endswith(".parquet")
        )
    else:
        shard_paths = list(binlog)

    if disorder_bound is None:
        disorder_bound = producer_disorder_bound(binlog) or 0

    if hot_key_salt == "auto":
        if Manifest.exists(lake_dir):
            hot_key_salt = Manifest.load(lake_dir).salt_factor
        else:
            hot_key_salt = detect_hot_key_salt(shard_paths, num_buckets)

    man = Manifest.load_or_create(lake_dir, num_buckets, salt_factor=hot_key_salt)

    # ONE parallel footer pass serves both chunk planning (LSN ranges) and
    # additive schema evolution: the run's canonical schema is EVENT_SCHEMA
    # plus every extra column any shard declares (nested struct/list payload
    # columns included) — metadata only, no data read. The manifest's
    # previously committed schema joins the union, so columns evolved by an
    # EARLIER run survive even when this run's shards lack them.
    from ..schema import EVENT_SCHEMA, schema_from_b64, schema_to_b64, union_event_schema

    metas = _shard_metas(shard_paths)
    legacy_recovery = False
    missing_names = set(man.schema_names) - set(EVENT_SCHEMA.names)
    if man.schema_ipc:
        prior = [schema_from_b64(man.schema_ipc)]
    elif missing_names:
        # legacy lake (pre-schema_ipc manifests) with evolved columns whose
        # TYPES were never recorded: recover them from the committed files'
        # footers so this run cannot narrow the committed schema. Footers
        # are read in parallel batches and the sweep STOPS as soon as every
        # evolved name has a recovered type.
        legacy_recovery = True
        from concurrent.futures import ThreadPoolExecutor

        lake_files = [
            os.path.join(lake_dir, f["path"])
            for b in range(man.num_buckets)
            for f in man.files_for_bucket(b)
        ]
        prior = []
        todo = set(missing_names)
        with ThreadPoolExecutor(max_workers=32) as ex:
            for i in range(0, len(lake_files), 64):
                if not todo:
                    break
                batch = list(ex.map(pq.read_schema, lake_files[i : i + 64]))
                prior.extend(batch)
                for s in batch:
                    todo -= set(s.names)
    else:
        prior = []
    target_schema = union_event_schema(
        prior + [metas[p][3] for p in shard_paths]
    )
    narrowed = set(man.schema_names) - set(target_schema.names)
    if narrowed:
        # a declared evolved column whose type is unrecoverable (e.g. its
        # only carrier was tombstone-compacted away): refuse to narrow the
        # committed schema rather than silently dropping the column
        raise ValueError(
            f"committed schema declares columns {sorted(narrowed)} whose "
            "types cannot be recovered from any committed file — pass the "
            "binlog shards that carry them or rebuild the manifest schema"
        )
    report = ReplayReport()
    chunks = plan_chunks(shard_paths, files_per_chunk, disorder_bound, metas=metas)
    report.chunks_total = len(chunks)

    # THIS producer's delivered-progress view, advanced only by its own
    # chunk commits. Chunk-skip and writer stale-filters must use it — not
    # the live manifest — because a commit that rebases onto a concurrent
    # producer's version (Manifest.commit retry-with-rebase) imports that
    # producer's watermark into ``man``, and judging our own undelivered
    # chunks against the combined total-order claim would silently skip
    # them mid-run. With an explicit ``producer`` id the seed comes from
    # the persisted producer ledger (survives crashes: a re-run resumes at
    # ITS OWN delivered LSN, even after other producers advanced the
    # combined watermark past it); anonymous single-writer runs seed from
    # the bucket watermarks as before.
    if producer is not None:
        own_wm = {
            b: man.producer_watermark(producer) for b in range(num_buckets)
        }
    else:
        own_wm = man.watermarks()

    for paths, commit_wm, chunk_max_lsn, chunk_rows in chunks:
        wm_global = min(own_wm.values()) if own_wm else -1
        if chunk_max_lsn <= wm_global:
            report.chunks_skipped += 1
            continue
        report.events_read += chunk_rows

        # Block count bounds BOTH parallelism and delta-file count (direct
        # mode writes one file per task × touched bucket): scale blocks with
        # available CPUs instead of shard count, so a small cluster writes
        # fewer, larger deltas (less file-open overhead at read/compact time)
        # while a big one keeps full parallelism.
        import ray as _ray

        ncpu = int(_ray.cluster_resources().get("CPU", 32))
        nblocks = max(len(paths) // 4, min(len(paths), 2 * ncpu), 1)
        with _READ_PLAN_LOCK:
            ds = ray.data.read_parquet(paths, override_num_blocks=nblocks)
        out = write_deltas(
            lake_dir, ds, num_buckets=num_buckets, salt_factor=man.salt_factor,
            target_schema=target_schema, watermarks=dict(own_wm), dedupe=True,
            batch_size=batch_size,
        )
        rows_deduped = out.rows_in

        # streaming hot-key monitor (round-4 VERDICT item 4): per-writer
        # top-conv samples sum to a LOWER BOUND on the chunk's hottest key
        # share — unlike detect_hot_key_salt's creation-time sample, this
        # sees every chunk, so a conv that goes viral MID-STREAM is caught.
        # Cost: one value_counts per task batch, already measured in stats.
        hot_share = out.hot_rows / rows_deduped if rows_deduped else 0.0
        required_salt = int(np.ceil(hot_share * num_buckets))
        # tiny chunks (corrections, backfills, test fixtures) are all
        # "skewed" by definition — skew is only actionable at volume
        advisory = (
            rows_deduped >= HOT_KEY_ADVISORY_MIN_ROWS
            and hot_share > 1.5 / num_buckets
            and required_salt > man.salt_factor
        )
        metrics = {
            "chunk_max_lsn": chunk_max_lsn,
            "events_read": chunk_rows,
            "rows_deduped": rows_deduped,
            "stale_skipped": out.stale_skipped,
            "delta_rows": out.delta_rows,
            "hot_key": out.hot_key,
            "hot_key_share": round(hot_share, 6),
        }
        if advisory:
            metrics["salt_advisory"] = required_salt
            report.salt_advisories += 1
            report.advised_salt = max(report.advised_salt, required_salt)
            import warnings

            warnings.warn(
                f"hot-key advisory: conv {out.hot_key!r} carries ≥{hot_share:.1%} "
                f"of this chunk's events (observed lower bound); flattening "
                f"it needs salt_factor ≥ {required_salt}, lake has "
                f"{man.salt_factor}. Run rebucket(lake_dir, "
                f"{num_buckets}, new_salt_factor={required_salt}) to "
                "re-route in place (the per-chunk share is also recorded in "
                "manifest metrics).",
                stacklevel=2,
            )

        own_new = max(commit_wm, wm_global)
        man = man.commit(
            out.files,
            new_watermark_lsn=own_new,
            schema_names=list(target_schema.names),
            schema_ipc=schema_to_b64(target_schema),
            metrics=metrics,
            producer_progress=(
                (producer, own_new) if producer is not None else None
            ),
        )
        own_wm = {b: max(v, own_new) for b, v in own_wm.items()}
        report.chunks_applied += 1
        report.rows_deduped += rows_deduped
        report.stale_skipped += out.stale_skipped
        report.delta_rows_written += out.delta_rows

    if legacy_recovery and report.chunks_applied == 0:
        # persist the recovered schema even when every chunk was skipped —
        # otherwise each later run of this legacy lake repeats the footer
        # sweep forever
        man = man.commit(
            [],
            new_watermark_lsn=man.global_watermark(),
            schema_names=list(target_schema.names),
            schema_ipc=schema_to_b64(target_schema),
            metrics={"schema_recovery": True},
        )

    report.final_version = man.version
    return report


def follow(
    binlog: str,
    lake_dir: str,
    poll_interval_s: float = 2.0,
    idle_rounds: int = 3,
    max_rounds: int | None = None,
    matview_dir: str | None = None,
    tindex_dir: str | None = None,
    replica_dir: str | None = None,
    compact_min_files: int | None = None,
    expire_keep_last: int | None = None,
    rebucket_on_advice: bool = False,
    **replay_kwargs,
) -> ReplayReport:
    """Tail a growing binlog directory: repeatedly replay (committed chunks
    are skipped via the manifest watermark, so each round ingests only new
    shards), stopping after ``idle_rounds`` consecutive polls with nothing
    new. This is the continuous-ingest driver loop; exactly-once semantics
    come entirely from the chunked watermark commits, not from this loop.
    Producers must publish shards ATOMICALLY (write to a temp name, then
    rename into the directory) — a half-written parquet file that gets
    listed would fail the metadata read.

    ``matview_dir``: keep a materialized view (stages/matview.py)
    continuously fresh — after every round that ingested data, the view is
    incrementally refreshed (only buckets the round's commits touched
    recompute). The streaming downstream-consumer loop in one call.

    ``tindex_dir``: keep the inverted text index (stages/textindex.py)
    continuously fresh the same way — after every ingesting round the
    index refreshes incrementally (file-list fingerprints skip untouched
    buckets), so token search/BM25 rank follow the lake at O(change rate).

    ``replica_dir``: keep a downstream replica lake continuously synced —
    after every round that ingested data, ``sync_replica`` applies the
    change feed up to the new stable watermark (each sync is O(that
    round's data)). The replica trails the source by at most the disorder
    bound while following; run one ``sync_replica(cut="committed")`` after
    the producer quiesces to seal it.

    ``compact_min_files``: run a MINOR compaction (delta-only fold, base
    untouched — O(data since last compaction), sound by LWW associativity)
    after every round that ingested data, folding each bucket holding at
    least this many delta files. This is the steady-state maintenance
    cadence under continuous ingest: direct-mode replay writes one delta
    per (task, bucket) per chunk, so without folding, read fan-in grows
    linearly with rounds; with it, fan-in stays O(compact_min_files) per
    bucket while each fold touches only the new deltas.

    ``rebucket_on_advice``: close the skew loop — when a round's replay
    raises a hot-key advisory (the streaming monitor observed a key share
    the current salt_factor cannot flatten), run an in-place ``rebucket``
    at the advised salt before the round's consumer maintenance, so the
    matview / text index / replica adopt the new layout in the same round
    (their refreshes migrate layouts automatically). Implies resolving
    the salt from the manifest on later rounds (``hot_key_salt="auto"``
    is forced), since the lake's salt now changes under the loop.

    ``expire_keep_last``: after each ingesting round's maintenance, retire
    all but the newest N manifest versions and reclaim their exclusively-
    owned files (``Manifest.expire_versions``). Under continuous ingest
    every round commits 1+ versions, each a full file-list snapshot —
    without expiry the manifest directory grows O(rounds × files). Time
    travel keeps working for the retained window. Leave None to retain
    everything (short runs / audit-heavy lakes).
    """
    import time as _time
    import warnings

    # In follow mode a zero disorder bound on an out-of-order producer LOSES
    # events: each round commits the tail chunk at running-max LSN, so a
    # late-delivered shard with smaller LSNs is filtered as already-applied.
    # Resolve the effective bound the same way replay() will and warn loudly
    # when it is 0 and the producer published none (ADVICE r01).
    eff = replay_kwargs.get("disorder_bound")
    if eff is None:
        eff = producer_disorder_bound(binlog)
        if eff is None:
            warnings.warn(
                "follow(): no disorder_bound given and the binlog has no "
                "_meta.json producer bound — a 0 bound on an out-of-order "
                "producer silently drops late events; pass disorder_bound "
                "explicitly if the producer can reorder deliveries",
                stacklevel=2,
            )

    total = ReplayReport()
    idle = 0
    rounds = 0
    seen: tuple = ()
    if rebucket_on_advice:
        # the salt may change mid-loop; later replays must read it from
        # the manifest rather than insisting on a caller-fixed value
        replay_kwargs.setdefault("hot_key_salt", "auto")
    while idle < idle_rounds and (max_rounds is None or rounds < max_rounds):
        shards = tuple(
            sorted(f for f in os.listdir(binlog) if f.endswith(".parquet"))
        )
        # idleness = the DIRECTORY stopped growing, not chunks_applied == 0:
        # the final chunk's conservative tail watermark legitimately
        # re-applies on every pass (harmless LWW no-op), so it can never
        # signal quiescence.
        if shards == seen:
            idle += 1
        else:
            seen = shards
            idle = 0
            r = replay(binlog, lake_dir, **replay_kwargs)
            total.chunks_total += r.chunks_total
            total.chunks_skipped += r.chunks_skipped
            total.chunks_applied += r.chunks_applied
            total.events_read += r.events_read
            total.rows_deduped += r.rows_deduped
            total.stale_skipped += r.stale_skipped
            total.delta_rows_written += r.delta_rows_written
            total.final_version = r.final_version
            total.salt_advisories += r.salt_advisories
            total.advised_salt = max(total.advised_salt, r.advised_salt)
            if rebucket_on_advice and r.advised_salt:
                from .retention import rebucket as _rebucket

                m = Manifest.load(lake_dir)
                if r.advised_salt > m.salt_factor:
                    _rebucket(
                        lake_dir, m.num_buckets,
                        new_salt_factor=r.advised_salt,
                    )
            if compact_min_files is not None and r.chunks_applied:
                # compact BEFORE the matview refresh so the view's bucket
                # fingerprints record the folded file lists (otherwise the
                # fold would trigger a second, redundant refresh next round)
                compact(lake_dir, mode="minor", min_files=compact_min_files)
            if matview_dir is not None and r.chunks_applied:
                from ..stages.matview import refresh_matview

                refresh_matview(lake_dir, matview_dir)
            if tindex_dir is not None and r.chunks_applied:
                from ..stages.textindex import refresh_text_index

                refresh_text_index(lake_dir, tindex_dir)
            if replica_dir is not None and r.chunks_applied:
                sync_replica(lake_dir, replica_dir)
            if expire_keep_last is not None and r.chunks_applied:
                # last: every consumer above has read its state for this
                # round, so expiring pre-window versions cannot pull files
                # out from under them; age-gate the data sweep because a
                # SECOND producer may be staging deltas mid-commit
                from ..state.manifest import ORPHAN_DATA_MIN_AGE_SEC

                Manifest.load(lake_dir).expire_versions(
                    keep_last=expire_keep_last,
                    min_data_age_sec=ORPHAN_DATA_MIN_AGE_SEC,
                )
        rounds += 1
        if idle < idle_rounds and (max_rounds is None or rounds < max_rounds):
            _time.sleep(poll_interval_s)
    return total


def sync_replica(
    src_lake: str,
    dst_lake: str,
    num_buckets: int | None = None,
    hot_key_salt: int = 1,
    batch_size: int | None = None,
    cut: str = "stable",
) -> ReplayReport:
    """CDC fan-out: bring a downstream replica lake up to the source lake's
    watermark by applying the incremental change feed — the consuming half
    of ``stages.merge.read_change_feed``.

    One sync round: read the feed ``(dst watermark, cut]`` from a pinned
    source manifest snapshot (prunes to files committed since the last
    sync — O(change rate), not O(lake)), route rows through the SAME
    delta-write operator as ingest (``stages.merge.write_deltas``, with
    the in-batch LWW dedupe), and commit the replica manifest at the cut.
    Because feed rows are full event rows (op/lsn kept) and LWW is
    associative, the replica's resolved state equals the source's at every
    synced cut — regardless of how many syncs the history was split into.

    ``cut`` picks the sync horizon:
      - "stable" (default): the source's global watermark — the LSN at or
        below which no late event can still arrive (the final ingest chunk
        commits its watermark ``disorder_bound`` behind its max LSN). The
        ONLY sound incremental cut while the producer is live and may
        reorder: a replica synced past it could permanently miss a late
        source row landing inside its already-consumed window. The replica
        trails the source's full state by at most the disorder bound and
        equals ``read_final_table(src, as_of_lsn=watermark)`` exactly.
      - "committed": the max LSN across all committed source files — the
        replica equals the source's FULL current state. Sound only when
        the source is quiesced/sealed (or the producer is strictly
        LSN-ordered, where stable == committed anyway).

    The replica is an independent lake: it may use a DIFFERENT bucket count
    / hot-key salt than the source (re-partitioning fan-out). Defaults
    mirror the source's bucket count. Idempotent and resumable exactly like
    ``replay``: a no-change sync is a skipped no-op; a crash between
    staging and commit leaves unreferenced orphans only, and the rerun
    converges to the same committed state.

    Reference analog: the reference's downstreams re-export the entire
    collection every time (trials_extractor/storage/json_exporter.py);
    this is the incremental replacement at the consumer end.
    """
    from ..schema import (
        EVENT_SCHEMA,
        schema_from_b64,
        schema_to_b64,
        union_event_schema,
    )
    from ..stages.merge import read_change_feed

    src = Manifest.load(src_lake)
    if cut == "stable":
        until = src.global_watermark()
    elif cut == "committed":
        until = max(
            (
                int(f["max_lsn"])
                for b in range(src.num_buckets)
                for f in src.files_for_bucket(b)
            ),
            default=src.global_watermark(),
        )
    else:
        raise ValueError(f"cut must be 'stable' or 'committed', got {cut!r}")
    if num_buckets is None:
        num_buckets = src.num_buckets
    if Manifest.exists(dst_lake):
        dst = Manifest.load(dst_lake)
    else:
        dst = Manifest.load_or_create(
            dst_lake, num_buckets, salt_factor=hot_key_salt
        )
    since = dst.global_watermark()

    report = ReplayReport()
    report.chunks_total = 1
    if until <= since:
        report.chunks_skipped = 1
        report.final_version = dst.version
        return report

    # replica schema follows the source's committed (possibly evolved)
    # schema, unioned with the replica's own prior — additive only, same
    # refuse-to-narrow guarantee as ingest
    schemas = [EVENT_SCHEMA]
    if src.schema_ipc:
        schemas.append(schema_from_b64(src.schema_ipc))
    if dst.schema_ipc:
        schemas.append(schema_from_b64(dst.schema_ipc))
    target_schema = union_event_schema(schemas)

    feed = read_change_feed(
        src_lake, since_lsn=since, until_lsn=until, version=src.version
    )
    out = write_deltas(
        dst_lake, feed, num_buckets=dst.num_buckets,
        salt_factor=dst.salt_factor, target_schema=target_schema,
        watermarks=dst.watermarks(), dedupe=True, batch_size=batch_size,
    )
    dst = dst.commit(
        out.files,
        new_watermark_lsn=until,
        schema_names=list(target_schema.names),
        schema_ipc=schema_to_b64(target_schema),
        metrics={
            "replica_sync": True,
            "src_lake": os.path.abspath(src_lake),
            "src_version": src.version,
            "since_lsn": since,
            "until_lsn": until,
            "rows_deduped": out.rows_in,
            "stale_skipped": out.stale_skipped,
            "delta_rows": out.delta_rows,
        },
    )
    report.chunks_applied = 1
    report.events_read = out.rows_in
    report.rows_deduped = out.rows_in
    report.stale_skipped = out.stale_skipped
    report.delta_rows_written = out.delta_rows
    report.final_version = dst.version
    return report


def compact(
    lake_dir: str,
    tombstone_horizon_us: int | None = None,
    mode: str = "major",
    min_files: int = 2,
) -> int:
    """Compact the lake; one manifest commit swaps all touched buckets'
    file lists atomically (``lifecycle.fold_commit``: rebase-able against a
    concurrent ingest, age-gated orphan sweep). Returns buckets compacted.
    Buckets fold in a few cluster-sized tasks — compaction is
    partition-aligned (no shuffle).

    mode="major" (default): fold every bucket's base+deltas into one fully
    resolved base file each — cost O(lake). The maintenance pass that makes
    point/ts prunes tight and caps read fan-in.

    mode="minor": fold only each bucket's DELTA files (when at least
    ``min_files`` of them) into one consolidated delta, leaving the base
    untouched — cost O(data since the last compaction), NOT O(lake). The
    steady-state pass for a 100-TB lake under continuous ingest: direct-
    mode replay writes one delta per (task, bucket) per chunk, and minor
    compaction keeps per-bucket read fan-in bounded without ever rewriting
    the accumulated base. Tombstones are always retained (folding them away
    without rewriting the base would resurrect deleted keys — enforced in
    stages.merge.compact_bucket)."""
    from ..stages.lifecycle import fold_commit

    if mode not in ("major", "minor"):
        raise ValueError(f"mode must be 'major' or 'minor', got {mode!r}")
    if mode == "minor" and tombstone_horizon_us is not None:
        raise ValueError(
            "tombstone_horizon_us requires mode='major' (minor "
            "compaction never rewrites the base, so dropping "
            "tombstones would resurrect deleted keys)"
        )
    major = mode == "major"

    def fold(bucket: int, files: list):
        return compact_bucket(
            lake_dir, bucket, files, tombstone_horizon_us,
            out_kind="base" if major else "delta",
        )

    return fold_commit(
        Manifest.load(lake_dir),
        fold,
        {"compaction": True, "mode": mode},
        # major: each bucket's whole file list is one group
        min_files=1 if major else min_files,
        kinds=None if major else {"delta"},
        split_kinds=not major,
    )
