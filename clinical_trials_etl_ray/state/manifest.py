"""Manifest log: atomic two-phase commit + lineage for the lake table.

The lake is only ever mutated by (1) writing new immutable, content-hash-named
parquet files under ``data/bucket=NNNNN/`` and (2) atomically publishing a new
manifest version that references them. Readers resolve ``manifest/CURRENT`` →
``manifest/v{N}.json`` and read exactly the referenced files, so a crash
between file staging and commit leaves only unreferenced orphans (cleaned by
``cleanup_orphans``); a retried merge task rewrites the same content hash to
the same path (idempotent). This supplies the exactly-once and
resume-from-checkpoint semantics the reference lacks entirely (SURVEY §4:
"checkpoint/resume: none"); its only safety was keyed-upsert idempotence
(trials_extractor/storage/mongodb_storage.py:193-195).

Manifest JSON fields (FIXTURES.md §3): version, parent_version, num_buckets,
schema_version, committed watermark per bucket, per-file lineage
(path, content_hash, kind, row_count, lsn range) and run metrics.
"""

from __future__ import annotations

import copy
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

MANIFEST_DIR = "manifest"
DATA_DIR = "data"

# cleanup_orphans only removes manifest ".tmp." files older than this —
# younger temps may be a live concurrent writer's in-flight publish.
ORPHAN_TMP_MIN_AGE_SEC = 300.0

# Data-file orphan age gate for AUTOMATED maintenance passes that may race a
# concurrent ingest (compact / compact_lsh_index under follow()): a delta a
# concurrent replay's workers just staged is referenced by NO snapshot until
# its chunk commits, yet deleting it lets that commit rebase and SUCCEED
# publishing references to deleted files (round-5 ADVICE). Those callers pass
# this as ``min_data_age_sec``; explicit maintenance verbs (tests,
# ``expire_versions`` default) keep 0 — immediate collection — because their
# contract excludes concurrent writers.
ORPHAN_DATA_MIN_AGE_SEC = 300.0


#: parsed version documents kept by ``_read_doc`` (LRU); a serve-sized
#: document is ~1k flat file records
DOC_CACHE_ENTRIES = 4

_doc_cache: OrderedDict = OrderedDict()
_doc_cache_lock = threading.Lock()


def _doc_cache_put(lake_dir: str, version: int, st: os.stat_result, doc: dict) -> None:
    """Remember the parsed document of one version file. The key is the
    lake's real path and the version; the file's inode, mtime and size
    guard against a lake deleted and re-created at the same path."""
    key = (os.path.realpath(lake_dir), version)
    with _doc_cache_lock:
        _doc_cache[key] = ((st.st_ino, st.st_mtime_ns, st.st_size), doc)
        _doc_cache.move_to_end(key)
        while len(_doc_cache) > DOC_CACHE_ENTRIES:
            _doc_cache.popitem(last=False)


def _copy_doc(doc: dict) -> dict:
    """``doc`` with its own copy of every mutable part, so no two loads
    share a dict or list (file records hold flat JSON scalars, so a
    per-record ``dict`` copy is a full copy)."""
    return {
        **doc,
        "schema_names": list(doc.get("schema_names", [])),
        "buckets": {
            b: {**info, "files": [dict(f) for f in info["files"]]}
            for b, info in doc.get("buckets", {}).items()
        },
        "metrics": copy.deepcopy(doc.get("metrics", {})),
        "producers": dict(doc.get("producers", {})),
    }


def _read_doc(lake_dir: str, version: int) -> dict:
    """The parsed document of one version file, from the cache when the
    file on disk is the one that was parsed. Callers must not mutate it
    (``Manifest._from_doc`` copies)."""
    with open(os.path.join(lake_dir, MANIFEST_DIR, f"v{version:06d}.json")) as f:
        st = os.fstat(f.fileno())
        key = (os.path.realpath(lake_dir), version)
        with _doc_cache_lock:
            hit = _doc_cache.get(key)
            if hit is not None and hit[0] == (st.st_ino, st.st_mtime_ns, st.st_size):
                _doc_cache.move_to_end(key)
                return hit[1]
        doc = json.load(f)
    _doc_cache_put(lake_dir, version, st, doc)
    return doc


def bucket_dir(lake_dir: str, bucket: int) -> str:
    return os.path.join(lake_dir, DATA_DIR, f"bucket={bucket:05d}")


class ConcurrentWriterError(RuntimeError):
    """Another writer published this manifest version first. The losing
    writer must reload the current manifest and retry (or abort) — its
    staged data files are unreferenced and will be collected as orphans."""


def _exclusive_write(path: str, payload: str) -> None:
    """Create-exclusive AND atomic publish of an immutable version file:
    the payload is fully written+fsynced to a temp file first, then
    ``os.link``ed into place — link fails if the target exists (the
    optimistic-concurrency token) and the target can never be observed
    torn (readers see a complete file or none; a SIGKILL mid-publish
    leaves only the temp file). A racing writer loses with
    ConcurrentWriterError instead of silently overwriting lineage; a crash
    RETRY that re-publishes byte-identical content is accepted
    (idempotent)."""
    import uuid

    # uniqueness must hold ACROSS hosts/containers sharing the lake (two
    # containerized drivers can both be PID 1) — uuid4, not pid
    tmp = f"{path}.tmp.{uuid.uuid4().hex}"
    try:
        with open(tmp, "w") as f:
            f.write(payload)
            f.flush()
            os.fsync(f.fileno())
        try:
            os.link(tmp, path)
        except FileExistsError:
            with open(path) as f:
                if f.read() == payload:
                    return  # identical re-publish (crash retry) — fine
            raise ConcurrentWriterError(
                f"manifest version file {path!r} was published by another "
                "writer — reload the manifest and retry"
            ) from None
    finally:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass


def _atomic_write(path: str, payload: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(payload)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)  # atomic on POSIX


@dataclass
class Manifest:
    lake_dir: str
    version: int = 0
    parent_version: int | None = None
    num_buckets: int = 64
    salt_factor: int = 1  # hot-key salting granularity, fixed at creation
    schema_version: int = 1
    schema_names: list = field(default_factory=list)
    # full committed Arrow schema (IPC, base64) — the read path unifies every
    # bucket to THIS, so buckets untouched by an evolving run still emit the
    # evolved columns (null-filled) and exports keep one uniform schema
    schema_ipc: str | None = None
    # bucket_id(str in json) -> {"watermark_lsn": int, "files": [fileinfo...]}
    buckets: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    # producer ledger: producer_id -> highest LSN that producer has itself
    # durably delivered (advanced ONLY by that producer's own chunk commits,
    # monotone, survives rebases). The shared per-bucket watermark is a
    # TOTAL-ORDER claim ("every event ≤ W delivered") that only holds once
    # every producer completes its range; a producer recovering from a crash
    # must judge its own chunk-skip/stale filters against ITS ledger entry —
    # not the combined watermark, which a concurrent high-range producer may
    # have advanced past this producer's undelivered chunks (round-5
    # ADVICE: the re-run would otherwise silently skip everything).
    producers: dict = field(default_factory=dict)

    # ---------- construction ----------

    @classmethod
    def create(
        cls, lake_dir: str, num_buckets: int, salt_factor: int = 1
    ) -> "Manifest":
        os.makedirs(os.path.join(lake_dir, MANIFEST_DIR), exist_ok=True)
        os.makedirs(os.path.join(lake_dir, DATA_DIR), exist_ok=True)
        m = cls(
            lake_dir=lake_dir,
            version=0,
            num_buckets=num_buckets,
            salt_factor=salt_factor,
        )
        m._publish()
        return m

    @staticmethod
    def _versions_on_disk(lake_dir: str) -> list:
        mdir = os.path.join(lake_dir, MANIFEST_DIR)
        if not os.path.isdir(mdir):
            return []
        out = []
        for name in os.listdir(mdir):
            if name.startswith("v") and name.endswith(".json"):
                try:
                    out.append(int(name[1:-5]))
                except ValueError:
                    continue
        return sorted(out)

    @classmethod
    def exists(cls, lake_dir: str) -> bool:
        """True when ``lake_dir`` holds a committed lake (layout knowledge
        stays in this module)."""
        return bool(cls._versions_on_disk(lake_dir))

    @classmethod
    def load(cls, lake_dir: str) -> "Manifest":
        """The newest committed snapshot. The NEWEST version file is
        authoritative (its exclusive create IS the commit); CURRENT is a
        convenience cache that may lag by one after a crash between the two
        writes. The directory is listed on every call, so a commit from any
        process is seen at once; the parsed document of that immutable
        version is reused from a process-local cache (``_read_doc``)."""
        versions = cls._versions_on_disk(lake_dir)
        if not versions:
            raise FileNotFoundError(
                f"no manifest versions under {lake_dir!r}"
            )
        return cls._from_doc(lake_dir, _read_doc(lake_dir, versions[-1]))

    @classmethod
    def load_version(cls, lake_dir: str, version: int) -> "Manifest":
        """Load a specific (older) manifest snapshot — time travel by
        version. Exact as long as the snapshot's files have not been removed
        by a later ``cleanup_orphans``/compaction cleanup."""
        return cls._from_doc(lake_dir, _read_doc(lake_dir, version))

    @classmethod
    def _from_doc(cls, lake_dir: str, doc: dict) -> "Manifest":
        """A Manifest over its own copy of a version document."""
        doc = _copy_doc(doc)
        return cls(
            lake_dir=lake_dir,
            version=doc["version"],
            parent_version=doc.get("parent_version"),
            num_buckets=doc["num_buckets"],
            salt_factor=doc.get("salt_factor", 1),
            schema_version=doc.get("schema_version", 1),
            schema_names=doc["schema_names"],
            schema_ipc=doc.get("schema_ipc"),
            buckets=doc["buckets"],
            metrics=doc["metrics"],
            producers=doc["producers"],
        )

    @classmethod
    def load_or_create(
        cls, lake_dir: str, num_buckets: int, salt_factor: int = 1
    ) -> "Manifest":
        if cls.exists(lake_dir):
            m = cls.load(lake_dir)
            if m.num_buckets != num_buckets:
                raise ValueError(
                    f"lake has num_buckets={m.num_buckets}, requested {num_buckets}"
                )
            if m.salt_factor != salt_factor:
                raise ValueError(
                    f"lake has salt_factor={m.salt_factor}, requested "
                    f"{salt_factor} — salting is fixed at lake creation"
                )
            return m
        return cls.create(lake_dir, num_buckets, salt_factor)

    # ---------- queries ----------

    def watermark(self, bucket: int) -> int:
        info = self.buckets.get(str(bucket))
        return info["watermark_lsn"] if info else -1

    def global_watermark(self) -> int:
        """LSN below-or-at which ALL buckets are durably applied."""
        if not self.buckets and self.version == 0:
            return -1
        if len(self.buckets) < self.num_buckets:
            # buckets never touched have implicit watermark from commits that
            # advanced all buckets; we store all buckets on commit, so absence
            # means no commit yet.
            return min(
                [self.watermark(b) for b in range(self.num_buckets)], default=-1
            )
        return min(info["watermark_lsn"] for info in self.buckets.values())

    def files_for_bucket(self, bucket: int) -> list:
        info = self.buckets.get(str(bucket))
        return list(info["files"]) if info else []

    def all_files(self) -> set:
        out = set()
        for info in self.buckets.values():
            for f in info["files"]:
                out.add(f["path"])
        return out

    def watermarks(self) -> dict:
        """{bucket:int -> watermark_lsn} for broadcast into merge tasks."""
        return {b: self.watermark(b) for b in range(self.num_buckets)}

    def producer_watermark(self, producer_id: str) -> int:
        """The highest LSN ``producer_id`` has itself durably delivered
        (−1 if it never committed). A crashed producer's re-run seeds its
        chunk-skip and stale filters from THIS — never from the combined
        bucket watermark, which another producer may have advanced past
        this producer's undelivered chunks."""
        return int(self.producers.get(str(producer_id), -1))

    # ---------- mutation (driver-side, single-threaded) ----------

    def commit(
        self,
        new_files: list,
        new_watermark_lsn: int,
        schema_names: list | None = None,
        schema_ipc: str | None = None,
        replace_buckets: dict | None = None,
        metrics: dict | None = None,
        consumed_paths: set | None = None,
        max_retries: int = 3,
        producer_progress: tuple | None = None,
    ) -> "Manifest":
        """Publish version+1 referencing prior files + ``new_files``.

        Concurrency: the version file's create-exclusive publish is the
        commit point. A commit that loses the race RETRIES WITH REBASE
        (round-4, VERDICT item 5): the current manifest is reloaded and the
        commit re-derived on top of it, so two producers appending
        non-conflicting work (e.g. disjoint LSN ranges, or maintenance
        alongside ingest) both land without error. Rebase is REFUSED —
        re-raising ConcurrentWriterError — when it cannot be proven safe:
        (a) the bucket layout changed underneath (a concurrent ``rebucket``
        re-routed keys: this writer's staged per-bucket files are routed for
        the OLD layout); (b) ``replace_buckets`` without ``consumed_paths``
        (a wholesale swap computed from a stale file list would silently
        drop files committed since).

        Rebase safety for the allowed cases: appended ``new_files`` are
        immutable content-hash-named winner deltas, and LWW resolution is
        associative — appending them onto ANY newer manifest yields the
        same resolved state as the serialized order. Watermarks stay
        monotone by construction (per-bucket max of current and
        ``new_watermark_lsn``); NOTE that the watermark is a total-order
        claim ("every event ≤ W delivered"), so producers feeding disjoint
        LSN ranges must all run to completion — a crashed low-range
        producer must be re-run with its own range before the combined
        watermark is trusted (same contract as a single out-of-order
        producer's disorder bound). The committed schema is rebased as the
        additive UNION of both writers' schemas, preserving the
        refuse-to-narrow guarantee.

        new_files: [{bucket, path, kind, content_hash, row_count, min_lsn,
        max_lsn}]. ``new_watermark_lsn`` advances EVERY bucket (chunk commits
        cover a total LSN range, so untouched buckets are durably
        up-to-date for that range too). ``replace_buckets``
        {bucket: [fileinfo...]} swaps a bucket's full file list (compaction /
        purge); pass ``consumed_paths`` (the input file paths the rewrite
        folded away) to make such commits rebase-able: the merged list is
        then (current files − consumed) + replacement outputs, which keeps
        deltas a concurrent ingest landed in between."""
        base = self
        attempt = 0
        while True:
            try:
                return base._commit_once(
                    new_files,
                    new_watermark_lsn,
                    schema_names,
                    schema_ipc,
                    replace_buckets,
                    metrics,
                    consumed_paths,
                    producer_progress,
                )
            except ConcurrentWriterError:
                if attempt >= max_retries:
                    raise
                attempt += 1
                cur = Manifest.load(self.lake_dir)
                if (
                    cur.num_buckets != self.num_buckets
                    or cur.salt_factor != self.salt_factor
                ):
                    raise  # layout changed underneath (rebucket) — unroutable
                if replace_buckets and consumed_paths is None:
                    raise  # wholesale swap from a stale list — unsafe
                base = cur

    def _commit_once(
        self,
        new_files: list,
        new_watermark_lsn: int,
        schema_names: list | None,
        schema_ipc: str | None,
        replace_buckets: dict | None,
        metrics: dict | None,
        consumed_paths: set | None,
        producer_progress: tuple | None = None,
    ) -> "Manifest":
        buckets = {str(b): {"watermark_lsn": self.watermark(b), "files": self.files_for_bucket(b)}
                   for b in range(self.num_buckets)}
        if replace_buckets:
            for b, files in replace_buckets.items():
                if consumed_paths is None:
                    buckets[str(b)]["files"] = files
                else:
                    # rebase-able replace: (current − consumed) + outputs.
                    # On a first attempt this reduces exactly to ``files``.
                    # An output may land on a path it consumed (content-hash
                    # names: re-compacting a compacted bucket rewrites the
                    # same rows), so it is re-added, not dropped with it.
                    merged = [
                        f
                        for f in buckets[str(b)]["files"]
                        if f["path"] not in consumed_paths
                    ]
                    merged_paths = {f["path"] for f in merged}
                    merged += [f for f in files if f["path"] not in merged_paths]
                    buckets[str(b)]["files"] = merged
        for f in new_files:
            b = str(f["bucket"])
            info = {k: v for k, v in f.items() if k != "bucket"}
            if all(existing["path"] != info["path"] for existing in buckets[b]["files"]):
                buckets[b]["files"].append(info)
        for b in buckets.values():
            b["watermark_lsn"] = max(b["watermark_lsn"], new_watermark_lsn)

        # additive schema rebase: never narrow the committed schema, union
        # with it instead (a concurrent writer may have evolved columns we
        # did not see)
        eff_names, eff_ipc = schema_names, schema_ipc
        if schema_ipc and self.schema_ipc and schema_ipc != self.schema_ipc:
            from ..schema import (
                schema_from_b64,
                schema_to_b64,
                union_event_schema,
            )

            u = union_event_schema(
                [schema_from_b64(self.schema_ipc), schema_from_b64(schema_ipc)]
            )
            eff_names, eff_ipc = list(u.names), schema_to_b64(u)

        # producer ledger: monotone per-producer merge — on a rebase the
        # base manifest already carries the OTHER producer's entry, so both
        # survive regardless of commit interleaving
        producers = dict(self.producers)
        if producer_progress is not None:
            pid, lsn = producer_progress
            producers[str(pid)] = max(int(lsn), int(producers.get(str(pid), -1)))

        nxt = Manifest(
            lake_dir=self.lake_dir,
            version=self.version + 1,
            parent_version=self.version,
            num_buckets=self.num_buckets,
            salt_factor=self.salt_factor,
            schema_version=self.schema_version
            + (1 if eff_names and eff_names != self.schema_names else 0),
            schema_names=eff_names or self.schema_names,
            schema_ipc=eff_ipc or self.schema_ipc,
            buckets=buckets,
            metrics=metrics or {},
            producers=producers,
        )
        nxt._publish()
        return nxt

    def commit_layout(
        self,
        new_num_buckets: int,
        new_salt_factor: int,
        bucket_files: dict,
        new_watermark_lsn: int,
        metrics: dict | None = None,
    ) -> "Manifest":
        """Publish version+1 with a NEW bucket layout (the ``rebucket``
        lifecycle verb): every bucket's file list is replaced wholesale by
        ``bucket_files`` ({bucket:int -> [fileinfo...]}) and the bucket
        count / hot-key salt change atomically with it. The committed
        schema and lineage chain carry over; each new bucket's watermark is
        set uniformly to ``new_watermark_lsn`` (the old global watermark —
        a rebucket re-routes committed rows, it delivers nothing new).
        Older versions keep the old layout for time travel
        (``load_version`` reads ``num_buckets`` per snapshot)."""
        buckets = {
            str(b): {
                "watermark_lsn": new_watermark_lsn,
                "files": list(bucket_files.get(b, [])),
            }
            for b in range(new_num_buckets)
        }
        nxt = Manifest(
            lake_dir=self.lake_dir,
            version=self.version + 1,
            parent_version=self.version,
            num_buckets=new_num_buckets,
            salt_factor=new_salt_factor,
            schema_version=self.schema_version,
            schema_names=self.schema_names,
            schema_ipc=self.schema_ipc,
            buckets=buckets,
            metrics=metrics or {},
            producers=dict(self.producers),
        )
        nxt._publish()
        return nxt

    def _publish(self) -> None:
        mdir = os.path.join(self.lake_dir, MANIFEST_DIR)
        os.makedirs(mdir, exist_ok=True)
        doc = {
            "version": self.version,
            "parent_version": self.parent_version,
            "num_buckets": self.num_buckets,
            "salt_factor": self.salt_factor,
            "schema_version": self.schema_version,
            "schema_names": self.schema_names,
            "schema_ipc": self.schema_ipc,
            "buckets": self.buckets,
            "metrics": self.metrics,
            "producers": self.producers,
        }
        path = os.path.join(mdir, f"v{self.version:06d}.json")
        _exclusive_write(path, json.dumps(doc, indent=1))
        # the version file is linked: seed the cache with its document (a
        # copy; metrics round-trip so they read back exactly as parsed)
        doc["metrics"] = json.loads(json.dumps(self.metrics))
        _doc_cache_put(self.lake_dir, self.version, os.stat(path), _copy_doc(doc))
        _atomic_write(os.path.join(mdir, "CURRENT"), str(self.version))

    # ---------- maintenance ----------

    def _retained_versions(self) -> list:
        """Version numbers of every manifest snapshot still on disk."""
        return self._versions_on_disk(self.lake_dir)

    def cleanup_orphans(
        self, all_versions: bool = True, min_data_age_sec: float = 0.0
    ) -> list:
        """Delete staged data files referenced by NO manifest snapshot.

        ``all_versions=True`` (default) keeps any file referenced by ANY
        manifest JSON still on disk, so ``load_version`` time travel keeps
        working after compaction; a crash's half-staged files (referenced by
        nothing) are still collected. Retire old snapshots (and THEN their
        now-unreferenced files) explicitly via ``expire_versions``.
        ``all_versions=False`` is the aggressive mode: only the current
        version's files survive — time travel to older versions breaks.

        ``min_data_age_sec``: skip unreferenced DATA files younger than
        this. A maintenance pass that can run concurrently with ingest
        (compact under follow()) MUST pass ``ORPHAN_DATA_MIN_AGE_SEC``
        here: a concurrent replay's freshly staged deltas are referenced by
        no snapshot until their chunk commits, and collecting them would
        let that commit rebase and succeed while pointing at deleted files.
        0 (default) collects immediately — sound only when the caller's
        contract excludes concurrent writers (crash recovery, retention)."""
        import time

        now = time.time()
        referenced = set(self.all_files())
        if all_versions:
            for v in self._retained_versions():
                if v == self.version:
                    continue
                try:
                    referenced |= Manifest.load_version(self.lake_dir, v).all_files()
                except (OSError, ValueError):
                    continue
        removed = []
        data_root = os.path.join(self.lake_dir, DATA_DIR)
        for dirpath, _dirs, files in os.walk(data_root):
            for name in files:
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, self.lake_dir)
                if rel not in referenced:
                    if min_data_age_sec > 0:
                        try:
                            if now - os.path.getmtime(full) < min_data_age_sec:
                                continue  # possibly a live writer's staging
                        except FileNotFoundError:
                            continue
                    try:
                        os.remove(full)
                    except FileNotFoundError:
                        continue  # a racing cleanup got it first
                    removed.append(rel)
        # crashed publishes can strand manifest temp files; sweep them too.
        # Age-gate the sweep: a concurrent writer's _exclusive_write temp is
        # seconds old, and deleting it out from under the writer turns the
        # designed ConcurrentWriterError into a FileNotFoundError. Only temps
        # older than ORPHAN_TMP_MIN_AGE_SEC (crash leftovers) are collected.
        mdir = os.path.join(self.lake_dir, MANIFEST_DIR)
        for name in os.listdir(mdir):
            if ".tmp." in name:
                full = os.path.join(mdir, name)
                try:
                    if now - os.path.getmtime(full) < ORPHAN_TMP_MIN_AGE_SEC:
                        continue
                    os.remove(full)
                    removed.append(os.path.join(MANIFEST_DIR, name))
                except FileNotFoundError:
                    pass
        return removed

    def summary(self) -> dict:
        """Operational snapshot of the committed lake state — versions on
        disk, per-kind file/row tallies, watermark span, schema version —
        assembled from manifest metadata only (no data file is opened).
        Reference analog: get_statistics
        (trials_extractor/storage/mongodb_storage.py:324-379), which issues
        live aggregation queries; here lineage is already on the driver."""
        files = [f for info in self.buckets.values() for f in info["files"]]
        by_kind: dict = {}
        for f in files:
            k = by_kind.setdefault(
                f.get("kind", "?"), {"files": 0, "rows": 0}
            )
            k["files"] += 1
            k["rows"] += int(f.get("row_count") or 0)
        wms = [self.watermark(b) for b in range(self.num_buckets)]
        # skew observability: every retained commit whose hot-key monitor
        # raised a salt advisory (pipelines/replay.py), newest last —
        # `stats` surfaces whether the lake needs (or already got) a
        # rebucket without opening any data file
        advisories = []
        for v in self._retained_versions()[-50:]:
            try:
                m = (
                    self.metrics
                    if v == self.version
                    else Manifest.load_version(self.lake_dir, v).metrics
                )
            except (OSError, ValueError):
                continue
            if m.get("salt_advisory"):
                advisories.append(
                    {
                        "version": v,
                        "hot_key": m.get("hot_key"),
                        "hot_key_share": m.get("hot_key_share"),
                        "advised_salt": m.get("salt_advisory"),
                    }
                )
        return {
            "version": self.version,
            "versions_retained": self._retained_versions(),
            "num_buckets": self.num_buckets,
            "salt_factor": self.salt_factor,
            "schema_version": self.schema_version,
            "schema_names": self.schema_names,
            "buckets_nonempty": sum(
                1 for info in self.buckets.values() if info["files"]
            ),
            "files_by_kind": by_kind,
            "total_files": len(files),
            "total_rows": sum(
                int(f.get("row_count") or 0) for f in files
            ),
            "watermark_min": min(wms, default=-1),
            "watermark_max": max(wms, default=-1),
            "hot_key_advisories": advisories,
            "producers": dict(self.producers),
            "last_commit_metrics": self.metrics,
        }

    def expire_versions(
        self, keep_last: int = 2, min_data_age_sec: float = 0.0
    ) -> list:
        """Delete manifest snapshots older than the newest ``keep_last``,
        then collect data files no surviving snapshot references. This is
        the explicit retention knob: time travel works for every retained
        version, and storage is reclaimed only when a version is expired
        together with its exclusively-owned files. Pass
        ``min_data_age_sec=ORPHAN_DATA_MIN_AGE_SEC`` when calling from a
        loop that may race a concurrent producer (see ``cleanup_orphans``);
        the default 0 is the quiesced-lake retention contract."""
        versions = self._retained_versions()
        cut = versions[:-keep_last] if keep_last > 0 else versions
        expired = [v for v in cut if v != self.version]
        mdir = os.path.join(self.lake_dir, MANIFEST_DIR)
        for v in expired:
            os.remove(os.path.join(mdir, f"v{v:06d}.json"))
        self.cleanup_orphans(
            all_versions=True, min_data_age_sec=min_data_age_sec
        )
        return expired
