"""Run hygiene for the benchmark: one per-run scratch root, a Ray session
sized to the host, process reaping, peak-RSS probes and provenance.

Nothing here runs at import time; Ray worker processes import this module
to run ``warm_batch``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "clinical_trials_etl_ray"

#: Linux AF_UNIX path limit; Ray puts its sockets under
#: ``<temp_dir>/session_<date>_<pid>/sockets/`` (~64 characters).
_SOCKET_PATH_MAX = 107
_RAY_SOCKET_SUFFIX = 72
_OBJECT_STORE_BYTES = 384 * 1024 * 1024


def host_cpus() -> int:
    """What ``nproc`` prints: the CPUs this process may use, capped by
    ``OMP_NUM_THREADS`` where the host sets it."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             timeout=10, check=True)
        return int(out.stdout)
    except (OSError, subprocess.SubprocessError, ValueError):
        return len(os.sched_getaffinity(0))


def dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except FileNotFoundError:
                pass
    return total


def reset_peak_rss() -> None:
    """Reset this process's VmHWM to its current RSS (Linux clear_refs)."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass  # peak then covers the whole process lifetime


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    if state == "Z":
        try:
            os.waitpid(pid, os.WNOHANG)  # reap our own zombie children
        except ChildProcessError:
            pass
        return False
    return True


def _wait_gone(pids: list[int], timeout_s: float) -> list[int]:
    deadline = time.monotonic() + timeout_s
    left = [p for p in pids if _alive(p)]
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = [p for p in left if _alive(p)]
    return left


def warm_batch(batch):
    """Ray Data UDF for worker warm-up: imports the engine in the worker."""
    import clinical_trials_etl_ray.pipelines.replay  # noqa: F401
    import clinical_trials_etl_ray.stages.merge  # noqa: F401

    return batch


class Session:
    """Owns the per-run scratch root and the Ray session.

    The scratch root is deleted on entry and on exit; every binlog, lake
    and shadow directory of the run lives under it. Ray's own temp dir
    lives there too when the socket paths fit the AF_UNIX limit, and in a
    short system temp dir otherwise (removed on exit as well)."""

    def __init__(self, scratch: str):
        self.scratch = scratch
        self.ray_tmp: str | None = None
        self._own_ray_tmp = False
        self.num_cpus = host_cpus()
        self.ray_start_s = 0.0
        self._affinity = os.sched_getaffinity(0)

    def __enter__(self) -> "Session":
        shutil.rmtree(self.scratch, ignore_errors=True)
        os.makedirs(self.scratch)
        return self

    def path(self, *parts: str) -> str:
        return os.path.join(self.scratch, *parts)

    def wipe(self, *parts: str) -> None:
        shutil.rmtree(self.path(*parts), ignore_errors=True)

    def start_ray(self) -> float:
        """Start a local Ray with one CPU slot per host CPU, warm a worker
        with the engine imported, and return the seconds that took. The
        measured phase that follows runs pinned to that many CPUs."""
        t0 = time.perf_counter()
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in [str(ROOT), os.environ.get("PYTHONPATH", "")] if p
        )
        os.environ.setdefault("RAY_BACKEND_LOG_LEVEL", "FATAL")
        import ray

        local = self.path("ray")
        if len(local) + _RAY_SOCKET_SUFFIX <= _SOCKET_PATH_MAX:
            self.ray_tmp = local
        else:
            self.ray_tmp = tempfile.mkdtemp(prefix="pb-ray-")
            self._own_ray_tmp = True
        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            object_store_memory=_OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            _temp_dir=self.ray_tmp,
        )
        import logging

        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        ray.data.from_items([{"x": i} for i in range(8)]).map_batches(
            warm_batch, batch_format="pyarrow"
        ).take_all()
        self.ray_start_s = time.perf_counter() - t0
        self._pin()
        return self.ray_start_s

    def _pin(self) -> None:
        """Confine every thread of the driver, Ray's daemons and its workers
        to ``num_cpus`` CPUs, so thread pools inside tasks cannot spill onto
        CPUs Ray was not given; timings then swing less with load from
        outside the run. Processes Ray starts later inherit the mask."""
        cpus = set(sorted(self._affinity)[-self.num_cpus:])
        for pid in [os.getpid()] + _descendants(os.getpid()):
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for tid in tids:
                try:
                    os.sched_setaffinity(int(tid), cpus)
                except OSError:
                    pass  # the thread ended meanwhile

    def stop_ray(self) -> None:
        import ray

        if not ray.is_initialized():
            return
        procs = _descendants(os.getpid())
        ray.shutdown()
        left = _wait_gone(procs, 15.0)
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        left = _wait_gone(left, 10.0)
        if left:
            print(f"perfbench: processes still alive: {left}", file=sys.stderr)
        for tid in os.listdir("/proc/self/task"):
            try:
                os.sched_setaffinity(int(tid), self._affinity)
            except OSError:
                pass

    def __exit__(self, *exc) -> None:
        try:
            self.stop_ray()
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)
            if self._own_ray_tmp and self.ray_tmp:
                shutil.rmtree(self.ray_tmp, ignore_errors=True)


def source_sha() -> str:
    """sha1 over the engine's Python sources (the checkout may not be a git
    repository, so this identifies the code under test either way)."""
    h = hashlib.sha1()
    for p in sorted(PACKAGE_DIR.rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(session: Session, workload: str, seed: int, seconds: int,
               trace: bool, inputs: dict) -> dict:
    import pyarrow
    import ray

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": host_cpus(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ray_num_cpus": session.num_cpus,
        "git_sha": git_sha(),
        "source_sha": source_sha(),
        "ray_version": ray.__version__,
        "pyarrow_version": pyarrow.__version__,
        "python": sys.version.split()[0],
        "inputs": inputs,
    }
