"""Ray session, deadlines, process accounting and spans for the benchmark."""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from contextlib import contextmanager

from layerbench.inputs import root_dir, work_dir

# AF_UNIX socket paths are limited to 107 bytes; Ray puts its plasma socket
# at <temp>/session_<%Y-%m-%d_%H-%M-%S_%f>_<pid>/sockets/plasma_store
_MAX_SOCKET_PATH = 107
_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_/sockets/plasma_store")


# Ray gets one logical CPU: the share ``nproc`` reports on the 4-vCPU VM the
# benchmark was built on. At 4 CPUs and more the extraction pipeline runs an
# actor pool whose back-to-back jobs stall erratically (README, "Faults the
# workloads avoid"), which no bound could absorb.
NUM_CPUS = 1

# Ray's settings are pinned, so that a run turns neither on the caller's
# environment nor on the host: the memory monitor would kill a worker when
# other tenants fill the host's memory, and a default object store is sized
# from host memory and refuses to start when /dev/shm is smaller. The
# benchmark's inputs are a few MB, so a small store holds every job.
RAY_ENV = {
    "RAY_memory_monitor_refresh_ms": "0",
    "RAY_OBJECT_STORE_ALLOW_SLOW_STORAGE": "1",
    "RAY_USAGE_STATS_ENABLED": "0",
}
OBJECT_STORE_BYTES = 512 * 1024 * 1024
# set on import, before anything imports ray
os.environ.update(RAY_ENV)


def _ray_temp_dir() -> str | None:
    """``.layerbench/ray`` in the checkout when Ray's socket paths fit under
    it, else None (Ray's default temporary directory)."""
    temp = os.path.join(work_dir(), "ray")
    if len(temp) + _SOCKET_SUFFIX + len(str(os.getpid())) <= _MAX_SOCKET_PATH:
        return temp
    print(
        f"layerbench: {temp} is too long for Ray's sockets; Ray keeps its "
        "session files in its default temporary directory",
        file=sys.stderr,
    )
    return None


def ray_init() -> None:
    import logging

    import ray

    # workers import rika_ray and layerbench from the checkout
    path = os.environ.get("PYTHONPATH")
    if root_dir() not in (path or "").split(os.pathsep):
        os.environ["PYTHONPATH"] = root_dir() + (os.pathsep + path if path else "")
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        _temp_dir=_ray_temp_dir(),
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def ray_shutdown() -> None:
    import ray

    if ray.is_initialized():
        ray.shutdown()


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` (Ray's GCS, raylet and workers)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if state != "Z":  # a zombie has already ended
            children.setdefault(int(ppid), []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of one process, in MB; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_peak_rss_mb() -> float:
    """Largest VmHWM among this process and everything it started."""
    me = os.getpid()
    return max(peak_rss_mb(p) for p in [me, *descendants(me)])


def kill_tree() -> None:
    for pid in descendants(os.getpid()):
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def stop_all(grace_s: float = 10.0) -> None:
    """Shut Ray down and wait until every process this run started has
    ended; kill what is still there after ``grace_s``."""
    ray_shutdown()
    t_end = time.monotonic() + grace_s
    while descendants(os.getpid()) and time.monotonic() < t_end:
        time.sleep(0.1)
    kill_tree()
    try:  # reap ended children
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


@contextmanager
def deadline(name: str, seconds: float):
    """Fail the run if the block has not finished after ``seconds``.

    A hung operation (such as an actor pool that can never be scheduled)
    blocks the main thread, so the timer thread reports it, shuts Ray down,
    kills anything left and exits with status 3 without printing a result.
    """

    def expire() -> None:
        print(
            f"layerbench: operation failed: {name} did not finish within "
            f"{seconds:.0f} s; shutting Ray down",
            file=sys.stderr,
            flush=True,
        )
        stopper = threading.Thread(target=ray_shutdown, daemon=True)
        stopper.start()
        stopper.join(15)
        kill_tree()
        os._exit(3)

    timer = threading.Timer(seconds, expire)
    timer.daemon = True
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory: name, start, end, parent (and the request they
    belong to). Written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": sid,
            "name": name,
            "parent": parent,
            "request": sid if parent is None else self.spans[parent]["request"],
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, name: str) -> float:
        """Duration of the spans called ``name`` minus what their children
        cover."""
        ids = {s["id"] for s in self.spans if s["name"] == name}
        child = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] in ids
        )
        return self.total(name) - child

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.spans, f)


def span_cost_s(n: int = 20_000) -> float:
    """Measured cost of recording one span."""
    tracer = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - t0) / n


class NoTracer:
    """Stands in for ``Tracer`` in untraced runs."""

    @contextmanager
    def span(self, name: str, **attrs):
        yield None
