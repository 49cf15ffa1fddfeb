"""Ray session lifecycle, CPU and memory accounting, and process cleanup.

The session gets ``LOGICAL_CPUS`` logical CPUs whatever the host has: below 4
the shipped extraction defaults never schedule (see NOTES.md, "Known
defects"), so ``preflight`` refuses to start such a session. CPU time and
memory (PSS) are summed over this process and its descendants, read from
``/proc``.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager

from perfbench.inputs import ROOT

LOGICAL_CPUS = 4
MIN_CPUS = 4
OBJECT_STORE_BYTES = 512 * 1024 * 1024
# Ray's session directory; inside the checkout when the path leaves room for
# Ray's unix socket names (107 bytes), else Ray's default
TEMP_DIR = os.path.join(ROOT, ".perfbench_ray")
_SOCKET_ROOM = 40
_sessions: list[str] = []  # directories of the sessions this process started


def host_cpus() -> dict:
    """The host's CPU counts: the affinity mask, and what ``nproc`` prints
    (which honours ``OMP_NUM_THREADS``)."""
    affinity = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    nproc = min(affinity, int(omp)) if omp.isdigit() and int(omp) else affinity
    return {"nproc": nproc, "affinity_cpus": affinity}


def preflight() -> None:
    if LOGICAL_CPUS < MIN_CPUS:
        raise SystemExit(
            f"perfbench: refusing a Ray session with {LOGICAL_CPUS} logical "
            f"CPUs. Below {MIN_CPUS}, extract_dataset's default actor pool "
            "(one actor per logical CPU at 0.75 CPU each) leaves no CPU for "
            "the ReadParquet task and the plan makes no progress.")


def start() -> float:
    """Start the local session; returns the seconds ``ray.init`` took."""
    import ray

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    kw = {}
    if len(TEMP_DIR) <= _SOCKET_ROOM:
        kw["_temp_dir"] = TEMP_DIR
    t0 = time.perf_counter()
    info = ray.init(address="local", num_cpus=LOGICAL_CPUS,
                    include_dashboard=False, logging_level="ERROR",
                    log_to_driver=False,
                    object_store_memory=OBJECT_STORE_BYTES, **kw)
    took = time.perf_counter() - t0
    _sessions.append(info.address_info["session_dir"])
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    return took


def stop(timeout_s: float = 20.0) -> None:
    """Shut the session down, kill and reap whatever it left behind, and
    delete its directory if it is inside the checkout."""
    import shutil

    import ray

    t = threading.Thread(target=ray.shutdown, daemon=True)
    t.start()
    t.join(timeout_s)
    kill_descendants()
    while _sessions:
        d = _sessions.pop()
        if d.startswith(TEMP_DIR + os.sep):
            shutil.rmtree(d, ignore_errors=True)


def settle(timeout_s: float = 10.0) -> None:
    """Between repetitions: drop collected references and wait until the
    previous execution's actors have released their CPUs."""
    import gc

    import ray

    gc.collect()
    deadline = time.monotonic() + timeout_s
    while (ray.available_resources().get("CPU", 0) < LOGICAL_CPUS
           and time.monotonic() < deadline):
        time.sleep(0.1)


# --------------------------------------------------------------------------
# /proc helpers
# --------------------------------------------------------------------------

_PAGE = os.sysconf("SC_PAGE_SIZE")
_TICK = os.sysconf("SC_CLK_TCK")


def _proc_table() -> dict[int, tuple[int, int]]:
    """pid → (parent pid, CPU ticks the process itself has used) for every
    visible process."""
    out = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may contain spaces: parse after its closing ')'
        f = stat[stat.rfind(b")") + 2:].split()
        # utime and stime are fields 14 and 15 of the stat line
        out[int(entry)] = (int(f[1]), int(f[11]) + int(f[12]))
    return out


def descendants(root: int | None = None,
                table: dict | None = None) -> list[int]:
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in (table or _proc_table()).items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


# Host-speed calibration. On a shared guest the CPU seconds a fixed piece of
# work costs drift with the neighbours' load, by 30% between sets of runs half
# an hour apart. The sampler times a fixed pure-Python loop every interval,
# while the workload runs; the CPU metrics are divided by the run's mean
# sample over CAL_REF_S, about that mean on the reference guest (4-vCPU KVM,
# Intel Xeon) at rest, so they read as seconds at the reference speed.
CAL_LOOPS = 20_000
CAL_REF_S = 0.006


def calibration_sample() -> float:
    """Thread CPU seconds of one fixed loop of int → str and dict work."""
    t0 = time.thread_time()
    d: dict[int, int] = {}
    for i in range(CAL_LOOPS):
        k = i & 1023
        d[k] = d.get(k, 0) + len(str(i))
    return time.thread_time() - t0


class TreeSampler:
    """Watches this process and all its descendants (the Ray core processes
    and workers) from a background thread, every ``interval_s``: the CPU
    ticks each process has used, their summed PSS, and one calibration
    sample. A process's CPU counts up to its last sighting, so a worker that
    exits inside the interval keeps what it used (less at most one
    interval); Ray reaps its workers without adding their times to its own.
    Time the hypervisor steals is not CPU time."""

    def __init__(self, interval_s: float = 0.25):
        self.interval_s = interval_s
        self.peak_mem = 0
        self.cal: list[float] = []
        self.own_cpu_s = 0.0  # the sampler thread's own CPU time
        self._base: dict[int, int] = {}
        self._last: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _sample(self) -> None:
        table = _proc_table()
        me = os.getpid()
        pids = [me, *descendants(me, table)]
        for p in pids:
            if p in table:
                self._last[p] = table[p][1]
        self.peak_mem = max(self.peak_mem, pss_bytes(pids))

    def __enter__(self) -> "TreeSampler":
        self._sample()
        self._base = dict(self._last)
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def _run(self) -> None:
        t0 = time.thread_time()
        while not self._stop.wait(self.interval_s):
            self.cal.append(calibration_sample())
            self._sample()
            self.own_cpu_s = time.thread_time() - t0

    @property
    def cpu_s(self) -> float:
        """CPU seconds the tree used while sampled, less the sampler's."""
        ticks = sum(t - self._base.get(p, 0) for p, t in self._last.items())
        return ticks / _TICK - self.own_cpu_s


class Meter:
    """Accumulates the wall and CPU seconds, the peak summed PSS and the
    calibration samples of the timed regions of one repetition (see
    ``TreeSampler``)."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.peak_mem = 0
        self.cal: list[float] = []

    @contextmanager
    def timed(self):
        with TreeSampler() as tree:
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.wall += time.perf_counter() - t0
        self.cpu += tree.cpu_s
        self.peak_mem = max(self.peak_mem, tree.peak_mem)
        self.cal += tree.cal


def pss_bytes(pids: list[int]) -> int:
    """Summed proportional set size: a page shared by k processes (the
    object store, the libraries) counts 1/k in each, so once in the sum."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup", "rb") as fh:
                for line in fh:
                    if line.startswith(b"Pss:"):
                        total += int(line.split()[1]) * 1024
                        break
        except (OSError, IndexError, ValueError):
            continue
    return total


def _session_pids() -> list[int]:
    """Processes whose command line names a session this process started,
    including any a dead parent left to init."""
    marks = [d.encode() for d in _sessions]
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and int(entry) != os.getpid():
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as fh:
                    cmd = fh.read()
                if any(m in cmd for m in marks):
                    out.append(int(entry))
            except OSError:
                continue
    return out


def kill_descendants(grace_s: float = 5.0) -> None:
    pids = set(descendants()) | set(_session_pids())
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            _reap()
            pids = {p for p in pids if os.path.exists(f"/proc/{p}")
                    and not _is_zombie(p)}
            if not pids:
                return
            time.sleep(0.05)
    _reap()


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read()
        return stat[stat.rfind(b")") + 2:stat.rfind(b")") + 3] == b"Z"
    except OSError:
        return True


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return
