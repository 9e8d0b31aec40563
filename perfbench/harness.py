"""Shared plumbing: checkout paths, child environment, host speed, RSS."""

from __future__ import annotations

import math
import os
import statistics
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (temp files, traces); git-ignored.
WORK = os.path.join(ROOT, ".perfbench")

#: Fixed tail-percentile ladder; a workload's tail is the highest rung
#: with at least ten samples beyond it.
TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)


#: Seconds :func:`calibrate` takes on the reference host (a 2-vCPU
#: x86-64 virtual machine in its slower, common state).  Timings are
#: reported at this speed: ``raw * CAL_REF_S / calibration``.
CAL_REF_S = 0.004


def calibrate(clock=time.perf_counter) -> float:
    """Seconds of a fixed pure-Python loop: the host's current speed.

    Shared hosts drift between states ~1.5x apart for seconds to
    minutes (a co-tenant on the same cores), which moves every timing
    of a 30-second run together.  The benchmark runs this probe where
    the program's load cannot slow it -- between a closed loop's
    requests, in the caller's process, and for the open loop in a
    :class:`Prober` that yields the server's CPU to the server -- and
    scales timings to :data:`CAL_REF_S`, so runs made in different
    host states compare; a change to the program moves only the
    program's share of the ratio.  ``clock`` times the loop.
    """
    start = clock()
    acc = 0
    for i in range(50_000):
        acc += i * i
    return clock() - start


def _server_cpu() -> int | None:
    """The CPU the serve-mixed server is pinned to: the last one we may use.

    The generator keeps off it and the :class:`Prober` runs on it; with
    a single CPU there is nothing to separate, and nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[-1] if len(cpus) > 1 else None


SERVER_CPU = _server_cpu()


def scale_now(samples: int = 25, cpu: int | None = None) -> float:
    """``CAL_REF_S`` over the median of ``samples`` probes taken now.

    With ``cpu``, the calling thread runs the probes pinned to that CPU
    and its affinity is restored afterwards.
    """
    if cpu is None:
        return CAL_REF_S / statistics.median(
            calibrate() for _ in range(samples))
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return scale_now(samples)
    finally:
        os.sched_setaffinity(0, previous)


class Prober:
    """A child process timing :func:`calibrate` every 50 ms, throughout.

    For the open loop, whose work runs in the server process.  The
    prober is pinned to the server's CPU at the idle scheduling class,
    so it runs only while the server does not, and it times each probe
    in its own thread CPU time, so the time the server takes the CPU
    from it does not count: the host's state moves the probe, the
    server's load next to nothing (a server slowed 1.6x moved the
    probed speed by 1%; ``record.json``).  Requests and server CPU
    time are scaled by the probes within a second of them.
    """

    def __init__(self, env: dict, cpu: int | None) -> None:
        import subprocess
        import sys

        code = ("import os, sys, time, harness\n"
                "if sys.argv[1] != 'None':\n"
                "    os.sched_setaffinity(0, {int(sys.argv[1])})\n"
                "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
                "while True:\n"
                "    t = time.time()\n"
                "    c = harness.calibrate(time.thread_time)\n"
                "    print(t, c, flush=True); time.sleep(0.05)\n")
        self._proc = subprocess.Popen([sys.executable, "-c", code, str(cpu)],
                                      env=env, stdout=subprocess.PIPE,
                                      text=True)
        self.samples: list[tuple[float, float]] = []
        self._thread = threading.Thread(target=self._read, daemon=True)
        self._thread.start()

    def _read(self) -> None:
        for line in self._proc.stdout:
            t, c = line.split()
            self.samples.append((float(t), float(c)))

    def stop(self) -> None:
        self._proc.kill()
        self._proc.wait()
        self._thread.join()

    def scale_at(self, when: float, window: float = 1.0) -> float:
        """``CAL_REF_S`` over the median probe within ``window`` s of ``when``.

        With no probe that near, the median of every probe is used.
        """
        if not self.samples:
            raise RuntimeError("the host-speed prober took no samples")
        near = [c for t, c in self.samples if abs(t - when) <= window]
        near = near or [c for _t, c in self.samples]
        return CAL_REF_S / statistics.median(near)


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid``: its threads, reaped children."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rpartition(")")[2].split()
    # fields[11:15] are utime, stime, cutime, cstime (stat fields 14-17)
    return sum(int(f) for f in fields[11:15]) / os.sysconf("SC_CLK_TCK")


def scaled(latencies, calibration) -> list[float]:
    """Latencies at reference speed, each by the two probes around it.

    ``calibration[i]`` is the probe taken just before request ``i`` and
    ``calibration[i + 1]`` the one just after it.  (Over three 30 s runs
    of vector-sweep on a 2-vCPU virtual machine this pair left a
    within-request coefficient of variation of 0.10, a running median
    over 21 probes 0.13, raw 0.16.)
    """
    return [latency * 2 * CAL_REF_S / (before + after)
            for latency, before, after in zip(latencies, calibration,
                                              calibration[1:])]


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def child_env() -> dict:
    """Environment of every program process: source tree, private temp."""
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = tmp
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``inf`` entries allowed)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_rank(count: int) -> float:
    """The highest ladder percentile with >= 10 of ``count`` samples beyond."""
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if count * (1.0 - q) >= 10:
            best = q
    return best


def _read_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _tree(pid: int) -> list[int]:
    pids, stack = [], [pid]
    while stack:
        current = stack.pop()
        pids.append(current)
        try:
            with open(f"/proc/{current}/task/{current}/children",
                      encoding="ascii") as handle:
                stack.extend(int(p) for p in handle.read().split())
        except (OSError, ValueError):
            pass
    return pids


class RssSampler:
    """Peak summed RSS of a process and its descendants (20 ms samples).

    The root's own high-water mark (``VmHWM``) is folded in at
    :meth:`stop`, so a peak between samples still counts for the root.
    Each sample also logs ``(epoch, CPU seconds of the root)`` in
    :attr:`cpu`.
    """

    def __init__(self, pid: int, interval: float = 0.02) -> None:
        self.pid = pid
        self.interval = interval
        self.peak_kb = 0
        self.cpu: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            total = sum(_read_kb(p, "VmRSS:") for p in _tree(self.pid))
            self.peak_kb = max(self.peak_kb, total)
            try:
                self.cpu.append((time.time(), cpu_seconds(self.pid)))
            except (OSError, ValueError):
                pass

    def stop(self) -> float:
        """Stop sampling; the peak in MB."""
        self.peak_kb = max(self.peak_kb, _read_kb(self.pid, "VmHWM:"))
        self._stop.set()
        self._thread.join()
        return self.peak_kb / 1024.0
