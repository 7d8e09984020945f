"""Shared plumbing: timing statistics, the host-speed probe, provenance."""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import resource
import statistics
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".servebench"


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def _status_kb(path: str, field: str) -> int:
    """One ``kB`` field of a ``/proc/<pid>/status``-style file, 0 when absent."""
    try:
        with open(path, "r", encoding="ascii") as stream:
            for line in stream:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def cpu_s(pids: Sequence[int] = ()) -> float:
    """CPU seconds used so far by this process (all threads) and by ``pids``.

    The benchmark's time metrics are CPU time, not wall time.  On a
    shared host the hypervisor takes the virtual CPUs away in bursts
    (steal: 14 % of a 2-core VM's time over four minutes, in stretches
    of seconds), which stretches wall time but not CPU time.  Over
    half-second slices of ``warm-identify`` there, wall time per request
    tracked the steal (correlation 0.88) and its quartile spread was
    0.27 of the median; that of CPU time per request was 0.11, and 0.03
    over 10-second windows against 0.11 for wall time.  ``pids``
    are live child processes (cluster workers); each is read through its
    process CPU clock, and one that has exited reads 0.
    """
    return time.process_time() + sum(_process_cpu_s(pid) for pid in pids)


def _process_cpu_s(pid: int) -> float:
    """CPU seconds of every thread of process ``pid`` (Linux CPU-clock id of a pid)."""
    try:
        return time.clock_gettime(((~pid) << 3) | 2)
    except OSError:
        return 0.0


class PeakMemory:
    """The program's peak resident memory, read at a fixed amount of work.

    ``peak_rss_mb`` grows slowly with the requests served (heap the
    allocator keeps), and a time-bounded window serves more requests on
    a faster host.  So each round resets the peak before its set-up and
    reads it once ``after`` requests of the round are answered (or when
    the round ends, if it answers fewer): the same work on every host.
    The figure is the median over rounds of that peak minus the RSS the
    process had once the benchmark's inputs were generated, plus
    ``extra_kb`` given at the reading (cluster workers' private memory).
    """

    def __init__(self, after: int) -> None:
        self.after = after
        self.readings: List[float] = []
        self._baseline_kb = _reset_peak_rss_kb()
        self._pending = False

    def start_round(self) -> None:
        """Reset the peak to the current RSS; the round's reading is due."""
        _reset_peak_rss_kb()
        self._pending = True

    def read(self, extra_kb: int = 0) -> None:
        """Take the round's reading, unless it was already taken."""
        if not self._pending:
            return
        self._pending = False
        peak_kb = _status_kb("/proc/self/status", "VmHWM")
        if not peak_kb:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.readings.append((max(0, peak_kb - self._baseline_kb) + extra_kb) / 1024.0)

    def peak_mb(self) -> float:
        """Median of the rounds' readings."""
        return median(self.readings)


def _reset_peak_rss_kb() -> int:
    """Reset this process's peak RSS to its current RSS; return that RSS in KiB.

    Garbage is collected and the freed heap handed back first, so a
    round starts from the memory that is still in use, not from what an
    earlier round or the input generation left in the allocator.  Where
    ``/proc/self/clear_refs`` is missing the peak is not reset.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as stream:
            stream.write("5")
    except OSError:
        pass
    return _status_kb("/proc/self/status", "VmRSS")


def private_rss_kb(pid: int) -> int:
    """Resident memory of ``pid`` that no other process shares, in KiB.

    Pages a forked worker still shares with its parent are left out, so
    a worker counts only what it loaded or copied itself.
    """
    rollup = f"/proc/{pid}/smaps_rollup"
    return _status_kb(rollup, "Private_Clean") + _status_kb(rollup, "Private_Dirty")


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Set bits per row of a ``uint64`` array (numpy 1.x has no ``bitwise_count``)."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)
    bytes_view = np.ascontiguousarray(words).view(np.uint8)
    return _BYTE_POPCOUNT[bytes_view].sum(axis=-1, dtype=np.int64)


_BYTE_POPCOUNT = np.array([bin(value).count("1") for value in range(256)], dtype=np.int64)


#: Calibration time of :class:`HostSpeed` that the time metrics are scaled
#: to: about the task's median on a shared 2-core Xeon VM at 2.0 GHz.
#: Tied to the task; changing either changes every metric.
REFERENCE_CALIBRATION_S = 2.5e-3


class HostSpeed:
    """How fast the host runs a fixed calibration task, read between requests.

    CPU time still moves with the host: on a shared VM other tenants on
    the same physical cores (hyper-threads, caches, memory bandwidth)
    moved the same cold lookups between 150 and 270 per CPU second from
    one 2-second slice to the next.  A fixed task timed between requests
    slows with them: over four minutes, lookups per CPU second and
    1 / calibration time per 2-second slice correlated at 0.88, and the
    product held within ±3 % over 20-second stretches where the rate
    alone moved ±10 %.  So each round's time metrics are divided by
    ``median(calibration) / REFERENCE_CALIBRATION_S``: CPU time as the
    reference host would spend it.

    The task mixes what the program does: interpreter work on dicts and
    strings, numpy popcounts over a small matrix, and a strided pass
    over 4 MB that leaves the caches.  It runs on the calling thread
    (its thread CPU clock is read, so other threads do not count) at
    most every ``INTERVAL_S`` of wall time, outside any timed request;
    ``spent`` is the CPU it used, which windows subtract.
    """

    INTERVAL_S = 0.2

    def __init__(self) -> None:
        self.readings: List[float] = []
        self.spent = 0.0
        self._last = float("-inf")
        self._lock = threading.Lock()
        self._matrix = np.arange(1 << 13, dtype=np.uint64).reshape(256, 32) * np.uint64(0x9E3779B97F4A7C15)
        self._big = np.arange(1 << 19, dtype=np.uint64)

    def _task(self) -> None:
        table: Dict[str, int] = {}
        for i in range(3000):
            table[str(i & 511)] = table.get(str(i & 511), 0) + i
        for _ in range(10):
            popcount_rows(self._matrix & self._matrix[3]).sum()
        int(self._big[::8].sum())

    def calibrate(self, times: int = 1) -> None:
        """Run the task ``times`` times and record each reading."""
        for _ in range(times):
            start = time.thread_time()
            self._task()
            elapsed = time.thread_time() - start
            with self._lock:
                self.readings.append(elapsed)
                self.spent += elapsed
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Calibrate once if ``INTERVAL_S`` has passed since the last reading."""
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            self.calibrate()

    def _take_median(self) -> float:
        with self._lock:
            readings, self.readings = self.readings, []
        return median(readings)

    def take_factor(self) -> float:
        """Host slowness since the last call (median reading / reference); clears the readings."""
        return self._take_median() / REFERENCE_CALIBRATION_S

    def probe_ms(self, times: int = 7) -> float:
        """Median of ``times`` calibrations taken now, in milliseconds.

        Taken before a run's inputs are generated and reported beside
        its metrics, so drift in host speed between runs made hours apart shows.
        """
        self.calibrate(times)
        return self._take_median() * 1e3


def git_describe() -> str:
    """``git describe`` of the checkout, or a marker when it is not a repository."""
    try:
        completed = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    described = completed.stdout.strip()
    return described if completed.returncode == 0 and described else "unknown"


def provenance(seed: int, probe_ms: float) -> Dict[str, object]:
    """Everything needed to tell two result files' conditions apart."""
    return {
        "git_describe": git_describe(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "host_probe_ms": probe_ms,
    }
