"""Host-side probes: peak resident memory and a fixed calibration kernel."""

from __future__ import annotations

import os
import statistics
import threading
import time
from pathlib import Path
from typing import Set

import numpy as np

#: Seconds between two reads of the worker processes' peak RSS.
SAMPLE_INTERVAL_S = 0.02


def _status_kib(pid: int, field: str) -> int:
    """``field`` (e.g. ``VmHWM``) of ``/proc/<pid>/status`` in KiB, 0 if gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _children(pid: int) -> Set[int]:
    """Direct child processes of every thread of ``pid``."""
    found: Set[int] = set()
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return found
    for task in tasks:
        try:
            found.update(int(child) for child in
                         (task / "children").read_text().split())
        except (OSError, ValueError):
            continue
    return found


class PeakMemory:
    """Peak resident memory of this process plus its children over a ``with`` block.

    The process's own high-water mark is reset on entry (``clear_refs``), so
    set-up allocations do not count.  With ``children`` a thread polls the
    child processes (sweep workers) every :data:`SAMPLE_INTERVAL_S` seconds
    and keeps the largest sum of their ``VmHWM`` -- the footprint of one
    worker pool, whichever worker each stream landed on.  In-process
    workloads skip the thread, which would compete for the interpreter lock
    with the work being timed.
    """

    def __init__(self, children: bool) -> None:
        self.peak_kib = 0
        self._children_kib = 0
        self._stop = threading.Event()
        self._thread = (threading.Thread(target=self._poll, daemon=True)
                        if children else None)

    def _poll(self) -> None:
        pid = os.getpid()
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            total = sum(_status_kib(child, "VmHWM") for child in _children(pid))
            self._children_kib = max(self._children_kib, total)

    def __enter__(self) -> "PeakMemory":
        try:
            Path("/proc/self/clear_refs").write_text("5")
        except OSError:
            pass  # the high-water mark then also covers set-up
        if self._thread is not None:
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
        self.peak_kib = _status_kib(os.getpid(), "VmHWM") + self._children_kib

    @property
    def peak_mb(self) -> float:
        return self.peak_kib / 1024.0


def calibration_seconds(repeats: int = 7) -> float:
    """Median time of a fixed-size NumPy reduction (machine-speed reference)."""
    values = np.arange(4_000_000, dtype=np.float64)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        float(np.sqrt(values).sum())
        times.append(time.perf_counter() - start)
    return statistics.median(times)
