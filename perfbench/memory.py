"""Peak resident memory of this process plus its pool workers.

``RUSAGE_CHILDREN`` only covers children that have been reaped, so a
live worker pool reads as almost nothing.  The peak reported here is
this process's high-water mark (``VmHWM`` in ``/proc/<pid>/status``,
reset at the start of each operation through ``/proc/self/clear_refs``)
plus, for every descendant seen since the reset, the largest peak
proportional set size estimated while it was alive.  A forked worker's
``VmRSS`` would count every page it still shares with the parent a
second time; ``Pss`` (``/proc/<pid>/smaps_rollup``) charges it only its
share.  Pss has no high-water mark, and a worker's peak is a short
burst that sampling would mostly miss, so a reading is the current Pss
plus how far the worker's RSS has fallen since its own peak
(``VmHWM - VmRSS``), memory that was private to the worker when freed.
A background thread reads the workers every ``interval`` seconds, so a
worker's figure is kept after the worker exits.
"""

from __future__ import annotations

import os
import threading


def _children(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may contain spaces; fields resume after ')'.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry))
    return found


def _descendants(pid: int) -> list[int]:
    found, pending = [], [pid]
    while pending:
        children = _children(pending.pop())
        found.extend(children)
        pending.extend(children)
    return found


def _field_kb(path: str, key: str) -> int:
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith(key):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def own_high_water_kb() -> int:
    return _field_kb("/proc/self/status", "VmHWM:")


def peak_proportional_kb(pid: int) -> int:
    status = f"/proc/{pid}/status"
    high_water = _field_kb(status, "VmHWM:")
    pss = _field_kb(f"/proc/{pid}/smaps_rollup", "Pss:")
    if not pss:
        return high_water
    return pss + max(high_water - _field_kb(status, "VmRSS:"), 0)


class PeakSampler:
    """Own peak RSS plus the workers' peak Pss estimates, between resets."""

    def __init__(self, watch_workers: bool = True, interval: float = 0.2):
        #: Without workers to watch no thread is started, so a serial
        #: workload's timings share the interpreter with nothing.
        self.watch_workers = watch_workers
        self.interval = interval
        self._workers: dict[int, int] = {}  # pid -> largest Pss kB
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="perfbench-memory", daemon=True
        )

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def sample(self) -> None:
        """Record the peak Pss estimate of every live descendant."""
        marks = {
            pid: peak_proportional_kb(pid) for pid in _descendants(os.getpid())
        }
        with self._lock:
            for pid, kb in marks.items():
                self._workers[pid] = max(self._workers.get(pid, 0), kb)

    def reset(self) -> None:
        """Start a new measurement (drops marks of exited workers)."""
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")  # resets this process's VmHWM to its VmRSS
        with self._lock:
            self._workers.clear()

    def peak_mb(self) -> float:
        with self._lock:
            workers_kb = sum(self._workers.values())
        return (own_high_water_kb() + workers_kb) / 1024.0

    def __enter__(self) -> "PeakSampler":
        if self.watch_workers:
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self.watch_workers:
            self._thread.join()
