"""The machine's speed during a run, measured by a fixed probe.

On a shared 2-vCPU VM the same code runs at distinct speed levels (the
probe below reads about 0.023, 0.037 or 0.045 s) that switch every few
tenths of a second, and the share of time spent at each drifts over
tens of seconds.  Process CPU time drifts the same way, so it is the
processor that slows, not the scheduler.  A whole run can fall in a
slow stretch, which medians over the run cannot remove, so the
benchmark scales a run's timings by the reference probe time over the
run's mean probe time, raised to the workload's :data:`ELASTICITY`.

A probe must slow down the way the program does.  A tight integer loop
did not: between a fast and a slow stretch it slowed 1.1x while a fixed
plan slowed 1.3-1.4x.  This probe is shaped like the program's hot
paths instead: independent-cascade walks over a small random graph,
short numpy calls inside a Python loop.  On repeats of one fixed plan
its time correlated 0.7 with the plan time, and it slowed by the same
factor.  It uses nothing from ``repro``, so a change to the program
never changes the probe.

Probes are taken only right after a block of dataset loads, while this
process has been busy: after the process has idled (waiting on pool
workers, or sleeping) the first probes often run at the fastest level
whatever the machine's state, and probes placed there made the scaled
timings of the pool workloads spread more than the raw ones.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: Mean seconds of one :func:`probe` on a 2-vCPU Xeon VM (Python 3.11,
#: numpy 2.4) while the process is busy.  Scaled timings read as if
#: every probe of the run had taken this long.  Fixed: changing it
#: rescales every timing the benchmark reports.
REFERENCE_PROBE_S = 0.04

#: Probe time taken after each block of dataset loads.
PROBE_SECONDS = 0.12

#: By backend, how far a workload's timings follow the probe: the
#: exponent of the scaling factor.  Over ten seeds per workload, the
#: slope of log(timing) on log(mean probe) across runs was 1.1-1.3 for
#: the serial workload but 0.3-0.7 for the two process-pool workloads,
#: whose plans and evaluations run on both vCPUs while the probe sees
#: this process alone.  Full scaling left the serial workload's spread
#: across runs at 0.06-0.11 (0.36-0.45 unscaled) but raised the pool
#: workloads' to 0.10-0.23 (0.08-0.21 unscaled).  Half scaling gave
#: them 0.04-0.09 on those seeds and 0.05-0.19 on ten fresh ones.
ELASTICITY = {"serial": 1.0, "process": 0.5}

_N_NODES, _DEGREE = 3000, 8
_graph = np.random.default_rng(20240101)
_INDICES = _graph.integers(0, _N_NODES, _N_NODES * _DEGREE)
_PROBS = _graph.random(_N_NODES * _DEGREE) * 0.2
del _graph


def _cascade(seed: int) -> int:
    """Nodes one independent cascade from nodes 0..4 reaches."""
    rng = np.random.default_rng(seed)
    active = np.zeros(_N_NODES, dtype=bool)
    frontier = np.arange(5)
    active[frontier] = True
    reached = 0
    while frontier.size:
        hits = []
        for u in frontier.tolist():
            edges = slice(u * _DEGREE, (u + 1) * _DEGREE)
            targets = _INDICES[edges]
            new = targets[(rng.random(_DEGREE) < _PROBS[edges]) & ~active[targets]]
            active[new] = True
            hits.append(new)
        frontier = np.unique(np.concatenate(hits))
        reached += frontier.size
    return reached


def probe() -> float:
    """Seconds the fixed probe work takes now.

    The cyclic garbage collector is off while it runs: its passes scale
    with the heap the workload holds (a 100k-user dataset makes them
    slow), and would make the probe read the workload, not the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for seed in range(150):
            _cascade(seed)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def probes(min_seconds: float) -> list[float]:
    """Probe back to back until the probes add up to ``min_seconds``."""
    taken = [probe()]
    while sum(taken) < min_seconds:
        taken.append(probe())
    return taken
