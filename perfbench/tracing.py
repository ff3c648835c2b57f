"""Spans and counters recorded around the public calls of each layer.

Nothing under ``src/`` is instrumented: :class:`Tracer` replaces the
attributes the pipeline looks its callees up through (module globals
such as ``repro.core.dysim.algorithm.best_timed_seed``, and class
attributes such as ``SigmaEstimator.estimate``) with timing wrappers,
and puts the originals back on exit.  Spans live in memory as
``(name, start, end, parent)`` rows and are written out by the caller.

Work a process pool runs inside its workers is invisible here: only
the parent-side calls (the dispatch itself, and everything a serial
backend runs in-process) are timed or counted.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

PARENT_SIDE_NOTE = (
    "per-layer spans and counters are parent-side only: work inside "
    "pool workers shows up solely as engine.dispatch time"
)


def _mc_only(args) -> bool:
    # SigmaEstimator.estimate/estimate_block are inherited by the sketch
    # and RR-set oracles; only a plain Monte-Carlo estimator counts as mc.
    from repro.diffusion.montecarlo import SigmaEstimator

    return type(args[0]) is SigmaEstimator


#: module -> (attribute path, span or counter name, kind).  A "span"
#: target records a timed span; a "count" target only counts calls (leaf
#: calls made hundreds of thousands of times per plan).  Module globals
#: are patched in the module that calls them.
TARGETS = {
    "repro.diffusion.montecarlo": (
        ("SigmaEstimator.prepare", "oracle.prepare", "span"),
        ("SigmaEstimator.estimate", "mc.estimate", "span"),
        ("SigmaEstimator.estimate_block", "mc.estimate", "span"),
    ),
    "repro.sketch.estimator": (
        ("SketchSigmaEstimator.prepare", "oracle.prepare", "span"),
    ),
    "repro.sketch.rrset": (
        ("RRSetSigmaEstimator.prepare", "oracle.prepare", "span"),
        ("build_skeleton", "sketch.skeleton", "span"),
    ),
    "repro.sketch.bank": (("build_skeleton", "sketch.skeleton", "span"),),
    "repro.eval.harness": (("select_nominees", "dysim.nominees", "span"),),
    "repro.core.dysim.algorithm": (
        ("select_nominees", "dysim.nominees", "span"),
        ("cluster_nominees", "dysim.markets", "span"),
        ("identify_markets", "dysim.markets", "span"),
        ("group_markets", "dysim.markets", "span"),
        ("order_group", "dysim.markets", "span"),
        ("average_relevance_matrices", "dysim.dre", "span"),
        ("best_timed_seed", "dysim.tdsi", "span"),
    ),
    "repro.core.dysim.reachability": (
        ("ReachabilityTable.dynamic_reachability", "dysim.dre", "span"),
    ),
    "repro.core.dysim.timing": (
        ("substantial_influence", "dysim.si_evals", "count"),
    ),
    "repro.diffusion.campaign": (
        ("CampaignSimulator.run", "campaign.runs", "count"),
    ),
    "repro.diffusion.models": (
        ("aggregated_influence_vector", "diffusion.ais_calls", "count"),
    ),
    "repro.engine.backends": (
        ("SerialBackend.map_chunks", "engine.dispatch", "span"),
        ("_PoolBackend.map_chunks", "engine.dispatch", "span"),
    ),
}

#: Span names whose self time is reported (``plan`` is the root span the
#: benchmark opens around the planning call; its self time is whatever
#: no wrapped layer accounts for).
SPAN_LAYERS = (
    "plan",
    "oracle.prepare",
    "sketch.skeleton",
    "dysim.nominees",
    "dysim.markets",
    "dysim.dre",
    "dysim.tdsi",
    "mc.estimate",
    "engine.dispatch",
)


class Tracer:
    """In-memory span recorder plus named counters for one traced plan."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.estimators: list = []  # every estimator whose prepare() ran
        self._stack: list[int] = []
        self._open: Counter = Counter()  # open spans per name

    @contextmanager
    def span(self, name: str):
        """Record one span; yields True when no same-named span encloses it."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        outermost = self._open[name] == 0
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        self._open[name] += 1
        try:
            yield outermost
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1

    def _wrapper(self, fn, name: str, kind: str):
        tracer = self
        mc = name == "mc.estimate"
        when = _mc_only if mc else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            if kind == "count":
                tracer.counts[name] += 1
                return fn(*args, **kwargs)
            with tracer.span(name) as outermost:
                before = args[0].n_evaluations if mc else None
                result = fn(*args, **kwargs)
            if outermost:
                tracer._observe_after(name, args, before, result)
            return result

        return traced

    def _observe_after(self, name: str, args, before, result) -> None:
        self.counts[f"{name}.outer_calls"] += 1
        if name == "mc.estimate":
            self.counts["mc.replications"] += args[0].n_evaluations - before
        elif name == "engine.dispatch":
            self.counts["engine.chunks"] += len(args[3])
        elif name == "dysim.nominees":
            self.counts["selection.gain_evals"] += result.n_oracle_calls
        elif name == "oracle.prepare":
            self.estimators.append(args[0])

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        undo = []
        try:
            for module_name, targets in TARGETS.items():
                module = importlib.import_module(module_name)
                for path, name, kind in targets:
                    *owner_path, attr = path.split(".")
                    owner = module
                    for part in owner_path:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr]
                    setattr(owner, attr, self._wrapper(original, name, kind))
                    undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def inclusive_seconds(self, name: str) -> float:
        """Wall time under ``name``, each nesting of it counted once."""
        total = 0.0
        for span_name, start, end, parent in self.spans:
            if span_name == name and not self._has_ancestor(parent, name):
                total += end - start
        return total

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus what its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Counter = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def _has_ancestor(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def as_rows(self, origin: float) -> list[list]:
        """Spans as ``[name, start_s, end_s, parent]`` relative to ``origin``."""
        return [
            [name, round(start - origin, 6), round(end - origin, 6), parent]
            for name, start, end, parent in self.spans
        ]
