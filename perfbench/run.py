"""End-to-end Dysim benchmark: plan time, spread and memory per workload.

Run from the repository root::

    python3 perfbench/run.py --workload fig9-douban-sketch-pool --seed 1 \
        --seconds 40 --trace 0

One run is a closed loop with one caller: each operation loads the
workload's dataset (``setup_s``), runs the planning call through
``repro.eval.harness.run_algorithm`` (``plan_s``), re-evaluates the
returned group with ``evaluate_group`` on fixed evaluation worlds
(``spread``, ``eval_reps_per_s``) and checks the output; the next
operation starts only after the previous one returned.  Operations
repeat until the next one would end after ``--seconds``, and every
reported figure is the median over them.  Timings are scaled to a
reference machine speed (see :mod:`pace`), because the shared
machine's own speed drifts by more than the bounds over a run.  With
``--trace 1`` the loop
alternates untraced and traced operations and prints the per-layer
metrics of :mod:`tracing` plus the tracing overhead; the spans of the
last traced operation go to ``.perfbench/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a human-readable report.  ``--self-test`` instead checks
that a seed reproduces its seed-group digest, spread and counters, and
that the process-pool workloads give bit-identical results on the
serial backend.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from memory import PeakSampler
from pace import ELASTICITY, PROBE_SECONDS, REFERENCE_PROBE_S, probes
from tracing import PARENT_SIDE_NOTE, SPAN_LAYERS, Tracer
from workloads import (
    EVAL_SEED,
    LAYER_PREDICTIONS,
    POOL_WORKERS,
    WORKLOADS,
    Workload,
)

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".perfbench"


@dataclass
class Op:
    """One closed-loop operation: load, plan, evaluate, check."""

    seed: int = 0
    #: pace.probe seconds, taken after each block of dataset loads.
    probes: list[float] = field(default_factory=list)
    setup_times: list[float] = field(default_factory=list)
    plan_s: float = 0.0
    eval_times: list[float] = field(default_factory=list)
    eval_samples: int = 0
    spread: float = 0.0
    sigma: float = 0.0
    digest: str = ""
    n_seeds: int = 0
    peak_mb: float = 0.0
    diagnostics: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    tracer: Tracer | None = None
    error: str | None = None


def make_backend(workload: Workload, name: str | None = None):
    from repro.engine.backends import ProcessPoolBackend, SerialBackend

    if (name or workload.backend) == "serial":
        return SerialBackend()
    return ProcessPoolBackend(workers=POOL_WORKERS)


def load(workload: Workload):
    from repro.data import load_dataset

    started = time.perf_counter()
    instance = load_dataset(workload.dataset, **workload.dataset_kwargs)
    return instance, time.perf_counter() - started


def group_digest(seed_group) -> str:
    text = ";".join(
        f"{s.user},{s.item},{s.promotion}"
        for s in sorted(seed_group, key=lambda s: (s.user, s.item, s.promotion))
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_output(instance, workload: Workload, op: Op, seed_group) -> list[str]:
    """Feasibility of the returned group and a floor on its spread."""
    problems = []
    seeds = list(seed_group)
    if not seeds:
        problems.append("empty seed group")
    cost = instance.group_cost(seeds)
    if cost > instance.budget + 1e-9:
        problems.append(f"cost {cost:.4f} > budget {instance.budget}")
    for s in seeds:
        if not 1 <= s.promotion <= instance.n_promotions:
            problems.append(
                f"promotion {s.promotion} outside 1..{instance.n_promotions}")
        if not (0 <= s.user < instance.n_users and 0 <= s.item < instance.n_items):
            problems.append(f"invalid seed {s}")
    if len({(s.user, s.item) for s in seeds}) != len(seeds):
        problems.append("repeated nominee")
    floor = workload.reference_spread * (1.0 - workload.spread_tolerance)
    if not (math.isfinite(op.spread) and op.spread >= floor):
        problems.append(f"spread {op.spread:.4f} below floor {floor:.4f}")
    if not math.isfinite(op.sigma):
        problems.append(f"reported sigma {op.sigma} not finite")
    return problems


def run_op(
    workload: Workload,
    seed: int,
    sampler: PeakSampler,
    tracer: Tracer | None = None,
    backend_name: str | None = None,
    check_repeat: bool = True,
) -> Op:
    from repro.eval.harness import evaluate_group, run_algorithm

    op = Op(seed=seed)
    instance = time_loads(workload, op, workload.setup_min_seconds / 2)
    sampler.reset()
    backend = make_backend(workload, backend_name)
    try:
        with tracer.installed() if tracer else nullcontext():
            with tracer.span("plan") if tracer else nullcontext():
                started = time.perf_counter()
                result = run_algorithm(
                    workload.algorithm,
                    instance,
                    seed=seed,
                    backend=backend,
                    **workload.algorithm_kwargs,
                )
                op.plan_s = time.perf_counter() - started
        # Repeat the evaluation so its rate is timed over at least
        # eval_min_seconds; under common random numbers every repeat
        # must return the identical spread, which ``check_repeat``
        # makes sure is tried at least once.
        spreads, eval_times = [], []
        while (len(spreads) < 1 + check_repeat
               or sum(eval_times) < workload.eval_min_seconds):
            started = time.perf_counter()
            spreads.append(evaluate_group(
                instance,
                result.seed_group,
                n_samples=workload.eval_samples,
                seed=EVAL_SEED,
                backend=backend,
            ))
            eval_times.append(time.perf_counter() - started)
        op.spread = spreads[0]
        op.eval_times = eval_times
        sampler.sample()  # the workers' marks, while they are alive
    finally:
        backend.close()
    op.peak_mb = sampler.peak_mb()
    op.eval_samples = workload.eval_samples
    op.sigma = float(result.sigma)
    op.digest = group_digest(result.seed_group)
    op.n_seeds = len(result.seed_group)
    op.diagnostics = result.diagnostics
    op.tracer = tracer
    op.counters = result_counters(result.diagnostics, tracer)
    problems = check_output(instance, workload, op, result.seed_group)
    if len(set(spreads)) > 1:
        problems.append(f"evaluation not repeatable: {sorted(set(spreads))}")
    if problems:
        op.error = "; ".join(problems)
    # The machine's speed shifts over seconds, so setup_s gets a second
    # block of loads at the other end of the operation.
    instance = result = None
    time_loads(workload, op, workload.setup_min_seconds)
    return op


def time_loads(workload: Workload, op: Op, total_seconds: float):
    """Load the dataset until ``op.setup_times`` add up to
    ``total_seconds``, then probe the machine's pace while this process
    is still busy; return the last instance (None if no load was due)."""
    instance = None
    while sum(op.setup_times) < total_seconds:
        # Collect the previous load's garbage outside the timers.
        instance = None
        gc.collect()
        instance, seconds = load(workload)
        op.setup_times.append(seconds)
    if instance is not None:
        op.probes.extend(probes(PROBE_SECONDS))
    return instance


def result_counters(diagnostics: dict, tracer: Tracer | None) -> dict:
    """Deterministic counters: backend-invariant ones from the result,
    plus the parent-side trace counters when traced."""
    counters = {
        key: diagnostics.get(key, 0)
        for key in (
            "n_oracle_calls",
            "cache_hits",
            "cache_misses",
            "bank_reach_hits",
            "bank_reach_misses",
            "bank_reach_evictions",
            "n_markets",
        )
    }
    if tracer is not None:
        counters.update(
            {f"trace.{k}": v for k, v in sorted(tracer.counts.items())}
        )
    return counters


def guarded_op(*args, **kwargs) -> Op:
    """``run_op`` that turns an exception into a failed operation."""
    try:
        return run_op(*args, **kwargs)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Op(error=traceback.format_exc(limit=1).strip().splitlines()[-1])


def op_seed(seed: int, index: int) -> int:
    """Selection seed of operation ``index``: ``seed`` itself first, then
    seeds derived from it, so a run averages over several selections."""
    if index == 0:
        return seed
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            sampler: PeakSampler) -> list[Op]:
    """Closed loop: one operation at a time until the window is used."""
    ops: list[Op] = []
    durations: list[float] = []
    window_start = time.perf_counter()
    while True:
        traced = trace and len(ops) % 2 == 1
        # Traced runs pair each traced operation with an untraced one on
        # the same seed, so their plan times give the tracing overhead.
        index = len(ops) // 2 if trace else len(ops)
        started = time.perf_counter()
        ops.append(guarded_op(
            workload, op_seed(seed, index), sampler,
            Tracer() if traced else None, check_repeat=not ops))
        durations.append(time.perf_counter() - started)
        elapsed = time.perf_counter() - window_start
        if trace and len(ops) % 2:
            continue  # every untraced operation gets its traced twin
        # Stop when the next operation (or traced pair) would overrun.
        if elapsed + (1 + trace) * statistics.median(durations) > seconds:
            break
    return ops


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean_probe(ops: list[Op]) -> float:
    """Mean probe seconds of the run (0.0 if it took none).  A mean, not
    a median: the machine switches between speed levels, and a median
    would jump between them where a mean follows the share of each."""
    taken = [p for o in ops for p in o.probes]
    return statistics.fmean(taken) if taken else 0.0


def pace(ops: list[Op], backend: str) -> float:
    """Factor that scales the run's wall times to the reference speed:
    (reference probe / mean probe) ** ELASTICITY[backend]."""
    probe_s = mean_probe(ops)
    if not probe_s:
        return 1.0
    return (REFERENCE_PROBE_S / probe_s) ** ELASTICITY[backend]


def end_to_end_metrics(workload: Workload, ops: list[Op]) -> dict:
    ok = [o for o in ops if o.error is None]
    scale = pace(ops, workload.backend)
    return {
        "plan_s": (median(o.plan_s for o in ok) * scale, "s"),
        "setup_s": (median(t for o in ok for t in o.setup_times) * scale, "s"),
        "eval_reps_per_s": (
            median(o.eval_samples / t for o in ok for t in o.eval_times)
            / scale, "1/s"),
        "spread": (median(o.spread for o in ok), "adoptions"),
        "peak_rss_mb": (median(o.peak_mb for o in ok), "MB"),
        "success_rate": (len(ok) / len(ops), "ratio"),
    }


def layer_metrics(op: Op) -> dict:
    """Per-layer figures of one traced operation."""
    tracer, diag = op.tracer, op.diagnostics
    counts = tracer.counts
    fault = diag.get("fault_stats") or {}
    hits, misses = diag.get("cache_hits", 0), diag.get("cache_misses", 0)
    from repro.sketch.rrset import RRSetSigmaEstimator

    rr = next(
        (e for e in tracer.estimators if isinstance(e, RRSetSigmaEstimator)),
        None,
    )
    metrics = {
        "oracle.prepare_s": (tracer.inclusive_seconds("oracle.prepare"), "s"),
        "oracle.phase_bank_s": (diag.get("phase_seconds", {}).get("bank", 0.0), "s"),
        "sketch.skeleton_s": (tracer.inclusive_seconds("sketch.skeleton"), "s"),
        "bank.reach_hits": (diag.get("bank_reach_hits", 0), "count"),
        "bank.reach_misses": (diag.get("bank_reach_misses", 0), "count"),
        "bank.reach_evictions": (diag.get("bank_reach_evictions", 0), "count"),
        "rrset.samples": (rr.index.n_samples if rr else 0, "count"),
        "rrset.member_mb": (rr.index.member_bytes / 2**20 if rr else 0.0, "MB"),
        "rrset.queries": (rr.rr_queries if rr else 0, "count"),
        "dysim.nominees_s": (tracer.inclusive_seconds("dysim.nominees"), "s"),
        "selection.gain_evals": (counts["selection.gain_evals"], "count"),
        "dysim.markets_s": (tracer.inclusive_seconds("dysim.markets"), "s"),
        "dysim.n_markets": (diag.get("n_markets", 0), "count"),
        "dysim.dre_s": (tracer.inclusive_seconds("dysim.dre"), "s"),
        "dysim.tdsi_s": (tracer.inclusive_seconds("dysim.tdsi"), "s"),
        "dysim.tdsi_calls": (counts["dysim.tdsi.outer_calls"], "count"),
        "dysim.si_evals": (counts["dysim.si_evals"], "count"),
        "mc.estimate_calls": (counts["mc.estimate.outer_calls"], "count"),
        "mc.estimate_s": (tracer.inclusive_seconds("mc.estimate"), "s"),
        "mc.replications": (counts["mc.replications"], "count"),
        "mc.cache_hits": (hits, "count"),
        "mc.cache_misses": (misses, "count"),
        "mc.cache_hit_ratio": (hits / max(hits + misses, 1), "ratio"),
        "campaign.runs": (counts["campaign.runs"], "count"),
        "diffusion.ais_calls": (counts["diffusion.ais_calls"], "count"),
        "engine.dispatches": (counts["engine.dispatch.outer_calls"], "count"),
        "engine.chunks": (counts["engine.chunks"], "count"),
        "engine.dispatch_s": (tracer.inclusive_seconds("engine.dispatch"), "s"),
        "engine.retries": (fault.get("retries", 0), "count"),
        "engine.pool_rebuilds": (fault.get("pool_rebuilds", 0), "count"),
        "eval.replications": (op.eval_samples, "count"),
        "eval.evaluate_s": (median(op.eval_times), "s"),
        "sigma_rel_err": (abs(op.sigma - op.spread) / op.spread, "ratio"),
    }
    self_times = tracer.self_seconds()
    for name in SPAN_LAYERS:
        metrics[f"{name}.self_s"] = (self_times.get(name, 0.0), "s")
    return metrics


def per_layer_metrics(ops: list[Op]) -> dict:
    ok = [o for o in ops if o.error is None]
    traced = [o for o in ok if o.tracer is not None]
    untraced = [o for o in ok if o.tracer is None]
    per_op = [layer_metrics(o) for o in traced]
    metrics = {
        name: (median(m[name][0] for m in per_op), unit)
        for name, (_, unit) in (per_op[0].items() if per_op else ())
    }
    pairs = [
        (u.plan_s, t.plan_s)
        for u, t in zip(ops[0::2], ops[1::2])
        if u.error is None and t.error is None
    ]
    metrics.update({
        "machine.probe_s": (mean_probe(ops), "s"),
        "data.build_s": (median(t for o in ok for t in o.setup_times), "s"),
        "trace.plan_s": (median(o.plan_s for o in traced), "s"),
        "trace.untraced_plan_s": (median(o.plan_s for o in untraced), "s"),
        # Each pair plans the same seed, untraced then traced.
        "trace.overhead_ratio": (
            median(t / u - 1.0 for u, t in pairs), "ratio"),
        "error_rate": ((len(ops) - len(ok)) / len(ops), "ratio"),
    })
    return metrics


def context(seed: int) -> dict:
    import scipy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_imports": has_numba,
        "seed": seed,
        "eval_seed": EVAL_SEED,
        "closed_loop_callers": 1,
        "reference_probe_s": REFERENCE_PROBE_S,
    }


def report(workload: Workload, ctx: dict, ops: list[Op], metrics: dict,
           trace: bool) -> None:
    print(f"workload {workload.name}: {workload.dataset} "
          f"{workload.dataset_kwargs} {workload.algorithm} "
          f"{workload.algorithm_kwargs} backend={workload.backend}")
    print("context " + json.dumps(ctx, sort_keys=True))
    ok = [o for o in ops if o.error is None]
    if ok:
        print(f"wall medians (unscaled) over {len(ok)} operations: "
              f"plan_s {median(o.plan_s for o in ok):.6g} "
              f"setup_s {median(t for o in ok for t in o.setup_times):.6g} "
              "eval_reps_per_s "
              f"{median(o.eval_samples / t for o in ok for t in o.eval_times):.6g}")
    taken = sorted(p for o in ops for p in o.probes)
    if taken:
        print(f"pace probe over {len(taken)} probes: mean "
              f"{statistics.fmean(taken):.5f} min {taken[0]:.5f} "
              f"max {taken[-1]:.5f}"
              f" (reference {REFERENCE_PROBE_S}); timings scaled by "
              f"{pace(ops, workload.backend):.4f}")
    for op in ops:
        label = "traced" if op.tracer is not None else "untraced"
        status = "ok" if op.error is None else f"FAILED: {op.error}"
        print(f"  op seed {op.seed} {label} plan {op.plan_s:.4f}s "
              f"setup {median(op.setup_times):.4f}s x{len(op.setup_times)} "
              f"eval {median(op.eval_times):.4f}s x{len(op.eval_times)} "
              f"spread {op.spread:.4f} sigma_reported {op.sigma:.4f} "
              f"seeds {op.n_seeds} "
              f"digest {op.digest} peak {op.peak_mb:.1f}MB {status}")
    if trace:
        print("note: " + PARENT_SIDE_NOTE)
        for layer, (names, moves, where) in LAYER_PREDICTIONS.items():
            print(f"  predicted: {layer}: {names} -> {moves} ({where})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")


def write_trace(workload: Workload, seed: int, ctx: dict, ops: list[Op],
                metrics: dict) -> Path | None:
    traced = [o for o in ops if o.tracer is not None and o.tracer.spans]
    if not traced:
        return None
    tracer = traced[-1].tracer
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload.name,
        "context": ctx,
        "note": PARENT_SIDE_NOTE,
        "span_columns": ["name", "start_s", "end_s", "parent"],
        "spans": tracer.as_rows(tracer.spans[0][1]),
        "counts": dict(tracer.counts),
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }))
    return path


def benchmark(args) -> int:
    workload = WORKLOADS[args.workload]
    ctx = context(args.seed)
    with PeakSampler(watch_workers=workload.backend != "serial") as sampler:
        ops = measure(workload, args.seed, args.seconds, bool(args.trace), sampler)
    if args.trace:
        metrics = per_layer_metrics(ops)
    else:
        metrics = end_to_end_metrics(workload, ops)
    report(workload, ctx, ops, metrics, bool(args.trace))
    if args.trace:
        path = write_trace(workload, args.seed, ctx, ops, metrics)
        if path is not None:
            print(f"spans written to {path.relative_to(ROOT)}")
    failed = sum(o.error is not None for o in ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def self_test(args) -> int:
    """Same seed twice -> same digest, spread and counters; on the
    process workloads also bit-identical to the serial backend; seed 0
    -> the digest and spread recorded in ``workloads.py``."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    with PeakSampler() as sampler:
        for name in names:
            workload = WORKLOADS[name]
            runs = [
                (workload.backend, run_op(workload, args.seed, sampler, Tracer()))
                for _ in range(2)
            ]
            if workload.backend == "process":
                runs.append(("serial", run_op(
                    workload, args.seed, sampler, backend_name="serial")))
            first = runs[0][1]
            for backend, op in runs:
                # Parent-side trace counters depend on where chunks run,
                # so only the result's own counters cross backends.
                keys = first.counters.keys() if backend == workload.backend else [
                    k for k in first.counters if not k.startswith("trace.")]
                passed = (
                    op.error is None
                    and op.digest == first.digest
                    and op.spread == first.spread
                    and all(op.counters.get(k) == first.counters[k] for k in keys)
                )
                ok &= passed
                print(f"{'PASS' if passed else 'FAIL'} {name} seed={args.seed} "
                      f"backend={backend} digest={op.digest} "
                      f"spread={op.spread!r} sigma={op.sigma!r} "
                      f"error={op.error}")
            print(f"  counters {json.dumps(first.counters, sort_keys=True)}")
            if args.seed == 0:
                golden = (workload.seed0_digest, workload.seed0_spread)
                passed = (first.digest, first.spread) == golden
                ok &= passed
                print(f"{'PASS' if passed else 'FAIL'} {name} seed 0 matches "
                      f"the recorded digest and spread {golden}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        return self_test(args)
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
