"""The benchmark's workloads and the layer -> metric predictions.

Each workload pins one dataset preset at its default dataset seed and
takes the run's ``--seed`` as the selection seed.  The dataset itself is
not re-drawn per seed: across dataset seeds 1..6 the amazon preset's
Dysim spread ranged 93..207 and its plan time 10..23 s, far outside any
bound a run-to-run comparison could hold, while across selection seeds
0..10 on the fixed dataset the spread of fig9-amazon-mc stays within
91..94.  Evaluation always uses :data:`EVAL_SEED`, so every selection
is scored on the same random worlds.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seed of the fair re-evaluation's random worlds (never a selection seed
#: a run is likely to be given).
EVAL_SEED = 1_000_000_007

#: Worker count of the process-pool workloads (the machine has 2 cores).
POOL_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    dataset_kwargs: dict
    algorithm: str
    algorithm_kwargs: dict
    backend: str  # "serial" or "process"
    eval_samples: int
    #: Median spread over selection seeds 0..10 (douban: over 40 seeds
    #: derived as a run derives them) at the commit that added this
    #: benchmark.
    reference_spread: float
    #: A returned group's spread may fall this share below
    #: ``reference_spread`` before the operation counts as failed: more
    #: than the lowest selection seed seen falls.
    spread_tolerance: float
    #: Seed-group digest and spread of selection seed 0 at that commit;
    #: ``run.py --self-test`` requires both to be reproduced exactly.
    seed0_digest: str
    seed0_spread: float
    #: Each operation times dataset loads for at least this long: half
    #: before the plan (the last load feeds it), the rest after the
    #: evaluation, so setup_s is a median over many loads.
    setup_min_seconds: float = 1.0
    #: Each operation repeats its evaluation (the first operation of a
    #: run at least twice, to check that repeats agree) for at least
    #: this long, so eval_reps_per_s is a median over many repeats.
    eval_min_seconds: float = 1.5


_FIG9 = {"budget": 500.0, "n_promotions": 10, "cost_scale": 4.0}

WORKLOADS = {
    w.name: w
    for w in (
        # The paper's Fig. 9(d/g) setting at 120 users and a fraction of
        # the fig9 sweeps' TDSI and nominee samples, so a plan takes
        # ~1.4 s and a run holds ~16: at 180 users and the sweep counts a
        # plan took 5..9 s, a run held four, and the median's spread
        # across runs reached 0.30.  TDSI and MC-gain nominee CELF make
        # up the plan; no realization bank, no pool, so every
        # CampaignSimulator.run and aggregated_influence_vector call is
        # in the parent, where the traced run counts it.
        Workload(
            name="fig9-amazon-mc",
            dataset="amazon",
            dataset_kwargs={"scale": 0.3, **_FIG9},
            algorithm="Dysim",
            algorithm_kwargs={
                "n_samples": 2,
                "n_samples_selection": 4,
                "candidate_pool": 20,
                "oracle": "mc",
            },
            backend="serial",
            eval_samples=50,
            reference_spread=92.38,
            spread_tolerance=0.04,
            seed0_digest="f53f6b30ff84d38e",
            seed0_spread=92.15107448413204,
            setup_min_seconds=0.15,
            eval_min_seconds=0.3,
        ),
        # 16 sketch worlds for selection and 16 MC samples for TDSI,
        # dispatched through a 2-worker process pool: the only workload
        # where per-dispatch pool overhead and the bank dominate.  At
        # 64 a plan took 11-14 s and a run held one or two.
        Workload(
            name="fig9-douban-sketch-pool",
            dataset="douban",
            dataset_kwargs=dict(_FIG9),
            algorithm="Dysim",
            algorithm_kwargs={"n_samples": 16, "oracle": "sketch"},
            backend="process",
            eval_samples=200,
            eval_min_seconds=2.0,
            # 40 seeds fell at most 0.34% below the median, but one
            # more seed of a ten-run set fell 2.3% (120.98).
            reference_spread=123.78,
            spread_tolerance=0.04,
            seed0_digest="541b48e4f1d179f4",
            seed0_spread=123.66596205084984,
        ),
        # Selection only at 1e5 users: RR sampling and the index build
        # dominate, and the dense membership matrix sets peak memory.
        Workload(
            name="scale-100k-rrset",
            dataset="synth-100k",
            dataset_kwargs={},
            algorithm="DysimSelect",
            algorithm_kwargs={
                "n_samples": 16384,
                "oracle": "rrset",
                "candidate_pool": 2000,
            },
            backend="process",
            eval_samples=32,
            # One load (1.1 s) covers the first half; a run then holds
            # four or five operations instead of three.
            setup_min_seconds=0.5,
            reference_spread=577.17,
            spread_tolerance=0.08,
            seed0_digest="fd525bf292c97553",
            seed0_spread=577.1232777449659,
        ),
    )
}

#: Which end-to-end metric each per-layer metric should move, and on
#: which workloads (written down before any optimisation is measured).
LAYER_PREDICTIONS = {
    "repro.data": (
        "data.build_s", "setup_s", "moves in rrset (~1 s); about 0 elsewhere"),
    "repro.sketch (oracle prep)": (
        "oracle.prepare_s, sketch.skeleton_s", "plan_s",
        "moves in rrset and douban; should not move in amazon-mc"),
    "repro.sketch.bank": (
        "bank.reach_hits, bank.reach_misses, bank.reach_evictions",
        "plan_s", "moves in douban only"),
    "repro.sketch.rrset": (
        "rrset.samples, rrset.member_mb, rrset.queries",
        "peak_rss_mb, plan_s", "moves in rrset only"),
    "repro.core.dysim.nominees + repro.core.selection": (
        "dysim.nominees_s, selection.gain_evals", "plan_s",
        "all three; largest share in amazon-mc"),
    "repro.core.dysim.clustering / markets": (
        "dysim.markets_s, dysim.n_markets", "plan_s",
        "guard only (<1% today); absent in rrset"),
    "repro.core.dysim.reachability (DRE)": (
        "dysim.dre_s", "plan_s", "amazon-mc, douban"),
    "repro.core.dysim.timing (TDSI)": (
        "dysim.tdsi_s, dysim.tdsi_calls, dysim.si_evals", "plan_s",
        "moves in amazon-mc and douban; should not move in rrset"),
    "repro.diffusion.montecarlo": (
        "mc.estimate_calls, mc.estimate_s, mc.replications, mc.cache_hits, "
        "mc.cache_misses, mc.cache_hit_ratio", "plan_s", "amazon-mc, douban"),
    "repro.diffusion.campaign / models": (
        "campaign.runs, diffusion.ais_calls", "plan_s",
        "amazon-mc; parent-side calls only"),
    "repro.engine": (
        "engine.dispatches, engine.chunks, engine.dispatch_s, "
        "engine.retries, engine.pool_rebuilds", "plan_s, success_rate",
        "moves in douban and rrset; serial dispatch only in amazon-mc"),
    "repro.eval": (
        "eval.replications, eval.evaluate_s", "eval_reps_per_s",
        "all; the 100k-graph case is rrset only"),
}
