"""Lockstep chunk routing: the code picks the diffusion kernel.

``run_chunk`` plays a whole chunk of replications in one packed
``run_campaigns_lockstep`` call exactly when the recipe allows it
(frozen dynamics, no resumed state, no likelihood / weight / adoption
collectors) and replays the per-replication kernel otherwise.  Both
routes are bit-identical by construction — these tests pin that
against the scalar reference loop, plus the surfaces around it: the
``lockstep_applicable`` gate, the backend chunk coarsening to one chunk
per worker, and the compiled association scan when numba imports.
"""

import numpy as np
import pytest

from repro._reference import ScalarCampaignSimulator
from repro.core.problem import Seed, SeedGroup
from repro.diffusion import repkernel
from repro.diffusion.models import DiffusionModel, adoption_likelihood
from repro.diffusion.montecarlo import SigmaEstimator
from repro.diffusion.repkernel import HAVE_NUMBA
from repro.engine import (
    ReplicationTask,
    SerialBackend,
    ThreadBackend,
    run_chunk,
)
from repro.engine import replication
from repro.engine.replication import lockstep_applicable
from repro.utils.rng import RngFactory, spawn_rng

from tests.conftest import build_tiny_instance

GROUP = SeedGroup([Seed(0, 0, 1), Seed(2, 1, 2)])


def _task(instance, **overrides):
    kwargs = dict(
        instance=instance,
        model=DiffusionModel.INDEPENDENT_CASCADE,
        rng_seed=9,
        rng_context=("mc",),
        seed_group=GROUP,
    )
    kwargs.update(overrides)
    return ReplicationTask(**kwargs)


def _reference_loop(task, indices):
    """The scalar per-replication loop every route must reproduce."""
    simulator = ScalarCampaignSimulator(task.instance, model=task.model)
    restrict = (
        set(task.restrict_users) if task.restrict_users is not None else None
    )
    sigmas, restricted, likelihoods, weights = [], [], [], None
    for i in indices:
        outcome = simulator.run(
            task.seed_group,
            spawn_rng(task.rng_seed, *task.rng_context, i),
            until_promotion=task.until_promotion,
            initial_state=task.initial_state,
            start_promotion=task.start_promotion,
        )
        sigmas.append(outcome.sigma)
        restricted.append(
            outcome.sigma_restricted(restrict) if restrict else 0.0
        )
        if task.compute_likelihood:
            users = restrict or set(range(task.instance.n_users))
            likelihoods.append(
                adoption_likelihood(outcome.state, task.model, users)
            )
        if task.collect_weights:
            if weights is None:
                weights = np.zeros_like(outcome.state.weights)
            weights += outcome.state.weights
    return np.array(sigmas), np.array(restricted), likelihoods, weights


@pytest.fixture()
def frozen_instance():
    return build_tiny_instance().frozen()


@pytest.fixture()
def lockstep_calls(monkeypatch):
    """Replication counts of every packed lockstep call ``run_chunk``
    makes (the spy delegates, so results are unchanged)."""
    calls: list[int] = []
    real = replication.run_campaigns_lockstep

    def spy(instance, seed_group, rngs, **kwargs):
        calls.append(len(rngs))
        return real(instance, seed_group, rngs, **kwargs)

    monkeypatch.setattr(replication, "run_campaigns_lockstep", spy)
    return calls


class TestApplicability:
    def test_frozen_task_is_applicable(self, frozen_instance):
        assert lockstep_applicable(_task(frozen_instance))

    def test_dynamic_instance_is_not(self):
        instance = build_tiny_instance()
        assert not instance.dynamics.is_frozen
        assert not lockstep_applicable(_task(instance))

    def test_state_collectors_and_resumed_state_disqualify(
        self, frozen_instance
    ):
        for disqualifier in (
            dict(compute_likelihood=True),
            dict(collect_weights=True),
            dict(collect_adoptions=True),
            dict(initial_state=frozen_instance.new_state()),
        ):
            task = _task(frozen_instance, **disqualifier)
            assert not lockstep_applicable(task), sorted(disqualifier)


class TestAutomaticRouting:
    def test_frozen_estimate_runs_one_lockstep_chunk_per_worker(
        self, frozen_instance, lockstep_calls
    ):
        def estimate(backend):
            return SigmaEstimator(
                frozen_instance,
                n_samples=8,
                rng_factory=RngFactory(5),
                backend=backend,
            ).estimate(GROUP)

        serial = estimate(SerialBackend())
        with ThreadBackend(workers=2) as pool:
            pooled = estimate(pool)
        # Serial: one chunk of all 8; two workers: one chunk each.
        assert lockstep_calls == [8, 4, 4]
        assert serial.sigma == pooled.sigma
        assert serial.sigma_std == pooled.sigma_std
        sigmas, _, _, _ = _reference_loop(
            _task(frozen_instance, rng_seed=5), range(8)
        )
        assert serial.sigma == float(sigmas.mean())

    @pytest.mark.parametrize(
        "recipe",
        ["dynamic", "likelihood", "weights", "adoptions", "resumed"],
    )
    def test_other_recipes_replay_per_replication(
        self, frozen_instance, lockstep_calls, recipe
    ):
        instance = build_tiny_instance() if recipe == "dynamic" else (
            frozen_instance
        )
        overrides = {
            "dynamic": {},
            "likelihood": dict(compute_likelihood=True),
            "weights": dict(collect_weights=True),
            "adoptions": dict(collect_adoptions=True),
            "resumed": dict(initial_state=frozen_instance.new_state()),
        }[recipe]
        task = _task(instance, **overrides)
        result = run_chunk(task, list(range(6)))
        assert lockstep_calls == []
        sigmas, _, likelihoods, weights = _reference_loop(task, range(6))
        assert np.array_equal(result.sigmas, sigmas)
        if likelihoods:
            assert np.array_equal(result.likelihoods, likelihoods)
        if weights is not None:
            assert np.array_equal(result.weights_sum, weights)


class TestRunChunkEquivalence:
    def test_lockstep_chunk_matches_reference_loop(
        self, frozen_instance, lockstep_calls
    ):
        restrict = frozenset(range(0, frozen_instance.n_users, 2))
        task = _task(frozen_instance, restrict_users=restrict)
        packed = run_chunk(task, list(range(6)))
        assert lockstep_calls == [6]
        sigmas, restricted, _, _ = _reference_loop(task, range(6))
        assert np.array_equal(packed.sigmas, sigmas)
        assert np.array_equal(packed.restricted, restricted)

    def test_dynamic_chunk_matches_reference_loop(self):
        instance = build_tiny_instance()
        task = _task(instance, collect_weights=True)
        result = run_chunk(task, [0, 1, 2])
        sigmas, _, _, weights = _reference_loop(task, [0, 1, 2])
        assert np.array_equal(result.sigmas, sigmas)
        assert np.array_equal(result.weights_sum, weights)

    def test_backend_coarse_chunks_match_serial(self, frozen_instance):
        task = _task(frozen_instance)
        serial = SerialBackend().run(task, 9)
        with ThreadBackend(workers=3) as pool:
            pooled = pool.run(task, 9)
        sigmas, _, _, _ = _reference_loop(task, range(9))
        assert np.array_equal(serial.sigmas, sigmas)
        assert np.array_equal(pooled.sigmas, sigmas)


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
def test_lockstep_pass_calls_compiled_scan(frozen_instance, monkeypatch):
    """With numba importable the packed pass runs the compiled
    association loops without being asked to."""
    assert frozen_instance.dynamics.association_scale != 0.0
    calls = {"count": 0, "decide": 0}
    real_count = repkernel._count_extras_compiled
    real_decide = repkernel._decide_ic_compiled

    def count(*args):
        calls["count"] += 1
        return real_count(*args)

    def decide(*args):
        calls["decide"] += 1
        return real_decide(*args)

    monkeypatch.setattr(repkernel, "_count_extras_compiled", count)
    monkeypatch.setattr(repkernel, "_decide_ic_compiled", decide)
    task = _task(frozen_instance)
    packed = run_chunk(task, list(range(6)))
    assert calls["count"] > 0 and calls["decide"] > 0
    sigmas, _, _, _ = _reference_loop(task, range(6))
    assert np.array_equal(packed.sigmas, sigmas)
