"""Reference kernels: test oracles and benchmark baselines only.

The production code picks one kernel per layer (the vectorized or
lockstep diffusion step, the packed multi-world reachability BFS).  The
straightforward implementations they replaced live on here, unchanged
in semantics, because they are the executable specification the fast
paths are pinned against bit for bit — and the baselines the scaling
benchmarks report speedups over.  Nothing under ``repro`` imports this
module.

* :class:`ScalarCampaignSimulator` — the per-arc diffusion step, one
  ``rng.random()`` per influence coin, in the canonical event order.
* :class:`PerWorldBank` — a realization bank whose stack misses run one
  Python BFS per realized world (:class:`~repro.sketch.bank.
  ReachabilitySketch`) instead of the multi-world BFS.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

import numpy as np

from repro.diffusion.campaign import CampaignSimulator
from repro.diffusion.models import DiffusionModel
from repro.perception.state import PerceptionState
from repro.sketch.bank import RealizationBank

__all__ = ["PerWorldBank", "ScalarCampaignSimulator"]


class ScalarCampaignSimulator(CampaignSimulator):
    """:class:`CampaignSimulator` with the scalar per-arc step.

    Same constructor, same :meth:`run`; only the step's implementation
    differs, and by contract not its outcome: adoption for adoption and
    draw for draw.
    """

    def _diffusion_step(
        self,
        frontier: list[tuple[int, int]],
        state: PerceptionState,
        new_adoptions: np.ndarray,
        rng: np.random.Generator,
        lt_thresholds: dict[tuple[int, int], float],
    ) -> list[tuple[int, int]]:
        """Scalar reference step (the pre-CSR per-arc loop).

        Kept as the executable specification of the event order: the
        equivalence suite asserts the vectorized kernel reproduces it
        bit for bit, adoptions and RNG stream position alike.
        """
        step_adoptions: dict[int, set[int]] = defaultdict(set)
        use_lt = self.model is DiffusionModel.LINEAR_THRESHOLD

        for promoter, item in frontier:
            for target in state.network.out_neighbors(promoter):
                strength = state.influence(promoter, target)
                if strength <= 0.0:
                    continue
                if not state.has_adopted(target, item):
                    adopted_item = False
                    if use_lt:
                        adopted_item = self._lt_decision(
                            target, item, state, rng, lt_thresholds
                        )
                    else:
                        preference = state.preference_of(target, item)
                        adopted_item = rng.random() < strength * preference
                    if adopted_item:
                        step_adoptions[target].add(item)
                # Item associations: being *promoted* item may trigger
                # extra adoptions of relevant items regardless of the
                # decision on the promoted item itself (footnote 9) —
                # and regardless of whether the target had already
                # adopted it: the association coin belongs to the
                # promotion event, not to the influence decision.
                # (Lemma 1 realizes exactly one such coin per
                # (arc, item, item); gating it on adoption history
                # would make the frozen spread order-dependent and
                # break the submodularity the guarantee rests on.)
                # The candidate filter and the coin flips are batched;
                # ``rng.random(k)`` consumes the identical substream as
                # ``k`` scalar draws, so realizations match the former
                # per-item loop bit for bit.
                extra = state.extra_adoption_probs(target, promoter, item)
                candidates = np.flatnonzero(
                    extra > self.extra_adoption_floor
                )
                if candidates.size:
                    adopted_mask = state.adopted_row(target)
                    eligible = candidates[
                        (candidates != item) & ~adopted_mask[candidates]
                    ]
                    if eligible.size:
                        draws = rng.random(eligible.size)
                        for other in eligible[draws < extra[eligible]]:
                            step_adoptions[target].add(int(other))

        return self._commit_step(step_adoptions, state, new_adoptions)

    def _lt_decision(
        self,
        user: int,
        item: int,
        state: PerceptionState,
        rng: np.random.Generator,
        thresholds: dict[tuple[int, int], float],
    ) -> bool:
        """LT rule: accumulated weighted influence crosses a threshold.

        Thresholds are drawn once per (user, item) per realization, as
        in the classical LT model; the preference gates the accumulated
        mass so low-preference users need more adopting friends.
        """
        key = (user, item)
        if key not in thresholds:
            thresholds[key] = float(rng.random())
        total = 0.0
        for neighbour in state.network.in_neighbors(user):
            if item in state.adopted[neighbour]:
                total += state.influence(neighbour, user)
        total = min(1.0, total) * state.preference_of(user, item)
        return total >= thresholds[key]


class PerWorldBank(RealizationBank):
    """:class:`RealizationBank` filling stack misses world by world.

    Each miss stacks the memoized single-world BFS masks of the M
    :attr:`~RealizationBank.worlds`; the LRU, byte accounting and every
    query above it are the production bank's, so stacks, sigmas and
    hit / miss / eviction counters must all match it exactly.
    """

    def _compute_stacks(
        self, missing: Sequence[int]
    ) -> dict[int, np.ndarray]:
        worlds = self.worlds
        return {
            pair: np.stack([world.reach_packed(pair) for world in worlds])
            for pair in missing
        }
