"""Multi-promotion diffusion: trigger models, simulator, Monte Carlo."""

from repro.diffusion.models import (
    DiffusionModel,
    adoption_likelihood,
    aggregated_influence,
    aggregated_influence_vector,
)
from repro.diffusion.campaign import CampaignOutcome, CampaignSimulator
from repro.diffusion.montecarlo import MonteCarloEstimate, SigmaEstimator
from repro.diffusion.repkernel import (
    LockstepOutcome,
    ReplicationLayout,
    lockstep_supported,
    run_campaigns_lockstep,
)

__all__ = [
    "DiffusionModel",
    "adoption_likelihood",
    "aggregated_influence",
    "aggregated_influence_vector",
    "CampaignOutcome",
    "CampaignSimulator",
    "MonteCarloEstimate",
    "SigmaEstimator",
    "LockstepOutcome",
    "ReplicationLayout",
    "lockstep_supported",
    "run_campaigns_lockstep",
]
