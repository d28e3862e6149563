"""Spectral analysis and guidance-weight optimization for guided DDIM samplers
on circulant Gaussian models."""

__version__ = "0.1.0"

from .spectral import (
    SpectralPrior,
    DegradationSpec,
    Observation,
    circulant_eigenvalues,
    make_synthetic_prior,
    make_lpf,
    sample_prior,
    degrade,
    estimate_spectral_prior,
    hermitian_mismatch,
)
from .schedule import (
    Schedule,
    StepCoeffs,
    linear_ddpm_schedule,
    ddim_subsequence,
    step_coeffs_scalar,
    denoiser_coeffs,
    step_coeffs,
)
from .transfer import (
    DPS,
    PIGDM,
    IDEAL,
    WeightSchedule,
    TransferTriple,
    StepTable,
    batch_triples,
    transfer_triple,
    ideal_triple,
    pigdm_heuristic_weights,
)
from .objective import (
    LossContext,
    triples_loss,
    triples_loss_cotangents,
    batch_loss,
    loss_and_gradient,
    weights_loss,
    triple_realization_loss,
)
from .optimizer import (
    OptimizeOptions,
    WeightSolution,
    optimize_weights,
    iterative_ladder,
    reduce_dimensions,
    default_init,
    interpolate_weights,
    pigdm_from_dps,
)
from .simulator import (
    Guidance,
    SimConfig,
    RunStats,
    monte_carlo,
    heuristic_weight_profile,
    heuristic_zeta,
)
