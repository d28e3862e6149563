"""Spectral analysis and guidance-weight optimization for guided DDIM samplers
on circulant Gaussian models."""

__version__ = "0.1.0"

from .spectral import (
    SpectralPrior,
    DegradationSpec,
    DiagGaussian,
    Observation,
    circulant_eigenvalues,
    make_synthetic_prior,
    make_lpf,
    with_noise,
    sample_prior,
    degrade,
    true_posterior,
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
    prior_optimal_denoise,
    posterior_optimal_denoise,
    step_multipliers,
    batch_triples,
    output_distribution,
    transfer_triple,
    ideal_triple,
    pigdm_heuristic_weights,
)
from .objective import (
    WienerGain,
    LossContext,
    w2_diag,
    wiener_gain,
    triples_loss,
    batch_loss,
    realization_loss,
    averaged_loss_analytic,
    averaged_loss_empirical,
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
    simulate_one,
    monte_carlo,
    heuristic_weight_profile,
    heuristic_zeta,
)
