"""shelab: a desk-scale laboratory for the stochastic heat equation.

The equation is du = (kappa/2) Lap u dt + sigma(u) dF with F Gaussian,
white in time and spatially correlated with covariance kernel f.  The
package provides the correlation models and their spectral calculus, a
periodic lattice with an exact heat propagator, correlated noise slice
generation, exponential-Euler and localized Picard solvers, replica-farm
estimators with jackknife errors, a Feynman-Kac moment oracle, and a
manifest-driven CLI with deterministic, bit-reproducible outputs.
"""

from .correlation import (
    CorrelationError,
    CorrelationModel,
    DalangResult,
    dalang_condition,
    evaluate_f_radial,
    kernel_h_hat_radial,
    riesz_spectral_constant,
    sphere_surface,
    spectral_density_radial,
)
from .lattice import (
    LatticeError,
    LatticeGrid,
    propagator_multiplier,
)
from .noise import (
    NoiseError,
    WhiteNoiseSource,
    covariance_selftest,
    effective_covariance,
    kernel_multiplier,
    white_steps,
)
from .solver import (
    LocalizationConfig,
    SigmaFunction,
    SolverBlowup,
    SolverConfig,
    SolverError,
    U0Spec,
    localized_solve_batch,
    solve_batch,
)
from .analysis import (
    AnalysisError,
    BoundednessProbe,
    ExponentFit,
    FkOracleConfig,
    FkOracleResult,
    IndependenceResult,
    LocalizationCurve,
    MomentReport,
    Scenario,
    TailEstimate,
    boundedness_probe,
    estimate_moments,
    fk_moment_oracle,
    fluctuation_exponent,
    independence_test,
    jackknife_stat,
    localization_error_curve,
    moment_growth_exponent,
    replica_map,
    tail_estimate,
    wilson_interval,
)
from .experiments import (
    BundleError,
    ManifestError,
    ResultBundle,
    load_manifest,
    load_snapshot,
    manifest_hash,
    read_bundle,
    render_report,
    run,
    save_snapshot,
    validate_manifest,
)

__version__ = "0.1.0"
