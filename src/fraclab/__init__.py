"""fraclab: a spectral laboratory for fractional dissipative flows.

Periodic-grid spectral fields, dyadic (annulus) frequency decomposition with
homogeneous Besov and mixed time-frequency norms, the exact linear semigroup
with a continuum frequency oracle, pseudo-spectral solvers for the
surface quasi-geostrophic flow and the fractional Keller-Segel system, and
tooling to measure temporal decay rates against their theoretical exponents.
"""

__version__ = "0.1.0"

from .spectral import (
    Grid2D,
    RealField,
    SpectralField,
    MultiplierSpec,
    SpectralError,
    forward_transform,
    inverse_transform,
    apply_fourier_multiplier,
    dealias,
)
from .bsvf import read_bsvf, write_bsvf
from .littlewood_paley import (
    BesovParams,
    BlockRange,
    DyadicProfile,
    besov_norm,
    block_range,
    bony_decompose,
    build_dyadic_profile,
    chemin_lerner_norm,
    lebesgue_norm,
    project,
)
from .decay import (
    DecayClaim,
    FitResult,
    GradedFit,
    NormSeries,
    fit_decay_slope,
    theoretical_exponent,
)
from .semigroup import (
    RadialSpectralDensity,
    evolve_linear,
    oracle_besov_series,
    oracle_block_norm,
)
from .evolution import InitialSpectrum, RunConfig, RunResult, log_spaced_times
from .sqg import run_sqg, sqg_rhs, sqg_step, sqg_velocity
from .keller_segel import ks_potential, ks_rhs, ks_step, run_ks

__all__ = [
    "__version__",
    "Grid2D",
    "RealField",
    "SpectralField",
    "MultiplierSpec",
    "SpectralError",
    "forward_transform",
    "inverse_transform",
    "apply_fourier_multiplier",
    "dealias",
    "read_bsvf",
    "write_bsvf",
    "BesovParams",
    "BlockRange",
    "DyadicProfile",
    "besov_norm",
    "block_range",
    "bony_decompose",
    "build_dyadic_profile",
    "chemin_lerner_norm",
    "lebesgue_norm",
    "project",
    "DecayClaim",
    "FitResult",
    "GradedFit",
    "NormSeries",
    "fit_decay_slope",
    "theoretical_exponent",
    "RadialSpectralDensity",
    "evolve_linear",
    "oracle_besov_series",
    "oracle_block_norm",
    "InitialSpectrum",
    "RunConfig",
    "RunResult",
    "log_spaced_times",
    "run_sqg",
    "sqg_rhs",
    "sqg_step",
    "sqg_velocity",
    "ks_potential",
    "ks_rhs",
    "ks_step",
    "run_ks",
]
