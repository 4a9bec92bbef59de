"""Bundled property suite: the one place where each module invariant is measured.

Every check is a function ``check(rng=None, **inputs) -> PropertyResult``
registered in ``CHECKS`` under its dotted name, in print order. It measures
one value and compares it with one bound (``passed`` is value <= bound);
range conditions are stated as a distance from the expected value, so
3.5 <= ratio <= 4.5 reads |ratio - 4| <= 0.5. The inputs default to the
selftest's own (a 64^2 torus, a handful of samples), and a caller may pass
others, such as a larger grid, more samples or its own rng, to run the same
measurement on them. Without an rng a check draws from its own child stream
of ``DEFAULT_SEED``, the stream ``run_selftest`` gives it, so editing one
check never reshuffles another's samples. Up-to-constant inequalities are
exercised as stability-of-ratio checks (constants measured, drift bounded),
never as absolute bounds with invented constants.
"""

from __future__ import annotations

import functools
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import decay, semigroup
from .evolution import log_spaced_times
from .keller_segel import KSState, ks_potential, ks_step
from .littlewood_paley import (
    BesovParams,
    besov_norm,
    block_multiplier,
    block_norms,
    block_range,
    bony_decompose,
    build_dyadic_profile,
    chemin_lerner_norm,
    lebesgue_norm,
)
from .spectral import (
    Grid2D,
    MultiplierSpec,
    RealField,
    SpectralField,
    apply_fourier_multiplier,
    dealias,
    dealias_mask,
    forward_transform,
    hermitian_defect,
    hermitian_noise,
    inverse_transform,
)
from .sqg import SQGState, sqg_step, sqg_velocity

__all__ = ["CHECKS", "PropertyResult", "random_band_field", "run_selftest", "shell_field"]

DEFAULT_SEED = 2024
PROFILE = build_dyadic_profile()
GRID = Grid2D(64, 2 * math.pi)
OFF_GRID = Grid2D(64, 3.0)  # wavenumbers 2 pi k / 3 are not integers
DENSE = Grid2D(128, 2 * math.pi)
ORACLE_CONFIG = {"kind": "oracle", "alpha": 2.0, "s": 1.0, "ell": 0.0, "t_lo": 10.0,
                 "t_hi": 100.0, "samples_per_decade": 12, "seed": 5}


@dataclass(frozen=True)
class PropertyResult:
    name: str
    value: float
    bound: float
    detail: str

    @property
    def passed(self) -> bool:
        return self.value <= self.bound  # a NaN value fails


CHECKS: dict[str, Callable[..., PropertyResult]] = {}


def _check(name: str, bound: float):
    """Register measure(rng, **inputs) -> (value, detail) as the check ``name``."""

    def register(measure):
        index = len(CHECKS)

        @functools.wraps(measure)
        def run(rng=None, **inputs) -> PropertyResult:
            if rng is None:
                rng = np.random.default_rng([DEFAULT_SEED, index])
            value, detail = measure(rng, **inputs)
            return PropertyResult(name, float(value), bound, detail)

        CHECKS[name] = run
        return run

    return register


def run_selftest(seed: int = DEFAULT_SEED) -> list[PropertyResult]:
    """Every check in order, check i drawing from child stream [seed, i]."""
    return [check(np.random.default_rng([seed, i])) for i, check in enumerate(CHECKS.values())]


# ------------------------------------------------------------------- inputs


def random_band_field(grid: Grid2D, rng, zero_mean: bool = True) -> RealField:
    """Random real field band-limited to the 2/3-rule band."""
    c = np.where(dealias_mask(grid), hermitian_noise(grid, rng), 0.0)
    if zero_mean:
        c[0, 0] = 0.0
    return inverse_transform(SpectralField(grid, c, check=False))


def shell_field(grid: Grid2D, j: int, rng, profile) -> RealField:
    """Random field spectrally supported in the level-j annulus."""
    mask = block_multiplier(grid, j, "block", profile)
    c = np.where(mask > 0, hermitian_noise(grid, rng), 0.0)
    c[0, 0] = 0.0
    return inverse_transform(SpectralField(grid, c, check=False))


def _scaled_field(grid: Grid2D, rng, amplitude: float, zero_mean: bool = True) -> RealField:
    """A random band field rescaled to max |f| = amplitude."""
    f = random_band_field(grid, rng, zero_mean)
    return RealField(grid, amplitude * f.values / np.abs(f.values).max())


def _rel(a, b) -> float:
    return float(np.abs(a - b).max()) / (float(np.abs(b).max()) or 1.0)


def _l2(grid: Grid2D, coeffs) -> float:
    """L^2 norm of a field from its coefficients (Parseval)."""
    return grid.L * math.sqrt(np.vdot(coeffs, coeffs).real)


def _to_phys(grid: Grid2D, coeffs) -> np.ndarray:
    return np.fft.ifft2(coeffs * grid.n ** 2).real


def _path(step, state, steps: int, dt: float = 0.02) -> list:
    """The states along ``steps`` steps of size dt, the initial one first."""
    out = [state]
    for _ in range(steps):
        out.append(step(out[-1], dt))
    return out


def _sqg_paths(grid: Grid2D, rng, samples: int, amplitude: float, steps: int):
    """theta along ``steps`` steps from each of ``samples`` seeded fields, one path at a time."""
    for _ in range(samples):
        yield [s.theta for s in _path(sqg_step, SQGState(_scaled_field(grid, rng, amplitude), 0.0, 1.0), steps)]


def _dt_ratio(step, base, values) -> float:
    """|w(h) - w(h/2)| / |w(h/2) - w(h/4)| at T = 0.4, h = 0.04 (4 at second order)."""
    w1, w2, w4 = (values(_path(step, base, n, dt)[-1]) for dt, n in ((0.04, 10), (0.02, 20), (0.01, 40)))
    return float(np.abs(w1 - w2).max()) / float(np.abs(w2 - w4).max())


# ---------------------------------------------------------------- spectral


@_check("spectral.roundtrip", 1e-12)
def spectral_roundtrip(rng, grid=GRID, samples=20):
    worst = 0.0
    for _ in range(samples):
        f = random_band_field(grid, rng, zero_mean=False)
        worst = max(worst, _rel(inverse_transform(forward_transform(f)).values, f.values))
    return worst, f"max rel err of inverse(forward f), {samples} fields with mean"


@_check("spectral.parseval", 1e-12)
def spectral_parseval(rng, grid=OFF_GRID, samples=20):
    worst = 0.0
    for _ in range(samples):
        f = random_band_field(grid, rng)
        l2 = lebesgue_norm(f, 2.0)
        worst = max(worst, abs(l2 - _l2(grid, forward_transform(f).coefficients)) / l2)
    return worst, f"max rel gap ||f||_2 vs L (sum |c|^2)^1/2, {samples} fields, L = {grid.L:g}"


@_check("spectral.hermitian", 1e-12)
def spectral_hermitian(rng, grid=GRID, samples=20):
    worst = 0.0
    for _ in range(samples):
        c = forward_transform(random_band_field(grid, rng)).coefficients
        worst = max(worst, hermitian_defect(c) / float(np.abs(c).max()))
    return worst, f"max |c(-k) - conj c(k)| / max |c|, {samples} fields"


@_check("spectral.multiplier_linearity", 1e-12)
def spectral_multiplier_linearity(rng, grid=GRID, multiplier=MultiplierSpec.fractional_laplacian(0.7)):
    f, g = (forward_transform(random_band_field(grid, rng)) for _ in range(2))
    combo = SpectralField(grid, 2.0 * f.coefficients + 3.0 * g.coefficients, check=False)
    lhs = apply_fourier_multiplier(combo, multiplier).coefficients
    rhs = 2.0 * apply_fourier_multiplier(f, multiplier).coefficients
    rhs = rhs + 3.0 * apply_fourier_multiplier(g, multiplier).coefficients
    return _rel(lhs, rhs), f"rel defect of {multiplier.kind} on 2f + 3g"


@_check("spectral.power_composition", 1e-12)
def spectral_power_composition(rng, grid=OFF_GRID):
    sp = forward_transform(random_band_field(grid, rng))
    once = apply_fourier_multiplier(
        apply_fourier_multiplier(sp, MultiplierSpec.fractional_laplacian(0.6)),
        MultiplierSpec.fractional_laplacian(0.9),
    ).coefficients
    both = apply_fourier_multiplier(sp, MultiplierSpec.fractional_laplacian(1.5)).coefficients
    return _rel(once, both), f"rel defect |xi|^0.9 |xi|^0.6 vs |xi|^1.5, L = {grid.L:g}"


@_check("spectral.partial_exact", 1e-12)
def spectral_partial_exact(rng, grid=GRID):
    x1, _ = grid.coordinates()
    k = 2 * math.pi / grid.L
    sine = forward_transform(RealField(grid, np.sin(k * x1)))
    d = apply_fourier_multiplier(sine, MultiplierSpec.partial(1))
    return _rel(inverse_transform(d).values, k * np.cos(k * x1)), "max rel err of d/dx1 sin(xi_min x1)"


# ---------------------------------------------------------- littlewood-paley


@_check("lp.partition_of_unity", 1e-10)
def lp_partition_of_unity(rng, radii=10_000):
    rs = np.exp(np.linspace(math.log(2.0 ** -20), math.log(2.0 ** 20), radii))
    worst = float(np.abs(PROFILE.partition_sum(rs) - 1.0).max())
    return worst, f"max |sum_j phi(2^-j r) - 1| over {radii} radii in [2^-20, 2^20]"


@_check("lp.almost_orthogonality", 1e-12)
def lp_almost_orthogonality(rng, grid=GRID, samples=10):
    masks = {j: block_multiplier(grid, j, "block", PROFILE) for j in block_range(grid, PROFILE)}
    worst = 0.0
    for _ in range(samples):
        c = forward_transform(random_band_field(grid, rng)).coefficients
        norm = _l2(grid, c)
        for j, mj in masks.items():
            dj = mj * c
            for i, mi in masks.items():
                if abs(i - j) >= 2:
                    worst = max(worst, _l2(grid, mi * dj) / norm)
    return worst, f"max ||D_i D_j f||_2 / ||f||_2 over |i - j| >= 2, {samples} fields"


@_check("lp.paraproduct_remote_zero", 1e-8)
def lp_paraproduct_remote_zero(rng, grid=GRID, pairs=4):
    levels = block_range(grid, PROFILE)
    keep = dealias_mask(grid)
    worst = 0.0
    for _ in range(pairs):
        f, g = random_band_field(grid, rng), random_band_field(grid, rng)
        cf, cg = forward_transform(f).coefficients, forward_transform(g).coefficients
        scale = lebesgue_norm(f, 2.0) * lebesgue_norm(g, 2.0)
        for j in levels:
            low = _to_phys(grid, block_multiplier(grid, j - 1, "low_pass", PROFILE) * cf)
            blk = _to_phys(grid, block_multiplier(grid, j, "block", PROFILE) * cg)
            prod = np.where(keep, np.fft.fft2(low * blk) / grid.n ** 2, 0.0)
            lv, norms = block_norms(SpectralField(grid, prod, check=False), 2.0, PROFILE, levels)
            worst = max(worst, float(norms[np.abs(lv - j) >= 5].max(initial=0.0)) / scale)
    return worst, f"max ||D_i (S_j-1 f D_j g)||_2 / (||f||_2 ||g||_2) over |i - j| >= 5, {pairs} pairs"


@_check("lp.interpolation_constant_one", 1e-10)
def lp_interpolation_constant_one(rng, grid=GRID, samples=10):
    worst = -math.inf
    for _ in range(samples):
        levels, blocks = block_norms(random_band_field(grid, rng), 2.0, PROFILE)

        def norm(s):  # ||f||_{B^s_{2,2}}
            return float(np.sum((2.0 ** (levels * s) * blocks) ** 2) ** 0.5)

        lo, hi = norm(-1.0), norm(1.0)
        for theta in (0.25, 0.5, 0.75):
            worst = max(worst, norm(-theta + (1 - theta)) / (lo ** theta * hi ** (1 - theta)) - 1.0)
    return worst, f"max B^s_2,2 / (B^-1)^theta (B^1)^(1-theta) - 1, theta = 1/4, 1/2, 3/4, {samples} fields"


@_check("lp.bernstein_annulus_stability", 0.05)
def lp_bernstein_annulus_stability(rng, grid=DENSE, samples=8):
    # Levels need enough lattice radii per annulus to sample it like the
    # continuum, so this and the smoothing check run on dense shells of a
    # 128 grid.
    means = []
    for j in (2, 3, 4):
        ratios = []
        for _ in range(samples):
            f = shell_field(grid, j, rng, PROFILE)
            c = forward_transform(f).coefficients
            grad = np.hypot(_to_phys(grid, 1j * grid.xi1 * c), _to_phys(grid, 1j * grid.xi2 * c))
            ratios.append(lebesgue_norm(RealField(grid, grad), 2.0) / (2.0 ** j * lebesgue_norm(f, 2.0)))
        means.append(np.mean(ratios))
    lo, hi = min(means), max(means)
    return (hi - lo) / lo, f"drift of mean ||grad f||_2 / (2^j ||f||_2) in [{lo:.4f}, {hi:.4f}] over levels"


@_check("lp.bernstein_smoothing_stability", 0.10)
def lp_bernstein_smoothing_stability(rng, grid=DENSE):
    # ||f||_inf <= C 2^(j 2/p) ||f||_p for ball-supported spectra (p = 2),
    # measured on the dilation-covariant low-pass kernel family, whose
    # constant is scale-invariant up to lattice discreteness (hence levels
    # with >= a few hundred modes per ball); random ensembles would carry
    # genuine log factors in the sup norm.
    consts = []
    for j in (3, 4, 5):
        kernel = block_multiplier(grid, j, "low_pass", PROFILE).astype(complex)
        f = inverse_transform(SpectralField(grid, kernel, check=False))
        consts.append(lebesgue_norm(f, math.inf) / (2.0 ** j * lebesgue_norm(f, 2.0)))
    lo, hi = min(consts), max(consts)
    return (hi - lo) / lo, f"drift of ||f||_inf / (2^j ||f||_2) in [{lo:.4f}, {hi:.4f}] over levels"


@_check("lp.derivative_equivalence", 1.5)
def lp_derivative_equivalence(rng, grid=GRID, samples=6):
    ratios = []
    for s in (-1.0, 0.0, 1.0):
        for _ in range(samples):
            f = random_band_field(grid, rng)
            c = forward_transform(f).coefficients
            # ||D_j grad f||_2 = hypot of the two partials' block L^2 norms
            levels, n1 = block_norms(SpectralField(grid, 1j * grid.xi1 * c, check=False), 2.0, PROFILE)
            n2 = block_norms(SpectralField(grid, 1j * grid.xi2 * c, check=False), 2.0, PROFILE)[1]
            num = float(np.sum((2.0 ** (levels * (s - 1.0)) * np.hypot(n1, n2)) ** 2) ** 0.5)
            ratios.append(num / besov_norm(f, BesovParams(s, 2.0, 2.0), PROFILE).value)
    lo, hi = min(ratios), max(ratios)
    return hi / lo, f"spread of ||grad f||_B^(s-1) / ||f||_B^s in [{lo:.3f}, {hi:.3f}], s = -1, 0, 1"


@_check("lp.bony_reconstruction", 1e-8)
def lp_bony_reconstruction(rng, grid=GRID, pairs=10):
    worst = 0.0
    for _ in range(pairs):
        f, g = random_band_field(grid, rng), random_band_field(grid, rng)
        total = sum(piece.values for piece in bony_decompose(f, g, PROFILE))
        target = inverse_transform(dealias(forward_transform(RealField(grid, f.values * g.values))))
        err = lebesgue_norm(RealField(grid, total - target.values), 2.0)
        worst = max(worst, err / lebesgue_norm(target, 2.0))
    return worst, f"max rel L^2 err of T_f g + T_g f + R(f, g) vs dealiased fg, {pairs} pairs"


@_check("lp.chemin_lerner_minkowski", 1e-10)
def lp_chemin_lerner_minkowski(rng, grid=GRID, samples=6, s=0.5):
    # Minkowski: the mixed norm sits below the time-outer norm for rho <= r
    # and above it for r <= rho; value is the worse excess of the two
    times = np.linspace(0.1, 1.0, samples)
    fields = [random_band_field(grid, rng) for _ in times]

    def mixed_over_outer(r, rho):
        params = BesovParams(s, 2.0, r)
        inner = np.array([besov_norm(f, params, PROFILE).value for f in fields])
        outer = float(np.trapezoid(inner ** rho, times) ** (1.0 / rho))
        return chemin_lerner_norm(times, fields, rho, params, PROFILE) / outer

    below, above = mixed_over_outer(4.0, 2.0), mixed_over_outer(1.0, 4.0)
    detail = f"mixed / time-outer {below:.6f} at (r, rho) = (4, 2), {above:.6f} at (1, 4)"
    return max(below - 1.0, 1.0 / above - 1.0), detail


# ----------------------------------------------------------------- semigroup


@_check("semigroup.composition", 1e-12)
def semigroup_composition(rng, grid=OFF_GRID):
    sp = forward_transform(random_band_field(grid, rng))
    one = semigroup.evolve_linear(semigroup.evolve_linear(sp, 1.3, 0.4), 1.3, 0.6)
    two = semigroup.evolve_linear(sp, 1.3, 1.0)
    return _rel(one.coefficients, two.coefficients), f"rel defect e^-0.6A e^-0.4A vs e^-A, L = {grid.L:g}"


@_check("semigroup.t0_identity", 0.0)
def semigroup_t0_identity(rng, grid=GRID):
    c = forward_transform(random_band_field(grid, rng)).coefficients
    ident = semigroup.evolve_linear(SpectralField(grid, c, check=False), 1.0, 0.0).coefficients
    return float(np.abs(ident - c).max()), "max |e^0 c - c|"


@_check("semigroup.block_monotonicity_grid", 1e-12)
def semigroup_block_monotonicity_grid(rng, grid=GRID):
    sp = forward_transform(random_band_field(grid, rng))
    times = np.linspace(0.0, 3.0, 13)
    norms = [block_norms(semigroup.evolve_linear(sp, 1.0, float(t)), 2.0, PROFILE)[1] for t in times]
    growth = max(float(np.max(b / np.maximum(a, 1e-300))) for a, b in zip(norms, norms[1:])) - 1.0
    return growth, "max relative growth of a block norm between 13 times in [0, 3]"


@_check("semigroup.oracle_vs_riemann", 1e-8)
def semigroup_oracle_vs_riemann(rng, level=-2, points=200_001):
    density = semigroup.RadialSpectralDensity.ball_indicator(1.0)
    quad = semigroup.oracle_block_norm(density, level, 0.0, 1.0, PROFILE)
    r = np.linspace(0.75 * 2.0 ** level, min(8.0 / 3.0 * 2.0 ** level, 1.0), points)
    w = PROFILE.phi_array(r * 2.0 ** -level) ** 2 * r
    ref = math.sqrt((2 * math.pi) ** -2 * 2 * math.pi * np.trapezoid(w, r))
    return abs(quad - ref) / ref, f"rel err of block {level} at t = 0 vs {points}-point trapezoid"


@_check("semigroup.oracle_slope", 0.02)
def semigroup_oracle_slope(rng):
    density = semigroup.RadialSpectralDensity.ball_indicator(1.0)
    claim = decay.DecayClaim("linear", s=1.0, ell=0.0, alpha=2.0, p=2.0, r=2.0)
    times = log_spaced_times(10.0, 1e4, 15)
    fit = decay.fit_decay_slope(semigroup.oracle_besov_series(density, claim, times, PROFILE), (10.0, 1e4))
    return abs(fit.slope + 0.5) / 0.5, f"rel err of oracle slope {fit.slope:.4f} vs -0.5"


# ----------------------------------------------------------------- sqg / ks


@_check("sqg.divergence_free", 1e-12)
def sqg_divergence_free(rng, grid=GRID, samples=1, amplitude=0.1):
    worst = 0.0
    for _ in range(samples):
        theta = _scaled_field(grid, rng, amplitude)
        c1, c2 = (forward_transform(u).coefficients for u in sqg_velocity(theta))
        ct = forward_transform(theta).coefficients
        grad = math.hypot(_l2(grid, 1j * grid.xi1 * ct), _l2(grid, 1j * grid.xi2 * ct))
        worst = max(worst, _l2(grid, 1j * grid.xi1 * c1 + 1j * grid.xi2 * c2) / grad)
    return worst, f"max ||div u||_2 / ||grad theta||_2, {samples} fields"


@_check("sqg.shell_steady_state", 1e-12)
def sqg_shell_steady_state(rng, grid=GRID, k2=442, amplitude=5.0, alpha=1.0, T=0.1):
    # spectrum on the shell |k|^2 = k2 (442 = 21^2 + 1^2 = 19^2 + 9^2: 16 modes at the band edge of
    # the 64^2 grid): u = grad^perp theta / |xi| with |xi| fixed, so u . grad theta = 0 at any amplitude
    c = np.where(grid.k1 ** 2 + grid.k2 ** 2 == k2, hermitian_noise(grid, rng), 0.0)
    f = inverse_transform(SpectralField(grid, c, check=False)).values
    theta = RealField(grid, amplitude * f / np.abs(f).max())
    speed = np.hypot(*(u.values for u in sqg_velocity(theta))).max() * grid.n / grid.L
    steps = math.ceil(T * speed / 0.38)  # Courant dt max|u| n / L <= 0.38 with dt = T / steps
    end = _path(sqg_step, SQGState(theta, 0.0, alpha), steps, T / steps)[-1].theta.values
    linear = inverse_transform(semigroup.evolve_linear(forward_transform(theta), alpha, T)).values
    detail = f"rel err vs the linear flow at T = {T:g}, |k|^2 = {k2}, {steps} steps at Courant {T / steps * speed:.3f}"
    return _rel(end, linear), detail


@_check("sqg.mean_conservation", 1e-12)
def sqg_mean_conservation(rng, grid=GRID, samples=1, amplitude=0.02, steps=25):
    drifts = (abs(th.mean() - path[0].mean()) for path in _sqg_paths(grid, rng, samples, amplitude, steps)
              for th in path[1:])
    return max(drifts), f"max |mean drift| over {steps} steps, {samples} fields"


@_check("sqg.l2_monotone", 1e-10)
def sqg_l2_monotone(rng, grid=GRID, samples=1, amplitude=0.02, steps=25):
    worst = -math.inf
    for path in _sqg_paths(grid, rng, samples, amplitude, steps):
        l2 = [lebesgue_norm(th, 2.0) for th in path]
        worst = max(worst, max(b / a - 1.0 for a, b in zip(l2, l2[1:])))
    return worst, f"max relative L^2 growth per step over {steps} steps, {samples} fields"


@_check("sqg.dt_self_convergence", 0.5)
def sqg_dt_self_convergence(rng, grid=GRID, amplitude=0.5):
    base = SQGState(_scaled_field(grid, rng, amplitude), 0.0, 1.0)
    ratio = _dt_ratio(sqg_step, base, lambda s: s.theta.values)
    return abs(ratio - 4.0), f"|error ratio - 4|, ratio {ratio:.2f} at T = 0.4"


@_check("sqg.quadratic_nonlinearity", 0.4)
def sqg_quadratic_nonlinearity(rng, grid=GRID):
    # (theta_eps - linear flow) / eps scales linearly in eps
    f = _scaled_field(grid, rng, 0.1)

    def dev(eps):
        theta = RealField(grid, eps * f.values)
        end = _path(sqg_step, SQGState(theta, 0.0, 1.0), 10)[-1].theta.values
        lin = inverse_transform(semigroup.evolve_linear(forward_transform(theta), 1.0, 0.2)).values
        return float(np.abs(end - lin).max()) / eps

    ratio = dev(0.02) / dev(0.01)
    return abs(ratio - 2.0), f"|deviation ratio - 2|, ratio {ratio:.2f}"


@_check("ks.potential_residual", 1e-12)
def ks_potential_residual(rng, grid=GRID):
    # -Laplace psi = u - mean(u) with mean(psi) = 0, on a field with a mean
    u = _scaled_field(grid, rng, 0.1, zero_mean=False)
    cpsi = forward_transform(ks_potential(u)).coefficients
    lhs = grid.xi_mag ** 2 * cpsi
    lhs[0, 0] = cpsi[0, 0]
    rhs = forward_transform(u).coefficients.copy()
    rhs[0, 0] = 0.0
    return _rel(lhs, rhs), "rel residual of (-Laplace psi, mean psi) vs (u - mean u, 0)"


@_check("ks.mass_conservation", 1e-12)
def ks_mass_conservation(rng, grid=GRID):
    # amplitude 0.1 on a background density 0.5
    u = RealField(grid, _scaled_field(grid, rng, 0.1).values + 0.5)
    path = _path(ks_step, KSState(u, 0.0, 1.0), 25)
    mass0 = path[0].u.mean()
    return max(abs(s.u.mean() - mass0) for s in path[1:]) / abs(mass0), "max relative mass drift over 25 steps"


@_check("ks.linear_limit", 1e-3)
def ks_linear_limit(rng, grid=GRID):
    eps = 1e-8
    u = RealField(grid, eps * _scaled_field(grid, rng, 0.1).values)
    end = _path(ks_step, KSState(u, 0.0, 1.0), 10)[-1].u.values
    lin = inverse_transform(semigroup.evolve_linear(forward_transform(u), 1.0, 0.2)).values
    return _rel(end, lin), f"rel deviation from the linear flow at T = 0.2, amplitude {eps:g}"


@_check("ks.dt_self_convergence", 0.5)
def ks_dt_self_convergence(rng, grid=GRID):
    base = KSState(_scaled_field(grid, rng, 2.0), 0.0, 1.0)
    ratio = _dt_ratio(ks_step, base, lambda s: s.u.values)
    return abs(ratio - 4.0), f"|error ratio - 4|, ratio {ratio:.2f} at T = 0.4"


# --------------------------------------------------------------------- decay


def _power_law_fit(scale=3.0, lo=0, hi=59):
    t = np.exp(np.linspace(0.0, 6.0, 60))
    series = decay.NormSeries(t, scale * (1 + t) ** -2.0, "synthetic")
    return decay.fit_decay_slope(series, (float(t[lo]), float(t[hi])))


@_check("decay.exact_power_law", 1e-12)
def decay_exact_power_law(rng):
    fit = _power_law_fit()
    return max(abs(fit.slope + 2.0), fit.residual), f"max of |slope + 2| and residual, slope {fit.slope:.15f}"


@_check("decay.scale_invariance", 1e-12)
def decay_scale_invariance(rng):
    fit, scaled = _power_law_fit(), _power_law_fit(7.5 * 3.0)
    gap = max(abs(scaled.slope - fit.slope), abs(scaled.intercept - fit.intercept - math.log(7.5)))
    return gap, "max of slope change and intercept shift - log 7.5 under scaling by 7.5"


@_check("decay.window_reparameterization", 1e-12)
def decay_window_reparameterization(rng):
    full, sub = _power_law_fit(), _power_law_fit(lo=10, hi=40)
    return max(abs(sub.slope + 2.0), abs(sub.slope - full.slope)), f"sub-window slope {sub.slope:.15f}"


@_check("decay.sqg_ks_alpha1_identity", 0.0)
def decay_sqg_ks_alpha1_identity(rng, s_points=4, ell_points=3, margin=0.05):
    worst, count = 0.0, 0
    for p in (2.0, 3.0, 4.0, 8.0):
        for r in sorted({2.0, p}):
            for s in np.linspace(1.0 - 2.0 / p + margin, 1.0 + 2.0 / p - margin, s_points):
                lo, hi = -s - 2.0 * (1.0 / r - 1.0 / p), -1.0 + 2.0 / p
                if lo > hi:
                    continue
                for ell in np.linspace(lo, hi, ell_points):
                    sqg, ks = (decay.DecayClaim(family, s=s, ell=ell, alpha=1.0, p=p, r=r) for family in ("sqg", "ks"))
                    worst = max(worst, abs(decay.theoretical_exponent(sqg) - decay.theoretical_exponent(ks)))
                    count += 1
    return worst, f"max |sqg - ks exponent| at alpha = 1 over {count} points"


# ----------------------------------------------------------------------- cli


def _execute(config: dict, out_dir: Path):
    from . import cli

    return cli.execute(cli.validate_config(config), out_dir)


@_check("cli.determinism", 0.0)
def cli_determinism(rng, config=ORACLE_CONFIG, tmp_base=None):
    with tempfile.TemporaryDirectory(dir=tmp_base) as td:
        a, b = Path(td) / "a", Path(td) / "b"
        _execute(config, a)
        _execute(config, b)
        # run.json carries wall times; every other output must repeat
        names = {p.name for d in (a, b) for p in d.iterdir()} - {"run.json"}

        def same(n):
            return (a / n).exists() and (b / n).exists() and (a / n).read_bytes() == (b / n).read_bytes()

        differ = sum(not same(n) for n in names)
        series = sum(n.endswith(".csv") for n in names)
    return differ + (series == 0), f"{differ} of {len(names)} outputs differ between reruns ({series} series)"


@_check("cli.config_roundtrip", 0.0)
def cli_config_roundtrip(rng, config=ORACLE_CONFIG, tmp_base=None):
    from . import cli

    with tempfile.TemporaryDirectory(dir=tmp_base) as td:
        echoed = _execute(config, Path(td)).record["config"]
    reparsed = cli.validate_config(echoed)
    differ = sum(echoed.get(k) != reparsed.get(k) for k in echoed.keys() | reparsed.keys())
    return differ, f"{differ} keys of the echoed config change when it is revalidated"
