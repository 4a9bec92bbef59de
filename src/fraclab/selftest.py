"""Bundled property suite: every module's invariants at default tolerances.

Each check returns a PropertyResult; the CLI selftest subcommand prints one
line per check and exits nonzero when any fails. Up-to-constant inequalities
are exercised as stability-of-ratio checks (constants measured, drift
bounded), never as absolute bounds with invented constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    project,
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
    inverse_transform,
)
from .sqg import SQGState, sqg_step, sqg_velocity

__all__ = ["PropertyResult", "run_selftest"]


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _random_band_field(grid: Grid2D, rng, envelope=None) -> RealField:
    z = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
    idx = (-np.arange(grid.n)) % grid.n
    z = 0.5 * (z + np.conj(z[np.ix_(idx, idx)]))
    keep = dealias_mask(grid) & (grid.xi_mag > 0)
    c = np.where(keep, z, 0.0)
    if envelope is not None:
        c = c * envelope
    c[0, 0] = 0.0
    return inverse_transform(SpectralField(grid, c, check=False))


def _shell_field(grid: Grid2D, j: int, rng, profile) -> RealField:
    """Random field spectrally supported in the level-j annulus."""
    f = _random_band_field(grid, rng)
    c = forward_transform(f).coefficients
    mask = block_multiplier(grid, j, "block", profile)
    return inverse_transform(SpectralField(grid, np.where(mask > 0, c, 0.0), check=False))


def _check(name, ok, detail) -> PropertyResult:
    return PropertyResult(name, bool(ok), detail)


# ---------------------------------------------------------------- spectral


def check_spectral(rng) -> list[PropertyResult]:
    out = []
    grid = Grid2D(64, 2 * math.pi)
    worst_rt = worst_pars = worst_herm = 0.0
    for _ in range(20):
        f = _random_band_field(grid, rng)
        sp = forward_transform(f)
        back = inverse_transform(sp)
        scale = float(np.abs(f.values).max())
        worst_rt = max(worst_rt, float(np.abs(back.values - f.values).max()) / scale)
        l2 = lebesgue_norm(f, 2.0)
        par = grid.L * math.sqrt(float(np.sum(np.abs(sp.coefficients) ** 2)))
        worst_pars = max(worst_pars, abs(l2 - par) / l2)
        worst_herm = max(worst_herm, hermitian_defect(sp.coefficients) / scale)
    out.append(_check("spectral.roundtrip", worst_rt <= 1e-12, f"max rel err {worst_rt:.2e}"))
    out.append(_check("spectral.parseval", worst_pars <= 1e-12, f"max rel err {worst_pars:.2e}"))
    out.append(_check("spectral.hermitian", worst_herm <= 1e-12, f"max defect {worst_herm:.2e}"))

    f = _random_band_field(grid, rng)
    g = _random_band_field(grid, rng)
    m = MultiplierSpec.fractional_laplacian(0.7)
    lhs = apply_fourier_multiplier(
        SpectralField(grid, 2.0 * forward_transform(f).coefficients + 3.0 * forward_transform(g).coefficients, check=False),
        m,
    ).coefficients
    rhs = (
        2.0 * apply_fourier_multiplier(forward_transform(f), m).coefficients
        + 3.0 * apply_fourier_multiplier(forward_transform(g), m).coefficients
    )
    lin = float(np.abs(lhs - rhs).max()) / (float(np.abs(rhs).max()) or 1.0)
    out.append(_check("spectral.multiplier_linearity", lin <= 1e-12, f"defect {lin:.2e}"))

    a, b = 0.6, 0.9
    once = apply_fourier_multiplier(
        apply_fourier_multiplier(forward_transform(f), MultiplierSpec.fractional_laplacian(a)),
        MultiplierSpec.fractional_laplacian(b),
    ).coefficients
    both = apply_fourier_multiplier(
        forward_transform(f), MultiplierSpec.fractional_laplacian(a + b)
    ).coefficients
    comp = float(np.abs(once - both).max()) / (float(np.abs(both).max()) or 1.0)
    out.append(_check("spectral.power_composition", comp <= 1e-12, f"defect {comp:.2e}"))

    x1, _ = grid.coordinates()
    s = RealField(grid, np.sin(2 * math.pi * x1 / grid.L))
    d = inverse_transform(
        apply_fourier_multiplier(forward_transform(s), MultiplierSpec.partial(1))
    )
    exact = (2 * math.pi / grid.L) * np.cos(2 * math.pi * x1 / grid.L)
    derr = float(np.abs(d.values - exact).max()) / float(np.abs(exact).max())
    out.append(_check("spectral.partial_exact", derr <= 1e-12, f"max rel err {derr:.2e}"))
    return out


# ---------------------------------------------------------- littlewood-paley


def check_littlewood_paley(rng) -> list[PropertyResult]:
    out = []
    profile = build_dyadic_profile()
    rs = np.exp(np.linspace(math.log(2.0 ** -20), math.log(2.0 ** 20), 10_000))
    worst = float(np.abs(profile.partition_sum(rs) - 1.0).max())
    out.append(_check("lp.partition_of_unity", worst <= 1e-10, f"max |sum-1| {worst:.2e}"))

    grid = Grid2D(64, 2 * math.pi)
    rng_blocks = block_range(grid, profile)
    worst_orth = 0.0
    for _ in range(10):
        f = _random_band_field(grid, rng)
        sp = forward_transform(f)
        l2 = lebesgue_norm(f, 2.0)
        for i in rng_blocks:
            for j in rng_blocks:
                if abs(i - j) >= 2:
                    z = project(project(sp, j, "block", profile), i, "block", profile)
                    nrm = grid.L * math.sqrt(float(np.sum(np.abs(z.coefficients) ** 2)))
                    worst_orth = max(worst_orth, nrm / l2)
    out.append(_check("lp.almost_orthogonality", worst_orth <= 1e-12, f"max ratio {worst_orth:.2e}"))

    worst_remote = 0.0
    for _ in range(4):
        f = _random_band_field(grid, rng)
        g = _random_band_field(grid, rng)
        cf = forward_transform(f).coefficients
        cg = forward_transform(g).coefficients
        nf = lebesgue_norm(f, 2.0)
        ng = lebesgue_norm(g, 2.0)
        for j in rng_blocks:
            low = np.fft.ifft2(block_multiplier(grid, j - 1, "low_pass", profile) * cf * grid.n ** 2).real
            blk = np.fft.ifft2(block_multiplier(grid, j, "block", profile) * cg * grid.n ** 2).real
            prod = np.where(dealias_mask(grid), np.fft.fft2(low * blk) / grid.n ** 2, 0.0)
            levels, norms = block_norms(SpectralField(grid, prod, check=False), 2.0, profile, rng_blocks)
            remote = norms[np.abs(levels - j) >= 5]
            worst_remote = max(worst_remote, float(remote.max(initial=0.0)) / (nf * ng))
    out.append(
        _check("lp.paraproduct_remote_zero", worst_remote <= 1e-8, f"max ratio {worst_remote:.2e}")
    )

    # interpolation with constant exactly one
    worst_interp = 0.0
    for _ in range(10):
        f = _random_band_field(grid, rng)
        n_lo = besov_norm(f, BesovParams(-1.0, 2.0, 2.0), profile).value
        n_hi = besov_norm(f, BesovParams(1.0, 2.0, 2.0), profile).value
        for theta in (0.25, 0.5, 0.75):
            s_mid = theta * -1.0 + (1 - theta) * 1.0
            mid = besov_norm(f, BesovParams(s_mid, 2.0, 2.0), profile).value
            bound = n_lo ** theta * n_hi ** (1 - theta)
            worst_interp = max(worst_interp, mid / bound - 1.0)
    out.append(
        _check("lp.interpolation_constant_one", worst_interp <= 1e-10, f"max excess {worst_interp:.2e}")
    )

    # Bernstein annulus: gradient ratio per level, drift across levels <= 5%.
    # Levels need enough lattice radii per annulus to sample it like the
    # continuum, so this and the smoothing check run on dense shells of a
    # 128 grid.
    dense = Grid2D(128, 2 * math.pi)
    means = []
    for j in (2, 3, 4):
        ratios = []
        for _ in range(8):
            f = _shell_field(dense, j, rng, profile)
            c = forward_transform(f).coefficients
            g1 = np.fft.ifft2(1j * dense.xi1 * c * dense.n ** 2).real
            g2 = np.fft.ifft2(1j * dense.xi2 * c * dense.n ** 2).real
            gnorm = lebesgue_norm(RealField(dense, np.hypot(g1, g2)), 2.0)
            ratios.append(gnorm / (2.0 ** j * lebesgue_norm(f, 2.0)))
        means.append(np.mean(ratios))
    drift = (max(means) - min(means)) / min(means)
    out.append(
        _check(
            "lp.bernstein_annulus_stability",
            drift <= 0.05,
            f"mean ratio in [{min(means):.4f}, {max(means):.4f}], drift {drift:.2%}",
        )
    )

    # Bernstein smoothing: ||f||_inf <= C 2^(j 2/p) ||f||_p for ball-supported
    # spectra (p = 2). Measured on the dilation-covariant low-pass kernel
    # family, whose constant is scale-invariant up to lattice discreteness
    # (hence levels with >= a few hundred modes per ball); random ensembles
    # would carry genuine log factors in the sup norm.
    big = Grid2D(128, 2 * math.pi)
    consts = []
    for j in (3, 4, 5):
        kernel = block_multiplier(big, j, "low_pass", profile).astype(complex)
        f = inverse_transform(SpectralField(big, kernel, check=False))
        denom = 2.0 ** (j * 2.0 / 2.0) * lebesgue_norm(f, 2.0)
        consts.append(lebesgue_norm(f, math.inf) / denom)
    sdrift = (max(consts) - min(consts)) / min(consts)
    out.append(
        _check(
            "lp.bernstein_smoothing_stability",
            sdrift <= 0.10,
            f"kernel constant in [{min(consts):.4f}, {max(consts):.4f}], drift {sdrift:.2%}",
        )
    )

    # derivative equivalence across s
    spans = []
    for s in (-1.0, 0.0, 1.0):
        ratios = []
        for _ in range(6):
            f = _random_band_field(grid, rng)
            c = forward_transform(f).coefficients
            g1 = SpectralField(grid, 1j * grid.xi1 * c, check=False)
            g2 = SpectralField(grid, 1j * grid.xi2 * c, check=False)
            # ||block_j grad f||_2 = hypot of the two partials' block L^2 norms
            levels, n1 = block_norms(g1, 2.0, profile)
            grad_blocks = np.hypot(n1, block_norms(g2, 2.0, profile)[1])
            num = float(np.sum(((2.0 ** (levels * (s - 1.0))) * grad_blocks) ** 2) ** 0.5)
            den = besov_norm(f, BesovParams(s, 2.0, 2.0), profile).value
            ratios.append(num / den)
        spans.append((min(ratios), max(ratios)))
    lo = min(x[0] for x in spans)
    hi = max(x[1] for x in spans)
    stable = hi / lo <= 1.5
    out.append(
        _check("lp.derivative_equivalence", stable, f"ratio range [{lo:.3f}, {hi:.3f}] across s")
    )

    # Bony reconstruction against the dealiased product
    worst_bony = 0.0
    for _ in range(5):
        f = _random_band_field(grid, rng)
        g = _random_band_field(grid, rng)
        tfg, tgf, rr = bony_decompose(f, g, profile)
        csum = (
            forward_transform(tfg).coefficients
            + forward_transform(tgf).coefficients
            + forward_transform(rr).coefficients
        )
        prod = dealias(forward_transform(RealField(grid, f.values * g.values))).coefficients
        scale = grid.L * math.sqrt(float(np.sum(np.abs(prod) ** 2))) or 1.0
        err = grid.L * math.sqrt(float(np.sum(np.abs(csum - prod) ** 2))) / scale
        worst_bony = max(worst_bony, err)
    out.append(_check("lp.bony_reconstruction", worst_bony <= 1e-8, f"max rel err {worst_bony:.2e}"))

    # Chemin-Lerner Minkowski ordering for rho <= r
    times = np.linspace(0.1, 1.0, 6)
    fields = [_random_band_field(grid, rng) for _ in times]
    params = BesovParams(0.5, 2.0, 4.0)
    rho = 2.0
    mixed = chemin_lerner_norm(times, fields, rho, params, profile)
    inner = [besov_norm(fld, params, profile).value for fld in fields]
    outer = float(np.trapezoid(np.asarray(inner) ** rho, times) ** (1.0 / rho))
    ok = mixed <= outer * (1 + 1e-10)
    out.append(_check("lp.chemin_lerner_minkowski", ok, f"mixed {mixed:.6g} <= time-outer {outer:.6g}"))
    return out


# ----------------------------------------------------------------- semigroup


def check_semigroup(rng) -> list[PropertyResult]:
    out = []
    profile = build_dyadic_profile()
    grid = Grid2D(64, 2 * math.pi)
    f = _random_band_field(grid, rng)
    sp = forward_transform(f)
    one = semigroup.evolve_linear(semigroup.evolve_linear(sp, 1.3, 0.4), 1.3, 0.6)
    two = semigroup.evolve_linear(sp, 1.3, 1.0)
    err = float(np.abs(one.coefficients - two.coefficients).max()) / (
        float(np.abs(two.coefficients).max()) or 1.0
    )
    out.append(_check("semigroup.composition", err <= 1e-12, f"defect {err:.2e}"))

    ident = semigroup.evolve_linear(sp, 1.0, 0.0)
    err0 = float(np.abs(ident.coefficients - sp.coefficients).max())
    out.append(_check("semigroup.t0_identity", err0 == 0.0, f"defect {err0:.2e}"))

    # block monotonicity of the weighted block norms (grid side)
    ts = np.linspace(0.0, 2.0, 9)
    ok_mono = True
    prev = None
    for t in ts:
        _, norms = block_norms(semigroup.evolve_linear(sp, 1.0, float(t)), 2.0, profile)
        if prev is not None and np.any(norms > prev * (1 + 1e-12) + 1e-300):
            ok_mono = False
        prev = norms
    out.append(_check("semigroup.block_monotonicity_grid", ok_mono, "all levels nonincreasing"))

    # oracle vs dense Riemann reference at t = 0
    density = semigroup.RadialSpectralDensity.ball_indicator(1.0)
    j = -2
    quad = semigroup.oracle_block_norm(density, j, 0.0, 1.0, profile)
    r = np.linspace(0.75 * 2.0 ** j, min(8.0 / 3.0 * 2.0 ** j, 1.0), 200_001)
    w = profile.phi_array(r * 2.0 ** -j) ** 2 * r
    ref = math.sqrt((2 * math.pi) ** -2 * 2 * math.pi * np.trapezoid(w, r))
    qerr = abs(quad - ref) / ref
    out.append(_check("semigroup.oracle_vs_riemann", qerr <= 1e-8, f"rel err {qerr:.2e}"))

    # oracle decay slope, quick version of the flagship check
    claim = decay.DecayClaim("linear", s=1.0, ell=0.0, alpha=2.0, p=2.0, r=2.0)
    times = log_spaced_times(10.0, 1e4, 15)
    series = semigroup.oracle_besov_series(density, claim, times, profile)
    fit = decay.fit_decay_slope(series, (10.0, 1e4))
    rel = abs(fit.slope - (-0.5)) / 0.5
    out.append(_check("semigroup.oracle_slope", rel <= 0.02, f"slope {fit.slope:.4f} vs -0.5 ({rel:.2%})"))
    return out


# ----------------------------------------------------------------- sqg / ks


def check_sqg(rng) -> list[PropertyResult]:
    out = []
    grid = Grid2D(64, 2 * math.pi)
    f = _random_band_field(grid, rng)
    f = RealField(grid, 1e-1 * f.values / np.abs(f.values).max())
    u1, u2 = sqg_velocity(f)
    c1 = forward_transform(u1).coefficients
    c2 = forward_transform(u2).coefficients
    div = 1j * grid.xi1 * c1 + 1j * grid.xi2 * c2
    gradn = math.sqrt(float(np.sum(np.abs(1j * grid.xi1 * forward_transform(f).coefficients) ** 2 + np.abs(1j * grid.xi2 * forward_transform(f).coefficients) ** 2)))
    rel = math.sqrt(float(np.sum(np.abs(div) ** 2))) / (gradn or 1.0)
    out.append(_check("sqg.divergence_free", rel <= 1e-12, f"rel div {rel:.2e}"))

    x1, _ = grid.coordinates()
    single = SQGState(RealField(grid, 0.02 * np.cos(2 * math.pi * x1 / grid.L)), 0.0, 1.0)
    stepped = sqg_step(single, 0.1)
    lin = semigroup.evolve_linear(forward_transform(single.theta), 1.0, 0.1)
    linf = inverse_transform(lin)
    err = float(np.abs(stepped.theta.values - linf.values).max()) / float(np.abs(linf.values).max())
    out.append(_check("sqg.single_mode_linear", err <= 1e-12, f"rel err {err:.2e}"))

    # short run: mean conservation and L2 monotonicity
    state = SQGState(RealField(grid, 0.2 * f.values), 0.0, 1.0)
    mean0 = state.theta.mean()
    l2_prev = lebesgue_norm(state.theta, 2.0)
    ok_mean = ok_l2 = True
    for _ in range(25):
        state = sqg_step(state, 0.02)
        ok_mean &= abs(state.theta.mean() - mean0) <= 1e-12
        l2 = lebesgue_norm(state.theta, 2.0)
        ok_l2 &= l2 <= l2_prev * (1 + 1e-10)
        l2_prev = l2
    out.append(_check("sqg.mean_conservation", ok_mean, f"drift {abs(state.theta.mean()-mean0):.2e}"))
    out.append(_check("sqg.l2_monotone", ok_l2, "energy nonincreasing"))

    # second-order self-convergence
    base = SQGState(RealField(grid, 0.5 * f.values), 0.0, 1.0)

    def advance(dt, nsteps):
        s = base
        for _ in range(nsteps):
            s = sqg_step(s, dt)
        return s.theta.values

    t_final = 0.4
    w1 = advance(0.04, 10)
    w2 = advance(0.02, 20)
    w4 = advance(0.01, 40)
    e1 = float(np.abs(w1 - w2).max())
    e2 = float(np.abs(w2 - w4).max())
    ratio = e1 / e2
    out.append(_check("sqg.dt_self_convergence", 3.5 <= ratio <= 4.5, f"ratio {ratio:.2f} at T={t_final}"))

    # quadratic nonlinearity: (theta_eps/eps) differences scale linearly in eps
    def dev(eps):
        s = SQGState(RealField(grid, eps * f.values), 0.0, 1.0)
        for _ in range(10):
            s = sqg_step(s, 0.02)
        lin_c = semigroup.evolve_linear(forward_transform(RealField(grid, eps * f.values)), 1.0, 0.2)
        return float(np.abs(s.theta.values - inverse_transform(lin_c).values).max()) / eps

    d1, d2 = dev(0.01), dev(0.02)
    ratio2 = d2 / d1
    out.append(
        _check("sqg.quadratic_nonlinearity", 1.6 <= ratio2 <= 2.4, f"deviation ratio {ratio2:.2f} (expect 2)")
    )
    return out


def check_keller_segel(rng) -> list[PropertyResult]:
    out = []
    grid = Grid2D(64, 2 * math.pi)
    f = _random_band_field(grid, rng)
    f = RealField(grid, 0.1 * f.values / np.abs(f.values).max())

    # -Laplace psi = u - mean(u), checked in spectral space
    psi = ks_potential(f)
    cpsi = forward_transform(psi).coefficients
    cpsi_lap = (grid.xi_mag ** 2) * cpsi
    cu = forward_transform(f).coefficients.copy()
    cu[0, 0] = 0.0
    rel = float(np.abs(cpsi_lap - cu).max()) / (float(np.abs(cu).max()) or 1.0)
    out.append(_check("ks.potential_residual", rel <= 1e-12, f"rel residual {rel:.2e}"))

    # mass conservation with a nonzero background density
    state = KSState(RealField(grid, f.values + 0.5), 0.0, 1.0)
    mass0 = state.u.mean() * grid.L ** 2
    ok_mass = True
    for _ in range(25):
        state = ks_step(state, 0.02)
        ok_mass &= abs(state.u.mean() * grid.L ** 2 - mass0) <= 1e-12 * abs(mass0)
    out.append(_check("ks.mass_conservation", ok_mass, f"relative drift at T: "
                      f"{abs(state.u.mean() * grid.L ** 2 - mass0) / abs(mass0):.2e}"))

    # vanishing-amplitude limit matches the linear flow
    eps = 1e-8
    tiny = KSState(RealField(grid, eps * f.values), 0.0, 1.0)
    for _ in range(10):
        tiny = ks_step(tiny, 0.02)
    lin = inverse_transform(semigroup.evolve_linear(forward_transform(RealField(grid, eps * f.values)), 1.0, 0.2))
    rel = float(np.abs(tiny.u.values - lin.values).max()) / float(np.abs(lin.values).max())
    out.append(_check("ks.linear_limit", rel <= 1e-3, f"rel dev {rel:.2e} at eps={eps}"))

    # dt self-convergence
    base = KSState(RealField(grid, 2.0 * f.values), 0.0, 1.0)

    def advance(dt, nsteps):
        s = base
        for _ in range(nsteps):
            s = ks_step(s, dt)
        return s.u.values

    e1 = float(np.abs(advance(0.04, 10) - advance(0.02, 20)).max())
    e2 = float(np.abs(advance(0.02, 20) - advance(0.01, 40)).max())
    ratio = e1 / e2
    out.append(_check("ks.dt_self_convergence", 3.5 <= ratio <= 4.5, f"ratio {ratio:.2f}"))
    return out


# --------------------------------------------------------------------- decay


def check_decay(rng) -> list[PropertyResult]:
    out = []
    t = np.exp(np.linspace(0.0, 6.0, 60))
    series = decay.NormSeries(t, 3.0 * (1 + t) ** -2.0, "synthetic")
    fit = decay.fit_decay_slope(series, (float(t[0]), float(t[-1])))
    ok = abs(fit.slope + 2.0) <= 1e-12 and fit.residual <= 1e-12
    out.append(_check("decay.exact_power_law", ok, f"slope {fit.slope:.15f}, resid {fit.residual:.2e}"))

    scaled = decay.NormSeries(t, 7.5 * 3.0 * (1 + t) ** -2.0, "synthetic")
    fit2 = decay.fit_decay_slope(scaled, (float(t[0]), float(t[-1])))
    ok = abs(fit2.slope - fit.slope) <= 1e-12 and abs(fit2.intercept - fit.intercept - math.log(7.5)) <= 1e-12
    out.append(_check("decay.scale_invariance", ok, "slope unchanged, intercept shifted by log c"))

    fit3 = decay.fit_decay_slope(series, (float(t[10]), float(t[40])))
    out.append(
        _check(
            "decay.window_reparameterization",
            abs(fit3.slope + 2.0) <= 1e-12,
            f"sub-window slope {fit3.slope:.15f}",
        )
    )

    worst = 0.0
    count = 0
    for p in (2.0, 3.0, 4.0, 8.0):
        for r in (2.0, p):
            if not (2.0 <= r <= p):
                continue
            s_lo, s_hi = 1.0 - 2.0 / p, 1.0 + 2.0 / p
            for s in np.linspace(s_lo + 0.05, s_hi - 0.05, 4):
                lo = -s - 2.0 * (1.0 / r - 1.0 / p)
                hi = -1.0 + 2.0 / p
                if lo > hi:
                    continue
                for ell in np.linspace(lo, hi, 3):
                    a = decay.theoretical_exponent(
                        decay.DecayClaim("sqg", s=s, ell=ell, alpha=1.0, p=p, r=r)
                    )
                    b = decay.theoretical_exponent(
                        decay.DecayClaim("ks", s=s, ell=ell, alpha=1.0, p=p, r=r)
                    )
                    worst = max(worst, abs(a - b))
                    count += 1
    out.append(
        _check("decay.sqg_ks_alpha1_identity", worst == 0.0, f"max |diff| {worst:.2e} over {count} points")
    )
    return out


# ----------------------------------------------------------------------- cli


def check_cli(tmp_base=None) -> list[PropertyResult]:
    import tempfile
    from pathlib import Path

    from . import cli

    out = []
    with tempfile.TemporaryDirectory(dir=tmp_base) as td:
        cfg_path = Path(td) / "oracle.json"
        cfg_path.write_text(
            '{"kind": "oracle", "alpha": 2.0, "s": 1.0, "ell": 0.0, '
            '"t_lo": 10.0, "t_hi": 100.0, "samples_per_decade": 12, "seed": 5}'
        )
        out_a = Path(td) / "a"
        out_b = Path(td) / "b"
        rec_a = cli.execute(cli.load_config(cfg_path), out_a)
        rec_b = cli.execute(cli.load_config(cfg_path), out_b)
        csv_a = sorted(p.name for p in out_a.glob("*.csv"))
        csv_b = sorted(p.name for p in out_b.glob("*.csv"))
        same = csv_a == csv_b and all(
            (out_a / n).read_bytes() == (out_b / n).read_bytes() for n in csv_a
        )
        out.append(_check("cli.determinism", same, f"{len(csv_a)} series byte-identical"))

        echoed = rec_a.record["config"]
        reparsed = cli.validate_config(echoed)
        out.append(
            _check("cli.config_roundtrip", reparsed == echoed, "echoed config reparses to itself")
        )
    return out


def run_selftest(seed: int = 2024, include_cli: bool = True) -> list[PropertyResult]:
    """Run every module's property suite; returns one result per property.

    Each suite draws from its own child stream of the master seed, so edits
    to one suite never reshuffle another's samples.
    """
    suites = [
        check_spectral,
        check_littlewood_paley,
        check_semigroup,
        check_sqg,
        check_keller_segel,
        check_decay,
    ]
    results = []
    for i, suite in enumerate(suites):
        results += suite(np.random.default_rng([seed, i]))
    if include_cli:
        results += check_cli()
    return results
