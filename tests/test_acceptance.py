"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all;
failures always show theirs). Criteria with runtime budgets assert them.
"""

import math
import time

import numpy as np

from fraclab.decay import DecayClaim, fit_decay_slope, theoretical_exponent
from fraclab.evolution import (
    InitialSpectrum,
    RunConfig,
    log_spaced_times,
    spectral_besov_norm,
)
from fraclab.keller_segel import run_ks
from fraclab.littlewood_paley import BesovParams
from fraclab.selftest import (
    cli_determinism,
    lp_almost_orthogonality,
    lp_bony_reconstruction,
    lp_interpolation_constant_one,
    lp_paraproduct_remote_zero,
    lp_partition_of_unity,
    sqg_divergence_free,
    sqg_dt_self_convergence,
    sqg_l2_monotone,
    sqg_mean_conservation,
)
from fraclab.semigroup import (
    RadialSpectralDensity,
    evolve_linear,
    oracle_besov_series,
    oracle_block_norm,
)
from fraclab.spectral import Grid2D, SpectralField, dealias_mask
from fraclab.sqg import run_sqg


def report(number, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}: {detail} ({elapsed:.1f}s)")


def test_01_partition_of_unity():
    t0 = time.perf_counter()
    worst = lp_partition_of_unity(radii=10_000).value
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    report(1, ok, f"partition max |sum-1| = {worst:.2e} over 1e4 radii", elapsed)
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_02_almost_orthogonality():
    t0 = time.perf_counter()
    g = Grid2D(128, 2 * math.pi)
    # 100 seeded fields: every one for the block pairs, consecutive pairs of
    # the same draws for the paraproduct
    worst_blocks = lp_almost_orthogonality(np.random.default_rng(128128), grid=g, samples=100).value
    worst_para = lp_paraproduct_remote_zero(np.random.default_rng(128128), grid=g, pairs=50).value
    elapsed = time.perf_counter() - t0
    ok = worst_blocks <= 1e-12 and worst_para <= 1e-8 and elapsed < 30.0
    report(
        2,
        ok,
        f"block pairs |i-j|>=2 ratio {worst_blocks:.2e} (<=1e-12), "
        f"paraproduct |i-j|>=5 ratio {worst_para:.2e} (<=1e-8)",
        elapsed,
    )
    assert worst_blocks <= 1e-12
    assert worst_para <= 1e-8
    assert elapsed < 30.0


def test_03_interpolation_constant_one():
    t0 = time.perf_counter()
    g = Grid2D(128, 2 * math.pi)
    worst = lp_interpolation_constant_one(np.random.default_rng(33), grid=g, samples=100).value
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    report(3, ok, f"interpolation max excess over bound = {worst:.2e} (<= 1e-10)", elapsed)
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_04_oracle_decay_matrix(profile):
    t0 = time.perf_counter()
    ball = RadialSpectralDensity.ball_indicator(1.0)
    times = log_spaced_times(10.0, 1e4, 40)
    rows = []
    ok = True
    for alpha in (1.0, 2.0):
        for ell in (0.0, 1.0):
            claim = DecayClaim("linear", s=1.0, ell=ell, alpha=alpha, p=2.0, r=2.0)
            (series,) = oracle_besov_series(ball, claim, times, profile)
            fit = fit_decay_slope(series, (10.0, 1e4))
            theory = -(ell + 1.0) / alpha
            rel = abs(fit.slope - theory) / abs(theory)
            rows.append(f"a={alpha:g},l={ell:g}: {fit.slope:+.4f} vs {theory:+.2f} ({rel:.2%})")
            ok &= rel <= 0.02
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(4, ok, "; ".join(rows), elapsed)
    assert ok


def test_05_preservation_and_block_monotonicity(profile):
    t0 = time.perf_counter()
    ball = RadialSpectralDensity.ball_indicator(1.0)
    claim = DecayClaim("linear", s=1.0, ell=0.0, alpha=1.0, p=2.0, r=2.0)
    times = log_spaced_times(0.1, 1e3, 10)
    (series,) = oracle_besov_series(ball, claim, times, profile, ("preserved",))
    series_ok = bool(np.all(series.values[1:] <= series.values[:-1] * (1 + 1e-12)))
    blocks_ok = True
    for j in range(0, -12, -1):
        vals = [
            2.0 ** (-j) * oracle_block_norm(ball, j, float(t), 1.0, profile) for t in times
        ]
        for a, b in zip(vals, vals[1:]):
            blocks_ok &= b <= a * (1 + 1e-12) + 1e-300
    elapsed = time.perf_counter() - t0
    ok = series_ok and blocks_ok
    report(
        5,
        ok,
        f"preserved-norm series nonincreasing: {series_ok}; "
        f"weighted block norms nonincreasing: {blocks_ok}",
        elapsed,
    )
    assert series_ok and blocks_ok


def test_06_grid_oracle_equivalence(profile):
    t0 = time.perf_counter()
    g = Grid2D(256, 2 * math.pi * 64)
    dens = RadialSpectralDensity.power_law(1.0, 1.0 / 6.0, 2.0 / 3.0)
    c = dens.rho_array(g.xi_mag) / g.L ** 2
    c = np.where(dealias_mask(g), c, 0.0)
    c[0, 0] = 0.0
    base = SpectralField(g, c.astype(complex), check=False)
    alpha = 1.0
    t_hi = 0.1 / g.xi_min ** alpha
    times = log_spaced_times(t_hi / 100.0, t_hi, 12)
    claim = DecayClaim("linear", s=1.0, ell=0.0, alpha=alpha, p=2.0, r=2.0)
    (oracle_dec,) = oracle_besov_series(dens, claim, times, profile, ("decay",))
    (oracle_pre,) = oracle_besov_series(dens, claim, times, profile, ("preserved",))
    worst = 0.0
    for i, t in enumerate(times):
        ct = evolve_linear(base, alpha, float(t)).coefficients
        gd = spectral_besov_norm(g, ct, BesovParams(0.0, 2.0, 1.0), profile)
        gp = spectral_besov_norm(g, ct, BesovParams(-1.0, 2.0, math.inf), profile)
        worst = max(
            worst,
            abs(gd - oracle_dec.values[i]) / oracle_dec.values[i],
            abs(gp - oracle_pre.values[i]) / oracle_pre.values[i],
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.01
    report(6, ok, f"grid vs oracle max rel dev {worst:.3%} over pre-cutoff window (<= 1%)", elapsed)
    assert worst <= 0.01


def test_07_sqg_structure():
    t0 = time.perf_counter()
    g = Grid2D(128, 2 * math.pi)
    # 100 seeded fields at amplitude 0.2, each checked for divergence and
    # stepped once; the 101st draw, at amplitude 0.5, is the dt study
    rng = np.random.default_rng(77)
    worst_div = sqg_divergence_free(rng, grid=g, samples=100, amplitude=0.2).value
    one_step = dict(grid=g, samples=100, amplitude=0.2, steps=1)
    worst_mean = sqg_mean_conservation(np.random.default_rng(77), **one_step).value
    energy_ok = sqg_l2_monotone(np.random.default_rng(77), **one_step).value <= 1e-10
    ratio_dev = sqg_dt_self_convergence(rng, grid=g, amplitude=0.5).value
    elapsed = time.perf_counter() - t0
    ok = worst_div <= 1e-12 and worst_mean <= 1e-12 and energy_ok and ratio_dev <= 0.5
    ok = ok and elapsed < 120.0
    report(
        7,
        ok,
        f"divergence {worst_div:.2e} (<=1e-12), mean drift {worst_mean:.2e} (<=1e-12), "
        f"energy monotone {energy_ok}, dt ratio off 4 by {ratio_dev:.2f} (<= 0.5)",
        elapsed,
    )
    assert worst_div <= 1e-12
    assert worst_mean <= 1e-12
    assert energy_ok
    assert ratio_dev <= 0.5
    assert elapsed < 120.0


def _critical_run_config(seed):
    n, L = 256, 2 * math.pi * 64
    return RunConfig(
        n=n,
        L=L,
        alpha=1.0,
        dt=0.02,
        T=8.0,
        seed=seed,
        initial=InitialSpectrum(epsilon=1e-2, j_lo=-7, j_hi=0, s_data=1.0, taper=1.0),
        sample_times=log_spaced_times(0.05, 8.0, 40),
        norms=[BesovParams(0.0, 2.0, 1.0), BesovParams(-1.0, 2.0, math.inf)],
        smallness_budget=1e-2,
    )


def test_08_sqg_critical_decay(profile):
    t0 = time.perf_counter()
    cfg = _critical_run_config(seed=11)
    res = run_sqg(cfg, profile)
    window = (1.0, 0.1 / (2 * math.pi / cfg.L))
    fit = fit_decay_slope(res.series["B0_2_1"], window)
    claim = DecayClaim("sqg", s=1.0, ell=0.0, alpha=1.0, p=2.0, r=2.0)
    theory = theoretical_exponent(claim)
    rel = abs(fit.slope - theory) / abs(theory)
    elapsed = time.perf_counter() - t0
    ok = res.extras["initial_critical_norm"] <= 1e-2 * (1 + 1e-9) and rel <= 0.20 and elapsed < 600.0
    report(
        8,
        ok,
        f"critical norm {res.extras['initial_critical_norm']:.2e}, slope {fit.slope:+.4f} vs "
        f"{theory:+.1f} ({rel:.2%} <= 20%) over window [{window[0]:g}, {window[1]:.3g}]",
        elapsed,
    )
    assert res.extras["initial_critical_norm"] <= 1e-2 * (1 + 1e-9)
    assert rel <= 0.20
    assert elapsed < 600.0


def test_09_ks_critical_decay(profile):
    t0 = time.perf_counter()
    cfg = _critical_run_config(seed=13)
    res = run_ks(cfg, profile)
    window = (1.0, 0.1 / (2 * math.pi / cfg.L))
    fit = fit_decay_slope(res.series["B0_2_1"], window)
    claim = DecayClaim("ks", s=1.0, ell=0.0, alpha=1.0, p=2.0, r=2.0)
    theory = theoretical_exponent(claim)
    rel = abs(fit.slope - theory) / abs(theory)
    mass_ok = res.extras["mass_relative_drift"] <= 1e-12
    init_pre = res.extras["initial_norms"]["B-1_2_inf"]
    bounded = bool(np.all(res.series["B-1_2_inf"].values <= 2.0 * init_pre))
    elapsed = time.perf_counter() - t0
    ok = mass_ok and bounded and rel <= 0.20 and elapsed < 600.0
    report(
        9,
        ok,
        f"mass drift {res.extras['mass_relative_drift']:.2e} (<=1e-12), preserved norm within "
        f"2x budget: {bounded}, slope {fit.slope:+.4f} vs {theory:+.1f} ({rel:.2%} <= 20%)",
        elapsed,
    )
    assert mass_ok
    assert bounded
    assert rel <= 0.20
    assert elapsed < 600.0


def test_10_bony_reconstruction():
    t0 = time.perf_counter()
    g = Grid2D(128, 2 * math.pi)
    worst = lp_bony_reconstruction(np.random.default_rng(1010), grid=g, pairs=100).value
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    report(10, ok, f"paraproduct reconstruction max rel err {worst:.2e} (<= 1e-8, 100 pairs)", elapsed)
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_11_exponent_table_consistency():
    t0 = time.perf_counter()
    checked = 0
    # linear family: -(ell + s) / alpha, 20 deterministic samples
    for i in range(20):
        s = 0.25 * (i % 5)
        alpha = 0.5 + 0.5 * (i % 4)
        ell = -s + 0.3 + 0.1 * i
        claim = DecayClaim("linear", s=s, ell=ell, alpha=alpha, p=2.0 + (i % 3))
        assert theoretical_exponent(claim) == -(ell + s) / alpha
        checked += 1
    # sqg family: -(ell+s)/alpha - (2/alpha)(1/r - 1/p)
    count = 0
    for p in (2.0, 3.0, 4.0, 6.0, 8.0):
        for r in (2.0, p):
            for alpha in (0.5, 1.0):
                for s in (0.0, 0.5):
                    lo = -s - 2.0 * (1.0 / r - 1.0 / p)
                    hi = 1.0 + 2.0 / p - alpha
                    if lo > hi:
                        continue
                    ell = 0.5 * (lo + hi)
                    claim = DecayClaim("sqg", s=s, ell=ell, alpha=alpha, p=p, r=r)
                    expected = -(ell + s) / alpha - (2.0 / alpha) * (1.0 / r - 1.0 / p)
                    assert theoretical_exponent(claim) == expected
                    count += 1
                    if count >= 20:
                        break
                if count >= 20:
                    break
            if count >= 20:
                break
        if count >= 20:
            break
    checked += count
    # ks family and the alpha = 1 identity with sqg
    count = 0
    for p in (2.0, 3.0, 4.0, 8.0):
        for r in (2.0, p):
            if not (2.0 <= r <= p):
                continue
            for s in np.linspace(1.0 - 2.0 / p + 0.05, 1.0 + 2.0 / p - 0.05, 3):
                lo = -s - 2.0 * (1.0 / r - 1.0 / p)
                hi = -1.0 + 2.0 / p
                if lo > hi:
                    continue
                ell = 0.5 * (lo + hi)
                ksc = DecayClaim("ks", s=float(s), ell=ell, alpha=1.0, p=p, r=r)
                expected = -(ell + float(s)) - 2.0 * (1.0 / r - 1.0 / p)
                assert theoretical_exponent(ksc) == expected
                sqgc = DecayClaim("sqg", s=float(s), ell=ell, alpha=1.0, p=p, r=r)
                assert theoretical_exponent(sqgc) == theoretical_exponent(ksc)
                count += 1
    checked += count
    assert count >= 20
    # ks_subcritical family: the sqg formula carried to alpha in (1, 2]
    count = 0
    for p in (2.0, 4.0, 8.0):
        for r in sorted({2.0, p}):
            for alpha in (1.25, 1.5, 2.0):
                for s in (1.0, 1.2):
                    ell = 0.5 * (-s - 2.0 * (1.0 / r - 1.0 / p) + (-1.0 + 2.0 / p))
                    claim = DecayClaim("ks_subcritical", s=s, ell=ell, alpha=alpha, p=p, r=r)
                    expected = -(ell + s) / alpha - (2.0 / alpha) * (1.0 / r - 1.0 / p)
                    assert theoretical_exponent(claim) == expected
                    count += 1
    checked += count
    assert count >= 10
    # lebesgue family: -s/alpha - (2/alpha)(1 - 1/r - 1/p)
    count = 0
    for p in (2.0, 4.0, 8.0):
        for r in (2.0, 3.0, 4.0):
            for alpha in (0.5, 0.75, 1.0):
                for s in (0.3, 0.7):
                    try:
                        claim = DecayClaim("lebesgue", s=s, alpha=alpha, p=p, r=r)
                    except Exception:
                        continue
                    expected = -s / alpha - (2.0 / alpha) * (1.0 - 1.0 / r - 1.0 / p)
                    assert theoretical_exponent(claim) == expected
                    count += 1
    checked += count
    assert count >= 20
    elapsed = time.perf_counter() - t0
    report(11, True, f"exponent table exact at {checked} sampled points incl. alpha=1 identity", elapsed)


def test_12_byte_identical_reruns(tmp_path):
    t0 = time.perf_counter()
    oracle_cfg = {"kind": "oracle", "alpha": 2.0, "s": 1.0, "ell": 0.0, "tolerance_pct": 10.0,
                  "t_lo": 10.0, "t_hi": 100.0, "samples_per_decade": 10, "seed": 3}
    sqg_cfg = {"kind": "sqg", "n": 64, "L": 2 * math.pi * 8, "dt": 0.05, "T": 1.5, "seed": 5,
               "t_lo": 0.1, "samples_per_decade": 20, "window_lo": 0.2, "window_hi": 1.4,
               "tolerance_pct": 1e6}
    # every output but run.json (CSVs, plot.gp, final.bsvf), and at least one CSV
    differing = [cli_determinism(config=cfg, tmp_base=tmp_path).value for cfg in (oracle_cfg, sqg_cfg)]
    identical = not any(differing)
    elapsed = time.perf_counter() - t0
    report(12, identical, "reruns with identical config and seed are byte-identical", elapsed)
    assert identical
