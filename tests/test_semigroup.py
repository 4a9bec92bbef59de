"""Linear evolution on the grid and the continuum frequency oracle."""

import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from fraclab import semigroup
from fraclab.decay import DecayClaim
from fraclab.evolution import MAX_SAMPLES, log_spaced_times, spectral_besov_norm
from fraclab.littlewood_paley import BesovParams, build_dyadic_profile
from fraclab.selftest import semigroup_oracle_vs_riemann
from fraclab.semigroup import (
    GL_NODES,
    QuadratureError,
    RadialSpectralDensity,
    _SUBPANELS,
    _dissipation_symbol,
    _level_rules,
    _reference_rules,
    _top_level,
    evolve_linear,
    gauss_legendre_panels,
    oracle_besov_series,
    oracle_block_norm,
    oracle_l2_norm,
    sphere_measure,
)
from fraclab.spectral import (
    Grid2D,
    MultiplierSpec,
    RealField,
    SpectralError,
    SpectralField,
    dealias_mask,
    forward_transform,
    multiplier_symbol,
)
from helpers import random_band_field


class TestEvolveLinear:
    def test_single_mode_halved(self):
        # |xi| = 1, alpha = 1, t = ln 2 halves the coefficient
        g = Grid2D(32, 2 * math.pi)
        x1, _ = g.coordinates()
        sp = forward_transform(RealField(g, np.cos(2 * math.pi * x1 / g.L)))
        out = evolve_linear(sp, 1.0, math.log(2.0))
        assert out.coefficients[1, 0] == pytest.approx(0.25, rel=1e-12)

    def test_mean_unchanged(self, rng):
        g = Grid2D(32, 1.0)
        f = random_band_field(g, rng, zero_mean=False)
        sp = forward_transform(f)
        out = evolve_linear(sp, 0.7, 5.0)
        assert out.coefficients[0, 0] == sp.coefficients[0, 0]

    def test_symbol_built_once_and_bit_identical(self, rng):
        g = Grid2D(64, 7.0)
        sp = forward_transform(random_band_field(g, rng))
        sym = multiplier_symbol(g, MultiplierSpec.fractional_laplacian(0.8))
        for t in (0.0, 0.37, 4.0):
            out = evolve_linear(sp, 0.8, t)
            assert np.array_equal(out.coefficients, sp.coefficients * np.exp(-t * sym))
        cached = _dissipation_symbol(Grid2D(64, 7.0), 0.8)
        assert cached is _dissipation_symbol(g, 0.8)
        assert np.array_equal(cached, sym) and not cached.flags.writeable

    def test_negative_time_rejected(self, rng):
        g = Grid2D(32, 1.0)
        sp = forward_transform(random_band_field(g, rng))
        with pytest.raises(SpectralError, match="nonnegative"):
            evolve_linear(sp, 1.0, -0.1)


def phi_mp(x):
    # the dyadic bump in mpmath, written from its definition
    def step(u):
        a, b = mpmath.exp(-1 / u), mpmath.exp(-1 / (1 - u))
        return a / (a + b)

    width = mpmath.mpf(4) / 3 - mpmath.mpf(3) / 4
    if x <= 0.75 or x >= mpmath.mpf(8) / 3:
        return mpmath.mpf(0)
    if x < mpmath.mpf(4) / 3:
        return step((x - mpmath.mpf(3) / 4) / width)
    if x <= 1.5:
        return mpmath.mpf(1)
    return step((mpmath.mpf(4) / 3 - x / 2) / width)


class TestPanelRule:
    def test_polynomial_exact(self):
        r, w = gauss_legendre_panels([0.0, 2.0])
        assert w @ (r ** 3 - 2 * r) == pytest.approx(0.0, abs=1e-13)
        for k in range(2 * GL_NODES):  # every degree up to 2m - 1
            assert w @ r ** k == pytest.approx(2.0 ** (k + 1) / (k + 1), rel=1e-13)

    def test_nodes_match_leggauss(self):
        r, w = gauss_legendre_panels([-1.0, 1.0])
        x, wx = np.polynomial.legendre.leggauss(GL_NODES)
        assert np.abs(r - x).max() <= 1e-14 and np.abs(w - wx).max() <= 1e-14

    def test_matches_closed_form(self):
        r, w = gauss_legendre_panels([0.0, math.pi])
        assert w @ np.sin(r) == pytest.approx(2.0, rel=1e-11)

    def test_empty_interval(self):
        r, w = gauss_legendre_panels([1.0, 1.0], 4)
        assert len(r) == len(w) == 0
        assert w @ np.sin(r) == 0.0


class TestDensities:
    def test_forms(self):
        ball = RadialSpectralDensity.ball_indicator(2.0)
        assert ball.rho(1.9) == 1.0 and ball.rho(2.1) == 0.0
        pl = RadialSpectralDensity.power_law(1.5, 0.5, 2.0)
        assert pl.rho(1.0) == 1.0 and pl.rho(0.4) == 0.0
        ga = RadialSpectralDensity.gaussian(0.5)
        assert ga.rho(0.5) == pytest.approx(math.exp(-0.5))

    def test_invalid(self):
        with pytest.raises(SpectralError):
            RadialSpectralDensity.ball_indicator(-1.0)
        with pytest.raises(SpectralError):
            RadialSpectralDensity.power_law(0.0, 2.0, 1.0)

    def test_sphere_measure(self):
        assert sphere_measure(2) == pytest.approx(2 * math.pi)
        assert sphere_measure(3) == pytest.approx(4 * math.pi)


class TestOracleBlocks:
    def test_against_riemann_reference(self):
        # 1e6-point Riemann reference at t = 0
        for j in (-3, -2):
            assert semigroup_oracle_vs_riemann(level=j, points=1_000_001).value <= 1e-8

    def test_zero_outside_support(self, profile):
        ball = RadialSpectralDensity.ball_indicator(1.0)
        assert oracle_block_norm(ball, 1, 0.5, 1.0, profile) == 0.0

    def test_strictly_decreasing_in_time(self, profile):
        ball = RadialSpectralDensity.ball_indicator(1.0)
        vals = [oracle_block_norm(ball, -2, t, 1.0, profile) for t in (0.0, 0.5, 1.0, 4.0, 16.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_against_mpmath(self, profile):
        # 30-digit reference at t = 0, a deep level at large t, alpha = 2
        # and alpha = 1/2
        ball = RadialSpectralDensity.ball_indicator(1.0)
        for j, t, alpha in ((-2, 0.0, 1.0), (-13, 1e4, 1.0), (-3, 5.0, 2.0), (-5, 30.0, 0.5)):
            with mpmath.workdps(30):
                scale = mpmath.mpf(2) ** j
                edges = [scale * e for e in (0.75, mpmath.mpf(4) / 3, 1.5, mpmath.mpf(8) / 3)]
                integral = mpmath.quad(
                    lambda r: phi_mp(r / scale) ** 2 * mpmath.exp(-2 * t * r ** alpha) * r, edges
                )
                ref = float(mpmath.sqrt(integral / (2 * mpmath.pi)))
            quad = oracle_block_norm(ball, j, t, alpha, profile)
            assert quad == pytest.approx(ref, rel=1e-12)

    def test_unreachable_tolerance_raises(self, profile):
        ball = RadialSpectralDensity.ball_indicator(1.0)
        with pytest.raises(QuadratureError, match="node-doubling gap"):
            oracle_block_norm(ball, -3, 1.0, 1.0, profile, rel_tol=1e-18)
        with pytest.raises(QuadratureError, match="node-doubling gap"):
            oracle_l2_norm(ball, 1.0, 1.0, rel_tol=1e-18)

    def test_concentrated_integrand(self):
        # mass within 1e-2 (t = 2e4) and 1e-4 (t = 1e8) of the origin of the
        # unit ball
        ball = RadialSpectralDensity.ball_indicator(1.0)
        for t in (2.0e4, 1.0e8):
            closed = math.sqrt((2 * math.pi) ** -2 * math.pi * (1 - math.exp(-2 * t)) / (2 * t))
            assert oracle_l2_norm(ball, t, 2.0) == pytest.approx(closed, rel=1e-9)

    def test_l2_closed_form_alpha2(self):
        # ||u(t)||_{L^2}^2 = (2pi)^-2 * pi * (1 - exp(-2t)) / (2t) for unit-ball data
        ball = RadialSpectralDensity.ball_indicator(1.0)
        for t in (0.5, 1.0, 10.0, 1e3):
            closed = math.sqrt((2 * math.pi) ** -2 * math.pi * (1 - math.exp(-2 * t)) / (2 * t))
            assert oracle_l2_norm(ball, t, 2.0) == pytest.approx(closed, rel=1e-9)

    def test_partition_weighted_block_sum_reconstructs_l2(self, profile):
        # sum_j of first-power phi-weighted radial integrals telescopes back
        # to the plain L^2 integral; agreement far inside the 0.5% budget
        ball = RadialSpectralDensity.ball_indicator(1.0)
        for t in (1.0, 100.0):
            total = 0.0
            for j in range(2, -60, -1):
                lo, hi = 0.75 * 2.0 ** j, min(8.0 / 3.0 * 2.0 ** j, 1.0)
                if hi <= lo:
                    continue
                edges = np.clip(np.array([0.75, 4.0 / 3.0, 1.5, 8.0 / 3.0]) * 2.0 ** j, lo, hi)
                r, w = gauss_legendre_panels(edges, 4)
                val = w @ (profile.phi_array(r * 2.0 ** -j) * np.exp(-2 * t * r ** 2) * r)
                total += val
                if total > 0 and val < 1e-14 * total:
                    break
            recon = math.sqrt((2 * math.pi) ** -2 * 2 * math.pi * total)
            closed = math.sqrt((2 * math.pi) ** -2 * math.pi * (1 - math.exp(-2 * t)) / (2 * t))
            assert recon == pytest.approx(closed, rel=5e-3)
            assert recon == pytest.approx(closed, rel=1e-6)


def direct_level_rules(density, j, profile):
    """The N- and 2N-node rules of level j built straight on the level's own
    panel edges, with no reference rule: the bit-identity reference for
    _level_rules."""
    scale = 2.0 ** j
    breaks = scale * np.array([0.75, 4.0 / 3.0, 1.5, 8.0 / 3.0])
    s_lo, s_hi = density.support()
    lo = max(breaks[0], s_lo)
    hi = max(lo, min(breaks[-1], s_hi))
    edges = np.sort(np.clip(np.append(breaks, (s_lo, s_hi)), lo, hi))
    rules = []
    for sub in _SUBPANELS:
        r, w = gauss_legendre_panels(edges, sub)
        g = profile.phi_array(r / scale) * density.rho_array(r)
        rules.append((r, w * g * g * r ** (density.dimension - 1)))
    return rules


_RULE_DENSITIES = {
    "ball-1": lambda d: RadialSpectralDensity.ball_indicator(1.0, d),
    "ball-3": lambda d: RadialSpectralDensity.ball_indicator(3.0, d),
    "power-law": lambda d: RadialSpectralDensity.power_law(0.5, 0.3, 5.0, d),
    "power-law-steep": lambda d: RadialSpectralDensity.power_law(-1.5, 0.05, 0.9, d),
    "gaussian": lambda d: RadialSpectralDensity.gaussian(0.7, d),
}


class TestLevelRules:
    """Levels rescaled from cached reference rules, against a direct build."""

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    @pytest.mark.parametrize("form", sorted(_RULE_DENSITIES))
    def test_rescaled_rules_bit_identical_to_direct_build(self, profile, form, dimension):
        density = _RULE_DENSITIES[form](dimension)
        j_top = _top_level(density)
        # down past the lower support edge, and the deepest level a series may reach
        levels = [*range(j_top - 10, j_top + 2), j_top - 400]
        for edge in density.support():
            if 0.0 < edge < math.inf:  # some level's annulus straddles every support edge
                assert any(0.75 * 2.0 ** j < edge < 8.0 / 3.0 * 2.0 ** j for j in levels)
        filled = 0
        for j in levels:
            rules = _level_rules(density, j, profile)
            direct = direct_level_rules(density, j, profile)
            assert len(rules) == len(direct)
            for (r, w), (r_ref, w_ref) in zip(rules, direct):
                assert r.tobytes() == r_ref.tobytes() and w.tobytes() == w_ref.tobytes()
            filled += len(rules[0][0]) > 0
        assert filled >= 4

    def test_reference_rules_shared_by_profiles_and_read_only(self):
        a, b = build_dyadic_profile(), build_dyadic_profile()
        assert a is not b and a == b and hash(a) == hash(b)
        ball = RadialSpectralDensity.ball_indicator(1.0)
        _level_rules(ball, -5, a)
        before = _reference_rules.cache_info()
        # every level below j = -1 of the unit ball has the same reference edges
        for j in (-5, -9, -300):
            _level_rules(ball, j, b)
        after = _reference_rules.cache_info()
        assert after.misses == before.misses and after.hits == before.hits + 3
        edges = (0.75, 4.0 / 3.0, 1.5)
        rules = _reference_rules(edges, a)
        assert _reference_rules(edges, b) is rules
        for rule in rules:
            for array in rule:
                with pytest.raises(ValueError):
                    array[0] = 0.0


class TestOracleSeries:
    def test_schedule_longer_than_max_samples_refused_before_the_sweep(self, profile, monkeypatch):
        monkeypatch.setattr(semigroup, "_level_rules", lambda *args: pytest.fail("the sweep started"))
        ball = RadialSpectralDensity.ball_indicator(1.0)
        claim = DecayClaim("linear", s=1.0, ell=0.0, alpha=1.0, p=2.0, r=2.0)
        times = np.linspace(1.0, 2.0, MAX_SAMPLES + 1)
        with pytest.raises(SpectralError, match="10001 sample times, more than 10000"):
            oracle_besov_series(ball, claim, times, profile)

    def test_preserved_bounded_by_initial(self, profile):
        ball = RadialSpectralDensity.ball_indicator(1.0)
        claim = DecayClaim("linear", s=1.0, ell=0.0, alpha=1.0, p=2.0, r=2.0)
        times = log_spaced_times(0.1, 100.0, 8)
        (series,) = oracle_besov_series(ball, claim, times, profile, ("preserved",))
        assert np.all(series.values <= series.values[0] * (1 + 1e-12))

    def test_unreachable_tolerance_raises(self, profile):
        ball = RadialSpectralDensity.ball_indicator(1.0)
        claim = DecayClaim("linear", s=1.0, ell=0.0, alpha=1.0, p=2.0, r=2.0)
        times = log_spaced_times(1.0, 10.0, 6)
        for kind in ("decay", "preserved"):
            with pytest.raises(QuadratureError, match="node-doubling gap"):
                oracle_besov_series(ball, claim, times, profile, (kind,), rel_tol=1e-18)

    @pytest.mark.parametrize("kind", ["decay", "preserved"])
    def test_series_carries_its_node_doubling_gap(self, profile, kind):
        # the reported gap is the threshold of the check: just below it the
        # same series raises, just above it the series passes unchanged
        ball = RadialSpectralDensity.ball_indicator(1.0)
        claim = DecayClaim("linear", s=1.0, ell=0.0, alpha=1.0, p=2.0, r=2.0)
        times = log_spaced_times(1.0, 10.0, 6)
        (series,) = oracle_besov_series(ball, claim, times, profile, (kind,))
        gap = series.quadrature_gap
        assert 0.0 < gap <= 1e-9
        with pytest.raises(QuadratureError, match="node-doubling gap"):
            oracle_besov_series(ball, claim, times, profile, (kind,), rel_tol=0.999 * gap)
        (again,) = oracle_besov_series(ball, claim, times, profile, (kind,), rel_tol=1.001 * gap)
        assert again.quadrature_gap == gap and np.array_equal(again.values, series.values)


_SWEEP_DENSITIES = {
    "ball": RadialSpectralDensity.ball_indicator(1.0),
    "power-law": RadialSpectralDensity.power_law(1.0, 1.0 / 6.0, 2.0 / 3.0),
    "gaussian": RadialSpectralDensity.gaussian(1.0),
    "ball-3d": RadialSpectralDensity.ball_indicator(1.0, dimension=3),
    "power-law-3d": RadialSpectralDensity.power_law(-0.5, 0.01, 3.0, dimension=3),
}
_SHIPPED_ORACLE = Path(__file__).resolve().parents[1] / "configs" / "oracle-linear-decay.json"


class TestJointSweep:
    """One level sweep for several series kinds, against one sweep per kind."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("name", sorted(_SWEEP_DENSITIES))
    def test_bit_identical_to_single_kind_sweeps(self, profile, name, alpha):
        density = _SWEEP_DENSITIES[name]
        claim = DecayClaim("linear", s=1.0, ell=0.0, alpha=alpha, p=2.0, r=2.0)
        # on the long 3-d window the kinds stop at different times, so the
        # late levels evaluate row subsets of the shared exponent matrix
        window = (10.0, 1e4, 40) if density.dimension == 3 else (0.1, 100.0, 8)
        times = log_spaced_times(*window)
        single = {k: oracle_besov_series(density, claim, times, profile, (k,))[0] for k in ("decay", "preserved")}
        for kinds in (("decay", "preserved"), ("preserved", "decay")):
            for kind, series in zip(kinds, oracle_besov_series(density, claim, times, profile, kinds)):
                ref = single[kind]
                assert series.values.tobytes() == ref.values.tobytes()
                assert series.quadrature_gap == ref.quadrature_gap
                assert series.levels == ref.levels and series.descriptor == ref.descriptor

    @pytest.mark.parametrize("ell", [0.0, 1.0])
    def test_series_equal_sums_and_maxima_of_block_norms(self, profile, ell):
        ball = RadialSpectralDensity.ball_indicator(1.0)
        claim = DecayClaim("linear", s=1.0, ell=ell, alpha=1.0, p=2.0, r=2.0)
        times = log_spaced_times(1.0, 100.0, 2)
        decay, preserved = oracle_besov_series(ball, claim, times, profile, ("decay", "preserved"))
        j_top = _top_level(ball)
        for i, t in enumerate(times):
            blocks = {
                j: oracle_block_norm(ball, j, float(t), 1.0, profile)
                for j in range(j_top, j_top - 81, -1)
            }
            l1 = sum(2.0 ** (j * ell) * b for j, b in blocks.items())
            sup = max(2.0 ** -j * b for j, b in blocks.items())
            assert decay.values[i] == pytest.approx(l1, rel=1e-12, abs=0.0)
            assert preserved.values[i] == pytest.approx(sup, rel=1e-12, abs=0.0)

    def test_unreachable_tolerance_names_the_failing_kind(self, profile):
        ball = RadialSpectralDensity.ball_indicator(1.0)
        claim = DecayClaim("linear", s=1.0, ell=0.0, alpha=1.0, p=2.0, r=2.0)
        times = log_spaced_times(1.0, 10.0, 6)
        for kinds in (("decay", "preserved"), ("preserved", "decay")):
            with pytest.raises(QuadratureError, match=f"^{kinds[0]} series at t = .* node-doubling gap"):
                oracle_besov_series(ball, claim, times, profile, kinds, rel_tol=1e-18)

    @pytest.mark.parametrize("kinds", [("preserved",), ("decay", "preserved"), ("preserved", "decay")])
    def test_unbounded_sup_aborts_naming_the_kind(self, profile, kinds):
        # ball data in 2-D is not in B^{-s}_{2,inf} for s > 1: the sup keeps
        # growing as j falls, until the 400-level limit
        ball = RadialSpectralDensity.ball_indicator(1.0)
        claim = DecayClaim("linear", s=1.5, ell=0.0, alpha=1.0, p=2.0, r=2.0)
        times = log_spaced_times(10.0, 100.0, 10)
        with pytest.raises(QuadratureError, match="^preserved series: sup over levels did not stabilize"):
            oracle_besov_series(ball, claim, times, profile, kinds)

    def test_shipped_config_builds_each_level_once(self, profile, monkeypatch):
        cfg = json.loads(_SHIPPED_ORACLE.read_text())
        density = RadialSpectralDensity(**cfg["density"])
        claim = DecayClaim("linear", s=cfg["s"], ell=cfg["ell"], alpha=cfg["alpha"], p=2.0, r=2.0)
        times = log_spaced_times(cfg["t_lo"], cfg["t_hi"], cfg["samples_per_decade"])
        built = []
        monkeypatch.setattr(
            semigroup, "_level_rules", lambda d, j, p: built.append(j) or _level_rules(d, j, p)
        )
        counts = {}
        for kinds in (("decay",), ("preserved",), ("decay", "preserved")):
            built.clear()
            series = oracle_besov_series(density, claim, times, profile, kinds)
            counts[kinds] = len(built)
            assert len(set(built)) == len(built) == max(s.levels for s in series)
        assert counts["decay",] + counts["preserved",] == 127
        assert counts["decay", "preserved"] == max(counts["decay",], counts["preserved",]) == 65

    @pytest.mark.parametrize(
        "kinds", [(), "decay", "preserved", ("decay", "decay"), ("decay", "sup")], ids=repr
    )
    def test_bad_kinds_refused(self, profile, kinds):
        ball = RadialSpectralDensity.ball_indicator(1.0)
        claim = DecayClaim("linear", s=1.0, ell=0.0, alpha=1.0, p=2.0, r=2.0)
        with pytest.raises(SpectralError, match="kinds must be distinct names"):
            oracle_besov_series(ball, claim, [1.0, 2.0], profile, kinds)


class TestGridOracleAgreement:
    def test_band_limited_radial_data(self, profile):
        # smooth-enough banded data: grid besov norms track the continuum
        # oracle within 1% over the pre-cutoff window (alpha = 1), and over
        # the lattice-resolved part of the alpha = 2 window
        g = Grid2D(256, 2 * math.pi * 64)
        dens = RadialSpectralDensity.power_law(1.0, 1.0 / 6.0, 2.0 / 3.0)
        c = dens.rho_array(g.xi_mag) / g.L ** 2
        c = np.where(dealias_mask(g), c, 0.0)
        c[0, 0] = 0.0
        base = SpectralField(g, c.astype(complex), check=False)
        for alpha, t_hi in ((1.0, 0.1 / g.xi_min), (2.0, 160.0)):
            claim = DecayClaim("linear", s=1.0, ell=0.0, alpha=alpha, p=2.0, r=2.0)
            times = log_spaced_times(t_hi / 50.0, t_hi, 8)
            (oracle,) = oracle_besov_series(dens, claim, times, profile)
            for i, t in enumerate(times):
                ct = evolve_linear(base, alpha, float(t)).coefficients
                gv = spectral_besov_norm(g, ct, BesovParams(0.0, 2.0, 1.0), profile)
                assert abs(gv - oracle.values[i]) <= 0.01 * oracle.values[i]
