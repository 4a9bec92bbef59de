"""Decay claims, exponent table, slope fitting, and the graded fit."""

import math

import numpy as np
import pytest

from fraclab.decay import (
    ClaimError,
    DecayClaim,
    FitError,
    GradedFit,
    NormSeries,
    fit_decay_slope,
    theoretical_exponent,
)
from fraclab.selftest import decay_sqg_ks_alpha1_identity


class TestClaims:
    def test_linear_ranges(self):
        DecayClaim("linear", s=0.0, ell=0.5, alpha=2.0, p=2.0)
        with pytest.raises(ClaimError, match="s >= 0"):
            DecayClaim("linear", s=-0.5, ell=1.0, alpha=1.0)
        with pytest.raises(ClaimError, match="ell > -s"):
            DecayClaim("linear", s=1.0, ell=-1.0, alpha=1.0)
        with pytest.raises(ClaimError, match="alpha"):
            DecayClaim("linear", s=1.0, ell=0.0, alpha=2.5)
        for p in (1.0, math.inf):
            with pytest.raises(ClaimError, match="linear claims require 2 <= p < inf"):
                DecayClaim("linear", s=1.0, ell=0.0, alpha=1.0, p=p)

    def test_sqg_ranges(self):
        DecayClaim("sqg", s=1.0, ell=0.0, alpha=1.0, p=2.0, r=2.0)
        for alpha in (0.0, 1.5):
            with pytest.raises(ClaimError, match="sqg claims require alpha in \\(0, 1\\]"):
                DecayClaim("sqg", s=1.0, ell=0.0, alpha=alpha, p=2.0, r=2.0)
        with pytest.raises(ClaimError, match="-2/p < s < 1 \\+ 2/p"):
            DecayClaim("sqg", s=2.5, ell=0.0, alpha=1.0, p=2.0, r=2.0)
        with pytest.raises(ClaimError, match="2 <= r <= p"):
            DecayClaim("sqg", s=1.0, ell=0.0, alpha=1.0, p=2.0, r=4.0)
        with pytest.raises(ClaimError, match="ell"):
            DecayClaim("sqg", s=1.0, ell=1.5, alpha=1.0, p=2.0, r=2.0)

    def test_ks_ranges(self):
        DecayClaim("ks", s=1.0, ell=0.0, alpha=1.0, p=2.0, r=2.0)
        with pytest.raises(ClaimError, match="1 - 2/p < s < 1 \\+ 2/p"):
            DecayClaim("ks", s=3.0, ell=0.0, alpha=1.0, p=2.0, r=2.0)
        with pytest.raises(ClaimError, match="alpha = 1"):
            DecayClaim("ks", s=1.0, ell=0.0, alpha=1.5, p=2.0, r=2.0)

    def test_ks_subcritical_ranges(self):
        for alpha in (1.5, 2.0):
            DecayClaim("ks_subcritical", s=1.0, ell=0.0, alpha=alpha, p=2.0, r=2.0)
        for alpha in (1.0, 2.5):
            with pytest.raises(ClaimError, match="alpha in \\(1, 2\\]"):
                DecayClaim("ks_subcritical", s=1.0, ell=0.0, alpha=alpha, p=2.0, r=2.0)
        # s and ell keep the ks ranges, not the wider sqg ones
        with pytest.raises(ClaimError, match="1 - 2/p < s < 1 \\+ 2/p"):
            DecayClaim("ks_subcritical", s=0.5, ell=-0.5, alpha=1.5, p=4.0, r=2.0)
        with pytest.raises(ClaimError, match="ell <= -1 \\+ 2/p"):
            DecayClaim("ks_subcritical", s=1.0, ell=0.5, alpha=1.5, p=2.0, r=2.0)
        with pytest.raises(ClaimError, match="-s - 2\\(1/r - 1/p\\) <= ell"):
            DecayClaim("ks_subcritical", s=1.0, ell=-1.6, alpha=1.5, p=4.0, r=2.0)
        with pytest.raises(ClaimError, match="2 <= r <= p"):
            DecayClaim("ks_subcritical", s=1.0, ell=0.0, alpha=1.5, p=2.0, r=4.0)

    def test_lebesgue_ranges(self):
        DecayClaim("lebesgue", s=0.5, alpha=1.0, p=4.0, r=3.0)
        for alpha in (0.0, 1.5):
            with pytest.raises(ClaimError, match="lebesgue claims require alpha in \\(0, 1\\]"):
                DecayClaim("lebesgue", s=0.5, alpha=alpha, p=4.0, r=3.0)
        for p in (1.0, math.inf):
            with pytest.raises(ClaimError, match="lebesgue claims require 2 <= p < inf"):
                DecayClaim("lebesgue", s=0.5, alpha=1.0, p=p, r=3.0)
        # r is the Lebesgue exponent of the decaying norm, not bounded by p
        DecayClaim("lebesgue", s=0.5, alpha=1.0, p=2.0, r=3.0)
        for r in (1.0, math.inf):
            with pytest.raises(ClaimError, match="lebesgue claims require 2 <= r < inf"):
                DecayClaim("lebesgue", s=0.5, alpha=1.0, p=4.0, r=r)
        for s in (-0.5, 1.5):
            with pytest.raises(ClaimError, match="lebesgue claims require -2/p < s < 1 \\+ 2/p"):
                DecayClaim("lebesgue", s=s, alpha=1.0, p=4.0, r=3.0)
        # the rest is the range of the (2, p) claim at the implied index 1 - 2/r
        for s, p, r in ((0.5, 4.0, 8.0), (-0.5, 2.0, 2.0)):
            with pytest.raises(ClaimError, match="lebesgue claims require -s - 2\\(1/2 - 1/p\\) <= 1 - 2/r "
                                                 "<= 1 \\+ 2/p - alpha .*, got 1 - 2/r="):
                DecayClaim("lebesgue", s=s, alpha=1.0, p=p, r=r)

    def test_lebesgue_claims_refuse_an_ell_they_would_not_read(self):
        DecayClaim("lebesgue", s=0.5, ell=0.0, alpha=1.0, p=4.0, r=3.0)
        for ell in (0.5, -0.5):
            with pytest.raises(ClaimError, match=f"lebesgue claims require ell = 0 .*, got ell={ell}"):
                DecayClaim("lebesgue", s=0.5, ell=ell, alpha=1.0, p=4.0, r=3.0)

    def test_unknown_family(self):
        with pytest.raises(ClaimError, match="unknown claim family"):
            DecayClaim("heat", s=1.0)


class TestExponentTable:
    def test_linear_value(self):
        c = DecayClaim("linear", s=1.0, ell=0.0, alpha=2.0, p=2.0)
        assert theoretical_exponent(c) == -0.5

    def test_sqg_at_top_index_matches_closed_form(self):
        # at ell = 1 + 2/p - alpha the rate collapses to -(s + 2/r + 1 - alpha)/alpha
        for p in (2.0, 4.0):
            for r in (2.0, p):
                for alpha in (0.5, 1.0):
                    for s in (0.4, 0.9):
                        ell = 1.0 + 2.0 / p - alpha
                        c = DecayClaim("sqg", s=s, ell=ell, alpha=alpha, p=p, r=r)
                        expected = -(s + 2.0 / r + 1.0 - alpha) / alpha
                        assert theoretical_exponent(c) == pytest.approx(expected, abs=1e-15)

    def test_ks_at_top_index_matches_closed_form(self):
        # at ell = -1 + 2/p the rate collapses to -(s + 2/r - 1)
        c = DecayClaim("ks", s=1.0, ell=0.0, alpha=1.0, p=2.0, r=2.0)
        assert theoretical_exponent(c) == pytest.approx(-(1.0 + 2.0 / 2.0 - 1.0), abs=1e-15)
        assert theoretical_exponent(c) == -1.0

    def test_sqg_alpha1_equals_ks(self):
        assert decay_sqg_ks_alpha1_identity(s_points=5, ell_points=4, margin=0.01).value == 0.0

    def test_lebesgue_rate_consistent_with_chain(self):
        # L^r rate = sqg rate of the (2, p) claim at the implied index 1 - 2/r
        p = 4.0
        for r, alpha, s in ((2.0, 1.0, 0.2), (2.0, 0.5, 0.8), (3.0, 1.0, 0.5), (6.0, 0.8, 0.8)):
            lc = DecayClaim("lebesgue", s=s, alpha=alpha, p=p, r=r)
            chain = DecayClaim("sqg", s=s, ell=1.0 - 2.0 / r, alpha=alpha, p=p, r=2.0)
            assert theoretical_exponent(lc) == pytest.approx(
                theoretical_exponent(chain), abs=1e-14
            )


class TestNormSeries:
    def test_validation(self):
        with pytest.raises(FitError, match="increasing"):
            NormSeries(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(FitError, match="positive"):
            NormSeries(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(FitError, match="finite"):
            NormSeries(np.array([1.0, 2.0]), np.array([1.0, math.nan]))

    @pytest.mark.parametrize("times", [[math.nan, 1.0], [1.0, math.nan], [1.0, math.inf]])
    def test_refuses_non_finite_times(self, times):
        with pytest.raises(FitError, match="times must be finite"):
            NormSeries(np.array(times), np.array([1.0, 1.0]))


class TestFit:
    def test_exact_power_law(self):
        t = np.exp(np.linspace(0.0, 5.0, 40))
        series = NormSeries(t, 2.0 * (1.0 + t) ** -2.0)
        fit = fit_decay_slope(series, (t[0], t[-1]))
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.residual <= 1e-12
        assert math.exp(fit.intercept) == pytest.approx(2.0, rel=1e-10)

    def test_constant_series(self):
        t = np.linspace(1.0, 50.0, 30)
        fit = fit_decay_slope(NormSeries(t, np.full(30, 3.3)), (1.0, 50.0))
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    def test_scaling_changes_intercept_only(self):
        t = np.exp(np.linspace(0.0, 4.0, 25))
        base = NormSeries(t, (1.0 + t) ** -1.3)
        scaled = NormSeries(t, 9.0 * (1.0 + t) ** -1.3)
        f1 = fit_decay_slope(base, (t[0], t[-1]))
        f2 = fit_decay_slope(scaled, (t[0], t[-1]))
        assert f2.slope == pytest.approx(f1.slope, abs=1e-13)
        assert f2.intercept - f1.intercept == pytest.approx(math.log(9.0), abs=1e-12)

    def test_requires_ten_samples(self):
        t = np.linspace(1.0, 2.0, 5)
        with pytest.raises(FitError, match=">= 10 samples"):
            fit_decay_slope(NormSeries(t, np.ones(5)), (1.0, 2.0))

    def test_rejects_nonpositive_values(self):
        t = np.linspace(1.0, 2.0, 12)
        v = np.ones(12)
        v[4] = 0.0
        with pytest.raises(FitError, match="nonpositive"):
            fit_decay_slope(NormSeries(t, v), (1.0, 2.0))


class TestReport:
    def _fit(self, slope):
        t = np.exp(np.linspace(0.0, 4.0, 20))
        return fit_decay_slope(NormSeries(t, (1.0 + t) ** slope), (t[0], t[-1]))

    def test_exact_match(self):
        claim = DecayClaim("linear", s=1.0, ell=0.0, alpha=2.0)
        report = GradedFit(self._fit(-0.5), theoretical_exponent(claim), 5.0, "linear")
        assert report.passed
        assert report.relative_error <= 1e-12

    def test_two_percent_error_passes_at_five(self):
        claim = DecayClaim("linear", s=1.0, ell=0.0, alpha=2.0)
        report = GradedFit(self._fit(-0.51), theoretical_exponent(claim), 5.0, "linear")
        assert report.passed
        assert report.relative_error == pytest.approx(0.02, rel=1e-6)
