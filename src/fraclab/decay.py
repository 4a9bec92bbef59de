"""Theoretical decay exponents, log-log slope fitting, and comparison reports.

Each supported decay claim predicts ||solution(t)|| <= C (1 + t)^exponent
for a specific homogeneous Besov (or Lebesgue) norm, with the exponent a
closed-form function of the regularity/integrability parameters:

    family          norm decaying    exponent
    --------------  ---------------  ---------------------------------------
    linear          B^ell_{p,1}      -(ell + s) / alpha
    sqg             B^ell_{p,1}      -(ell + s)/alpha - (2/alpha)(1/r - 1/p)
    ks              B^ell_{p,1}      -(ell + s) - 2 (1/r - 1/p)   [alpha = 1]
    ks_subcritical  B^ell_{p,1}      -(ell + s)/alpha - (2/alpha)(1/r - 1/p)
    lebesgue        L^r              -s/alpha - (2/alpha)(1 - 1/r - 1/p)

Here s indexes the negative-regularity class B^{-s}_{.,inf} the initial data
sits in (B^{-s}_{r,inf} for the nonlinear families), which is preserved by
the flow and converts into decay of the higher norms; the
-(2/alpha)(1/r - 1/p) term is the gain of the L^r -> L^p smoothing. The
``ks`` family is the alpha = 1 specialization of ``sqg`` and the two
formulas agree identically there. ``ks_subcritical`` is the
``sqg`` formula on the ``ks`` ranges, for Keller-Segel with alpha in (1, 2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

__all__ = [
    "ClaimError",
    "FitError",
    "DecayClaim",
    "theoretical_exponent",
    "NormSeries",
    "FitResult",
    "fit_decay_slope",
    "ReportEntry",
    "DecayReport",
    "build_report",
]

CLAIM_FAMILIES = ("linear", "sqg", "ks", "ks_subcritical", "lebesgue")


class ClaimError(ValueError):
    """Decay-claim parameters outside the validity range of the claim."""


class FitError(ValueError):
    """Slope fit preconditions violated."""


@dataclass(frozen=True)
class DecayClaim:
    """One decay statement: family plus parameters (s, ell, alpha, p, r).

    Parameter ranges per family (violations raise ClaimError citing the
    constraint):

    - linear:   s >= 0, ell > -s, alpha in (0, 2], p in [2, inf)
    - sqg:      alpha in (0, 1], 2 <= r <= p < inf, -2/p < s < 1 + 2/p,
                -s - 2(1/r - 1/p) <= ell <= 1 + 2/p - alpha
    - ks:       alpha = 1, 2 <= r <= p < inf, 1 - 2/p < s < 1 + 2/p,
                -s - 2(1/r - 1/p) <= ell <= -1 + 2/p
    - ks_subcritical: alpha in (1, 2], with the ks ranges of s, ell, r, p
    - lebesgue: alpha in (0, 1], 2 <= r < inf, p in [2, inf),
                -2/p < s < 1 + 2/p, with the implied Besov index
                ell = 1 - 2/r inside the sqg range for (2, p)
    """

    family: str
    s: float
    ell: float = 0.0
    alpha: float = 1.0
    p: float = 2.0
    r: float = 2.0

    def __post_init__(self):
        for name in ("s", "ell", "alpha", "p", "r"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.family not in CLAIM_FAMILIES:
            raise ClaimError(
                f"unknown claim family {self.family!r}; expected one of {CLAIM_FAMILIES}"
            )
        getattr(self, f"_check_{self.family}")()

    def _check_linear(self):
        if self.s < 0:
            raise ClaimError(f"linear claims require s >= 0, got s={self.s}")
        if not (0.0 < self.alpha <= 2.0):
            raise ClaimError(f"linear claims require alpha in (0, 2], got alpha={self.alpha}")
        if not (2.0 <= self.p < math.inf):
            raise ClaimError(f"linear claims require 2 <= p < inf, got p={self.p}")
        if not (self.ell > -self.s):
            raise ClaimError(
                f"linear claims require ell > -s (got ell={self.ell}, s={self.s}); "
                "the sum ell + s sets the decay rate and must be positive"
            )

    def _check_r_le_p(self, family):
        if not (2.0 <= self.r <= self.p < math.inf):
            raise ClaimError(
                f"{family} claims require 2 <= r <= p < inf, got r={self.r}, p={self.p}"
            )

    def _check_sqg(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ClaimError(f"sqg claims require alpha in (0, 1], got alpha={self.alpha}")
        self._check_r_le_p("sqg")
        if not (-2.0 / self.p < self.s < 1.0 + 2.0 / self.p):
            raise ClaimError(
                f"sqg claims require -2/p < s < 1 + 2/p "
                f"(= {-2.0 / self.p} < s < {1.0 + 2.0 / self.p}), got s={self.s}"
            )
        lo = -self.s - 2.0 * (1.0 / self.r - 1.0 / self.p)
        hi = 1.0 + 2.0 / self.p - self.alpha
        if not (lo <= self.ell <= hi):
            raise ClaimError(
                f"sqg claims require -s - 2(1/r - 1/p) <= ell <= 1 + 2/p - alpha "
                f"(= {lo} <= ell <= {hi}), got ell={self.ell}"
            )

    def _check_ks(self):
        if self.alpha != 1.0:
            raise ClaimError(f"ks claims require alpha = 1, got alpha={self.alpha}")
        self._check_ks_ranges("ks")

    def _check_ks_subcritical(self):
        if not (1.0 < self.alpha <= 2.0):
            raise ClaimError(
                f"ks_subcritical claims require alpha in (1, 2] (ks is alpha = 1), got alpha={self.alpha}"
            )
        self._check_ks_ranges("ks_subcritical")

    def _check_ks_ranges(self, family):
        self._check_r_le_p(family)
        if not (1.0 - 2.0 / self.p < self.s < 1.0 + 2.0 / self.p):
            raise ClaimError(
                f"{family} claims require 1 - 2/p < s < 1 + 2/p "
                f"(= {1.0 - 2.0 / self.p} < s < {1.0 + 2.0 / self.p}), got s={self.s}"
            )
        lo = -self.s - 2.0 * (1.0 / self.r - 1.0 / self.p)
        hi = -1.0 + 2.0 / self.p
        if not (lo <= self.ell <= hi):
            raise ClaimError(
                f"{family} claims require -s - 2(1/r - 1/p) <= ell <= -1 + 2/p "
                f"(= {lo} <= ell <= {hi}), got ell={self.ell}"
            )

    def _check_lebesgue(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ClaimError(f"lebesgue claims require alpha in (0, 1], got alpha={self.alpha}")
        if not (2.0 <= self.p < math.inf):
            raise ClaimError(f"lebesgue claims require 2 <= p < inf, got p={self.p}")
        if not (2.0 <= self.r < math.inf):
            raise ClaimError(f"lebesgue claims require 2 <= r < inf, got r={self.r}")
        if not (-2.0 / self.p < self.s < 1.0 + 2.0 / self.p):
            raise ClaimError(
                f"lebesgue claims require -2/p < s < 1 + 2/p, got s={self.s}"
            )
        # the L^r rate is read off the B^{1-2/r}_{2,1} decay, so that index
        # must be admissible for the (2, p) chain
        implied = 1.0 - 2.0 / self.r
        lo = -self.s - 2.0 * (0.5 - 1.0 / self.p)
        hi = 1.0 + 2.0 / self.p - self.alpha
        if not (lo <= implied <= hi):
            raise ClaimError(
                f"lebesgue claims need the implied index 1 - 2/r = {implied} inside "
                f"[{lo}, {hi}]; adjust r, s, or alpha"
            )


def theoretical_exponent(claim: DecayClaim) -> float:
    """Exact decay exponent of (1 + t) for the claim's norm."""
    s, ell, alpha, p, r = claim.s, claim.ell, claim.alpha, claim.p, claim.r
    if claim.family == "linear":
        return -(ell + s) / alpha
    if claim.family in ("sqg", "ks_subcritical"):
        return -(ell + s) / alpha - (2.0 / alpha) * (1.0 / r - 1.0 / p)
    if claim.family == "ks":
        return -(ell + s) - 2.0 * (1.0 / r - 1.0 / p)
    # lebesgue
    return -s / alpha - (2.0 / alpha) * (1.0 - 1.0 / r - 1.0 / p)


@dataclass
class NormSeries:
    """Norm values sampled along a trajectory, with provenance descriptor.

    quadrature_gap is the largest N-vs-2N node-doubling gap of a quadrature
    series, as a fraction of the value; None for series measured on a grid.
    """

    times: np.ndarray
    values: np.ndarray
    descriptor: str = ""
    quadrature_gap: float | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.times.shape != self.values.shape or self.times.ndim != 1:
            raise FitError("times and values must be 1-d arrays of equal length")
        if len(self.times) and (np.any(self.times <= 0) or np.any(np.diff(self.times) <= 0)):
            raise FitError("times must be positive and strictly increasing")
        if np.any(~np.isfinite(self.values)) or np.any(self.values < 0):
            raise FitError("values must be finite and nonnegative")

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of log(value) against log(1 + t)."""

    slope: float
    intercept: float
    residual: float
    window: tuple[float, float]
    n_samples: int = 0

    def amplitude(self) -> float:
        """Empirical prefactor C with value ~ C (1 + t)^slope."""
        return math.exp(self.intercept)


def fit_decay_slope(series: NormSeries, window: tuple[float, float]) -> FitResult:
    """Fit log(value) = slope * log(1 + t) + intercept over the window.

    Requires at least 10 samples inside [t_lo, t_hi], all positive.
    The regressor is log(1 + t), matching the claimed (1 + t) powers.
    """
    t_lo, t_hi = float(window[0]), float(window[1])
    if not (t_lo < t_hi):
        raise FitError(f"empty fit window [{t_lo}, {t_hi}]")
    sel = (series.times >= t_lo) & (series.times <= t_hi)
    n = int(sel.sum())
    if n < 10:
        raise FitError(f"need >= 10 samples in window [{t_lo}, {t_hi}], found {n}")
    v = series.values[sel]
    if np.any(v <= 0):
        raise FitError("nonpositive values inside the fit window")
    x = np.log1p(series.times[sel])
    y = np.log(v)
    xm = x.mean()
    ym = y.mean()
    dx = x - xm
    slope = float(np.dot(dx, y - ym) / np.dot(dx, dx))
    intercept = float(ym - slope * xm)
    resid = y - (slope * x + intercept)
    rms = float(math.sqrt(np.mean(resid ** 2)))
    return FitResult(slope, intercept, rms, (t_lo, t_hi), n)


@dataclass(frozen=True)
class ReportEntry:
    descriptor: str
    theory: float
    slope: float
    relative_error: float
    passed: bool

    def to_dict(self):
        return {
            "descriptor": self.descriptor,
            "theory": self.theory,
            "slope": self.slope,
            "relative_error": self.relative_error,
            "passed": self.passed,
        }


@dataclass
class DecayReport:
    entries: list = dc_field(default_factory=list)
    tolerance_pct: float = 0.0

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)  # vacuously true when empty

    def to_dict(self):
        return {
            "tolerance_pct": self.tolerance_pct,
            "passed": self.passed,
            "entries": [e.to_dict() for e in self.entries],
        }


def build_report(
    fits: Sequence[FitResult],
    claims: Sequence[DecayClaim],
    tolerance_pct: float,
    descriptors: Sequence[str] | None = None,
) -> DecayReport:
    """Pair fitted slopes with theoretical exponents and grade each pair.

    Relative error is |slope - theory| / |theory|; a pair passes when the
    error is within tolerance_pct percent.
    """
    if len(fits) != len(claims):
        raise FitError(f"fits ({len(fits)}) and claims ({len(claims)}) must align one-to-one")
    if descriptors is not None and len(descriptors) != len(fits):
        raise FitError("descriptors must align with fits")
    report = DecayReport(tolerance_pct=float(tolerance_pct))
    for i, (fit, claim) in enumerate(zip(fits, claims)):
        theory = theoretical_exponent(claim)
        if theory == 0.0:
            raise FitError("claim predicts zero exponent; relative comparison undefined")
        rel = abs(fit.slope - theory) / abs(theory)
        desc = descriptors[i] if descriptors is not None else f"{claim.family}[{i}]"
        report.entries.append(
            ReportEntry(desc, theory, fit.slope, rel, rel <= tolerance_pct / 100.0)
        )
    return report
