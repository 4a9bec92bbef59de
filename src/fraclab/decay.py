"""Theoretical decay exponents, log-log slope fitting, and the graded fit.

Each supported decay claim predicts ||solution(t)|| <= C (1 + t)^exponent
for a specific homogeneous Besov (or Lebesgue) norm, with the exponent a
closed-form function of the regularity/integrability parameters:

    family          norm decaying    exponent
    --------------  ---------------  ---------------------------------------
    linear          B^ell_{p,1}      -(ell + s) / alpha
    sqg             B^ell_{p,1}      -(ell + s)/alpha - (2/alpha)(1/r - 1/p)
    ks              B^ell_{p,1}      the sqg exponent at alpha = 1
    ks_subcritical  B^ell_{p,1}      the sqg exponent, alpha in (1, 2]
    lebesgue        L^r              -s/alpha - (2/alpha)(1 - 1/r - 1/p)

Here s indexes the negative-regularity class B^{-s}_{.,inf} the initial data
sits in (B^{-s}_{r,inf} for the nonlinear families), which is preserved by
the flow and converts into decay of the higher norms; the
-(2/alpha)(1/r - 1/p) term is the gain of the L^r -> L^p smoothing. The four
nonlinear families come from one energy argument and share one admissible
range, the sqg one, with two narrowings (``DecayClaim``): Keller-Segel (``ks``
at alpha = 1, ``ks_subcritical`` for alpha in (1, 2]) keeps s and ell in a
narrower window, and ``lebesgue`` is the (2, p) claim at ell = 1 - 2/r, its
L^r rate read off the B^{1-2/r}_{2,1} decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ClaimError",
    "FitError",
    "DecayClaim",
    "theoretical_exponent",
    "NormSeries",
    "FitResult",
    "fit_decay_slope",
    "GradedFit",
]

CLAIM_FAMILIES = ("linear", "sqg", "ks", "ks_subcritical", "lebesgue")


# The dissipation exponents each nonlinear family admits: (constraint, test).
_NONLINEAR_ALPHA = {
    "sqg": ("alpha in (0, 1]", lambda alpha: 0.0 < alpha <= 1.0),
    "ks": ("alpha = 1", lambda alpha: alpha == 1.0),
    "ks_subcritical": ("alpha in (1, 2] (ks is alpha = 1)", lambda alpha: 1.0 < alpha <= 2.0),
    "lebesgue": ("alpha in (0, 1]", lambda alpha: 0.0 < alpha <= 1.0),
}


class ClaimError(ValueError):
    """Decay-claim parameters outside the validity range of the claim."""


class FitError(ValueError):
    """Slope fit preconditions violated."""


@dataclass(frozen=True)
class DecayClaim:
    """One decay statement: family plus parameters (s, ell, alpha, p, r).

    The linear range (violations raise ClaimError citing the constraint):
    s >= 0, alpha in (0, 2], p in [2, inf), ell > -s.

    The nonlinear families share one range, checked in this order:

    1. alpha in (0, 1] for sqg and lebesgue, alpha = 1 for ks, alpha in
       (1, 2] for ks_subcritical;
    2. 2 <= r <= p < inf;
    3. -2/p < s < 1 + 2/p;
    4. -s - 2(1/r - 1/p) <= ell <= 1 + 2/p - alpha.

    Two narrowings: ks and ks_subcritical raise the lower s bound to 1 - 2/p
    and lower the upper ell bound to -1 + 2/p; lebesgue requires ell = 0
    (an L^r norm has no ell), takes 2 <= p < inf and 2 <= r < inf in place
    of step 2 and is then checked as the (2, p) claim at ell = 1 - 2/r.
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
        if self.family == "linear":
            self._check_linear()
        else:
            self._check_nonlinear()

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

    def _check_nonlinear(self):
        family, s, p = self.family, self.s, self.p
        text, admissible = _NONLINEAR_ALPHA[family]
        if not admissible(self.alpha):
            raise ClaimError(f"{family} claims require {text}, got alpha={self.alpha}")
        ell, r, ell_name, r_name = self.ell, self.r, "ell", "r"
        if family == "lebesgue":
            if ell != 0.0:
                raise ClaimError(f"lebesgue claims require ell = 0 (an L^r norm has no ell), got ell={ell}")
            if not (2.0 <= p < math.inf):
                raise ClaimError(f"lebesgue claims require 2 <= p < inf, got p={p}")
            if not (2.0 <= r < math.inf):
                raise ClaimError(f"lebesgue claims require 2 <= r < inf, got r={r}")
            # the L^r rate is read off the B^{1-2/r}_{2,1} decay, so the rest
            # is the range of the (2, p) claim at that index
            ell, r, ell_name, r_name = 1.0 - 2.0 / r, 2.0, "1 - 2/r", "2"
        elif not (2.0 <= r <= p < math.inf):
            raise ClaimError(f"{family} claims require 2 <= r <= p < inf, got r={r}, p={p}")
        if family in ("ks", "ks_subcritical"):  # the narrower Keller-Segel window of s and ell
            s_lo, s_lo_text, hi, hi_text = 1.0 - 2.0 / p, "1 - 2/p", -1.0 + 2.0 / p, "-1 + 2/p"
        else:
            s_lo, s_lo_text, hi, hi_text = -2.0 / p, "-2/p", 1.0 + 2.0 / p - self.alpha, "1 + 2/p - alpha"
        if not (s_lo < s < 1.0 + 2.0 / p):
            raise ClaimError(
                f"{family} claims require {s_lo_text} < s < 1 + 2/p "
                f"(= {s_lo} < s < {1.0 + 2.0 / p}), got s={s}"
            )
        lo = -s - 2.0 * (1.0 / r - 1.0 / p)
        if not (lo <= ell <= hi):
            raise ClaimError(
                f"{family} claims require -s - 2(1/{r_name} - 1/p) <= {ell_name} <= {hi_text} "
                f"(= {lo} <= {ell_name} <= {hi}), got {ell_name}={ell}"
            )


def theoretical_exponent(claim: DecayClaim) -> float:
    """Exact decay exponent of (1 + t) for the claim's norm."""
    s, ell, alpha, p, r = claim.s, claim.ell, claim.alpha, claim.p, claim.r
    if claim.family == "linear":
        return -(ell + s) / alpha
    if claim.family == "lebesgue":
        return -s / alpha - (2.0 / alpha) * (1.0 - 1.0 / r - 1.0 / p)
    # sqg and ks_subcritical; ks is the alpha = 1 row
    return -(ell + s) / alpha - (2.0 / alpha) * (1.0 / r - 1.0 / p)


@dataclass
class NormSeries:
    """Norm values sampled along a trajectory, with provenance descriptor.

    quadrature_gap is the largest N-vs-2N node-doubling gap of a quadrature
    series as a fraction of the value, levels the dyadic levels it summed (None on a grid).
    """

    times: np.ndarray
    values: np.ndarray
    descriptor: str = ""
    quadrature_gap: float | None = None
    levels: int | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.times.shape != self.values.shape or self.times.ndim != 1:
            raise FitError("times and values must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(self.times) & (self.times > 0)) and np.all(np.diff(self.times) > 0)):
            raise FitError("times must be finite, positive and strictly increasing")
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
    bad = np.flatnonzero(v <= 0)
    if bad.size:
        raise FitError(f"{bad.size} of the {n} values inside the fit window are nonpositive, the first at t = "
                       f"{series.times[sel][bad[0]]:.6g}; a value that underflowed to 0 cannot be fitted in log scale")
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
class GradedFit:
    """One fitted slope graded against its theoretical exponent.

    Relative error is |slope - theory| / |theory|, so theory must be nonzero;
    the fit passes when the error is within tolerance_pct percent.
    """

    fit: FitResult
    theory: float
    tolerance_pct: float
    descriptor: str

    @property
    def relative_error(self) -> float:
        return abs(self.fit.slope - self.theory) / abs(self.theory)

    @property
    def passed(self) -> bool:
        return self.relative_error <= self.tolerance_pct / 100.0

    def to_dict(self):
        """The run record's report block, whose entries list holds this one fit."""
        entry = {"descriptor": self.descriptor, "theory": self.theory, "slope": self.fit.slope,
                 "relative_error": self.relative_error, "passed": self.passed}
        return {"tolerance_pct": self.tolerance_pct, "passed": self.passed, "entries": [entry]}
