"""Exact linear evolution under fractional dissipation, plus a continuum
frequency-space oracle for its dyadic block norms.

The grid side is trivial: each coefficient is damped by exp(-t |xi|^alpha).

The oracle side works with radial spectral densities rho(|xi|) = |u0_hat(xi)|
on R^n and evaluates block L^2 norms of the evolved solution as radial
integrals,

    ||block_j u(t)||_{L^2}^2
        = (2 pi)^-n * omega_{n-1} * int phi(2^-j r)^2 e^{-2 t r^alpha}
                                        rho(r)^2 r^{n-1} dr,

with omega_{n-1} the unit-sphere measure. Each level gets one composite
Gauss-Legendre node set with panel edges at phi's breakpoints and the
density's support edges; the time-independent factor of the integrand is
folded into the weights, so the block integrals of the N- and 2N-node rules
at all sample times come from one exp(-2 t r^alpha) matrix, one matmul per
rule. Levels are not built from scratch: a level's edges divided by 2^j give
a reference rule, built once with its phi values and cached, and the level
scales its nodes and weights back by 2^j. Scaling by a power of two is
exact, so the rule is bit for bit the direct build on the level's own edges.
The sample times ascend, so the rows of the exp matrix whose largest
exponent, -2 t min(r^alpha), lies below -746 form a tail. exp is exactly
+0.0 there (it underflows to 0 below ln(2^-1075) = -745.13), so the tail is
filled with 0 instead of exponentiated: the matrix, and every matmul over
it, is the same to the bit, and exp's slow underflow path is not taken.
Every weight is positive and every exponential decreases in t, so computed
block norms are monotone in t by construction. Error control compares the
N- and 2N-node rules. One top-down level sweep feeds every Besov series
asked for, each stopping on its own. Every level takes every sample time
and a stopped time keeps its value, so a time's row has one place in every
exp matrix and no value depends on which kinds were asked for. Because the
oracle lives on the continuum it is free of the torus infrared cutoff and
reproduces whole-space decay rates over arbitrarily long time windows.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .decay import DecayClaim, NormSeries
from .evolution import MAX_SAMPLES
from .littlewood_paley import DyadicProfile
from .spectral import MultiplierSpec, SpectralError, SpectralField, multiplier_symbol

__all__ = [
    "evolve_linear",
    "RadialSpectralDensity",
    "QuadratureError",
    "gauss_legendre_panels",
    "oracle_block_norm",
    "oracle_besov_series",
    "sphere_measure",
]


def evolve_linear(field: SpectralField, alpha: float, t: float) -> SpectralField:
    """Damp each coefficient by exp(-t |xi|^alpha); the mean is untouched.

    Exact solution operator of the fractional dissipative flow, so the
    semigroup property holds to rounding.
    """
    spec = MultiplierSpec.fractional_laplacian(alpha)  # range check
    if not (0.0 <= t < math.inf):
        raise SpectralError(f"evolution time must be finite and nonnegative, got t={t}")
    sym = multiplier_symbol(field.grid, spec)
    return SpectralField(field.grid, field.coefficients * np.exp(-t * sym), check=False)


def sphere_measure(n: int) -> float:
    """Surface measure of the unit sphere in R^n (2*pi for n = 2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _radial_prefactor(n: int) -> float:
    """(2 pi)^-n omega_{n-1}: a radial integral's factor in the squared L^2 norm on R^n."""
    return (2.0 * math.pi) ** -n * sphere_measure(n)


@dataclass(frozen=True)
class RadialSpectralDensity:
    """Radial modulus profile rho(|xi|) of an initial spectrum on R^n.

    Forms, with the parameters each reads (``FORMS``):
        ball_indicator(radius): rho = 1 on [0, radius], 0 beyond
        power_law(exponent, r_lo, r_hi): rho = r^exponent on [r_lo, r_hi]
        gaussian(sigma): rho = exp(-r^2 / (2 sigma^2))

    Parameters are finite, only the Gaussian has unbounded support, and the
    dimension n keeps (2 pi)^-n omega_{n-1} a normal float (n <= 226).
    """

    FORMS = {"ball_indicator": ("radius",), "power_law": ("exponent", "r_lo", "r_hi"), "gaussian": ("sigma",)}

    form: str
    dimension: int = 2
    radius: float = 1.0
    exponent: float = 0.0
    r_lo: float = 0.0
    r_hi: float = math.inf
    sigma: float = 1.0

    def __post_init__(self):
        if self.form not in self.FORMS:
            raise SpectralError(f"unknown density form {self.form!r}")
        if self.dimension < 1:
            raise SpectralError(f"dimension must be >= 1, got {self.dimension}")
        try:
            prefactor = _radial_prefactor(self.dimension)
        except OverflowError:  # Gamma(n/2) past the float range
            prefactor = 0.0
        if not prefactor >= sys.float_info.min:
            raise SpectralError(f"dimension {self.dimension} is too large: (2 pi)^-n times the unit "
                                "sphere's measure is not a normal float")
        if not all(math.isfinite(x) for x in (self.radius, self.exponent, self.sigma)):
            raise SpectralError("radius, exponent and sigma must be finite")
        if self.form == "ball_indicator" and not (self.radius > 0):
            raise SpectralError("ball_indicator requires radius > 0")
        if self.form == "gaussian" and not (self.sigma > 0):
            raise SpectralError("gaussian requires sigma > 0")
        if self.form == "power_law" and not (0 <= self.r_lo < self.r_hi < math.inf):
            raise SpectralError("power_law requires 0 <= r_lo < r_hi < inf")

    @classmethod
    def ball_indicator(cls, radius: float, dimension: int = 2):
        return cls("ball_indicator", dimension=dimension, radius=float(radius))

    @classmethod
    def power_law(cls, exponent: float, r_lo: float, r_hi: float, dimension: int = 2):
        return cls(
            "power_law",
            dimension=dimension,
            exponent=float(exponent),
            r_lo=float(r_lo),
            r_hi=float(r_hi),
        )

    @classmethod
    def gaussian(cls, sigma: float, dimension: int = 2):
        return cls("gaussian", dimension=dimension, sigma=float(sigma))

    def support(self) -> tuple[float, float]:
        if self.form == "ball_indicator":
            return 0.0, self.radius
        if self.form == "power_law":
            return self.r_lo, self.r_hi
        return 0.0, math.inf

    def outer_radius(self) -> float:
        """Where radial integrals stop: the support's upper edge, or 40 sigma for
        the Gaussian, past which rho is exactly 0 in float64."""
        return 40.0 * self.sigma if self.form == "gaussian" else self.support()[1]

    def rho_array(self, r) -> np.ndarray:
        """rho at r, elementwise; a scalar r gives a 0-d array."""
        r = np.asarray(r, dtype=np.float64)
        if self.form == "ball_indicator":
            return np.where(r <= self.radius, 1.0, 0.0)
        if self.form == "power_law":
            inside = (r >= self.r_lo) & (r <= self.r_hi)
            safe = np.where(r > 0, r, 1.0)
            return np.where(inside, safe ** self.exponent, 0.0)
        return np.exp(-0.5 * (r / self.sigma) ** 2)


class QuadratureError(RuntimeError):
    """Node-doubling gap above rel_tol, or a level sum that did not stabilize."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


GL_NODES = 20  # Gauss-Legendre nodes per panel
_SUBPANELS = (2, 4)  # panels per smooth interval: the N-node and 2N-node rules


def _legendre(x: np.ndarray, m: int):
    # P_m(x) and P_m'(x) from the three-term recurrence
    p0, p1 = np.ones_like(x), x
    for k in range(2, m + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, m * (x * p1 - p0) / (x * x - 1.0)


@functools.lru_cache(maxsize=None)
def _legendre_rule(m: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    Newton iteration on the recurrence from Chebyshev-like initial guesses;
    it converges quadratically, well within the fixed ten steps.
    """
    x = np.cos(math.pi * (np.arange(m, 0, -1) - 0.25) / (m + 0.5))
    for _ in range(10):
        p, dp = _legendre(x, m)
        x = x - p / dp
    _, dp = _legendre(x, m)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_panels(edges, subpanels: int = 1):
    """Composite Gauss-Legendre rule on the intervals between sorted edges.

    Each nonempty interval is cut into ``subpanels`` equal panels of
    m = GL_NODES nodes, so the rule integrates polynomials of degree
    <= 2m - 1 exactly on every panel. Returns (nodes, weights); the
    integral of f is ``weights @ f(nodes)``, and an edge list without a
    nonempty interval gives empty arrays.
    """
    x, w = _legendre_rule(GL_NODES)
    edges = np.asarray(edges, dtype=np.float64)
    keep = edges[1:] > edges[:-1]
    lo, hi = edges[:-1][keep], edges[1:][keep]
    cuts = lo[:, None] + (hi - lo)[:, None] * (np.arange(subpanels + 1) / subpanels)
    a, b = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
    half = 0.5 * (b - a)[:, None]
    return (0.5 * (a + b)[:, None] + half * x).ravel(), (half * w).ravel()


@functools.lru_cache(maxsize=64)
def _reference_rules(edges_ref: tuple, profile: DyadicProfile):
    """The N- and 2N-node rules on the panels between edges_ref, joined (the
    N-node rule first) as read-only nodes, weights and phi at the nodes. All
    profiles compare equal, so every instance shares the entries."""
    coarse, fine = (gauss_legendre_panels(edges_ref, sub) for sub in _SUBPANELS)
    x, w = (np.concatenate(pair) for pair in zip(coarse, fine))
    rule = (x, w, profile.phi_array(x))
    for a in rule:
        a.flags.writeable = False
    return rule


class _Rules(tuple):
    """A level's N- and 2N-node rules, ((nodes, weights), (nodes, weights)),
    as views of one joined node array ``nodes`` and one joined weight array,
    the N-node rule in their first ``cut`` entries."""

    def __new__(cls, nodes: np.ndarray, weights: np.ndarray, cut: int):
        rules = super().__new__(cls, ((nodes[:cut], weights[:cut]), (nodes[cut:], weights[cut:])))
        rules.nodes, rules.cut = nodes, cut
        return rules


def _level_rules(density: RadialSpectralDensity, j: int, profile: DyadicProfile) -> _Rules:
    """The N- and 2N-node rules of the level-j block integrand.

    Panel edges sit at phi's breakpoints (3/4, 4/3, 3/2, 8/3 times 2^j) and
    the density's support edges, so every panel integrand is smooth. The
    rules have no nodes when the annulus misses the support.

    The nodes, weights and phi values come from the reference rule of the
    edges divided by 2^j, scaled back. Both scalings are exact while the
    values stay normal, which holds on every level a series visits (above
    j_top - 400), so the result is bit for bit the direct build on the
    level's own edges.
    """
    scale = 2.0 ** float(j)
    inner, outer = profile.inner_edge, profile.outer_edge
    breaks = (scale * inner, scale * outer, scale * (2.0 * inner), scale * (2.0 * outer))
    s_lo, s_hi = density.support()
    a = max(breaks[0], s_lo)
    b = max(a, min(breaks[-1], s_hi))
    # coincident edges make empty intervals, which the panel rule drops
    edges = sorted(min(max(e, a), b) for e in (*breaks, s_lo, s_hi))
    x, w, phi = _reference_rules(tuple(e / scale for e in edges), profile)
    r = scale * x
    g = phi * density.rho_array(r)
    w = (scale * w) * g * g * r ** (density.dimension - 1)
    return _Rules(r, w, len(r) * _SUBPANELS[0] // sum(_SUBPANELS))


# exp(x) is exactly +0.0 for every x below ln(2^-1075) = -745.133...
_EXP_ZERO = -746.0


def _damped_integrals(rules: _Rules, alpha: float, times: np.ndarray):
    """Integrals of the N- and 2N-node rules against exp(-2 t r^alpha), at
    every time at once, from one exponent matrix over both rules' nodes
    (exponentiated in place: a second temporary made glibc re-fault its heap).

    times must ascend. A row's largest exponent is -2 t min(r^alpha), so the
    rows whose largest exponent lies below -746, where exp is exactly 0, form
    a tail; it is filled with 0 and never exponentiated (numpy's exp takes
    about 15 times as long per element where it underflows to 0)."""
    (_, w_coarse), (_, w_fine) = rules
    powers = rules.nodes ** alpha
    decay = -2.0 * times
    live = int(np.count_nonzero(decay * powers.min() >= _EXP_ZERO)) if len(powers) else 0
    e = np.empty((len(times), len(powers)))
    head = e[:live]
    # each row filled with its -2 t, then one contiguous product (np.multiply.outer
    # forms the same products about 1.4x slower at 121 x 360)
    head[...] = decay[:live, None]
    np.multiply(head, powers, out=head)
    np.exp(head, out=head)
    e[live:] = 0.0
    return e[:, : rules.cut] @ w_coarse, e[:, rules.cut :] @ w_fine


def _check_gap(what: str, times, coarse, fine, scale, rel_tol: float) -> float:
    """Raise QuadratureError where the N- and 2N-node values differ by more
    than rel_tol * scale; otherwise return the largest gap as a fraction of
    its scale (a zero scale, which passes only with a zero gap, counts as 0)."""
    gap = np.abs(fine - coarse)
    scale = np.broadcast_to(scale, gap.shape)
    i = int(np.argmax(gap - rel_tol * scale))
    if gap[i] > rel_tol * scale[i]:
        raise QuadratureError(
            f"{what} at t = {times[i]:g}: node-doubling gap {gap[i]:.3e} exceeds "
            f"rel_tol = {rel_tol:g} of {scale[i]:.3e}",
            achieved=gap[i] / scale[i],
        )
    return float(np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0).max())


def _radial_norm(density: RadialSpectralDensity, integral):
    return np.sqrt(_radial_prefactor(density.dimension) * np.maximum(integral, 0.0))


def oracle_block_norm(
    density: RadialSpectralDensity,
    j: int,
    t: float,
    alpha: float,
    profile: DyadicProfile,
    rel_tol: float = 1e-9,
) -> float:
    """L^2 norm of the level-j block of the evolved solution on R^n.

    Raises QuadratureError when the N- and 2N-node integrals differ by more
    than rel_tol of the block's initial (t = 0) integral: the flow only damps
    a block, so that is the scale its error is measured against.
    """
    if not (0.0 <= t < math.inf):
        raise SpectralError(f"time must be finite and nonnegative, got t={t}")
    MultiplierSpec.fractional_laplacian(alpha)  # range check
    rules = _level_rules(density, j, profile)
    coarse, fine = _damped_integrals(rules, alpha, np.array([float(t)]))
    _check_gap(f"block j = {j}", [t], coarse, fine, rules[1][1].sum(), rel_tol)
    return float(_radial_norm(density, fine[0]))


_TRUNCATION = 1e-14  # stop the descending level sum at this relative weight


def _top_level(density: RadialSpectralDensity) -> int:
    # highest level whose annulus reaches the support: 3/4 * 2^j < outer radius
    return math.floor(math.log2(density.outer_radius() / 0.75)) + 1


def oracle_besov_series(
    density: RadialSpectralDensity,
    claim: DecayClaim,
    times,
    profile: DyadicProfile,
    kinds=("decay",),
    rel_tol: float = 1e-9,
) -> tuple[NormSeries, ...]:
    """Besov norms of the evolved solution at each time: one series per name
    in kinds, in that order, all from one sweep of the block norms b_j.

    'decay' is the l^1 sum sum_j 2^{j ell} b_j(t) whose slope the claim
    predicts; 'preserved' is the l^inf norm sup_j 2^{-j s} b_j(t) that stays
    bounded. Block L^2 norms (p = 2 semantics) come one level at a time, from
    the top down, at every sample time. Each kind and time stops on its own,
    and keeps its value from then on: the decay sum once a term falls below
    1e-14 of its running total, the sup after six levels without a 1e-13
    relative gain.
    Each series is also summed with the N-node rule; QuadratureError is
    raised where the two differ by more than rel_tol of the value, and the
    series carries the largest relative gap as ``quadrature_gap`` and the
    number of levels it summed as ``levels``. A schedule of more than
    ``MAX_SAMPLES`` times raises SpectralError.
    """
    weight = {"decay": claim.ell, "preserved": -claim.s}
    if isinstance(kinds, str) or not kinds or len(set(kinds)) < len(kinds) or set(kinds) - set(weight):
        raise SpectralError(f"kinds must be distinct names from 'decay', 'preserved'; got {kinds!r}")
    times = np.asarray([float(t) for t in times])
    if len(times) == 0 or not (np.all(np.isfinite(times) & (times > 0)) and np.all(np.diff(times) > 0)):
        raise SpectralError("times must be finite, positive and strictly increasing")
    if len(times) > MAX_SAMPLES:
        raise SpectralError(f"{len(times)} sample times, more than {MAX_SAMPLES}")
    j_top = _top_level(density)
    # per kind, the N- and 2N-node values as the two rows of one array, and
    # the times it still sums; per time, the sup's levels without gain
    value, live = {k: np.zeros((2, len(times))) for k in kinds}, {k: np.ones(len(times), bool) for k in kinds}
    stall, levels = np.zeros(len(times), int), {}
    j = j_top
    while live:
        rules = _level_rules(density, j, profile)
        block = _radial_norm(density, _damped_integrals(rules, claim.alpha, times))
        level, j = j, j - 1
        for kind, at in list(live.items()):
            terms, v = 2.0 ** (level * weight[kind]) * block, value[kind]
            # in place where live: a time that has stopped keeps its value
            if kind == "decay":
                np.add(v, terms, out=v, where=at)
                # an all-zero total means the density contributes nothing near its support
                done = np.where(v[1] > 0.0, (terms[1] < _TRUNCATION * v[1]) & (j < j_top - 4), j < j_top - 60)
            else:
                stall = np.where(terms[1] > v[1] * (1.0 + 1e-13), 0, stall + 1)
                np.maximum(v, terms, out=v, where=at)
                done = np.where(v[1] > 0.0, stall >= 6, j < j_top - 60)
            live[kind] = at = at & ~done
            if not at.any():
                levels[kind] = j_top - j
                del live[kind]
            elif j < j_top - 400:
                what = "level sum" if kind == "decay" else "sup over levels"
                raise QuadratureError(
                    f"{kind} series: {what} did not stabilize by j = {j} at t = {times[at.argmax()]}"
                )
    series = []
    for kind in kinds:
        coarse, fine = value[kind]
        gap = _check_gap(f"{kind} series", times, coarse, fine, fine, rel_tol)
        tag = f"oracle:{claim.family}:{kind}:s={claim.s:g},ell={claim.ell:g},alpha={claim.alpha:g}"
        series.append(NormSeries(times, fine, tag, quadrature_gap=gap, levels=levels[kind]))
    return tuple(series)
