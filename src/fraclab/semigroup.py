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
Every weight is positive and every exponential decreases in t, so computed
block norms are monotone in t by construction. Error control compares the
N- and 2N-node rules. One top-down level sweep feeds every Besov series
asked for, each stopping on its own. Because the oracle lives on the
continuum it is free of the torus infrared cutoff and reproduces
whole-space decay rates over arbitrarily long time windows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .decay import DecayClaim, NormSeries
from .evolution import MAX_SAMPLES
from .littlewood_paley import DyadicProfile
from .spectral import Grid2D, MultiplierSpec, SpectralError, SpectralField, multiplier_symbol

__all__ = [
    "evolve_linear",
    "RadialSpectralDensity",
    "QuadratureError",
    "gauss_legendre_panels",
    "oracle_block_norm",
    "oracle_l2_norm",
    "oracle_besov_series",
    "sphere_measure",
]


def evolve_linear(field: SpectralField, alpha: float, t: float) -> SpectralField:
    """Damp each coefficient by exp(-t |xi|^alpha); the mean is untouched.

    Exact solution operator of the fractional dissipative flow, so the
    semigroup property holds to rounding.
    """
    if not (0.0 < alpha <= 2.0):
        raise SpectralError(f"alpha must be in (0, 2], got {alpha}")
    if t < 0.0:
        raise SpectralError(f"evolution time must be nonnegative, got t={t}")
    sym = _dissipation_symbol(field.grid, alpha)
    return SpectralField(field.grid, field.coefficients * np.exp(-t * sym), check=False)


@functools.cache
def _dissipation_symbol(grid: Grid2D, alpha: float) -> np.ndarray:
    """|xi|^alpha of one grid, built once and shared read-only by every sample time."""
    sym = multiplier_symbol(grid, MultiplierSpec.fractional_laplacian(alpha))
    sym.setflags(write=False)
    return sym


def sphere_measure(n: int) -> float:
    """Surface measure of the unit sphere in R^n (2*pi for n = 2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class RadialSpectralDensity:
    """Radial modulus profile rho(|xi|) of an initial spectrum on R^n.

    Forms:
        ball_indicator(radius): rho = 1 on [0, radius], 0 beyond
        power_law(exponent, r_lo, r_hi): rho = r^exponent on [r_lo, r_hi]
        gaussian(sigma): rho = exp(-r^2 / (2 sigma^2))
    """

    form: str
    dimension: int = 2
    radius: float = 1.0
    exponent: float = 0.0
    r_lo: float = 0.0
    r_hi: float = math.inf
    sigma: float = 1.0

    def __post_init__(self):
        if self.form not in ("ball_indicator", "power_law", "gaussian"):
            raise SpectralError(f"unknown density form {self.form!r}")
        if self.dimension < 1:
            raise SpectralError(f"dimension must be >= 1, got {self.dimension}")
        if self.form == "ball_indicator" and not (self.radius > 0):
            raise SpectralError("ball_indicator requires radius > 0")
        if self.form == "gaussian" and not (self.sigma > 0):
            raise SpectralError("gaussian requires sigma > 0")
        if self.form == "power_law" and not (0 <= self.r_lo < self.r_hi):
            raise SpectralError("power_law requires 0 <= r_lo < r_hi")

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

    def rho(self, r) -> np.ndarray:
        """rho at r, elementwise; a scalar r gives a 0-d array."""
        r = np.asarray(r, dtype=np.float64)
        if self.form == "ball_indicator":
            return np.where(r <= self.radius, 1.0, 0.0)
        if self.form == "power_law":
            inside = (r >= self.r_lo) & (r <= self.r_hi)
            safe = np.where(r > 0, r, 1.0)
            return np.where(inside, safe ** self.exponent, 0.0)
        return np.exp(-0.5 * (r / self.sigma) ** 2)

    rho_array = rho


class QuadratureError(RuntimeError):
    """Node-doubling gap above rel_tol, or a level sum that did not stabilize."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


GL_NODES = 20  # Gauss-Legendre nodes per panel
_SUBPANELS = (2, 4)  # panels per smooth interval: the N-node and 2N-node rules
_GEOMETRIC_PANELS = 60  # oracle_l2_norm: panels halving toward the lower support edge


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


def _radial_rules(density: RadialSpectralDensity, edges):
    """The N- and 2N-node rules on the panels between edges, as (nodes,
    weights), with rho(r)^2 r^(n-1) folded into the weights."""
    rules = []
    for sub in _SUBPANELS:
        r, w = gauss_legendre_panels(edges, sub)
        g = density.rho_array(r)
        rules.append((r, w * g * g * r ** (density.dimension - 1)))
    return rules


@functools.lru_cache(maxsize=64)
def _reference_rules(edges_ref: tuple, profile: DyadicProfile):
    """The N- and 2N-node rules on the panels between edges_ref, each as
    (nodes, weights, phi at the nodes), read-only. All profiles compare
    equal, so every instance shares the entries."""
    rules = []
    for sub in _SUBPANELS:
        x, w = gauss_legendre_panels(edges_ref, sub)
        rule = (x, w, profile.phi_array(x))
        for a in rule:
            a.flags.writeable = False
        rules.append(rule)
    return tuple(rules)


def _level_rules(density: RadialSpectralDensity, j: int, profile: DyadicProfile):
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
    breaks = scale * np.array([inner, outer, 2.0 * inner, 2.0 * outer])
    s_lo, s_hi = density.support()
    a = max(breaks[0], s_lo)
    b = max(a, min(breaks[-1], s_hi))
    # coincident edges make empty intervals, which the panel rule drops
    edges = np.sort(np.clip(np.append(breaks, (s_lo, s_hi)), a, b))
    rules = []
    for x, w_ref, phi in _reference_rules(tuple((edges / scale).tolist()), profile):
        r = scale * x
        g = phi * density.rho_array(r)
        rules.append((r, (scale * w_ref) * g * g * r ** (density.dimension - 1)))
    return rules


def _damped_integrals(rules, alpha: float, times: np.ndarray, row_sets=None):
    """Integrals of the N- and 2N-node rules against exp(-2 t r^alpha), at
    every time at once, from one exponent matrix over both rules' nodes
    (exponentiated in place: a second temporary made glibc re-fault its heap).
    With row_sets (index arrays into times), one pair per set, each from a
    matmul over that set's rows alone: BLAS rounds a product's last rows by
    another kernel, so a row's value would depend on which rows came with it."""
    (r_coarse, w_coarse), (r_fine, w_fine) = rules
    e = np.multiply.outer(-2.0 * times, np.concatenate((r_coarse, r_fine)) ** alpha)
    np.exp(e, out=e)
    cut = len(w_coarse)

    def integrals(rows):
        lo, hi = rows[0], rows[-1] + 1
        m = e[lo:hi] if hi - lo == len(rows) else e[rows]
        return m[:, :cut] @ w_coarse, m[:, cut:] @ w_fine

    return integrals(range(len(times))) if row_sets is None else [integrals(r) for r in row_sets]


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
    n = density.dimension
    return np.sqrt((2.0 * math.pi) ** -n * sphere_measure(n) * np.maximum(integral, 0.0))


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
    if t < 0.0:
        raise SpectralError(f"time must be nonnegative, got t={t}")
    if not (0.0 < alpha <= 2.0):
        raise SpectralError(f"alpha must be in (0, 2], got {alpha}")
    rules = _level_rules(density, j, profile)
    coarse, fine = _damped_integrals(rules, alpha, np.array([float(t)]))
    _check_gap(f"block j = {j}", [t], coarse, fine, rules[1][1].sum(), rel_tol)
    return float(_radial_norm(density, fine[0]))


def oracle_l2_norm(
    density: RadialSpectralDensity, t: float, alpha: float, rel_tol: float = 1e-10
) -> float:
    """Plain L^2 norm of the evolved solution, as one radial integral.

    Panels halve in width toward the lower support edge, so an integrand
    concentrated near the origin at large t is still resolved. Raises
    QuadratureError when the N- and 2N-node integrals differ by more than
    rel_tol of the value.
    """
    s_lo, s_hi = density.support()
    if math.isinf(s_hi):
        # Gaussian tail: integrate far enough that the remainder is negligible.
        s_hi = 40.0 * density.sigma
    halvings = 2.0 ** -np.arange(_GEOMETRIC_PANELS, -1, -1.0)
    edges = np.append(s_lo, s_lo + (s_hi - s_lo) * halvings)
    coarse, fine = _damped_integrals(_radial_rules(density, edges), alpha, np.array([float(t)]))
    _check_gap("L^2 integral", [t], coarse, fine, fine, rel_tol)
    return float(_radial_norm(density, fine[0]))


_TRUNCATION = 1e-14  # stop the descending level sum at this relative weight


def _top_level(density: RadialSpectralDensity) -> int:
    _, hi = density.support()
    if math.isinf(hi):
        hi = 40.0 * density.sigma
    # highest level whose annulus reaches the support: 3/4 * 2^j < hi
    return math.floor(math.log2(hi / 0.75)) + 1


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
    the top down, at the times still live for any kind. Each kind and time
    stops on its own: the decay sum once a term falls below 1e-14 of its
    running total, the sup after six levels without a 1e-13 relative gain.
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
    if len(times) == 0 or np.any(times <= 0) or np.any(np.diff(times) <= 0):
        raise SpectralError("times must be positive and strictly increasing")
    if len(times) > MAX_SAMPLES:
        raise SpectralError(f"{len(times)} sample times, more than {MAX_SAMPLES}")
    j_top = _top_level(density)
    # per kind and time: the 2N-node value, the N-node value over the same
    # levels, the levels without gain; and per kind its live times
    fine, coarse, stall = ({k: np.zeros(len(times), dt) for k in kinds} for dt in (float, float, int))
    live, levels = {k: np.arange(len(times)) for k in kinds}, {}
    j = j_top
    while live:
        rules, sets = _level_rules(density, j, profile), [*live.values()]
        if len(sets) == 1 or all(len(at) == len(times) for at in sets):  # one live set
            integrals = [_damped_integrals(rules, claim.alpha, times[sets[0]])] * len(sets)
        else:  # the union of the live sets (np.union1d would import numpy.ma, about 14 ms)
            union = np.flatnonzero(np.bincount(np.concatenate(sets), minlength=len(times)))
            rows = [np.searchsorted(union, at) for at in sets]
            integrals = _damped_integrals(rules, claim.alpha, times[union], rows)
        level, j = j, j - 1
        for kind, pair in zip(list(live), integrals):
            term_c, term_f = (2.0 ** (level * weight[kind]) * _radial_norm(density, i) for i in pair)
            at, f, c = live[kind], fine[kind], coarse[kind]
            if kind == "decay":
                f[at] += term_f
                c[at] += term_c
                total = f[at]
                # an all-zero total means the density contributes nothing near its support
                done = np.where(
                    total > 0.0, (term_f < _TRUNCATION * total) & (j < j_top - 4), j < j_top - 60
                )
            else:
                best, st = f[at], stall[kind]
                st[at] = np.where(term_f > best * (1.0 + 1e-13), 0, st[at] + 1)
                f[at] = np.maximum(best, term_f)
                c[at] = np.maximum(c[at], term_c)
                done = np.where(f[at] > 0.0, st[at] >= 6, j < j_top - 60)
            live[kind] = at = at[~done]
            if len(at) == 0:
                levels[kind] = j_top - j
                del live[kind]
            elif j < j_top - 400:
                what = "level sum" if kind == "decay" else "sup over levels"
                raise QuadratureError(
                    f"{kind} series: {what} did not stabilize by j = {j} at t = {times[at[0]]}"
                )
    series = []
    for kind in kinds:
        gap = _check_gap(f"{kind} series", times, coarse[kind], fine[kind], fine[kind], rel_tol)
        tag = f"oracle:{claim.family}:{kind}:s={claim.s:g},ell={claim.ell:g},alpha={claim.alpha:g}"
        series.append(NormSeries(times, fine[kind], tag, quadrature_gap=gap, levels=levels[kind]))
    return tuple(series)
