"""Dyadic frequency decomposition, Lebesgue/Besov norms, and paraproducts.

The decomposition is driven by one radial bump ``phi`` supported in the
annulus [3/4, 8/3], built as a telescoped difference of a smooth cutoff:

    phi(r) = chi(r/2) - chi(r),   chi = 1 on r <= 3/4,  chi = 0 on r >= 4/3,

with the transition of ``chi`` given by the classic C-infinity step
h(t) = g(t) / (g(t) + g(1-t)), g(t) = exp(-1/t) for t > 0.

Telescoping gives the partition of unity at rounding accuracy (at most two
adjacent levels are active at any r, and their values are exact step
complements) and the low-pass multiplier in closed form:
sum_{k <= j-1} phi(2^-k r) = chi(2^-j r).

Annulus block at level j: multiply coefficients by phi(2^-j |xi|).
Low-pass at level j: multiply by chi(2^-j |xi|) (all blocks below j).
Every level is the same bump rescaled. Since 2^-j is a power of two, the
block's open annulus 3/4 < 2^-j |xi| < 8/3 is found exactly by two
comparisons on |xi|, and a block mask evaluates phi only there (at most
about 1/9 of the plane); it is exactly 0 elsewhere. Each mask is real and
even, so block_multiplier builds it on the rfft2 half-plane (n, n/2 + 1).

Every Besov-type norm is one pipeline: the L^p norm of each block, then the
weighted l^r sum over levels, always of a real field and always computed on
its rfft2 half-plane (n, n/2 + 1), entered through spectral.half_plane_of:
a half-plane as it is, a full (n, n) plane only after check_hermitian; a
RealField is transformed with rfft2. The levels
are those of block_range(grid). For p = 2 the block norms come from
Parseval through a level-sorted layout, cached per grid and built from the
block masks, none of which it keeps: level by level, the flat half-plane
indices of the modes in the block and their squared phi times a column
weight (2 on the columns that stand for their mirror too). One gather of
|c|^2 and one reduceat then give every block energy. Other p multiply the
half-plane by each block mask and take one irfft2 per block; they and
bony_decompose share one bounded cache of the masks. project alone multiplies
a full (n, n) plane, which may be non-Hermitian, by the mirrored mask.

Along the linear semigroup c * exp(-t |xi|^alpha), spectral_besov_series
takes alpha, builds the rates |xi|^alpha with spectral.multiplier_symbol and
takes the p = 2 norms at every sample time from the same layout: the
energies are grouped once by level and distinct rate, and each time then
costs one exponential per distinct rate.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spectral import (
    Grid2D,
    MultiplierSpec,
    RealField,
    SpectralField,
    SpectralError,
    dealias_mask,
    forward_half_plane,
    half_plane_of,
    inverse_real,
    multiplier_symbol,
)

__all__ = [
    "DyadicProfile",
    "build_dyadic_profile",
    "BesovParams",
    "BlockRange",
    "block_range",
    "project",
    "block_multiplier",
    "lebesgue_norm",
    "block_norms",
    "BesovNormResult",
    "besov_norm",
    "spectral_besov_norm",
    "spectral_besov_norms",
    "spectral_besov_series",
    "chemin_lerner_norm",
    "bony_decompose",
]

INNER_EDGE = 0.75  # chi == 1 on r <= 3/4
OUTER_EDGE = 4.0 / 3.0  # chi == 0 on r >= 4/3
_RAMP = OUTER_EDGE - INNER_EDGE  # length of chi's transition


def _smooth_step_array(t: np.ndarray) -> np.ndarray:
    # h(0) = 0, h(1) = 1, C-infinity, monotone; h(t) + h(1-t) = 1. At the
    # clipped ends one exponent is -inf, so h is exactly 0 or 1 there.
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        a = np.exp(-1.0 / t)
        b = np.exp(-1.0 / (1.0 - t))
    return a / (a + b)


@dataclass(frozen=True)
class DyadicProfile:
    """Radial bump phi: [0, inf) -> [0, 1] supported in [3/4, 8/3].

    ``phi_array`` evaluates the bump and ``chi_array`` the underlying smooth
    cutoff, elementwise; ``phi`` evaluates the bump at one radius. The
    profile has no fields, so every instance is the same bump: instances
    compare equal and share the entries of caches keyed on a profile.
    """

    inner_edge = INNER_EDGE
    outer_edge = OUTER_EDGE

    def phi(self, r: float) -> float:
        return float(self.phi_array(r))

    def chi_array(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        return _smooth_step_array((OUTER_EDGE - r) / _RAMP)

    def phi_array(self, r: np.ndarray) -> np.ndarray:
        # chi(r/2) - chi(r) evaluated piecewise without cancellation: below
        # 4/3, chi(r/2) = 1 and 1 - h(t) = h(1 - t) exactly, so phi is the
        # inner edge's rising step; above it, chi(r) = 0 and phi = chi(r/2).
        # Small values keep full relative precision (the naive difference
        # leaves O(eps) absolute noise). Outside [3/4, 8/3] the step's
        # argument leaves [0, 1], which gives the support.
        r = np.asarray(r, dtype=np.float64)
        return _smooth_step_array(
            np.where(r < OUTER_EDGE, (r - INNER_EDGE) / _RAMP, (OUTER_EDGE - 0.5 * r) / _RAMP))

    def partition_sum(self, r, j_pad: int = 3):
        """sum_j phi(2^-j r) over every level whose annulus can contain r.

        r may be a scalar (returns a float) or an array (returns an array).
        """
        r = np.asarray(r, dtype=np.float64)
        safe = np.where(r > 0.0, r, 1.0)
        levels = np.floor(np.log2(safe))[..., None] + np.arange(-j_pad, j_pad + 1)
        total = self.phi_array(np.exp2(-levels) * safe[..., None]).sum(axis=-1)
        total = np.where(r > 0.0, total, 0.0)
        return float(total) if total.ndim == 0 else total


def build_dyadic_profile() -> DyadicProfile:
    """Standard profile with support endpoints exactly 3/4 and 8/3."""
    return DyadicProfile()


def _check_exponent(x, name: str) -> float:
    x = float(x)
    if not (x >= 1.0):
        raise SpectralError(f"{name} must satisfy {name} >= 1 (inf allowed), got {x}")
    return x


@dataclass(frozen=True)
class BesovParams:
    """Homogeneous Besov norm selector (s, p, r); p or r may be math.inf."""

    s: float
    p: float
    r: float

    def __post_init__(self):
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "p", _check_exponent(self.p, "p"))
        object.__setattr__(self, "r", _check_exponent(self.r, "r"))

    def label(self) -> str:
        def fmt(x):
            return "inf" if math.isinf(x) else f"{x:g}"

        return f"B{self.s:g}_{fmt(self.p)}_{fmt(self.r)}"


@dataclass(frozen=True)
class BlockRange:
    """Dyadic levels whose annulus meets the resolvable frequency band."""

    j_min: int
    j_max: int

    def __iter__(self):
        return iter(range(self.j_min, self.j_max + 1))

    def __len__(self):
        return self.j_max - self.j_min + 1


def _largest_j_below(bound: float) -> int:
    """Largest integer j with 2^j < bound (strict)."""
    mantissa, exponent = math.frexp(bound)  # bound = mantissa 2^exponent, 1/2 <= mantissa < 1
    return exponent - 2 if mantissa == 0.5 else exponent - 1


def block_range(grid: Grid2D) -> BlockRange:
    """Levels j whose open annulus (3/4 * 2^j, 8/3 * 2^j) meets the band
    [xi_min, sqrt(2) * (2/3) * xi_nyquist].

    The upper band edge is the corner radius of the retained square
    |k|_inf <= n/3, so blocks outside the range annihilate dealiased data
    exactly.
    """
    xi_lo = grid.xi_min
    xi_hi = math.sqrt(2.0) * (2.0 / 3.0) * grid.xi_nyquist
    # intersection needs 8/3 * 2^j > xi_lo and 3/4 * 2^j < xi_hi
    j_min = _largest_j_below((3.0 / 8.0) * xi_lo) + 1
    j_max = _largest_j_below((4.0 / 3.0) * xi_hi)
    if j_min > j_max:
        raise SpectralError(f"grid too coarse for any dyadic block (n={grid.n}, L={grid.L})")
    return BlockRange(j_min, j_max)


def block_multiplier(grid: Grid2D, j: int, kind: str, profile: DyadicProfile) -> np.ndarray:
    """A new read-only (n, n/2 + 1) mask: phi(2^-j |xi|) for kind='block', chi(2^-j |xi|) for 'low_pass'."""
    if kind not in ("block", "low_pass"):
        raise SpectralError(f"projection kind must be 'block' or 'low_pass', got {kind!r}")
    scale = 2.0 ** -float(j)
    xi = grid.half.xi_mag
    if kind == "block":
        # phi(r 2^-j) is exactly 0 outside 3/4 < r 2^-j < 8/3, the mean included, and
        # scaling by a power of two is exact, so the window is found on xi_mag itself
        inside = (xi > profile.inner_edge / scale) & (xi < 2.0 * profile.outer_edge / scale)
        mask = np.zeros(xi.shape)
        mask[inside] = profile.phi_array(xi[inside] * scale)
    else:
        mask = profile.chi_array(xi * scale)
        mask[0, 0] = 1.0  # low-pass keeps the mean
    mask.setflags(write=False)
    return mask


# The masks of the per-block paths (p != 2 norms, bony_decompose): bony_decompose
# at n = 256 reads 18 of them, 0.25 MiB each.
@functools.lru_cache(maxsize=32)
def _block_mask(grid: Grid2D, j: int, kind: str, profile: DyadicProfile) -> np.ndarray:
    return block_multiplier(grid, j, kind, profile)


def project(field: SpectralField, j: int, kind: str, profile: DyadicProfile) -> SpectralField:
    """Annulus block (kind='block') or low-pass (kind='low_pass') at level j."""
    n = field.grid.n
    # the mask is radial, so column n - k2 of the full plane repeats half-plane column k2
    mask = block_multiplier(field.grid, j, kind, profile)[:, np.r_[: n // 2 + 1, n // 2 - 1: 0: -1]]
    return SpectralField(field.grid, mask * field.coefficients, check=False)


def lebesgue_norm(field: RealField, p: float) -> float:
    """(h^2 sum |f|^p)^(1/p) for finite p; max |f| for p = inf."""
    p = _check_exponent(p, "p")
    a = np.abs(field.values)
    if math.isinf(p):
        return float(a.max())
    h2 = field.grid.h ** 2
    return float((h2 * np.sum(a ** p)) ** (1.0 / p))


def _coeffs_of(field) -> tuple[Grid2D, np.ndarray]:
    if isinstance(field, RealField):
        return field.grid, forward_half_plane(field.values)
    if isinstance(field, SpectralField):
        return field.grid, half_plane_of(field.grid, field.coefficients)
    raise SpectralError(f"expected RealField or SpectralField, got {type(field).__name__}")


class _Layout(NamedTuple):
    """Level-sorted p = 2 weights: block i sums weight * |c|^2 over index[seg_i]."""

    index: np.ndarray  # flat mode indices, level by level (intp: the gather casts no copy)
    weight: np.ndarray  # squared phi of the level times the column weight
    starts: np.ndarray  # segment start of each level whose block holds a mode
    filled: np.ndarray  # which levels those are; reduceat cannot express an empty segment


# 0.94 MiB at n = 256. Each level's mask is built, read and dropped: keeping
# them would hold 9 x 0.25 MiB at n = 256.
@functools.cache
def _level_layout(grid: Grid2D, profile: DyadicProfile) -> _Layout:
    cols = grid.n // 2 + 1
    col_weight = np.full(cols, 2.0)  # columns 1..n/2-1 also stand for their mirror
    col_weight[[0, -1]] = 1.0
    index, weight = [], []
    for j in block_range(grid):  # one level at a time: no (levels, n, n) stack
        mask = block_multiplier(grid, j, "block", profile)
        flat = np.flatnonzero(mask)
        index.append(flat)
        weight.append(np.square(mask.ravel()[flat]) * col_weight[flat % cols])
    sizes = np.array([len(i) for i in index])
    filled = sizes > 0
    starts = (np.cumsum(sizes) - sizes)[filled]
    layout = _Layout(np.concatenate(index), np.concatenate(weight), starts, filled)
    for a in layout:
        a.setflags(write=False)
    return layout


def _levels(grid: Grid2D) -> np.ndarray:
    rng = block_range(grid)
    return np.arange(rng.j_min, rng.j_max + 1)


def _level_norms(grid: Grid2D, coeffs: np.ndarray, p: float, profile: DyadicProfile):
    """The levels of block_range(grid) and the L^p norm of every block of the
    (n, n/2 + 1) half-plane coeffs of a real field; returns (levels, norms)."""
    levels = _levels(grid)
    if p == 2.0:
        layout = _level_layout(grid, profile)
        energy = (np.square(coeffs.real) + np.square(coeffs.imag)).ravel()
        sums = np.zeros(len(levels))
        sums[layout.filled] = np.add.reduceat(layout.weight * energy[layout.index], layout.starts)
        return levels, grid.L * np.sqrt(sums)
    out = np.empty(len(levels))
    for i, j in enumerate(levels):
        w = np.abs(inverse_real(_block_mask(grid, int(j), "block", profile) * coeffs))
        out[i] = float(w.max()) if math.isinf(p) else float((grid.h ** 2 * np.sum(w ** p)) ** (1.0 / p))
    return levels, out


def _combine(levels: np.ndarray, norms: np.ndarray, s: float, r: float):
    """Weighted l^r combination of block norms: || 2^{j s} norms_j ||_{l^r}.

    The levels run along the last axis of norms: one row gives a float, a
    stack of rows (one per time) an array.
    """
    weighted = (2.0 ** (levels * s)) * norms
    if math.isinf(r):
        out = weighted.max(axis=-1, initial=0.0)
    else:
        out = np.sum(weighted ** r, axis=-1) ** (1.0 / r)
    return float(out) if out.ndim == 0 else out


def block_norms(field, p: float, profile: DyadicProfile):
    """L^p norms of every block of a RealField (via rfft2) or a Hermitian SpectralField; returns (levels, norms)."""
    return _level_norms(*_coeffs_of(field), _check_exponent(p, "p"), profile)


def spectral_besov_norms(grid: Grid2D, coeffs: np.ndarray, params_seq, profile: DyadicProfile) -> list[float]:
    """Besov norms straight from half-plane coefficients, or a full plane checked and halved once.

    The block norms are taken once per distinct p and then combined into
    every requested norm, in the order given.
    """
    coeffs = half_plane_of(grid, coeffs)
    blocks = {}
    for params in params_seq:
        if params.p not in blocks:
            blocks[params.p] = _level_norms(grid, coeffs, params.p, profile)
    return [_combine(*blocks[params.p], params.s, params.r) for params in params_seq]


# exp(-2 t u) is taken for at most this many (time, rate) pairs at once, 256 KiB
# of scratch; all pairs of the linear defaults (81 x 1,199) would hold 0.8 MB.
_DAMPING_CHUNK = 1 << 15


def _damped_level_norms(grid: Grid2D, coeffs: np.ndarray, rates: np.ndarray, times: np.ndarray,
                        profile: DyadicProfile) -> np.ndarray:
    """L^2 norms of every block of coeffs * exp(-t * rates); shape (len(times), levels).

    coeffs and rates are half-planes. The energies of the layout's modes are
    grouped once by level and by distinct rate u (exact float equality, so
    each mode keeps its own rate): A[i, m] sums weight * |c|^2 over the modes
    of level i whose rate is u[m]. Modes without energy are left out. The
    block energies at time t are then A @ exp(-2 t u).
    """
    layout = _level_layout(grid, profile)
    energy = layout.weight * (np.square(coeffs.real) + np.square(coeffs.imag)).ravel()[layout.index]
    sizes = np.diff(np.append(layout.starts, len(layout.index)))
    level = np.repeat(np.flatnonzero(layout.filled), sizes)
    keep = energy != 0.0
    u, group = np.unique(rates.ravel()[layout.index[keep]], return_inverse=True)
    n_levels = len(layout.filled)
    a = np.bincount(level[keep] * len(u) + group, weights=energy[keep], minlength=n_levels * len(u))
    a = a.reshape(n_levels, len(u)).T
    norms = np.empty((len(times), n_levels))
    step = max(1, _DAMPING_CHUNK // max(len(u), 1))
    for k in range(0, len(times), step):
        damping = np.multiply.outer(-2.0 * times[k:k + step], u)
        norms[k:k + step] = grid.L * np.sqrt(np.exp(damping, out=damping) @ a)
    return norms


def spectral_besov_series(grid: Grid2D, coeffs: np.ndarray, alpha: float, times, params_seq,
                          profile: DyadicProfile) -> np.ndarray:
    """Besov norms of the linear flow coeffs * exp(-t |xi|^alpha) at every t;
    shape (len(params_seq), len(times)).

    coeffs is a half-plane, or a full plane checked like a SpectralField and
    halved; times must be finite and >= 0 (SpectralError, as in evolve_linear).
    p = 2 norms take the block norms at every time from one grouped reduction
    (_damped_level_norms): one exponential per distinct rate and time, no
    damped plane. Other p take spectral_besov_norms of the damped
    half-plane at each time.
    """
    coeffs = half_plane_of(grid, coeffs)
    rates = multiplier_symbol(grid.half, MultiplierSpec.fractional_laplacian(alpha))
    times = np.asarray(times, dtype=np.float64)
    if not np.all((times >= 0.0) & (times < math.inf)):
        raise SpectralError("times must be finite and nonnegative")
    out = np.empty((len(params_seq), len(times)))
    closed = [i for i, params in enumerate(params_seq) if params.p == 2.0]
    looped = [i for i, params in enumerate(params_seq) if params.p != 2.0]
    if closed:
        levels = _levels(grid)
        norms = _damped_level_norms(grid, coeffs, rates, times, profile)
        for i in closed:
            out[i] = _combine(levels, norms, params_seq[i].s, params_seq[i].r)
    if looped:
        looped_params = [params_seq[i] for i in looped]
        for k, t in enumerate(times):
            damped = coeffs * np.exp(-float(t) * rates)
            out[looped, k] = spectral_besov_norms(grid, damped, looped_params, profile)
    return out


def spectral_besov_norm(grid: Grid2D, coeffs: np.ndarray, params: BesovParams, profile: DyadicProfile) -> float:
    """One Besov norm straight from half- or full-plane coefficients (see spectral_besov_norms)."""
    return spectral_besov_norms(grid, coeffs, [params], profile)[0]


class BesovNormResult(NamedTuple):
    value: float
    j_min: int
    j_max: int


def besov_norm(field, params: BesovParams, profile: DyadicProfile) -> BesovNormResult:
    """Homogeneous Besov norm with the level range it was truncated to.

    The mean is projected out (blocks ignore k = 0 anyway); a nonzero mean
    triggers a warning since homogeneous norms see only the mean-free part.
    """
    grid, coeffs = _coeffs_of(field)
    c0 = abs(coeffs[0, 0])
    scale = float(np.abs(coeffs).max()) or 1.0
    if c0 > 1e-12 * scale:
        warnings.warn(f"besov_norm: projecting out nonzero mean (|c_0| = {c0:.3e})", stacklevel=2)
    levels, norms = _level_norms(grid, coeffs, params.p, profile)
    return BesovNormResult(_combine(levels, norms, params.s, params.r), int(levels[0]), int(levels[-1]))


def chemin_lerner_norm(times, fields, rho: float, params: BesovParams, profile: DyadicProfile) -> float:
    """Mixed time-frequency norm: L^rho in time inside the level sum.

    Per level j: I_j = integral_0^T ||block_j f(t)||_{L^p}^rho dt by
    trapezoid on the sample times (sup over samples for rho = inf), then the
    usual weighted l^r combination over levels with weight 2^{j s}.
    """
    rho = _check_exponent(rho, "rho")
    times = np.asarray([float(t) for t in times])
    fields = list(fields)
    if len(times) != len(fields):
        raise SpectralError("times and fields must have equal length")
    if len(times) == 0:
        raise SpectralError("empty time series")
    if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
        raise SpectralError("timestamps must be finite and strictly increasing")
    if not math.isinf(rho) and len(times) < 2:
        raise SpectralError("finite rho requires at least 2 samples for the time integral")
    grid = fields[0].grid
    if any(f.grid != grid for f in fields):
        raise SpectralError("all fields must share one grid")
    traj = np.array([block_norms(f, params.p, profile)[1] for f in fields])  # (ntimes, nlevels)
    integrated = traj.max(axis=0) if math.isinf(rho) else np.trapezoid(traj ** rho, times, axis=0) ** (1.0 / rho)
    return _combine(_levels(grid), integrated, params.s, params.r)


def bony_decompose(f: RealField, g: RealField, profile: DyadicProfile):
    """Split fg into low-high, high-low, and diagonal frequency interactions.

    Pieces are built from the module's blocks, with pointwise products in
    physical space and a 2/3-rule dealias; their sum reconstructs the
    dealiased product of the mean-free parts of f and g exactly for
    band-limited inputs.
    """
    if f.grid != g.grid:
        raise SpectralError(
            f"grid mismatch: {(f.grid.n, f.grid.L)} vs {(g.grid.n, g.grid.L)}"
        )
    grid = f.grid
    keep = dealias_mask(grid.half)

    def dealiased(values):
        return np.where(keep, forward_half_plane(values), 0.0)

    cf = dealiased(f.values)
    cg = dealiased(g.values)
    cf[0, 0] = 0.0
    cg[0, 0] = 0.0
    rng = block_range(grid)

    blocks_f = {j: inverse_real(_block_mask(grid, j, "block", profile) * cf) for j in rng}
    blocks_g = {j: inverse_real(_block_mask(grid, j, "block", profile) * cg) for j in rng}
    # low-pass at level j-1 = sum of blocks k <= j-2
    lows_f = {j: inverse_real(_block_mask(grid, j - 1, "low_pass", profile) * cf) for j in rng}
    lows_g = {j: inverse_real(_block_mask(grid, j - 1, "low_pass", profile) * cg) for j in rng}

    t_fg = np.zeros((grid.n, grid.n))
    t_gf = np.zeros((grid.n, grid.n))
    diag = np.zeros((grid.n, grid.n))
    for j in rng:  # ascending levels: fixed reduction order
        t_fg += lows_f[j] * blocks_g[j]
        t_gf += lows_g[j] * blocks_f[j]
        near = blocks_g[j].copy()
        if j - 1 >= rng.j_min:
            near += blocks_g[j - 1]
        if j + 1 <= rng.j_max:
            near += blocks_g[j + 1]
        diag += blocks_f[j] * near

    return tuple(RealField(grid, inverse_real(dealiased(v))) for v in (t_fg, t_gf, diag))
