"""Shared machinery for the nonlinear runs: configuration, seeded initial
spectra, the exponential-integrating-factor RK2 time loop, and norm
recording.

Both solvers advance coefficients c of the state via

    dc/dt = -|xi|^alpha c + N(c),

where N is the (dealiased, pseudo-spectral) nonlinear term. One step of
size dt applies the linear factor E = exp(-dt |xi|^alpha) exactly and the
nonlinearity at second order:

    predictor:  c* = E (c + dt N(c))
    corrector:  c' = E c + dt/2 (E N(c) + N(c*))

With N = 0 the step reduces to the exact linear flow, so vanishing-amplitude
runs coincide with ``evolve_linear`` by construction.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .decay import NormSeries
from .littlewood_paley import (
    BesovParams,
    DyadicProfile,
    block_multiplier,
    block_range,
)
from .spectral import Grid2D, RealField, SpectralError, dealias_mask

__all__ = [
    "CFLError",
    "NumericalAbort",
    "InitialSpectrum",
    "RunConfig",
    "RunResult",
    "make_initial_coefficients",
    "integrate",
    "spectral_besov_norm",
    "log_spaced_times",
]

CFL_LIMIT = 0.5


class CFLError(RuntimeError):
    """Advective CFL bound dt * max|u| * n / L <= 0.5 violated."""

    def __init__(self, max_velocity: float, dt: float):
        super().__init__(
            f"CFL violation: dt * max|u| * n/L exceeds {CFL_LIMIT} "
            f"with max|u| = {max_velocity:.6g}, dt = {dt:.6g}"
        )
        self.max_velocity = max_velocity
        self.dt = dt


class NumericalAbort(RuntimeError):
    """Solution became non-finite; carries the last state that passed the
    velocity check."""

    def __init__(self, t: float, last_good: np.ndarray):
        super().__init__(f"non-finite solution detected at t = {t:.6g}; aborting")
        self.t = t
        self.last_good = last_good


@dataclass(frozen=True)
class InitialSpectrum:
    """Seeded random shell-localized spectrum.

    Coefficients get random Hermitian phases under the radial envelope
    A(r) = r^(s_data - 1) * exp(-r / taper) restricted to the annuli
    [3/4 * 2^j_lo, 8/3 * 2^j_hi] intersected with the dealias band. The
    low-frequency power law emulates data from the negative-regularity class
    with index s_data; the exponential taper sets where decay turns on. The
    whole field is then rescaled so a chosen critical norm equals epsilon.
    """

    epsilon: float
    j_lo: int
    j_hi: int
    s_data: float = 1.0
    taper: float = 1.0

    def __post_init__(self):
        if not (self.epsilon >= 0):
            raise SpectralError(f"amplitude epsilon must be >= 0, got {self.epsilon}")
        if self.j_lo > self.j_hi:
            raise SpectralError(f"shell range requires j_lo <= j_hi, got [{self.j_lo}, {self.j_hi}]")
        if not (self.taper > 0):
            raise SpectralError(f"taper scale must be positive, got {self.taper}")


@dataclass
class RunConfig:
    """Everything a nonlinear decay run needs, minus the equation itself."""

    n: int
    L: float
    alpha: float
    dt: float
    T: float
    seed: int
    initial: InitialSpectrum
    sample_times: np.ndarray
    norms: list = dc_field(default_factory=list)  # BesovParams entries to record
    smallness_budget: float = 1e-2

    def __post_init__(self):
        if not (self.dt > 0):
            raise SpectralError(f"dt must be positive, got {self.dt}")
        if not (self.T > 0):
            raise SpectralError(f"T must be positive, got {self.T}")
        if not (0.0 < self.alpha <= 2.0):
            raise SpectralError(f"alpha must be in (0, 2], got {self.alpha}")
        self.sample_times = np.asarray(sorted(float(t) for t in self.sample_times))
        if len(self.sample_times) and self.sample_times[0] <= 0:
            raise SpectralError("sample times must be positive")

    def grid(self) -> Grid2D:
        return Grid2D(self.n, self.L)

    def config_hash(self) -> str:
        payload = {
            "n": self.n,
            "L": self.L,
            "alpha": self.alpha,
            "dt": self.dt,
            "T": self.T,
            "seed": self.seed,
            "initial": [
                self.initial.epsilon,
                self.initial.j_lo,
                self.initial.j_hi,
                self.initial.s_data,
                self.initial.taper,
            ],
            "norms": [[p.s, p.p, p.r] for p in self.norms],
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class RunResult:
    """Norm series bundle plus the final state and provenance."""

    series: dict  # label -> NormSeries
    final_values: RealField
    final_time: float
    config_hash: str
    seed: int
    initial_critical_norm: float
    max_velocity_seen: float
    extras: dict = dc_field(default_factory=dict)


def log_spaced_times(t_lo: float, t_hi: float, per_decade: int) -> np.ndarray:
    """Logarithmically spaced sample times, at least per_decade per decade."""
    if not (0 < t_lo < t_hi):
        raise SpectralError(f"need 0 < t_lo < t_hi, got [{t_lo}, {t_hi}]")
    decades = math.log10(t_hi / t_lo)
    count = max(2, int(math.ceil(per_decade * decades)) + 1)
    return np.exp(np.linspace(math.log(t_lo), math.log(t_hi), count))


def make_initial_coefficients(grid: Grid2D, spec: InitialSpectrum, seed: int) -> np.ndarray:
    """Unit-scale random coefficients under the configured envelope.

    Deterministic in (grid, spec, seed). The caller rescales to the target
    critical norm.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
    idx = (-np.arange(grid.n)) % grid.n
    z = 0.5 * (z + np.conj(z[np.ix_(idx, idx)]))  # Hermitianize: field is real
    r = grid.xi_mag
    band = (
        dealias_mask(grid)
        & (r > 0.75 * 2.0 ** spec.j_lo)
        & (r < (8.0 / 3.0) * 2.0 ** spec.j_hi)
        & (r > 0)
    )
    safe_r = np.where(r > 0, r, 1.0)
    envelope = safe_r ** (spec.s_data - 1.0) * np.exp(-r / spec.taper)
    coeffs = np.where(band, envelope * z, 0.0)
    coeffs[0, 0] = 0.0
    return coeffs


def spectral_besov_norm(
    grid: Grid2D, coeffs: np.ndarray, params: BesovParams, profile: DyadicProfile
) -> float:
    """Besov norm straight from coefficients (p = 2 fast path, no FFTs)."""
    rng = block_range(grid, profile)
    levels = np.arange(rng.j_min, rng.j_max + 1)
    norms = np.empty(len(levels))
    for i, j in enumerate(levels):
        mask = block_multiplier(grid, int(j), "block", profile)
        masked = mask * coeffs
        if params.p == 2.0:
            norms[i] = grid.L * math.sqrt(float(np.sum(np.abs(masked) ** 2)))
        else:
            w = np.fft.ifft2(masked * (grid.n * grid.n)).real
            a = np.abs(w)
            if math.isinf(params.p):
                norms[i] = float(a.max())
            else:
                norms[i] = float((grid.h ** 2 * np.sum(a ** params.p)) ** (1.0 / params.p))
    weighted = (2.0 ** (levels * params.s)) * norms
    if math.isinf(params.r):
        return float(weighted.max())
    return float(np.sum(weighted ** params.r) ** (1.0 / params.r))


def integrate(
    grid: Grid2D,
    coeffs0: np.ndarray,
    alpha: float,
    dt: float,
    T: float,
    rhs,
    max_velocity,
    sample_times,
    record,
):
    """Integrating-factor RK2 loop with CFL monitoring and sampling.

    rhs(c) -> spectral nonlinear term; max_velocity(c) -> max |u| on the
    grid for the CFL check; record(t, c) is called at t = 0 and whenever a
    step boundary reaches the next sample time (recorded at the actual step
    time). A non-finite velocity or state raises NumericalAbort with the last
    state whose velocity check passed. Returns (final_coeffs, n_steps,
    max_velocity_seen).
    """
    sym = np.where(grid.xi_mag > 0, grid.xi_mag, 0.0) ** alpha
    sym[0, 0] = 0.0
    E = np.exp(-dt * sym)
    c = good = coeffs0.copy()
    t = 0.0
    record(t, c)
    samples = [s for s in sorted(sample_times) if s <= T + 0.5 * dt]
    next_i = 0
    n_steps = int(math.ceil(T / dt - 1e-12))
    vmax_seen = 0.0
    courant = grid.n / grid.L
    for step in range(n_steps):
        vmax = max_velocity(c)
        if not math.isfinite(vmax):
            raise NumericalAbort(t, good)
        vmax_seen = max(vmax_seen, vmax)
        if dt * vmax * courant > CFL_LIMIT:
            raise CFLError(vmax, dt)
        good = c
        n0 = rhs(c)
        pred = E * (c + dt * n0)
        n1 = rhs(pred)
        c = E * c + (0.5 * dt) * (E * n0 + n1)
        t = (step + 1) * dt
        if next_i < len(samples) and t >= samples[next_i] - 1e-12:
            while next_i < len(samples) and t >= samples[next_i] - 1e-12:
                next_i += 1  # several samples may fall inside one step
            if not np.all(np.isfinite(c.view(np.float64))):
                raise NumericalAbort(t, good)
            record(t, c)
    if not np.all(np.isfinite(c.view(np.float64))):
        raise NumericalAbort(t, good)
    return c, n_steps, vmax_seen


class NormRecorder:
    """Collects one series per requested norm along a run."""

    def __init__(self, grid: Grid2D, norms, profile: DyadicProfile, descriptor_prefix: str):
        self.grid = grid
        self.norms = list(norms)
        self.profile = profile
        self.prefix = descriptor_prefix
        self.times: list[float] = []
        self.values: dict[int, list[float]] = {i: [] for i in range(len(self.norms))}

    def __call__(self, t: float, coeffs: np.ndarray):
        self.times.append(t)
        for i, params in enumerate(self.norms):
            self.values[i].append(spectral_besov_norm(self.grid, coeffs, params, self.profile))

    def series(self) -> dict:
        out = {}
        for i, params in enumerate(self.norms):
            label = params.label()
            times = np.asarray(self.times)
            vals = np.asarray(self.values[i])
            keep = times > 0  # NormSeries wants positive times; drop the t=0 record
            out[label] = NormSeries(times[keep], vals[keep], f"{self.prefix}:{label}")
        return out

    def initial_values(self) -> dict:
        """Norm values recorded at t = 0, keyed like series()."""
        out = {}
        for i, params in enumerate(self.norms):
            out[params.label()] = float(self.values[i][0]) if self.values[i] else 0.0
        return out
