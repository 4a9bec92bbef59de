"""Shared machinery for the nonlinear runs: configuration, the sample
schedule, seeded initial spectra, the one exponential-integrating-factor RK2
time loop and the one run driver.

Both solvers advance coefficients c of the state via

    dc/dt = -|xi|^alpha c + N(c),

where N is the (dealiased, pseudo-spectral) nonlinear term. One step of
size dt applies the linear factor E = exp(-dt |xi|^alpha) exactly and the
nonlinearity at second order:

    predictor:  c* = E (c + dt N(c))
    corrector:  c' = E c + dt/2 (E N(c) + N(c*))

With N = 0 the step reduces to the exact linear flow, so vanishing-amplitude
runs coincide with ``evolve_linear`` by construction.

The state is real, so its spectrum is Hermitian and the loop keeps only the
rfft2 half-plane: an (n, n/2 + 1) array of columns k2 = 0..n/2
(``half_plane``). E, the state, every tendency and every recorded state live
in that layout (the norms read the half-plane directly), and ``full_plane``
rebuilds the full (n, n) spectrum by Hermitian extension only for the final
state and the last good state of an abort. Column n/2 (the Nyquist column,
which is its own mirror) is kept as it is; the 2/3-rule mask zeroes it in
every tendency, so the nonlinearity never writes there.

An equation module supplies only its physics: a state class, its
critical-norm index, and a flux, which is a ``GridOperators`` subclass with
``rhs(c)`` -> N(c) and ``max_velocity(c)`` -> max |u| for the CFL check,
both on half-plane coefficients. ``max_velocity(c)`` keeps the physical
fields it built, and the ``rhs`` call that follows on the same array reuses
them, so the stage-1 velocity is transformed once per step. ``integrate``
is the only time loop (a single step is an ``integrate`` call with T = dt),
and ``run_flow`` is the only driver: seeded data rescaled to the critical
norm, the smallness refusal, norm recording at the sample schedule, and the
final state. It also owns the run's entries of the run record: its
``RunResult.extras`` carry them under their run.json names, the equation
module adds its own (``run_ks``: ``min_u``, ``mass_relative_drift``), and
the command line adds only what it derives from the series.

A step allocates almost nothing: ``integrate`` rotates two state buffers
and reuses one predictor buffer, and each flux writes its transforms and
products into scratch arrays it owns; only the tendency that ``rhs``
returns is a new array. The tendency reads only the 2/3 band of its input
(the stored symbols carry the mask), so every transform works on the
n//3 + 1 band columns of the half-plane, and a step of either equation
costs 10 band-pruned real transforms of two passes each.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
from dataclasses import astuple, dataclass, field as dc_field

import numpy as np

from .decay import NormSeries
from .littlewood_paley import (
    BesovParams,
    DyadicProfile,
    build_dyadic_profile,
    spectral_besov_norm,
    spectral_besov_norms,
)
from .spectral import (
    Grid2D,
    MultiplierSpec,
    RealField,
    SpectralError,
    SpectralField,
    dealias_mask,
    full_plane,
    half_plane,
    hermitian_noise,
    inverse_transform,
    multiplier_symbol,
)

__all__ = [
    "MAX_SAMPLES",
    "CFLError",
    "NumericalAbort",
    "InitialSpectrum",
    "RunConfig",
    "RunResult",
    "GridOperators",
    "half_plane",
    "full_plane",
    "make_initial_coefficients",
    "integrate",
    "run_flow",
    "spectral_besov_norm",
    "spectral_besov_norms",
    "log_spaced_times",
]

CFL_LIMIT = 0.5
# The longest sample schedule: the oracle holds one (samples x rates) exponent
# matrix per level, and the shipped configs take <= 121 samples.
MAX_SAMPLES = 10_000


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
        if len(self.sample_times) > MAX_SAMPLES:
            raise SpectralError(f"{len(self.sample_times)} sample times, more than {MAX_SAMPLES}")
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
            "initial": list(astuple(self.initial)),  # field order (epsilon, j_lo, j_hi, s_data, taper) fixes the hash
            "norms": [[p.s, p.p, p.r] for p in self.norms],
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class RunResult:
    """The norm series, the final state, and the run's entries of the run record.

    extras holds those entries under their run.json names (the initial
    critical norm and its label, the velocity and Courant figures, the step
    count, the final time, ``config_hash_run``, and whatever the equation
    module adds), plus ``initial_norms``: the t = 0 value of each recorded
    norm, keyed like series, which the command line reads but does not store.
    """

    series: dict  # label -> NormSeries
    final_values: RealField
    extras: dict


def log_spaced_times(t_lo: float, t_hi: float, per_decade: int) -> np.ndarray:
    """Logarithmically spaced sample times, at least per_decade per decade."""
    count = sample_count(t_lo, t_hi, per_decade)
    return np.exp(np.linspace(math.log(t_lo), math.log(t_hi), count))


def sample_count(t_lo: float, t_hi: float, per_decade: int) -> int:
    """How many times log_spaced_times takes, at most MAX_SAMPLES.

    Raises SpectralError unless 0 < t_lo < t_hi and per_decade is an integer
    >= 2, and for a longer schedule, one past the float range included.
    """
    if not (0 < t_lo < t_hi):
        raise SpectralError(f"need 0 < t_lo < t_hi, got [{t_lo}, {t_hi}]")
    if not isinstance(per_decade, numbers.Integral) or per_decade < 2:
        raise SpectralError(f"per_decade must be an integer >= 2, got {per_decade!r}")
    try:
        span = per_decade * math.log10(t_hi / t_lo)
    except OverflowError:  # an integer per_decade past the float range
        span = math.inf
    count = math.ceil(span) + 1 if math.isfinite(span) else math.inf
    if count > MAX_SAMPLES:
        raise SpectralError(f"the sample schedule has {count} times, more than {MAX_SAMPLES}")
    return max(2, count)


def make_initial_coefficients(grid: Grid2D, spec: InitialSpectrum, seed: int) -> np.ndarray:
    """Unit-scale random coefficients under the configured envelope.

    Deterministic in (grid, spec, seed). The caller rescales to the target
    critical norm.
    """
    z = hermitian_noise(grid, np.random.default_rng(seed))  # Hermitian: the field is real
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


class GridOperators:
    """Band-pruned real transforms, derivative symbols and scratch buffers of one grid.

    Spectral arrays are rfft2 half-planes (see ``half_plane``), normalized as
    ``SpectralField``. The 2/3 rule keeps the modes with max(|k1|, |k2|) <=
    n/3, which lie in the first ``band = n//3 + 1`` half-plane columns, so the
    transforms only work there (Orszag's pruning): ``to_phys`` runs its
    column pass over the band columns alone and ``to_spec`` returns only the
    band columns, with the rows outside the band zeroed. ``symbol`` stores a
    multiplier's band columns with the 2/3 mask folded in, so a product with
    a stored symbol truncates its input to the band.

    Equation modules subclass it with their flux (``rhs``, ``max_velocity``)
    and allocate their scratch arrays once, through ``spectral``/``physical``;
    the two ``work`` arrays are shared scratch that no method leaves anything
    in. Products and transforms write into these arrays through ``out=``.
    ``remember``/``recall`` let ``rhs`` reuse the physical fields that
    ``max_velocity`` built for the same state array. ``on(grid)`` builds one
    instance per (subclass, grid) and reuses it.
    """

    def __init__(self, grid: Grid2D):
        n = grid.n
        self.grid = grid
        self.shape = (n, n)
        self.band = n // 3 + 1
        self.cut = slice(self.band, n - self.band + 1)  # rows with |k1| > n/3
        self.mask = np.ascontiguousarray(dealias_mask(grid)[:, : self.band])
        self.d1 = self.symbol(MultiplierSpec.partial(1))
        self.d2 = self.symbol(MultiplierSpec.partial(2))
        self._spec = self.spectral()  # symbol products
        self._col = self.spectral()  # column pass of to_phys
        self._row = np.empty((n, n // 2 + 1), dtype=np.complex128)  # row pass of to_spec
        self.work = self.physical(), self.physical()  # free between method calls
        self._last = (None, None)  # (state array, its physical fields)

    @classmethod
    @functools.cache
    def on(cls, grid: Grid2D):
        return cls(grid)

    def spectral(self) -> np.ndarray:
        """A new uninitialised (n, band) complex array."""
        return np.empty((self.grid.n, self.band), dtype=np.complex128)

    def physical(self) -> np.ndarray:
        """A new uninitialised (n, n) real array."""
        return np.empty(self.shape)

    def tendency(self) -> np.ndarray:
        """A new half-plane array, zero past the band columns, for the caller to keep."""
        out = np.empty((self.grid.n, self.grid.n // 2 + 1), dtype=np.complex128)
        out[:, self.band:] = 0.0
        return out

    def symbol(self, spec: MultiplierSpec) -> np.ndarray:
        """Band columns of the multiplier, zero outside the 2/3 band."""
        sym = multiplier_symbol(self.grid, spec)[:, : self.band]
        return np.ascontiguousarray(np.where(self.mask, sym, 0.0))

    def truncate(self, c, out):
        """The band columns of half-plane c, with the rows outside the band zeroed, in out."""
        out[...] = c[:, : self.band]
        out[self.cut] = 0.0
        return out

    def to_phys(self, c, out=None):
        """Real field of coefficients c whose columns past the band are zero.

        Only the band columns of c are read; the row pass zero-pads the rest.
        """
        col = np.fft.ifftn(c[:, : self.band], axes=(0,), norm="forward", out=self._col)
        return np.fft.irfftn(col, s=self.shape[1:], axes=(1,), norm="forward", out=out)

    def apply(self, sym, c, out=None):
        """Real field of a stored symbol times the band columns of c."""
        return self.to_phys(np.multiply(sym, c[:, : self.band], out=self._spec), out=out)

    def to_spec(self, w, out=None):
        """Band columns of the 2/3-truncated spectrum of the real field w."""
        row = np.fft.rfftn(w, axes=(1,), norm="forward", out=self._row)
        spec = np.fft.fftn(row[:, : self.band], axes=(0,), norm="forward", out=out)
        spec[self.cut] = 0.0
        return spec

    def speed(self, f1, f2) -> float:
        """max sqrt(f1^2 + f2^2) over the grid."""
        s1, s2 = self.work
        np.add(np.multiply(f1, f1, out=s1), np.multiply(f2, f2, out=s2), out=s1)
        return math.sqrt(s1.max())  # sqrt is monotone, so this is the max of the sqrt

    def remember(self, c, fields):
        """Keep the physical fields of state c for the next ``recall``; returns them."""
        self._last = (c, fields)
        return fields

    def recall(self, c, build):
        """The fields remembered for this very array c, else build(c).

        One entry, consumed by the call, keyed on the array's identity. The
        time loop reuses its state buffers, so the key is sound only because
        ``integrate`` calls ``rhs(c)`` right after ``max_velocity(c)``, with
        no write to c in between.
        """
        last, fields = self._last
        self._last = (None, None)
        return fields if last is c else build(c)


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

    coeffs0 is the full-plane spectrum of a real field; only its half-plane
    (columns k2 = 0..n/2) is read, and the loop steps that half-plane. So
    rhs(c) -> spectral nonlinear term and max_velocity(c) -> max |u| on the
    grid for the CFL check both receive (n, n/2 + 1) arrays; the Nyquist
    column n/2 of the state is kept as it is. rhs(c) returns a new half-plane
    array that the loop then owns and overwrites. The tendencies of ``sqg``
    and ``keller_segel`` dealias their input: they read only the 2/3 band of
    c and return a tendency that is zero outside it, so content of the state
    outside the band feels only the linear factor.

    The loop keeps two state buffers and one predictor buffer and writes
    every product into them, so the c that rhs and max_velocity see is valid
    only during the call. max_velocity(c) is called once per step, right
    before rhs(c) on the same array. record(t, c) is called at t = 0 and
    whenever a step boundary reaches the next sample time (recorded at the
    actual step time) with a new copy of the half-plane state, which the
    callback may keep. A non-finite velocity or state raises NumericalAbort
    with a full-plane copy of the last state whose velocity check passed.
    Returns (final_coeffs, n_steps, max_velocity_seen), final_coeffs
    full-plane.
    """
    E = np.exp(-dt * multiplier_symbol(grid, MultiplierSpec.fractional_laplacian(alpha)))
    E = half_plane(E).astype(np.complex128)  # the cast every complex product would make
    c = good = np.array(half_plane(coeffs0), dtype=np.complex128)
    spare, pred = np.empty_like(c), np.empty_like(c)
    t = 0.0
    record(t, c.copy())
    samples = [s for s in sorted(sample_times) if s <= T + 0.5 * dt]
    next_i = 0
    n_steps = int(math.ceil(T / dt - 1e-12))
    vmax_seen = 0.0
    courant = grid.n / grid.L
    for step in range(n_steps):
        vmax = max_velocity(c)
        if not math.isfinite(vmax):
            raise NumericalAbort(t, full_plane(good))
        vmax_seen = max(vmax_seen, vmax)
        if dt * vmax * courant > CFL_LIMIT:
            raise CFLError(vmax, dt)
        good = c
        n0 = rhs(c)
        # pred = E * (c + dt * n0)
        np.multiply(E, np.add(c, np.multiply(dt, n0, out=pred), out=pred), out=pred)
        n1 = rhs(pred)
        # c' = E * c + (0.5 * dt) * (E * n0 + n1), into the other state buffer
        np.multiply(0.5 * dt, np.add(np.multiply(E, n0, out=n0), n1, out=n0), out=n0)
        c, spare = np.add(np.multiply(E, c, out=spare), n0, out=spare), c
        t = (step + 1) * dt
        if next_i < len(samples) and t >= samples[next_i] - 1e-12:
            while next_i < len(samples) and t >= samples[next_i] - 1e-12:
                next_i += 1  # several samples may fall inside one step
            if not np.all(np.isfinite(c.view(np.float64))):
                raise NumericalAbort(t, full_plane(good))
            record(t, c.copy())
    if not np.all(np.isfinite(c.view(np.float64))):
        raise NumericalAbort(t, full_plane(good))
    return full_plane(c), n_steps, vmax_seen


def run_flow(equation: str, flux: GridOperators, critical: BesovParams, config: RunConfig,
             profile: DyadicProfile | None = None, on_sample=None) -> RunResult:
    """Integrate one flow to T, recording the configured norms at the samples.

    The initial field is the seeded shell-localized spectrum on the flux's
    grid, scaled so its critical norm equals the configured amplitude; runs
    whose amplitude exceeds the smallness budget are refused. on_sample(t, c)
    sees every recorded half-plane state after the norms are taken. The
    extras are the run's entries of the run record (see ``RunResult``).
    """
    profile = profile or build_dyadic_profile()
    grid = flux.grid
    coeffs = make_initial_coefficients(grid, config.initial, config.seed)
    # measured on the half-plane, like every record, so a run builds one p = 2 layout
    raw = spectral_besov_norm(grid, half_plane(coeffs), critical, profile)
    if raw > 0:
        coeffs *= config.initial.epsilon / raw  # epsilon = 0 zeroes the state
    crit = spectral_besov_norm(grid, half_plane(coeffs), critical, profile)
    if crit > config.smallness_budget * (1.0 + 1e-9):
        raise SpectralError(
            f"initial critical norm {crit:.3e} exceeds the smallness budget "
            f"{config.smallness_budget:.3e}"
        )
    norms = list(config.norms) or [BesovParams(0.0, 2.0, 1.0)]
    times, rows = [], []  # one row of norm values per record

    def record(t, c):
        times.append(t)
        rows.append(spectral_besov_norms(grid, c, norms, profile))
        if on_sample is not None:
            on_sample(t, c)

    final_c, n_steps, vmax = integrate(grid, coeffs, config.alpha, config.dt, config.T, flux.rhs,
                                      flux.max_velocity, config.sample_times, record)
    peak_courant = config.dt * vmax * grid.n / grid.L
    times, values = np.asarray(times), np.asarray(rows)
    keep = times > 0  # NormSeries wants positive times; drop the t = 0 record
    prefix = f"{equation}:seed={config.seed}"
    return RunResult(
        series={p.label(): NormSeries(times[keep], values[keep, i], f"{prefix}:{p.label()}")
                for i, p in enumerate(norms)},
        final_values=inverse_transform(SpectralField(grid, final_c, check=False)),
        extras={
            "initial_norms": {p.label(): float(v) for p, v in zip(norms, values[0])},
            "initial_critical_norm": crit,
            "critical_norm_label": critical.label(),
            "max_velocity_seen": vmax,
            "peak_courant": peak_courant,
            "courant_margin": CFL_LIMIT - peak_courant,
            "n_steps": n_steps,
            "final_time": n_steps * config.dt,
            "config_hash_run": config.config_hash(),
        },
    )
