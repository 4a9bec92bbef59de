"""Shared machinery for the nonlinear runs: configuration, the sample
schedule, seeded initial spectra, the one exponential-integrating-factor time
loop and the one run driver.

Both solvers advance coefficients c of the state via

    dc/dt = -|xi|^alpha c + N(c),

where N is the (dealiased, pseudo-spectral) nonlinear term. A step of size
dt applies the linear factor E = exp(-dt |xi|^alpha) exactly and the
nonlinearity at second order. The first step is integrating-factor RK2,

    predictor:  c* = E (c + dt N(c))
    corrector:  c' = E c + dt/2 (E N(c) + N(c*)),

and every later step is integrating-factor Adams-Bashforth 2 (AB2 on
v = exp(t |xi|^alpha) c; Cox & Matthews, J. Comput. Phys. 176, 2002), which
needs one new tendency per step, that of the current state:

    c' = E (c + dt (3/2 N(c) - 1/2 E N(c_prev))).

With N = 0 either step reduces to the exact linear flow, so vanishing-amplitude
runs coincide with ``evolve_linear`` by construction. The shipped runs have
dt |xi|^alpha <= 0.04 at the band edge, where the exponential-time-differencing
weights of ETD2 would differ from these only at first order in that number.

The state is real, so its spectrum is Hermitian and everything from the
seeded data to the solvers' outputs keeps only the rfft2 half-plane: an
(n, n/2 + 1) array of columns k2 = 0..n/2 (``half_plane``). The seeded data,
E, the state, every tendency, every recorded state, the final state of
``integrate`` and the last good state of an abort live in that layout (the
norms read it directly, and ``run_flow``'s final field is its irfft2).
Column n/2 (the Nyquist column, which is its own mirror) is kept as it is;
the 2/3-rule mask zeroes it in every tendency, so the nonlinearity never
writes there.

An equation module supplies only its physics: its critical-norm index and
a flux, which is a ``GridOperators`` subclass with ``rhs(c)`` -> N(c) and
``max_velocity(c)`` -> max |u| for the CFL check, both on half-plane
coefficients. ``max_velocity(c)`` keeps what it built from c, and the
``rhs`` call that follows on the same array reuses it, so the velocity of
the step's state is transformed once per step. What is kept is the flux's
choice, not always the velocity fields: SQG keeps u, KS the drift's two
products a^2 - b^2 and ab, which it forms in place of a and b.
``integrate`` is the only time loop (a single step is an ``integrate`` call
with T = dt), and ``run_flow`` is the only driver: seeded data rescaled to
the critical norm, the smallness refusal, norm recording at the sample
schedule, and the final state. It also owns the run's entries of the run
record: its ``RunResult.extras`` carry them under their run.json names, the
equation module adds its own (``run_ks``: ``min_u``, ``mass_relative_drift``),
and the command line adds only what it derives from the series.

A step allocates almost nothing: ``integrate`` rotates two state buffers,
reuses one predictor buffer in the first step, keeps the previous step's
tendency and takes E from a cache, and each flux writes its products into
scratch arrays it owns; only the tendency that ``rhs`` returns is new. The
tendency reads only the 2/3 band of its input (the stored symbols carry the
mask) and ``integrate`` only its n//3 + 1 band columns (the columns past them
get E alone). In the loop these arrays are column-major, so a band block is
contiguous; column passes work on it and row passes on whole (n, n/2 + 1)
half-planes (see ``GridOperators``). A step after the first costs 5 real
transforms of two passes each, 4 for KS (the first: 10, 8).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import time
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
    dealias_mask,
    half_plane,
    half_plane_of,
    hermitian_noise,
    inverse_real,
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
# Relative slack of the sample rule: log_spaced_times(t_lo, T, k) ends at
# exp(log(T)), a few ulp off T, and a step time k * dt is rounded too.
SAMPLE_RTOL = 1e-12


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
    """Solution became non-finite; carries a copy of the (n, n/2 + 1)
    half-plane of the last state that passed the velocity check."""

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
        if not (0 <= self.epsilon < math.inf):
            raise SpectralError(f"amplitude epsilon must be finite and >= 0, got {self.epsilon}")
        if not math.isfinite(self.s_data):
            raise SpectralError(f"data regularity s_data must be finite, got {self.s_data}")
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
        MultiplierSpec.fractional_laplacian(self.alpha)  # range check
        _require_positive_finite(dt=self.dt, T=self.T, smallness_budget=self.smallness_budget)
        times = np.array([float(t) for t in self.sample_times])
        if len(times) > MAX_SAMPLES:
            raise SpectralError(f"{len(times)} sample times, more than {MAX_SAMPLES}")
        last = step_schedule(self.T, self.dt)[1]  # integrate drops every later sample
        if not np.all((times > 0) & (times <= last)):
            raise SpectralError(f"sample times must lie in (0, {last:.17g}], "
                                "up to T + dt/2 and the final step time")
        self.sample_times = np.sort(times)

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
    timings holds the volatile wall-clock times of the run's phases, never extras.
    """

    series: dict  # label -> NormSeries
    final_values: RealField
    extras: dict
    timings: dict  # seconds up to the t = 0 record (init_s), in records (record_s), in the rest (integrate_s)


def _require_positive_finite(**values):
    for name, value in values.items():
        if not (0 < value < math.inf):
            raise SpectralError(f"{name} must be positive and finite, got {value}")


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
        raise SpectralError(f"the sample schedule has {count} times, more than {MAX_SAMPLES}; "
                            "lower per_decade or narrow [t_lo, t_hi]")
    return max(2, count)


def step_schedule(T: float, dt: float) -> tuple[int, float]:
    """(n_steps, last): a run of step dt to T takes the first step count whose
    time reaches T, and keeps the sample times up to last, at most half a step
    past T and at most the final step time, up to the relative SAMPLE_RTOL.
    ``RunConfig`` refuses later samples and ``integrate`` drops them."""
    n_steps = int(math.ceil(T / dt - 1e-12))
    return n_steps, min(T + 0.5 * dt, n_steps * dt) * (1 + SAMPLE_RTOL)


def make_initial_coefficients(grid: Grid2D, spec: InitialSpectrum, seed: int) -> np.ndarray:
    """Unit-scale random half-plane coefficients under the configured envelope.

    Deterministic in (grid, spec, seed): the half-plane of one Hermitian
    ``hermitian_noise`` draw times the envelope, entry by entry. The caller
    rescales to the target critical norm.
    """
    z = half_plane(hermitian_noise(grid, np.random.default_rng(seed)))  # Hermitian: the field is real
    r = grid.half.xi_mag
    band = (
        dealias_mask(grid.half)
        & (r > 0.75 * 2.0 ** spec.j_lo)
        & (r < (8.0 / 3.0) * 2.0 ** spec.j_hi)
        & (r > 0)  # leaves the mean out
    )
    safe_r = np.where(r > 0, r, 1.0)
    envelope = safe_r ** (spec.s_data - 1.0) * np.exp(-r / spec.taper)
    return np.where(band, envelope * z, 0.0)


class GridOperators:
    """Band-pruned real transforms, derivative symbols and scratch buffers of one grid.

    Spectral arrays are rfft2 half-planes (see ``half_plane``), normalized as
    ``SpectralField``. The 2/3 rule keeps the modes with max(|k1|, |k2|) <=
    n/3, in the first ``band = n//3 + 1`` half-plane columns, so column passes
    work there alone (Orszag's pruning); row passes take a whole (n, n/2 + 1)
    half-plane, which numpy transforms without a padded copy. ``to_phys`` and
    ``apply`` fill the band columns of a zero-filled half-plane of the
    instance, whose other columns nobody writes; ``to_spec`` takes its row
    pass into a row-major scratch half-plane and its column pass into the
    caller's half-plane, which it zeroes outside the band. ``symbol`` stores
    a multiplier's band columns with the 2/3 mask folded in, so a product
    with a stored symbol truncates its input to the band. These arrays, and
    the half-planes of ``to_spec``, are column-major: a band block is contiguous.

    Equation modules subclass it with their flux (``rhs``, ``max_velocity``)
    and allocate their scratch arrays once (``physical`` for real fields);
    the two ``work`` arrays are shared scratch that no method leaves anything
    in. Products and transforms write into these arrays through ``out=``.
    ``remember``/``recall`` let ``rhs`` reuse whatever ``max_velocity``
    built for the same state array: ``recall`` hands back what was
    remembered, which is not always the velocity fields (KS keeps products). ``on(grid)`` builds one
    instance per (subclass, grid) and reuses it.
    """

    def __init__(self, grid: Grid2D):
        n = grid.n
        self.grid = grid
        self.shape = (n, n)
        self.half = (n, n // 2 + 1)
        self.band = n // 3 + 1
        self.cut = slice(self.band, n - self.band + 1)  # rows with |k1| > n/3
        self.mask = np.asfortranarray(dealias_mask(grid.half)[:, : self.band])
        self.d1 = self.symbol(MultiplierSpec.partial(1))
        self.d2 = self.symbol(MultiplierSpec.partial(2))
        self._pad = np.zeros(self.half, dtype=np.complex128, order="F")  # nothing writes past its band
        self._cols = self._pad[:, : self.band]  # columns, which hold symbol products and to_phys's column pass
        self._rows = np.empty(self.half, dtype=np.complex128)  # to_spec's row pass, C-ordered
        self.work = self.physical(), self.physical()  # free between method calls
        self._last = (None, None)  # (state array, its physical fields)

    @classmethod
    @functools.cache
    def on(cls, grid: Grid2D):
        return cls(grid)

    def physical(self) -> np.ndarray:
        """A new uninitialised (n, n) real array."""
        return np.empty(self.shape)

    def symbol(self, spec: MultiplierSpec) -> np.ndarray:
        """Band columns of the multiplier, zero outside the 2/3 band."""
        sym = multiplier_symbol(self.grid.half, spec)[:, : self.band]
        return np.asfortranarray(np.where(self.mask, sym, 0.0))

    def to_phys(self, c, out=None):
        """Real field of the band columns of c, row-major: its columns past the band read as zero."""
        np.fft.ifftn(c[:, : self.band], axes=(0,), norm="forward", out=self._cols)
        out = self.physical() if out is None else out  # irfftn would follow the column-major half-plane
        return np.fft.irfftn(self._pad, s=self.shape[1:], axes=(1,), norm="forward", out=out)

    def apply(self, sym, c, out=None):
        """Real field of a stored symbol times the band columns of c."""
        return self.to_phys(np.multiply(sym, c[:, : self.band], out=self._cols), out=out)

    def to_spec(self, w, out=None):
        """The 2/3-truncated half-plane spectrum of the real field w, in out (a new F-ordered array if None)."""
        spec = np.empty(self.half, dtype=np.complex128, order="F") if out is None else out
        rows = np.fft.rfftn(w, axes=(1,), norm="forward", out=self._rows)
        band = np.fft.fftn(rows[:, : self.band], axes=(0,), norm="forward", out=spec[:, : self.band])
        spec[:, self.band:] = 0.0
        band[self.cut] = 0.0
        return spec

    def speed(self, f1, f2) -> float:
        """max sqrt(f1^2 + f2^2) over the grid."""
        s1, s2 = self.work
        np.add(np.multiply(f1, f1, out=s1), np.multiply(f2, f2, out=s2), out=s1)
        return math.sqrt(s1.max())  # sqrt is monotone, so this is the max of the sqrt

    def remember(self, c, fields):
        """Keep what was built from state c for the next ``recall``; returns it."""
        self._last = (c, fields)
        return fields

    def recall(self, c, build):
        """What was remembered for this very array c, else build(c).

        One entry, consumed by the call, keyed on the array's identity. The
        time loop reuses its state buffers, so the key is sound only because
        ``integrate`` calls ``rhs(c)`` right after ``max_velocity(c)``, with
        no write to c in between.
        """
        last, fields = self._last
        self._last = (None, None)
        return fields if last is c else build(c)


@functools.lru_cache(maxsize=8)
def _integrating_factor(grid: Grid2D, alpha: float, dt: float) -> np.ndarray:
    """Read-only E = exp(-dt |xi|^alpha) on the half-plane, complex: the cast every complex product would make."""
    lap = multiplier_symbol(grid.half, MultiplierSpec.fractional_laplacian(alpha))
    E = np.asfortranarray(np.exp(-dt * lap), dtype=complex)
    E.flags.writeable = False
    return E


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
    """Integrating-factor time loop with CFL monitoring and sampling.

    The first step is IF-RK2 and every later one IF-AB2 (see the module
    docstring), so a single step (T = dt) is exactly the RK2 step.

    coeffs0 is the (n, n/2 + 1) half-plane of a real field's spectrum, or
    its full (n, n) plane, which half_plane_of checks and halves as for the
    norms, so both give the same run. The loop steps that half-plane, and
    rhs(c) -> spectral nonlinear term and max_velocity(c) -> max |u| on the
    grid for the CFL check both receive (n, n/2 + 1) arrays; the Nyquist
    column n/2 of the state is kept as it is. rhs(c) returns a new half-plane
    array that the loop then owns and overwrites: it holds the tendency of
    one step over to the next and writes the AB2 product into it. The loop
    reads a tendency on the band columns k2 <= n/3 alone, in both steps, and
    gives the columns past them E alone; the tendencies of ``sqg`` and
    ``keller_segel`` read only the 2/3 band of c and are zero outside it. Its
    buffers are column-major like theirs; records, final_coeffs and last_good are row-major.

    The loop keeps two state buffers and one predictor buffer and writes
    every product into them, so the c that rhs and max_velocity see is valid
    only during the call. Each step calls max_velocity(c) once and then
    rhs(c) on the same array; the first step also calls rhs on its
    predictor. record(t, c) is called at t = 0 and whenever a step boundary
    reaches the next sample time (recorded at the actual step time) with a
    new copy of the half-plane state, which the callback may keep. Sample
    times past ``step_schedule(T, dt)[1]`` are dropped; ``RunConfig`` refuses
    them. A non-finite velocity or state raises NumericalAbort with a
    half-plane copy of the last state whose velocity check passed; a coeffs0 of
    another shape or a non-Hermitian one (check_hermitian), or a dt or T that
    is not positive and finite, raises SpectralError. Returns (final_coeffs,
    n_steps, max_velocity_seen), final_coeffs the (n, n/2 + 1) half-plane of
    the final state.
    """
    _require_positive_finite(dt=dt, T=T)
    E = _integrating_factor(grid, alpha, dt)
    c = good = np.array(half_plane_of(grid, coeffs0), dtype=np.complex128, order="F")
    spare, pred = np.empty_like(c), np.empty_like(c)
    band, rest = slice(grid.n // 3 + 1), slice(grid.n // 3 + 1, None)  # a tendency is read on the band alone
    prev = None  # the tendency of the previous step's state
    t = 0.0
    record(t, c.copy())
    n_steps, last = step_schedule(T, dt)
    samples = [s for s in sorted(sample_times) if s <= last]
    next_i = 0
    vmax_seen = 0.0
    courant = grid.n / grid.L
    for step in range(n_steps):
        vmax = max_velocity(c)
        if not math.isfinite(vmax):
            raise NumericalAbort(t, good.copy())
        vmax_seen = max(vmax_seen, vmax)
        if dt * vmax * courant > CFL_LIMIT:
            raise CFLError(vmax, dt)
        good = c
        n0 = rhs(c)
        Eb, cb, sb, nb = E[:, band], c[:, band], spare[:, band], n0[:, band]
        pb = (pred if prev is None else prev)[:, band]
        if prev is None:  # the RK2 starter step
            # pred = E * (c + dt * n0) on the band, and E * c past it, which is also c' there
            pred[:, rest] = np.multiply(E, c, out=spare)[:, rest]
            np.multiply(Eb, np.add(cb, np.multiply(dt, nb, out=pb), out=pb), out=pb)
            n1 = rhs(pred)
            # c' = E * c + (0.5 * dt) * (E * n0 + n1) on the band, into the other state buffer
            np.multiply(0.5 * dt, np.add(np.multiply(Eb, nb, out=pb), n1[:, band], out=pb), out=pb)
            np.add(sb, pb, out=sb)
        else:
            # c' = E * (c + dt * (1.5 * n0 - 0.5 * E * prev)) on the band, E * c past it
            np.multiply(0.5 * dt, np.multiply(Eb, pb, out=pb), out=pb)
            np.subtract(np.multiply(1.5 * dt, nb, out=sb), pb, out=sb)
            np.multiply(Eb, np.add(cb, sb, out=sb), out=sb)
            np.multiply(E[:, rest], c[:, rest], out=spare[:, rest])
        c, spare, prev = spare, c, n0
        t = (step + 1) * dt
        reach = t * (1 + SAMPLE_RTOL)  # the rule of step_schedule
        if next_i < len(samples) and samples[next_i] <= reach:
            while next_i < len(samples) and samples[next_i] <= reach:
                next_i += 1  # several samples may fall inside one step
            if not np.isfinite(c).all():
                raise NumericalAbort(t, good.copy())
            record(t, c.copy())
    if not np.isfinite(c).all():
        raise NumericalAbort(t, good.copy())
    return np.ascontiguousarray(c), n_steps, vmax_seen


def run_flow(equation: str, flux: GridOperators, critical: BesovParams, config: RunConfig,
             profile: DyadicProfile | None = None, on_sample=None) -> RunResult:
    """Integrate one flow to T, recording the configured norms at the samples.

    The initial field is the seeded shell-localized spectrum on the flux's
    grid, scaled so its critical norm equals the configured amplitude; runs
    whose shells hold no mode, or whose amplitude exceeds the smallness
    budget, are refused before the first step. on_sample(t, c)
    sees every recorded half-plane state after the norms are taken. The
    extras are the run's entries of the run record (see ``RunResult``).
    """
    started = time.perf_counter()
    profile = profile or build_dyadic_profile()
    grid = flux.grid
    coeffs = make_initial_coefficients(grid, config.initial, config.seed)
    # measured on the half-plane, like every record, so a run builds one p = 2 layout
    raw = spectral_besov_norm(grid, coeffs, critical, profile)
    if raw == 0:  # a NaN raw goes on to the smallness refusal
        raise SpectralError(f"the seeded spectrum is empty: the shells [{config.initial.j_lo}, "
                            f"{config.initial.j_hi}] hold no mode of the grid (n={grid.n}, L={grid.L:g})")
    coeffs *= config.initial.epsilon / raw  # epsilon = 0 zeroes the state
    crit = spectral_besov_norm(grid, coeffs, critical, profile)
    if not crit <= config.smallness_budget * (1.0 + 1e-9):  # a NaN norm is refused too
        raise SpectralError(
            f"initial critical norm {crit:.3e} exceeds the smallness budget "
            f"{config.smallness_budget:.3e}"
        )
    norms = list(config.norms) or [BesovParams(0.0, 2.0, 1.0)]
    times, rows = [], []  # one row of norm values per record
    spans = []  # (start, seconds) of each record

    def record(t, c):
        begun = time.perf_counter()
        times.append(t)
        rows.append(spectral_besov_norms(grid, c, norms, profile))
        if on_sample is not None:
            on_sample(t, c)
        spans.append((begun, time.perf_counter() - begun))

    final_c, n_steps, vmax = integrate(grid, coeffs, config.alpha, config.dt, config.T, flux.rhs,
                                      flux.max_velocity, config.sample_times, record)
    stepped, record_s = spans[0][0], sum(seconds for _, seconds in spans)  # the loop follows the t = 0 record
    timings = {"init_s": stepped - started, "integrate_s": time.perf_counter() - stepped - record_s,
               "record_s": record_s}
    peak_courant = config.dt * vmax * grid.n / grid.L
    times, values = np.asarray(times), np.asarray(rows)
    keep = times > 0  # NormSeries wants positive times; drop the t = 0 record
    prefix = f"{equation}:seed={config.seed}"
    return RunResult(
        series={p.label(): NormSeries(times[keep], values[keep, i], f"{prefix}:{p.label()}")
                for i, p in enumerate(norms)},
        final_values=RealField(grid, inverse_real(final_c)),
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
        timings=timings,
    )
