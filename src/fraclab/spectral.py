"""Periodic-grid field representation and Fourier multiplier machinery.

Everything downstream (dyadic blocks, solvers, the linear semigroup) is built
on three objects defined here:

- ``Grid2D``: an n x n periodic grid on [0, L)^2 with angular wavenumbers
  xi_k = 2*pi*k/L for integer wavevectors k in [-n/2, n/2)^2.
- ``RealField``: real point values on the grid.
- ``SpectralField``: complex coefficients c_k in standard FFT (wrapped)
  layout, normalized so that  f(x) = sum_k c_k exp(i xi_k . x).

With that normalization a single cosine mode has coefficients exactly 1/2 at
k and -k, the k = 0 coefficient equals the field mean, and Parseval reads
||f||_{L^2}^2 = L^2 * sum_k |c_k|^2.

A real field's spectrum has one rule, c(-k) = conj(c(k)) up to 1e-12 of
max |c_k| (``check_hermitian``), met by every full (n, n) plane that enters:
a checked ``SpectralField``, ``inverse_transform`` and ``half_plane_of`` (the
entry of the norms and of ``evolution.integrate``). rfft2/irfft2 are the one
whole-plane transform pair: ``forward_transform`` is the Hermitian extension
(``full_plane``) of the rfft2 half-plane.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralError",
    "Grid2D",
    "HalfPlaneWavenumbers",
    "RealField",
    "SpectralField",
    "MultiplierSpec",
    "forward_transform",
    "inverse_transform",
    "apply_fourier_multiplier",
    "multiplier_symbol",
    "dealias",
    "dealias_mask",
    "hermitian_defect",
    "check_hermitian",
    "hermitian_noise",
    "half_plane",
    "half_plane_of",
    "full_plane",
    "forward_half_plane",
    "inverse_real",
]


class SpectralError(ValueError):
    """Raised when a field or multiplier contract is violated."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _wrapped_wavevectors(n: int) -> np.ndarray:
    """Integer wavevectors 0..n/2-1, -n/2..-1 as float64: np.fft.fftfreq(n, 1/n) without
    importing numpy.fft, which a run that takes no transform never needs."""
    k = np.arange(n, dtype=np.float64)
    k[n // 2:] -= n
    return k


# the public full (n, n) wavenumber planes of a grid, built together on first access
FULL_PLANES = ("k1", "k2", "xi1", "xi2", "xi_mag")


@dataclass
class Grid2D:
    """Uniform n x n periodic grid on the square [0, L)^2.

    Attributes
    ----------
    n : points per dimension, a power of two, n >= 8
    L : side length, L > 0

    Derived quantities: spacing ``h = L/n``, smallest nonzero wavenumber
    ``xi_min = 2*pi/L``, Nyquist wavenumber ``xi_nyquist = pi*n/L``.

    A grid stores no plane. ``half`` holds the wavenumbers of the rfft2
    half-plane, built on first use, which the package reads. The full (n, n)
    planes ``k1``, ``k2`` (integer wavevectors, wrapped order), ``xi1``,
    ``xi2`` (angular wavenumbers) and ``xi_mag`` (|xi|) serve the
    ``SpectralField`` boundary: the first read of any of them builds all
    five (``_full_planes``), and the grid keeps them.
    """

    n: int
    L: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or not _is_power_of_two(int(self.n)) or self.n < 8:
            raise SpectralError(f"grid size must be a power of two >= 8, got n={self.n}")
        if not (self.L > 0) or not math.isfinite(self.L):
            raise SpectralError(f"domain length must be positive and finite, got L={self.L}")
        self.n = int(self.n)
        self.L = float(self.L)

    def __getattr__(self, name):
        # called only for a name the instance lacks: a full plane before its first read
        if name not in FULL_PLANES:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__.update(self._full_planes())
        return self.__dict__[name]

    def _full_planes(self) -> dict:
        k = _wrapped_wavevectors(self.n)
        k1, k2 = np.meshgrid(k, k, indexing="ij")
        scale = 2.0 * math.pi / self.L
        xi1, xi2 = scale * k1, scale * k2
        return {"k1": k1, "k2": k2, "xi1": xi1, "xi2": xi2, "xi_mag": np.hypot(xi1, xi2)}

    @functools.cached_property
    def half(self) -> "HalfPlaneWavenumbers":
        return HalfPlaneWavenumbers(self)

    @property
    def h(self) -> float:
        return self.L / self.n

    @property
    def xi_min(self) -> float:
        return 2.0 * math.pi / self.L

    @property
    def xi_nyquist(self) -> float:
        return math.pi * self.n / self.L

    def coordinates(self):
        """Return (x1, x2) meshgrid arrays of the grid points."""
        x = np.arange(self.n) * self.h
        return np.meshgrid(x, x, indexing="ij")

    def __eq__(self, other):
        return isinstance(other, Grid2D) and self.n == other.n and self.L == other.L

    def __hash__(self):
        return hash((self.n, self.L))


class HalfPlaneWavenumbers:
    """The wavenumbers of a grid's rfft2 half-plane (n, n/2 + 1), under the full planes' names.

    k1 and xi1 are (n, 1) columns, k2 and xi2 (1, n/2 + 1) rows that broadcast
    over the half-plane; xi_mag = |xi| is its one (n, n/2 + 1) array. All are
    read-only, since every reader of the grid shares them. Every
    value equals ``half_plane`` of the grid's full plane bit for bit, column
    n/2 included, whose wrapped wavevector is -n/2.
    """

    def __init__(self, grid: Grid2D):
        self.n = grid.n
        k = _wrapped_wavevectors(grid.n)
        self.k1, self.k2 = k[:, None], k[None, : grid.n // 2 + 1]
        scale = 2.0 * math.pi / grid.L
        self.xi1, self.xi2 = scale * self.k1, scale * self.k2
        self.xi_mag = np.hypot(self.xi1, self.xi2)
        for shared in (self.k1, self.k2, self.xi1, self.xi2, self.xi_mag):
            shared.flags.writeable = False


def _first_nonfinite_index(values: np.ndarray):
    bad = ~np.isfinite(values)
    if bad.any():
        idx = np.argwhere(bad)[0]
        return tuple(int(i) for i in idx)
    return None


@dataclass
class RealField:
    """Real scalar per grid point, row-major, shape (n, n)."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.n, self.grid.n):
            raise SpectralError(
                f"field shape {self.values.shape} does not match grid {(self.grid.n, self.grid.n)}"
            )
        idx = _first_nonfinite_index(self.values)
        if idx is not None:
            raise SpectralError(f"non-finite value at grid index {idx}")

    def mean(self) -> float:
        return float(self.values.mean())


@dataclass
class SpectralField:
    """Complex Fourier coefficients in wrapped FFT layout.

    Entry [i1, i2] holds the coefficient of wavevector
    (wrap(i1), wrap(i2)), wrap per ``np.fft.fftfreq`` ordering. Coefficients
    of a real field satisfy c(-k) = conj(c(k)).
    """

    grid: Grid2D
    coefficients: np.ndarray
    check: bool = True

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.complex128)
        if self.coefficients.shape != (self.grid.n, self.grid.n):
            raise SpectralError(
                f"coefficient shape {self.coefficients.shape} does not match grid "
                f"{(self.grid.n, self.grid.n)}"
            )
        idx = _first_nonfinite_index(self.coefficients.view(np.float64))
        if idx is not None:
            raise SpectralError(f"non-finite coefficient near index {idx}")
        if self.check:
            check_hermitian(self.coefficients)


def _mirror(c: np.ndarray) -> np.ndarray:
    """c(-k) at every k of an (n, n) plane."""
    idx = (-np.arange(c.shape[0])) % c.shape[0]
    return c[np.ix_(idx, idx)]


def hermitian_defect(coefficients: np.ndarray) -> float:
    """Max |c(-k) - conj(c(k))| over the grid (0 for a real field's spectrum)."""
    return float(np.abs(coefficients - np.conj(_mirror(coefficients))).max())


def check_hermitian(coefficients: np.ndarray) -> None:
    """Raise ``SpectralError`` unless the Hermitian defect is at most 1e-12 of max |c_k|."""
    defect = hermitian_defect(coefficients)
    scale = float(np.abs(coefficients).max()) or 1.0
    if defect > 1e-12 * scale:
        raise SpectralError(
            f"coefficients are not Hermitian-symmetric (defect {defect:.3e}, scale {scale:.3e})"
        )


def hermitian_noise(grid: Grid2D, rng) -> np.ndarray:
    """Gaussian complex coefficients on every mode, symmetrized to c(-k) = conj(c(k)).

    Draws the real parts of all n x n modes, then the imaginary parts, from
    ``rng``; every seeded spectrum of the package is built from this draw.
    """
    z = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
    return 0.5 * (z + np.conj(_mirror(z)))


def half_plane(c: np.ndarray) -> np.ndarray:
    """The rfft2 half-plane (columns k2 = 0..n/2) of full-plane coefficients, as a view."""
    return c[..., : c.shape[-1] // 2 + 1]


def half_plane_of(grid: Grid2D, coeffs: np.ndarray) -> np.ndarray:
    """A real field's half-plane coefficients: an (n, n/2 + 1) half-plane as it is (unchecked,
    uncopied), an (n, n) plane after check_hermitian; any other shape raises SpectralError."""
    n = grid.n
    if coeffs.shape == (n, n // 2 + 1):
        return coeffs
    if coeffs.shape != (n, n):
        raise SpectralError(f"coefficients have shape {coeffs.shape}, neither the half-plane ({n}, "
                            f"{n // 2 + 1}) nor the full plane ({n}, {n}) of its grid")
    check_hermitian(coeffs)
    return half_plane(coeffs)


def full_plane(h: np.ndarray) -> np.ndarray:
    """Hermitian extension of (n, n/2 + 1) half-plane coefficients to the full plane.

    Columns 0..n/2 are copied as they are; column k2 > n/2 is the conjugate
    of the mirrored mode, c(k1, k2) = conj(c(-k1, n - k2)).
    """
    n = h.shape[0]
    full = np.empty((n, n), dtype=np.complex128)
    full[:, : n // 2 + 1] = h
    full[:, n // 2 + 1:] = np.conj(h[(-np.arange(n)) % n, n // 2 - 1:0:-1])
    return full


def forward_transform(field: RealField) -> SpectralField:
    """Real field -> coefficients with f(x) = sum_k c_k exp(i xi_k . x): the Hermitian
    extension of the rfft2 half-plane."""
    return SpectralField(field.grid, full_plane(forward_half_plane(field.values)), check=False)


def inverse_transform(spec: SpectralField) -> RealField:
    """Coefficients -> real field by irfft2; raises SpectralError unless the
    coefficients pass check_hermitian (also when built with check=False)."""
    return RealField(spec.grid, inverse_real(half_plane_of(spec.grid, spec.coefficients)))


def forward_half_plane(values: np.ndarray) -> np.ndarray:
    """The rfft2 half-plane (n, n/2 + 1) of real point values, normalized like forward_transform; unchecked."""
    return np.fft.rfft2(values, norm="forward")


def inverse_real(coefficients: np.ndarray) -> np.ndarray:
    """Real values of (n, n/2 + 1) half-plane coefficients, the exact inverse of forward_half_plane;
    unchecked. A Hermitian full plane gives the same field: irfft2 reads its first n/2 + 1 columns."""
    n = coefficients.shape[0]
    return np.fft.irfft2(coefficients, s=(n, n), norm="forward")


_ODD_KINDS = {"riesz", "partial"}
_KINDS = {"fractional_laplacian", "inverse_laplacian", "riesz", "partial"}


@dataclass(frozen=True)
class MultiplierSpec:
    """Radial or directional Fourier multiplier selector.

    kind                symbol m(xi)
    ------------------  -----------------------------
    fractional_laplacian(alpha)   |xi|^alpha, alpha in (0, 2]
    inverse_laplacian             |xi|^-2
    riesz(i)                      i * xi_i / |xi|
    partial(i)                    i * xi_i

    The k = 0 coefficient maps to 0 for every kind. Odd symbols (riesz,
    partial) also zero the self-conjugate Nyquist line of their axis so the
    output stays Hermitian.
    """

    kind: str
    alpha: float | None = None
    axis: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SpectralError(f"unknown multiplier kind {self.kind!r}")
        if self.kind == "fractional_laplacian":
            if self.alpha is None or not (0.0 < self.alpha <= 2.0):
                raise SpectralError(f"alpha must be in (0, 2], got {self.alpha}")
        if self.kind in _ODD_KINDS:
            if self.axis not in (1, 2):
                raise SpectralError(f"{self.kind} requires component index 1 or 2, got {self.axis}")

    @classmethod
    def fractional_laplacian(cls, alpha: float) -> "MultiplierSpec":
        return cls("fractional_laplacian", alpha=float(alpha))

    @classmethod
    def inverse_laplacian(cls) -> "MultiplierSpec":
        return cls("inverse_laplacian")

    @classmethod
    def riesz(cls, axis: int) -> "MultiplierSpec":
        return cls("riesz", axis=axis)

    @classmethod
    def partial(cls, axis: int) -> "MultiplierSpec":
        return cls("partial", axis=axis)


def multiplier_symbol(grid: Grid2D | HalfPlaneWavenumbers, m: MultiplierSpec) -> np.ndarray:
    """Symbol m(xi_k) on the wavenumbers of grid, with zero-mode and Nyquist policy applied:
    an (n, n) array for a Grid2D, the rfft2 half-plane for its ``half``."""
    r = grid.xi_mag
    if m.kind == "fractional_laplacian":
        sym = np.zeros_like(r)
        nz = r > 0
        sym[nz] = r[nz] ** m.alpha
        return sym
    if m.kind == "inverse_laplacian":
        sym = np.where(r > 0, r, 1.0) ** -2.0
        sym[0, 0] = 0.0
        return sym
    xi_i = np.broadcast_to(grid.xi1 if m.axis == 1 else grid.xi2, r.shape)
    k_i = grid.k1 if m.axis == 1 else grid.k2
    if m.kind == "partial":
        sym = 1j * xi_i
    else:  # riesz
        sym = 1j * np.where(r > 0, xi_i / np.where(r > 0, r, 1.0), 0.0)
    # The k_i = -n/2 line is its own reflection; an imaginary symbol there
    # would break Hermitian symmetry, so it maps to 0.
    sym = np.where(k_i == -grid.n // 2, 0.0, sym)
    sym[0, 0] = 0.0
    return sym


def apply_fourier_multiplier(spec_field: SpectralField, m: MultiplierSpec) -> SpectralField:
    """Multiply each coefficient by the symbol m(xi_k).

    inverse_laplacian rejects input whose k = 0 coefficient exceeds 1e-10
    in magnitude; project the mean out first.
    """
    if m.kind == "inverse_laplacian":
        c0 = abs(spec_field.coefficients[0, 0])
        if c0 > 1e-10:
            raise SpectralError(
                f"nonzero mean under inverse operator (|c_0| = {c0:.3e}); "
                "project the mean out before inverting"
            )
    sym = multiplier_symbol(spec_field.grid, m)
    return SpectralField(spec_field.grid, sym * spec_field.coefficients, check=False)


def dealias_mask(grid: Grid2D | HalfPlaneWavenumbers) -> np.ndarray:
    """Boolean mask of retained modes under the 2/3 rule, max(|k1|,|k2|) <= n/3, on the
    wavenumbers of grid: an (n, n) array for a Grid2D, the rfft2 half-plane for its ``half``."""
    cut = grid.n / 3.0
    return (np.abs(grid.k1) <= cut) & (np.abs(grid.k2) <= cut)


def dealias(spec_field: SpectralField) -> SpectralField:
    """Zero every coefficient with max(|k1|, |k2|) > n/3; keep the rest."""
    mask = dealias_mask(spec_field.grid)
    return SpectralField(spec_field.grid, np.where(mask, spec_field.coefficients, 0.0), check=False)
