"""Shared test utilities: seeded random fields and brute-force oracles."""

import math

import numpy as np

from fraclab.selftest import random_band_field, shell_field  # noqa: F401  (re-exported for the tests)
from fraclab.spectral import Grid2D


def convolution_product_coefficients(cf: np.ndarray, cg: np.ndarray, band: int) -> np.ndarray:
    """Exact continuum product coefficients of two band-limited spectra.

    Direct O(band^4) convolution without wraparound, restricted to the
    retained band |k|_inf <= band. Independent of the FFT pipeline.
    """
    n = cf.shape[0]

    def k_of(i):
        return i if i <= n // 2 - 1 else i - n

    def i_of(k):
        return k % n

    modes = [(k1, k2) for k1 in range(-band, band + 1) for k2 in range(-band, band + 1)]
    out = np.zeros_like(cf)
    for a1, a2 in modes:
        fa = cf[i_of(a1), i_of(a2)]
        if fa == 0:
            continue
        for b1, b2 in modes:
            gb = cg[i_of(b1), i_of(b2)]
            if gb == 0:
                continue
            h1, h2 = a1 + b1, a2 + b2
            if abs(h1) <= band and abs(h2) <= band:
                out[i_of(h1), i_of(h2)] += fa * gb
    return out


def padded_product_coefficients(cf: np.ndarray, cg: np.ndarray, band: int) -> np.ndarray:
    """The same product as ``convolution_product_coefficients``, by full-plane FFTs on a 2n grid.

    The modes |k|_inf <= band < n/2 of each factor go to a (2n, 2n) plane, so
    their product (modes up to 2 band < n) does not alias there. Fast enough
    for a reference run of many steps; it shares no code with the stepper's
    band-pruned half-plane transforms.
    """
    n = cf.shape[0]
    k = np.r_[0 : band + 1, n - band : n]  # the band's indices on the n grid
    k2 = np.r_[0 : band + 1, 2 * n - band : 2 * n]  # the same wavenumbers on the 2n grid

    def physical(c):
        padded = np.zeros((2 * n, 2 * n), dtype=complex)
        padded[np.ix_(k2, k2)] = c[np.ix_(k, k)]
        return np.fft.ifft2(padded, norm="forward")

    product = np.fft.fft2(physical(cf) * physical(cg), norm="forward")
    out = np.zeros_like(cf)
    out[np.ix_(k, k)] = product[np.ix_(k2, k2)]
    return out


def reference_mask(grid: Grid2D, j: int, kind: str, profile) -> np.ndarray:
    """phi(2^-j |xi|) (kind 'block') or chi(2^-j |xi|) ('low_pass') on the whole (n, n) plane.

    Taken from the profile alone, not from the block-mask builder under test:
    phi(0) = 0 puts the mean in no block, and the low-pass keeps it.
    """
    r = grid.xi_mag * 2.0 ** -float(j)
    if kind == "block":
        return profile.phi_array(r)
    mask = profile.chi_array(r)
    mask[0, 0] = 1.0
    return mask


def reference_block_norms(grid: Grid2D, coeffs: np.ndarray, p: float, profile, levels) -> np.ndarray:
    """Per-level block L^p norms by one full mask product per level.

    p = 2 sums |reference_mask(j) * c|^2 (Parseval); other p take the real
    part of each block's inverse FFT. Test-only reference for the level table.
    """
    out = []
    for j in levels:
        masked = reference_mask(grid, int(j), "block", profile) * coeffs
        if p == 2.0:
            out.append(grid.L * math.sqrt(float(np.sum(np.abs(masked) ** 2))))
            continue
        w = np.abs(np.fft.ifft2(masked * (grid.n * grid.n)).real)
        out.append(float(w.max()) if math.isinf(p) else float((grid.h ** 2 * np.sum(w ** p)) ** (1.0 / p)))
    return np.asarray(out)


def random_complex_coefficients(grid: Grid2D, rng) -> np.ndarray:
    """Non-Hermitian complex coefficients on every mode, with a nonzero mean."""
    c = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
    c[0, 0] = 3.0 - 2.0j
    return c
