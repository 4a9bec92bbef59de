"""Transforms, multipliers, dealiasing, and the BSVF container."""

import errno
import math
import os
import re
import struct

import numpy as np
import pytest

from fraclab import bsvf
from fraclab.bsvf import read_bsvf, write_bsvf
from fraclab.keller_segel import ks_step
from fraclab.selftest import spectral_direct_dft, spectral_multiplier_linearity, spectral_roundtrip
from fraclab.semigroup import RadialSpectralDensity, evolve_linear, oracle_block_norm
from fraclab.spectral import (
    Grid2D,
    MultiplierSpec,
    RealField,
    SpectralError,
    SpectralField,
    apply_fourier_multiplier,
    dealias,
    dealias_mask,
    forward_transform,
    half_plane,
    hermitian_defect,
    inverse_transform,
    multiplier_symbol,
)
from fraclab.sqg import sqg_step
from helpers import convolution_product_coefficients, random_band_field


class TestGrid:
    def test_valid(self):
        g = Grid2D(64, 3.5)
        assert g.h == 3.5 / 64
        assert g.xi_min == pytest.approx(2 * math.pi / 3.5)
        assert g.xi_nyquist == pytest.approx(math.pi * 64 / 3.5)

    @pytest.mark.parametrize("n", [7, 12, 4, 0, 48])
    def test_rejects_bad_n(self, n):
        with pytest.raises(SpectralError, match="power of two"):
            Grid2D(n, 1.0)

    @pytest.mark.parametrize("L", [0.0, -1.0, math.inf])
    def test_rejects_bad_L(self, L):
        with pytest.raises(SpectralError):
            Grid2D(64, L)


def reference_planes(n, L):
    """The full planes as a grid built them when it stored all five."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    scale = 2.0 * math.pi / L
    xi1, xi2 = scale * k1, scale * k2
    return {"k1": k1, "k2": k2, "xi1": xi1, "xi2": xi2, "xi_mag": np.hypot(xi1, xi2)}


def reference_symbol(planes, n, m):
    """multiplier_symbol on full planes, as written when every grid stored them."""
    r = planes["xi_mag"]
    if m.kind == "fractional_laplacian":
        sym = np.zeros_like(r)
        sym[r > 0] = r[r > 0] ** m.alpha
        return sym
    if m.kind == "inverse_laplacian":
        sym = np.where(r > 0, r, 1.0) ** -2.0
        sym[0, 0] = 0.0
        return sym
    xi_i, k_i = planes[f"xi{m.axis}"], planes[f"k{m.axis}"]
    sym = 1j * xi_i if m.kind == "partial" else 1j * np.where(r > 0, xi_i / np.where(r > 0, r, 1.0), 0.0)
    sym = np.where(k_i == -n // 2, 0.0, sym)
    sym[0, 0] = 0.0
    return sym


EVERY_SPEC = [MultiplierSpec.fractional_laplacian(a) for a in (0.5, 1.0, 2.0)] + [
    MultiplierSpec.inverse_laplacian(), MultiplierSpec.riesz(1), MultiplierSpec.riesz(2),
    MultiplierSpec.partial(1), MultiplierSpec.partial(2)]
# two lengths per size, one with integer wavenumbers; n = 8 and 16 put the Nyquist
# row and column, the zero mode and the 2/3 cut within a few modes of each other
GRIDS = [(n, L) for n in (8, 16, 256) for L in (2 * math.pi, 3.0)]


def bit_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


class TestHalfPlaneWavenumbers:
    @pytest.mark.parametrize("n, L", GRIDS)
    def test_lazy_full_planes_are_the_stored_planes_of_before(self, n, L):
        g, ref = Grid2D(n, L), reference_planes(n, L)
        assert not set(ref) & set(vars(g))  # a new grid holds no plane
        assert all(bit_equal(getattr(g, name), ref[name]) for name in ref)
        assert all(bit_equal(multiplier_symbol(g, m), reference_symbol(ref, n, m)) for m in EVERY_SPEC)
        assert bit_equal(dealias_mask(g), (np.abs(ref["k1"]) <= n / 3) & (np.abs(ref["k2"]) <= n / 3))

    @pytest.mark.parametrize("n, L", GRIDS)
    def test_half_plane_values_are_the_halves_of_the_full_planes(self, n, L):
        g = Grid2D(n, L)
        half = g.half
        assert half is g.half and half.xi_mag.shape == (n, n // 2 + 1)
        assert not any(getattr(half, name).flags.writeable for name in ("k1", "k2", "xi1", "xi2", "xi_mag"))
        assert not set(reference_planes(n, L)) & set(vars(g))  # reading the half-plane builds no full plane
        for name in ("k1", "k2", "xi1", "xi2", "xi_mag"):
            assert bit_equal(np.broadcast_to(getattr(half, name), half.xi_mag.shape), half_plane(getattr(g, name)))
        assert bit_equal(dealias_mask(half), half_plane(dealias_mask(g)))
        for m in EVERY_SPEC:
            assert bit_equal(multiplier_symbol(half, m), half_plane(multiplier_symbol(g, m))), m

    def test_the_grid_builds_its_full_planes_once(self, monkeypatch):
        builds = []
        build = Grid2D._full_planes
        monkeypatch.setattr(Grid2D, "_full_planes", lambda self: builds.append(self) or build(self))
        g = Grid2D(16, 1.0)
        g.half, g.k1, g.xi_mag, g.k2
        assert builds == [g]
        with pytest.raises(AttributeError, match="'Grid2D' object has no attribute 'xi3'"):
            g.xi3


class TestTransforms:
    def test_constant_field_single_coefficient(self):
        g = Grid2D(32, 2.0)
        sp = forward_transform(RealField(g, np.full((32, 32), 3.25)))
        assert sp.coefficients[0, 0] == pytest.approx(3.25, abs=1e-14)
        off = sp.coefficients.copy()
        off[0, 0] = 0.0
        assert np.abs(off).max() <= 1e-14

    def test_cosine_mode_coefficients(self):
        g = Grid2D(32, 5.0)
        x1, _ = g.coordinates()
        sp = forward_transform(RealField(g, np.cos(2 * math.pi * x1 / g.L)))
        assert sp.coefficients[1, 0] == pytest.approx(0.5, abs=1e-14)
        assert sp.coefficients[-1, 0] == pytest.approx(0.5, abs=1e-14)
        rest = sp.coefficients.copy()
        rest[1, 0] = rest[-1, 0] = 0.0
        assert np.abs(rest).max() <= 1e-13

    def test_roundtrip_100_seeded_fields(self, rng):
        # 100 fields with a nonzero mean on the 64^2 torus of side 2 pi
        assert spectral_roundtrip(rng, samples=100).value <= 1e-12

    def test_nonfinite_rejected_with_index(self):
        g = Grid2D(32, 1.0)
        values = np.zeros((32, 32))
        values[5, 7] = math.nan
        with pytest.raises(SpectralError, match=r"\(5, 7\)"):
            RealField(g, values)

    def test_forward_half_plane_matches_a_direct_dft(self, rng):
        assert spectral_direct_dft(rng, grid=Grid2D(32, 1.0), samples=1).value <= 1e-13

    @pytest.mark.parametrize("shape", [(32, 16), (16, 16), (32, 17)])
    def test_fields_refuse_a_shape_of_another_grid(self, shape):
        g = Grid2D(32, 1.0)
        with pytest.raises(SpectralError, match=rf"field shape {re.escape(str(shape))} does not match"):
            RealField(g, np.zeros(shape))
        with pytest.raises(SpectralError, match=rf"coefficient shape {re.escape(str(shape))} does not match"):
            SpectralField(g, np.zeros(shape, complex))

    def test_non_finite_coefficient_rejected_with_index(self):
        g = Grid2D(32, 1.0)
        c = np.zeros((32, 32), complex)
        c[3, 4] = complex(0.0, math.inf)  # the float64 view puts the imaginary part at column 2 * 4 + 1
        with pytest.raises(SpectralError, match=r"non-finite coefficient near index \(3, 9\)"):
            SpectralField(g, c, check=False)

    def test_inverse_refuses_an_unchecked_plane_the_checked_field_refuses(self, rng):
        g = Grid2D(32, 1.0)
        c = forward_transform(random_band_field(g, rng)).coefficients
        c[1, 2] += 1e-11 * np.abs(c).max()
        with pytest.raises(SpectralError, match="not Hermitian-symmetric"):
            SpectralField(g, c)
        with pytest.raises(SpectralError, match="not Hermitian-symmetric"):
            inverse_transform(SpectralField(g, c, check=False))


class TestMultipliers:
    @pytest.mark.parametrize("alpha", [0.0, -1.0, 2.5, math.nan])
    @pytest.mark.parametrize("entry", ["multiplier", "sqg_step", "ks_step", "evolve_linear", "oracle_block_norm"])
    def test_every_alpha_entry_refuses_alpha_outside_0_2_with_one_message(self, entry, alpha, profile):
        g = Grid2D(16, 1.0)
        calls = {
            "multiplier": lambda: MultiplierSpec.fractional_laplacian(alpha),
            "sqg_step": lambda: sqg_step(RealField(g, np.zeros((16, 16))), alpha, 0.05),
            "ks_step": lambda: ks_step(RealField(g, np.ones((16, 16))), alpha, 0.05),
            "evolve_linear": lambda: evolve_linear(SpectralField(g, np.zeros((16, 16))), alpha, 1.0),
            "oracle_block_norm": lambda: oracle_block_norm(RadialSpectralDensity.ball_indicator(1.0), -2, 1.0,
                                                           alpha, profile),
        }
        with pytest.raises(SpectralError, match=rf"^alpha must be in \(0, 2\], got {alpha}$"):
            calls[entry]()

    def test_fractional_laplacian_on_cosine(self):
        g = Grid2D(64, 3.0)
        x1, _ = g.coordinates()
        f = RealField(g, np.cos(2 * math.pi * x1 / g.L))
        for alpha in (0.5, 1.0, 1.7, 2.0):
            out = inverse_transform(
                apply_fourier_multiplier(forward_transform(f), MultiplierSpec.fractional_laplacian(alpha))
            )
            expected = (2 * math.pi / g.L) ** alpha * f.values
            assert np.abs(out.values - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_riesz_squares_sum_to_minus_identity(self, rng):
        g = Grid2D(64, 2 * math.pi)
        f = random_band_field(g, rng)
        sp = forward_transform(f)
        total = np.zeros_like(sp.coefficients)
        for i in (1, 2):
            ri = MultiplierSpec.riesz(i)
            total += apply_fourier_multiplier(apply_fourier_multiplier(sp, ri), ri).coefficients
        assert np.abs(total + sp.coefficients).max() <= 1e-12 * np.abs(sp.coefficients).max()

    def test_inverse_laplacian_diagonal_mode(self):
        # hand-computed symbol value: |xi|^-2 at xi = (2 pi / L)(1, 1)
        g = Grid2D(64, 7.0)
        x1, x2 = g.coordinates()
        f = RealField(g, np.sin(2 * math.pi * (x1 + x2) / g.L))
        out = inverse_transform(
            apply_fourier_multiplier(forward_transform(f), MultiplierSpec.inverse_laplacian())
        )
        expected = (g.L / (2 * math.pi)) ** 2 / 2.0 * f.values
        assert np.abs(out.values - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_inverse_rejects_nonzero_mean(self):
        g = Grid2D(32, 1.0)
        f = RealField(g, np.ones((32, 32)))
        with pytest.raises(SpectralError, match="nonzero mean under inverse operator"):
            apply_fourier_multiplier(forward_transform(f), MultiplierSpec.inverse_laplacian())

    def test_linearity(self, rng):
        g = Grid2D(32, 2.0)
        assert spectral_multiplier_linearity(rng, grid=g, multiplier=MultiplierSpec.riesz(2)).value <= 1e-12

    def test_outputs_stay_hermitian(self, rng):
        g = Grid2D(32, 2.0)
        sp = forward_transform(random_band_field(g, rng, zero_mean=True))
        for m in (
            MultiplierSpec.fractional_laplacian(1.3),
            MultiplierSpec.riesz(1),
            MultiplierSpec.riesz(2),
            MultiplierSpec.partial(1),
            MultiplierSpec.partial(2),
            MultiplierSpec.inverse_laplacian(),
        ):
            out = apply_fourier_multiplier(sp, m)
            scale = np.abs(out.coefficients).max() or 1.0
            assert hermitian_defect(out.coefficients) <= 1e-12 * scale
            inverse_transform(out)  # raises if the imaginary residue is large

    def test_alpha_range_enforced(self):
        with pytest.raises(SpectralError, match="alpha"):
            MultiplierSpec.fractional_laplacian(2.5)
        with pytest.raises(SpectralError, match="component index"):
            MultiplierSpec.riesz(3)


class TestDealias:
    def test_retained_band_unchanged(self, rng):
        g = Grid2D(64, 1.0)
        f = random_band_field(g, rng)
        sp = forward_transform(f)
        out = dealias(sp)
        assert np.array_equal(out.coefficients, np.where(dealias_mask(g), sp.coefficients, 0.0))
        assert np.abs(out.coefficients - sp.coefficients).max() <= 1e-15

    def test_high_mode_zeroed(self):
        g = Grid2D(32, 1.0)
        c = np.zeros((32, 32), dtype=complex)
        k = g.n // 2 - 1  # 15 > 32/3
        c[k, 0] = 1.0
        c[-k, 0] = 1.0
        out = dealias(SpectralField(g, c, check=False))
        assert np.abs(out.coefficients).max() == 0.0

    def test_product_matches_direct_convolution(self, rng):
        # dealiased pseudo-spectral product == exact coefficient convolution
        g = Grid2D(32, 2 * math.pi)
        band = g.n // 3
        for _ in range(5):
            f = random_band_field(g, rng)
            h = random_band_field(g, rng)
            cf = forward_transform(f).coefficients
            cg = forward_transform(h).coefficients
            prod = dealias(forward_transform(RealField(g, f.values * h.values)))
            ref = convolution_product_coefficients(cf, cg, band)
            scale = np.abs(ref).max()
            assert np.abs(prod.coefficients - ref).max() <= 1e-12 * scale


class TestBSVF:
    def test_roundtrip(self, tmp_path, rng):
        g = Grid2D(32, 5.5)
        f = random_band_field(g, rng, zero_mean=False)
        path = tmp_path / "field.bsvf"
        write_bsvf(path, f)
        back = read_bsvf(path)
        assert back.grid.n == 32 and back.grid.L == 5.5
        assert np.array_equal(back.values, f.values)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bsvf"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(SpectralError, match="magic"):
            read_bsvf(path)

    def test_rejects_bad_version(self, tmp_path, rng):
        g = Grid2D(8, 1.0)
        f = random_band_field(g, rng)
        path = tmp_path / "v2.bsvf"
        write_bsvf(path, f)
        raw = bytearray(path.read_bytes())
        raw[4] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(SpectralError, match="version"):
            read_bsvf(path)

    def test_failed_payload_write_keeps_the_old_file(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "final.bsvf"
        write_bsvf(path, random_band_field(Grid2D(8, 1.0), rng))
        old = path.read_bytes()
        fdopen = os.fdopen

        class FailingPayload:
            # passes the header through, then fails like a full disk
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if memoryview(data).nbytes > bsvf._HEADER.size:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(bsvf.os, "fdopen", lambda fd, mode: FailingPayload(fdopen(fd, mode)))
        with pytest.raises(OSError, match="No space left"):
            write_bsvf(path, random_band_field(Grid2D(16, 2.0), rng))
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["final.bsvf"]

    @pytest.mark.parametrize(
        "n, payload, match",
        [(2 ** 32 - 1, 0, "power of two >= 8, got n=4294967295"),
         (4, 0, "power of two >= 8, got n=4"),
         (12, 0, "power of two >= 8, got n=12"),
         (2 ** 30, 64, "truncated BSVF payload \\(64 bytes for n=1073741824\\)")],
    )
    def test_header_checked_before_reading_payload(self, tmp_path, n, payload, match):
        path = tmp_path / "huge.bsvf"
        path.write_bytes(struct.pack("<4sIId", b"BSVF", 1, n, 1.0) + bytes(payload))  # 24-byte header
        with pytest.raises(SpectralError, match=match):
            read_bsvf(path)
