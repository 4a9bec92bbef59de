"""Transforms, multipliers, dealiasing, and the BSVF container."""

import errno
import math
import os
import struct

import numpy as np
import pytest

from fraclab import bsvf
from fraclab.bsvf import read_bsvf, write_bsvf
from fraclab.selftest import spectral_hermitian, spectral_multiplier_linearity, spectral_roundtrip
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
    hermitian_defect,
    inverse_transform,
)
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

    def test_hermitian_output(self, rng):
        assert spectral_hermitian(rng, grid=Grid2D(32, 1.0), samples=1).value <= 1e-13


class TestMultipliers:
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
        for m in (MultiplierSpec.inverse_laplacian(), MultiplierSpec.inverse_lambda()):
            with pytest.raises(SpectralError, match="nonzero mean under inverse operator"):
                apply_fourier_multiplier(forward_transform(f), m)

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
            MultiplierSpec.inverse_lambda(),
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
