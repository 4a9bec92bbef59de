"""Keller-Segel solver: potential inversion, drift tendency, mass, runs."""

import math

import numpy as np
import pytest

from fraclab import keller_segel
from fraclab.evolution import InitialSpectrum, RunConfig, log_spaced_times, run_flow
from fraclab.keller_segel import (
    ks_critical_norm_params,
    ks_potential,
    ks_rhs,
    ks_step,
    run_ks,
)
from fraclab.littlewood_paley import BesovParams
from fraclab.semigroup import evolve_linear
from fraclab.spectral import (
    Grid2D,
    MultiplierSpec,
    RealField,
    SpectralField,
    dealias_mask,
    forward_half_plane,
    forward_transform,
    full_plane,
    half_plane,
    hermitian_noise,
    inverse_real,
    inverse_transform,
    multiplier_symbol,
)
from helpers import convolution_product_coefficients, random_band_field


class TestPotential:
    def test_single_mode_inversion(self):
        g = Grid2D(64, 5.0)
        x1, _ = g.coordinates()
        u = RealField(g, np.sin(2 * math.pi * x1 / g.L))
        psi = ks_potential(u)
        expected = (g.L / (2 * math.pi)) ** 2 * u.values
        assert np.abs(psi.values - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_constant_density_gives_zero(self):
        g = Grid2D(32, 1.0)
        psi = ks_potential(RealField(g, np.full((32, 32), 4.0)))
        assert np.abs(psi.values).max() <= 1e-14

    def test_zero_mean_output(self, rng):
        g = Grid2D(32, 1.0)
        u = random_band_field(g, rng, zero_mean=False)
        assert abs(ks_potential(u).mean()) <= 1e-14

    def test_band_part_and_fresh_arrays(self, rng):
        # the potential of the 2/3 band part: the full-plane multiplier with the mask folded in
        g = Grid2D(32, 3.0)
        u = inverse_transform(SpectralField(g, hermitian_noise(g, rng), check=False))
        cu = dealias_mask(g) * forward_transform(u).coefficients * g.n ** 2
        ref = np.fft.ifft2(multiplier_symbol(g, MultiplierSpec.inverse_laplacian()) * cu).real
        psi = ks_potential(u)
        assert np.abs(psi.values - ref).max() <= 1e-13 * np.abs(ref).max()
        ks_potential(RealField(g, 2.0 * u.values))
        assert np.abs(psi.values - ref).max() <= 1e-13 * np.abs(ref).max()  # not overwritten

    def test_out_of_band_data_gives_zero_potential(self, rng):
        g = Grid2D(32, 3.0)
        c = np.where(dealias_mask(g), 0.0, hermitian_noise(g, rng))
        u = inverse_transform(SpectralField(g, c, check=False))
        assert np.abs(ks_potential(u).values).max() <= 1e-15 * np.abs(u.values).max()  # the transform's rounding


class TestTendency:
    def test_constant_density(self):
        g = Grid2D(32, 1.0)
        out = ks_rhs(RealField(g, np.full((32, 32), 2.0)))
        assert np.abs(out.values).max() <= 1e-14

    def test_zero_density(self):
        g = Grid2D(32, 1.0)
        out = ks_rhs(RealField(g, np.zeros((32, 32))))
        assert np.abs(out.values).max() == 0.0

    def test_two_mode_matches_convolution_oracle(self):
        g = Grid2D(32, 2 * math.pi)
        x1, x2 = g.coordinates()
        u = RealField(g, np.cos(2 * x1) + 0.5 * np.sin(x1 + 4 * x2))
        cu = forward_transform(u).coefficients
        r2 = g.xi_mag ** 2
        safe = np.where(r2 > 0, r2, 1.0)
        cpsi = cu / safe
        cpsi[0, 0] = 0.0
        band = g.n // 3
        w1 = convolution_product_coefficients(cu, 1j * g.xi1 * cpsi, band)
        w2 = convolution_product_coefficients(cu, 1j * g.xi2 * cpsi, band)
        ref = -(1j * g.xi1 * w1 + 1j * g.xi2 * w2)
        # divergence after dealias: zero the modes outside the band
        keep = (np.abs(g.k1) <= band) & (np.abs(g.k2) <= band)
        ref = np.where(keep, ref, 0.0)
        out = forward_transform(ks_rhs(u)).coefficients
        assert np.abs(out - ref).max() <= 1e-10 * np.abs(cu).max()

    def test_mean_free(self, rng):
        # the drift tendency's zero mode vanishes structurally (divergence
        # applied spectrally); the physical-space roundtrip leaves only
        # rounding noise far below the 1e-12 contract
        g = Grid2D(64, 2 * math.pi)
        u = random_band_field(g, rng, zero_mean=False)
        out = ks_rhs(u)
        assert abs(out.mean()) <= 1e-12 * np.abs(out.values).max()

    def test_zero_mode_of_the_half_plane_tendency_is_exactly_zero(self, rng):
        # no rounding reaches the zero mode, so the stepper keeps the mass to the bit
        g = Grid2D(64, 5.0)
        u = random_band_field(g, rng, zero_mean=False)
        c = forward_half_plane(u.values)
        assert c[0, 0].real != 0.0
        assert keller_segel._KSFlux.on(g).rhs(c)[0, 0] == 0.0


class TestVelocity:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_max_velocity_is_the_largest_grad_psi_on_the_full_plane(self, n, rng):
        g = Grid2D(n, 3.0)
        c = forward_transform(random_band_field(g, rng, zero_mean=False)).coefficients
        c_psi = multiplier_symbol(g, MultiplierSpec.inverse_laplacian()) * dealias_mask(g) * c
        a, b = (inverse_real(multiplier_symbol(g, MultiplierSpec.partial(i)) * c_psi) for i in (1, 2))
        want = math.sqrt((a * a + b * b).max())
        got = keller_segel._KSFlux.on(g).max_velocity(half_plane(c))
        assert abs(got - want) <= 1e-14 * want

    def test_rhs_and_potential_bits_do_not_depend_on_a_prior_max_velocity(self, rng):
        g = Grid2D(64, 3.0)
        u, other = (random_band_field(g, rng, zero_mean=False) for _ in range(2))
        flux, c_other = keller_segel._KSFlux.on(g), forward_half_plane(other.values)
        for of in (ks_rhs, ks_potential):
            before = of(u).values.copy()
            flux.max_velocity(c_other)
            assert of(u).values.tobytes() == before.tobytes()


class TestStep:
    def test_subcritical_alpha_allowed(self, rng):
        g = Grid2D(32, 2 * math.pi)
        f = random_band_field(g, rng)
        out = ks_step(RealField(g, 0.01 * f.values), 1.5, 0.05)
        assert out.grid == g and np.all(np.isfinite(out.values))


def _small_run_config(seed=13, epsilon=1e-2, **overrides):
    base = dict(
        n=64,
        L=2 * math.pi * 8,
        alpha=1.0,
        dt=0.05,
        T=2.0,
        seed=seed,
        initial=InitialSpectrum(epsilon=epsilon, j_lo=-4, j_hi=0, s_data=1.0, taper=1.0),
        sample_times=log_spaced_times(0.1, 2.0, 25),
        norms=[BesovParams(0.0, 2.0, 1.0), BesovParams(-1.0, 2.0, math.inf)],
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRun:
    def test_zero_amplitude(self, profile):
        res = run_ks(_small_run_config(epsilon=0.0), profile)
        for series in res.series.values():
            assert np.abs(series.values).max() == 0.0

    def test_tiny_amplitude_matches_linear_flow(self, profile):
        cfg = _small_run_config(epsilon=1e-8)
        res = run_ks(cfg, profile)
        grid = cfg.grid()
        from fraclab.evolution import make_initial_coefficients, spectral_besov_norm
        from fraclab.spectral import SpectralField

        coeffs = make_initial_coefficients(grid, cfg.initial, cfg.seed)
        crit = spectral_besov_norm(grid, coeffs, ks_critical_norm_params(), profile)
        coeffs *= cfg.initial.epsilon / crit
        base = SpectralField(grid, full_plane(coeffs), check=False)
        dec = res.series["B0_2_1"]
        for t, v in zip(dec.times, dec.values):
            lin = evolve_linear(base, cfg.alpha, float(t)).coefficients
            ref = spectral_besov_norm(grid, lin, BesovParams(0.0, 2.0, 1.0), profile)
            assert abs(v - ref) <= 1e-3 * ref

    def test_mass_and_min_tracked(self, profile):
        res = run_ks(_small_run_config(), profile)
        assert res.extras["mass_relative_drift"] == 0.0  # E = 1 and the tendency is 0 at k = 0
        assert "min_u" in res.extras

    def test_min_and_mass_match_the_recorded_states(self, profile, monkeypatch):
        # min_u and the mass drift recomputed from copies of the recorded
        # half-plane states, through the full plane and an inverse FFT
        states = []

        def spying_run_flow(equation, flux, critical, config, profile=None, on_sample=None):
            def both(t, c):
                states.append(c.copy())
                on_sample(t, c)

            return run_flow(equation, flux, critical, config, profile, both)

        monkeypatch.setattr(keller_segel, "run_flow", spying_run_flow)
        cfg = _small_run_config()
        res = run_ks(cfg, profile)
        grid = cfg.grid()
        assert len(states) == len(res.series["B0_2_1"]) + 1  # plus the t = 0 record
        assert all(c.shape == (grid.n, grid.n // 2 + 1) for c in states)
        fields = [inverse_transform(SpectralField(grid, full_plane(c))).values for c in states]
        scale = max(np.abs(u).max() for u in fields)
        assert abs(min(u.min() for u in fields) - res.extras["min_u"]) <= 1e-13 * scale
        masses = [grid.L ** 2 * c[0, 0].real for c in states]
        drift = max(abs(m - masses[0]) for m in masses) / (abs(masses[0]) or 1.0)
        assert res.extras["mass_relative_drift"] == drift

    def test_preserved_norm_stays_within_budget(self, profile):
        res = run_ks(_small_run_config(), profile)
        init = res.extras["initial_norms"]["B-1_2_inf"]
        assert np.all(res.series["B-1_2_inf"].values <= 2.0 * init)

    def test_determinism(self, profile):
        a = run_ks(_small_run_config(), profile)
        b = run_ks(_small_run_config(), profile)
        for label in a.series:
            assert np.array_equal(a.series[label].values, b.series[label].values)
