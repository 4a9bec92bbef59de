"""Surface quasi-geostrophic solver: velocity law, tendency, stepping, runs."""

import copy
import math

import numpy as np
import pytest

from fraclab import littlewood_paley
from fraclab.evolution import CFLError, InitialSpectrum, RunConfig, log_spaced_times
from fraclab.littlewood_paley import BesovParams, besov_norm, spectral_besov_norm
from fraclab.selftest import sqg_l2_monotone, sqg_mean_conservation, sqg_shell_steady_state
from fraclab.semigroup import evolve_linear
from fraclab.spectral import (
    Grid2D,
    MultiplierSpec,
    RealField,
    SpectralError,
    SpectralField,
    dealias_mask,
    forward_transform,
    hermitian_noise,
    inverse_transform,
    multiplier_symbol,
)
from fraclab.sqg import SQGState, critical_norm_params, run_sqg, sqg_rhs, sqg_step, sqg_velocity
from helpers import convolution_product_coefficients, random_band_field


class TestVelocity:
    def test_zero_state(self):
        g = Grid2D(32, 1.0)
        u1, u2 = sqg_velocity(RealField(g, np.zeros((32, 32))))
        assert np.abs(u1.values).max() == 0.0
        assert np.abs(u2.values).max() == 0.0

    def test_single_mode_symbol(self):
        # theta = cos(2 pi x1 / L): u1 = 0 and |u2_hat| = |theta_hat|
        g = Grid2D(64, 3.0)
        x1, _ = g.coordinates()
        theta = RealField(g, np.cos(2 * math.pi * x1 / g.L))
        u1, u2 = sqg_velocity(theta)
        assert np.abs(u1.values).max() <= 1e-13
        c_theta = forward_transform(theta).coefficients
        c_u2 = forward_transform(u2).coefficients
        assert abs(abs(c_u2[1, 0]) - abs(c_theta[1, 0])) <= 1e-13

    def test_band_part_and_fresh_arrays(self, rng):
        # the velocity of the 2/3 band part: the full-plane multiplier with the mask folded in
        g = Grid2D(32, 3.0)
        theta = inverse_transform(SpectralField(g, hermitian_noise(g, rng), check=False))
        ct = dealias_mask(g) * forward_transform(theta).coefficients * g.n ** 2
        refs = [-np.fft.ifft2(multiplier_symbol(g, MultiplierSpec.riesz(2)) * ct).real,
                np.fft.ifft2(multiplier_symbol(g, MultiplierSpec.riesz(1)) * ct).real]
        velocity = sqg_velocity(theta)
        for u, ref in zip(velocity, refs):
            assert np.abs(u.values - ref).max() <= 1e-13 * np.abs(ref).max()
        sqg_velocity(RealField(g, 2.0 * theta.values))
        for u, ref in zip(velocity, refs):  # the second call wrote into new arrays
            assert np.abs(u.values - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_out_of_band_data_gives_zero_velocity(self, rng):
        g = Grid2D(32, 3.0)
        c = np.where(dealias_mask(g), 0.0, hermitian_noise(g, rng))
        theta = inverse_transform(SpectralField(g, c, check=False))
        for u in sqg_velocity(theta):  # the transform's rounding only
            assert np.abs(u.values).max() <= 1e-15 * np.abs(theta.values).max()


class TestTendency:
    def test_zero_state(self):
        g = Grid2D(32, 1.0)
        out = sqg_rhs(RealField(g, np.zeros((32, 32))))
        assert np.abs(out.values).max() == 0.0

    def test_single_mode_self_advection_vanishes(self):
        g = Grid2D(64, 2 * math.pi)
        x1, _ = g.coordinates()
        theta = RealField(g, np.cos(3 * x1))
        out = sqg_rhs(theta)
        assert np.abs(out.values).max() <= 1e-13

    def test_two_mode_matches_convolution_oracle(self, rng):
        # brute-force spectral convolution of u . grad(theta) on a 32^2 grid
        g = Grid2D(32, 2 * math.pi)
        x1, x2 = g.coordinates()
        theta = RealField(g, np.cos(2 * x1) + 0.7 * np.sin(3 * x1 + 5 * x2))
        ct = forward_transform(theta).coefficients
        r = g.xi_mag
        safe = np.where(r > 0, r, 1.0)
        cu1 = -1j * g.xi2 / safe * ct
        cu2 = 1j * g.xi1 / safe * ct
        cu1[0, 0] = cu2[0, 0] = 0.0
        cg1 = 1j * g.xi1 * ct
        cg2 = 1j * g.xi2 * ct
        band = g.n // 3
        ref = -(
            convolution_product_coefficients(cu1, cg1, band)
            + convolution_product_coefficients(cu2, cg2, band)
        )
        out = forward_transform(sqg_rhs(theta)).coefficients
        scale = np.abs(ct).max()
        assert np.abs(out - ref).max() <= 1e-10 * scale

    def test_zero_mean(self, rng):
        g = Grid2D(64, 2 * math.pi)
        theta = random_band_field(g, rng)
        out = sqg_rhs(theta)
        assert abs(out.mean()) <= 1e-12 * np.abs(out.values).max()


class TestStep:
    def test_single_mode_equals_linear_flow(self):
        # a spectrum on one shell is a steady state of the advection: the modes of |k|^2 = 4 at
        # alpha = 1.3, and the selftest's 16 band-edge modes of |k|^2 = 442, both at amplitude 5
        assert sqg_shell_steady_state(k2=4, alpha=1.3).value <= 1e-12
        assert sqg_shell_steady_state().value <= 1e-12
        g = Grid2D(32, 2 * math.pi)
        assert sqg_step(SQGState(RealField(g, np.zeros((32, 32))), 0.0, 1.3), 0.05).t == pytest.approx(0.05)

    def test_energy_monotone_and_mean_conserved(self, rng):
        # one step from each of the same 20 fields at amplitude 0.2
        inputs = dict(samples=20, amplitude=0.2, steps=1)
        assert sqg_mean_conservation(copy.deepcopy(rng), **inputs).value <= 1e-12
        assert sqg_l2_monotone(rng, **inputs).value <= 1e-10

    def test_cfl_violation_names_quantities(self, rng):
        g = Grid2D(64, 2 * math.pi)
        f = random_band_field(g, rng)
        state = SQGState(RealField(g, 5.0 * f.values / np.abs(f.values).max()), 0.0, 1.0)
        with pytest.raises(CFLError, match="max\\|u\\|") as exc:
            sqg_step(state, 5.0)
        assert exc.value.dt == 5.0
        assert exc.value.max_velocity > 0


def _small_run_config(seed=7, epsilon=1e-2, **overrides):
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
    def test_zero_amplitude_gives_zero_norms(self, profile):
        res = run_sqg(_small_run_config(epsilon=0.0), profile)
        for series in res.series.values():
            assert np.abs(series.values).max() == 0.0

    def test_tiny_amplitude_matches_linear_flow(self, profile):
        # quadratic nonlinearity: eps = 1e-8 tracks the linear flow to 0.1%
        cfg = _small_run_config(epsilon=1e-8)
        res = run_sqg(cfg, profile)
        grid = cfg.grid()
        from fraclab.evolution import make_initial_coefficients, spectral_besov_norm

        coeffs = make_initial_coefficients(grid, cfg.initial, cfg.seed)
        crit = spectral_besov_norm(grid, coeffs, critical_norm_params(cfg.alpha), profile)
        coeffs *= cfg.initial.epsilon / crit
        from fraclab.spectral import SpectralField

        base = SpectralField(grid, coeffs, check=False)
        dec = res.series["B0_2_1"]
        for t, v in zip(dec.times, dec.values):
            lin = evolve_linear(base, cfg.alpha, float(t)).coefficients
            ref = spectral_besov_norm(grid, lin, BesovParams(0.0, 2.0, 1.0), profile)
            assert abs(v - ref) <= 1e-3 * ref

    def test_smallness_budget_enforced(self, profile):
        with pytest.raises(SpectralError, match="smallness budget"):
            run_sqg(_small_run_config(epsilon=0.5), profile)

    def test_initial_critical_norm_reported(self, profile):
        res = run_sqg(_small_run_config(), profile)
        assert res.extras["initial_critical_norm"] == pytest.approx(1e-2, rel=1e-9)
        assert res.extras["critical_norm_label"] == critical_norm_params(1.0).label()

    def test_amplitude_scaling_confirms_quadratic_nonlinearity(self, profile):
        # (solution / eps) differences between eps and 2 eps scale like eps
        def normalized_dev(eps):
            cfg = _small_run_config(epsilon=eps)
            res = run_sqg(cfg, profile)
            return res.series["B0_2_1"].values / eps

        d1 = np.abs(normalized_dev(2e-4) - normalized_dev(1e-4)).max()
        d2 = np.abs(normalized_dev(4e-4) - normalized_dev(2e-4)).max()
        assert 1.5 <= d2 / d1 <= 2.5

    def test_run_builds_only_the_half_plane_layout(self, profile):
        # the critical norm and every record are measured on one p = 2 layout,
        # and no norm of the run reads a per-block mask
        littlewood_paley._level_layout.cache_clear()
        before = littlewood_paley._block_mask.cache_info()
        run_sqg(_small_run_config(), profile)
        assert littlewood_paley._level_layout.cache_info().misses == 1
        assert littlewood_paley._block_mask.cache_info() == before

    def test_one_layout_serves_every_p2_norm_of_a_grid(self, profile):
        # the run's half-plane records, the final field's besov_norm (rfft2) and
        # a full-plane spectral norm all read the same layout
        littlewood_paley._level_layout.cache_clear()
        cfg = _small_run_config()
        res = run_sqg(cfg, profile)
        grid = res.final_values.grid
        besov_norm(res.final_values, BesovParams(0.0, 2.0, 1.0), profile)
        spectral_besov_norm(grid, hermitian_noise(grid, np.random.default_rng(3)), BesovParams(-1, 2, math.inf),
                            profile)
        assert littlewood_paley._level_layout.cache_info().currsize == 1

    def test_determinism(self, profile):
        a = run_sqg(_small_run_config(), profile)
        b = run_sqg(_small_run_config(), profile)
        for label in a.series:
            assert np.array_equal(a.series[label].values, b.series[label].values)
        assert a.extras["config_hash_run"] == b.extras["config_hash_run"]
