"""Run configuration, seeded spectra, and the shared time loop."""

import math

import numpy as np
import pytest

from fraclab.evolution import (
    MAX_SAMPLES,
    InitialSpectrum,
    NumericalAbort,
    RunConfig,
    full_plane,
    half_plane,
    integrate,
    log_spaced_times,
    make_initial_coefficients,
    sample_count,
)
from fraclab.keller_segel import KSState, _KSFlux, ks_rhs, ks_step
from fraclab.littlewood_paley import BesovParams
from fraclab.spectral import (
    Grid2D,
    RealField,
    SpectralError,
    SpectralField,
    forward_transform,
    hermitian_defect,
    hermitian_noise,
    inverse_transform,
)
from fraclab.sqg import SQGState, _SQGFlux, sqg_rhs, sqg_step
from helpers import convolution_product_coefficients, random_band_field


class TestLogSpacedTimes:
    def test_density(self):
        t = log_spaced_times(1.0, 1000.0, 40)
        assert len(t) >= 121
        assert t[0] == pytest.approx(1.0) and t[-1] == pytest.approx(1000.0)
        ratios = t[1:] / t[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_rejects_bad_range(self):
        with pytest.raises(SpectralError):
            log_spaced_times(0.0, 1.0, 10)
        with pytest.raises(SpectralError):
            log_spaced_times(2.0, 1.0, 10)

    @pytest.mark.parametrize("per_decade", [0, -5, 1, 2.5, 40.0, True])
    def test_per_decade_must_be_an_integer_of_at_least_2(self, per_decade):
        with pytest.raises(SpectralError, match="per_decade must be an integer >= 2"):
            log_spaced_times(1.0, 10.0, per_decade)

    def test_schedule_of_at_most_max_samples(self):
        assert MAX_SAMPLES == 10_000
        assert sample_count(1.0, 10.0, np.int64(40)) == 41
        assert len(log_spaced_times(1.0, 10.0, MAX_SAMPLES - 1)) == MAX_SAMPLES
        with pytest.raises(SpectralError, match="has 10001 times, more than 10000"):
            log_spaced_times(1.0, 10.0, MAX_SAMPLES)

    @pytest.mark.parametrize("t_lo, t_hi, per_decade", [(1e-320, 1e10, 40), (1.0, math.inf, 40),
                                                         (1.0, 10.0, 10 ** 400)],
                             ids=["ratio-overflows", "infinite-t_hi", "per_decade-past-float-range"])
    def test_schedule_past_the_float_range_is_refused(self, t_lo, t_hi, per_decade):
        with pytest.raises(SpectralError, match="has inf times, more than 10000"):
            log_spaced_times(t_lo, t_hi, per_decade)


class TestInitialSpectrum:
    def test_validation(self):
        with pytest.raises(SpectralError, match="epsilon"):
            InitialSpectrum(epsilon=-1.0, j_lo=0, j_hi=1)
        with pytest.raises(SpectralError, match="j_lo <= j_hi"):
            InitialSpectrum(epsilon=1.0, j_lo=2, j_hi=1)
        with pytest.raises(SpectralError, match="taper"):
            InitialSpectrum(epsilon=1.0, j_lo=0, j_hi=1, taper=0.0)

    def test_coefficients_deterministic_and_hermitian(self):
        g = Grid2D(64, 2 * math.pi * 8)
        spec = InitialSpectrum(epsilon=1.0, j_lo=-3, j_hi=0)
        a = make_initial_coefficients(g, spec, 42)
        b = make_initial_coefficients(g, spec, 42)
        c = make_initial_coefficients(g, spec, 43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert hermitian_defect(a) == 0.0
        assert a[0, 0] == 0.0

    def test_band_restriction(self):
        g = Grid2D(64, 2 * math.pi * 8)
        spec = InitialSpectrum(epsilon=1.0, j_lo=-2, j_hi=-1)
        c = make_initial_coefficients(g, spec, 7)
        nz = np.abs(c) > 0
        r = g.xi_mag[nz]
        assert r.min() > 0.75 * 2.0 ** -2
        assert r.max() < (8.0 / 3.0) * 2.0 ** -1


class TestRunConfig:
    def test_validation(self):
        good = dict(
            n=64, L=1.0, alpha=1.0, dt=0.1, T=1.0, seed=0,
            initial=InitialSpectrum(1.0, -1, 0),
            sample_times=[0.5, 1.0],
        )
        RunConfig(**good)
        with pytest.raises(SpectralError):
            RunConfig(**{**good, "dt": 0.0})
        with pytest.raises(SpectralError):
            RunConfig(**{**good, "alpha": 3.0})

    def test_schedule_of_at_most_max_samples(self):
        good = dict(n=64, L=1.0, alpha=1.0, dt=0.1, T=1.0, seed=0, initial=InitialSpectrum(1.0, -1, 0))
        RunConfig(**good, sample_times=np.linspace(0.1, 1.0, MAX_SAMPLES))
        with pytest.raises(SpectralError, match="10001 sample times, more than 10000"):
            RunConfig(**good, sample_times=np.linspace(0.1, 1.0, MAX_SAMPLES + 1))

    def test_hash_sensitive_to_fields(self):
        base = dict(
            n=64, L=1.0, alpha=1.0, dt=0.1, T=1.0, seed=0,
            initial=InitialSpectrum(1.0, -1, 0),
            sample_times=[0.5, 1.0],
            norms=[BesovParams(0.0, 2.0, 1.0)],
        )
        h1 = RunConfig(**base).config_hash()
        h2 = RunConfig(**{**base, "seed": 1}).config_hash()
        assert h1 != h2 and len(h1) == 16


class TestIntegrate:
    def test_pure_linear_matches_exponential(self):
        g = Grid2D(32, 2 * math.pi)
        c0 = np.zeros((32, 32), dtype=complex)
        c0[2, 0] = c0[-2, 0] = 0.5
        recorded = []

        def record(t, c):
            recorded.append((t, c.copy()))

        final, n_steps, vmax = integrate(
            g, c0, 1.0, 0.1, 1.0,
            rhs=lambda c: np.zeros_like(c),
            max_velocity=lambda c: 0.0,
            sample_times=[0.5, 1.0],
            record=record,
        )
        assert n_steps == 10
        assert vmax == 0.0
        expected = 0.5 * math.exp(-1.0 * 2.0)  # |xi| = 2, t = 1
        assert final[2, 0] == pytest.approx(expected, rel=1e-12)
        assert [t for t, _ in recorded] == [0.0, 0.5, 1.0]

    def test_record_receives_half_plane_copies(self):
        g = Grid2D(32, 2 * math.pi)
        c0 = np.zeros((32, 32), dtype=complex)
        c0[2, 3] = c0[-2, -3] = 0.5
        recorded = []
        final = integrate(g, c0, 1.0, 0.1, 0.5, rhs=lambda c: np.zeros_like(c),
                          max_velocity=lambda c: 0.0, sample_times=[0.2, 0.5],
                          record=lambda t, c: recorded.append(c))[0]
        assert [c.shape for c in recorded] == [(32, 17)] * 3
        assert len({id(c) for c in recorded}) == 3
        assert np.array_equal(recorded[0], half_plane(c0))
        assert np.array_equal(recorded[-1], half_plane(final))

    def test_nan_tendency_aborts_with_finite_last_good(self):
        # the tendency turns the state to NaN in step 3 (t = 0.3 -> 0.4); the
        # next velocity check stops the run before the sample at t = 1
        g = Grid2D(32, 2 * math.pi)
        c0 = np.zeros((32, 32), dtype=complex)
        c0[2, 0] = c0[-2, 0] = 0.5
        calls = []

        def rhs(c):
            calls.append(None)
            return np.full_like(c, np.nan) if len(calls) == 7 else np.zeros_like(c)

        recorded = []
        with pytest.raises(NumericalAbort) as info:
            integrate(
                g, c0, 1.0, 0.1, 2.0,
                rhs=rhs,
                max_velocity=lambda c: float(np.abs(c).max()),
                sample_times=[1.0, 2.0],
                record=lambda t, c: recorded.append(t),
            )
        assert info.value.t == pytest.approx(0.4)
        assert len(calls) == 8  # no step ran after the NaN state
        assert recorded == [0.0]
        good = info.value.last_good
        assert np.all(np.isfinite(good.view(np.float64)))
        assert good[2, 0] == pytest.approx(0.5 * math.exp(-2.0 * 0.3), rel=1e-12)


def _reference_step(g, c, alpha, dt, tendency):
    """Full-plane integrating-factor RK2 step, written out independently."""
    E = np.exp(-dt * g.xi_mag ** alpha)
    n0 = tendency(c)
    n1 = tendency(E * (c + dt * n0))
    return E * c + 0.5 * dt * (E * n0 + n1)


def _sqg_tendency(g, c):
    # -(u . grad theta) by direct convolution; u = (-R2 theta, R1 theta)
    safe = np.where(g.xi_mag > 0, g.xi_mag, 1.0)
    u1, u2 = -1j * g.xi2 / safe * c, 1j * g.xi1 / safe * c
    band = g.n // 3
    return -(convolution_product_coefficients(u1, 1j * g.xi1 * c, band)
             + convolution_product_coefficients(u2, 1j * g.xi2 * c, band))


def _ks_tendency(g, c):
    # -div(u grad psi) by direct convolution; -Laplace psi = u - mean(u)
    psi = np.where(g.xi_mag > 0, c / np.where(g.xi_mag > 0, g.xi_mag, 1.0) ** 2, 0.0)
    band = g.n // 3
    f1 = convolution_product_coefficients(c, 1j * g.xi1 * psi, band)
    f2 = convolution_product_coefficients(c, 1j * g.xi2 * psi, band)
    return -(1j * g.xi1 * f1 + 1j * g.xi2 * f2)


class TestHalfPlaneStepper:
    def test_extension_roundtrips_hermitian_array(self, rng):
        g = Grid2D(16, 1.0)
        z = hermitian_noise(g, rng)
        assert np.all(z[g.n // 2, :] != 0) and np.all(z[:, g.n // 2] != 0)
        back = full_plane(half_plane(z))
        assert np.array_equal(back.view(np.float64), z.view(np.float64))

    def test_sqg_step_matches_full_plane_convolution_step(self, rng):
        g = Grid2D(32, 2 * math.pi)
        w = random_band_field(g, rng).values
        theta = RealField(g, 0.5 * w / np.abs(w).max())
        out = sqg_step(SQGState(theta, 0.0, 1.0), 0.05)
        ref = _reference_step(g, forward_transform(theta).coefficients, 1.0, 0.05,
                              lambda c: _sqg_tendency(g, c))
        got = forward_transform(out.theta).coefficients
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_ks_step_matches_full_plane_convolution_step(self, rng):
        g = Grid2D(32, 2 * math.pi)
        w = random_band_field(g, rng).values
        u = RealField(g, 1.0 + 0.5 * w / np.abs(w).max())
        out = ks_step(KSState(u, 0.0, 1.0), 0.05)
        ref = _reference_step(g, forward_transform(u).coefficients, 1.0, 0.05,
                              lambda c: _ks_tendency(g, c))
        got = forward_transform(out.u).coefficients
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("rhs,tendency", [(sqg_rhs, _sqg_tendency), (ks_rhs, _ks_tendency)])
def test_tendency_dealiases_its_input(rhs, tendency, rng):
    # content on every mode: the tendency is that of the field's 2/3 band part,
    # which is what the convolution oracle reads
    g = Grid2D(16, 2 * math.pi)
    field = inverse_transform(SpectralField(g, hermitian_noise(g, rng), check=False))
    ref = tendency(g, forward_transform(field).coefficients)
    got = forward_transform(rhs(field)).coefficients
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("flux_class", [_SQGFlux, _KSFlux])
def test_handed_out_arrays_survive_later_steps(flux_class, rng):
    # recorded states, the final state, last_good and rhs returns are never
    # buffers that a later step of the same flux writes into
    g = Grid2D(32, 2 * math.pi)
    flux = flux_class.on(g)
    w = random_band_field(g, rng).values
    c0 = forward_transform(RealField(g, 1.0 + 0.5 * w / np.abs(w).max())).coefficients
    kept = [c0]

    def run(T, rhs=flux.rhs, record=lambda t, c: kept.append(c)):
        return integrate(g, c0, 1.0, 0.02, T, rhs, flux.max_velocity, [0.04, 0.1], record)[0]

    kept.append(run(0.1))
    assert len(kept) == 5  # c0, three records, the final state
    calls = []

    def nan_in_step_three(c):
        calls.append(None)
        return np.full_like(c, np.nan) if len(calls) == 5 else flux.rhs(c)

    with pytest.raises(NumericalAbort) as info:
        run(0.2, rhs=nan_in_step_three, record=lambda t, c: None)
    kept.append(info.value.last_good)
    kept += [flux.rhs(half_plane(c0)), flux.rhs(half_plane(kept[-2]))]
    snapshot = [a.copy() for a in kept]
    run(0.1, record=lambda t, c: None)
    for a, b in zip(kept, snapshot, strict=True):
        assert np.array_equal(a.view(np.float64), b.view(np.float64))


@pytest.mark.parametrize("flux_class", [_SQGFlux, _KSFlux])
class TestVelocityReuse:
    def _states(self, flux, rng):
        return [flux.to_spec(random_band_field(flux.grid, rng).values) for _ in range(2)]

    def test_rhs_bits_do_not_depend_on_prior_max_velocity(self, flux_class, rng, monkeypatch):
        flux = flux_class(Grid2D(32, 2 * math.pi))
        c, _ = self._states(flux, rng)
        plain = flux.rhs(c).copy()
        calls = []
        to_phys = flux.to_phys
        monkeypatch.setattr(flux, "to_phys", lambda *a, **k: calls.append(None) or to_phys(*a, **k))
        flux.rhs(c)
        cold = len(calls)
        flux.max_velocity(c)
        del calls[:]
        reused = flux.rhs(c)
        assert len(calls) == cold - 2  # the two velocity fields came from max_velocity
        assert np.array_equal(plain.view(np.float64), reused.view(np.float64))

    def test_fields_of_another_state_are_not_reused(self, flux_class, rng):
        flux = flux_class(Grid2D(32, 2 * math.pi))
        c0, c1 = self._states(flux, rng)
        want = flux_class(flux.grid).rhs(c1)
        flux.max_velocity(c0)
        got = flux.rhs(c1)
        assert np.array_equal(got.view(np.float64), want.view(np.float64))
        assert not np.array_equal(got, flux.rhs(c0))
