"""Run configuration, seeded spectra, and the shared time loop."""

import math

import numpy as np
import pytest

from fraclab import evolution
from fraclab.evolution import (
    MAX_SAMPLES,
    InitialSpectrum,
    NumericalAbort,
    RunConfig,
    integrate,
    log_spaced_times,
    make_initial_coefficients,
    sample_count,
)
from fraclab.keller_segel import _KSFlux, ks_potential, ks_rhs, ks_step
from fraclab.littlewood_paley import BesovParams
from fraclab.spectral import (
    Grid2D,
    MultiplierSpec,
    RealField,
    SpectralError,
    SpectralField,
    dealias_mask,
    forward_half_plane,
    forward_transform,
    full_plane,
    half_plane,
    hermitian_defect,
    hermitian_noise,
    inverse_real,
    inverse_transform,
    multiplier_symbol,
)
from fraclab.sqg import _SQGFlux, sqg_rhs, sqg_step, sqg_velocity
from helpers import convolution_product_coefficients, padded_product_coefficients, random_band_field


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

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan])
    def test_refuses_a_non_finite_amplitude(self, epsilon):
        # inf would pass a test of the form epsilon >= 0 and scale the seeded data to inf and NaN
        with pytest.raises(SpectralError, match="epsilon must be finite and >= 0"):
            InitialSpectrum(epsilon=epsilon, j_lo=0, j_hi=1)

    @pytest.mark.parametrize("s_data", [math.nan, math.inf, -math.inf])
    def test_refuses_a_non_finite_data_regularity(self, s_data):
        with pytest.raises(SpectralError, match="s_data must be finite"):
            InitialSpectrum(epsilon=1.0, j_lo=0, j_hi=1, s_data=s_data)

    def test_coefficients_deterministic_and_hermitian(self):
        g = Grid2D(64, 2 * math.pi * 8)
        spec = InitialSpectrum(epsilon=1.0, j_lo=-3, j_hi=0)
        a = make_initial_coefficients(g, spec, 42)
        b = make_initial_coefficients(g, spec, 42)
        c = make_initial_coefficients(g, spec, 43)
        assert a.shape == (64, 33)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert hermitian_defect(full_plane(a)) == 0.0
        assert a[0, 0] == 0.0

    def test_band_restriction(self):
        g = Grid2D(64, 2 * math.pi * 8)
        spec = InitialSpectrum(epsilon=1.0, j_lo=-2, j_hi=-1)
        c = make_initial_coefficients(g, spec, 7)
        nz = np.abs(c) > 0
        r = half_plane(g.xi_mag)[nz]
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

    @pytest.mark.parametrize("bad", [
        {"dt": math.inf},
        {"T": math.inf},
        {"sample_times": [0.5, 1.0, 2.0, 5.0]},  # past T
        {"sample_times": [0.5, 1.0 + 0.06]},  # past T + dt/2
        {"sample_times": [math.nan, 0.5]},
        {"sample_times": [0.5, math.inf]},
    ])
    def test_refuses_what_integrate_would_drop_or_choke_on(self, bad):
        good = dict(n=64, L=1.0, alpha=1.0, dt=0.1, T=1.0, seed=0, initial=InitialSpectrum(1.0, -1, 0),
                    sample_times=[0.5, 1.0])
        with pytest.raises(SpectralError, match="finite|sample times must lie in"):
            RunConfig(**{**good, **bad})

    @pytest.mark.parametrize("budget", [math.nan, math.inf, 0.0, -1e-2])
    def test_refuses_a_smallness_budget_that_is_not_finite_and_positive(self, budget):
        # a NaN budget would switch the smallness refusal off: crit > NaN is never true
        good = dict(n=64, L=1.0, alpha=1.0, dt=0.1, T=1.0, seed=0, initial=InitialSpectrum(1.0, -1, 0),
                    sample_times=[0.5, 1.0])
        with pytest.raises(SpectralError, match="smallness_budget must be positive and finite"):
            RunConfig(**good, smallness_budget=budget)

    def test_samples_up_to_t_plus_half_a_step_are_recorded(self):
        # T = 0.93 is not a step multiple: integrate stops at t = 1.0 and keeps
        # the samples up to T + dt/2 = 0.98, each at the first step that reaches it
        cfg = RunConfig(n=16, L=2 * math.pi, alpha=1.0, dt=0.1, T=0.93, seed=0,
                        initial=InitialSpectrum(1.0, -1, 0), sample_times=[0.98, 0.25])
        with pytest.raises(SpectralError, match="sample times must lie in"):
            RunConfig(**{**vars(cfg), "sample_times": [0.99]})
        recorded = []
        integrate(cfg.grid(), np.zeros((16, 16), complex), cfg.alpha, cfg.dt, cfg.T, rhs=np.zeros_like,
                  max_velocity=lambda c: 0.0, sample_times=cfg.sample_times, record=lambda t, c: recorded.append(t))
        assert recorded == pytest.approx([0.0, 0.3, 1.0])

    def test_samples_past_the_final_step_are_refused(self):
        # T = 1 is a step multiple, so the run ends at t = 1.0 < 1.04 <= T + dt/2
        with pytest.raises(SpectralError, match="sample times must lie in"):
            RunConfig(n=16, L=2 * math.pi, alpha=1.0, dt=0.1, T=1.0, seed=0,
                      initial=InitialSpectrum(1.0, -1, 0), sample_times=[0.5, 1.04])

    def test_last_log_spaced_sample_is_recorded_at_a_large_T(self):
        # exp(log(T)) ends the schedule 1e-11 past T: within the relative slack
        T, dt = 10000.0, 50.0
        samples = log_spaced_times(dt, T, 10)
        assert samples[-1] > T
        cfg = RunConfig(n=16, L=2 * math.pi, alpha=1.0, dt=dt, T=T, seed=0,
                        initial=InitialSpectrum(1.0, -1, 0), sample_times=samples)
        recorded = []
        integrate(cfg.grid(), np.zeros((16, 16), complex), cfg.alpha, cfg.dt, cfg.T, rhs=np.zeros_like,
                  max_velocity=lambda c: 0.0, sample_times=cfg.sample_times, record=lambda t, c: recorded.append(t))
        assert recorded[-1] == T

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
        assert final.shape == (32, 17) and np.array_equal(recorded[-1], final)

    def test_nan_tendency_aborts_with_finite_last_good(self):
        # the tendency turns the state to NaN in the fourth step (t = 0.3 -> 0.4);
        # the velocity check of the fifth stops the run before the sample at t = 1.
        # integrate checks the velocity once per step, so the stub counts steps
        g = Grid2D(32, 2 * math.pi)
        c0 = np.zeros((32, 32), dtype=complex)
        c0[2, 0] = c0[-2, 0] = 0.5
        steps = []

        def max_velocity(c):
            steps.append(None)
            return float(np.abs(c).max())

        def rhs(c):
            return np.full_like(c, np.nan) if len(steps) == 4 else np.zeros_like(c)

        recorded = []
        with pytest.raises(NumericalAbort) as info:
            integrate(
                g, c0, 1.0, 0.1, 2.0,
                rhs=rhs,
                max_velocity=max_velocity,
                sample_times=[1.0, 2.0],
                record=lambda t, c: recorded.append(t),
            )
        assert info.value.t == pytest.approx(0.4)
        assert len(steps) == 5  # no step ran after the NaN state
        assert recorded == [0.0]
        good = info.value.last_good
        assert np.all(np.isfinite(good.view(np.float64)))
        assert good[2, 0] == pytest.approx(0.5 * math.exp(-2.0 * 0.3), rel=1e-12)

    @pytest.mark.parametrize("sample_times", [[0.1, 0.2], [0.1]], ids=["at-a-sample", "after-the-last-step"])
    def test_a_non_finite_state_aborts_with_the_half_plane_of_the_last_good_one(self, sample_times, rng):
        # a zero tendency in the RK2 first step, NaN from the second on, and a velocity
        # stub that never looks: the NaN state at t = 0.2 is caught at its sample, or
        # after the last step when none is due there
        g = Grid2D(32, 2 * math.pi)
        c0 = half_plane(hermitian_noise(g, rng))
        calls, recorded = [], []

        def rhs(c):
            calls.append(None)
            return np.zeros_like(c) if len(calls) <= 2 else np.full_like(c, np.nan)

        with pytest.raises(NumericalAbort) as info:
            integrate(g, c0, 1.0, 0.1, 0.2, rhs=rhs, max_velocity=lambda c: 0.0,
                      sample_times=sample_times, record=lambda t, c: recorded.append(t))
        assert info.value.t == pytest.approx(0.2)
        assert recorded == pytest.approx([0.0, 0.1])
        good = info.value.last_good
        assert good.shape == (32, 17) and good.dtype == np.complex128
        # the state at t = 0.1, the last whose velocity check passed: E c0
        assert np.array_equal(good, evolution._integrating_factor(g, 1.0, 0.1) * c0)


def _reference_step(g, c, alpha, dt, tendency):
    """Full-plane integrating-factor RK2 step, written out independently."""
    E = np.exp(-dt * g.xi_mag ** alpha)
    n0 = tendency(c)
    n1 = tendency(E * (c + dt * n0))
    return E * c + 0.5 * dt * (E * n0 + n1)


def _sqg_tendency(g, c, product=convolution_product_coefficients):
    # -(u . grad theta) by direct convolution (or the given product); u = (-R2 theta, R1 theta)
    safe = np.where(g.xi_mag > 0, g.xi_mag, 1.0)
    u1, u2 = -1j * g.xi2 / safe * c, 1j * g.xi1 / safe * c
    band = g.n // 3
    return -(product(u1, 1j * g.xi1 * c, band) + product(u2, 1j * g.xi2 * c, band))


def _ks_tendency(g, c, product=convolution_product_coefficients):
    # -div(u grad psi) by direct convolution (or the given product); -Laplace psi = u - mean(u)
    psi = np.where(g.xi_mag > 0, c / np.where(g.xi_mag > 0, g.xi_mag, 1.0) ** 2, 0.0)
    band = g.n // 3
    f1 = product(c, 1j * g.xi1 * psi, band)
    f2 = product(c, 1j * g.xi2 * psi, band)
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
        out = sqg_step(theta, 1.0, 0.05)
        ref = _reference_step(g, forward_transform(theta).coefficients, 1.0, 0.05,
                              lambda c: _sqg_tendency(g, c))
        got = forward_transform(out).coefficients
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_ks_step_matches_full_plane_convolution_step(self, rng):
        g = Grid2D(32, 2 * math.pi)
        w = random_band_field(g, rng).values
        u = RealField(g, 1.0 + 0.5 * w / np.abs(w).max())
        out = ks_step(u, 1.0, 0.05)
        ref = _reference_step(g, forward_transform(u).coefficients, 1.0, 0.05,
                              lambda c: _ks_tendency(g, c))
        got = forward_transform(out).coefficients
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("flux_class", [_SQGFlux, _KSFlux])
    def test_a_full_plane_and_its_half_plane_give_the_same_run(self, flux_class, rng):
        # the full plane, its half-plane in C and in F order, and the C half-plane
        # with every tendency handed back as a C copy (the flux's own are F-ordered):
        # records, the final state and last_good are C-contiguous with the same bytes
        g = Grid2D(32, 2 * math.pi)
        flux = flux_class.on(g)
        c0 = _band_state(g, rng, 1.0, 0.5)
        half = np.ascontiguousarray(half_plane(c0))
        assert flux.rhs(half).flags.f_contiguous

        def c_copy(c):
            return np.ascontiguousarray(flux.rhs(c))

        runs = []
        for coeffs, rhs in ((c0, flux.rhs), (half, flux.rhs), (np.asfortranarray(half), flux.rhs), (half, c_copy)):
            steps, records = [], []

            def max_velocity(c):
                steps.append(None)
                return flux.max_velocity(c)

            def nan_in_step_3(c, rhs=rhs):
                return np.full_like(c, np.nan) if len(steps) == 3 else rhs(c)

            final = integrate(g, coeffs, 1.0, 0.02, 0.1, rhs, flux.max_velocity, [0.04, 0.1],
                              lambda t, c: records.append((t, c)))[0]
            with pytest.raises(NumericalAbort) as info:
                integrate(g, coeffs, 1.0, 0.02, 0.1, nan_in_step_3, max_velocity, [], lambda t, c: None)
            runs.append([(0.1, final)] + records + [(info.value.t, info.value.last_good)])
        assert len(runs[0]) == 5  # the final state, the records at t = 0, 0.04, 0.1 and last_good
        for arrays in zip(*runs, strict=True):
            assert len({t for t, _ in arrays}) == 1
            assert all(a.shape == (32, 17) and a.dtype == np.complex128 and a.flags.c_contiguous for _, a in arrays)
            assert len({a.tobytes() for _, a in arrays}) == 1

    def test_a_step_makes_no_full_plane_transform(self, rng, monkeypatch):
        g = Grid2D(32, 2 * math.pi)
        w = random_band_field(g, rng).values
        w = 0.5 * w / np.abs(w).max()

        def refuse(*args, **kwargs):
            raise AssertionError("a full-plane FFT was called")

        monkeypatch.setattr(np.fft, "fft2", refuse)
        monkeypatch.setattr(np.fft, "ifft2", refuse)
        sqg_step(RealField(g, w), 1.0, 0.05)
        ks_step(RealField(g, 1.0 + w), 1.0, 0.05)

    @pytest.mark.parametrize("step", [sqg_step, ks_step], ids=["sqg", "ks"])
    def test_step_returns_a_real_field_on_the_input_grid(self, step, rng):
        g = Grid2D(16, 3.0)
        field = RealField(g, 1.0 + 0.1 * random_band_field(g, rng).values)
        out = step(field, 1.2, 0.01)
        assert isinstance(out, RealField) and out.grid == g
        assert out.values.shape == (16, 16) and np.all(np.isfinite(out.values))
        assert not np.array_equal(out.values, field.values)

    @pytest.mark.parametrize("dt", [-0.05, 0.0, math.inf, math.nan])
    @pytest.mark.parametrize("equation", ["sqg", "ks"])
    def test_a_step_refuses_a_dt_that_is_not_positive_and_finite(self, equation, dt, rng):
        # a negative dt would amplify through E = exp(-dt |xi|^alpha)
        g = Grid2D(32, 2 * math.pi)
        field = RealField(g, 0.1 * random_band_field(g, rng).values)
        with pytest.raises(SpectralError, match="dt must be positive and finite"):
            if equation == "sqg":
                sqg_step(field, 1.0, dt)
            else:
                ks_step(field, 1.0, dt)

    @pytest.mark.parametrize("T", [-1.0, 0.0, math.inf, math.nan])
    def test_integrate_refuses_a_T_that_is_not_positive_and_finite(self, T):
        g = Grid2D(16, 2 * math.pi)
        with pytest.raises(SpectralError, match="T must be positive and finite"):
            integrate(g, np.zeros((16, 9), complex), 1.0, 0.1, T, rhs=np.zeros_like,
                      max_velocity=lambda c: 0.0, sample_times=[], record=lambda t, c: None)

    @pytest.mark.parametrize("shape", [(16, 5), (8, 9), (16, 12), (9,)])
    def test_integrate_refuses_a_plane_that_is_neither_half_nor_full(self, shape):
        g = Grid2D(16, 6.28)
        with pytest.raises(SpectralError, match=rf"shape \({shape[0]},.*\(16, 9\).*\(16, 16\)"):
            integrate(g, np.zeros(shape, complex), 1.0, 0.1, 0.2, rhs=np.zeros_like,
                      max_velocity=lambda c: 0.0, sample_times=[], record=lambda t, c: None)

    def test_integrate_refuses_a_full_plane_that_is_not_hermitian(self):
        g = Grid2D(16, 6.28)
        rng = np.random.default_rng(5)
        c = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        assert hermitian_defect(c) > 0.5 * np.abs(c).max()
        with pytest.raises(SpectralError, match="not Hermitian-symmetric"):
            integrate(g, c, 1.0, 0.1, 0.2, rhs=np.zeros_like,
                      max_velocity=lambda c: 0.0, sample_times=[], record=lambda t, c: None)


_EQUATIONS = {"sqg": (_SQGFlux, _sqg_tendency, 0.0), "ks": (_KSFlux, _ks_tendency, 1.0)}  # flux, oracle, mean


def _band_state(g, rng, mean, amplitude):
    """Coefficients of mean + a random band field of max |f| = amplitude."""
    w = random_band_field(g, rng).values
    return forward_transform(RealField(g, mean + amplitude * w / np.abs(w).max())).coefficients


def _run(g, c0, dt, T, flux):
    return integrate(g, c0, 1.0, dt, T, flux.rhs, flux.max_velocity, [], lambda t, c: None)


def _rel_err(c, ref):
    return np.abs(c - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("equation", ["sqg", "ks"])
class TestMultistep:
    """integrate over many steps: an RK2 starter step, then IF-AB2."""

    def test_padded_reference_tendency_is_the_convolution_one(self, equation, rng):
        _, tendency, mean = _EQUATIONS[equation]
        g = Grid2D(16, 2 * math.pi * 4)
        c = _band_state(g, rng, mean, 0.5)
        ref = tendency(g, c)
        assert _rel_err(tendency(g, c, padded_product_coefficients), ref) <= 1e-13

    def test_second_order_against_a_fine_reference(self, equation, rng):
        # dt |xi|^alpha <= 0.09 at the band corner (the shipped runs: <= 0.04);
        # the reference is full-plane RK2 at dt/8
        flux_class, tendency, mean = _EQUATIONS[equation]
        g = Grid2D(16, 2 * math.pi * 4)
        flux = flux_class.on(g)
        c0 = _band_state(g, rng, mean, 0.5)
        T, dt = 1.0, 0.05

        def reference(h):
            c = c0
            for _ in range(round(T / h)):
                c = _reference_step(g, c, 1.0, h, lambda c: tendency(g, c, padded_product_coefficients))
            return c

        ref = reference(dt / 8)
        errors = [_rel_err(full_plane(_run(g, c0, h, T, flux)[0]), ref) for h in (dt, dt / 2, dt / 4)]
        orders = np.log2(np.divide(errors[:-1], errors[1:]))
        assert orders.min() >= 1.8  # measured 1.92-2.03
        assert errors[0] <= 10 * _rel_err(reference(dt), ref)  # measured 3.7-4.7x

    def test_stable_near_the_cfl_limit(self, equation, rng):
        # 200 steps at peak Courant 0.36 on 64^2: the state stays finite, and the
        # error against RK2 at dt/8 stays within 5x that of RK2 at dt
        flux_class, _, mean = _EQUATIONS[equation]
        g = Grid2D(64, 2 * math.pi)
        flux = flux_class.on(g)
        c0 = _band_state(g, rng, mean, 1.0)
        dt = 0.36 * g.L / (g.n * flux.max_velocity(half_plane(c0)))
        final, n_steps, vmax = _run(g, c0, dt, 200 * dt, flux)
        assert n_steps == 200 and dt * vmax * g.n / g.L == pytest.approx(0.36, rel=1e-12)
        assert np.all(np.isfinite(final.view(np.float64)))

        def rk2(h, steps):  # half-plane IF-RK2 on the stepper's tendency
            E, c = half_plane(np.exp(-h * g.xi_mag)), half_plane(c0)
            for _ in range(steps):
                n0 = flux.rhs(c)
                c = E * c + 0.5 * h * (E * n0 + flux.rhs(E * (c + h * n0)))
            return c

        ref = rk2(dt / 8, 1600)
        assert _rel_err(final, ref) <= 5 * _rel_err(rk2(dt, 200), ref)  # measured 1.1-2.1x


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
def test_tendency_is_exactly_zero_outside_the_band(flux_class, rng):
    # a half-plane state with content on every mode, the cut rows of the band
    # columns included, goes into rhs as it is (ks_rhs and sqg_rhs truncate first)
    g = Grid2D(32, 3.0)
    c = half_plane(hermitian_noise(g, rng)) / g.n
    out = flux_class.on(g).rhs(c)
    assert np.all(out[~half_plane(dealias_mask(g))] == 0) and np.any(out != 0)


@pytest.mark.parametrize("flux_class", [_SQGFlux, _KSFlux])
def test_handed_out_arrays_survive_later_steps(flux_class, rng):
    # recorded states, the final state, last_good and rhs returns are never
    # buffers that a later step of the same flux writes into, and no tendency
    # the loop holds over to the next step is one of them
    g = Grid2D(32, 2 * math.pi)
    flux = flux_class.on(g)
    w = random_band_field(g, rng).values
    c0 = forward_transform(RealField(g, 1.0 + 0.5 * w / np.abs(w).max())).coefficients
    kept, tendencies = [c0], []

    def run(T, nan_step=None, record=lambda t, c: kept.append(c)):
        steps = []  # integrate checks the velocity once per step

        def max_velocity(c):
            steps.append(None)
            return flux.max_velocity(c)

        def rhs(c):
            tendencies.append(np.full_like(c, np.nan) if len(steps) == nan_step else flux.rhs(c))
            return tendencies[-1]

        return integrate(g, c0, 1.0, 0.02, T, rhs, max_velocity, [0.04, 0.1], record)[0]

    kept.append(run(0.1))
    assert len(kept) == 5  # c0, three records, the final state
    with pytest.raises(NumericalAbort) as info:
        run(0.2, nan_step=3, record=lambda t, c: None)
    assert info.value.t == pytest.approx(0.06)  # the fourth velocity check saw the NaN state
    kept.append(info.value.last_good)
    kept += [flux.rhs(half_plane(c0)), flux.rhs(kept[-2])]
    snapshot = [a.copy() for a in kept]
    run(0.1, record=lambda t, c: None)
    for a, b in zip(kept, snapshot, strict=True):
        assert a.tobytes() == b.tobytes()
    assert not any(np.shares_memory(a, b) for a in tendencies for b in kept)


@pytest.mark.parametrize("flux_class", [_SQGFlux, _KSFlux])
def test_modes_outside_the_band_feel_only_the_linear_factor(flux_class, rng):
    # a state with content on every mode, 20 steps (one RK2, 19 AB2) recorded
    # after each: outside the 2/3 band (the columns past it and the cut rows)
    # every record is E applied step by step to the start, bit for bit
    g, dt = Grid2D(32, 3.0), 2.0 ** -9
    flux = flux_class.on(g)
    c0 = half_plane(hermitian_noise(g, rng)) / g.n
    outside = ~half_plane(dealias_mask(g))
    assert np.all(c0[outside] != 0) and np.all(outside[:, flux.band:])
    E = evolution._integrating_factor(g, 1.0, dt)[outside]
    records = []
    integrate(g, c0, 1.0, dt, 20 * dt, flux.rhs, flux.max_velocity, dt * np.arange(1, 21),
              lambda t, c: records.append(c))
    assert len(records) == 21  # t = 0 and after every step
    want = c0[outside]
    for c in records:
        assert c[outside].tobytes() == want.tobytes()
        want = E * want


@pytest.mark.parametrize("flux_class", [_SQGFlux, _KSFlux])
def test_a_tendency_is_read_on_the_band_columns_alone(flux_class, rng):
    # a stub tendency with content past the band columns gives the same run,
    # records and final state, as the same stub with those columns zeroed
    g, dt = Grid2D(32, 2 * math.pi), 0.02
    flux = flux_class.on(g)
    c0 = _band_state(g, rng, 1.0, 0.5)
    junk = rng.standard_normal((32, 17 - flux.band)) + 1j * rng.standard_normal((32, 17 - flux.band))

    def run(past_the_band):
        def rhs(c):
            out = flux.rhs(c)
            out[:, flux.band:] = past_the_band
            return out

        records = []
        final = integrate(g, c0, 1.0, dt, 5 * dt, rhs, flux.max_velocity, [dt, 3 * dt],
                          lambda t, c: records.append(c))[0]
        return records + [final]

    plain, junked = run(0.0), run(junk)
    assert len(plain) == len(junked) == 4  # t = 0, dt, 3 dt and the final state
    for a, b in zip(plain, junked, strict=True):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("field_of", [sqg_rhs, lambda f: sqg_velocity(f)[1], ks_rhs, ks_potential],
                         ids=["sqg_rhs", "sqg_velocity", "ks_rhs", "ks_potential"])
def test_physical_fields_of_the_fluxes_are_row_major(field_of, rng):
    # the flux's half-planes are column-major; the fields it hands out are not
    g = Grid2D(32, 2 * math.pi)
    out = field_of(RealField(g, 1.0 + random_band_field(g, rng).values)).values
    assert out.shape == (32, 32) and out.flags.c_contiguous


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
        assert plain.tobytes() == reused.tobytes()

    def test_fields_of_another_state_are_not_reused(self, flux_class, rng):
        flux = flux_class(Grid2D(32, 2 * math.pi))
        c0, c1 = self._states(flux, rng)
        want = flux_class(flux.grid).rhs(c1)
        flux.max_velocity(c0)
        got = flux.rhs(c1)
        assert got.tobytes() == want.tobytes()
        assert not np.array_equal(got, flux.rhs(c0))


@pytest.mark.parametrize("n", [8, 16, 64])
class TestBandTransforms:
    """The band-pruned transforms of GridOperators against spectral's unpruned rfft2 pair."""

    def _coefficients(self, n, rng):
        # a non-Hermitian half-plane with content everywhere: the Nyquist column,
        # the columns past the band and the rows outside it included
        c = rng.standard_normal((n, n // 2 + 1)) + 1j * rng.standard_normal((n, n // 2 + 1))
        assert np.all(c != 0)
        return c

    def test_to_phys_inverts_the_band_columns(self, n, rng):
        flux = _SQGFlux.on(Grid2D(n, 2 * math.pi))
        c = self._coefficients(n, rng)
        want = inverse_real(np.where(np.arange(n // 2 + 1) < flux.band, c, 0.0))
        got = flux.to_phys(c)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_to_spec_is_the_truncated_forward_half_plane(self, n, rng):
        g = Grid2D(n, 2 * math.pi)
        flux = _KSFlux.on(g)
        w = rng.standard_normal((n, n))
        want = np.where(half_plane(dealias_mask(g)), forward_half_plane(w), 0.0)
        out = np.full((n, n // 2 + 1), np.nan, dtype=complex)
        assert flux.to_spec(w, out=out) is out
        for got in (out, flux.to_spec(w)):
            assert got.shape == want.shape
            assert np.array_equal(got == 0, want == 0)  # every mode past the band is exactly 0
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_padding_past_the_band_stays_zero(self, n, rng):
        for flux_class in (_SQGFlux, _KSFlux):
            flux = flux_class.on(Grid2D(n, 2 * math.pi))
            c = self._coefficients(n, rng)
            flux.to_spec(flux.to_phys(c))
            flux.rhs(flux.to_spec(rng.standard_normal((n, n))))
            assert not np.any(flux._pad[:, flux.band:])


_FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
              "fftn", "ifftn", "rfftn", "irfftn")


@pytest.mark.parametrize("equation,counts", [
    ("sqg", [20, 30, 40]),  # the RK2 starter step: 10 transforms; each AB2 step: 5
    ("ks", [16, 24, 32]),  # 8 and 4: the tendency reads u only through its spectrum
], ids=["sqg", "ks"])
def test_fft_calls_per_step(equation, counts, rng, monkeypatch):
    flux_class, _, mean = _EQUATIONS[equation]
    g = Grid2D(32, 2 * math.pi * 4)
    flux = flux_class.on(g)
    c0 = _band_state(g, rng, mean, 0.5)
    calls = []
    for name in _FFT_NAMES:
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _fn=fn, **k: calls.append(None) or _fn(*a, **k))
    made = []
    for steps in (1, 2, 3):
        del calls[:]
        _run(g, c0, 0.01, steps * 0.01, flux)
        made.append(len(calls))
    assert made == counts


def test_integrating_factor_is_built_once_and_read_only(rng):
    g = Grid2D(32, 2 * math.pi)
    evolution._integrating_factor.cache_clear()
    w = random_band_field(g, rng).values
    theta = RealField(g, 0.5 * w / np.abs(w).max())
    for _ in range(3):
        theta = sqg_step(theta, 0.7, 0.05)
    info = evolution._integrating_factor.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    E = evolution._integrating_factor(g, 0.7, 0.05)
    assert not E.flags.writeable
    fresh = half_plane(np.exp(-0.05 * multiplier_symbol(g, MultiplierSpec.fractional_laplacian(0.7))))
    assert np.array_equal(E, fresh.astype(complex))
