"""Dyadic profile, block projections, norms, and the paraproduct split."""

import math

import numpy as np
import pytest

from fraclab import littlewood_paley
from fraclab.littlewood_paley import (
    BesovParams,
    DyadicProfile,
    _block_mask,
    _damped_level_norms,
    _level_layout,
    _level_norms,
    besov_norm,
    block_multiplier,
    block_norms,
    block_range,
    bony_decompose,
    chemin_lerner_norm,
    lebesgue_norm,
    project,
    spectral_besov_norm,
    spectral_besov_norms,
    spectral_besov_series,
)
from fraclab.evolution import log_spaced_times
from fraclab.selftest import lp_chemin_lerner_minkowski
from fraclab.semigroup import RadialSpectralDensity, evolve_linear
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
    hermitian_noise,
    inverse_real,
    multiplier_symbol,
)
from helpers import (
    random_band_field,
    random_complex_coefficients,
    reference_block_norms,
    reference_mask,
    shell_field,
)


class TestProfile:
    def test_support_endpoints(self, profile):
        assert profile.phi(0.5) == 0.0
        assert profile.phi(0.75) == 0.0
        assert profile.phi(3.0) == 0.0
        assert profile.phi(8.0 / 3.0) == 0.0

    def test_range(self, profile):
        r = np.linspace(0.01, 4.0, 2000)
        vals = profile.phi_array(r)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_partition_at_sample_point(self, profile):
        total = sum(profile.phi(2.0 ** -j * 1.37) for j in range(-5, 6))
        assert abs(total - 1.0) <= 1e-10

    def test_step_complement_identity(self, profile):
        # chi's transition step satisfies h(t) + h(1-t) = 1
        from fraclab.littlewood_paley import _smooth_step_array

        for t in np.linspace(0.01, 0.99, 37):
            assert _smooth_step_array(t) + _smooth_step_array(1.0 - t) == pytest.approx(1.0, abs=1e-15)

    def test_scalar_array_agree(self, profile):
        r = np.exp(np.linspace(math.log(0.05), math.log(20.0), 1000))
        arr = profile.phi_array(r)
        sca = np.array([profile.phi(float(x)) for x in r])
        assert np.abs(arr - sca).max() <= 5e-16


class TestProjections:
    def test_single_mode_scaled_by_phi(self, profile):
        # a mode with |xi| = 2^j picks up exactly phi(1)
        g = Grid2D(64, 2 * math.pi)  # xi = integer wavevectors
        x1, _ = g.coordinates()
        f = RealField(g, np.cos(2 * math.pi * 4 * x1 / g.L))  # |xi| = 4 = 2^2
        sp = forward_transform(f)
        out = project(sp, 2, "block", profile)
        expected = profile.phi(1.0) * sp.coefficients
        assert np.abs(out.coefficients - expected).max() <= 1e-14

    def test_block_sum_reconstructs(self, profile, rng):
        g = Grid2D(64, 2 * math.pi)
        f = random_band_field(g, rng)
        sp = forward_transform(f)
        rb = block_range(g)
        total = np.zeros_like(sp.coefficients)
        for j in rb:
            total += project(sp, j, "block", profile).coefficients
        assert np.abs(total - sp.coefficients).max() <= 1e-10 * np.abs(sp.coefficients).max()

    def test_low_pass_equals_block_sum(self, profile, rng):
        g = Grid2D(64, 2 * math.pi)
        sp = forward_transform(random_band_field(g, rng))
        rb = block_range(g)
        j = rb.j_max - 1
        low = project(sp, j, "low_pass", profile).coefficients
        acc = np.zeros_like(low)
        for k in range(rb.j_min - 2, j):  # S_j = sum of blocks k <= j-1
            acc += project(sp, k, "block", profile).coefficients
        acc[0, 0] = sp.coefficients[0, 0]  # low-pass keeps the mean
        assert np.abs(low - acc).max() <= 1e-12 * np.abs(sp.coefficients).max()

    def test_mean_handling(self, profile, rng):
        g = Grid2D(32, 1.0)
        f = random_band_field(g, rng, zero_mean=False)
        sp = forward_transform(f)
        blocked = project(sp, 3, "block", profile)
        assert blocked.coefficients[0, 0] == 0.0
        low = project(sp, 3, "low_pass", profile)
        assert low.coefficients[0, 0] == sp.coefficients[0, 0]

    def test_block_range_covers_corner_modes(self, profile):
        # the top block must reach the corner radius of the retained square
        g = Grid2D(64, 2 * math.pi)
        rb = block_range(g)
        corner = math.sqrt(2.0) * (2.0 / 3.0) * g.xi_nyquist
        assert (8.0 / 3.0) * 2.0 ** rb.j_max > corner
        assert (8.0 / 3.0) * 2.0 ** rb.j_min > g.xi_min
        assert (8.0 / 3.0) * 2.0 ** (rb.j_min - 1) <= g.xi_min


class TestLebesgue:
    def test_constant(self):
        g = Grid2D(32, 3.0)
        f = RealField(g, np.full((32, 32), -2.0))
        assert lebesgue_norm(f, 2.0) == pytest.approx(2.0 * g.L, rel=1e-14)

    def test_cosine_l2(self):
        g = Grid2D(64, 5.0)
        x1, _ = g.coordinates()
        f = RealField(g, np.cos(2 * math.pi * x1 / g.L))
        assert lebesgue_norm(f, 2.0) == pytest.approx(g.L / math.sqrt(2.0), rel=1e-12)

    def test_cosine_sup(self):
        g = Grid2D(64, 5.0)
        x1, _ = g.coordinates()
        f = RealField(g, np.cos(2 * math.pi * x1 / g.L))
        assert lebesgue_norm(f, math.inf) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_bad_exponent(self):
        g = Grid2D(32, 1.0)
        f = RealField(g, np.zeros((32, 32)))
        with pytest.raises(SpectralError):
            lebesgue_norm(f, 0.5)


class TestBesov:
    def test_single_shell_two_block_value(self, profile, rng):
        g = Grid2D(64, 2 * math.pi)
        f = shell_field(g, 2, rng, profile)
        res = besov_norm(f, BesovParams(0.7, 2.0, 2.0), profile)
        levels, norms = block_norms(f, 2.0, profile)
        direct = float(np.sum(((2.0 ** (levels * 0.7)) * norms) ** 2) ** 0.5)
        assert res.value == pytest.approx(direct, rel=1e-12)
        # support bookkeeping: only levels j-1..j+1 can be active
        active = levels[norms > 1e-12 * norms.max()]
        assert set(active) <= {1, 2, 3}

    def test_sup_norm_variant(self, profile, rng):
        g = Grid2D(64, 2 * math.pi)
        f = shell_field(g, 1, rng, profile)
        res = besov_norm(f, BesovParams(-1.0, 2.0, math.inf), profile)
        levels, norms = block_norms(f, 2.0, profile)
        assert res.value == pytest.approx(float(((2.0 ** (levels * -1.0)) * norms).max()), rel=1e-12)

    def test_l2_comparable_and_scale_stable(self, profile, rng):
        # B^0_{2,2} is equivalent to L^2 with profile-dependent constants:
        # the ratio lies in [min (sum phi_j^2)^(1/2), 1] and its per-level
        # mean is stable under dyadic dilation of the data.
        g = Grid2D(128, 2 * math.pi)
        lo = math.sqrt(profile.phi(1.0) ** 2 + profile.phi(2.0) ** 2)  # worst two-block split
        means = []
        for j in (1, 2, 3, 4):
            ratios = []
            for _ in range(8):
                f = shell_field(g, j, rng, profile)
                r = besov_norm(f, BesovParams(0.0, 2.0, 2.0), profile).value / lebesgue_norm(f, 2.0)
                assert lo - 1e-9 <= r <= 1.0 + 1e-9
                ratios.append(r)
            means.append(np.mean(ratios))
        assert max(means) - min(means) <= 0.05 * min(means)

    def test_dilation_scaling_exact(self, profile, rng):
        # halving L realizes f(2x); homogeneous norms scale by 2^(s - 2/p)
        g1 = Grid2D(64, 2 * math.pi)
        g2 = Grid2D(64, math.pi)
        f1 = shell_field(g1, 2, rng, profile)
        f2 = RealField(g2, f1.values)  # same samples on the half-size torus
        for s, p, r in ((0.5, 2.0, 2.0), (-1.0, 2.0, 1.0), (1.0, 4.0, 2.0)):
            a = besov_norm(f1, BesovParams(s, p, r), profile).value
            b = besov_norm(f2, BesovParams(s, p, r), profile).value
            assert b / a == pytest.approx(2.0 ** (s - 2.0 / p), rel=1e-10)

    def test_warns_on_nonzero_mean(self, profile, rng):
        g = Grid2D(32, 1.0)
        f = random_band_field(g, rng, zero_mean=False)
        f = RealField(g, f.values + 1.0)
        with pytest.warns(UserWarning, match="mean"):
            besov_norm(f, BesovParams(0.0, 2.0, 2.0), profile)

    def test_reports_block_range(self, profile, rng):
        g = Grid2D(64, 2 * math.pi)
        res = besov_norm(random_band_field(g, rng), BesovParams(0.0, 2.0, 1.0), profile)
        rb = block_range(g)
        assert (res.j_min, res.j_max) == (rb.j_min, rb.j_max)

    def test_coefficient_norm_matches_field_norm(self, profile, rng):
        # spectral_besov_norm and besov_norm share one level loop: equal bit for
        # bit on the rfft2 half-plane that besov_norm reads, and to rounding on
        # the fft2 full plane
        g = Grid2D(64, 2 * math.pi * 4)
        f = random_band_field(g, rng)
        c = forward_half_plane(f.values)
        for s, p, r in ((0, 2, 1), (-1, 2, math.inf), (0.5, 3, 2), (0, math.inf, 1), (0, 1, math.inf)):
            params = BesovParams(s, p, r)
            value = besov_norm(f, params, profile).value
            assert spectral_besov_norm(g, c, params, profile) == value
            full = spectral_besov_norm(g, forward_transform(f).coefficients, params, profile)
            assert full == pytest.approx(value, rel=1e-13, abs=0)


# Grids of the level-table tests: every tested size at two torus lengths.
TABLE_GRIDS = [(n, L) for n in (8, 16, 64, 256) for L in (2 * math.pi, 50.0)]


def decoded_layout(layout, size: int):
    """Per level of a p = 2 layout, the dense flat array of the weights it stores."""
    segments = zip(layout.starts, np.append(layout.starts[1:], len(layout.index)))
    for filled in layout.filled:
        dense = np.zeros(size)
        if filled:
            lo, hi = next(segments)
            dense[layout.index[lo:hi]] = layout.weight[lo:hi]
        yield dense


def hermitian_data(g: Grid2D, seed: int) -> np.ndarray:
    """A real field's spectrum with energy on every mode, the mean included."""
    c = hermitian_noise(g, np.random.default_rng(seed))
    c[0, 0] = 3.0
    return c


class TestLevelTable:
    """The p = 2 pipeline against a per-level mask loop and an inverse FFT."""

    @pytest.mark.parametrize("n,L", TABLE_GRIDS)
    def test_p2_matches_per_level_mask_loop(self, profile, n, L):
        g = Grid2D(n, L)
        c = hermitian_data(g, n)
        levels, norms = block_norms(SpectralField(g, c, check=False), 2.0, profile)
        assert list(levels) == list(block_range(g))
        ref = reference_block_norms(g, c, 2.0, profile, levels)
        assert np.all(ref > 0)
        np.testing.assert_allclose(norms, ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n,L", TABLE_GRIDS)
    def test_p2_block_norms_match_inverse_fft(self, profile, n, L):
        g = Grid2D(n, L)
        c = hermitian_data(g, n + 1)
        levels, norms = block_norms(SpectralField(g, c, check=False), 2.0, profile)
        for j, norm in zip(levels, norms):
            w = inverse_real(block_multiplier(g, int(j), "block", profile) * half_plane(c))
            assert norm == pytest.approx(math.sqrt(g.h ** 2 * float(np.sum(np.abs(w) ** 2))), rel=1e-12)

    @pytest.mark.parametrize("n,L", TABLE_GRIDS)
    def test_windowed_block_mask_bit_identical_to_full_plane_phi(self, profile, n, L):
        # the block mask evaluates phi only inside its annulus window; outside it
        # phi of the scaled radius is exactly +0.0, so every byte of the
        # half-plane agrees with the first n/2 + 1 columns of the full-plane
        # phi; the low-pass mask is chi there
        g = Grid2D(n, L)
        rng_ = block_range(g)
        for kind in ("block", "low_pass"):
            for j in range(rng_.j_min - 1, rng_.j_max + 2):  # one level past each end
                direct = np.ascontiguousarray(half_plane(reference_mask(g, j, kind, profile)))
                mask = block_multiplier(g, j, kind, profile)
                assert mask.shape == (n, n // 2 + 1) and mask.flags.c_contiguous and not mask.flags.writeable
                assert mask.tobytes() == direct.tobytes()

    @pytest.mark.parametrize("n,L", TABLE_GRIDS)
    def test_at_most_two_adjacent_levels_summing_to_one(self, profile, n, L):
        g = Grid2D(n, L)
        rng_ = block_range(g)
        # every level whose annulus can hold a mode of the grid
        wide = range(math.floor(math.log2(g.xi_min)) - 2, math.ceil(math.log2(g.xi_mag.max())) + 2)
        masks = np.array([block_multiplier(g, j, "block", profile) for j in wide])
        active = masks > 0.0
        count = active.sum(axis=0)
        assert count.max() <= 2
        first = np.argmax(active, axis=0)
        two = count == 2
        assert np.all(active[first[two] + 1, two])  # the second active level is the next one
        total = masks.sum(axis=0)
        total[0, 0] = 1.0  # the mean mode lies in no block
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-15)
        # the half-plane layout holds exactly the squared masks of the range,
        # doubled on the columns whose mirror column it leaves out
        k2 = np.arange(n // 2 + 1)
        mirrors = np.where((k2 == 0) | (k2 == n // 2), 1.0, 2.0)
        decoded = decoded_layout(_level_layout(g, profile), n * (n // 2 + 1))
        for j, encoded in zip(rng_, decoded, strict=True):
            half = block_multiplier(g, j, "block", profile)
            assert np.array_equal(encoded, (np.square(half) * mirrors).ravel())

    @staticmethod
    def count_block_masks(monkeypatch):
        """Levels of every block_multiplier call made through the module global."""
        levels = []

        def counted(grid, j, kind, profile):
            levels.append(j)
            return block_multiplier(grid, j, kind, profile)

        monkeypatch.setattr(littlewood_paley, "block_multiplier", counted)
        return levels

    def test_p2_layout_builds_each_level_mask_once(self, profile, monkeypatch):
        g = Grid2D(32, 7.0)
        c = hermitian_data(g, 5)
        _level_layout.cache_clear()
        levels = self.count_block_masks(monkeypatch)
        spectral_besov_norm(g, c, BesovParams(0, 2, 1), profile)
        assert levels == list(block_range(g))
        levels.clear()
        spectral_besov_norm(g, c, BesovParams(0.5, 2, math.inf), profile)
        assert levels == []

    def test_p2_norm_leaves_the_per_block_cache_alone(self, profile):
        g = Grid2D(32, 7.0)
        c = hermitian_data(g, 5)
        _level_layout.cache_clear()
        before = _block_mask.cache_info()
        spectral_besov_norm(g, c, BesovParams(0, 2, 1), profile)
        assert _block_mask.cache_info() == before

    def test_per_block_paths_bit_identical_cold_and_warm(self, profile):
        g = Grid2D(32, 7.0)
        c = hermitian_data(g, 5)
        j = block_range(g).j_min + 1

        def per_block_outputs():
            field = SpectralField(g, c, check=False)
            return [block_norms(field, 3.0, profile)[1],
                    np.array(spectral_besov_norm(g, half_plane(c), BesovParams(0.5, math.inf, 2), profile)),
                    project(field, j, "low_pass", profile).coefficients,
                    project(field, j, "block", profile).coefficients]

        _block_mask.cache_clear()
        cold = per_block_outputs()
        misses = _block_mask.cache_info().misses
        warm = per_block_outputs()
        assert _block_mask.cache_info().misses == misses  # every warm mask came from the cache
        for a, b in zip(cold, warm, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ["block", "low_pass"])
    def test_block_mask_cache_holds_read_only_half_planes(self, profile, kind):
        g = Grid2D(32, 7.0)
        for j in block_range(g):
            mask = _block_mask(g, j, kind, profile)
            assert mask.shape == (32, 17) and mask.flags.c_contiguous and not mask.flags.writeable
            assert mask.tobytes() == block_multiplier(g, j, kind, profile).tobytes()
            assert _block_mask(g, j, kind, profile) is mask

    @pytest.mark.parametrize("kind", ["block", "low_pass"])
    def test_project_is_the_full_mask_product(self, profile, kind):
        # on a non-Hermitian plane too: project reads every column
        g = Grid2D(32, 7.0)
        c = random_complex_coefficients(g, np.random.default_rng(15))
        for j in block_range(g):
            got = project(SpectralField(g, c, check=False), j, kind, profile).coefficients
            assert got.tobytes() == (reference_mask(g, j, kind, profile) * c).tobytes()

    def test_profile_instances_share_one_layout(self, monkeypatch):
        g = Grid2D(32, 7.0)
        c = hermitian_data(g, 5)
        first, second = DyadicProfile(), DyadicProfile()
        assert first == second and hash(first) == hash(second)
        _level_layout.cache_clear()
        levels = self.count_block_masks(monkeypatch)
        values = [spectral_besov_norm(g, c, BesovParams(0, 2, 1), prof) for prof in (first, second)]
        assert values[0] == values[1]
        assert _level_layout.cache_info().currsize == 1
        assert levels == list(block_range(g))

    @pytest.mark.parametrize("n,L", TABLE_GRIDS)
    @pytest.mark.parametrize("s,p,r", [(0, 3, 2), (0, math.inf, 1), (0, 1, math.inf), (0.5, 4, 2)])
    def test_other_p_matches_fft_loop(self, profile, n, L, s, p, r):
        g = Grid2D(n, L)
        c = hermitian_data(g, 7)
        params = BesovParams(s, p, r)
        levels, norms = block_norms(SpectralField(g, c, check=False), params.p, profile)
        ref = reference_block_norms(g, c, params.p, profile, levels)
        np.testing.assert_allclose(norms, ref, rtol=1e-13, atol=0)
        weighted = (2.0 ** (levels * params.s)) * ref
        combined = float(weighted.max()) if math.isinf(r) else float(np.sum(weighted ** r) ** (1.0 / r))
        assert spectral_besov_norm(g, c, params, profile) == pytest.approx(combined, rel=1e-13, abs=0)

    @pytest.mark.parametrize("n,L", TABLE_GRIDS)
    def test_p2_half_plane_matches_full_plane(self, profile, n, L):
        g = Grid2D(n, L)
        c = hermitian_noise(g, np.random.default_rng(n + 2))
        levels, from_full = block_norms(SpectralField(g, c, check=False), 2.0, profile)
        _, from_half = _level_norms(g, half_plane(c), 2.0, profile)
        np.testing.assert_allclose(from_half, from_full, rtol=1e-14, atol=0)
        ref = reference_block_norms(g, c, 2.0, profile, levels)
        assert np.all(ref > 0)
        np.testing.assert_allclose(from_full, ref, rtol=1e-13, atol=0)
        np.testing.assert_allclose(from_half, ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_empty_lowest_level_reads_exactly_zero(self, profile, n):
        # at L = 3 pi / 4 the lowest |xi| is 8/3, the open outer edge of level 0:
        # block_range keeps level 0, the layout holds no mode of it, and its
        # block norm is exactly 0 while every other level matches the mask loop
        g = Grid2D(n, 0.75 * math.pi)
        c = hermitian_data(g, n + 3)
        levels, norms = block_norms(SpectralField(g, c, check=False), 2.0, profile)
        assert levels[0] == 0 and not block_multiplier(g, 0, "block", profile).any()
        assert not _level_layout(g, profile).filled[0] and _level_layout(g, profile).filled[1:].all()
        assert norms[0] == 0.0
        ref = reference_block_norms(g, c, 2.0, profile, levels[1:])
        np.testing.assert_allclose(norms[1:], ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
    def test_other_p_half_plane_bit_identical_to_full_plane(self, profile, p):
        g = Grid2D(64, 50.0)
        c = hermitian_noise(g, np.random.default_rng(8))
        assert np.array_equal(full_plane(half_plane(c)), c)
        assert np.array_equal(_level_norms(g, half_plane(c), p, profile)[1],
                              block_norms(SpectralField(g, c, check=False), p, profile)[1])
        params = BesovParams(0.5, p, 2.0)
        assert spectral_besov_norm(g, half_plane(c), params, profile) == spectral_besov_norm(g, c, params, profile)

    def test_rejects_a_plane_of_another_width(self, profile):
        g = Grid2D(16, 2 * math.pi)
        with pytest.raises(SpectralError, match=r"\(16, 12\), neither the half-plane \(16, 9\) nor the full plane"):
            spectral_besov_norm(g, np.zeros((16, 12), complex), BesovParams(0, 2, 1), profile)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_every_entry_point_refuses_a_non_hermitian_full_plane(self, profile, p):
        g = Grid2D(32, 7.0)
        c = random_complex_coefficients(g, np.random.default_rng(12))
        field = SpectralField(g, c, check=False)
        params = BesovParams(0, p, 1)
        calls = [
            lambda: block_norms(field, p, profile),
            lambda: besov_norm(field, params, profile),
            lambda: spectral_besov_norm(g, c, params, profile),
            lambda: spectral_besov_norms(g, c, [params], profile),
            lambda: spectral_besov_series(g, c, 1.0, [0.5], [params], profile),
        ]
        for call in calls:
            with pytest.raises(SpectralError, match="not Hermitian-symmetric"):
                call()

    def test_p2_agrees_with_nearby_p_on_every_input(self, profile):
        # both read the same real field: Parseval on the layout against one
        # inverse FFT per block
        g = Grid2D(32, 7.0)
        c = hermitian_data(g, 13)
        f = random_band_field(g, np.random.default_rng(14))

        def blocks(p):
            return [_level_norms(g, half_plane(c), p, profile)[1], block_norms(SpectralField(g, c), p, profile)[1],
                    block_norms(f, p, profile)[1]]

        for at_two, near_two in zip(blocks(2.0), blocks(2.0 + 1e-9), strict=True):
            np.testing.assert_allclose(near_two, at_two, rtol=1e-8, atol=0)

    def test_one_level_pass_per_distinct_p(self, profile, monkeypatch):
        g = Grid2D(32, 7.0)
        c = half_plane(hermitian_noise(g, np.random.default_rng(9)))
        params = [BesovParams(0, 2, 1), BesovParams(-1, 2, math.inf), BesovParams(0.5, 3, 2),
                  BesovParams(0, 3, 1), BesovParams(1, 2, 2)]
        singles = [spectral_besov_norm(g, c, q, profile) for q in params]
        calls = []

        def counted(grid, coeffs, p, *args):
            calls.append(p)
            return _level_norms(grid, coeffs, p, *args)

        monkeypatch.setattr(littlewood_paley, "_level_norms", counted)
        assert spectral_besov_norms(g, c, params, profile) == singles
        assert calls == [2.0, 3.0]


DENSITIES = {
    "ball": RadialSpectralDensity.ball_indicator(1.0),
    "power_law": RadialSpectralDensity.power_law(1.0, 1.0 / 6.0, 2.0 / 3.0),
    "gaussian": RadialSpectralDensity.gaussian(0.25),
}


def lattice_coefficients(g: Grid2D, density: RadialSpectralDensity) -> np.ndarray:
    """A radial density sampled on the lattice, dealiased and mean-free: the linear kind's data."""
    c = np.where(dealias_mask(g), density.rho_array(g.xi_mag) / g.L ** 2, 0.0).astype(complex)
    c[0, 0] = 0.0
    return c


def flow_times(g: Grid2D, alpha: float) -> np.ndarray:
    """t = 0, then two decades up to the linear kind's default horizon 0.1 / xi_min^alpha."""
    t_hi = 0.1 / g.xi_min ** alpha
    return np.concatenate(([0.0], log_spaced_times(t_hi / 100.0, t_hi, 5)))


class TestDampedSeries:
    """spectral_besov_series: the closed form at p = 2, the per-time loop at other p."""

    PARAMS = [BesovParams(0.0, 2, 1), BesovParams(-1.0, 2, math.inf), BesovParams(0.5, 2, 2)]

    @pytest.mark.parametrize("L", [2 * math.pi * 4, 50.0])
    @pytest.mark.parametrize("density", sorted(DENSITIES))
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_p2_matches_evolve_linear_loop_and_reference_blocks(self, profile, alpha, density, L):
        g = Grid2D(32, L)
        c = lattice_coefficients(g, DENSITIES[density])
        times = flow_times(g, alpha)
        damped = [evolve_linear(SpectralField(g, c, check=False), alpha, t).coefficients for t in times]
        loop = np.array([spectral_besov_norms(g, d, self.PARAMS, profile) for d in damped]).T
        # the l^r sums written out over the per-level mask products of the test helper
        levels = np.arange(block_range(g).j_min, block_range(g).j_max + 1)
        blocks = np.array([reference_block_norms(g, d, 2.0, profile, levels) for d in damped])
        ref = [
            np.sum(blocks, axis=1),
            np.max(2.0 ** -levels * blocks, axis=1),
            np.sqrt(np.sum((2.0 ** (0.5 * levels) * blocks) ** 2, axis=1)),
        ]
        for coeffs in (c, half_plane(c)):
            series = spectral_besov_series(g, coeffs, alpha, times, self.PARAMS, profile)
            assert series.shape == (3, len(times)) and np.all(series > 0)
            np.testing.assert_allclose(series, loop, rtol=1e-13, atol=0)
            np.testing.assert_allclose(series, ref, rtol=1e-13, atol=0)

    def test_p2_takes_no_per_time_plane(self, profile, monkeypatch):
        g = Grid2D(32, 50.0)
        c = half_plane(lattice_coefficients(g, DENSITIES["ball"]))

        def refuse(*args):
            raise AssertionError("p = 2 series took a norm of a damped plane")

        monkeypatch.setattr(littlewood_paley, "spectral_besov_norms", refuse)
        monkeypatch.setattr(littlewood_paley, "_level_norms", refuse)
        spectral_besov_series(g, c, 1.0, flow_times(g, 1.0), self.PARAMS, profile)

    @pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
    def test_other_p_bit_identical_to_evolve_linear_loop(self, profile, p):
        g = Grid2D(32, 50.0)
        c = hermitian_noise(g, np.random.default_rng(10))
        times = flow_times(g, 1.0)
        params = [BesovParams(0.0, p, 1), BesovParams(-1.0, p, math.inf), BesovParams(0.5, 2, 2)]
        loop = np.array([
            spectral_besov_norms(g, evolve_linear(SpectralField(g, c, check=False), 1.0, t).coefficients,
                                 params, profile)
            for t in times
        ]).T
        series = spectral_besov_series(g, c, 1.0, times, params, profile)
        assert np.array_equal(series[:2], loop[:2])
        np.testing.assert_allclose(series[2], loop[2], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n,L", [(16, 2 * math.pi), (64, 50.0)])
    def test_levels_the_data_misses_read_zero_at_every_time(self, profile, n, L):
        g = Grid2D(n, L)
        rng_ = block_range(g)
        j = (rng_.j_min + rng_.j_max) // 2
        c = np.where(reference_mask(g, j, "block", profile) > 0, hermitian_noise(g, np.random.default_rng(n)), 0.0)
        levels = np.arange(rng_.j_min, rng_.j_max + 1)
        missed = reference_block_norms(g, c, 2.0, profile, levels) == 0.0
        assert missed[0] and missed[-1] and not missed.all()
        rates = half_plane(multiplier_symbol(g, MultiplierSpec.fractional_laplacian(1.0)))
        times = flow_times(g, 1.0)
        norms = _damped_level_norms(g, half_plane(c), rates, times, profile)
        assert np.all(norms[:, missed] == 0.0) and np.all(norms[:, ~missed] > 0.0)
        for t, row in zip(times, norms):
            damped = evolve_linear(SpectralField(g, c, check=False), 1.0, t).coefficients
            ref = reference_block_norms(g, damped, 2.0, profile, levels[~missed])
            np.testing.assert_allclose(row[~missed], ref, rtol=1e-13, atol=0)

    def test_zero_spectrum_and_underflowed_times_read_zero(self, profile):
        g = Grid2D(32, 50.0)
        c = half_plane(lattice_coefficients(g, DENSITIES["ball"]))
        zero = np.zeros_like(c)
        late = np.array([1e5, 1e300])  # exp(-2 t |xi|) underflows on every mode
        with np.errstate(invalid="raise", divide="raise"):  # underflow to 0 is the point
            from_zero = spectral_besov_series(g, zero, 1.0, flow_times(g, 1.0), self.PARAMS, profile)
            from_late = spectral_besov_series(g, c, 1.0, late, self.PARAMS, profile)
        assert np.array_equal(from_zero, np.zeros((3, len(flow_times(g, 1.0)))))
        assert np.array_equal(from_late, np.zeros((3, 2)))

    @pytest.mark.parametrize("times", [[-1.0, 0.5], [math.nan, 1.0], [math.inf], [0.5, -math.inf]])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_refuses_times_that_are_not_finite_and_nonnegative(self, profile, times, p):
        # evolve_linear's rule: a negative time runs the flow backward and
        # blows up, a NaN or an infinite one reads NaN or 0 depending on p
        g = Grid2D(16, 2 * math.pi)
        c = half_plane(lattice_coefficients(g, DENSITIES["ball"]))
        with pytest.raises(SpectralError, match="times must be finite and nonnegative"):
            spectral_besov_series(g, c, 1.0, times, [BesovParams(0.0, p, 2)], profile)

    @pytest.mark.parametrize("n,L", TABLE_GRIDS)
    def test_half_plane_matches_full_plane(self, profile, n, L):
        g = Grid2D(n, L)
        c = hermitian_noise(g, np.random.default_rng(n + 4))
        times = flow_times(g, 1.5)
        from_full = spectral_besov_series(g, c, 1.5, times, self.PARAMS, profile)
        from_half = spectral_besov_series(g, half_plane(c), 1.5, times, self.PARAMS, profile)
        np.testing.assert_allclose(from_half, from_full, rtol=1e-14, atol=0)


class TestCheminLerner:
    def test_constant_in_time(self, profile, rng):
        g = Grid2D(32, 2 * math.pi)
        f = random_band_field(g, rng)
        times = np.linspace(0.0, 2.0, 9)
        params = BesovParams(0.3, 2.0, 2.0)
        val = chemin_lerner_norm(times, [f] * len(times), 3.0, params, profile)
        expected = 2.0 ** (1.0 / 3.0) * besov_norm(f, params, profile).value
        assert val == pytest.approx(expected, rel=1e-12)

    def test_sup_sup_variant(self, profile, rng):
        g = Grid2D(32, 2 * math.pi)
        fields = [random_band_field(g, rng) for _ in range(4)]
        params = BesovParams(0.0, 2.0, math.inf)
        val = chemin_lerner_norm([0.1, 0.2, 0.3, 0.4], fields, math.inf, params, profile)
        expected = max(besov_norm(f, params, profile).value for f in fields)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_minkowski_ordering(self, rng):
        # both orderings (rho <= r and r <= rho) at s = 0.4 on a 32^2 torus
        assert lp_chemin_lerner_minkowski(rng, grid=Grid2D(32, 2 * math.pi), s=0.4).value <= 1e-10

    def test_requires_two_samples(self, profile, rng):
        g = Grid2D(32, 2 * math.pi)
        f = random_band_field(g, rng)
        with pytest.raises(SpectralError, match="2 samples"):
            chemin_lerner_norm([1.0], [f], 2.0, BesovParams(0.0, 2.0, 2.0), profile)

    def test_requires_increasing_times(self, profile, rng):
        g = Grid2D(32, 2 * math.pi)
        f = random_band_field(g, rng)
        with pytest.raises(SpectralError, match="increasing"):
            chemin_lerner_norm([1.0, 1.0], [f, f], 2.0, BesovParams(0.0, 2.0, 2.0), profile)

    @pytest.mark.parametrize("times", [[math.nan, 1.0], [0.0, math.inf]])
    def test_requires_finite_times(self, profile, rng, times):
        f = random_band_field(Grid2D(32, 2 * math.pi), rng)
        with pytest.raises(SpectralError, match="finite"):
            chemin_lerner_norm(times, [f, f], 2.0, BesovParams(0.0, 2.0, 2.0), profile)


class TestBony:
    def test_zero_factor(self, profile, rng):
        g = Grid2D(32, 2 * math.pi)
        f = random_band_field(g, rng)
        z = RealField(g, np.zeros((32, 32)))
        for piece in bony_decompose(f, z, profile):
            assert np.abs(piece.values).max() == 0.0

    def test_remote_frequencies_land_in_low_high(self, profile):
        # low mode against a mode >= 3 dyadic levels up: everything in T_f g
        g = Grid2D(128, 2 * math.pi)
        x1, x2 = g.coordinates()
        f = RealField(g, np.cos(2 * math.pi * x1 / g.L))  # |xi| = 1
        h = RealField(g, np.cos(2 * math.pi * 16 * x2 / g.L))  # |xi| = 16
        tfg, tgf, rr = bony_decompose(f, h, profile)
        prod_norm = lebesgue_norm(RealField(g, f.values * h.values), 2.0)
        assert lebesgue_norm(tgf, 2.0) <= 1e-8 * prod_norm
        assert lebesgue_norm(rr, 2.0) <= 1e-8 * prod_norm
        assert lebesgue_norm(tfg, 2.0) == pytest.approx(prod_norm, rel=1e-10)

    def test_grid_mismatch(self, profile, rng):
        f = random_band_field(Grid2D(32, 1.0), rng)
        h = random_band_field(Grid2D(32, 2.0), rng)
        with pytest.raises(SpectralError, match="grid mismatch"):
            bony_decompose(f, h, profile)
