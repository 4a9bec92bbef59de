"""Exact energy identities of the two tendencies under the 2/3 rule.

They follow from the equations, not from how a tendency is computed, so they
check any correct product code independently of the convolution oracles:

- SQG: <theta_b, N(theta)> = 0, since transport by a divergence-free velocity
  conserves L^2 and the truncation drops only modes that theta_b lacks;
- KS: <u_b, N(u)> = 1/2 int u_b^2 (u_b - mean u), by parts with
  -Laplace psi = u_b - mean u. The cubic is exact on the grid, since
  3 (n//3) < n.

Here f_b is the 2/3 band part of the state f, the part the tendency reads.
"""

import numpy as np
import pytest

from fraclab.keller_segel import _KSFlux
from fraclab.spectral import Grid2D, dealias_mask, half_plane, hermitian_noise, inverse_real
from fraclab.sqg import _SQGFlux

MEAN = 0.7


def _state_and_band_part(g, rng):
    """A half-plane state with content on every mode and mean MEAN, and its band part's values.

    The noise is scaled to field values of order 1, next to the mean. The band
    part is the state times the half-plane 2/3 mask: ``to_phys`` alone would
    keep the cut rows of the band columns.
    """
    c = half_plane(hermitian_noise(g, rng)) / g.n
    c[0, 0] = MEAN
    assert np.all(c != 0)
    return c, inverse_real(c * half_plane(dealias_mask(g)))


def _inner(f, h, g):
    """The L^2 inner product on the torus by the grid rule."""
    return g.L ** 2 * np.mean(f * h)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_sqg_tendency_conserves_the_band_energy(n, rng):
    g = Grid2D(n, 5.0)
    c, theta_b = _state_and_band_part(g, rng)
    tendency = inverse_real(_SQGFlux.on(g).rhs(c))
    scale = np.sqrt(_inner(theta_b, theta_b, g) * _inner(tendency, tendency, g))
    assert abs(_inner(theta_b, tendency, g)) <= 1e-13 * scale


@pytest.mark.parametrize("n", [16, 64, 256])
def test_ks_tendency_feeds_the_band_energy_by_the_cubic(n, rng):
    g = Grid2D(n, 5.0)
    c, u_b = _state_and_band_part(g, rng)
    tendency = inverse_real(_KSFlux.on(g).rhs(c))
    want = 0.5 * _inner(u_b ** 2, u_b - MEAN, g)
    assert abs(_inner(u_b, tendency, g) - want) <= 1e-13 * abs(want)
