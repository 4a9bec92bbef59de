"""Pseudo-spectral solver for the fractional Keller-Segel system.

The cell density u drifts down the gradient of its self-generated potential
psi and diffuses fractionally (unit coefficients):

    du/dt + Lambda^alpha u + div(u grad psi) = 0,
    -Laplace psi = u - mean(u),  mean(psi) = 0.

On the torus the potential is defined mean-free. With (a, b) = grad psi the
drift is (Basdevant, J. Comput. Phys. 50, 1983; exact for trigonometric sums)

    -div(u grad psi) = 1/2 (d11 - d22)(a^2 - b^2) + 2 d12 (ab) + mean(u) (u - mean(u)),

so u enters only through its spectrum, and its mean is conserved exactly.
The critical exponent is alpha = 1; subcritical alpha in (1, 2] is allowed.
Positivity of u is not enforced; the running minimum is tracked and reported.
Only the physics lives here (the critical-norm index, the flux ``_KSFlux``,
the per-sample mass and minimum tracking); the time loop and the run driver
are those of ``evolution``. The tendency is dealiased by the 2/3 rule on its
input and output: ``ks_rhs``, ``ks_potential`` and the stepper see only the
modes with max(|k1|, |k2|) <= n/3 of u.
"""

from __future__ import annotations

import math

import numpy as np

from .evolution import GridOperators, RunConfig, RunResult, integrate, run_flow
from .littlewood_paley import BesovParams, DyadicProfile
from .spectral import MultiplierSpec, RealField, forward_half_plane, inverse_real

__all__ = ["ks_potential", "ks_rhs", "ks_step", "run_ks", "ks_critical_norm_params"]


def ks_critical_norm_params(p: float = 2.0) -> BesovParams:
    """Scaling-critical norm index for the critical system: (-1 + 2/p, p, 1)."""
    return BesovParams(-1.0 + 2.0 / p, p, 1.0)


class _KSFlux(GridOperators):
    """Chemotactic drift on one grid in the Basdevant form: a and b, which the
    CFL check builds, and two forward transforms; no ``band_part`` symbol reads
    u in physical space. The band products are exact under the 2/3 rule, and
    the zero mode is exactly 0. The stored symbols carry the 2/3 mask; ``q1``
    and ``q2`` are those of 1/2 (d11 - d22) and 2 d12, and ``grad1``, ``grad2``
    those of d1 and d2 with the inverse Laplacian folded in, so a and b come
    straight from u's coefficients.

    ``products`` overwrites a and b in place with the drift's two products,
    so what ``max_velocity`` remembers, and ``recall`` hands to ``rhs``, is
    (a^2 - b^2, ab), not the fields a and b."""

    def __init__(self, grid):
        super().__init__(grid)
        self.inv_lap = self.symbol(MultiplierSpec.inverse_laplacian())
        self.grad1, self.grad2 = self.d1 * self.inv_lap, self.d2 * self.inv_lap
        self.q1 = 0.5 * (self.d1 * self.d1 - self.d2 * self.d2)
        self.q2 = 2.0 * self.d1 * self.d2
        self.mean_free = (self.inv_lap != 0).astype(np.complex128)  # the band but k = 0
        self._f = np.empty(self.half, dtype=np.complex128, order="F")  # the second forward transform
        self._g1, self._g2 = self.physical(), self.physical()

    def products(self, c_u):
        """(max |grad psi|, a^2 - b^2, ab) with (a, b) = grad psi of u's band part, in the flux's arrays.

        Five grid passes and one max: b^2 and a^2 + b^2 go through ``work``,
        and a and b are overwritten with the products.
        """
        a, b = self.apply(self.grad1, c_u, self._g1), self.apply(self.grad2, c_u, self._g2)
        b2, s = self.work
        np.multiply(b, b, out=b2)
        np.multiply(a, b, out=b)
        np.multiply(a, a, out=a)
        speed = math.sqrt(np.add(a, b2, out=s).max())  # sqrt is monotone, so this is the max of the sqrt
        return speed, np.subtract(a, b2, out=a), b

    def rhs(self, c_u):
        """Spectral tendency -div(u grad psi) of u's band part, dealiased, zero mode 0; a new array."""
        d, ab = self.recall(c_u, lambda c: self.products(c)[1:])  # a^2 - b^2 and ab
        out = self.to_spec(d)
        f2 = self.to_spec(ab, out=self._f)[:, : self.band]
        f1 = out[:, : self.band]
        np.add(np.multiply(self.q1, f1, out=f1), np.multiply(self.q2, f2, out=f2), out=f1)
        linear = np.multiply(self.mean_free, c_u[:, : self.band], out=self._cols)  # free after the products
        np.add(f1, np.multiply(c_u[0, 0].real, linear, out=linear), out=f1)
        return out

    def max_velocity(self, c_u):
        speed, *fields = self.products(c_u)
        self.remember(c_u, fields)
        return speed


def ks_potential(u: RealField) -> RealField:
    """Mean-free potential psi solving -Laplace psi = u - mean(u) for the 2/3 band part of u,
    with the stepper's own inverse Laplacian; a new array on every call."""
    flux = _KSFlux.on(u.grid)
    return RealField(u.grid, flux.apply(flux.inv_lap, flux.to_spec(u.values)))


def ks_rhs(u: RealField) -> RealField:
    """Nonlinear tendency -div(u grad psi) of the 2/3 band part of u, dealiased, exactly mean-free."""
    flux = _KSFlux.on(u.grid)
    return RealField(u.grid, flux.to_phys(flux.rhs(flux.to_spec(u.values))))


def ks_step(u: RealField, alpha: float, dt: float) -> RealField:
    """u after one integrating-factor RK2 step of size dt on the rfft2 half-plane; raises
    CFLError when dt is too big and SpectralError unless alpha is in (0, 2] and dt is positive
    and finite."""
    grid, flux = u.grid, _KSFlux.on(u.grid)
    c = integrate(grid, forward_half_plane(u.values), alpha, dt, dt,
                  flux.rhs, flux.max_velocity, [], lambda t, c: None)[0]
    return RealField(grid, inverse_real(c))


def run_ks(config: RunConfig, profile: DyadicProfile | None = None) -> RunResult:
    """Integrate to T recording configured norms, mass, and min(u); smallness
    is measured in the critical norm ``ks_critical_norm_params``."""
    flux = _KSFlux.on(config.grid())
    area = flux.grid.L ** 2
    minima, masses = [], []

    def track(t, c):
        minima.append(float(flux.to_phys(c, out=flux.work[0]).min()))  # c: the recorded half-plane
        masses.append(area * c[0, 0].real)

    result = run_flow("ks", flux, ks_critical_norm_params(), config, profile, track)
    drift = max(abs(m - masses[0]) for m in masses)  # masses[0]: the t = 0 record
    result.extras["min_u"] = min(minima)
    result.extras["mass_relative_drift"] = drift / (abs(masses[0]) or 1.0)
    return result
