"""Oracles shared by the test modules; no production path uses them."""

import numpy as np

from quadnet import freeprob


def interp(dens, lam, values_per_interval, outside=np.nan):
    """Piecewise-linear interpolation of per-interval node values of `dens`
    at lam; points outside every support interval get `outside`."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    out = np.full(lam.shape, outside, dtype=float)
    for (l, u), xg, vg in zip(dens.intervals, dens.x, values_per_interval):
        m = (lam >= l) & (lam <= u)
        if np.any(m):
            out[m] = np.interp(lam[m], xg, vg)
    return out


def sigma_t_derivative(prior, t):
    """d Sigma(mu_t) / dt = (2 pi^2 / 3) int rho_t^3.

    The identity follows from the Burgers evolution of the density under
    semicircular flow; checked against finite differences of
    `freeprob.log_potential` in the tests.
    """
    if t <= 0:
        raise ValueError("sigma_t_derivative requires t > 0")
    return (2.0 * np.pi**2 / 3.0) * freeprob.density(prior, t).cube_integral()
