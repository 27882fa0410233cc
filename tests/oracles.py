"""Oracles shared by the test modules; no production path uses them."""

import dataclasses

import numpy as np

from quadnet import freeprob


@dataclasses.dataclass(frozen=True)
class StieltjesSolution:
    """Admissible solution g(z) of the self-consistency equation at one z."""

    z: complex
    g: complex
    t: float
    residual: float


def _selfcons(prior, t, z, g):
    """Residual F(g) = z + t g + 1/g - R(-g); zero at every branch of g(z)."""
    return z + t * g + 1.0 / g - prior.r_transform(-g)


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


def stieltjes(prior, t, z, eps=freeprob.DEFAULT_EPS):
    """Admissible Stieltjes transform g(z) of mu_t at a single point z.

    Parameters
    ----------
    prior : PriorSpectrum
    t : float
        Variance of the added semicircle part, t >= 0.
    z : complex
        Evaluation point with Im z > 0.

    Returns
    -------
    StieltjesSolution
        Carries g, the offset actually used, and the self-consistency
        residual |z + t g - R(-g) + 1/g|.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("stieltjes requires Im z > 0")
    if t < 0:
        raise ValueError("t must be nonnegative")
    g = freeprob._homotopy_solve(prior, t, np.array([z.real]), z.imag)[0]
    # the residual mixes terms of size |z| and O(1); finish with Newton in
    # extended precision so cancellation noise stays below the 1e-10 contract
    # even at |z| ~ 1e6.  The iterate of least |P| over 30 steps is kept:
    # next to a square-root edge, where the root pair has nearly collided,
    # the homotopy can end 1e-4 off and Newton needs about six steps
    zl = np.clongdouble(z)
    gl = np.clongdouble(g)
    coeffs = freeprob._coeffs_desc(prior, t, np.array([z]))[0].astype(np.clongdouble)
    best = np.inf
    for _ in range(30):
        p = np.clongdouble(0.0)
        dp = np.clongdouble(0.0)
        for c in coeffs:
            dp = dp * gl + p
            p = p * gl + c
        if abs(p) < best:
            best, g_best = abs(p), gl
        if dp == 0.0:
            break
        gl = gl - p / dp
    gl = g_best
    res = abs(_selfcons(prior, np.longdouble(t), zl, gl))
    return StieltjesSolution(z=z, g=complex(gl), t=t, residual=float(res))
