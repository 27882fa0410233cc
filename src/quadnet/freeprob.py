"""Spectral densities of free convolutions mu_t = mu_prior (+) semicircle(t).

The measures handled here are the asymptotic eigenvalue laws of
S + sqrt(t) * GOE, where S is a sample-covariance-type matrix whose limiting
law is a (generalized) Marchenko-Pastur distribution with aspect ratio kappa.
Everything downstream (matrix denoising, state evolution, message passing)
consumes the objects built here: Stieltjes transforms, densities on
edge-clustered grids, support edges, Hilbert transforms, and the log
potential Sigma(mu) = E log|X - Y|.

Conventions
-----------
Stieltjes transform g(z) = E[1/(X - z)], analytic on the upper half plane,
with Im g(z) > 0 for Im z > 0 and g(z) ~ -1/z as |z| -> infinity.  Densities
are the boundary values rho(x) = Im g(x + i0) / pi.

The R-transform of the prior is R(s) = sum_k p_k * kappa * a_k / (kappa - s * a_k)
(a single atom a=1 gives the plain Marchenko-Pastur R(s) = kappa / (kappa - s)).
Adding a semicircle of variance t adds t*s, so g solves the self-consistency

    z = -t*g + R(-g) - 1/g .

Every density here has t > 0.  On the real line the picture is Biane's (1997): off the support g is
real and increasing in x with phi(g) = x, phi(g) = -t*g + R(-g) - 1/g, and
the support edges are critical values of phi, left edges at its local maxima
and right edges at its local minima.  So the sign of phi'' at the critical
points sorts the support, and off it g is a Newton solve on the arc of phi
between the neighbouring edges' critical points.  For the MP prior the
critical points lie one to a bracket of known structure, each found by
Newton's method on phi' (`_mp_critical_points`); for the compound-Poisson
prior they are the real companion eigenvalues of phi'(g) = 0 cleared of
denominators.

On the support Im phi(g) = 0 is a curve on the real axis, from one edge's
critical point to the other's, parameterized by s = |g|^2 (Biane 1997):
explicit in s for the MP prior (`_mp_interval`), and for the
compound-Poisson prior Re g(s) is the one root of a monotone equation
(`_cp_points`).  `hilbert` reads h = -Re g off the same curve at each
eigenvalue on the support (`_curve_hilbert`).  Each density also keeps
Re dg/dz = Re 1/phi'(g) at its nodes, for the t-derivative of int rho^3.

`density` is the one way to make a `SpectralDensity`.  It forms what the
state-evolution solve reads, rho, dx/dtheta, Re dg/dz and the quadrature
weights; the grid x and Re g, which only `hilbert`, `log_potential` and the
denoiser's second MMSE form read, are formed from the build's curves the
first time either is read.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
import functools
import math

import numpy as np

__all__ = [
    "PriorSpectrum",
    "SpectralDensity",
    "EdgeDetectionFailed",
    "density",
    "hilbert",
    "log_potential",
]

DEFAULT_NODES = 801

class EdgeDetectionFailed(RuntimeError):
    """Support-edge candidates could not be classified into intervals."""


# ============
# prior family
# ============


@dataclasses.dataclass(frozen=True)
class PriorSpectrum:
    """Limiting spectral law of the overlap matrix S = W^T D W / m.

    Parameters
    ----------
    kappa : float
        Aspect ratio m/d of the underlying m x d Gaussian matrix.
    atoms : tuple of (value, weight)
        Atom law of the diagonal variance profile D.  The default single atom
        (1, 1) gives the plain Marchenko-Pastur law of parameter kappa.

    The atom law picks the path (`_is_marchenko_pastur`): the unit atom
    needs no eigensolver (`_mp_critical_points`) and its curve is explicit
    (`_mp_curve`); any other law is a compound-Poisson prior, which finds
    its support edges by companion-matrix eigenvalues and solves Re g on
    its curve (`_cp_curve`).
    """

    kappa: float
    atoms: tuple[tuple[float, float], ...] = ((1.0, 1.0),)

    def __post_init__(self):
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        if len(self.atoms) == 0:
            raise ValueError("need at least one atom")
        for a, p in self.atoms:
            # a = 0 is allowed: an atom at zero contributes nothing to the
            # R-transform, so {(0, 1)} degenerates to a pure point mass whose
            # free convolution with the semicircle is the semicircle itself
            if not (0 <= a < math.inf and 0 < p < math.inf):
                raise ValueError(
                    f"atom values must be finite and >= 0 with finite positive"
                    f" weights, got ({a}, {p})"
                )
        wsum = sum(p for _, p in self.atoms)
        if abs(wsum - 1.0) > 1e-12:
            raise ValueError(f"atom weights must sum to 1, got {wsum!r}")

    @classmethod
    def marchenko_pastur(cls, kappa: float) -> "PriorSpectrum":
        return cls(kappa=float(kappa))

    @classmethod
    def compound_poisson(cls, kappa, atoms) -> "PriorSpectrum":
        atoms = tuple((float(a), float(p)) for a, p in atoms)
        return cls(kappa=float(kappa), atoms=atoms)

    # --- moments -----------------------------------------------------------

    @property
    def mean(self) -> float:
        """E[a], the first moment of the variance profile."""
        return sum(a * p for a, p in self.atoms)

    @property
    def variance(self) -> float:
        """E[a^2] / kappa."""
        return sum(a * a * p for a, p in self.atoms) / self.kappa

    @property
    def second_moment(self) -> float:
        return self.mean**2 + self.variance

    def r_transform(self, s):
        """R(s) = sum_k p_k kappa a_k / (kappa - s a_k)."""
        out = 0.0
        for a, p in self.atoms:
            out = out + p * self.kappa * a / (self.kappa - s * a)
        return out


def _is_marchenko_pastur(prior):
    """Whether the atom law is the unit atom, the Marchenko-Pastur prior,
    whose edges, curve and draws have closed forms."""
    return prior.atoms == ((1.0, 1.0),)


# ==================
# public operations
# ==================


def _phi(prior, t, g):
    """Inverse map z = phi(g) = -t g + R(-g) - 1/g on a real branch."""
    return -t * g + prior.r_transform(-g) - 1.0 / g


def _pi_products(prior):
    """Ascending coefficients of Pi(g) = prod_k (kappa + a_k g), and of each
    Pi_k, the product without atom k's own factor."""
    factors = [[prior.kappa, a] for a, _ in prior.atoms]

    def product(fs):
        return functools.reduce(np.convolve, fs, np.array([1.0]))

    return product(factors), [product(factors[:k] + factors[k + 1 :]) for k in range(len(factors))]


@functools.lru_cache(maxsize=64)
def _critical_poly(prior):
    """The compound-Poisson prior's parts of phi'(g) = 0 cleared of
    denominators, Pi^2 - t g^2 Pi^2 - sum_k p_k kappa a_k^2 g^2 Pi_k^2 with
    Pi(g) = prod_k (kappa + a_k g) and Pi_k without its own factor.

    Returns the descending coefficients of Pi^2, of g^2 Pi^2 and of each
    atom's term, cut below the t term's leading coefficient (atoms at zero
    leave zero top coefficients), and the poles of phi, g = 0 and
    -kappa / a_k.
    """
    kappa = prior.kappa
    pi, pi_no = _pi_products(prior)
    pi2 = np.convolve(pi, pi)
    top = np.flatnonzero(pi2)[-1] + 2

    def desc(coeffs, shift):
        out = np.zeros(len(pi2) + 2)
        out[shift : shift + len(coeffs)] = coeffs
        out = out[top::-1].copy()
        out.flags.writeable = False
        return out

    terms = [desc(p * kappa * a**2 * np.convolve(pk, pk), 2)
             for (a, p), pk in zip(prior.atoms, pi_no)]
    poles = (0.0, *(-kappa / a for a, _ in prior.atoms if a > 0))
    return desc(pi2, 0), desc(pi2, 2), tuple(terms), poles


def _companion_candidates(prior, t):
    """(phi(g_c), g_c) at the real companion eigenvalues g_c of the cleared
    phi'(g) = 0 (`_critical_poly`) that are not on a pole of phi and across
    which phi' changes sign.  Next to a pole g = -kappa / a_k at large
    kappa t a complex pair of eigenvalues can pass the tolerance on its
    imaginary part; phi' is negative on both sides of it there."""
    pi2, tpart, terms, poles = _critical_poly(prior)
    poly = pi2 - t * tpart
    for term in terms:
        poly -= term
    candidates = []
    for root in np.roots(poly).tolist():
        # real, not on a pole of phi, and a sign change of phi'
        g = root.real
        if abs(root.imag) <= 1e-8 * (1.0 + abs(root)) and all(
            abs(g - pole) > 1e-12 for pole in poles
        ):
            try:
                zc = _phi(prior, t, g)
                turns = (_phi_prime(prior, t, g - 1e-9 * g) > 0.0) != (
                    _phi_prime(prior, t, g + 1e-9 * g) > 0.0)
            except ZeroDivisionError:  # a denominator rounded to zero: a pole
                continue
            if turns and math.isfinite(zc):
                candidates.append((zc, g))
    if not candidates:
        raise EdgeDetectionFailed(f"no real critical points for t={t}")
    return candidates


def _mp_critical_points(kappa, t):
    """The real critical points of the Marchenko-Pastur phi, t > 0.

    phi'(g) = 1/g^2 - t - kappa/(kappa + g)^2, and phi''(g) vanishes at
    the one real point g* = kappa / (kappa^(1/3) - 1) (Biane 1997), so each
    root of phi' lies in a bracket of known structure: one in
    (0, 1/sqrt(t)), one in (max(-kappa, -1/sqrt(t)), 0), and for kappa < 1
    one on each side of g* in (-1/sqrt(t), -kappa), which exist exactly
    when phi'(g*) > 0, that is for t < t_c = (1 - kappa^(1/3))^3 / kappa^2.
    phi' changes sign once in each bracket.  Each root is
    `_bracketed_newton` from the bracket's root of `_ferrari_starts` (its
    midpoint where there is none: the starts lose roots at very large or
    small t and next to a merge).
    """
    rt = 1.0 / math.sqrt(t)
    # (lo, hi, whether phi' rises across the root)
    brackets = [(0.0, rt, False), (max(-kappa, -rt), 0.0, True)]
    if kappa < 1.0:
        c = kappa ** (1.0 / 3.0)
        if t < (1.0 - c) ** 3 / c**6:  # t_c, which is 0 where c rounds to 1
            gs = kappa / (c - 1.0)
            brackets += [(-rt, gs, True), (gs, -kappa, False)]
    starts = _ferrari_starts(kappa, t)
    roots = []
    for lo, hi, rising in brackets:
        for g in starts:
            if lo < g < hi:
                break
        else:
            g = 0.5 * (lo + hi)
        roots.append(_bracketed_newton(kappa, t, g, lo, hi, rising))
    return roots


def _bracketed_newton(kappa, t, g, lo, hi, rising):
    """Root of the Marchenko-Pastur phi' in (lo, hi), where it changes sign
    once, rising or falling, by Newton's method from g in Python floats.

    Each iterate narrows the bracket by the sign of phi'; a start or step
    that leaves it is replaced by its midpoint.  An iterate where phi' is
    exactly zero is the root.  Iteration stops after a step below
    1e-9 |g|, which leaves an error of about its square.
    """
    rk = math.sqrt(kappa)
    a, b = (1.0 - kappa) / (1.0 + rk), 1.0 + rk
    for _ in range(200):
        if not lo < g < hi:
            g = 0.5 * (lo + hi)
        kg = kappa + g
        w = g * kg
        f = (kappa + a * g) * (kappa + b * g) / (w * w) - t
        if f == 0.0:
            return g
        if (f < 0.0) == rising:
            lo = g
        else:
            hi = g
        d = 2.0 * (kappa / (kg * kg * kg) - 1.0 / (g * g * g))
        if d == 0.0:
            continue
        step = f / d
        g -= step
        if abs(step) <= 1e-9 * abs(g):
            break
    return g


def _ferrari_starts(kappa, t):
    """Real roots of phi'(g) = 0 for the Marchenko-Pastur prior by
    Ferrari's method, as starts for `_bracketed_newton`.

    In y = 1 + kappa / g the equation is the monic quartic
    (y - 1)^2 (y^2 - kappa) = t kappa^2 y^2; with y = x + 1/2 it is
    x^4 + p x^2 + q x + r, p = -1/2 - kappa - T, q = kappa - T,
    r = 1/16 - (kappa + T)/4, T = t kappa^2.  Its resolvent cubic's largest
    root m > 0 splits it into the quadratics
    x^2 -+ s x + p/2 + m +- q/(2 s), s = sqrt(2 m).  Not every root is
    accurate or found: the brackets of `_mp_critical_points` sift them.
    """
    big = t * kappa * kappa
    p = -0.5 - kappa - big
    q = kappa - big
    r = 0.0625 - 0.25 * (kappa + big)
    # m^3 + p m^2 + (p^2/4 - r) m - q^2/8, depressed with m = w - p/3
    b = 0.25 * p * p - r
    pd = b - p * p / 3.0
    qd = p * (2.0 * p * p / 27.0 - b / 3.0) - 0.125 * q * q
    disc = 0.25 * qd * qd + pd * pd * pd / 27.0
    if disc > 0.0:
        u = -0.5 * qd - math.copysign(math.sqrt(disc), qd)
        u = math.copysign(abs(u) ** (1.0 / 3.0), u)
        w = u - pd / (3.0 * u)
    elif pd < 0.0:
        rr = math.sqrt(-pd / 3.0)
        w = 2.0 * rr * math.cos(math.acos(max(-1.0, min(1.0, 1.5 * qd / (pd * rr)))) / 3.0)
    else:
        w = 0.0
    m = w - p / 3.0
    if not m > 0.0:
        return []
    s = math.sqrt(2.0 * m)
    starts = []
    for sign in (1.0, -1.0):
        d = -2.0 * (p + m + sign * q / s)
        if d >= 0.0:
            for y in (0.5 * (sign * s + math.sqrt(d)) + 0.5, 0.5 * (sign * s - math.sqrt(d)) + 0.5):
                if y != 1.0:
                    starts.append(kappa / (y - 1.0))
    return starts


def _edge_candidates(prior, t):
    """Real critical points g_c of phi and their images z = phi(g_c), as
    (z, g_c) sorted by z, collided values kept once.

    Every support edge is among the real critical values.  For the
    Marchenko-Pastur prior the critical points are `_mp_critical_points`,
    one per bracket of known structure.  For the compound-Poisson prior
    phi'(g) = 0 cleared of denominators is a polynomial of degree
    2 + 2 * #atoms (`_critical_poly`), whose few real companion eigenvalues
    are sifted as Python floats.
    """
    if _is_marchenko_pastur(prior):
        kappa = prior.kappa
        candidates = [(-t * g + kappa / (kappa + g) - 1.0 / g, g)
                      for g in _mp_critical_points(kappa, t)]
    else:
        candidates = _companion_candidates(prior, t)
    return _collided_once(candidates)


def _collided_once(candidates):
    """Candidates (z, g_c) as the arrays (z, g_c) sorted by z, each run of
    critical values within 1e-11 (1 + |z|) of its first kept once."""
    candidates.sort()
    out = candidates[:1]
    for zc, gc in candidates[1:]:
        if zc - out[-1][0] > 1e-11 * (1.0 + abs(zc)):
            out.append((zc, gc))
    zc, gc = zip(*out)
    return np.array(zc), np.array(gc)


def _support(prior, t):
    """Support intervals of mu_t = prior (+) semicircle(t), t > 0, with the
    critical point of phi at each edge and the candidates between them.

    Candidate edges are the real critical values x_c = phi(g_c) of the
    inverse map z = phi(g) (`_edge_candidates`).  Off the support g is real
    and increasing in x with phi(g) = x (Biane 1997), so every gap is an
    increasing arc of phi from the critical point of its left edge to that
    of its right one: the support's right edges are local minima of phi
    (phi''(g_c) > 0) and its left edges local maxima (phi''(g_c) < 0).  The
    regions beyond the outer candidates are off the support, and a region
    between two consecutive candidates is a gap exactly when phi'' is
    positive at the left one and negative at the right one; every other
    region is on it.  Thin intervals such as the bulk near zero (mass
    1 - kappa at small kappa) are found like any other, and the edges are
    the critical values themselves, which solve the edge equation to
    machine precision.

    Returns
    -------
    tuple of ((l, u), (g_c(l), g_c(u)), inner) per interval, ascending,
    inner the (z, g_c) of the candidates inside it.  An interval has one
    there after two intervals merged, the one of the collided pair of
    critical values that was kept.
    """
    if not t > 0:
        raise ValueError(f"density requires t > 0, got {t}")
    zc, gc = _edge_candidates(prior, t)
    curv = [_phi_second(prior, g) for g in gc.tolist()]
    # on[k]: whether the region between candidates k - 1 and k is on the support
    on = [False, *(not c0 > 0.0 > c1 for c0, c1 in zip(curv, curv[1:])), False]
    edges = [i for i in range(len(zc)) if on[i] != on[i + 1]]
    support = tuple(
        ((zc[i], zc[j]), (gc[i], gc[j]), tuple((zc[k], gc[k]) for k in range(i + 1, j)))
        for i, j in zip(edges[::2], edges[1::2])
    )
    if not support:
        raise EdgeDetectionFailed(f"no support interval among the edge candidates at t={t}")
    return support


@functools.lru_cache(maxsize=8)
def _theta_grid(n):
    """What every interval's grid shares, at n uniform theta in [0, pi/2]:
    sin^2(theta), cos^2(theta) (the same values reversed, so exactly 0 at
    the last node), sin(2 theta), the weights of Simpson's rule in theta,
    and the step in theta."""
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of nodes >= 3")
    theta = np.linspace(0.0, 0.5 * np.pi, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= theta[1] / 3.0
    s2 = np.sin(theta) ** 2
    grid = (s2, s2[::-1].copy(), np.sin(2.0 * theta), w)
    for a in grid:
        a.flags.writeable = False
    return (*grid, float(theta[1]))


@dataclasses.dataclass(eq=False)
class SpectralDensity:
    """Density of mu_t on its support, sampled on edge-clustered grids.

    Per interval the grid is uniform in theta on [0, pi/2], on the curve
    log |g|^2 = log s_l + log(s_u / s_l) sin^2(theta) (`_mp_interval`,
    `_CpCurve.interval`; Re g for the pure semicircle, where |g|^2 is fixed).
    The end nodes are the edges, rho vanishes there like
    sin(theta) cos(theta) times a smooth factor, and integrals are
    Simpson's rule in theta with the weights dx/dtheta: geometric
    convergence, at about a third of the trapezoid rule's error on the half
    grid.

    Every build forms what the state-evolution solve and `matdenoise.mmse`
    read: rho, dx/dtheta, Re dg/dz and, at construction, the weights.  The
    grid x and Re g are formed the first time either is read (`hilbert`,
    `log_potential`, `matdenoise.mmse_forms`) and kept: a Marchenko-Pastur
    interval makes its anchored passes then (`_mp_anchored`), and a
    compound-Poisson one hands over the x and Re g it solved for.
    `density` makes every one; they compare and hash by identity.

    Attributes
    ----------
    intervals : tuple of (l, u)
    critical : tuple of (g_c(l), g_c(u))
        Per interval, the critical points of phi at its edges.
    dxdtheta : tuple of arrays, one per interval
        dx/dtheta, for the quadrature weights and `log_potential`.
    rho : tuple of arrays, one per interval
        The density on the grid.
    re_dgdz : tuple of arrays, one per interval
        Re dg/dz = Re 1/phi'(g) at the grid's g, from the build.  At an
        edge phi' vanishes but Re dg/dz stays finite (Im dg/dz diverges).
    curves : tuple of `_MpCurve` or `_CpCurve`
        Per interval the curve the grid was built on, which `hilbert`
        solves on, with the edges' and a merge's anchors.
    pending : tuple of callables, one per interval, or None
        What forms (x, Re g) of each interval on first read; None once
        formed.
    x, re_g : tuples of arrays, one per interval
        Grid (ascending, from l to u) and Re g (the negative Hilbert
        transform), on the real axis, formed from `pending`.
    weights : tuple of arrays, one per interval
        Quadrature weights in x, Simpson's rule in theta.
    """

    prior: PriorSpectrum
    t: float
    intervals: tuple
    critical: tuple
    dxdtheta: tuple
    rho: tuple
    re_dgdz: tuple
    curves: tuple
    pending: tuple | None = dataclasses.field(repr=False)
    weights: tuple = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        self.weights = tuple(_theta_grid(len(d))[3] * d for d in self.dxdtheta)

    def _form(self):
        """Form x and Re g of every interval, keep both and drop `pending`."""
        self.x, self.re_g = zip(*[form() for form in self.pending])
        self.pending = None
        return self.x, self.re_g

    x = functools.cached_property(lambda self: self._form()[0])
    re_g = functools.cached_property(lambda self: self._form()[1])

    def integrate(self, values_per_interval):
        """Sum_i int values_i(x) dx over the support intervals."""
        return sum(float(np.dot(w, v)) for w, v in zip(self.weights, values_per_interval))

    def mass(self):
        return self.integrate(self.rho)

    def cube_integral(self):
        """int rho(x)^3 dx over the continuous part."""
        return self.integrate([r * r * r for r in self.rho])

    def cube_integral_dt(self):
        """d/dt of `cube_integral`: 2 int rho^3 Re(dg/dz) dx, dg/dz = 1/phi'(g).

        The semicircular flow obeys the Burgers equation d_t g = g d_z g
        (Biane 1997), so d_t rho = d_x(rho Re g) on the real axis; two
        integrations by parts and dg/dz = 1/phi'(g) give the identity.  One
        more quadrature with the build's Re dg/dz (`re_dgdz`), no build.
        """
        return 2.0 * self.integrate([r * r * r * dz for r, dz in zip(self.rho, self.re_dgdz)])


def density(prior: PriorSpectrum, t: float, n_nodes: int = DEFAULT_NODES) -> SpectralDensity:
    """Density of mu_t = prior (+) semicircle(t), t > 0, on edge-adapted grids.

    The support is located with `_support`, and each interval is sampled on
    its curve on the real axis (`_curves`): in closed form for the
    Marchenko-Pastur prior (`_mp_interval`), by a bracketed Newton solve of
    Re g for the compound-Poisson prior (`_CpCurve.interval`).  Every build
    forms rho, dx/dtheta, Re dg/dz and the weights; x and Re g are formed
    when first read (`SpectralDensity`), which for the Marchenko-Pastur
    prior is two anchored passes over each interval.  t = 0 is
    rejected: every caller builds at t = 1/q_hat > 0 or a positive noise
    level.

    Parameters
    ----------
    n_nodes : int
        Grid nodes per interval, odd and at least 3 (`_theta_grid`).
    """
    grid = _theta_grid(n_nodes)
    support = _support(prior, t)
    intervals = tuple(interval for interval, *_ in support)
    critical = tuple(critical for _, critical, _ in support)
    curves = _curves(prior, t, support)
    dxdtheta, rho, re_dgdz, pending = zip(*[curve.interval(grid) for curve in curves])
    return SpectralDensity(prior=prior, t=t, intervals=intervals, critical=critical, dxdtheta=dxdtheta,
                           rho=rho, re_dgdz=re_dgdz, curves=curves, pending=pending)


def _curves(prior, t, support):
    """The intervals of `_support` as the curves `density` builds on and
    keeps for `hilbert` (`_mp_curve`, `_cp_curve`)."""
    if _is_marchenko_pastur(prior):
        return _mp_curves(prior.kappa, t, support)
    return tuple(_cp_curve(prior, t, *interval) for interval in support)


def _polished(kappa, t, g):
    """A real critical point g of the Marchenko-Pastur phi after one Newton
    step on phi'(g) = 0 in extended precision (`np.longdouble`, 80-bit on
    x86 and plain double where the platform has no wider type), and in that
    precision.  `_edge_candidates` gives g to about 1e-15, and differences
    such as g_c(u)^2 - g_c(l)^2 in `_mp_curve` lose digits to
    cancellation.  A step above 1e-8 |g|, next to a cusp, is not taken."""
    g, kappa = np.longdouble(g), np.longdouble(kappa)
    kg = kappa + g
    g2, kg2 = g * g, kg * kg
    step = (1.0 / g2 - t - kappa / kg2) / (2.0 * kappa / (kg2 * kg) - 2.0 / (g2 * g))
    return g - step if abs(step) <= 1e-8 * abs(g) else g


def _one_minus_ts(kappa, t, g, s):
    """1 - t s at a real critical point g of the Marchenko-Pastur phi,
    s = g^2, as a float.  Where t s is near 1 it is kappa s / (kappa + g)^2
    instead, equal to it by phi'(g) = 0 and free of the cancellation."""
    ts = t * s
    return float(1.0 - ts if ts < 0.5 else kappa * s / (kappa + g) ** 2)


def _mp_curves(kappa, t, support):
    """The support intervals of MP(kappa) (+) semicircle(t), as `_support`
    gives them, as a tuple of `_MpCurve`s: what `density` builds and keeps
    for `hilbert` to solve on."""
    crit = [tuple(_polished(kappa, t, g) for g in c) for _, c, _ in support]
    # with two intervals, the other one's critical points are the other
    # two roots of the curve's edge polynomial, the one across the gap first
    others = [crit[1], crit[0][::-1]] if len(crit) == 2 else [None]
    dip = None
    if len(support) == 1 and support[0][2]:
        # two merged intervals: the kept critical value z_m where they met,
        # its critical point g_m and, from the root sum -2 kappa, the other
        # critical point there
        ((zm, gm),) = support[0][2]
        dip = float(zm), float(gm), -2.0 * kappa - (crit[0][0] + crit[0][1] + float(gm))
    return tuple(
        _mp_curve(kappa, t, interval, c, other, k == 0, dip)
        for k, ((interval, *_), c, other) in enumerate(zip(support, crit, others))
    )


def _mp_curve(kappa, t, interval, critical, other, gap_at_u, dip):
    """One support interval of MP(kappa) (+) semicircle(t) as a curve.

    On the support g = a + ib, b > 0, solves Im phi(g) = 0, that is
    1/|g|^2 - t = kappa / |kappa + g|^2.  With s = |g|^2 (Biane 1997) the
    curve is explicit:

        a(s) = (kappa s / (1 - t s) - s - kappa^2) / (2 kappa),
        x(s) = kappa / s - kappa t - 2 t a(s),
        b^2 = s - a^2 = N(s) / (4 kappa^2 (1 - t s)^2),
        N(s) = 4 kappa^2 s (1 - t s)^2 - (t s^2 + (kappa - 1 + t kappa^2) s - kappa^2)^2,

    and dg/dz = g'(s) / x'(s), so Re dg/dz = a'(s) / x'(s).  N has leading
    coefficient -t^2, and its real roots are the squares of the real
    critical points of phi: the edges give s_l = g_c(l)^2 and
    s_u = g_c(u)^2.  With two intervals `other` holds the other interval's
    critical points, the one across the gap first (at this interval's u
    where `gap_at_u`, else at its l), which give N's other two roots; with
    one, they come from N's root sum 2 (kappa^2 t - kappa + 1) / t and
    product kappa^4 / t^2, unless the interval is two merged ones: then
    `dip` holds the critical value z_m where they met, its critical point
    g_m and the other critical point there, the squares of the two being
    those roots.  The critical points at the edges come in extended
    precision (`_polished`), and the scalars of the interval are formed in
    it: s_u - s_l from the critical points (where g_c(u) ~ -g_c(l), across
    a bulk at zero or at large t, not from their sum) and 1 - t s at the
    ends by `_one_minus_ts`.

    Returns the `_MpCurve` of kappa, t, s_l, s_u, dv = log(s_u / s_l),
    from_l (1 - t s is formed from l, where it is smaller, else from u),
    ends (the (x_e, g_c(e), s_e, 1 - t s_e) of the anchors l, u and the
    dip), vm (log(s_m / s_l), or None) and N's other two roots, tagged.
    """
    (l, u), (gl, gu) = interval, critical
    sl, su = gl * gl, gu * gu
    # s_u - s_l = (g_u - g_l)(g_u + g_l), or by 1/s = t + kappa / (kappa + g)^2
    # at a critical point = kappa s_l s_u (g_u - g_l) c / ((kappa + g_l)(kappa + g_u))^2
    # with c = 2 kappa + g_l + g_u, minus the other two critical points' sum
    # (all four sum to -2 kappa): whichever sum cancels less
    gsum, scale = gu + gl, abs(gl) + abs(gu)
    if other is None:
        csum, cscale = 2.0 * kappa + gsum, 2.0 * kappa + scale
    else:
        csum, cscale = -(other[0] + other[1]), abs(other[0]) + abs(other[1])
    if abs(gsum) * cscale >= abs(csum) * scale:
        span = (gu - gl) * gsum
    else:
        span = kappa * sl * su * (gu - gl) * csum / ((kappa + gl) * (kappa + gu)) ** 2
    dv = math.log1p(span / sl) if abs(span) < 0.5 * sl else 2.0 * math.log(abs(gu / gl))
    oml, omu = _one_minus_ts(kappa, t, gl, sl), _one_minus_ts(kappa, t, gu, su)
    if other is None:
        total = float(2.0 * (kappa * kappa * t - kappa + 1.0) / t - sl - su)
        roots = ("sum", total, float(kappa**4 / (t * t * sl * su)))
    else:
        across, far = other
        ge = gu if gap_at_u else gl
        # s_e - root across the gap, the far root
        roots = ("gap", float((ge - across) * (ge + across)), float(far * far), gap_at_u)
    sl, su, gl, gu = float(sl), float(su), float(gl), float(gu)
    ends = ((l, gl, sl, oml), (u, gu, su, omu))
    vm = None
    if dip is not None:
        zm, gm, go = dip
        vm = 2.0 * math.log(abs(gm / gl))
        ends += ((zm, gm, gm * gm, _one_minus_ts(kappa, t, gm, gm * gm)),)
        roots = ("dip", float(go * go), float((gm - go) * (gm + go)))
    return _MpCurve(kappa, t, sl, su, dv, bool(span < 0.0), ends, vm, roots)


def _anchor_slices(curve, s2):
    """The nodes lo, mid and up of a grid at w = s2, anchored at l, at the
    dip of a merged interval and at u: each at its nearest anchor in log s."""
    a = b = (len(s2) + 1) // 2
    if curve.vm is not None:
        a, b = np.searchsorted(s2, [0.5 * curve.vm / curve.dv, 0.5 + 0.5 * curve.vm / curve.dv])
    return slice(0, a), slice(a, b), slice(b, None)


def _mp_points(curve, w, c, mid):
    """What every build forms of the curve at log s = log s_l +
    w log(s_u / s_l), c = 1 - w, with the points mid anchored at the dip:
    s, 1/(1 - t s) with 1 - t s formed from the end where it is smaller
    (from s_m at mid),

        a'(s) = (1/(1 - t s)^2 - 1/kappa) / 2,   x'(s) = -kappa / s^2 - 2 t a'(s),

    and s - s_l, s_u - s from expm1 and s - s_m at mid (None without a dip).

    x and Re g = a need the anchored passes of `_mp_anchored` on these
    arrays, which a build makes only when they are read (`SpectralDensity`)."""
    kappa, t, dv = curve.kappa, curve.t, curve.dv
    v = w * dv
    s = np.exp(v)
    s *= curve.sl
    dsl = np.expm1(v, out=v)  # s - s_l
    dsl *= curve.sl
    dsu = c * -dv
    np.expm1(dsu, out=dsu)
    dsu *= -curve.su  # s_u - s
    om = curve.ends[0][3] - t * dsl if curve.from_l else curve.ends[1][3] + t * dsu  # 1 - t s
    dm = None
    if curve.vm is not None:
        _, _, sm, omm = curve.ends[2]
        dm = w[mid] * dv
        dm -= curve.vm
        np.expm1(dm, out=dm)
        dm *= sm  # s - s_m
        om[mid] = omm - t * dm
    inv_om = np.divide(1.0, om, out=om)
    da = inv_om * inv_om  # a'(s)
    da *= 0.5
    da -= 0.5 / kappa
    dx = np.divide(1.0, s)  # x'(s)
    dx *= dx
    dx *= -kappa
    dx -= (2.0 * t) * da
    return s, inv_om, da, dx, dsl, dsu, dm


def _mp_anchored(curve, s, inv_om, dsl, dsu, dm, lo, mid, up):
    """x and Re g = a at the points of `_mp_points`, lo anchored at l, up at
    u and mid at the dip, every difference formed without cancellation:

        x - x_e = (s - s_e) (-kappa / (s s_e) - 2 t A_e),
        a - g_c(e) = (s - s_e) A_e,  A_e = (kappa / ((1 - t s)(1 - t s_e)) - 1) / (2 kappa),

    so points next to an edge keep their digits, and next to the dip x is
    formed from z_m, where x(s) is flat."""
    kappa, t = curve.kappa, curve.t
    d = dsl.copy()  # s - s_e
    d[up] = -dsu[up]
    if dm is not None:
        d[mid] = dm
    anchors = list(zip((lo, up, mid), curve.ends))
    coef = np.empty(len(s))
    for nodes, (_, _, _, ome) in anchors:
        coef[nodes] = 0.5 / ome
    big_a = inv_om * coef
    big_a -= 0.5 / kappa
    for nodes, (_, _, se, _) in anchors:
        coef[nodes] = -kappa / se
    slope = np.divide(1.0, s)
    slope *= coef
    slope -= (2.0 * t) * big_a
    x = d * slope  # x - x_e
    re_g = np.multiply(d, big_a, out=d)
    for nodes, (xe, ge, _, _) in anchors:
        x[nodes] += xe
        re_g[nodes] += ge
    return x, re_g


def _mp_interval(curve, grid):
    """One support interval of MP(kappa) (+) semicircle(t) in closed form,
    on the curve of `_mp_curve`.  The nodes are log s = log s_l +
    log(s_u / s_l) sin^2(theta), evenly spaced in theta: s spans decades
    when kappa is near 1 and t is small, and 10^-11 of itself across a bulk
    at zero.  Each node is anchored at its nearer end e in log s, or at g_m
    where that is nearer (`_anchor_slices`).  Then

        b^2 = t^2 (s - s_l)(s_u - s) Q(s) / (4 kappa^2 (1 - t s)^2),

    Q the quadratic of N's other two roots, s minus the root across a gap
    formed as (s - s_e) + (s_e - root) from the edge e at the gap.  Returns
    dx/dtheta, rho and Re dg/dz, the fields every build forms, and what
    forms x and Re g when they are read: `_mp_anchored` on the arrays of
    `_mp_points`.
    """
    s2, c2, sin2t = grid[:3]
    lo, mid, up = _anchor_slices(curve, s2)
    s, inv_om, da, dx, dsl, dsu, dm = _mp_points(curve, s2, c2, mid)
    kind, *roots = curve.roots
    if kind == "dip":
        far, gap = roots
        q = s - curve.ends[2][2]
        q *= s - far
        q[mid] = dm * (dm + gap)
        np.maximum(q, 0.0, out=q)
    elif kind == "sum":
        total, prod = roots
        disc = 0.25 * total * total - prod
        if disc < 0.0:
            q = s - 0.5 * total
            q *= q
            q -= disc
        else:  # real roots outside [s_l, s_u]: q rounds below 0 only next to one
            r = 0.5 * total + math.copysign(math.sqrt(disc), total)
            q = s - r
            q *= s - prod / r
            np.maximum(q, 0.0, out=q)
    else:
        gap, far, gap_at_u = roots
        q = gap - dsu if gap_at_u else dsl + gap  # both terms of one sign
        q *= s - far
    q *= dsl
    q *= dsu
    rho = np.sqrt(q, out=q)
    rho *= inv_om
    rho *= curve.t / (2.0 * np.pi * curve.kappa)
    dxdtheta = dx * s
    dxdtheta *= curve.dv * sin2t
    form = functools.partial(_mp_anchored, curve, s, inv_om, dsl, dsu, dm, lo, mid, up)
    return dxdtheta, rho, np.divide(da, dx, out=da), form


class _MpCurve(collections.namedtuple("_MpCurve", "kappa t sl su dv from_l ends vm roots")):
    """The scalars of one support interval's curve (`_mp_curve`)."""

    __slots__ = ()

    interval = _mp_interval

    def at(self, w, nodes, r):
        """x, Re g, d Re g/dw and dx/dw at the points w, anchored at l, the
        dip and u by the index arrays `nodes`; r is unused."""
        s, inv_om, da, dx, dsl, dsu, dm = _mp_points(self, w, 1.0 - w, nodes[1])
        x, re_g = _mp_anchored(self, s, inv_om, dsl, dsu, dm, *nodes)
        return x, re_g, da * s * self.dv, dx * s * self.dv


class _CpCurve(collections.namedtuple("_CpCurve", "kappa t a pa dv ends vm")):
    """The scalars of one support interval's curve (`_cp_curve`)."""

    __slots__ = ()

    def interval(self, grid):
        """The interval on the curve at w = sin^2(theta), anchored as in
        `_mp_interval`: its fields dx/dtheta, rho and Re dg/dz, and what
        hands over the x and Re g the solve gives.  That x increases along
        the nodes is measured, not proven: it is checked
        (`EdgeDetectionFailed`)."""
        s2, c2, sin2t = grid[:3]
        x, r, b2, dr, dx = _cp_points(self, s2, c2, _anchor_slices(self, s2), None)
        if not np.all(np.diff(x) > 0.0):
            raise EdgeDetectionFailed(f"x does not increase on ({x[0]}, {x[-1]}) at t={self.t}")
        return dx * sin2t, np.sqrt(np.maximum(b2, 0.0)) / np.pi, dr / dx, functools.partial(tuple, (x, r))

    def at(self, w, nodes, r):
        """As `_MpCurve.at`, Re g solved from r (None: from the edges)."""
        x, r, _, dr, dx = _cp_points(self, w, 1.0 - w, nodes, r)
        return x, r, dr, dx


def _cp_curve(prior, t, interval, critical, inner):
    """One support interval of a compound-Poisson prior (+) semicircle(t)
    as a curve.  On the support g = r + ib, b > 0, solves Im phi(g) = 0;
    with s = |g|^2 (Biane 1997) that is

        F(r, s) = 1/s - t - sum_k c_k / D_k = 0,   c_k = p_k kappa a_k^2,
        D_k = |kappa + a_k g|^2 = kappa^2 + 2 kappa a_k r + a_k^2 s,

    and x = -t r + sum_k p_k kappa a_k (kappa + a_k r) / D_k - r/s,
    b^2 = s - r^2.  Every a_k >= 0, so F increases in r, and r(s) is its one
    root in [-sqrt(s), sqrt(s)].  Atoms at zero drop out; with no other the
    law is the semicircle of variance t, where s = 1/t and Re g is linear
    in w instead.  As in `_mp_curve`, w = log(s / s_l) / log(s_u / s_l),
    the critical points come in extended precision (two Newton steps on
    phi', none above 1e-8 |g|), s_u - s_l is (g_u - g_l)(g_u + g_l) or from
    1/s = t + sum_k c_k / (kappa + a_k g)^2 at each, whichever sum cancels
    less, and after a merge the kept critical point z_m is a third anchor.

    Returns the `_CpCurve` of kappa, t, the positive a_k and p_k kappa a_k
    as columns, dv = log(s_u / s_l), ends (per anchor l, u and the dip:
    x_e, g_c(e), s_e, the D_k and sum_k c_k / D_k there, and the slope
    d r / d s of the square-root law there) and vm = log(s_m / s_l) or None.
    """
    kappa = prior.kappa
    atoms = [(a, p) for a, p in prior.atoms if a > 0.0]
    a_col = np.array([a for a, _ in atoms]).reshape(-1, 1)
    pa_col = kappa * np.array([p for _, p in atoms]).reshape(-1, 1) * a_col
    crit = [np.longdouble(g) for g in (*critical, *(g for _, g in inner))]
    for _ in range(2):
        steps = [_phi_prime(prior, t, g) / _phi_second(prior, g) for g in crit]
        crit = [g - d if abs(d) <= 1e-8 * abs(g) else g for g, d in zip(crit, steps)]
    gl, gu = crit[:2]
    gsum = gu + gl
    terms = [p * kappa * a**3 * (2.0 * kappa + a * gsum) / ((kappa + a * gl) * (kappa + a * gu)) ** 2
             for a, p in atoms]
    if abs(gsum) * sum(map(abs, terms)) >= abs(sum(terms)) * (abs(gl) + abs(gu)):
        span = (gu - gl) * gsum
    else:
        span = gl * gl * gu * gu * (gu - gl) * sum(terms)
    dv = math.log1p(span / (gl * gl)) if abs(span) < 0.5 * gl * gl else 2.0 * math.log(abs(gu / gl))
    ends = []
    for x_e, g in zip((*interval, *(z for z, _ in inner)), crit):
        third = 6.0 / g**4 - sum(6.0 * p * kappa * a**4 / (kappa + a * g) ** 4 for a, p in atoms)
        with np.errstate(all="ignore"):
            slope = np.nan_to_num(np.float64(third / (6.0 * _phi_second(prior, g) + 2.0 * g * third)))
        d_e = (kappa + a_col * float(g)) ** 2
        ends.append((x_e, float(g), float(g * g), d_e, float(np.sum(pa_col * a_col / d_e)), slope))
    vm = 2.0 * math.log(abs(crit[2] / gl)) if inner else None
    return _CpCurve(kappa, t, a_col, pa_col, dv, tuple(ends), vm)


def _cp_points(curve, w, c, nodes, r):
    """The curve of `_cp_curve` at log s = log s_l + w log(s_u / s_l),
    c = 1 - w, its points nodes[0] anchored at l, nodes[1] at the dip and
    nodes[2] at u.  Returns x, Re g, b^2, d Re g/dw and dx/dw.

    With d = r - g_c(e) and s - s_e from expm1 as in `_mp_points`, every
    difference is formed without cancellation: D_k - D_k(e) =
    a_k (2 kappa d + a_k (s - s_e)), F, x - x_e and b^2 = (s - s_e) -
    d (g_c(e) + r).  r is Newton's method on 1 / sum_k (c_k / D_k) =
    1 / (1/s - t), linear in r for one atom, from r (or the square-root law
    at the anchor), bracketed by +-sqrt(s) as in `_bracketed_newton`, until
    no step exceeds 1e-9 (|d| + |sqrt(s) - |g_c(e)||).  Along the curve
    r'(s) = -F_s / F_r, and Re dg/dz = r'(s) / x'(s).
    """
    kappa, t, a, pa, dv = curve.kappa, curve.t, curve.a, curve.pa, curve.dv
    if not len(a):  # the semicircle, on r = g_c(l) c + g_c(u) w
        (l, gl, *_), (u, gu, *_) = curve.ends
        ones = np.ones(len(w))
        return l * c + u * w, gl * c + gu * w, (4.0 / t) * w * c, (gu - gl) * ones, (u - l) * ones
    v = w * dv
    v[nodes[2]] = c[nodes[2]] * -dv
    xe, re, se, sum_e, slope = (np.empty(len(w)) for _ in range(5))
    de = np.empty((len(a), len(w)))
    for idx, end in zip(nodes[::2] + nodes[1:2], curve.ends):
        xe[idx], re[idx], se[idx], de[:, idx], sum_e[idx], slope[idx] = end
    if curve.vm is not None:
        v[nodes[1]] -= curve.vm
    ds = np.expm1(v) * se  # s - s_e
    s = se + ds
    inv = 1.0 / (s * se)
    far = np.sqrt(s) + np.abs(re)
    near = ds / far  # sqrt(s) - |g_c(e)|
    lo, hi = np.where(re > 0.0, -far, -near), np.where(re > 0.0, near, far)
    scale = (2.0 * kappa) * (sum_e - ds * inv)  # 2 kappa (1/s - t)
    ca = pa * a
    d = slope * ds if r is None else r - re
    for _ in range(100):
        d = np.where((d >= lo) & (d <= hi), d, 0.5 * (lo + hi))
        dd = a * (2.0 * kappa * d + a * ds)
        q = ca / (de + dd)  # c_k / D_k
        f = np.sum(q * dd / de, axis=0) - ds * inv
        lo = np.where(f < 0.0, d, lo)
        hi = np.where(f > 0.0, d, hi)
        with np.errstate(all="ignore"):
            step = f * np.sum(q, axis=0) / (np.sum(q * a / (de + dd), axis=0) * scale)
        d = d - step
        if np.all(np.abs(step) <= 1e-9 * (np.abs(d) + np.abs(near))):
            break
    r = re + d
    dd = a * (2.0 * kappa * d + a * ds)
    big_d = de + dd
    x = np.sum(pa * (a * d * de - (kappa + a * re) * dd) / (big_d * de), axis=0) + xe
    x -= t * d + (d * se - re * ds) * inv
    q2 = ca / (big_d * big_d)  # c_k / D_k^2
    f_r = (2.0 * kappa) * np.sum(q2 * a, axis=0)
    f_s = np.sum(q2 * a * a, axis=0) - 1.0 / (s * s)
    dr = -f_s / f_r
    dx = (np.sum(q2 * (a * a * s - kappa * kappa), axis=0) - t - 1.0 / s) * dr
    dx += r / (s * s) - np.sum(q2 * a * (kappa + a * r), axis=0)
    return x, r, ds - d * (re + r), dr * (s * dv), dx * (s * dv)


def _curve_hilbert(curve, lam, x):
    """h = -Re g at points lam of one support interval, read off the curve
    (`_MpCurve`, `_CpCurve`) the density `x` was built on.

    x(w) = lam is solved by Newton's method in the curve's parameter w from
    the density's nodes (x against w = sin^2(theta), interpolated), and
    bracketed as in `_bracketed_newton` by w = 0 and 1.  Each point keeps
    the anchor of its start; a compound-Poisson point solves Re g from its
    last.  The solve stops once no step exceeds 1e-9, and h is read at the
    iterate that last step leads to, to first order in it: both errors are
    about its square.  Next to the dip of a merged interval, where x(w) is
    flat, convergence is linear and a double lam no longer pins w.
    """
    w = np.interp(lam, x, _theta_grid(len(x))[0])
    if curve.vm is None:
        anchor = np.where(w <= 0.5, 0, 1)
    else:
        wm = curve.vm / curve.dv
        anchor = np.where(w < 0.5 * wm, 0, np.where(w < 0.5 + 0.5 * wm, 2, 1))
    nodes = [np.flatnonzero(anchor == k) for k in (0, 2, 1)]
    lo, hi = np.zeros(len(w)), np.ones(len(w))
    re_g = None
    for _ in range(100):
        xw, re_g, dre_g, dx = curve.at(w, nodes, re_g)
        f = xw - lam
        lo = np.where(f < 0.0, w, lo)
        hi = np.where(f > 0.0, w, hi)
        with np.errstate(all="ignore"):
            step = f / dx
        if np.all(np.abs(step) <= 1e-9):
            return step * dre_g - re_g
        w = np.where((w - step >= lo) & (w - step <= hi), w - step, 0.5 * (lo + hi))
    return -re_g


def _phi_prime(prior, t, g):
    """phi'(g) = -t + 1/g^2 - sum_k p_k kappa a_k^2 / (kappa + g a_k)^2."""
    out = 1.0 / g**2 - t
    for a, p in prior.atoms:
        out = out - p * prior.kappa * a * a / (prior.kappa + g * a) ** 2
    return out


def _phi_second(prior, g):
    """phi''(g) = -2/g^3 + sum_k 2 p_k kappa a_k^3 / (kappa + g a_k)^3."""
    out = -2.0 / g**3
    for a, p in prior.atoms:
        out = out + 2.0 * p * prior.kappa * a**3 / (prior.kappa + g * a) ** 3
    return out


def _real_branch(prior, t, x, dens):
    """Physical g at points x off the support of the density dens.

    Off the support g is real and increasing in x, and phi(g) = x (Biane
    1997).  So g lies on the increasing arc of phi between the critical
    points of the neighbouring edges (`SpectralDensity.critical`):
    (g_c(u_i), g_c(l_(i+1))) in a gap, (0, g_c(l_1)) left of the support
    and (g_c(u_n), 0) right of it, 0 being a pole of phi.  There phi(g) = x
    is solved by Newton's method in extended precision (`np.longdouble`, as
    in `_polished`) from the square-root law at the nearest edge x_e,
    g_c + sign(x - x_e) sqrt(2 (x - x_e) / phi''(g_c)) (Biane 1997).  Where
    that start leaves an outer bracket, x is far from the support and the
    start is the tail g ~ -1/(x - mean) instead.  A start or step that
    leaves the bracket is replaced by its midpoint, and each iterate
    narrows the bracket by the sign of phi(g) - x.  Iteration stops at a
    step below 1e-14 |g|, or once the steps, below 1e-8 |g|, no longer
    shrink: next to an edge, where phi' vanishes, roundoff in phi moves the
    root by more than that.  The points are few, so each is iterated as
    scalars.
    """
    edges = [e for interval in dens.intervals for e in interval]
    crit = [0.0, *(g for pair in dens.critical for g in pair), 0.0]
    out = np.empty(len(x))
    for i, xi in enumerate(x.tolist()):
        k = bisect.bisect(edges, xi)  # even off the support
        lo, hi = crit[k], crit[k + 1]
        e = k - 1 if k == len(edges) or (k > 0 and xi - edges[k - 1] < edges[k] - xi) else k
        d = xi - edges[e]
        r = 2.0 * d / _phi_second(prior, crit[e + 1])
        g = crit[e + 1] + math.copysign(math.sqrt(max(r, 0.0)), d)
        if not lo < g < hi and k in (0, len(edges)):
            g = -1.0 / (xi - prior.mean)
        g, xi = np.longdouble(g), np.longdouble(xi)
        prev = math.inf
        for _ in range(100):
            if not lo < g < hi:
                g = 0.5 * (lo + hi)
            f = _phi(prior, t, g) - xi
            if f < 0.0:
                lo = g
            elif f > 0.0:
                hi = g
            step = f / _phi_prime(prior, t, g)
            g -= step
            if abs(step) <= 1e-14 * abs(g) or prev <= abs(step) <= 1e-8 * abs(g):
                break
            prev = abs(step)
        out[i] = float(g)
    return out


def hilbert(prior, t, lam, dens: SpectralDensity):
    """Principal-value transform h(lam) = PV int rho(s)/(lam - s) ds = -Re g,
    solved at each eigenvalue lam, on or off the support.

    dens is a density of the same (prior, t).  On a support interval h is
    read off the curve the density was built on (`_curve_hilbert`); off it
    h = -g with g real (`_real_branch`), between the edges' critical points.
    """
    if dens.prior != prior or dens.t != t:
        raise ValueError("density does not match (prior, t)")
    lam = np.asarray(lam, dtype=float)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    h = np.empty(lam.shape)
    off = np.ones(lam.shape, dtype=bool)
    for (l, u), curve, x in zip(dens.intervals, dens.curves, dens.x):
        on = (lam >= l) & (lam <= u)
        if not np.any(on):
            continue
        h[on] = _curve_hilbert(curve, lam[on], x)
        off &= ~on
    if np.any(off):
        h[off] = -_real_branch(prior, t, lam[off], dens)
    return float(h[0]) if scalar else h


def _cumulative_simpson(f, h):
    """Integrals of uniform samples f (odd count) from the first node to each
    node, each step by the parabola of its Simpson panel."""
    steps = np.empty(len(f) - 1)
    steps[0::2] = 5.0 * f[:-1:2] + 8.0 * f[1::2] - f[2::2]
    steps[1::2] = -f[:-2:2] + 8.0 * f[1::2] + 5.0 * f[2::2]
    return np.concatenate([[0.0], np.cumsum(steps)]) * (h / 12.0)


def _potential_step(prior, t, g, x):
    """G(g) = -g x + F(g) at a real g with x = phi(g), where
    F(g) = -t g^2 / 2 + sum_k p_k kappa log|kappa + a_k g| - log|g| is an
    antiderivative of phi; so dG/dg = -g phi'(g) along x = phi(g)."""
    out = -g * x - 0.5 * t * g * g - math.log(abs(g))
    for a, p in prior.atoms:
        out += p * prior.kappa * math.log(abs(prior.kappa + a * g))
    return out


def log_potential(dens: SpectralDensity) -> float:
    """Sigma(mu) = E log|X - Y| with X, Y independent draws from mu.

    Sigma = int rho U with U(x) = E log|x - Y|, whose derivative h = -Re g
    is stored on the grid.  Across an interval U is the cumulative Simpson
    integral in theta of h dx/dtheta.  Off the support g is real with
    x = phi(g), so there int h dx = int -g phi'(g) dg = [G] (`_potential_step`)
    between critical points.  Left of the support g runs from 0 at
    x = -inf, where U(x) - log|x - c| vanishes for any c, to g_c(l_1); with
    -g phi(g) -> 1 and F(g) + log g -> kappa log kappa as g -> 0 that gives
    U(l_1) = G(g_c(l_1)) - 1 - kappa log kappa, and across a gap
    U(l_(i+1)) = U(u_i) + G(g_c(l_(i+1))) - G(g_c(u_i)).  O(N) in the grid
    size.
    """
    prior, t = dens.prior, dens.t
    total = 0.0
    pot = -1.0 - prior.kappa * math.log(prior.kappa)  # U(u_0) - G(g_c(u_0)), u_0 = -inf
    for (l, u), (gl, gu), w, rho, re_g, dxdtheta in zip(
        dens.intervals, dens.critical, dens.weights, dens.rho, dens.re_g, dens.dxdtheta
    ):
        pot += _potential_step(prior, t, gl, l)  # U(l)
        cum = _cumulative_simpson(-re_g * dxdtheta, _theta_grid(len(re_g))[4])
        total += float(np.dot(w * rho, cum)) + pot * float(np.dot(w, rho))
        pot += cum[-1] - _potential_step(prior, t, gu, u)
    return float(total)
