"""Spectral densities of free convolutions mu_t = mu_prior (+) semicircle(t).

The measures handled here are the asymptotic eigenvalue laws of
S + sqrt(t) * GOE, where S is a sample-covariance-type matrix whose limiting
law is a (generalized) Marchenko-Pastur distribution with aspect ratio kappa.
Everything downstream (matrix denoising, state evolution, message passing)
consumes the objects built here: Stieltjes transforms, densities on adaptive
grids, support edges, Hilbert transforms, and the log potential
Sigma(mu) = E log|X - Y|.

Conventions
-----------
Stieltjes transform g(z) = E[1/(X - z)], analytic on the upper half plane,
with Im g(z) > 0 for Im z > 0 and g(z) ~ -1/z as |z| -> infinity.  Densities
are recovered from the boundary values rho(x) = Im g(x + i*eps) / pi.

The R-transform of the prior is R(s) = sum_k p_k * kappa * a_k / (kappa - s * a_k)
(a single atom a=1 gives the plain Marchenko-Pastur R(s) = kappa / (kappa - s)).
Adding a semicircle of variance t adds t*s, so g solves the self-consistency

    z = -t*g + R(-g) - 1/g ,

which is polynomial in g after clearing denominators: a cubic for the plain
MP prior (solved in closed form), degree 2 + #atoms for the general prior
(solved via companion matrices).
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "PriorSpectrum",
    "SpectralDensity",
    "StieltjesSolution",
    "NoAdmissibleRoot",
    "EdgeDetectionFailed",
    "stieltjes",
    "density",
    "support_edges",
    "hilbert",
    "log_potential",
    "sigma_t_derivative",
]

DEFAULT_EPS = 1e-8
DEFAULT_NODES = 801

_OMEGA = np.exp(2j * np.pi / 3)


class NoAdmissibleRoot(RuntimeError):
    """No root of the self-consistency polynomial lies in the upper half plane."""


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
    kind : str
        Either ``"marchenko_pastur"`` or ``"compound_poisson"``.  The two kinds
        select independent root-finding code paths (closed-form cubic vs
        companion matrices); with atoms ((1, 1),) they describe the same
        measure, which is exercised as a cross-check in the tests.
    """

    kappa: float
    atoms: tuple[tuple[float, float], ...] = ((1.0, 1.0),)
    kind: str = "marchenko_pastur"

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.kind not in ("marchenko_pastur", "compound_poisson"):
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if len(self.atoms) == 0:
            raise ValueError("need at least one atom")
        for a, p in self.atoms:
            # a = 0 is allowed: an atom at zero contributes nothing to the
            # R-transform, so {(0, 1)} degenerates to a pure point mass whose
            # free convolution with the semicircle is the semicircle itself
            if a < 0 or not np.isfinite(a) or p <= 0:
                raise ValueError(
                    f"atom values must be finite and >= 0 with positive weights,"
                    f" got ({a}, {p})"
                )
        wsum = sum(p for _, p in self.atoms)
        if abs(wsum - 1.0) > 1e-12:
            raise ValueError(f"atom weights must sum to 1, got {wsum!r}")
        if self.kind == "marchenko_pastur" and self.atoms != ((1.0, 1.0),):
            raise ValueError("marchenko_pastur kind fixes atoms to ((1, 1),)")

    @classmethod
    def marchenko_pastur(cls, kappa: float) -> "PriorSpectrum":
        return cls(kappa=float(kappa))

    @classmethod
    def compound_poisson(cls, kappa, atoms) -> "PriorSpectrum":
        atoms = tuple((float(a), float(p)) for a, p in atoms)
        return cls(kappa=float(kappa), atoms=atoms, kind="compound_poisson")

    # --- moments -----------------------------------------------------------

    @property
    def mean_atom(self) -> float:
        """m_a = E[a], first moment of the variance profile."""
        return sum(a * p for a, p in self.atoms)

    @property
    def second_moment_atom(self) -> float:
        """c_a = E[a^2]."""
        return sum(a * a * p for a, p in self.atoms)

    @property
    def mean(self) -> float:
        return self.mean_atom

    @property
    def variance(self) -> float:
        return self.second_moment_atom / self.kappa

    @property
    def second_moment(self) -> float:
        return self.mean_atom**2 + self.second_moment_atom / self.kappa

    def r_transform(self, s):
        """R(s) = sum_k p_k kappa a_k / (kappa - s a_k)."""
        out = 0.0
        for a, p in self.atoms:
            out = out + p * self.kappa * a / (self.kappa - s * a)
        return out


@dataclasses.dataclass(frozen=True)
class StieltjesSolution:
    """Admissible solution g(z) of the self-consistency equation at one z."""

    z: complex
    g: complex
    t: float
    residual: float


# =======================
# polynomial root finding
# =======================


def _selfcons(prior, t, z, g):
    """Residual F(g) = z + t g + 1/g - R(-g); zero at every branch of g(z)."""
    return z + t * g + 1.0 / g - prior.r_transform(-g)


def _coeffs_desc(prior, t, z):
    """Descending coefficients of the cleared polynomial P_z(g), shape (M, D+1)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if prior.kind == "marchenko_pastur":
        kappa = prior.kappa
        one = np.ones_like(z)
        if t != 0.0:
            cols = [t * one, z + t * kappa, z * kappa + 1.0 - kappa, kappa * one]
        else:
            cols = [z, z * kappa + 1.0 - kappa, kappa * one]
        return np.stack(cols, axis=-1)
    acoef, bcoef = _poly_ab(prior, t)
    deg = len(acoef) - 1 if t != 0.0 else len(bcoef) - 1
    acoef = acoef[: deg + 1]  # top entries vanish when t = 0
    # atoms at zero lower the degree: top coefficients are exact zeros then
    while (
        deg > 1
        and acoef[deg] == 0.0
        and (deg >= len(bcoef) or bcoef[deg] == 0.0)
    ):
        deg -= 1
        acoef = acoef[: deg + 1]
    coeffs = np.zeros((len(z), deg + 1), dtype=complex)
    coeffs[:, : len(acoef)] += acoef
    coeffs[:, : len(bcoef)] += z[:, None] * bcoef
    return coeffs[:, ::-1]


def _newton_polish(coeffs, g, steps=2):
    """Safeguarded Newton steps on the cleared polynomial (Horner form).

    coeffs is `_coeffs_desc(prior, t, z)` at the points of g.  Stable where
    the analytic root formulas lose the small root (large |z|, tiny t).
    Steps are only accepted when they reduce |P|: near collided root pairs
    (square-root edges) plain Newton stalls at the pair midpoint and would
    otherwise corrupt an already-accurate root.
    """

    def horner(gv):
        p = coeffs[..., 0]
        dp = np.zeros_like(gv)
        for k in range(1, coeffs.shape[-1]):
            dp = dp * gv + p
            p = p * gv + coeffs[..., k]
        return p, dp

    p0, dp0 = horner(g)
    for _ in range(steps):
        with np.errstate(all="ignore"):
            step = p0 / dp0
        cand = g - np.where(np.isfinite(step), step, 0.0)
        p1, dp1 = horner(cand)
        better = np.abs(p1) < np.abs(p0)
        g = np.where(better, cand, g)
        p0 = np.where(better, p1, p0)
        dp0 = np.where(better, dp1, dp0)
    return g


def _cardano(c3, c2, c1, c0):
    """All three roots of c3 g^3 + c2 g^2 + c1 g + c0 with complex coefficients.

    Vectorized over the coefficient arrays; returns shape (..., 3).
    """
    b = c2 / c3
    c = c1 / c3
    d = c0 / c3
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    s = np.sqrt(0.25 * q * q + p**3 / 27.0 + 0j)
    u3a = -0.5 * q + s
    u3b = -0.5 * q - s
    u3 = np.where(np.abs(u3a) >= np.abs(u3b), u3a, u3b)
    u = u3 ** (1.0 / 3.0)
    # triple-root degeneracy: fall back to a tiny offset, Newton cleans it up
    u = np.where(np.abs(u) < 1e-100, 1e-100 + 0j, u)
    roots = []
    for k in range(3):
        w = u * _OMEGA**k
        roots.append(w - p / (3.0 * w) - b / 3.0)
    return np.stack(roots, axis=-1)


def _quadratic(c2, c1, c0):
    """Both roots of c2 g^2 + c1 g + c0, stable in complex arithmetic."""
    disc = np.sqrt(c1 * c1 - 4.0 * c2 * c0 + 0j)
    # pick the sign that avoids cancellation in c1 + disc
    flip = np.real(np.conj(c1) * disc) < 0.0
    disc = np.where(flip, -disc, disc)
    qq = -0.5 * (c1 + disc)
    with np.errstate(all="ignore"):
        r1 = np.where(np.abs(c2) > 0, qq / c2, -c0 / c1)
        r2 = np.where(np.abs(qq) > 0, c0 / qq, r1)
    return np.stack([r1, r2], axis=-1)


def _poly_ab(prior, t):
    """Ascending coefficients (A, B) with P_z(g) = A(g) + z * B(g) the cleared
    self-consistency polynomial for the compound-Poisson prior."""
    kappa = prior.kappa
    pi = np.array([1.0])
    for a, _ in prior.atoms:
        pi = np.convolve(pi, [kappa, a])
    bcoef = np.concatenate([[0.0], pi])  # g * Pi(g)
    deg = len(pi) + 2
    acoef = np.zeros(deg)
    if t != 0.0:
        acoef[2 : 2 + len(pi)] += t * pi
    acoef[: len(pi)] += pi
    for i, (a, p) in enumerate(prior.atoms):
        pi_no = np.array([1.0])
        for j, (aj, _) in enumerate(prior.atoms):
            if j != i:
                pi_no = np.convolve(pi_no, [kappa, aj])
        acoef[1 : 1 + len(pi_no)] -= p * kappa * a * pi_no
    return acoef, bcoef


def _companion_roots(coeffs_desc):
    """Batched np.roots: eigenvalues of the stacked companion matrices.

    coeffs_desc has shape (M, D+1), descending powers, nonzero leading column.
    """
    c = coeffs_desc / coeffs_desc[:, :1]
    m, dp1 = c.shape
    deg = dp1 - 1
    comp = np.zeros((m, deg, deg), dtype=c.dtype)
    idx = np.arange(deg - 1)
    comp[:, idx + 1, idx] = 1.0
    comp[:, 0, :] = -c[:, 1:]
    return np.linalg.eigvals(comp)


def _all_roots(prior, t, z, coeffs=None):
    """All branches of g(z), shape (M, deg).  z is a complex array.

    Callers that also polish the roots pass coeffs = `_coeffs_desc(prior, t,
    z)`, so it is built once.  For t much smaller than the other coefficient
    scales the leading (t g^3) term makes the direct root formulas
    ill-conditioned; in that regime the reversed polynomial in w = 1/g is
    well-scaled, so solve that and invert.  The huge spurious branch then
    comes out as w ~ 0 (inaccurate/inf), which is harmless because it is
    never the admissible pick.
    """
    if coeffs is None:
        coeffs = _coeffs_desc(prior, t, z)
    invert = t != 0.0 and t < 1e-4 * (1.0 + float(np.mean(np.abs(z))))
    if invert:
        coeffs = coeffs[:, ::-1]
    if prior.kind == "marchenko_pastur":
        if t != 0.0:
            roots = _cardano(coeffs[:, 0], coeffs[:, 1], coeffs[:, 2], coeffs[:, 3])
        else:
            roots = _quadratic(coeffs[:, 0], coeffs[:, 1], coeffs[:, 2])
    else:
        roots = _companion_roots(coeffs)
    if invert:
        with np.errstate(all="ignore"):
            roots = 1.0 / roots
        roots = np.where(np.isfinite(roots), roots, -1e100 - 1e100j)
    return roots


def _homotopy_solve(prior, t, x, eps):
    """Physical branch of g at z = x + i*eps for real x (vectorized).

    Follows the root from high in the upper half plane, where g ~ -1/z is
    unambiguous, down to the requested offset, always taking the admissible
    root closest to the previous level and polishing with Newton.  Robust on
    and off the support, including inside spectral gaps where spurious
    branches of the polynomial can also lie in the upper half plane.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    scale = 1.0 + np.sqrt(prior.second_moment + max(t, 0.0)) + np.abs(x)
    top = np.maximum(10.0 * scale, 2.0 * eps)
    n_steps = int(
        max(20, 4 * np.ceil(np.log10(top.max() / eps)))
    )
    ladder = np.exp(
        np.linspace(np.log(top), np.full_like(top, np.log(eps)), n_steps)
    )
    g = -1.0 / (x + 1j * top)
    rows = np.arange(len(x))
    for k in range(n_steps):
        z = x + 1j * ladder[k]
        coeffs = _coeffs_desc(prior, t, z)
        roots = _all_roots(prior, t, z, coeffs)
        dist = np.abs(roots - g[:, None])
        # exclude clearly lower-half-plane roots; roots within roundoff of the
        # real axis (off-support points at small heights) are left to the
        # closest-to-previous rule, which is what resolves them correctly
        adm = roots.imag > -1e-6 * (1.0 + np.abs(roots))
        dist_adm = np.where(adm, dist, np.inf)
        pick = np.argmin(dist_adm, axis=1)
        none = ~np.isfinite(dist_adm[rows, pick])
        if np.any(none):
            pick[none] = np.argmin(dist[none], axis=1)
        g = roots[rows, pick]
        g = _newton_polish(coeffs, g, steps=1)
    g = _newton_polish(_coeffs_desc(prior, t, x + 1j * eps), g, steps=2)
    # at square-root edges the physical root and its conjugate collide as the
    # height shrinks; if polishing landed on the lower partner, flip to the
    # conjugate root (same Re, which is all a collision point determines)
    neg = g.imag < 0.0
    if np.any(neg):
        roots = _all_roots(prior, t, x[neg] + 1j * eps)
        sub = np.arange(int(neg.sum()))
        cand = roots[sub, np.argmin(np.abs(roots - np.conj(g[neg])[:, None]), axis=1)]
        near = np.abs(cand - np.conj(g[neg])) < 1e-5 * (1.0 + np.abs(g[neg]))
        gn = g[neg]
        gn[near] = cand[near]
        g[neg] = gn
    bad = g.imag < -1e-6 * (1.0 + np.abs(g))
    if np.any(bad):
        raise NoAdmissibleRoot(
            f"homotopy ended in the lower half plane at x={x[bad][:3]} (t={t})"
        )
    return g


def _grid_branch(prior, t, x, eps):
    """Physical g at points x of one support interval, at height eps.

    Fast path: on the support the physical root has Im g = pi*rho, which is
    the admissible root of largest imaginary part.  Points where more than
    one root lies in the upper half plane (spurious branch pairs near gaps
    and branch collisions) are re-solved by homotopy, which is unambiguous.
    """
    z = x + 1j * eps
    coeffs = _coeffs_desc(prior, t, z)
    roots = _all_roots(prior, t, z, coeffs)
    im = roots.imag
    g = roots[np.arange(len(x)), np.argmax(im, axis=1)]
    n_adm = (im > 1e-13).sum(axis=1)
    ambiguous = n_adm > 1
    if np.any(ambiguous):
        g[ambiguous] = _homotopy_solve(prior, t, x[ambiguous], eps)
    g = _newton_polish(coeffs, g, steps=2)
    return g


# ==================
# public operations
# ==================


def stieltjes(prior: PriorSpectrum, t: float, z: complex, eps: float = DEFAULT_EPS):
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
    g = _homotopy_solve(prior, t, np.array([z.real]), z.imag)[0]
    # the residual mixes terms of size |z| and O(1); finish with Newton in
    # extended precision so cancellation noise stays below the 1e-10 contract
    # even at |z| ~ 1e6
    zl = np.clongdouble(z)
    gl = np.clongdouble(g)
    coeffs = _coeffs_desc(prior, t, np.array([z]))[0].astype(np.clongdouble)
    for _ in range(3):
        p = np.clongdouble(0.0)
        dp = np.clongdouble(0.0)
        for c in coeffs:
            dp = dp * gl + p
            p = p * gl + c
        if dp != 0.0:
            gl = gl - p / dp
    res = abs(_selfcons(prior, np.longdouble(t), zl, gl))
    return StieltjesSolution(z=z, g=complex(gl), t=t, residual=float(res))


def _phi(prior, t, g):
    """Inverse map z = phi(g) = -t g + R(-g) - 1/g on a real branch."""
    return -t * g + prior.r_transform(-g) - 1.0 / g


def _edge_candidates(prior, t):
    """Real critical points of phi and their images z = phi(g).

    phi'(g) = 0 cleared of denominators is a polynomial of degree
    2 + 2 * #atoms; every support edge is among its real critical values.
    """
    kappa = prior.kappa
    pi = np.array([1.0])
    for a, _ in prior.atoms:
        pi = np.convolve(pi, [kappa, a])
    pi2 = np.convolve(pi, pi)
    deg = len(pi2) + 2
    poly = np.zeros(deg)
    poly[2 : 2 + len(pi2)] -= t * pi2
    poly[: len(pi2)] += pi2
    for i, (a, p) in enumerate(prior.atoms):
        pi_no = np.array([1.0])
        for j, (aj, _) in enumerate(prior.atoms):
            if j != i:
                pi_no = np.convolve(pi_no, [kappa, aj])
        pin2 = np.convolve(pi_no, pi_no)
        poly[2 : 2 + len(pin2)] -= p * kappa * a**2 * pin2
    roots = np.roots(poly[::-1])
    real = roots[np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots))].real
    # drop critical points sitting on poles of phi
    keep = np.abs(real) > 1e-12
    for a, _ in prior.atoms:
        if a > 0:
            keep &= np.abs(real + kappa / a) > 1e-12
    real = real[keep]
    if real.size == 0:
        raise EdgeDetectionFailed(f"no real critical points for t={t}")
    zc = _phi(prior, t, real)
    zc = np.sort(zc[np.isfinite(zc)])
    # dedupe collisions
    out = [zc[0]]
    for v in zc[1:]:
        if v - out[-1] > 1e-11 * (1.0 + abs(v)):
            out.append(v)
    return np.array(out)


def _has_nonreal_root(prior, t, x):
    """Whether the real branch polynomial P_x(g) has a non-real root, per x.

    Needs no tolerance: LAPACK returns each real eigenvalue of a real
    companion matrix with imaginary part exactly zero.
    """
    roots = _companion_roots(_coeffs_desc(prior, t, x).real)
    return (roots.imag != 0.0).any(axis=1)


def support_edges(prior: PriorSpectrum, t: float):
    """Support intervals of mu_t = prior (+) semicircle(t), t > 0.

    Candidate edges are the real critical values of the inverse map
    z = phi(g) (Biane 1997).  Roots of the real branch polynomial P_x(g)
    collide on the real axis only at such values, so the number of non-real
    roots is constant between consecutive candidates; each region is
    classified by that count at its midpoint (`_has_nonreal_root`).  On the
    support the physical g is non-real, so a region where every root is real
    is off it.  The test is made at real x: unlike a density probe at
    x + i*eps it needs no offset, and thin intervals such as the bulk near
    zero (mass 1 - kappa at small kappa) are not lost.  The edges are the
    critical values themselves, which solve the edge equation to machine
    precision.

    Returns
    -------
    tuple of (left, right) pairs, ascending.
    """
    if t <= 0:
        raise ValueError("support_edges requires t > 0 (t = 0 edges are analytic)")
    zc = _edge_candidates(prior, t)
    if len(zc) == 2:
        # a bounded nonempty support with exactly two candidates is a single
        # interval; no classification needed
        edges = [(zc[0], True), (zc[1], False)]
    else:
        span = max(zc[-1] - zc[0], 1.0)
        mids = np.concatenate(
            [
                [zc[0] - 0.1 * span - 1.0],
                0.5 * (zc[1:] + zc[:-1]),
                [zc[-1] + 0.1 * span + 1.0],
            ]
        )
        on = _has_nonreal_root(prior, t, mids)
        if on[0] or on[-1]:
            raise EdgeDetectionFailed(
                "support appears unbounded; edge candidates are wrong"
            )
        edges = []
        for i in range(len(zc)):
            if on[i] != on[i + 1]:
                edges.append((zc[i], bool(on[i + 1])))  # True: left edge
        if len(edges) % 2 != 0 or any(
            edges[i][1] == edges[i + 1][1] for i in range(len(edges) - 1)
        ):
            raise EdgeDetectionFailed(
                f"inconsistent on/off pattern at t={t}: {edges}"
            )
    intervals = tuple(
        (edges[2 * i][0], edges[2 * i + 1][0]) for i in range(len(edges) // 2)
    )
    if prior.kind == "marchenko_pastur" and len(intervals) > 2:
        raise EdgeDetectionFailed(
            f"MP prior cannot have {len(intervals)} support intervals"
        )
    return intervals


def _simpson_weights(n):
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of nodes >= 3")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


@dataclasses.dataclass
class SpectralDensity:
    """Density of mu_t on its support, sampled on edge-clustered grids.

    Per interval [l, u] the grid is x = l + (u - l) sin^2(theta) with theta
    uniform on [0, pi/2]; this clusters nodes at the square-root edges and
    makes composite Simpson in theta spectrally accurate for edge integrands.

    Attributes
    ----------
    intervals : tuple of (l, u)
    x, rho, re_g : tuples of arrays, one per interval
        Grid, density, and Re g(x + i eps) (the negative Hilbert transform).
    atom_mass_at_zero : float
        Only nonzero for the t = 0 Marchenko-Pastur law with kappa < 1.
    """

    prior: PriorSpectrum
    t: float
    eps: float
    intervals: tuple
    x: tuple
    rho: tuple
    re_g: tuple
    atom_mass_at_zero: float = 0.0

    def _weights(self, i):
        l, u = self.intervals[i]
        n = len(self.x[i])
        theta = np.linspace(0.0, 0.5 * np.pi, n)
        h = theta[1] - theta[0]
        return _simpson_weights(n) * h * (u - l) * np.sin(2.0 * theta)

    def integrate(self, values_per_interval):
        """Sum_i int values_i(x) dx over the support intervals."""
        out = 0.0
        for i, v in enumerate(values_per_interval):
            out += float(np.dot(self._weights(i), v))
        return out

    def mass(self):
        return self.integrate(self.rho) + self.atom_mass_at_zero

    def mean(self):
        return self.integrate([r * x for r, x in zip(self.rho, self.x)])

    def second_moment(self):
        return self.integrate([r * x * x for r, x in zip(self.rho, self.x)])

    def cube_integral(self):
        """int rho(x)^3 dx over the continuous part."""
        return self.integrate([r**3 for r in self.rho])

    def hilbert_on_grid(self):
        """h(x) = PV int rho(s)/(x - s) ds = -Re g on the stored grid."""
        return tuple(-rg for rg in self.re_g)

    def interp(self, lam, values_per_interval, outside=np.nan):
        """Piecewise-linear interpolation of per-interval node values at lam;
        points outside every interval get `outside`."""
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        out = np.full(lam.shape, outside, dtype=float)
        for (l, u), xg, vg in zip(self.intervals, self.x, values_per_interval):
            m = (lam >= l) & (lam <= u)
            if np.any(m):
                out[m] = np.interp(lam[m], xg, vg)
        return out


def _mp_analytic_density(prior, n_nodes, eps):
    """t = 0 closed form: bulk kappa sqrt((l+ - x)(x - l-))/(2 pi x) plus a
    point mass max(1 - kappa, 0) at zero."""
    kappa = prior.kappa
    lam_m = (1.0 - kappa**-0.5) ** 2
    lam_p = (1.0 + kappa**-0.5) ** 2
    theta = np.linspace(0.0, 0.5 * np.pi, n_nodes)
    x = lam_m + (lam_p - lam_m) * np.sin(theta) ** 2
    with np.errstate(all="ignore"):
        rho = kappa * np.sqrt(np.maximum((lam_p - x) * (x - lam_m), 0.0)) / (2 * np.pi * x)
    rho = np.where(np.isfinite(rho), rho, 0.0)
    g = _grid_branch(prior, 0.0, x, eps)
    return SpectralDensity(
        prior=prior,
        t=0.0,
        eps=eps,
        intervals=((lam_m, lam_p),),
        x=(x,),
        rho=(rho,),
        re_g=(g.real,),
        atom_mass_at_zero=max(1.0 - kappa, 0.0),
    )


def density(
    prior: PriorSpectrum,
    t: float,
    n_nodes: int = DEFAULT_NODES,
    eps: float = DEFAULT_EPS,
) -> SpectralDensity:
    """Density of mu_t = prior (+) semicircle(t) on edge-adapted grids.

    For t > 0 the support is located with `support_edges` and the admissible
    Stieltjes branch is evaluated at x + i*eps on each interval.  t = 0 falls
    back to the closed-form Marchenko-Pastur density (prior kind must be MP;
    the generalized law has no closed form at t = 0).

    On intervals narrower than eps / 1e-5 the offset is lowered to 1e-5 times
    the interval width, so that very thin bulks (t well below 1e-6) are not
    smeared by the evaluation offset itself.

    Parameters
    ----------
    n_nodes : int
        Grid nodes per interval (odd; even values are bumped by one).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if n_nodes % 2 == 0:
        n_nodes += 1
    if t == 0.0:
        if prior.kind != "marchenko_pastur":
            raise ValueError("t = 0 density is only available for the MP prior")
        return _mp_analytic_density(prior, n_nodes, eps)
    intervals = support_edges(prior, t)
    xs, rhos, regs = [], [], []
    for l, u in intervals:
        theta = np.linspace(0.0, 0.5 * np.pi, n_nodes)
        x = l + (u - l) * np.sin(theta) ** 2
        g = _grid_branch(prior, t, x, min(eps, 1e-5 * (u - l)))
        xs.append(x)
        rhos.append(np.maximum(g.imag / np.pi, 0.0))
        regs.append(g.real)
    return SpectralDensity(
        prior=prior,
        t=t,
        eps=eps,
        intervals=intervals,
        x=tuple(xs),
        rho=tuple(rhos),
        re_g=tuple(regs),
    )


def _phi_prime(prior, t, g):
    """phi'(g) = -t + 1/g^2 - sum_k p_k kappa a_k^2 / (kappa + g a_k)^2."""
    out = 1.0 / g**2 - t
    for a, p in prior.atoms:
        out = out - p * prior.kappa * a * a / (prior.kappa + g * a) ** 2
    return out


def _real_branch(prior, t, x, eps):
    """Physical g at real x off the support (vectorized).

    There every root of P_x is real and g'(x) = int rho(s)/(s - x)^2 ds > 0,
    so the physical g is a real root on which the inverse map phi increases.
    Where that root is not unique, g is solved by homotopy at x + i*eps.
    """
    coeffs = _coeffs_desc(prior, t, x)
    # exactly real where real: see `_has_nonreal_root`
    roots = _companion_roots(coeffs.real)
    with np.errstate(all="ignore"):
        up = (roots.imag == 0.0) & (_phi_prime(prior, t, roots.real) > 0.0)
    g = _newton_polish(coeffs, roots.real[np.arange(len(x)), np.argmax(up, axis=1)] + 0j)
    unique = up.sum(axis=1) == 1
    if not np.all(unique):
        g[~unique] = _homotopy_solve(prior, t, x[~unique], eps)
    return g


def hilbert(prior, t, lam, dens: SpectralDensity | None = None, eps: float = DEFAULT_EPS):
    """Principal-value transform h(lam) = PV int rho(s)/(lam - s) ds = -Re g,
    solved at each eigenvalue lam, on or off the support.

    On a support interval [l, u], g is the `_grid_branch` root at
    lam + i*min(eps, 1e-5 (u - l)), the offset `density` uses on its grid.
    Off the support it is the real root of `_real_branch`.  `dens`, a
    density of the same (prior, t), only supplies the support intervals;
    without it they are located here.
    """
    if dens is None:
        dens = density(prior, t)
    elif dens.prior != prior or dens.t != t:
        raise ValueError("density does not match (prior, t)")
    lam = np.asarray(lam, dtype=float)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    g = np.empty(lam.shape, dtype=complex)
    off = np.ones(lam.shape, dtype=bool)
    for l, u in dens.intervals:
        on = (lam >= l) & (lam <= u)
        if np.any(on):
            g[on] = _grid_branch(prior, t, lam[on], min(eps, 1e-5 * (u - l)))
            off &= ~on
    if np.any(off):
        g[off] = _real_branch(prior, t, lam[off], eps)
    return float(-g.real[0]) if scalar else -g.real


def _cumulative_simpson(f, h):
    """Integrals of uniform samples f (odd count) from the first node to each
    node, each step by the parabola of its Simpson panel."""
    steps = np.empty(len(f) - 1)
    steps[0::2] = 5.0 * f[:-1:2] + 8.0 * f[1::2] - f[2::2]
    steps[1::2] = -f[:-2:2] + 8.0 * f[1::2] + 5.0 * f[2::2]
    return np.concatenate([[0.0], np.cumsum(steps)]) * (h / 12.0)


def log_potential(dens: SpectralDensity) -> float:
    """Sigma(mu) = E log|X - Y| with X, Y independent draws from mu.

    Sigma = int rho U with U(x) = E log|x - Y|, whose derivative h = -Re g
    is stored on the grid.  On [l, u], U(l) is one Simpson sum, its own
    interval's log(x - l) taken as log(u - l) + 2 log sin(theta); U
    further on is the cumulative Simpson integral in theta of
    h (u - l) sin(2 theta).  O(N) in the grid size.  Densities with an atom
    are rejected (Sigma diverges).
    """
    if dens.atom_mass_at_zero != 0.0:
        raise ValueError("log potential diverges for densities with an atom")
    masses = [dens._weights(i) * r for i, r in enumerate(dens.rho)]
    total = 0.0
    for i, ((l, u), re_g) in enumerate(zip(dens.intervals, dens.re_g)):
        theta = np.linspace(0.0, 0.5 * np.pi, len(re_g))
        pot_l = float(np.dot(masses[i][1:], np.log(u - l) + 2.0 * np.log(np.sin(theta[1:]))))
        for j, (x, m) in enumerate(zip(dens.x, masses)):
            if j != i:
                pot_l += float(np.dot(m, np.log(np.abs(x - l))))
        dpot = -re_g * (u - l) * np.sin(2.0 * theta)
        total += float(np.dot(masses[i], pot_l + _cumulative_simpson(dpot, theta[1])))
    return total


def sigma_t_derivative(prior, t) -> float:
    """d Sigma(mu_t) / dt = (2 pi^2 / 3) int rho_t^3.

    The identity follows from the Burgers evolution of the density under
    semicircular flow; validated against finite differences of
    `log_potential` in the tests.
    """
    if t <= 0:
        raise ValueError("sigma_t_derivative requires t > 0")
    return (2.0 * np.pi**2 / 3.0) * density(prior, t).cube_integral()
