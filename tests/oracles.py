"""Oracles shared by the test modules; no production path uses them."""

import dataclasses

import numpy as np

from quadnet import freeprob

# the height above the real axis at which the complex-plane references
# solve g where a test needs no closer one
EPS = 1e-8


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


def general_path(monkeypatch, *priors):
    """Send the prior objects `priors` down `freeprob`'s compound-Poisson
    path, and `coeffs_desc`'s, although their atom law be the unit atom:
    the tests check that path against the Marchenko-Pastur closed form on
    one measure.  Every other object, an equal one included, keeps the path
    of its atom law (`freeprob._is_marchenko_pastur`)."""
    closed_form = freeprob._is_marchenko_pastur
    monkeypatch.setattr(freeprob, "_is_marchenko_pastur",
                        lambda prior: closed_form(prior) and all(prior is not p for p in priors))


def _poly_ab(prior, t):
    """Ascending coefficients (A, B) with P_z(g) = A(g) + z * B(g) the cleared
    self-consistency polynomial for the compound-Poisson prior."""
    pi, pi_no = freeprob._pi_products(prior)
    bcoef = np.concatenate([[0.0], pi])  # g * Pi(g)
    acoef = np.zeros(len(pi) + 2)
    acoef[2 : 2 + len(pi)] += t * pi
    acoef[: len(pi)] += pi
    for (a, p), pk in zip(prior.atoms, pi_no):
        acoef[1 : 1 + len(pk)] -= p * prior.kappa * a * pk
    return acoef, bcoef


def coeffs_desc(prior, t, z):
    """Descending coefficients of the cleared polynomial P_z(g), shape
    (M, D+1), also at t = 0.  For the Marchenko-Pastur prior the cubic
    t g^3 + (z + t kappa) g^2 + (z kappa + 1 - kappa) g + kappa, whose
    leading coefficient t vanishes at t = 0, leaving the quadratic below
    it; for the compound-Poisson prior A(g) + z B(g) of `_poly_ab`, whose
    vanishing top entries (atoms at zero, or t = 0) are dropped."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if not freeprob._is_marchenko_pastur(prior):
        acoef, bcoef = _poly_ab(prior, t)
        deg = len(acoef) - 1
        while deg > 1 and acoef[deg] == 0.0 and (deg >= len(bcoef) or bcoef[deg] == 0.0):
            deg -= 1
        coeffs = np.zeros((len(z), deg + 1), dtype=complex)
        coeffs += acoef[: deg + 1]
        coeffs[:, : len(bcoef)] += z[:, None] * bcoef[: deg + 1]
        return coeffs[:, ::-1]
    one, kappa = np.ones_like(z), prior.kappa
    cols = [t * one, z + t * kappa, z * kappa + 1.0 - kappa, kappa * one]
    return np.stack(cols[1:] if t == 0.0 else cols, axis=-1)


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


def all_roots(t, z, coeffs):
    """All branches of g(z), shape (M, deg), as companion-matrix eigenvalues
    of coeffs = `coeffs_desc(prior, t, z)` at the complex points z, also at
    t = 0.

    For 0 < t much smaller than the other coefficient scales the leading
    (t g^3) term makes the direct solve ill-conditioned; in that regime the
    reversed polynomial in w = 1/g is well-scaled, so solve that and
    invert.  The huge spurious branch then comes out as w ~ 0
    (inaccurate/inf), which is harmless because it is never the admissible
    pick.
    """
    invert = 0.0 < t < 1e-4 * (1.0 + float(np.mean(np.abs(z))))
    roots = _companion_roots(coeffs[:, ::-1] if invert else coeffs)
    if invert:
        with np.errstate(all="ignore"):
            roots = 1.0 / roots
        roots = np.where(np.isfinite(roots), roots, -1e100 - 1e100j)
    return roots


def newton_polish(coeffs, g, steps=2):
    """Safeguarded Newton steps on the polynomials of descending
    coefficients coeffs at the points of g (Horner form).  Steps are only
    accepted when they reduce |P|: near collided root pairs (square-root
    edges) plain Newton stalls at the pair midpoint and would otherwise
    corrupt an already-accurate root."""

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


def upper_root(prior, t, x, eps):
    """g at x + i eps as the companion root of largest imaginary part,
    polished by two Newton steps: on the support that is the physical
    branch, Im g = pi rho, except where a second root also lies in the
    upper half plane (`homotopy_solve` stays unambiguous there)."""
    z = np.atleast_1d(np.asarray(x, dtype=float)) + 1j * eps
    coeffs = coeffs_desc(prior, t, z)
    roots = all_roots(t, z, coeffs)
    return newton_polish(coeffs, roots[np.arange(len(roots)), np.argmax(roots.imag, axis=1)])


def has_nonreal_root(prior, t, x):
    """Whether the real branch polynomial P_x(g) has a non-real root, per x.

    Needs no tolerance: LAPACK returns each real eigenvalue of a real
    companion matrix with imaginary part exactly zero.
    """
    roots = _companion_roots(coeffs_desc(prior, t, x).real)
    return (roots.imag != 0.0).any(axis=1)


def companion_critical_points(prior, t):
    """Real critical points of phi for any prior from the companion matrix
    of phi'(g) = 0 cleared of denominators, as `freeprob._edge_candidates`
    finds them for the compound-Poisson prior: (z, g_c) sorted by z, with
    collided critical values kept once.  The reference for the
    Marchenko-Pastur path, which needs no eigensolver."""
    return freeprob._collided_once(freeprob._companion_candidates(prior, t))


def support_edges(prior, t):
    """The support intervals (l, u) of mu_t, t > 0, ascending, as
    `freeprob._support` classifies them by the sign of phi''."""
    return tuple(interval for interval, *_ in freeprob._support(prior, t))


def root_count_support(prior, t):
    """Support intervals of mu_t, t > 0, by counting non-real roots: the
    reference for the phi'' rule of `freeprob._support`.

    Roots of P_x(g) collide on the real axis only at critical values of phi,
    so the number of non-real roots is constant between consecutive edge
    candidates (`freeprob._edge_candidates`).  Each region, the two beyond
    the outer candidates included, is classified by `has_nonreal_root` at
    its midpoint: on the support the physical g is non-real, and a region
    where every root is real is off it.
    """
    zc, _ = freeprob._edge_candidates(prior, t)
    span = max(zc[-1] - zc[0], 1.0)
    mids = np.concatenate(
        [[zc[0] - 0.1 * span - 1.0], 0.5 * (zc[1:] + zc[:-1]), [zc[-1] + 0.1 * span + 1.0]]
    )
    on = has_nonreal_root(prior, t, mids)
    edges = [i for i in range(len(zc)) if on[i] != on[i + 1]]
    return tuple((zc[i], zc[j]) for i, j in zip(edges[::2], edges[1::2]))


def homotopy_solve(prior, t, x, eps):
    """Physical branch of g at z = x + i*eps for real x (vectorized), t >= 0.

    Follows the root from high in the upper half plane, where g ~ -1/z is
    unambiguous, down to the requested offset, always taking the admissible
    root closest to the previous level and polishing with Newton.  Robust on
    and off the support, including inside spectral gaps where spurious
    branches of the polynomial can also lie in the upper half plane.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    scale = 1.0 + np.sqrt(prior.second_moment + t) + np.abs(x)
    top = np.maximum(10.0 * scale, 2.0 * eps)
    n_steps = int(max(20, 4 * np.ceil(np.log10(top.max() / eps))))
    ladder = np.exp(np.linspace(np.log(top), np.full_like(top, np.log(eps)), n_steps))
    g = -1.0 / (x + 1j * top)
    rows = np.arange(len(x))
    for k in range(n_steps):
        z = x + 1j * ladder[k]
        coeffs = coeffs_desc(prior, t, z)
        roots = all_roots(t, z, coeffs)
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
        g = newton_polish(coeffs, g, steps=1)
    z = x + 1j * eps
    coeffs = coeffs_desc(prior, t, z)
    g = newton_polish(coeffs, g, steps=2)
    # at square-root edges the physical root and its conjugate collide as the
    # height shrinks; if polishing landed on the lower partner, flip to the
    # conjugate root (same Re, which is all a collision point determines)
    neg = g.imag < 0.0
    if np.any(neg):
        roots = all_roots(t, z[neg], coeffs[neg])
        sub = np.arange(int(neg.sum()))
        cand = roots[sub, np.argmin(np.abs(roots - np.conj(g[neg])[:, None]), axis=1)]
        near = np.abs(cand - np.conj(g[neg])) < 1e-5 * (1.0 + np.abs(g[neg]))
        gn = g[neg]
        gn[near] = cand[near]
        g[neg] = gn
    bad = g.imag < -1e-6 * (1.0 + np.abs(g))
    if np.any(bad):
        raise RuntimeError(f"homotopy ended in the lower half plane at x={x[bad][:3]} (t={t})")
    return g


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


def mp_density_t0(prior, n_nodes=freeprob.DEFAULT_NODES):
    """The t = 0 Marchenko-Pastur law in closed form, on the compound-Poisson
    build's sin^2 grid: ((l-, l+), x, rho, Re g, quadrature weights, atom
    mass).

    Bulk rho = kappa sqrt((l+ - x)(x - l-)) / (2 pi x) on [l-, l+],
    l+- = (1 +- kappa^-1/2)^2, with Re g = -(kappa x + 1 - kappa) / (2 x),
    the real part of the roots of x g^2 + (kappa x + 1 - kappa) g + kappa;
    the weights are Simpson's rule in theta times dx/dtheta.  The point mass
    max(1 - kappa, 0) at zero is not in rho, which only carries the bulk.
    """
    kappa = prior.kappa
    lam_m = (1.0 - kappa**-0.5) ** 2
    lam_p = (1.0 + kappa**-0.5) ** 2
    s2, _, sin2t, w = freeprob._theta_grid(n_nodes)[:4]
    x = lam_m + (lam_p - lam_m) * s2
    with np.errstate(all="ignore"):
        rho = kappa * np.sqrt(np.maximum((lam_p - x) * (x - lam_m), 0.0)) / (2 * np.pi * x)
        re_g = -(kappa * x + 1.0 - kappa) / (2.0 * x)
    rho = np.where(np.isfinite(rho), rho, 0.0)
    return (lam_m, lam_p), x, rho, re_g, w * ((lam_p - lam_m) * sin2t), max(1.0 - kappa, 0.0)


def mp_anchored_eager(curve, n_nodes=freeprob.DEFAULT_NODES):
    """x and Re g of one Marchenko-Pastur interval (`freeprob._MpCurve`) in
    one pass over its sin^2(theta) grid, each node's anchor e (l, u or the
    dip of a merged interval, the nearest in log s) gathered per node:

        x - x_e = (s - s_e) (-kappa / (s s_e) - 2 t A_e),
        a - g_c(e) = (s - s_e) A_e,  A_e = (kappa / ((1 - t s)(1 - t s_e)) - 1) / (2 kappa),

    with s - s_e from expm1 and 1 - t s from the end where it is smaller:
    the eager formulas that a build's x and Re g, formed on first read,
    must equal bit for bit."""
    s2, c2 = freeprob._theta_grid(n_nodes)[:2]
    kappa, t, dv = curve.kappa, curve.t, curve.dv
    a = b = (n_nodes + 1) // 2
    if curve.vm is not None:
        a, b = np.searchsorted(s2, [0.5 * curve.vm / dv, 0.5 + 0.5 * curve.vm / dv])
    anchor = np.zeros(n_nodes, dtype=int)  # index into curve.ends: l, u, dip
    anchor[b:] = 1
    anchor[a:b] = 2
    xe, ge, se, ome = (np.array(column)[anchor] for column in zip(*curve.ends))
    s = np.exp(s2 * dv) * curve.sl
    dsl = np.expm1(s2 * dv) * curve.sl
    dsu = np.expm1(c2 * -dv) * -curve.su
    om = curve.ends[0][3] - t * dsl if curve.from_l else curve.ends[1][3] + t * dsu
    d = np.where(anchor == 0, dsl, -dsu)
    if curve.vm is not None:
        dm = np.expm1(s2[a:b] * dv - curve.vm) * curve.ends[2][2]
        d[a:b] = dm
        om[a:b] = curve.ends[2][3] - t * dm
    big_a = 1.0 / om * (0.5 / ome) - 0.5 / kappa
    slope = 1.0 / s * (-kappa / se) - 2.0 * t * big_a
    return d * slope + xe, d * big_a + ge


def cube_integral_dt(dens):
    """d/dt of int rho^3 by 2 int rho^3 Re[1/phi'(g)] dx, with phi'
    evaluated again at the stored g = re_g + i pi rho and the integrand
    taken as zero where it is not finite: the reference for
    `SpectralDensity.cube_integral_dt`, which reads dg/dz off the build."""
    vals = []
    for r, rg in zip(dens.rho, dens.re_g):
        with np.errstate(all="ignore"):
            v = r**3 * np.real(1.0 / freeprob._phi_prime(dens.prior, dens.t, rg + 1j * np.pi * r))
        vals.append(np.where(np.isfinite(v), v, 0.0))
    return 2.0 * dens.integrate(vals)


def sigma_t_derivative(prior, t):
    """d Sigma(mu_t) / dt = (2 pi^2 / 3) int rho_t^3.

    The identity follows from the Burgers evolution of the density under
    semicircular flow; checked against finite differences of
    `freeprob.log_potential` in the tests.
    """
    if t <= 0:
        raise ValueError("sigma_t_derivative requires t > 0")
    return (2.0 * np.pi**2 / 3.0) * freeprob.density(prior, t).cube_integral()


def stieltjes(prior, t, z):
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
        Carries g, t, and the self-consistency residual
        |z + t g - R(-g) + 1/g|.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("stieltjes requires Im z > 0")
    if t < 0:
        raise ValueError("t must be nonnegative")
    g = homotopy_solve(prior, t, np.array([z.real]), z.imag)[0]
    # the residual mixes terms of size |z| and O(1); finish with Newton in
    # extended precision so cancellation noise stays below the 1e-10 contract
    # even at |z| ~ 1e6.  The iterate of least |P| over 30 steps is kept:
    # next to a square-root edge, where the root pair has nearly collided,
    # the homotopy can end 1e-4 off and Newton needs about six steps
    gl = extended_newton(coeffs_desc(prior, t, np.array([z])), np.array([g]), 30)[0]
    res = abs(_selfcons(prior, np.longdouble(t), np.clongdouble(z), gl))
    return StieltjesSolution(z=z, g=complex(gl), t=t, residual=float(res))


def extended_newton(coeffs, g, steps):
    """The iterate of least |P| over `steps` Newton steps from g on the
    polynomials of descending coefficients coeffs, shape (M, D+1), in
    extended precision, point by point."""
    g = g.astype(np.clongdouble)
    coeffs = coeffs.astype(np.clongdouble)
    best, g_best = np.full(len(g), np.inf), g.copy()
    for _ in range(steps):
        p = dp = np.zeros_like(g)
        for c in coeffs.T:
            dp = dp * g + p
            p = p * g + c
        better = np.abs(p) < best
        best[better], g_best[better] = np.abs(p[better]), g[better]
        with np.errstate(all="ignore"):
            g = g - p / dp
    return g_best


def real_axis_root(prior, t, x, width):
    """g(x + i0) at real points x of the support, independent of the build:
    as `stieltjes` does, the homotopy and Newton's method in extended
    precision at the offset 1e-16 width, then Newton's method on P_x(g) in
    extended precision at x itself.  x is a scalar or an array."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    z = xs + 1j * (1e-16 * width)
    g = extended_newton(coeffs_desc(prior, t, z), homotopy_solve(prior, t, xs, 1e-16 * width), 30)
    g = extended_newton(coeffs_desc(prior, t, xs).real.astype(complex), g, 5)
    g = g.astype(complex)
    return complex(g[0]) if np.ndim(x) == 0 else g
