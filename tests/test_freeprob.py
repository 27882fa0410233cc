"""Tests for the free-convolution spectral toolbox.

Conventions checked throughout: g(z) = E[1/(X - z)] so that g(z) ~ -1/z for
|z| -> infinity and Im g > 0 in the upper half plane; the density of
mu_t = prior (+) semicircle(t) is Im g(x + i0)/pi.

Every nontrivial expected value is pinned against an independent oracle:
closed forms where known (semicircle, Marchenko-Pastur limits), refinement
or alternative quadrature schemes otherwise.
"""

import pickle

import numpy as np
import pytest

from quadnet import freeprob as fp
from quadnet import gamp, matdenoise
from quadnet import state_evolution as se
from quadnet.freeprob import PriorSpectrum, density

import oracles
from oracles import (
    EPS,
    all_roots,
    coeffs_desc,
    companion_critical_points,
    cube_integral_dt,
    extended_newton,
    general_path,
    has_nonreal_root,
    homotopy_solve,
    interp,
    mp_density_t0,
    real_axis_root,
    root_count_support,
    sigma_t_derivative,
    stieltjes,
    support_edges,
    upper_root,
)

MP05 = PriorSpectrum.marchenko_pastur(0.5)
MP10 = PriorSpectrum.marchenko_pastur(1.0)
MP20 = PriorSpectrum.marchenko_pastur(2.0)
CP3 = PriorSpectrum.compound_poisson(0.7, ((0.5, 0.3), (1.0, 0.4), (2.0, 0.3)))
# atom at zero contributes nothing to the R-transform, so this prior's free
# convolution with semicircle(t) is exactly the semicircle of variance t
SEMICIRCLE_PRIOR = PriorSpectrum.compound_poisson(1.0, ((0.0, 1.0),))

CUBE_SEMICIRCLE = 3.0 / (4.0 * np.pi**2)


def semicircle_density(x, t=1.0):
    return np.sqrt(np.maximum(4.0 * t - x * x, 0.0)) / (2.0 * np.pi * t)


def pv_pairing_oracle(dens, lam):
    """Principal value of int rho(s)/(lam - s) ds by symmetric pairing.

    Substituting s = lam -/+ u folds the integral to
    int_0^inf [rho(lam - u) - rho(lam + u)]/u du, whose integrand is smooth
    at u -> 0 (limit -2 rho'(lam)), so no excision around the singularity is
    needed and no excision bias is introduced.
    """
    lo = min(l for l, _ in dens.intervals)
    hi = max(u for _, u in dens.intervals)
    u = np.geomspace(1e-8, max(lam - lo, hi - lam) + 1.0, 6000)

    def rho_at(pts):
        v = interp(dens, pts, dens.rho)
        return np.where(np.isfinite(v), v, 0.0)

    f = (rho_at(lam - u) - rho_at(lam + u)) / u
    # trapezoid in log u; the extra factor u keeps the integrand bounded
    return float(np.trapezoid(f * u, np.log(u)))


def log_potential_kernel(dens):
    """Sigma(mu) by the O(N^2) double integral `fp.log_potential` replaced.

    The inner integral against the piecewise-linear density uses the exact
    antiderivative of (a + b y) log|x - y|, so the log singularity is
    integrated analytically; the outer integral is the edge-adapted Simpson
    rule.
    """
    xl = np.concatenate([xg[:-1] for xg in dens.x])
    xr = np.concatenate([xg[1:] for xg in dens.x])
    rl = np.concatenate([rg[:-1] for rg in dens.rho])
    rr = np.concatenate([rg[1:] for rg in dens.rho])
    b = (rr - rl) / (xr - xl)

    def xlog(u):
        with np.errstate(all="ignore"):
            v = u * np.log(np.abs(u))
        return np.where(u == 0.0, 0.0, v)

    def xxlog(u):
        with np.errstate(all="ignore"):
            v = 0.5 * u * u * np.log(np.abs(u)) - 0.25 * u * u
        return np.where(u == 0.0, 0.0, v)

    total = 0.0
    for i, (xg, rg) in enumerate(zip(dens.x, dens.rho)):
        kernel = np.empty(len(xg))
        chunk = 16  # rows per block; the row sums do not depend on it
        for s in range(0, len(xg), chunk):
            x0 = xg[s : s + chunk][:, None]
            u1 = xl[None, :] - x0
            u2 = xr[None, :] - x0
            c0 = rl[None, :] + b[None, :] * (x0 - xl[None, :])
            seg = c0 * (xlog(u2) - u2 - xlog(u1) + u1) + b[None, :] * (
                xxlog(u2) - xxlog(u1)
            )
            kernel[s : s + chunk] = seg.sum(axis=1)
        total += float(np.dot(dens.weights[i], rg * kernel))
    return total


class TestPriorSpectrum:
    def test_marchenko_pastur_moments(self):
        assert MP05.mean == 1.0
        assert MP05.second_moment == pytest.approx(1.0 + 1.0 / 0.5)
        assert MP20.second_moment == pytest.approx(1.0 + 1.0 / 2.0)

    def test_compound_poisson_moments(self):
        m_a = 0.3 * 0.5 + 0.4 * 1.0 + 0.3 * 2.0
        c_a = 0.3 * 0.25 + 0.4 * 1.0 + 0.3 * 4.0
        assert CP3.mean == pytest.approx(m_a)
        assert CP3.second_moment == pytest.approx(m_a**2 + c_a / 0.7)

    @pytest.mark.parametrize("s", [-2.0, -0.3, 0.1, 0.2 + 0.5j])
    def test_single_unit_atom_r_transform_matches_mp(self, s):
        kappa = 0.8
        mp = PriorSpectrum.marchenko_pastur(kappa)
        cp = PriorSpectrum.compound_poisson(kappa, ((1.0, 1.0),))
        assert cp.r_transform(s) == pytest.approx(kappa / (kappa - s), abs=1e-14)
        assert mp.r_transform(s) == pytest.approx(cp.r_transform(s), abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            PriorSpectrum.marchenko_pastur(0.0)
        with pytest.raises(ValueError):
            PriorSpectrum.marchenko_pastur(-1.0)
        with pytest.raises(ValueError):
            PriorSpectrum.compound_poisson(1.0, ((1.0, 0.5), (2.0, 0.6)))
        with pytest.raises(ValueError):
            PriorSpectrum.compound_poisson(1.0, ((-1.0, 1.0),))

    @pytest.mark.parametrize(
        "kappa,atoms",
        [(np.inf, ((1.0, 1.0),)), (np.nan, ((1.0, 1.0),)), (1.0, ((1.0, np.nan),)),
         (1.0, ((1.0, 1.0), (2.0, np.nan))), (1.0, ((np.inf, 1.0),))],
        ids=["kappa-inf", "kappa-nan", "weight-nan", "second-weight-nan", "value-inf"],
    )
    def test_non_finite_rejected(self, kappa, atoms):
        # rejected where built: a NaN weight passed the sum check and failed
        # later in `density` with LinAlgError, kappa = inf there with
        # EdgeDetectionFailed
        with pytest.raises(ValueError, match="finite"):
            PriorSpectrum.compound_poisson(kappa, atoms)


class TestAtomLawPicksThePath:
    # the closed-form Marchenko-Pastur path serves every prior whose atom
    # law is the unit atom, whichever constructor made it
    FIELDS = ("intervals", "x", "dxdtheta", "rho", "re_g", "critical", "re_dgdz")

    @pytest.mark.parametrize("kappa,t", [(0.5, 0.5), (0.3, 1e-3), (2.0, 0.1)])
    def test_unit_atom_compound_poisson_is_marchenko_pastur(self, kappa, t):
        # the same prior: the same density, `hilbert` at the eigenvalues of
        # a d = 500 draw, and the same seeded draws, bit for bit
        mp = PriorSpectrum.marchenko_pastur(kappa)
        cp = PriorSpectrum.compound_poisson(kappa, ((1.0, 1.0),))
        assert cp == mp
        d_mp, d_cp = density(mp, t), density(cp, t)
        assert all(isinstance(c, fp._MpCurve) for c in d_cp.curves)
        for name in self.FIELDS:
            a, b = getattr(d_mp, name), getattr(d_cp, name)
            assert len(a) == len(b) and all(map(np.array_equal, a, b)), name
        draws = [matdenoise.sample_prior(p, 500, np.random.default_rng(7)) for p in (mp, cp)]
        assert np.array_equal(*draws)
        noise = matdenoise.sample_goe(500, np.random.default_rng(8))
        lam = np.linalg.eigvalsh(draws[0] + np.sqrt(t) * noise)
        assert np.array_equal(fp.hilbert(mp, t, lam, d_mp), fp.hilbert(cp, t, lam, d_cp))

    def test_other_single_atom_takes_the_companion_path(self, monkeypatch):
        calls, roots = [], np.roots
        monkeypatch.setattr(np, "roots", lambda p: calls.append(p) or roots(p))
        prior = PriorSpectrum.compound_poisson(0.5, ((2.0, 1.0),))
        dens = density(prior, 0.5)
        assert len(calls) == 1
        assert all(isinstance(c, fp._CpCurve) for c in dens.curves)


class TestStieltjes:
    def test_large_z_asymptote(self):
        z = 1e6j
        for prior, t in [(MP10, 0.0), (MP05, 0.5), (CP3, 0.3)]:
            sol = stieltjes(prior, t, z)
            assert abs(sol.g - (-1.0 / z)) < 1e-11
            assert sol.residual < 1e-10

    def test_degenerate_prior_gives_semicircle(self):
        for x in (-1.7, -0.4, 0.0, 0.9, 1.6):
            sol = stieltjes(SEMICIRCLE_PRIOR, 1.0, x + 1e-8j)
            assert sol.g.imag / np.pi == pytest.approx(
                semicircle_density(x), abs=1e-6
            )

    def test_exactly_one_admissible_cubic_root(self):
        # on-support point: of the three branches of the cleared cubic only
        # one lies in the upper half plane
        z = np.array([1.0 + 1e-8j])
        roots = all_roots(0.1, z, coeffs_desc(MP05, 0.1, z))[0]
        assert (roots.imag > 1e-12).sum() == 1
        sol = stieltjes(MP05, 0.1, 1.0 + 1e-8j)
        assert sol.g.imag > 0
        assert sol.residual < 1e-10

    @pytest.mark.parametrize("prior", [MP05, MP20, CP3], ids=["mp05", "mp2", "cp3"])
    @pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
    def test_residual_contract(self, prior, t):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = complex(rng.uniform(-3, 7), 10.0 ** rng.uniform(-8, 2))
            assert stieltjes(prior, t, z).residual < 1e-10

    def test_tiny_positive_imaginary_part_is_supported(self):
        for x in (-5.0, 0.05, 1.0, 6.5):
            sol = stieltjes(MP05, 0.1, x + 1e-12j)
            assert sol.residual < 1e-10

    def test_upper_root_in_bulk_at_zero_at_tiny_kappa_and_t(self, monkeypatch):
        # at kappa t = 3e-13 the oracle's homotopy once ended on the
        # conjugate or spurious branch at 4 of these 230 nodes (Im g < 0, up
        # to 1.0 relative off the density); every 7th node of both intervals
        # (against the companion-matrix root of the unit-atom compound-Poisson
        # prior of largest imaginary part, polished by Newton's method on
        # this prior's cubic in extended precision, at the nodes of the
        # sin^2 grid in x)
        kappa, t = 3e-4, 1e-9
        prior = PriorSpectrum.marchenko_pastur(kappa)
        cp = PriorSpectrum.compound_poisson(kappa, ((1.0, 1.0),))
        general_path(monkeypatch, cp)
        dens = density(prior, t)
        assert len(dens.intervals) == 2
        off = []
        for l, u in dens.intervals:
            eps = min(EPS, 1e-5 * (u - l))
            x = l + (u - l) * fp._theta_grid(fp.DEFAULT_NODES)[0]
            z = x + 1j * eps
            g_grid = extended_newton(coeffs_desc(prior, t, z), upper_root(cp, t, x, eps), 30)
            for i in range(1, len(x) - 1, 7):
                g = stieltjes(prior, t, complex(x[i], eps)).g
                ref = g_grid[i]
                if not (g.imag > 0.0 and abs(g - ref) <= 1e-12 * abs(ref)):
                    off.append((float(x[i]), g, ref))
        assert not off, off

    def test_preconditions(self):
        with pytest.raises(ValueError):
            stieltjes(MP05, 0.1, 1.0 - 1e-8j)
        with pytest.raises(ValueError):
            stieltjes(MP05, 0.1, 1.0 + 0.0j)
        with pytest.raises(ValueError):
            stieltjes(MP05, -0.1, 1.0j)


class TestSupportEdges:
    def test_semicircle_interval(self):
        ((l, u),) = support_edges(SEMICIRCLE_PRIOR, 1.0)
        assert l == pytest.approx(-2.0, abs=1e-7)
        assert u == pytest.approx(2.0, abs=1e-7)

    def test_mp_small_t_converges_to_bulk_edges(self):
        kappa = 2.0
        ((l, u),) = support_edges(MP20, 1e-6)
        assert l == pytest.approx((1.0 - kappa**-0.5) ** 2, abs=1e-4)
        assert u == pytest.approx((1.0 + kappa**-0.5) ** 2, abs=1e-4)

    def test_mp_half_small_t_splits_into_two_intervals(self):
        intervals = support_edges(MP05, 0.01)
        assert len(intervals) == 2
        (l0, u0), (l1, u1) = intervals
        assert l0 < u0 < l1 < u1
        assert u0 > 0 and l1 > 0
        assert l1 - u0 > 0.01

    def test_edges_match_density_scan(self):
        # independent oracle: locate sign changes of Im g(x + i*eps) on a
        # fine uniform grid and compare against the reported edges
        intervals = support_edges(MP05, 0.01)
        xs = np.linspace(-0.3, 6.2, 6500)
        g = homotopy_solve(MP05, 0.01, xs, 1e-9)
        on = g.imag / np.pi > 1e-6
        flips = np.flatnonzero(on[1:] != on[:-1])
        found = 0.5 * (xs[flips] + xs[flips + 1])
        edges = np.sort(np.ravel(intervals))
        assert len(found) == len(edges)
        assert np.max(np.abs(found - edges)) < (xs[1] - xs[0])

    def test_refinement_confirms_candidates(self):
        # each edge is where the branch polynomial's roots leave the real
        # axis: a non-real root just inside it and none just outside
        for prior, t in [(MP05, 0.5), (MP05, 0.01), (CP3, 0.05)]:
            for l, u in support_edges(prior, t):
                for e, inward in ((l, 1.0), (u, -1.0)):
                    step = 1e-9 * (1.0 + abs(e))
                    inside, outside = has_nonreal_root(
                        prior, t, np.array([e + inward * step, e - inward * step])
                    )
                    assert inside and not outside, (prior, t, e)

    def test_multi_atom_prior_can_have_three_intervals(self):
        # kappa < 1 with well-separated atom values: a narrow bulk at zero
        # plus one bulk per atom value
        prior = PriorSpectrum.compound_poisson(0.2, ((1.0, 0.5), (10.0, 0.5)))
        intervals = support_edges(prior, 0.001)
        assert len(intervals) == 3
        flat = np.ravel(intervals)
        assert np.all(np.diff(flat) > 0)
        dens = density(prior, 0.001, n_nodes=801)
        assert dens.mass() == pytest.approx(1.0, abs=1e-4)
        assert dens.integrate([r * x * x for r, x in zip(dens.rho, dens.x)]) == pytest.approx(
            prior.second_moment + 0.001, rel=1e-3
        )

    @pytest.mark.parametrize(
        "t,n_candidates,n_intervals",
        [(0.0351199750753887, 3, 1), (0.0351199750683647, 4, 2)],
        ids=["merged", "split"],
    )
    def test_merge_of_two_intervals(self, t, n_candidates, n_intervals):
        # MP(0.5)'s bulk at zero meets the main bulk near t = 0.03512: just
        # after, the collided candidates are kept once and the odd one out
        # lies inside the merged interval; just before, the gap between the
        # two middle candidates is an increasing arc of phi
        assert len(fp._edge_candidates(MP05, t)[0]) == n_candidates
        assert len(support_edges(MP05, t)) == n_intervals

    MERGES = [
        (MP05, t) for t in (0.0351199750753887, 0.035119975071870695, 0.0351199750683647)
    ] + [(PriorSpectrum.marchenko_pastur(0.95), 5.398127249281708e-06)]

    @pytest.mark.parametrize(
        "prior",
        [PriorSpectrum.marchenko_pastur(k) for k in (3e-4, 0.05, 0.3, 0.5, 0.95, 2.0)]
        + [
            CP3,
            PriorSpectrum.compound_poisson(0.2, ((1.0, 0.5), (10.0, 0.5))),
            PriorSpectrum.compound_poisson(0.5, ((0.2, 0.3), (1.0, 0.4), (4.0, 0.3))),
        ],
        ids=["mp3e-4", "mp0.05", "mp0.3", "mp0.5", "mp0.95", "mp2", "cp3", "cp2_wide", "cp3_wide"],
    )
    def test_matches_root_count_classification(self, prior):
        # the phi'' rule against the count of non-real roots of P_x between
        # consecutive candidates, edges bit for bit, over t from 1e-9 to 10
        # and, for MP(0.5) and MP(0.95), next to a merge of two intervals
        ts = list(np.geomspace(1e-9, 10.0, 21))
        ts += [t for p, t in self.MERGES if p == prior]
        for t in ts:
            assert support_edges(prior, t) == root_count_support(prior, t), t

    @pytest.mark.parametrize(
        "kappa,t",
        [(5278.876273569065, 863413993978.7299), (7239.702894198792, 442240108227.5203),
         (3047.0341243398557, 792638424083.4884)],
    )
    def test_unit_atom_compound_poisson_at_large_kappa_t(self, monkeypatch, kappa, t):
        # next to the pole g = -kappa a complex pair of companion eigenvalues
        # once passed as real critical points: the right edge came out at
        # 4.56e15 against 1.86e6 (first case), or a phantom second interval
        # near 3.2e15 and 2.4e15 appeared (the others)
        mp = support_edges(PriorSpectrum.marchenko_pastur(kappa), t)
        cp = PriorSpectrum.compound_poisson(kappa, ((1.0, 1.0),))
        general_path(monkeypatch, cp)
        cp = support_edges(cp, t)
        assert len(cp) == len(mp)
        assert np.ravel(cp) == pytest.approx(np.ravel(mp), rel=1e-12)

    def test_requires_positive_t(self):
        with pytest.raises(ValueError):
            support_edges(MP05, 0.0)
        with pytest.raises(ValueError):
            support_edges(MP05, -1.0)


class TestMarchenkoPasturCriticalPoints:
    KAPPAS = (1e-4, 3e-4, 0.05, 0.3, 0.5, 0.95, 1.0, 2.0, 5.0, 20.0)
    # MP(0.95)'s merge point in `TestSupportEdges.MERGES`: to 40 digits its
    # two middle critical values are 1.00090230e-11 apart, below the
    # collision threshold 1e-11 (1 + |z|) = 1.00090240e-11, so the exact
    # count is 3.  The companion roots there are 2.9e-13 off and put z
    # 3.5e-18 off, enough for the companion count to read 4
    KNIFE_EDGE = (0.95, 5.398127249281708e-06)

    @staticmethod
    def t_c(kappa):
        """Where the two middle critical points meet: phi'(g*) = 0."""
        return (1.0 - kappa ** (1.0 / 3.0)) ** 3 / kappa**2

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_matches_companion_oracle(self, monkeypatch, kappa):
        # against the companion eigenvalues of the same quartic, and of the
        # unit-atom compound-Poisson prior, which takes the companion path
        # in the package, over t from 1e-10 to 2e10 and the merges of
        # `TestSupportEdges`.  Measured: g within 3.7e-12 relative (the
        # companion's error; against 60 digits the bracketed roots are
        # within 2.8e-16, the companion's within 3.7e-12) and z within
        # 2.2e-16 (1 + |z|)
        mp = PriorSpectrum.marchenko_pastur(kappa)
        cp = PriorSpectrum.compound_poisson(kappa, ((1.0, 1.0),))
        general_path(monkeypatch, cp)
        ts = list(np.geomspace(1e-10, 2e10, 41))
        ts += [t for p, t in TestSupportEdges.MERGES if p == mp]
        for t in ts:
            if (kappa, t) == self.KNIFE_EDGE:
                raw = sorted(fp._mp_critical_points(kappa, t))
                refs = [sorted(g for _, g in fp._companion_candidates(p, t)) for p in (mp, cp)]
                pairs = [(np.array(raw), np.array(ref)) for ref in refs]
            else:
                z, g = fp._edge_candidates(mp, t)
                pairs = []
                for zo, go in (companion_critical_points(mp, t), fp._edge_candidates(cp, t)):
                    assert len(z) == len(zo), t
                    assert np.all(np.abs(z - zo) <= 1e-15 * (1.0 + np.abs(zo))), t
                    pairs.append((g, go))
            for g, go in pairs:
                assert len(g) == len(go), t
                assert np.all(np.abs(g - go) <= 1e-11 * np.abs(go)), t

    def test_knife_edge_merge_counts_as_merged(self):
        import mpmath

        kappa, t = self.KNIFE_EDGE
        z, g = fp._edge_candidates(PriorSpectrum.marchenko_pastur(kappa), t)
        assert len(z) == 3
        assert len(support_edges(PriorSpectrum.marchenko_pastur(kappa), t)) == 1
        with mpmath.workdps(40):
            k, tt = mpmath.mpf(kappa), mpmath.mpf(t)
            exact = []
            for g0 in (g for g in fp._mp_critical_points(kappa, t) if g < -kappa):
                gc = mpmath.findroot(lambda x: 1 / x**2 - tt - k / (k + x) ** 2, mpmath.mpf(g0))
                exact.append(-tt * gc + k / (k + gc) - 1 / gc)
            gap = abs(exact[1] - exact[0])
            assert gap < 1e-11 * (1 + max(map(abs, exact))) < gap * (1 + 1e-6)

    @pytest.mark.parametrize("kappa", [1e-4, 3e-4, 0.05, 0.3, 0.5, 0.95])
    def test_four_critical_points_below_the_merge_two_above(self, kappa):
        # phi'' vanishes only at g* = kappa / (kappa^(1/3) - 1), so the two
        # middle critical points exist exactly for t < t_c.  After the
        # collision sift, four remain where the gap between them is wider
        # than 1e-11 (1 + |z|): at t_c (1 - 1e-6) it is 5.8e-11 for
        # kappa = 0.5 but 2.3e-13 for kappa = 0.95, which needs 1 - 1e-4
        mp = PriorSpectrum.marchenko_pastur(kappa)
        below = self.t_c(kappa) * (1.0 - 1e-6)
        above = self.t_c(kappa) * (1.0 + 1e-6)
        assert len(fp._mp_critical_points(kappa, below)) == 4
        assert len(fp._mp_critical_points(kappa, above)) == 2
        split = self.t_c(kappa) * (1.0 - (1e-4 if kappa > 0.9 else 1e-6))
        assert len(fp._edge_candidates(mp, split)[0]) == 4
        assert len(support_edges(mp, split)) == 2
        assert len(fp._edge_candidates(mp, above)[0]) == 2

    @pytest.mark.parametrize("kappa", [1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 2**-53])
    def test_kappa_one_builds(self, kappa):
        # kappa^(1/3) - 1 rounds to 0 next to kappa = 1, where g* is -inf
        mp = PriorSpectrum.marchenko_pastur(kappa)
        for t in np.geomspace(1e-10, 2e10, 13):
            dens = density(mp, t)
            assert len(dens.intervals) == 1
            assert dens.mass() == pytest.approx(1.0, abs=1e-12)

    def test_never_more_than_two_intervals(self):
        for kappa in self.KAPPAS:
            mp = PriorSpectrum.marchenko_pastur(kappa)
            for t in np.geomspace(1e-10, 2e10, 41):
                assert 1 <= len(support_edges(mp, t)) <= 2

    @pytest.mark.parametrize("kappa,t", [(0.5, 0.5), (0.5, 1e-3), (0.05, 1e-6), (2.0, 0.1)])
    def test_no_eigensolver(self, monkeypatch, kappa, t):
        # density, support_edges and hilbert of the Marchenko-Pastur prior,
        # on the support, next to its edges and off it
        def fail(*args, **kwargs):
            raise AssertionError("an eigensolver was called")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        monkeypatch.setattr(np, "roots", fail)
        mp = PriorSpectrum.marchenko_pastur(kappa)
        dens = density(mp, t)
        assert support_edges(mp, t) == dens.intervals
        lam = [x[len(x) // 3] for x in dens.x]
        for l, u in dens.intervals:
            w = u - l
            lam += [l + 1e-9 * w, u - 1e-9 * w, u - 1e-3 * w, l - 1e-3 * w, u + 1e-9 * w, u + 1.0]
        assert np.all(np.isfinite(fp.hilbert(mp, t, np.array(lam), dens)))


class TestRealCubicPair:
    # `hilbert` on the Marchenko-Pastur support, read off the curve the
    # density was built on, against the root of the real cubic P_x on the
    # real axis (`real_axis_root`: the companion-matrix homotopy, then
    # Newton's method in extended precision), point by point relative to
    # |g| there.  The small t solve the homotopy in w = 1/g, the large t in
    # g: both sides of the guard of `oracles.all_roots`
    TS = np.geomspace(1e-6, 10.0, 8)

    @staticmethod
    def _points(dens):
        """Per interval: the interior nodes of the grid, then points
        1e-9..1e-3 widths inside each edge, where eigenvalues can land for
        `hilbert`.  Closer to an edge the pair of P_x is too near a double
        root for `real_axis_root` to resolve it (about 1e-8 off at 1e-16
        widths); `test_edge_points_match_extended_precision_stieltjes` takes
        those points."""
        h = np.geomspace(1e-9, 1e-3, 7)
        for (l, u), x in zip(dens.intervals, dens.x):
            yield l, u, np.concatenate([x[1:-1], l + h * (u - l), u - h * (u - l)])

    @staticmethod
    def _off(prior, t, dens, x, width):
        """|hilbert + Re g| / |g| at each of the points x, g from
        `real_axis_root`."""
        ref = real_axis_root(prior, t, x, width)
        return np.abs(fp.hilbert(prior, t, x, dens) + ref.real) / np.abs(ref)

    @pytest.mark.parametrize("kappa", np.geomspace(0.1, 2.0, 5))
    def test_matches_general_path_node_by_node(self, monkeypatch, kappa):
        # the points of `_points` on the 401-node grid.  Measured: at most
        # 1.3e-13 (MP(0.946) at t = 1e-5, mid-bulk).  The reference's
        # homotopy must have been solved in w = 1/g for some t and in g for
        # others: `all_roots` hands `_companion_roots` the columns of the
        # coefficients reversed (a negative stride) when it solves in w
        mp = PriorSpectrum.marchenko_pastur(kappa)
        companion, inverted = oracles._companion_roots, set()

        def recording(c):
            inverted.add(c.strides[-1] < 0)
            return companion(c)

        monkeypatch.setattr(oracles, "_companion_roots", recording)
        for t in self.TS:
            dens = density(mp, t, n_nodes=401)
            for l, u, x in self._points(dens):
                assert np.max(self._off(mp, t, dens, x, u - l)) < 1e-12, (t, l, u)
        assert inverted == {False, True}

    @pytest.mark.parametrize("kappa", [3e-4, 1e-3])
    @pytest.mark.parametrize("t", [1e-9, 1e-7])
    def test_real_root_dominant_pair_matches_companion_path(self, kappa, t):
        # at tiny kappa t the real root of P_x dominates the pair in w = 1/g
        # at most nodes, where Cardano in w once lost the pair's digits;
        # every interior node.  Measured: at most 4.5e-16
        mp = PriorSpectrum.marchenko_pastur(kappa)
        dens = density(mp, t, n_nodes=401)
        for (l, u), x in zip(dens.intervals, dens.x):
            assert np.max(self._off(mp, t, dens, x[1:-1], u - l)) < 1e-11, (l, u)

    @pytest.mark.parametrize("kappa,t", [(0.5, 0.035119975071870695), (0.95, 5.398127249281708e-06)])
    def test_just_before_a_merge_matches_companion_path(self, monkeypatch, kappa, t):
        # two intervals 1e-11 apart: next to this cusp x(s) is nearly flat.
        # The points are the interior nodes of the sin^2 grid in x on the
        # intervals of the unit-atom compound-Poisson prior, whose companion
        # edges keep the two apart.  MP(0.95) is built as one interval
        # there, the two 1.0e-11 apart being below the collision threshold,
        # and the points come within 1.9e-9 widths of the dip.  Measured: at
        # most 3.9e-13, at the point next to that dip
        mp = PriorSpectrum.marchenko_pastur(kappa)
        dens = density(mp, t)
        cp = PriorSpectrum.compound_poisson(kappa, ((1.0, 1.0),))
        general_path(monkeypatch, cp)
        intervals = support_edges(cp, t)
        assert len(intervals) == 2
        width = dens.intervals[-1][1] - dens.intervals[0][0]
        for l, u in intervals:
            x = l + (u - l) * fp._theta_grid(fp.DEFAULT_NODES)[0]
            assert np.max(self._off(mp, t, dens, x[1:-1], width)) < 1e-11

    @pytest.mark.parametrize("kappa", [0.1, 0.5, 2.0])
    def test_matches_extended_precision_stieltjes(self, kappa):
        # every 50th node, over t from 1e-6 to 10.  Measured: at most 8.8e-16
        mp = PriorSpectrum.marchenko_pastur(kappa)
        for t in self.TS:
            dens = density(mp, t, n_nodes=401)
            for (l, u), x in zip(dens.intervals, dens.x):
                assert np.max(self._off(mp, t, dens, x[1:-1:50], u - l)) < 1e-13, (t, l, u)

    @staticmethod
    def _pair(kappa, t, x, gc):
        """g at x next to the edge of critical point gc, to 40 digits: one of
        the two roots of P_x nearest gc, the pair that collides there (real
        just off the support), with the pair's mean real part."""
        import mpmath

        with mpmath.workdps(40):
            k, tt, xx = mpmath.mpf(kappa), mpmath.mpf(t), mpmath.mpf(x)
            roots = mpmath.polyroots([tt, xx + tt * k, xx * k + 1 - k, k], maxsteps=100, extraprec=100)
            pair = sorted(roots, key=lambda r: abs(r - gc))[:2]
            return complex(float(mpmath.re(pair[0] + pair[1]) / 2), float(abs(mpmath.im(pair[0]))))

    @pytest.mark.parametrize("kappa", np.geomspace(0.1, 2.0, 5))
    def test_edge_points_match_extended_precision_stieltjes(self, kappa):
        # the edges themselves, where h is minus the critical point, and
        # points 1e-16..1e-4 widths inside each edge, where the pair of P_x
        # nearly collides, against `_pair`.  Measured: at most 4.7e-15 of |g|
        mp = PriorSpectrum.marchenko_pastur(kappa)
        for t in self.TS:
            dens = density(mp, t, n_nodes=401)
            for (l, u), critical in zip(dens.intervals, dens.critical):
                assert fp.hilbert(mp, t, [l, u], dens) == pytest.approx(np.negative(critical), rel=1e-15)
                for e, gc, inward in ((l, critical[0], 1.0), (u, critical[1], -1.0)):
                    x = e + inward * np.geomspace(1e-16, 1e-4, 5) * (u - l)
                    ref = np.array([self._pair(kappa, t, xi, gc) for xi in x])
                    off = np.abs(fp.hilbert(mp, t, x, dens) + ref.real) / np.abs(ref)
                    assert np.max(off) < 1e-12, (t, e)

    @pytest.mark.parametrize("prior,t", [(MP05, 0.5), (MP05, 1e-3)], ids=["one", "two"])
    def test_steps_that_fail_fall_back(self, monkeypatch, prior, t):
        # x'(s) is NaN at the first evaluation: every Newton step then fails
        # and is replaced by its bracket's midpoint, and the solve lands on
        # the h of the steps that do not fail, to 1e-12 of |g| at each node
        dens = density(prior, t, n_nodes=201)
        lam = np.concatenate([x[1:-1] for x in dens.x])
        g = np.concatenate([np.abs(re_g + 1j * np.pi * rho)[1:-1] for re_g, rho in zip(dens.re_g, dens.rho)])
        ref = fp.hilbert(prior, t, lam, dens)
        points, calls = fp._mp_points, []

        def failing(*args):
            out = list(points(*args))
            calls.append(len(args[1]))
            if len(calls) == 1:
                out[3] = np.full_like(out[3], np.nan)
            return tuple(out)

        monkeypatch.setattr(fp, "_mp_points", failing)
        h = fp.hilbert(prior, t, lam, dens)
        assert len(calls) > 3
        assert np.max(np.abs(h - ref) / g) < 1e-12

    @pytest.mark.parametrize(
        "kappa,t,h",
        [(np.geomspace(0.1, 2.0, 8)[3], 10**-2.25, 0.0), (np.geomspace(0.1, 2.0, 5)[1], 1e-3, 1e-7)],
        ids=["mp0.361-end-node", "mp0.211-inside"],
    )
    def test_right_edge_cases_complex_cardano_missed(self, kappa, t, h):
        # on the complex-Cardano path the edges once took, the right end
        # node of MP(0.361) at t = 0.00562 had rho 3% low, and the point
        # 1e-7 widths (8.7e-7) inside the right edge of MP(0.211) at
        # t = 0.001, solved with the other near-edge points, was 1.9e-4 off.
        # The points are solved with the points 1e-16..1e-3 widths inside;
        # the end node is the critical point
        mp = PriorSpectrum.marchenko_pastur(kappa)
        dens = density(mp, t, n_nodes=401)
        (l, u), (_, gu) = dens.intervals[-1], dens.critical[-1]
        hs = np.geomspace(1e-16, 1e-3, 14)
        x = np.concatenate([[l + (u - l)], u - hs * (u - l)])
        out = fp.hilbert(mp, t, x, dens)
        assert out[0] == fp.hilbert(mp, t, x[0], dens) == pytest.approx(-gu, rel=1e-15)
        if h:
            i = 1 + int(np.argmin(np.abs(np.log(hs / h))))
            ref = real_axis_root(mp, t, x[i], u - l)
            assert abs(out[i] + ref.real) / abs(ref) < 1e-12


class TestClosedFormBuild:
    CASES = pytest.mark.parametrize(
        "kappa,t",
        [(0.5, 0.5), (0.5, 1e-3), (2.0, 1e-4), (0.1, 5.0), (1.0, 1e-6), (3e-4, 1e-9),
         (0.5, 0.036), (0.5, 0.035119975071870695), (0.95, 5.398127249281708e-06)],
        ids=["mp0.5", "mp0.5-split", "mp2", "mp0.1", "mp1-hard-edge", "thin-bulk",
             "after-merge", "before-merge", "mp0.95-before-merge"],
    )

    @CASES
    def test_nodes_match_real_axis_reference(self, kappa, t):
        # every 20th node at least 1e-4 widths inside its interval: the worst
        # measured is 2.1e-13 (MP(0.95) before its merge).  Closer to an
        # edge a double x no longer pins g to 1e-12, most of all next to a
        # merge, where the nodes come within 1e-13 of the cusp
        prior = PriorSpectrum.marchenko_pastur(kappa)
        dens = density(prior, t)
        off = []
        for (l, u), x, rho, re_g in zip(dens.intervals, dens.x, dens.rho, dens.re_g):
            inner = (x - l >= 1e-4 * (u - l)) & (u - x >= 1e-4 * (u - l))
            for i in np.flatnonzero(inner)[::20]:
                ref = real_axis_root(prior, t, x[i], u - l)
                g = re_g[i] + 1j * np.pi * rho[i]
                if not abs(g - ref) <= 1e-12 * abs(ref):
                    off.append((float(x[i]), g, ref))
        assert not off, off

    def test_end_nodes_are_the_edges(self):
        # rho is 0, Re g the critical point and Re dg/dz finite there
        dens = density(MP05, 1e-3)
        for (l, u), critical, x, rho, re_g, dz in zip(
            dens.intervals, dens.critical, dens.x, dens.rho, dens.re_g, dens.re_dgdz
        ):
            assert (x[0], x[-1]) == (l, u) and np.all(np.diff(x) > 0)
            assert rho[0] == rho[-1] == 0.0
            assert re_g[[0, -1]] == pytest.approx(critical, rel=1e-15)
            assert np.all(np.isfinite(dz))

    @staticmethod
    def _dip_distance(dens, x, width):
        """|x - z_m| in widths of the merged interval, inf without a dip (the
        third anchor of the interval's curve)."""
        ends = dens.curves[0].ends
        return np.full(len(x), np.inf) if len(ends) < 3 else np.abs(x - ends[2][0]) / width

    @CASES
    def test_hilbert_at_every_interior_node(self, kappa, t):
        # h equals -Re g of the build at every interior node: the shrinker
        # and the density read the same curve.  Measured: at most 3.0e-15 of
        # max |Re g| (the offset solve this replaced was up to 3.8e-3 off on
        # a merged interval).  On MP(0.95)'s merged interval the nodes
        # within 1e-6 widths of the dip, where x(s) is flat and a double
        # lam does not pin s, are held to 1e-4
        prior = PriorSpectrum.marchenko_pastur(kappa)
        dens = density(prior, t)
        scale = max(np.max(np.abs(g)) for g in dens.re_g)
        for (l, u), x, re_g in zip(dens.intervals, dens.x, dens.re_g):
            off = np.abs(fp.hilbert(prior, t, x[1:-1], dens) + re_g[1:-1]) / scale
            near = self._dip_distance(dens, x[1:-1], u - l) < 1e-6
            assert np.all(off[~near] <= 1e-13), np.max(off[~near])
            assert np.all(off[near] <= 1e-4)

    @pytest.mark.parametrize(
        "kappa,t",
        [(0.5, 0.5), (0.5, 0.1), (1.0, 1.0), (0.5, 1e-3), (2.0, 1e-4), (0.1, 5.0),
         (0.5, 0.0351199750753887), (0.95, 5.398127249281708e-06)],
        ids=["mp0.5", "mp0.5-t0.1", "mp1", "mp0.5-split", "mp2", "mp0.1", "merged", "mp0.95-merged"],
    )
    def test_hilbert_matches_real_axis_root(self, kappa, t):
        # 60 random points per interval, at least 1e-6 widths inside it and
        # from the dip of a merged one.  Measured: at most 1.7e-14 of max |h|
        prior = PriorSpectrum.marchenko_pastur(kappa)
        dens = density(prior, t)
        rng = np.random.default_rng(5)
        h, ref = [], []
        for l, u in dens.intervals:
            lam = l + (u - l) * rng.uniform(1e-6, 1.0 - 1e-6, 60)
            lam = lam[self._dip_distance(dens, lam, u - l) >= 1e-6]
            h.append(fp.hilbert(prior, t, lam, dens))
            ref.append(-real_axis_root(prior, t, lam, u - l).real)
        h, ref = np.concatenate(h), np.concatenate(ref)
        assert np.max(np.abs(h - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestCompoundPoissonCurve:
    # the compound-Poisson density and `hilbert` on the real-axis curve of
    # `freeprob._cp_curve`: the tests' three-atom priors, an atom at zero,
    # the unit atom and the pure semicircle (every atom at zero)
    PRIORS = {
        "cp3": CP3,
        "cp3_wide": PriorSpectrum.compound_poisson(0.5, ((0.2, 0.3), (1.0, 0.4), (4.0, 0.3))),
        "cp2_wide": PriorSpectrum.compound_poisson(0.2, ((1.0, 0.5), (10.0, 0.5))),
        "cp0.6_zero": PriorSpectrum.compound_poisson(0.6, ((0.0, 0.3), (1.0, 0.7))),
        "cp_unit": PriorSpectrum.compound_poisson(0.5, ((1.0, 1.0),)),
        "semicircle": SEMICIRCLE_PRIOR,
    }
    TS = (1e-6, 1e-3, 0.1, 1.0, 30.0)
    # cp3_wide's first two intervals merge at t = 0.0700022555184842
    MERGE = 0.07000225551848424

    @pytest.fixture(autouse=True)
    def _unit_atom_on_the_general_path(self, monkeypatch):
        general_path(monkeypatch, self.PRIORS["cp_unit"])

    @pytest.mark.parametrize("name", sorted(PRIORS))
    def test_hilbert_at_every_interior_node(self, name):
        # h equals -Re g of the build at every interior node, as for the
        # Marchenko-Pastur curve.  Measured: at most 8.1e-16 of max |Re g|
        prior = self.PRIORS[name]
        for t in self.TS:
            dens = density(prior, t)
            scale = max(np.max(np.abs(g)) for g in dens.re_g)
            for x, re_g in zip(dens.x, dens.re_g):
                off = np.abs(fp.hilbert(prior, t, x[1:-1], dens) + re_g[1:-1]) / scale
                assert np.max(off) <= 1e-13, t

    @pytest.mark.parametrize("name", sorted(PRIORS))
    def test_nodes_and_hilbert_match_real_axis_reference(self, name):
        # every 40th node at least 1e-4 widths inside its interval, against
        # `real_axis_root` relative to |g| there (measured: at most 4.0e-14),
        # and h at 20 random points per interval at least 1e-6 widths inside
        # it, relative to max |h|
        prior = self.PRIORS[name]
        rng = np.random.default_rng(3)
        for t in self.TS:
            dens = density(prior, t)
            h, ref = [], []
            for (l, u), x, rho, re_g in zip(dens.intervals, dens.x, dens.rho, dens.re_g):
                inner = np.flatnonzero((x - l >= 1e-4 * (u - l)) & (u - x >= 1e-4 * (u - l)))[::40]
                g_ref = real_axis_root(prior, t, x[inner], u - l)
                g = re_g[inner] + 1j * np.pi * rho[inner]
                assert np.max(np.abs(g - g_ref) / np.abs(g_ref)) <= 1e-13, t
                lam = l + (u - l) * rng.uniform(1e-6, 1.0 - 1e-6, 20)
                h.append(fp.hilbert(prior, t, lam, dens))
                ref.append(-real_axis_root(prior, t, lam, u - l).real)
            h, ref = np.concatenate(h), np.concatenate(ref)
            assert np.max(np.abs(h - ref)) <= 1e-13 * np.max(np.abs(ref)), t

    @pytest.mark.parametrize("name", sorted(PRIORS))
    def test_mass_and_cube_integral_match_6401_nodes(self, name):
        # over t from 1e-8 to 1e4, and for cp3_wide from 0.06 to 0.12, where
        # the offset build this replaced had mass 1 + 2.8e-5 to 1 - 6e-9
        # after the merge.  Measured: mass within 1.6e-15 of 1, int rho^3
        # within 5.8e-16 relative of 6401 nodes
        prior = self.PRIORS[name]
        ts = list(np.geomspace(1e-8, 1e4, 13))
        if name == "cp3_wide":
            ts += [0.06, 0.07, 0.08, 0.09, 0.1, 0.11, 0.12]
        for t in ts:
            dens, fine = density(prior, t), density(prior, t, n_nodes=6401)
            assert dens.mass() == pytest.approx(1.0, abs=1e-13), t
            assert dens.mass() == pytest.approx(fine.mass(), abs=1e-13), t
            assert dens.cube_integral() == pytest.approx(fine.cube_integral(), rel=1e-13), t

    @pytest.mark.parametrize("rel", [0.0, 1e-5, 1e-3, 1e-2])
    def test_just_after_a_merge(self, rel):
        # cp3_wide just after its merge: the neck where the two intervals
        # joined is narrower than the 801-node grid's spacing in w, and the
        # mass is 3.0e-10 off at rel <= 1e-5, 6.8e-11 at 1e-3 and 8.9e-15 at
        # 1e-2 (6401 nodes: 1.2e-13; a FOUND line in CHANGES.md).  At
        # rel = 0 the two middle critical values are within the collision
        # threshold, so the interval keeps one of them as a third anchor.
        # int rho^3 stays within 1e-13 of 6401 nodes, and h equals -Re g at
        # every interior node
        prior, t = self.PRIORS["cp3_wide"], self.MERGE * (1.0 + rel)
        dens, fine = density(prior, t), density(prior, t, n_nodes=6401)
        assert len(dens.intervals) == 2
        assert (dens.curves[0].vm is not None) == (rel == 0.0)
        assert dens.mass() == pytest.approx(fine.mass(), abs=1e-9)
        assert fine.mass() == pytest.approx(1.0, abs=1e-12)
        assert dens.cube_integral() == pytest.approx(fine.cube_integral(), rel=1e-13)
        scale = max(np.max(np.abs(g)) for g in dens.re_g)
        for x, re_g in zip(dens.x, dens.re_g):
            assert np.max(np.abs(fp.hilbert(prior, t, x[1:-1], dens) + re_g[1:-1])) <= 1e-13 * scale

    def test_eigensolver_only_for_the_edges(self, monkeypatch):
        # the companion eigenvalues of phi'(g) = 0 (`np.roots`) give the
        # edges; the density and `hilbert`, on the support and off it, need
        # none
        calls, roots = [], np.roots
        monkeypatch.setattr(np, "roots", lambda p: calls.append(p) or roots(p))
        dens = density(CP3, 1e-3)
        assert len(dens.intervals) == 2 and len(calls) == 1
        lam = np.concatenate([x[1:-1:50] for x in dens.x] + [[dens.intervals[0][0] - 1.0]])
        assert np.all(np.isfinite(fp.hilbert(CP3, 1e-3, lam, dens)))
        assert len(calls) == 1

    def test_curve_where_x_does_not_increase_raises(self, monkeypatch):
        # that x increases along the curve is measured, not proven: a build
        # whose nodes do not increase says so
        points = fp._cp_points

        def swapped(*args):
            x, *rest = points(*args)
            x = x.copy()
            x[[10, 11]] = x[[11, 10]]
            return (x, *rest)

        monkeypatch.setattr(fp, "_cp_points", swapped)
        with pytest.raises(fp.EdgeDetectionFailed, match="does not increase"):
            density(CP3, 0.5)


class TestFormedOnFirstRead:
    # a build forms rho, dx/dtheta, Re dg/dz and the weights; x and Re g
    # are formed when first read (`SpectralDensity`)

    @pytest.mark.parametrize(
        "kappa,t,n_intervals,n_anchors",
        [(0.5, 0.5, 1, 2), (0.5, 1e-3, 2, 2), (0.95, 5.398127249281708e-06, 1, 3),
         (0.5, 0.0351199750753887, 1, 3)],
        ids=["one", "two", "mp0.95-merged", "mp0.5-merged"],
    )
    def test_marchenko_pastur_matches_the_eager_formulas(self, kappa, t, n_intervals, n_anchors):
        dens = density(PriorSpectrum.marchenko_pastur(kappa), t)
        assert len(dens.intervals) == n_intervals
        assert {len(c.ends) for c in dens.curves} == {n_anchors}
        assert dens.pending is not None
        x, re_g = dens.x, dens.re_g
        assert dens.pending is None and dens.x is x and dens.re_g is re_g
        for curve, xi, gi in zip(dens.curves, x, re_g):
            eager_x, eager_g = oracles.mp_anchored_eager(curve)
            assert np.array_equal(xi, eager_x) and np.array_equal(gi, eager_g)

    def test_read_order_does_not_matter(self):
        a, b = density(MP05, 1e-3), density(MP05, 1e-3)
        re_g, x = a.re_g, a.x
        assert all(map(np.array_equal, x, b.x)) and all(map(np.array_equal, re_g, b.re_g))

    @pytest.mark.parametrize("name", sorted(TestCompoundPoissonCurve.PRIORS))
    def test_compound_poisson_keeps_its_solve(self, monkeypatch, name):
        # the x and Re g of the build's Newton solve (`_cp_points`), as the
        # monotonicity check saw them
        prior = TestCompoundPoissonCurve.PRIORS[name]
        general_path(monkeypatch, prior)
        s2, c2 = fp._theta_grid(fp.DEFAULT_NODES)[:2]
        for t in TestCompoundPoissonCurve.TS:
            dens = density(prior, t)
            for curve, x, re_g in zip(dens.curves, dens.x, dens.re_g):
                assert isinstance(curve, fp._CpCurve)
                eager_x, eager_g = fp._cp_points(curve, s2, c2, fp._anchor_slices(curve, s2), None)[:2]
                assert np.array_equal(x, eager_x) and np.array_equal(re_g, eager_g), t

    @pytest.mark.parametrize("prior", [MP05, CP3], ids=["mp05", "cp3"])
    def test_unformed_density_pickles(self, prior):
        dens = density(prior, 1e-3)
        copy = pickle.loads(pickle.dumps(dens))
        assert copy.pending is not None
        for name in ("x", "re_g", "rho", "weights"):
            assert all(map(np.array_equal, getattr(copy, name), getattr(dens, name))), name

    def test_state_evolution_solves_form_none(self, monkeypatch):
        # solve_qhat, threshold_alpha, the iterative state evolution, the
        # F_RIE map and the denoiser's MMSE read rho and Re dg/dz only: none
        # of the densities they build makes its anchored passes.  The last
        # two are one formula, equal bit for bit.
        built, anchored, build, form = [], [], fp.density, fp._mp_anchored
        monkeypatch.setattr(fp, "density", lambda *a, **k: built.append(build(*a, **k)) or built[-1])
        monkeypatch.setattr(fp, "_mp_anchored", lambda *a: anchored.append(a) or form(*a))
        se.solve_qhat(se.ProblemParams(alpha=0.3, kappa=0.5, delta=0.1))
        se.solve_qhat(se.ProblemParams(alpha=0.8, kappa=0.5))
        se.threshold_alpha(0.5)
        gamp.state_evolution_iterate(se.ProblemParams(alpha=0.3, kappa=0.5, delta=0.1))
        for prior, t in [(MP05, 0.7), (MP20, 0.05), (CP3, 0.1), (MP05, 1e-3)]:
            f_rie = se._f_rie(prior, t)[0]
            assert f_rie == matdenoise.mmse(matdenoise.DenoiseSpec.create(prior, t)), (prior, t)
        unformed = [d.pending is not None for d in built]
        assert len(built) > 10 and all(unformed) and not anchored
        dens = built[-1]
        assert len(dens.intervals) == 2
        dens.re_g, dens.x
        assert len(anchored) == 2


class TestDensityInvariants:
    PRIORS = {
        "mp05": MP05,
        "mp1": MP10,
        "mp2": MP20,
        "cp3": CP3,
        "cp_unit": PriorSpectrum.compound_poisson(0.5, ((1.0, 1.0),)),
    }

    @pytest.fixture(autouse=True)
    def _unit_atom_on_the_general_path(self, monkeypatch):
        general_path(monkeypatch, self.PRIORS["cp_unit"])

    @pytest.mark.parametrize("name", sorted(PRIORS))
    @pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
    def test_mass_mean_second_moment(self, name, t):
        # both builds are on the real axis: off by at most 4.4e-16 in mass
        # and 3.0e-15 in the moments here; the bounds leave a factor 20
        prior = self.PRIORS[name]
        dens = density(prior, t, n_nodes=801)
        assert dens.mass() == pytest.approx(1.0, abs=1e-14)
        mean = dens.integrate([r * x for r, x in zip(dens.rho, dens.x)])
        assert mean == pytest.approx(prior.mean, abs=1e-13)
        second_moment = dens.integrate([r * x * x for r, x in zip(dens.rho, dens.x)])
        assert second_moment == pytest.approx(prior.second_moment + t, abs=1e-13)

    @pytest.mark.parametrize("name", sorted(PRIORS))
    @pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
    def test_nonnegative_and_vanishing_at_edges(self, name, t):
        dens = density(self.PRIORS[name], t, n_nodes=801)
        for rho in dens.rho:
            assert np.all(rho >= 0.0)
            assert rho[0] < 1e-3 and rho[-1] < 1e-3
            assert rho.max() > 100 * max(rho[0], rho[-1])

    def test_split_support_mass_per_interval(self):
        # kappa < 1 at small t: a narrow bulk near zero carries ~ 1 - kappa,
        # the wide bulk carries ~ kappa
        dens = density(MP05, 0.01)
        masses = [float(np.dot(dens.weights[i], dens.rho[i])) for i in range(2)]
        assert masses[0] == pytest.approx(0.5, abs=0.01)
        assert masses[1] == pytest.approx(0.5, abs=0.01)
        assert dens.intervals[0][1] - dens.intervals[0][0] < 0.5
        assert dens.intervals[1][1] - dens.intervals[1][0] > 5.0

    @pytest.mark.parametrize("t", [0.05, 0.5])
    def test_unit_atom_compound_poisson_matches_mp(self, t):
        # the two builds solve the same curve by different routes, so their
        # integrals are compared.  Measured: the moments within 2.7e-15 and
        # int rho^3 within 6.7e-16 relative (the offset build this replaced
        # needed 3201 nodes for 1.2e-8 and 9.3e-8 at t = 0.05)
        mp = density(MP05, t, n_nodes=801)
        cp = density(self.PRIORS["cp_unit"], t, n_nodes=801)
        assert np.max(np.abs(np.ravel(mp.intervals) - np.ravel(cp.intervals))) < 1e-9
        for f in (lambda x: 1.0, lambda x: x, lambda x: x * x):
            moment = [d.integrate([r * f(x) for r, x in zip(d.rho, d.x)]) for d in (mp, cp)]
            assert moment[0] == pytest.approx(moment[1], abs=1e-13)
        assert mp.cube_integral() == pytest.approx(cp.cube_integral(), rel=1e-13)

    def test_t_zero_marchenko_pastur_with_atom(self):
        (l, u), _, rho, _, w, atom = mp_density_t0(MP05)
        assert atom == pytest.approx(0.5)
        assert np.dot(w, rho) == pytest.approx(0.5, abs=1e-6)
        assert l == pytest.approx((1.0 - 0.5**-0.5) ** 2)
        assert u == pytest.approx((1.0 + 0.5**-0.5) ** 2)
        _, _, rho2, _, w2, atom2 = mp_density_t0(MP20)
        assert atom2 == 0.0
        assert np.dot(w2, rho2) + atom2 == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("prior", [MP05, MP20], ids=["mp05", "mp2"])
    def test_t_zero_closed_form_re_g_matches_stieltjes(self, prior):
        # the closed-form Re g of the t = 0 oracle against the root solve of
        # the quadratic at x + i eps, at interior nodes; eps = 1e-12 keeps
        # the offset's own move of g, eps pi rho'(x), below the tolerance
        _, x, rho, re_g, _, _ = mp_density_t0(prior)
        for i in np.linspace(20, len(x) - 21, 9).astype(int):
            g = stieltjes(prior, 0.0, complex(x[i], 1e-12)).g
            assert g.real == pytest.approx(re_g[i], rel=1e-9)
            assert g.imag / np.pi == pytest.approx(rho[i], rel=1e-9)

    @pytest.mark.parametrize("prior", [MP05, CP3], ids=["mp05", "cp3"])
    def test_requires_positive_t(self, prior):
        # densities are built at t = 1/q_hat > 0 only; t = 0, the law with
        # an atom at zero, is the tests' closed-form oracle
        for t in (0.0, -0.5):
            with pytest.raises(ValueError):
                density(prior, t)

    @pytest.mark.parametrize("n_nodes", [800, 2, 1])
    def test_rejects_a_node_count_simpson_cannot_use(self, n_nodes):
        # Simpson's rule in theta needs an odd count of at least 3; an even
        # count is an error, not bumped to the next odd one
        with pytest.raises(ValueError, match="odd"):
            density(MP05, 0.5, n_nodes=n_nodes)

    def test_branch_selection_matches_continuation(self):
        # where spurious upper-half-plane roots exist (near the gap of a
        # split support) the branch `hilbert` solves on the support must
        # agree with continuation from high in the upper half plane, at
        # nodes of the sin^2 grid in x.  The continuation ends 1e-14 widths
        # above the axis, where its Re g is within about 1e-12 of the axis'
        dens = density(MP05, 0.01)
        s2 = fp._theta_grid(fp.DEFAULT_NODES)[0]
        for l, u in dens.intervals:
            x = (l + (u - l) * s2)[np.linspace(5, len(s2) - 6, 12).astype(int)]
            g_cont = homotopy_solve(MP05, 0.01, x, 1e-14 * (u - l))
            assert np.max(np.abs(fp.hilbert(MP05, 0.01, x, dens) + g_cont.real)) < 1e-7

    def test_very_thin_bulk_keeps_mass(self):
        # at t = 1e-8 the lower bulk has width ~ 1e-4; an evaluation offset
        # had to shrink with it or the mass leaked.  The closed-form build
        # has none, and its mass is 4.4e-16 off (bound: a factor 20 above)
        dens = density(MP05, 1e-8)
        assert len(dens.intervals) == 2
        assert dens.mass() == pytest.approx(1.0, abs=1e-14)

    def test_narrow_bulk_at_zero_kept_at_tiny_kappa(self):
        # the bulk near zero carries mass 1 - kappa but is ~1e-3 as tall as
        # wide; both intervals must be found and their masses kept
        # (mass 4.4e-16 off; bound a factor 20 above)
        dens = density(PriorSpectrum.marchenko_pastur(3e-4), 0.5211524781096064, n_nodes=801)
        assert len(dens.intervals) == 2
        assert dens.mass() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("t", [1e-9, 1e-10])
    def test_bulk_at_zero_at_tiny_kappa_and_t(self, t):
        # at kappa t ~ 1e-13 the build once lost 1.7e-3 of the bulk at zero
        # (t = 1e-9) or raised NoAdmissibleRoot (t = 1e-10), and later the
        # evaluation offset smeared 2.5e-5 of the bulk's mass away.  The
        # bulk spans 1e-11 of s = |g|^2; the closed-form build keeps its
        # mass and the total to 2.2e-16 at both t (bounds: a factor 45 above)
        kappa = 3e-4
        dens = density(PriorSpectrum.marchenko_pastur(kappa), t)
        assert len(dens.intervals) == 2
        bulk = float(np.dot(dens.weights[0], dens.rho[0]))
        assert bulk == pytest.approx(1.0 - kappa, rel=1e-14)
        assert dens.mass() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("t", [1e-6, 1e-9])
    def test_bulk_at_zero_holds_the_atom(self, t):
        # MP(0.3)'s atom at zero, w0 = 0.7, spreads into a bulk of that
        # mass, and K t int rho^3 tends to w0^2 from above (measured
        # 5.0e-2 t above it).  With an evaluation offset the bulk was 5.3e-6
        # (t = 1e-6) and 1.8e-5 (t = 1e-9) short, and K t int rho^3 9.9e-6
        # and 3.3e-5 below w0^2, on 801 to 12801 nodes alike
        dens = density(PriorSpectrum.marchenko_pastur(0.3), t)
        assert len(dens.intervals) == 2
        assert float(np.dot(dens.weights[0], dens.rho[0])) == pytest.approx(0.7, abs=1e-12)
        excess = 4.0 * np.pi**2 / 3.0 * t * dens.cube_integral() - 0.49
        assert 0.0 < excess < 0.1 * t

    def test_mass_over_kappa_and_t_grid(self, monkeypatch):
        # every support interval found: a dropped interval loses its mass
        # (1 - kappa for the bulk at zero when kappa < 1)
        priors = [PriorSpectrum.marchenko_pastur(k) for k in np.geomspace(1e-3, 20.0, 8)]
        priors += [
            CP3,
            PriorSpectrum.compound_poisson(0.2, ((1.0, 0.5), (10.0, 0.5))),
            PriorSpectrum.compound_poisson(0.5, ((1.0, 1.0),)),
            PriorSpectrum.compound_poisson(0.05, ((0.5, 0.5), (2.0, 0.5))),
        ]
        general_path(monkeypatch, priors[-2])
        off = []
        for prior in priors:
            for t in np.geomspace(1e-8, 10.0, 12):
                mass = density(prior, t, n_nodes=401).mass()
                if not abs(mass - 1.0) < 1e-2:
                    off.append((prior.kappa, prior.atoms, t, mass))
        assert not off, off


class TestCubeIntegral:
    def test_unit_semicircle(self):
        dens = density(SEMICIRCLE_PRIOR, 1.0)
        assert dens.cube_integral() == pytest.approx(CUBE_SEMICIRCLE, rel=1e-6)

    def test_large_t_semicircle_limit(self):
        t = 1e4
        dens = density(MP05, t)
        assert dens.cube_integral() == pytest.approx(CUBE_SEMICIRCLE / t, rel=1e-3)

    @pytest.mark.parametrize("kappa", [0.5, 2.0])
    @pytest.mark.parametrize("t", [1e4, 1e8, 2e10])
    def test_large_t_first_order_term(self, kappa, t):
        # K t int rho^3 = 1 - Var / t + O(1/t^2), Var = 1/kappa the prior's
        # variance.  There |g|^2 is within about Var / t^2 of 1/t across the
        # support; with s_u - s_l taken from g_c(u) + g_c(l) the build lost
        # 4.3e-5 of its mass at t = 2e10 (now 4.4e-16 at most)
        dens = density(PriorSpectrum.marchenko_pastur(kappa), t)
        assert dens.mass() == pytest.approx(1.0, abs=1e-14)
        excess = (4.0 * np.pi**2 / 3.0 * t * dens.cube_integral() - 1.0) * t
        assert excess == pytest.approx(-1.0 / kappa, rel=1e-3)

    def test_small_t_mp_limit_above_one(self):
        # kappa > 1: the t -> 0 density is the pure MP bulk, whose cube
        # integral is (3/4pi^2) kappa^2/(kappa - 1)
        dens = density(MP20, 1e-6)
        assert dens.cube_integral() == pytest.approx(
            CUBE_SEMICIRCLE * 4.0 / (2.0 - 1.0), rel=1e-3
        )

    def test_small_t_narrow_bulk_dominates_below_one(self):
        # kappa < 1: the narrow bulk near zero is a semicircle of variance
        # t(1 - kappa) carrying mass 1 - kappa, so t * cube -> (1-kappa)^2
        # times the unit-semicircle value
        t = 1e-6
        dens = density(MP05, t, n_nodes=2001)
        assert t * dens.cube_integral() == pytest.approx(
            0.25 * CUBE_SEMICIRCLE, rel=1e-3
        )

    def test_refinement_oracle(self, monkeypatch):
        # independent scheme: composite midpoint on a uniform grid at 10x
        # the node count, density re-evaluated at the midpoints by the
        # companion-matrix root of the unit-atom compound-Poisson prior
        dens = density(MP05, 0.5, n_nodes=2001)
        cp = PriorSpectrum.compound_poisson(MP05.kappa, ((1.0, 1.0),))
        general_path(monkeypatch, cp)
        val = dens.cube_integral()
        oracle = 0.0
        for l, u in dens.intervals:
            n = 20010
            h = (u - l) / n
            xm = l + (np.arange(n) + 0.5) * h
            g = upper_root(cp, 0.5, xm, EPS)
            oracle += float(np.sum(np.maximum(g.imag / np.pi, 0.0) ** 3) * h)
        assert val == pytest.approx(oracle, rel=1e-5)

    # t = 0.1 is cp3_wide just after two of its intervals merged, 8.7e-7
    # off with the evaluation offset this build replaced
    @pytest.mark.parametrize("t", [0.01, 0.1, 0.5, 2.0])
    @pytest.mark.parametrize("name", ["mp05", "mp20", "cp3_wide"])
    def test_t_derivative_matches_central_difference(self, name, t):
        # the Burgers identity agrees with the differences to 3e-11-2e-10;
        # h = 1e-5 t keeps their own O(h^2) error near 1e-10
        prior = {"mp05": MP05, "mp20": MP20, "cp3_wide": TestLogPotential.CP3_WIDE}[name]
        h = 1e-5 * t
        fd = (
            density(prior, t + h, n_nodes=3201).cube_integral()
            - density(prior, t - h, n_nodes=3201).cube_integral()
        ) / (2.0 * h)
        assert density(prior, t, n_nodes=3201).cube_integral_dt() == pytest.approx(fd, rel=1e-8)

    @pytest.mark.parametrize("t", [1e-4, 1e-2, 0.3, 5.0])
    @pytest.mark.parametrize(
        "prior",
        [PriorSpectrum.marchenko_pastur(k) for k in (0.1, 0.5, 1.0, 2.0)] + [CP3],
        ids=["mp0.1", "mp0.5", "mp1", "mp2", "cp3"],
    )
    def test_t_derivative_matches_complex_phi_prime_oracle(self, prior, t):
        # dg/dz from the build (for MP, -g (g + kappa) / P_z'(g)) against
        # 1/phi'(g) evaluated again at the stored g; they agree to about
        # 4e-16.  MP(0.1) at every t, MP(0.5) at t <= 1e-2 and CP3 at 1e-4
        # have two support intervals
        dens = density(prior, t)
        assert dens.cube_integral_dt() == pytest.approx(cube_integral_dt(dens), rel=1e-10, abs=0.0)


class TestHilbert:
    def test_symmetric_density_vanishes_at_center(self):
        dens = density(SEMICIRCLE_PRIOR, 1.0)
        assert abs(fp.hilbert(SEMICIRCLE_PRIOR, 1.0, 0.0, dens)) < 1e-8

    def test_far_tail_is_one_over_lambda(self):
        lam = 1e4
        dens = density(MP05, 0.5)
        assert fp.hilbert(MP05, 0.5, lam, dens) == pytest.approx(1.0 / lam, abs=1e-7)

    @pytest.mark.parametrize(
        "prior,t", [(MP05, 0.25), (MP20, 0.5), (CP3, 0.3)], ids=["mp05", "mp2", "cp3"]
    )
    def test_matches_principal_value_oracle(self, prior, t):
        dens = density(prior, t, n_nodes=4001)
        lo = min(l for l, _ in dens.intervals) - 1.0
        hi = max(u for _, u in dens.intervals) + 1.0
        rng = np.random.default_rng(7)
        lam = rng.uniform(lo, hi, size=50)
        h = fp.hilbert(prior, t, lam, dens=dens)
        for i in range(len(lam)):
            assert h[i] == pytest.approx(pv_pairing_oracle(dens, lam[i]), abs=1e-4)

    @pytest.mark.parametrize("x", [1e4, -1e4])
    def test_far_off_support_starts_from_the_tail(self, monkeypatch, x):
        # the square-root start at the nearest edge lands outside the outer
        # bracket; bisecting toward the pole at 0 took 17 (x = 1e4) and 20
        # (x = -1e4) evaluations of phi, the start -1/(x - mean) takes 2.
        # The oracle is g = -sum_n m_n / x^(n+1) with the moments of mu_t
        # from its free cumulants 1, 1/kappa + t, 1/kappa^2, 1/kappa^3
        t, kappa = 0.1, MP05.kappa
        c1, c2, c3, c4 = 1.0, 1.0 / kappa + t, 1.0 / kappa**2, 1.0 / kappa**3
        moments = (1.0, c1, c2 + c1**2, c3 + 3 * c1 * c2 + c1**3,
                   c4 + 4 * c1 * c3 + 2 * c2**2 + 6 * c1**2 * c2 + c1**4)
        series = -sum(m / x ** (n + 1) for n, m in enumerate(moments))
        dens = density(MP05, t)
        calls = []
        phi = fp._phi
        monkeypatch.setattr(fp, "_phi", lambda *args: calls.append(args) or phi(*args))
        g = fp._real_branch(MP05, t, np.array([x]), dens)[0]
        assert len(calls) <= 4
        assert g == pytest.approx(series, rel=1e-14)

    def test_rejects_density_of_another_prior_or_t(self):
        dens = density(MP05, 0.25)
        with pytest.raises(ValueError):
            fp.hilbert(MP05, 0.5, 1.0, dens=dens)
        with pytest.raises(ValueError):
            fp.hilbert(MP20, 0.25, 1.0, dens=dens)

    def test_off_support_root_next_to_an_edge_is_real(self):
        # 0.1 beyond the right edge at kappa=0.001 two roots of P_lam lie
        # 3e-6 apart; the physical one, phi' > 0, must come out real
        # (Cardano returns the pair as complex)
        prior, t, lam = PriorSpectrum.marchenko_pastur(0.001), 0.178, 1064.35
        dens = density(prior, t)
        assert 0.0 < lam - dens.intervals[-1][1] < 0.11
        roots = np.roots(coeffs_desc(prior, t, lam)[0].real)
        up = roots[(roots.imag == 0.0) & (fp._phi_prime(prior, t, roots.real) > 0.0)]
        assert len(up) == 1
        assert fp.hilbert(prior, t, lam, dens=dens) == pytest.approx(-up[0].real, rel=1e-12)

    @pytest.mark.parametrize(
        "prior,t,lam,h",
        [
            # 1.1e-8 beyond the right edge; the companion roots' increasing
            # real root was not unique here and the homotopy fallback's
            # answer was 2.8e-7 off
            (PriorSpectrum.marchenko_pastur(0.011171617133750799), 4.3051315171957884e-07,
             109.43477068247854, 0.01010366512772891180625544320832116014912),
            # 6.9e-9 beyond the right edge 6.8631233582; the polished
            # companion root was 3.1e-7 off
            (CP3, 1e-8, 6.86312336505784, 0.2367613647102786122270421722890642270967),
        ],
        ids=["mp0.0112", "cp3"],
    )
    def test_off_support_next_to_an_edge_matches_40_digits(self, prior, t, lam, h):
        # h is -g at the root of phi(g) = lam on its increasing arc, solved
        # to 40 digits (mpmath findroot)
        dens = density(prior, t)
        assert lam > dens.intervals[-1][1]
        assert fp.hilbert(prior, t, lam, dens) == pytest.approx(h, rel=1e-11)


class TestLogPotential:
    @pytest.mark.parametrize("t", [0.3, 1.0, 2.7])
    def test_semicircle_closed_form(self, t):
        dens = density(SEMICIRCLE_PRIOR, t)
        assert fp.log_potential(dens) == pytest.approx(
            0.5 * np.log(t) - 0.25, abs=1e-4
        )

    def test_rescaling_shifts_by_log_c(self):
        # c X for X ~ MP(kappa) (+) semicircle(t) is the law of the
        # compound-Poisson prior with the one atom (c, 1) at t c^2, which
        # builds on the compound-Poisson path
        c = 3.0
        dens = density(MP05, 0.5)
        scaled = density(PriorSpectrum.compound_poisson(MP05.kappa, ((c, 1.0),)), c * c * dens.t)
        assert fp.log_potential(scaled) - fp.log_potential(dens) == pytest.approx(
            np.log(c), abs=1e-5
        )

    def test_refinement_reproducibility(self):
        a = fp.log_potential(density(MP05, 0.5, n_nodes=501))
        b = fp.log_potential(density(MP05, 0.5, n_nodes=2001))
        assert a == pytest.approx(b, abs=1e-4)

    CP3_WIDE = PriorSpectrum.compound_poisson(0.5, ((0.2, 0.3), (1.0, 0.4), (4.0, 0.3)))

    @pytest.mark.parametrize(
        "name,t,n_nodes",
        [(n, t, 801) for n in sorted(TestDensityInvariants.PRIORS) for t in (0.1, 0.5, 2.0)]
        + [("mp05", 0.01, 801), ("mp05", 1e-3, 801), ("cp3_wide", 0.05, 801),
           # just after two intervals merged; the offset build this replaced
           # had mass 1 + 5.3e-6 here on 801 nodes and needed 3201
           ("cp3_wide", 0.1, 801)],
    )
    def test_matches_kernel_oracle(self, name, t, n_nodes):
        # within the O(N^2) kernel's own 801-vs-3201-node difference; the
        # last four cases have two, two, three and two support intervals
        prior = {**TestDensityInvariants.PRIORS, "cp3_wide": self.CP3_WIDE}[name]
        reference = log_potential_kernel(density(prior, t, n_nodes=3201))
        bound = abs(log_potential_kernel(density(prior, t)) - reference)
        assert abs(fp.log_potential(density(prior, t, n_nodes=n_nodes)) - reference) <= bound


class TestSigmaTDerivative:
    def test_semicircle_analytic(self):
        t = 0.7
        assert sigma_t_derivative(SEMICIRCLE_PRIOR, t) == pytest.approx(
            0.5 / t, rel=1e-4
        )

    @pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
    def test_matches_finite_difference(self, t):
        an = sigma_t_derivative(MP05, t)
        dt = 1e-3
        fd = (
            fp.log_potential(density(MP05, t + dt))
            - fp.log_potential(density(MP05, t - dt))
        ) / (2.0 * dt)
        assert an == pytest.approx(fd, rel=1e-3)

    def test_matches_finite_difference_square_aspect(self):
        an = sigma_t_derivative(MP10, 0.3)
        dt = 1e-3
        fd = (
            fp.log_potential(density(MP10, 0.3 + dt))
            - fp.log_potential(density(MP10, 0.3 - dt))
        ) / (2.0 * dt)
        assert an == pytest.approx(fd, rel=1e-3)

    def test_large_t_limit(self):
        t = 1e3
        assert sigma_t_derivative(MP05, t) == pytest.approx(0.5 / t, rel=1e-2)

    def test_requires_positive_t(self):
        with pytest.raises(ValueError):
            sigma_t_derivative(MP05, 0.0)
