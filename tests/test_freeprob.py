"""Tests for the free-convolution spectral toolbox.

Conventions checked throughout: g(z) = E[1/(X - z)] so that g(z) ~ -1/z for
|z| -> infinity and Im g > 0 in the upper half plane; the density of
mu_t = prior (+) semicircle(t) is Im g(x + i*eps)/pi.

Every nontrivial expected value is pinned against an independent oracle:
closed forms where known (semicircle, Marchenko-Pastur limits), refinement
or alternative quadrature schemes otherwise.
"""

import dataclasses

import numpy as np
import pytest

from quadnet import freeprob as fp
from quadnet.freeprob import PriorSpectrum, density, support_edges, stieltjes

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
        v = dens.interp(pts, dens.rho)
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
        total += float(np.dot(dens._weights(i), rg * kernel))
    return total


def newton_polish_reference(prior, t, z, g, steps=2):
    """The Newton polish as it was before coefficients were shared.

    Rebuilds the coefficients from (prior, t, z) and starts Horner's rule
    from zeros; `fp._newton_polish` takes the caller's coefficients and
    starts at the leading one, and must give the same bits.
    """
    coeffs = fp._coeffs_desc(prior, t, z)

    def horner(gv):
        p = np.zeros_like(gv)
        dp = np.zeros_like(gv)
        for k in range(coeffs.shape[-1]):
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
            PriorSpectrum(kappa=1.0, kind="wishart")
        with pytest.raises(ValueError):
            PriorSpectrum.compound_poisson(1.0, ((1.0, 0.5), (2.0, 0.6)))
        with pytest.raises(ValueError):
            PriorSpectrum.compound_poisson(1.0, ((-1.0, 1.0),))
        with pytest.raises(ValueError):
            PriorSpectrum(kappa=1.0, atoms=((2.0, 1.0),), kind="marchenko_pastur")


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
        roots = fp._all_roots(MP05, 0.1, z)[0]
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
        g = fp._homotopy_solve(MP05, 0.01, xs, 1e-9)
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
                    inside, outside = fp._has_nonreal_root(
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
        assert dens.second_moment() == pytest.approx(
            prior.second_moment + 0.001, rel=1e-3
        )

    def test_requires_positive_t(self):
        with pytest.raises(ValueError):
            support_edges(MP05, 0.0)
        with pytest.raises(ValueError):
            support_edges(MP05, -1.0)


class TestSharedCoefficients:
    @pytest.mark.parametrize("t", [1e-9, 1e-5, 1e-2, 0.5, 2.0])
    @pytest.mark.parametrize("prior", [MP05, CP3], ids=["mp05", "cp3"])
    def test_polish_matches_reference(self, monkeypatch, prior, t):
        # every polish on the density and off-support Hilbert paths gets
        # coefficients built for its own (prior, t, z) and gives the bits of
        # the reference polish that rebuilds them
        built = {}
        coeffs_desc, polish = fp._coeffs_desc, fp._newton_polish

        def recording_coeffs(prior_, t_, z):
            c = coeffs_desc(prior_, t_, z)
            built[id(c)] = (c, prior_, t_, z)
            return c

        n_checked = [0]

        def checked_polish(coeffs, g, steps=2):
            out = polish(coeffs, g, steps)
            _, prior_, t_, z = built[id(coeffs)]
            assert np.array_equal(out, newton_polish_reference(prior_, t_, z, g, steps))
            n_checked[0] += 1
            return out

        monkeypatch.setattr(fp, "_coeffs_desc", recording_coeffs)
        monkeypatch.setattr(fp, "_newton_polish", checked_polish)
        dens = density(prior, t, n_nodes=201)
        edges = np.array(dens.intervals).ravel()
        # beyond both ends and in every gap: solved off the support
        gaps = 0.5 * (edges[1:-1:2] + edges[2::2])
        off = np.concatenate([[edges[0] - 1.0, edges[-1] + 1.0], gaps])
        fp.hilbert(prior, t, off, dens=dens)
        assert n_checked[0] > len(dens.intervals)


class TestDensityInvariants:
    PRIORS = {
        "mp05": MP05,
        "mp1": MP10,
        "mp2": MP20,
        "cp3": CP3,
        "cp_unit": PriorSpectrum.compound_poisson(0.5, ((1.0, 1.0),)),
    }

    @pytest.mark.parametrize("name", sorted(PRIORS))
    @pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
    def test_mass_mean_second_moment(self, name, t):
        prior = self.PRIORS[name]
        dens = density(prior, t, n_nodes=801)
        assert dens.mass() == pytest.approx(1.0, abs=1e-4)
        assert dens.mean() == pytest.approx(prior.mean, abs=1e-3)
        assert dens.second_moment() == pytest.approx(prior.second_moment + t, abs=1e-3)

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
        masses = [float(np.dot(dens._weights(i), dens.rho[i])) for i in range(2)]
        assert masses[0] == pytest.approx(0.5, abs=0.01)
        assert masses[1] == pytest.approx(0.5, abs=0.01)
        assert dens.intervals[0][1] - dens.intervals[0][0] < 0.5
        assert dens.intervals[1][1] - dens.intervals[1][0] > 5.0

    @pytest.mark.parametrize("t", [0.05, 0.5])
    def test_unit_atom_compound_poisson_matches_mp(self, t):
        mp = density(MP05, t, n_nodes=801)
        cp = density(self.PRIORS["cp_unit"], t, n_nodes=801)
        assert np.max(np.abs(np.ravel(mp.intervals) - np.ravel(cp.intervals))) < 1e-9
        for a, b in zip(mp.rho, cp.rho):
            assert np.max(np.abs(a - b)) < 1e-8

    def test_t_zero_marchenko_pastur_with_atom(self):
        dens = density(MP05, 0.0)
        assert dens.atom_mass_at_zero == pytest.approx(0.5)
        assert dens.integrate(dens.rho) == pytest.approx(0.5, abs=1e-6)
        ((l, u),) = dens.intervals
        assert l == pytest.approx((1.0 - 0.5**-0.5) ** 2)
        assert u == pytest.approx((1.0 + 0.5**-0.5) ** 2)
        dens2 = density(MP20, 0.0)
        assert dens2.atom_mass_at_zero == 0.0
        assert dens2.mass() == pytest.approx(1.0, abs=1e-6)

    def test_t_zero_compound_poisson_rejected(self):
        with pytest.raises(ValueError):
            density(CP3, 0.0)
        with pytest.raises(ValueError):
            density(MP05, -0.5)

    def test_branch_selection_matches_continuation(self):
        # where spurious upper-half-plane roots exist (near the gap of a
        # split support) the chosen branch must agree with continuation from
        # high in the upper half plane
        dens = density(MP05, 0.01)
        for i in range(2):
            idx = np.linspace(5, len(dens.x[i]) - 6, 12).astype(int)
            x = dens.x[i][idx]
            g_cont = fp._homotopy_solve(MP05, 0.01, x, min(dens.eps, 1e-5 * np.diff(dens.intervals[i])[0]))
            assert np.max(np.abs(dens.rho[i][idx] - g_cont.imag / np.pi)) < 1e-7

    def test_very_thin_bulk_keeps_mass(self):
        # at t = 1e-8 the lower bulk has width ~ 1e-4; the evaluation offset
        # must shrink with it or the mass leaks
        dens = density(MP05, 1e-8)
        assert len(dens.intervals) == 2
        assert dens.mass() == pytest.approx(1.0, abs=1e-4)

    def test_narrow_bulk_at_zero_kept_at_tiny_kappa(self):
        # the bulk near zero carries mass 1 - kappa but is ~1e-3 as tall as
        # wide; both intervals must be found and their masses kept
        dens = density(PriorSpectrum.marchenko_pastur(3e-4), 0.5211524781096064, n_nodes=801)
        assert len(dens.intervals) == 2
        assert dens.mass() == pytest.approx(1.0, abs=1e-4)

    def test_mass_over_kappa_and_t_grid(self):
        # every support interval found: a dropped interval loses its mass
        # (1 - kappa for the bulk at zero when kappa < 1)
        priors = [PriorSpectrum.marchenko_pastur(k) for k in np.geomspace(1e-3, 20.0, 8)]
        priors += [
            CP3,
            PriorSpectrum.compound_poisson(0.2, ((1.0, 0.5), (10.0, 0.5))),
            PriorSpectrum.compound_poisson(0.5, ((1.0, 1.0),)),
            PriorSpectrum.compound_poisson(0.05, ((0.5, 0.5), (2.0, 0.5))),
        ]
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

    def test_refinement_oracle(self):
        # independent scheme: composite midpoint on a uniform grid at 10x
        # the node count, density re-evaluated at the midpoints
        dens = density(MP05, 0.5, n_nodes=2001)
        val = dens.cube_integral()
        oracle = 0.0
        for l, u in dens.intervals:
            n = 20010
            h = (u - l) / n
            xm = l + (np.arange(n) + 0.5) * h
            g = fp._grid_branch(MP05, 0.5, xm, dens.eps)
            oracle += float(np.sum(np.maximum(g.imag / np.pi, 0.0) ** 3) * h)
        assert val == pytest.approx(oracle, rel=1e-5)


class TestHilbert:
    def test_symmetric_density_vanishes_at_center(self):
        assert abs(fp.hilbert(SEMICIRCLE_PRIOR, 1.0, 0.0)) < 1e-8

    def test_far_tail_is_one_over_lambda(self):
        lam = 1e4
        assert fp.hilbert(MP05, 0.5, lam) == pytest.approx(1.0 / lam, abs=1e-7)

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

    def test_rejects_density_of_another_prior_or_t(self):
        dens = density(MP05, 0.25)
        with pytest.raises(ValueError):
            fp.hilbert(MP05, 0.5, 1.0, dens=dens)
        with pytest.raises(ValueError):
            fp.hilbert(MP20, 0.25, 1.0, dens=dens)

    def test_off_support_root_next_to_an_edge_is_real(self, monkeypatch):
        # 0.1 beyond the right edge at kappa=0.001 two roots of P_lam lie
        # 3e-6 apart; the physical one, phi' > 0, must come out real and
        # need no homotopy (Cardano returns the pair as complex)
        prior, t, lam = PriorSpectrum.marchenko_pastur(0.001), 0.178, 1064.35
        dens = density(prior, t)
        assert 0.0 < lam - dens.intervals[-1][1] < 0.11

        def refuse(*args):
            raise AssertionError("homotopy fallback used")

        monkeypatch.setattr(fp, "_homotopy_solve", refuse)
        roots = np.roots(fp._coeffs_desc(prior, t, lam)[0].real)
        up = roots[(roots.imag == 0.0) & (fp._phi_prime(prior, t, roots.real) > 0.0)]
        assert len(up) == 1
        assert fp.hilbert(prior, t, lam, dens=dens) == pytest.approx(-up[0].real, rel=1e-12)

    def test_with_and_without_precomputed_density_agree(self):
        dens = density(MP05, 0.25, n_nodes=2001)
        lam = np.array([0.5, 1.0, 3.0, -2.0, 7.0])
        a = fp.hilbert(MP05, 0.25, lam, dens=dens)
        b = fp.hilbert(MP05, 0.25, lam)
        np.testing.assert_allclose(a, b, atol=2e-6)


class TestLogPotential:
    @pytest.mark.parametrize("t", [0.3, 1.0, 2.7])
    def test_semicircle_closed_form(self, t):
        dens = density(SEMICIRCLE_PRIOR, t)
        assert fp.log_potential(dens) == pytest.approx(
            0.5 * np.log(t) - 0.25, abs=1e-4
        )

    def test_rescaling_shifts_by_log_c(self):
        c = 3.0
        dens = density(MP05, 0.5)
        scaled = dataclasses.replace(
            dens,
            intervals=tuple((c * l, c * u) for l, u in dens.intervals),
            x=tuple(c * x for x in dens.x),
            rho=tuple(r / c for r in dens.rho),
            re_g=tuple(g / c for g in dens.re_g),
        )
        assert fp.log_potential(scaled) - fp.log_potential(dens) == pytest.approx(
            np.log(c), abs=1e-5
        )

    def test_refinement_reproducibility(self):
        a = fp.log_potential(density(MP05, 0.5, n_nodes=501))
        b = fp.log_potential(density(MP05, 0.5, n_nodes=2001))
        assert a == pytest.approx(b, abs=1e-4)

    def test_atom_rejected(self):
        with pytest.raises(ValueError):
            fp.log_potential(density(MP05, 0.0))

    CP3_WIDE = PriorSpectrum.compound_poisson(0.5, ((0.2, 0.3), (1.0, 0.4), (4.0, 0.3)))

    @pytest.mark.parametrize(
        "name,t,n_nodes",
        [(n, t, 801) for n in sorted(TestDensityInvariants.PRIORS) for t in (0.1, 0.5, 2.0)]
        + [("mp05", 0.01, 801), ("mp05", 1e-3, 801), ("cp3_wide", 0.05, 801),
           # just after two intervals merge the 801-node density has mass
           # 1 + 5.3e-6, which both routes carry (see the FOUND line on it in
           # CHANGES.md); on 3201 nodes the density is accurate
           ("cp3_wide", 0.1, 3201)],
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
        assert fp.sigma_t_derivative(SEMICIRCLE_PRIOR, t) == pytest.approx(
            0.5 / t, rel=1e-4
        )

    @pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
    def test_matches_finite_difference(self, t):
        an = fp.sigma_t_derivative(MP05, t)
        dt = 1e-3
        fd = (
            fp.log_potential(density(MP05, t + dt))
            - fp.log_potential(density(MP05, t - dt))
        ) / (2.0 * dt)
        assert an == pytest.approx(fd, rel=1e-3)

    def test_matches_finite_difference_square_aspect(self):
        an = fp.sigma_t_derivative(MP10, 0.3)
        dt = 1e-3
        fd = (
            fp.log_potential(density(MP10, 0.3 + dt))
            - fp.log_potential(density(MP10, 0.3 - dt))
        ) / (2.0 * dt)
        assert an == pytest.approx(fd, rel=1e-3)

    def test_large_t_limit(self):
        t = 1e3
        assert fp.sigma_t_derivative(MP05, t) == pytest.approx(0.5 / t, rel=1e-2)

    def test_requires_positive_t(self):
        with pytest.raises(ValueError):
            fp.sigma_t_derivative(MP05, 0.0)
