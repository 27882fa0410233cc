"""Tests for the rotationally-invariant matrix denoiser.

The scalar shrinker and the asymptotic error formula are pinned against
finite-dimensional Monte Carlo: eigenvector overlaps at d = 2000 for the
shrinker, and the realized denoising error at d = 500 for the MMSE value.
"""

import dataclasses

import numpy as np
import pytest

from quadnet import freeprob as fp
from quadnet import gamp
from quadnet import matdenoise as md
from quadnet.freeprob import PriorSpectrum
from quadnet.matdenoise import sample_prior

from oracles import EPS, homotopy_solve, real_axis_root

MP05 = PriorSpectrum.marchenko_pastur(0.5)
CP3 = PriorSpectrum.compound_poisson(0.7, ((0.5, 0.3), (1.0, 0.4), (2.0, 0.3)))
SEMICIRCLE_PRIOR = PriorSpectrum.compound_poisson(1.0, ((0.0, 1.0),))


class TestDenoiseSpec:
    def test_create_caches_matching_density(self):
        spec = md.DenoiseSpec.create(MP05, 0.5)
        assert spec.rho.t == 0.5
        assert spec.rho.prior == MP05
        assert spec.rho.mass() == pytest.approx(1.0, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            md.DenoiseSpec.create(MP05, 0.0)
        with pytest.raises(ValueError):
            md.DenoiseSpec.create(MP05, -0.5)

    @pytest.mark.parametrize("prior", [MP05, CP3], ids=["mp05", "cp3"])
    def test_prior_and_delta_are_read_from_the_density(self, prior):
        spec = md.DenoiseSpec.create(prior, 0.3)
        assert [f.name for f in dataclasses.fields(spec)] == ["rho"]
        assert spec.prior == prior and spec.prior is spec.rho.prior
        assert spec.delta == 0.3 and spec.delta is spec.rho.t

    def test_equality_and_hash_by_the_density_identity(self):
        # densities compare and hash by identity, so specs of one density
        # are equal and specs of two builds are not, before and after the
        # build's x and Re g are formed; field-wise array comparison raised
        a, b = md.DenoiseSpec.create(MP05, 0.3), md.DenoiseSpec.create(MP05, 0.3)
        same = md.DenoiseSpec(a.rho)
        assert a == same and hash(a) == hash(same)
        assert a != b and len({a, b, same}) == 2
        md.mmse(a)
        assert a == same and hash(a) == hash(same) and a != b


class TestShrink:
    def test_pure_noise_shrinks_to_zero(self):
        # signal spectrum concentrated at 0: the observation is pure
        # semicircle noise and the optimal estimate of the signal is 0.
        # The Hilbert transform of the semicircle is lam/(2 delta) on its
        # support, so f(lam) = lam - 2 delta h(lam) vanishes identically.
        delta = 0.7
        spec = md.DenoiseSpec.create(SEMICIRCLE_PRIOR, delta)
        lam = np.linspace(-1.8, 1.8, 13) * np.sqrt(delta)
        h = fp.hilbert(SEMICIRCLE_PRIOR, delta, lam, dens=spec.rho)
        np.testing.assert_allclose(h, lam / (2.0 * delta), atol=1e-6)
        np.testing.assert_allclose(md.shrink(spec, lam), 0.0, atol=1e-6)

    def test_weak_noise_is_near_identity(self):
        spec = md.DenoiseSpec.create(PriorSpectrum.marchenko_pastur(2.0), 1e-4)
        lam = np.array([0.3, 1.0, 2.0, 2.6])
        assert np.max(np.abs(md.shrink(spec, lam) - lam)) < 1e-3

    def test_scalar_and_array_forms(self):
        spec = md.DenoiseSpec.create(MP05, 0.5)
        s = md.shrink(spec, 2.0)
        assert isinstance(s, float)
        np.testing.assert_allclose(md.shrink(spec, np.array([2.0]))[0], s)

    def test_eigenvector_overlap_oracle(self):
        # finite-d oracle for f(lam): among eigenpairs (lam_i, u_i) of the
        # noisy matrix, E[u_i^T S u_i | lam_i ~ lam] converges to the optimal
        # shrinkage of lam
        delta = 0.5
        spec = md.DenoiseSpec.create(MP05, delta)
        rng = np.random.default_rng(42)
        d = 2000
        s = md.sample_wishart(d, 0.5, rng)
        y = s + np.sqrt(delta) * md.sample_goe(d, rng)
        evals, vecs = np.linalg.eigh(y)
        for lam0 in (0.5, 2.0, 3.5):
            sel = np.abs(evals - lam0) < 0.1
            assert sel.sum() > 10
            overlap = float(
                np.mean(np.einsum("ij,ji->i", vecs[:, sel].T @ s, vecs[:, sel]))
            )
            assert overlap == pytest.approx(md.shrink(spec, lam0), rel=0.05)


class TestExactShrinker:
    @pytest.mark.parametrize("d", [100, 500])
    @pytest.mark.parametrize("prior", [MP05, CP3], ids=["mp05", "cp3"])
    def test_hilbert_matches_homotopy_at_every_eigenvalue(self, prior, d):
        # h is solved at each sampled eigenvalue, on the support and off it;
        # the oracle is the homotopy from high in the upper half plane: on
        # the support, where hilbert solves on the real axis, the homotopy
        # polished there (`real_axis_root`), off it at the offset EPS
        rng = np.random.default_rng(d)
        n_off = 0
        for delta in (0.05, 0.1, 0.5, 1.0):
            S = sample_prior(prior, d, rng)
            lam = np.linalg.eigvalsh(S + np.sqrt(delta) * md.sample_goe(d, rng))
            spec = md.DenoiseSpec.create(prior, delta)
            h = fp.hilbert(prior, delta, lam, dens=spec.rho)
            ref = np.empty_like(lam)
            off = np.ones(lam.shape, dtype=bool)
            for l, u in spec.rho.intervals:
                on = (lam >= l) & (lam <= u)
                off &= ~on
                if np.any(on):
                    ref[on] = -real_axis_root(prior, delta, lam[on], u - l).real
            if np.any(off):
                ref[off] = -homotopy_solve(prior, delta, lam[off], EPS).real
                n_off += int(off.sum())
            assert np.max(np.abs(h - ref)) < 1e-8, delta
        assert n_off > 0


class TestDenoiseMatrix:
    def test_isotropic_matrix(self):
        spec = md.DenoiseSpec.create(MP05, 0.5)
        c = 2.5
        out = md.denoise_matrix(spec, c * np.eye(40))
        np.testing.assert_allclose(out, md.shrink(spec, c) * np.eye(40), atol=1e-10)

    def test_rotational_equivariance(self):
        spec = md.DenoiseSpec.create(MP05, 0.5)
        rng = np.random.default_rng(3)
        a = rng.normal(size=(40, 40))
        r = a + a.T
        o, _ = np.linalg.qr(rng.normal(size=(40, 40)))
        lhs = md.denoise_matrix(spec, o @ r @ o.T)
        rhs = o @ md.denoise_matrix(spec, r) @ o.T
        assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_weak_noise_returns_input(self):
        rng = np.random.default_rng(5)
        s = md.sample_wishart(300, 2.0, rng)
        spec = md.DenoiseSpec.create(PriorSpectrum.marchenko_pastur(2.0), 1e-4)
        out = md.denoise_matrix(spec, s)
        assert np.sum((out - s) ** 2) / 300 < 1e-3

    def test_output_symmetric(self):
        spec = md.DenoiseSpec.create(MP05, 0.5)
        rng = np.random.default_rng(8)
        y = md.sample_wishart(60, 0.5, rng) + np.sqrt(0.5) * md.sample_goe(60, rng)
        out = md.denoise_matrix(spec, y)
        assert np.max(np.abs(out - out.T)) == 0.0

    def test_non_square_and_non_finite_rejected(self):
        spec = md.DenoiseSpec.create(MP05, 0.5)
        with pytest.raises(ValueError):
            md.denoise_matrix(spec, np.zeros((3, 4)))
        bad = np.full((4, 4), np.nan)
        with pytest.raises(md.EigenFailure):
            md.denoise_matrix(spec, bad)


class TestMmse:
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_monotone_and_bounded(self, kappa):
        prior = PriorSpectrum.marchenko_pastur(kappa)
        deltas = [0.01, 0.1, 0.5, 1.0, 2.0, 4.0]
        vals = [md.mmse(md.DenoiseSpec.create(prior, d)) for d in deltas]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        for d, v in zip(deltas, vals):
            assert 0.0 < v <= min(d, 1.0 / kappa) + 1e-9

    def test_small_noise_limit(self):
        v = md.mmse(md.DenoiseSpec.create(MP05, 1e-3))
        assert 0.0 < v < 2e-3

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_large_noise_limit_is_prior_variance(self, kappa):
        prior = PriorSpectrum.marchenko_pastur(kappa)
        v = md.mmse(md.DenoiseSpec.create(prior, 500.0))
        assert v == pytest.approx(1.0 / kappa, rel=2e-2)

    FORM_PRIORS = {
        **{f"mp{k:g}": PriorSpectrum.marchenko_pastur(k) for k in (0.1, 0.5, 0.95, 1.0, 2.0, 8.0)},
        "cp3_wide": PriorSpectrum.compound_poisson(0.5, ((0.2, 0.3), (1.0, 0.4), (4.0, 0.3))),
        "cp0.6_zero": PriorSpectrum.compound_poisson(0.6, ((0.0, 0.3), (1.0, 0.7))),
    }

    def test_dual_forms_agree_tightly(self):
        # mmse returns the resolvent form alone; the Hilbert-transform form
        # agrees with it at every noise level that GAMP's prior step and the
        # iterative state evolution reach, T_FLOOR to T_CEIL_FACTOR times
        # the prior variance (worst gap measured 4.6e-13)
        for name, prior in self.FORM_PRIORS.items():
            top = gamp.T_CEIL_FACTOR * prior.variance
            for delta in map(float, np.geomspace(gamp.T_FLOOR, top, 40)):
                spec = md.DenoiseSpec.create(prior, delta)
                v = md.mmse(spec)
                cube = spec.rho.cube_integral()
                primary = delta - (4.0 * np.pi**2 / 3.0) * delta**2 * cube
                h = [-rg for rg in spec.rho.re_g]
                secondary = delta - 4.0 * delta**2 * spec.rho.integrate(
                    [r * hi**2 for r, hi in zip(spec.rho.rho, h)]
                )
                assert v == primary
                assert md.mmse_forms(spec) == (primary, secondary)
                assert abs(primary - secondary) < 1e-7, (name, delta)

    def test_monte_carlo_denoising_error(self):
        # realized error of denoise_matrix at d = 500 vs the asymptotic
        # formula, and dominance over the no-op estimator
        delta = 0.25
        spec = md.DenoiseSpec.create(MP05, delta)
        pred = md.mmse(spec)
        mses, identity = [], []
        for rep in range(8):
            rng = np.random.default_rng(100 + rep)
            s = md.sample_wishart(500, 0.5, rng)
            y = s + np.sqrt(delta) * md.sample_goe(500, rng)
            shat = md.denoise_matrix(spec, y)
            mses.append(np.sum((shat - s) ** 2) / 500)
            identity.append(np.sum((y - s) ** 2) / 500)
        mses = np.array(mses)
        stderr = mses.std(ddof=1) / np.sqrt(len(mses))
        assert abs(mses.mean() - pred) < 3.0 * stderr
        assert mses.mean() < np.mean(identity)


class TestSamplers:
    def test_goe_moments(self):
        rng = np.random.default_rng(0)
        d = 400
        g = md.sample_goe(d, rng)
        assert np.max(np.abs(g - g.T)) == 0.0
        off = g[~np.eye(d, dtype=bool)]
        assert off.var() * d == pytest.approx(1.0, rel=0.05)
        assert np.diag(g).var() * d == pytest.approx(2.0, rel=0.3)

    def test_wishart_trace(self):
        rng = np.random.default_rng(1)
        s = md.sample_wishart(400, 0.5, rng)
        assert np.trace(s) / 400 == pytest.approx(1.0, rel=0.05)
        evals = np.linalg.eigvalsh(s)
        assert evals.min() > -1e-10

    @pytest.mark.parametrize("kappa", [0.3, 2.0])
    def test_wishart_is_the_marchenko_pastur_prior_draw(self, kappa):
        a = md.sample_wishart(50, kappa, np.random.default_rng(5))
        b = sample_prior(PriorSpectrum.marchenko_pastur(kappa), 50, np.random.default_rng(5))
        assert a.tobytes() == b.tobytes()

    def test_compound_poisson_draw_is_reproducible(self):
        # the draw order that seeded runs depend on: the Gaussian W first,
        # then the m atom values
        d, rng = 40, np.random.default_rng(11)
        m = round(CP3.kappa * d)
        w = rng.normal(size=(m, d))
        a = rng.choice(np.array([0.5, 1.0, 2.0]), size=m, p=np.array([0.3, 0.4, 0.3]))
        expected = (w.T * a) @ w / m
        got = sample_prior(CP3, d, np.random.default_rng(11))
        assert got.tobytes() == expected.tobytes()
        assert set(np.unique(a)) == {0.5, 1.0, 2.0}
