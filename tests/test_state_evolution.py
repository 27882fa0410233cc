"""Tests for the state-evolution fixed point and its closed-form limits."""

import dataclasses
import math

import numpy as np
import pytest

from quadnet import freeprob, matdenoise
from quadnet import state_evolution as se
from quadnet.state_evolution import ProblemParams


def _record_density_builds(monkeypatch):
    """Patch freeprob.density to append each t it builds to the returned list."""
    ts = []
    build = freeprob.density

    def recording(prior, t, *args, **kwargs):
        ts.append(t)
        return build(prior, t, *args, **kwargs)

    monkeypatch.setattr(freeprob, "density", recording)
    return ts


def _threshold_by_full_solve(kappa, delta=0.0, level=1e-3, tol=1e-3):
    """`se.threshold_alpha` as it was, each bisection probe a full solve."""

    def mmse_at(alpha):
        return se.solve_qhat(ProblemParams(alpha=alpha, kappa=kappa, delta=delta)).mmse

    lo, hi = 1e-3, 0.8
    if mmse_at(hi) >= level:
        raise se.NoConvergence(f"MMSE still above {level} at alpha={hi}")
    if mmse_at(lo) < level:
        raise se.NoConvergence(f"MMSE already below {level} at alpha={lo}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mmse_at(mid) < level:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestProblemParams:
    def test_marchenko_pastur_derived_quantities(self):
        p = ProblemParams(alpha=0.3, kappa=0.5, delta=0.2)
        assert p.tilde_delta == pytest.approx(2 * 0.2 * 2.2 / 0.5)
        assert p.q0 == pytest.approx(1 + 1 / 0.5)
        assert p.q_min == pytest.approx(1.0)
        assert p.mmse_max == pytest.approx(1.0)

    def test_default_prior_is_marchenko_pastur(self):
        p = ProblemParams(alpha=0.1, kappa=2.0)
        assert p.prior.atoms == ((1.0, 1.0),)
        assert p.prior.kappa == 2.0

    def test_compound_prior_derived_quantities(self):
        prior = freeprob.PriorSpectrum.compound_poisson(
            0.7, ((0.5, 0.5), (2.0, 0.5))
        )
        p = ProblemParams(alpha=0.3, kappa=0.7, delta=0.0, prior=prior)
        m_a = 0.5 * 0.5 + 2.0 * 0.5
        c_a = 0.5 * 0.25 + 0.5 * 4.0
        assert p.q0 == pytest.approx(m_a**2 + c_a / 0.7)
        assert p.q_min == pytest.approx(m_a**2)
        assert p.mmse_max == pytest.approx(c_a)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemParams(alpha=-0.1, kappa=1.0)
        with pytest.raises(ValueError):
            ProblemParams(alpha=0.1, kappa=0.0)
        with pytest.raises(ValueError):
            ProblemParams(alpha=0.1, kappa=1.0, delta=-1.0)
        with pytest.raises(ValueError):
            ProblemParams(
                alpha=0.1,
                kappa=1.0,
                prior=freeprob.PriorSpectrum.marchenko_pastur(2.0),
            )

    def test_frozen(self):
        p = ProblemParams(alpha=0.1, kappa=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.alpha = 0.2


class TestSolveQhat:
    def test_fields_are_consistent(self):
        p = ProblemParams(alpha=0.2, kappa=0.5)
        fp = se.solve_qhat(p, with_free_entropy=False)
        assert fp.status == "converged"
        assert fp.residual < 1e-9
        assert fp.q == pytest.approx(p.q0 - fp.mmse / p.kappa)
        assert p.q_min <= fp.q <= p.q0
        assert fp.clipped == 0.0

    @pytest.mark.parametrize("kappa,delta", [(0.5, 0.0), (2.0, 0.0), (1.0, 0.3)])
    def test_vanishing_sample_ratio_gives_unit_mmse(self, kappa, delta):
        p = ProblemParams(alpha=1e-4, kappa=kappa, delta=delta)
        fp = se.solve_qhat(p, with_free_entropy=False)
        assert abs(fp.mmse - 1.0) < 1e-3
        # q_hat vanishes linearly with slope 4 kappa / (2 + tilde_delta kappa)
        pred = 4.0 * kappa / (2.0 + p.tilde_delta * kappa)
        assert fp.q_hat / 1e-4 == pytest.approx(pred, rel=0.01)

    def test_mmse_decreases_with_samples(self):
        mmses = [
            se.solve_qhat(
                ProblemParams(alpha=a, kappa=1.0, delta=0.5),
                with_free_entropy=False,
            ).mmse
            for a in (0.05, 0.15, 0.3, 0.5, 0.8)
        ]
        assert all(b < a for a, b in zip(mmses, mmses[1:]))
        assert all(0.0 < m < 1.0 for m in mmses)

    @pytest.mark.parametrize("kappa", [0.25, 0.5, 1.0, 2.0])
    def test_noiseless_mmse_vanishes_only_above_threshold(self, kappa):
        a_pr = se.perfect_recovery_threshold(kappa)
        below = se.solve_qhat(
            ProblemParams(alpha=a_pr - 0.01, kappa=kappa), with_free_entropy=False
        )
        above = se.solve_qhat(
            ProblemParams(alpha=a_pr + 0.01, kappa=kappa), with_free_entropy=False
        )
        # at the square aspect ratio the slope at the threshold is zero, so
        # the approach is quadratic and the value 0.01 below is only ~3e-3
        floor = 1e-4 if kappa == 1.0 else 0.01
        assert below.mmse > floor
        assert above.mmse == 0.0

    def test_supercritical_branch(self):
        fp = se.solve_qhat(ProblemParams(alpha=0.45, kappa=0.5), with_free_entropy=False)
        assert fp.status == "supercritical"
        assert fp.mmse == 0.0
        assert fp.q == pytest.approx(3.0)
        assert math.isinf(fp.q_hat)

    def test_supercritical_at_small_kappa(self):
        # alpha = 0.0036 is above the threshold 0.0029955, so the map has no
        # root; it is continuous only if the bulk at zero (mass 1 - kappa) is
        # kept by every density build
        fp = se.solve_qhat(ProblemParams(alpha=0.0036, kappa=0.003), with_free_entropy=False)
        assert fp.status == "supercritical"
        assert fp.mmse == 0.0

    def test_sign_change_at_a_jump_is_not_a_root(self, monkeypatch):
        step = lambda params, q_hat: -1.0 if q_hat < 10.0 else 1.0
        monkeypatch.setattr(se, "_fixed_point_lhs_minus_rhs", step)
        with pytest.raises(se.NoConvergence, match="residual"):
            se.solve_qhat(ProblemParams(alpha=0.3, kappa=0.5), with_free_entropy=False)

    @pytest.mark.parametrize(
        "alpha,kappa,delta,status",
        [
            (0.3, 0.5, 0.1, "converged"),
            (0.2, 0.5, 0.0, "converged"),
            (0.45, 0.5, 0.0, "supercritical"),
        ],
    )
    def test_each_point_built_once(self, monkeypatch, alpha, kappa, delta, status):
        # brentq evaluates its bracket ends again and the residual check
        # evaluates the root brentq returned; neither may rebuild a density.
        # Doubling steps reach QHAT_MAX in a few probes (unit steps took 22)
        params = ProblemParams(alpha=alpha, kappa=kappa, delta=delta)
        reference = se.solve_qhat(params, with_free_entropy=False)
        ts = _record_density_builds(monkeypatch)
        fp = se.solve_qhat(params, with_free_entropy=False)
        assert fp.status == status
        assert 0 < len(ts) <= 8
        assert len(set(ts)) == len(ts)
        assert repr(fp) == repr(reference)

    def test_se_curve_build_budget(self, monkeypatch):
        # the README se-curve grid; unit-step brackets took 626 builds
        ts = _record_density_builds(monkeypatch)
        for kappa in (0.5, 1.0):
            for alpha in np.linspace(0.05, 0.6, 23):
                se.solve_qhat(ProblemParams(alpha=alpha, kappa=kappa), with_free_entropy=False)
        assert len(ts) <= 400

    def test_threshold_scan_matches_closed_form(self):
        a_cross = se.threshold_alpha(0.5)
        assert abs(a_cross - 0.375) < 0.01

    @pytest.mark.parametrize("level", [1e-3, 1e-2])
    @pytest.mark.parametrize("kappa", [0.01, 0.25, 0.5, 1.0, 2.0, 3.0])
    def test_threshold_matches_full_solve_bisection(self, monkeypatch, kappa, level):
        # the sign probe gives the full solve's answer at every bisection
        # step, and builds one density per probe: 2 ends and 10 halvings
        reference = _threshold_by_full_solve(kappa, level=level)
        ts = _record_density_builds(monkeypatch)
        assert se.threshold_alpha(kappa, level=level) == reference
        assert len(ts) == 12

    def test_threshold_raises_as_full_solve(self):
        with pytest.raises(se.NoConvergence) as reference:
            _threshold_by_full_solve(0.5, delta=0.01)
        with pytest.raises(se.NoConvergence) as probed:
            se.threshold_alpha(0.5, delta=0.01)
        assert str(probed.value) == str(reference.value)

    def test_compound_prior_solves(self):
        prior = freeprob.PriorSpectrum.compound_poisson(
            0.7, ((0.5, 0.5), (2.0, 0.5))
        )
        p = ProblemParams(alpha=0.3, kappa=0.7, delta=0.1, prior=prior)
        fp = se.solve_qhat(p, with_free_entropy=False)
        assert fp.status == "converged"
        assert p.q_min <= fp.q <= p.q0
        assert 0.0 < fp.mmse < p.mmse_max

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            se.solve_qhat(ProblemParams(alpha=0.0, kappa=1.0))


class TestGallop:
    def test_doubling_steps_bracket_the_root(self):
        probes = []

        def f(x):
            probes.append(x)
            return x - 100.0

        assert se._gallop(f, 0.0) == (63.0, 127.0)
        assert probes == [0.0, 1.0, 3.0, 7.0, 15.0, 31.0, 63.0, 127.0]
        assert se._gallop(f, 200.0) == (73.0, 137.0)
        assert se._gallop(f, 100.0) == (100.0, 100.0)

    def test_clamped_probe_is_the_last(self):
        probes = []

        def f(x):
            probes.append(x)
            return -1.0

        assert se._gallop(f, 0.0, x_max=50.0) is None
        assert probes[-2:] == [31.0, 50.0]
        with pytest.raises(se.NoConvergence):
            se._gallop(f, 0.0)


class TestFixedPointEquivalence:
    """The root of the scalar equation must agree with the damped iteration
    through the matrix-denoising error, which uses an independent
    implementation of the denoising curve."""

    @staticmethod
    def iterate(params, iters=2000, tol=1e-12):
        q = params.q_min
        for _ in range(iters):
            q_hat = 4.0 * params.alpha / (
                params.tilde_delta + 2.0 * (params.q0 - q)
            )
            spec = matdenoise.DenoiseSpec.create(params.prior, 1.0 / q_hat)
            q_new = params.q0 - matdenoise.mmse(spec)
            if abs(q_new - q) < tol:
                return q_new
            q = q_new
        return q

    @pytest.mark.parametrize(
        "alpha,kappa,delta",
        [(0.2, 0.5, 0.0), (0.3, 1.0, 0.1), (0.25, 2.0, 0.5)],
    )
    def test_iteration_reaches_same_overlap(self, alpha, kappa, delta):
        params = ProblemParams(alpha=alpha, kappa=kappa, delta=delta)
        fp = se.solve_qhat(params, with_free_entropy=False)
        q_iter = self.iterate(params)
        assert abs(fp.q - q_iter) < 1e-5


class TestClosedForms:
    def test_perfect_recovery_threshold_values(self):
        assert se.perfect_recovery_threshold(0.25) == pytest.approx(0.21875)
        assert se.perfect_recovery_threshold(0.5) == pytest.approx(0.375)
        assert se.perfect_recovery_threshold(1.0) == pytest.approx(0.5)
        assert se.perfect_recovery_threshold(2.0) == pytest.approx(0.5)
        # the two branches meet at the square aspect ratio
        assert se.perfect_recovery_threshold(1.0 - 1e-12) == pytest.approx(0.5)

    def test_slope_values(self):
        assert se.mmse_slope_at_pr(0.5) == pytest.approx(-2.0)
        assert se.mmse_slope_at_pr(2.0) == pytest.approx(-1.0)
        # continuity at kappa = 1: both branches give zero slope
        assert se.mmse_slope_at_pr(1.0) == pytest.approx(0.0)
        assert se.mmse_slope_at_pr(1.0 - 1e-9) == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("kappa", [0.3, 2.0])
    def test_slope_matches_finite_difference(self, kappa):
        a_pr = se.perfect_recovery_threshold(kappa)
        h = 1e-3
        m = se.solve_qhat(
            ProblemParams(alpha=a_pr - h, kappa=kappa), with_free_entropy=False
        ).mmse
        fd = -m / h
        closed = se.mmse_slope_at_pr(kappa)
        assert fd == pytest.approx(closed, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            se.perfect_recovery_threshold(0.0)
        with pytest.raises(ValueError):
            se.mmse_slope_at_pr(-1.0)
        with pytest.raises(ValueError):
            se.small_kappa_mmse(-0.1)
        with pytest.raises(ValueError):
            se.large_kappa_mmse(-0.1)


class TestNarrowWidthLimit:
    def test_noiseless_formula_values(self):
        assert se.small_kappa_mmse(0.5) == pytest.approx(1.0)
        assert se.small_kappa_mmse(0.75) == pytest.approx(0.75)
        assert se.small_kappa_mmse(1.0) == pytest.approx(0.0, abs=1e-12)
        assert se.small_kappa_mmse(1.5) == pytest.approx(0.0)

    def test_noisy_formula_continuous_at_breakpoint(self):
        delta = 1.0
        lam = delta * (2.0 + delta)
        at = 0.5 * (1.0 + lam)
        assert se.small_kappa_mmse(at, delta) == pytest.approx(1.0)
        assert se.small_kappa_mmse(at + 1e-9, delta) == pytest.approx(1.0, abs=1e-7)
        assert se.small_kappa_mmse(at - 0.1, delta) == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha_tilde", [0.6, 0.8, 1.2])
    def test_solver_converges_to_formula(self, alpha_tilde):
        # Finite-width corrections decay slowly: at kappa = 0.01 the gap at
        # alpha/kappa = 0.6 is still ~0.08, at kappa = 0.001 it is ~0.012.
        kappa = 0.001
        fp = se.solve_qhat(
            ProblemParams(alpha=kappa * alpha_tilde, kappa=kappa),
            with_free_entropy=False,
        )
        assert abs(fp.mmse - se.small_kappa_mmse(alpha_tilde)) < 0.02


class TestWideWidthLimit:
    def test_noiseless_formula(self):
        assert se.large_kappa_mmse(0.1) == pytest.approx(0.8)
        assert se.large_kappa_mmse(0.5) == pytest.approx(0.0, abs=1e-12)
        assert se.large_kappa_mmse(0.7) == pytest.approx(0.0, abs=1e-12)
        assert se.large_kappa_mmse(0.0, 0.7) == pytest.approx(1.0)

    def test_noisy_formula_positive_and_decreasing(self):
        vals = [se.large_kappa_mmse(a, 0.5) for a in (0.1, 0.3, 0.6, 1.0)]
        assert all(v > 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.45])
    def test_solver_converges_to_formula(self, alpha):
        fp = se.solve_qhat(
            ProblemParams(alpha=alpha, kappa=50.0), with_free_entropy=False
        )
        assert abs(fp.mmse - se.large_kappa_mmse(alpha)) < 0.02


class TestFreeEntropy:
    @pytest.mark.parametrize(
        "alpha,kappa,delta", [(0.2, 0.5, 0.0), (0.4, 2.0, 0.5)]
    )
    def test_grid_argmax_matches_solver(self, alpha, kappa, delta):
        params = ProblemParams(alpha=alpha, kappa=kappa, delta=delta)
        fp = se.solve_qhat(params, with_free_entropy=True)
        qs = np.linspace(params.q_min, params.q0, 21)
        fs = [se.free_entropy(params, q) for q in qs]
        q_argmax = qs[int(np.argmax(fs))]
        step = qs[1] - qs[0]
        assert abs(fp.q - q_argmax) <= step + 1e-12
        assert np.isfinite(fp.free_entropy)

    @pytest.mark.parametrize(
        "alpha,kappa,delta", [(0.2, 0.5, 0.0), (0.3, 1.0, 0.1)]
    )
    def test_inner_conjugate_is_stationary(self, alpha, kappa, delta):
        params = ProblemParams(alpha=alpha, kappa=kappa, delta=delta)
        q = params.q_min + 0.4 * (params.q0 - params.q_min)
        q_hat = se._inner_conjugate(params, q)
        dens = freeprob.density(params.prior, 1.0 / q_hat)
        res = (
            0.25 * (params.q0 - q)
            + (np.pi**2 / 3.0) * dens.cube_integral() / q_hat**2
            - 0.25 / q_hat
        )
        assert abs(res) < 1e-9

    def test_conjugate_points_built_once(self, monkeypatch):
        params = ProblemParams(alpha=0.3, kappa=1.0, delta=0.1)
        q = params.q_min + 0.4 * (params.q0 - params.q_min)
        reference = se.free_entropy(params, q)
        ts = _record_density_builds(monkeypatch)
        value = se.free_entropy(params, q)
        # the last build is the log potential at the conjugate root, which
        # the inner solve may already have built
        inner = ts[:-1]
        assert len(inner) > 0
        assert len(set(inner)) == len(inner)
        assert value == reference

    def test_fixed_point_reuses_conjugate(self, monkeypatch):
        # at the fixed point q_hat is the inner conjugate of q, so the free
        # entropy costs one build (its log potential), not a second solve
        params = ProblemParams(alpha=0.3, kappa=1.0, delta=0.1)
        ts = _record_density_builds(monkeypatch)
        se.solve_qhat(params, with_free_entropy=False)
        n_without = len(ts)
        fp = se.solve_qhat(params, with_free_entropy=True)
        assert len(ts) - n_without <= n_without + 1
        # the value of the separate inner solve
        assert fp.free_entropy == pytest.approx(se.free_entropy(params, fp.q), rel=1e-12)

    def test_rate_vanishes_at_data_free_overlap(self):
        params = ProblemParams(alpha=0.3, kappa=1.0)
        assert se.overlap_rate(params, params.q_min) == 0.0

    def test_no_data_maximizes_at_q_min(self):
        params = ProblemParams(alpha=0.0, kappa=1.0, delta=0.5)
        qs = np.linspace(params.q_min, params.q0, 9)
        fs = [se.free_entropy(params, q) for q in qs]
        assert int(np.argmax(fs)) == 0

    def test_out_of_range_overlap_rejected(self):
        params = ProblemParams(alpha=0.3, kappa=1.0)
        with pytest.raises(ValueError):
            se.free_entropy(params, params.q_min - 0.1)
        with pytest.raises(ValueError):
            se.free_entropy(params, params.q0 + 0.1)
