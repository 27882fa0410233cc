"""Tests for the state-evolution fixed point and its closed-form limits."""

import contextlib
import dataclasses
import math
import re

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

    @pytest.mark.parametrize("field", ["alpha", "delta"])
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError):
            ProblemParams(**{"alpha": 0.1, "kappa": 1.0, field: math.nan})

    @pytest.mark.parametrize("field", ["alpha", "kappa", "delta"])
    def test_infinite_rejected(self, field):
        # rejected where built: downstream an infinite alpha came out as a
        # silent "supercritical" fixed point, and kappa or delta as
        # ZeroDivisionError or "math domain error" in solve_qhat
        with pytest.raises(ValueError, match=field):
            ProblemParams(**{"alpha": 0.1, "kappa": 1.0, field: math.inf})

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
        step = lambda params, q_hat: (-1.0 if q_hat < 10.0 else 1.0, 0.0, None)
        monkeypatch.setattr(se, "_fixed_point_map", step)
        with pytest.raises(se.NoConvergence, match="residual"):
            se.solve_qhat(ProblemParams(alpha=0.3, kappa=0.5), with_free_entropy=False)

    @pytest.mark.parametrize(
        "alpha,kappa,delta,status",
        [
            (0.3, 0.5, 0.1, "converged"),
            (0.2, 0.5, 0.0, "converged"),
            (0.45, 0.5, 0.0, "supercritical"),
            (0.4782, 0.2069, 0.0, "supercritical"),
        ],
    )
    def test_each_point_built_once(self, monkeypatch, alpha, kappa, delta, status):
        # Brent evaluates its bracket ends again and the residual check
        # evaluates the root Brent returned; neither may rebuild a density.
        # Noiseless past alpha_pr the map's limit 1 - 2 alpha - w0^2 is
        # negative, so the solve starts at QHAT_MAX and builds only there;
        # walking the flat map up to it took 5 builds at both cells
        params = ProblemParams(alpha=alpha, kappa=kappa, delta=delta)
        reference = se.solve_qhat(params, with_free_entropy=False)
        ts = _record_density_builds(monkeypatch)
        fp = se.solve_qhat(params, with_free_entropy=False)
        assert fp.status == status
        assert len(ts) == 1 if status == "supercritical" else 0 < len(ts) <= 8
        assert len(set(ts)) == len(ts)
        assert repr(fp) == repr(reference)

    def test_readme_phase_diagram_noiseless_build_budget(self):
        # README's 20 x 30 grid at delta = 0: 2380 map points and up to 22 per
        # cell from the semicircle start with capped one-sided steps; 1929 and
        # 9 with the start at QHAT_MAX, the fitted step and the ulp stop; 1911
        # and 7 with the closed-form Marchenko-Pastur density.  That density
        # also made the four cells on the threshold line alpha = alpha_pr,
        # (0.2, 0.18), (0.4, 0.32), (0.6, 0.42) and (0.8, 0.48), supercritical:
        # with the evaluation offset the map's limit read above
        # 1 - 2 alpha - w0^2 there, and they converged at q_hat 1e4 to 2e6
        fps = [
            se.solve_qhat(ProblemParams(alpha=alpha, kappa=kappa), with_free_entropy=False)
            for kappa in np.linspace(0.1, 2.0, 20)
            for alpha in np.linspace(0.02, 0.6, 30)
        ]
        iterations = [fp.iterations for fp in fps]
        assert sum(fp.status == "supercritical" for fp in fps) == 190
        assert all(fp.status in ("converged", "supercritical") for fp in fps)
        assert sum(iterations) <= 1950 and max(iterations) <= 12

    @pytest.mark.parametrize(
        "alpha,kappa",
        [
            # README's phase-diagram and se-curve grid points on (within
            # rounding of) alpha = kappa - kappa^2 / 2
            (np.linspace(0.02, 0.6, 30)[8], np.linspace(0.1, 2.0, 20)[1]),
            (np.linspace(0.02, 0.6, 30)[15], np.linspace(0.1, 2.0, 20)[3]),
            (np.linspace(0.02, 0.6, 30)[20], np.linspace(0.1, 2.0, 20)[5]),
            (np.linspace(0.02, 0.6, 30)[23], np.linspace(0.1, 2.0, 20)[7]),
            (np.linspace(0.05, 0.6, 23)[13], 0.5),
        ],
    )
    def test_threshold_line_cells_are_supercritical(self, alpha, kappa):
        # the noiseless map has no root on the threshold line.  Built at an
        # evaluation offset, the bulk at zero lost up to 1.8e-5 of its mass,
        # K t int rho^3 read below w0^2 at large q_hat, and these cells
        # converged at q_hat 1e4 to 2e6
        assert abs(alpha - se.perfect_recovery_threshold(kappa)) < 1e-15
        fp = se.solve_qhat(ProblemParams(alpha=alpha, kappa=kappa), with_free_entropy=False)
        assert fp.status == "supercritical"

    @pytest.mark.parametrize(
        "prior",
        [
            freeprob.PriorSpectrum.marchenko_pastur(0.3),
            freeprob.PriorSpectrum.marchenko_pastur(1.5),
            freeprob.PriorSpectrum.compound_poisson(0.7, ((0.5, 0.5), (2.0, 0.5))),
            freeprob.PriorSpectrum.compound_poisson(0.6, ((0.0, 0.3), (1.0, 0.7))),
        ],
        ids=["mp0.3", "mp1.5", "cp0.7", "cp0.6-zero-atom"],
    )
    def test_noiseless_map_tends_to_its_limit(self, prior):
        # the prior's mass at zero, w0 = max(0, 1 - kappa sum_{a > 0} p),
        # spreads into a semicircle with K t int rho^3 = w0^2; at q_hat = 1e6
        # the map is 9.9e-6, 4.5e-6, 3.3e-7 and 7.1e-6 off the limit
        w0 = max(0.0, 1.0 - prior.kappa * sum(p for a, p in prior.atoms if a > 0))
        p = ProblemParams(alpha=0.3, kappa=prior.kappa, prior=prior)
        limit = 1.0 - 2.0 * p.alpha - w0**2
        assert se._noiseless_limit(p) == pytest.approx(limit, abs=1e-15)
        assert abs(se._map_value(p, 1e6)[0] - limit) < 2e-5

    @pytest.mark.parametrize("kappa", [0.2, 0.5, 0.9])
    def test_noiseless_start_at_qhat_max_past_the_threshold(self, kappa):
        # for the MP prior the limit is 2 (alpha_pr - alpha)
        a_pr = se.perfect_recovery_threshold(kappa)
        for alpha, delta, at_max in ((a_pr + 1e-3, 0.0, True), (a_pr - 1e-3, 0.0, False),
                                     (a_pr + 1e-3, 0.1, False)):
            p = ProblemParams(alpha=alpha, kappa=kappa, delta=delta)
            assert (se._qhat_start(p) == se.QHAT_MAX) == at_max
        p = ProblemParams(alpha=a_pr - 1e-3, kappa=kappa)
        assert se._noiseless_limit(p) == pytest.approx(2e-3, rel=1e-9)

    def test_se_curve_build_budget(self, monkeypatch):
        # the README se-curve grid; unit-step brackets took 626 builds
        ts = _record_density_builds(monkeypatch)
        for kappa in (0.5, 1.0):
            for alpha in np.linspace(0.05, 0.6, 23):
                se.solve_qhat(ProblemParams(alpha=alpha, kappa=kappa), with_free_entropy=False)
        assert len(ts) <= 400

    def test_se_curve_newton_build_budget(self, monkeypatch):
        # the same grid: Newton steps with the exact slope took 284 builds,
        # the doubling-step bracket and Brent's method 373
        ts = _record_density_builds(monkeypatch)
        for kappa in (0.5, 1.0):
            for alpha in np.linspace(0.05, 0.6, 23):
                se.solve_qhat(ProblemParams(alpha=alpha, kappa=kappa), with_free_entropy=False)
        assert len(ts) <= 312

    def test_se_curve_semicircle_start_build_budget(self):
        # the same grid from the semicircle start: 195 map points, against
        # 284 from q_hat = 2 alpha / Q0, with every status as it was.  The
        # 14th cell, (0.375, 0.5), lies on the threshold line and is
        # supercritical since the Marchenko-Pastur density has no evaluation
        # offset (see test_threshold_line_cells_are_supercritical)
        fps = [
            se.solve_qhat(ProblemParams(alpha=alpha, kappa=kappa), with_free_entropy=False)
            for kappa in (0.5, 1.0)
            for alpha in np.linspace(0.05, 0.6, 23)
        ]
        statuses = "".join(fp.status[0] for fp in fps)
        assert statuses == "c" * 13 + "s" * 10 + "c" * 18 + "s" * 5
        assert sum(fp.iterations for fp in fps) <= 195

    @pytest.mark.parametrize("delta,budget,n_super", [(0.1, 380, 0), (0.0, 398, 30)])
    def test_phase_diagram_build_budget(self, delta, budget, n_super):
        # the theory benchmark's 8 x 12 grid: Hermite steps once bracketed
        # take 375 map points at delta = 0.1 and 390 at delta = 0, against
        # 456 and 398 with Newton steps alone; the statuses do not change
        fps = [
            se.solve_qhat(ProblemParams(alpha=alpha, kappa=kappa, delta=delta))
            for kappa in np.linspace(0.1, 2.0, 8)
            for alpha in np.linspace(0.02, 0.6, 12)
        ]
        assert sum(fp.status == "supercritical" for fp in fps) == n_super
        assert all(fp.status in ("converged", "supercritical") for fp in fps)
        assert sum(fp.iterations for fp in fps) <= budget

    @pytest.mark.parametrize("alpha", [1e-3, 0.25, math.nextafter(0.5, 0.0), 0.5, 0.6])
    @pytest.mark.parametrize("delta", [0.0, 0.1])
    def test_semicircle_start_in_range(self, alpha, delta):
        p = ProblemParams(alpha=alpha, kappa=0.1, delta=delta)
        start = se._qhat_start(p)
        assert 0.0 < start <= se.QHAT_MAX
        if start < se.QHAT_MAX:
            # a root of the map with K int mu_t^3 = 1 / (Q0 - q_min + t)
            value = (1 - 2 * alpha) + 0.5 * p.tilde_delta * start - 1 / (1 + (p.q0 - p.q_min) * start)
            assert abs(value) < 1e-12

    def test_start_clamped_below_the_noiseless_threshold_alpha(self):
        # a README phase-diagram cell one ulp below alpha = 1/2: unclamped, its
        # semicircle start is q_hat = 9.0e14, where the density build at
        # t = 1.1e-15 raises NoAdmissibleRoot
        fp = se.solve_qhat(ProblemParams(alpha=0.49999999999999994, kappa=0.1, delta=0.0))
        assert fp.status == "supercritical"
        assert fp.mmse == 0.0

    def test_tiny_kappa_above_the_threshold_is_supercritical(self):
        # alpha = 1.2 kappa at kappa = 3e-4 probes t down to 1e-9, where the
        # density's bulk at zero once lost 1.7e-3 of its mass and the map
        # changed sign near q_hat = 2.9e8: NoConvergence instead of this
        fp = se.solve_qhat(ProblemParams(alpha=1.2 * 3e-4, kappa=3e-4))
        assert fp.status == "supercritical"
        assert fp.mmse == 0.0

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


class TestNewton:
    @staticmethod
    def recording(probes, value, slope=0.5):
        """f for `se._newton` that appends each x it is called at to probes;
        slope is a number or a function of x."""

        def f(x):
            probes.append(x)
            return value(x), slope(x) if callable(slope) else slope, None

        return f

    def test_one_sided_steps_are_capped(self):
        # Newton's step to the root is capped at 2, 4, 8, ... until the cap
        # (64 from 62) no longer binds
        probes = []
        f = self.recording(probes, lambda x: 0.5 * (x - 100.0))
        assert se._newton(f, 0.0, "x") == (100.0, 0.0, None, 7)
        assert probes == [0.0, 2.0, 6.0, 14.0, 30.0, 62.0, 100.0]
        probes.clear()
        assert se._newton(f, 200.0, "x")[0] == 100.0
        assert probes[:3] == [200.0, 198.0, 194.0]

    def test_x_max_is_probed_and_ends_the_search(self):
        probes = []
        f = self.recording(probes, lambda x: 0.5 * (x - 100.0))
        assert se._newton(f, 0.0, "x", x_max=50.0) == (50.0, -25.0, None, 6)
        assert probes == [0.0, 2.0, 6.0, 14.0, 30.0, 50.0]

    def test_saturating_step_fits_the_exponential(self):
        # f = 1 - 4 exp(-x) is its own fit a - b exp(-x): from 0 the fitted
        # step lands on the root log 4, where Newton's step goes to 0.75
        probes = []
        f = self.recording(probes, lambda x: 1.0 - 4.0 * math.exp(-x), slope=lambda x: 4.0 * math.exp(-x))
        x, value, _, evals = se._newton(f, 0.0, "x", _saturating=1.0)
        assert probes[:2] == [0.0, pytest.approx(math.log(4.0), rel=1e-15)]
        assert evals == 2 and abs(value) < 1e-15
        probes.clear()
        se._newton(f, 0.0, "x")
        assert probes[:2] == [0.0, 0.75]

    def test_saturating_keeps_the_capped_steps_without_a_positive_fit(self):
        # a = f + f' <= 0 below the root, and f > 0 above it: capped steps
        probes = []
        f = self.recording(probes, lambda x: 0.5 * (x - 100.0))
        assert se._newton(f, 0.0, "x", _saturating=1.0) == (100.0, 0.0, None, 7)
        assert probes == [0.0, 2.0, 6.0, 14.0, 30.0, 62.0, 100.0]
        probes.clear()
        se._newton(f, 200.0, "x", _saturating=1.0)
        assert probes[:3] == [200.0, 198.0, 194.0]

    def test_saturating_stops_within_four_ulp_of_the_scale(self):
        # |f| = 5e-16 is within 4 ulp of 1 (8.9e-16) but not of 0.01
        probes = []
        f = self.recording(probes, lambda x: 1e-16 * (x - 5.0), slope=1e-16)
        assert se._newton(f, 0.0, "x", _saturating=1.0) == (0.0, -5e-16, None, 1)
        assert se._newton(f, 0.0, "x", _saturating=0.01)[0] == 5.0
        assert se._newton(f, 0.0, "x")[0] == 5.0

    def test_step_leaving_the_bracket_bisects(self):
        # slope 1/4 of the true one: the step from 2 goes to -2, outside (0, 2)
        probes = []
        f = self.recording(probes, lambda x: x - 1.0, slope=0.25)
        assert se._newton(f, 0.0, "x") == (1.0, 0.0, None, 3)
        assert probes == [0.0, 2.0, 1.0]

    @pytest.mark.parametrize("slope", [0.0, -1.0, math.inf, math.nan])
    def test_slope_not_positive_and_finite_bisects(self, slope):
        # one-sided the step is the cap, bracketed it is the midpoint
        probes = []
        f = self.recording(probes, lambda x: x - 1.0, slope=slope)
        assert se._newton(f, 0.0, "x") == (1.0, 0.0, None, 3)
        assert probes == [0.0, 2.0, 1.0]

    def test_jump_ends_at_its_narrowed_bracket(self):
        # no root: the bracket closes on the jump well inside the budget,
        # and the point returned was evaluated there
        probes = []
        f = self.recording(probes, lambda x: -1.0 if x < 0.3 else 1.0, slope=0.0)
        x, value, _, evals = se._newton(f, 0.0, "x")
        assert abs(value) == 1.0 and x == probes[-1]
        assert abs(x - 0.3) < 1e-12
        assert evals == len(probes) < 60

    def test_hermite_steps_take_fewer_probes_than_newton(self, monkeypatch):
        # exp(x) - 2 with its exact slope, bracketed at the third probe: the
        # steps to the Hermite interpolant's root need 8 probes, Newton's
        # steps alone 10, and both stop within the tolerance of log 2
        def solve():
            probes = []
            f = self.recording(probes, lambda x: math.exp(x) - 2.0, slope=math.exp)
            x, _, _, evals = se._newton(f, -3.0, "x")
            assert evals == len(probes)
            return x, evals

        x, evals = solve()
        monkeypatch.setattr(se, "_hermite_step", lambda *args: math.nan)
        x_newton, evals_newton = solve()
        assert evals < evals_newton
        for root in (x, x_newton):
            assert abs(root - math.log(2.0)) < 1e-13 + 8.9e-16 * math.log(2.0)

    def test_hermite_step_solves_a_cubic(self):
        # the Hermite interpolant of a cubic is the cubic itself: from the
        # points 0 and 2 of (x - 1)(x^2 + 1), the step from 2 goes to its root
        step = se._hermite_step(0.0, -1.0, 1.0, 2.0, 5.0, 9.0, -5.0 / 9.0)
        assert step == pytest.approx(-1.0, rel=1e-15)

    @pytest.mark.parametrize(
        "slope,hermite,probe",
        [
            (4.0, -0.3, 1.7),  # inside (0, 2), within twice Newton's -0.25: taken
            (4.0, -0.6, 1.75),  # more than twice Newton's step: Newton's
            (0.8, -2.5, 0.75),  # outside the bracket: Newton's -1.25
            (0.25, -2.5, 1.0),  # outside, and Newton's -4 too: bisection
            (0.8, math.nan, 0.75),  # no Hermite root: Newton's
        ],
    )
    def test_hermite_step_guards(self, monkeypatch, slope, hermite, probe):
        # bracketed by the probes 0 and 2; the step from 2 is the Hermite
        # step where the guards let it through, else Newton's, else the midpoint
        probes, calls = [], []
        f = self.recording(probes, lambda x: x - 1.0, slope=lambda x: 0.5 if x < 1.0 else slope)
        monkeypatch.setattr(se, "_hermite_step", lambda *args: calls.append(args) or hermite)
        with contextlib.suppress(se.NoConvergence):
            se._newton(f, 0.0, "x", maxiter=3)
        assert probes == [0.0, 2.0, probe]
        assert calls[0] == (0.0, -1.0, 0.5, 2.0, 1.0, slope, -1.0 / slope)

    def test_hermite_step_needs_both_slopes(self, monkeypatch):
        # the slope at the first probe is 0: no Hermite step from 2, Newton's
        probes, calls = [], []
        f = self.recording(probes, lambda x: x - 1.0, slope=lambda x: 0.0 if x < 1.0 else 0.8)
        monkeypatch.setattr(se, "_hermite_step", lambda *args: calls.append(args) or -0.3)
        with contextlib.suppress(se.NoConvergence):
            se._newton(f, 0.0, "x", maxiter=3)
        assert probes == [0.0, 2.0, 0.75] and not calls

    def test_budget_exhausted_raises(self):
        probes = []
        f = self.recording(probes, lambda x: x - 1.0, slope=0.0)
        with pytest.raises(se.NoConvergence) as info:
            se._newton(f, 0.3, "x", maxiter=2)
        assert probes == [0.3, 2.3]
        assert str(info.value) == (
            f"Newton's method stopped after 2 iterations at x={math.exp(2.3)!r},"
            f" where the map is {2.3 - 1.0!r}"
        )

    def test_nan_raises_naming_its_probe(self):
        probes = []
        f = self.recording(probes, lambda x: math.nan if x > 1.5 else x - 5.0)
        with pytest.raises(se.NoConvergence) as info:
            se._newton(f, 0.0, "x")
        assert probes == [0.0, 2.0]
        assert f"at x={math.exp(2.0)!r}, where the map is nan" in str(info.value)

    def test_solves_out_of_iterations_raise(self, monkeypatch):
        newton = se._newton
        monkeypatch.setattr(
            se, "_newton", lambda *args, **kwargs: newton(*args, **{**kwargs, "maxiter": 2})
        )
        params = ProblemParams(alpha=0.3, kappa=0.5, delta=0.1)
        with pytest.raises(se.NoConvergence, match="after 2 iterations at q_hat="):
            se.solve_qhat(params)
        with pytest.raises(se.NoConvergence, match="after 2 iterations at t="):
            se.free_entropy(params, 1.5)

    def test_nan_map_raises_naming_the_probe(self, monkeypatch):
        # NaN only within 1% of the root in log scale, where Newton's last
        # probes land and its first do not
        params = ProblemParams(alpha=0.3, kappa=0.5, delta=0.1)
        fp = se.solve_qhat(params)
        fixed_point, f_rie = se._fixed_point_map, se._f_rie
        near = lambda x, x_star: abs(math.log(x / x_star)) < 0.01
        nan = (math.nan, math.nan, None)
        monkeypatch.setattr(
            se, "_fixed_point_map",
            lambda p, q_hat: nan if near(q_hat, fp.q_hat) else fixed_point(p, q_hat),
        )
        monkeypatch.setattr(
            se, "_f_rie", lambda prior, t: nan if near(t, 1.0 / fp.q_hat) else f_rie(prior, t)
        )
        for solve, name, x_star in (
            (lambda: se.solve_qhat(params), "q_hat", fp.q_hat),
            (lambda: se.free_entropy(params, fp.q), "t", 1.0 / fp.q_hat),
        ):
            with pytest.raises(se.NoConvergence, match="where the map is nan") as info:
                solve()
            named = re.search(rf" {name}=(\S+),", str(info.value)).group(1)
            assert near(float(named), x_star)


class TestBrentq:
    """solve_qhat's Newton roots against scipy's Brent reference."""

    @pytest.mark.parametrize("xtol,rtol", [(1e-13, 8.9e-16), (2e-12, 4 * np.finfo(float).eps)])
    def test_matches_reference_brentq(self, xtol, rtol):
        # Brent's method on the same map in log q_hat finds the same root, to
        # its own xtol; past the threshold, the map is negative at QHAT_MAX
        optimize = pytest.importorskip("scipy.optimize")
        for delta in (0.0, 0.1):
            for kappa in (0.15, 0.45, 0.75, 1.05, 1.35, 1.85):
                for alpha in (0.07, 0.33):
                    params = ProblemParams(alpha=alpha, kappa=kappa, delta=delta)
                    fp = se.solve_qhat(params)
                    g = lambda u: se._fixed_point_map(params, math.exp(u))[0]
                    if fp.status == "supercritical":
                        assert g(math.log(se.QHAT_MAX)) < 0.0
                        continue
                    u = math.log(fp.q_hat)
                    root = optimize.brentq(g, u - 1.0, u + 1.0, xtol=xtol, rtol=rtol)
                    rel = max(1e-12, 2 * xtol)
                    assert math.exp(root) == pytest.approx(fp.q_hat, rel=rel, abs=0.0)

class TestMapSlopes:
    """Each map's slope, read off the density its value comes from, against
    central differences of the value in log scale."""

    H = 1e-5

    @pytest.mark.parametrize("q_hat", [0.05, 1.0, 30.0, 2000.0])
    @pytest.mark.parametrize("alpha,kappa,delta", [(0.3, 0.5, 0.1), (0.2, 2.0, 0.0)])
    def test_fixed_point_map(self, alpha, kappa, delta, q_hat):
        params = ProblemParams(alpha=alpha, kappa=kappa, delta=delta)
        value = lambda u: se._fixed_point_map(params, math.exp(u))[0]
        u = math.log(q_hat)
        fd = (value(u + self.H) - value(u - self.H)) / (2.0 * self.H)
        assert se._fixed_point_map(params, q_hat)[1] == pytest.approx(fd, rel=1e-7)

    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 20.0])
    @pytest.mark.parametrize("kappa", [0.5, 2.0])
    def test_f_rie(self, kappa, t):
        prior = freeprob.PriorSpectrum.marchenko_pastur(kappa)
        value = lambda v: se._f_rie(prior, math.exp(v))[0]
        v = math.log(t)
        fd = (value(v + self.H) - value(v - self.H)) / (2.0 * self.H)
        assert se._f_rie(prior, t)[1] == pytest.approx(fd, rel=1e-7)


class TestFixedPointEquivalence:
    """The root of the scalar equation must agree with the damped iteration
    through the matrix-denoising error, which reaches the overlap without a
    root solve."""

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
        q_hat = se._inner_conjugate(params, q)[0]
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
        # the log potential reads the density of the conjugate root, which
        # the inner solve has built
        assert len(ts) > 0
        assert len(set(ts)) == len(ts)
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
        assert se._overlap_rate(params, params.q_min) == 0.0

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

    def test_inner_conjugate_returns_its_density(self):
        params = ProblemParams(alpha=0.3, kappa=1.0, delta=0.1)
        q = params.q_min + 0.4 * (params.q0 - params.q_min)
        q_hat, dens = se._inner_conjugate(params, q)
        assert dens.prior == params.prior
        assert dens.t == pytest.approx(1.0 / q_hat, rel=4e-16)
        rebuilt = freeprob.density(params.prior, dens.t)
        assert dens.cube_integral() == rebuilt.cube_integral()
