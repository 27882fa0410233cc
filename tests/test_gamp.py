"""Tests for the message-passing estimator and its scalar tracker."""

import numpy as np
import pytest

from quadnet import gamp, matdenoise, model
from quadnet.matdenoise import DenoiseSpec
from quadnet.state_evolution import ProblemParams, solve_qhat


@pytest.fixture(scope="module")
def tracked_run():
    """One d=200 noiseless run, 10 iterations, with its scalar prediction and
    each prior step's noise level t_lvl and claimed error c_new."""
    params = ProblemParams(alpha=0.3, kappa=0.5)
    trace = gamp.state_evolution_iterate(params)
    predicted = [params.kappa * (params.q0 - q) for q, _ in trace[:10]]
    inst = model.generate(d=200, kappa=0.5, alpha=0.3, delta=0.0, seed=11)
    dataset = model.reduce(inst)
    opts = gamp.GampOptions(max_iter=10, seed=11, s_star=inst.S_star)
    steps, denoise_step = [], gamp._denoise_step

    def recorded(prior, t_lvl, R):
        S_new, c_new = denoise_step(prior, t_lvl, R)
        steps.append((t_lvl, c_new))
        return S_new, c_new

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gamp, "FIXED_POINT_TOL", 0.0)
        patch.setattr(gamp, "_denoise_step", recorded)
        S_hat, state = gamp.run(dataset, params, opts)
    return params, predicted, S_hat, state, steps


class TestStateEvolutionIterate:
    def test_fixed_point_matches_solver(self):
        params = ProblemParams(alpha=0.2, kappa=0.5)
        fp = solve_qhat(params, with_free_entropy=False)
        trace = gamp.state_evolution_iterate(params)
        assert trace[-1][0] == pytest.approx(fp.q, abs=1e-5)

    def test_first_step_matches_direct_denoiser_call(self):
        params = ProblemParams(alpha=0.3, kappa=0.5, delta=0.1)
        q_hat_1 = 4.0 * params.alpha / (params.tilde_delta + 2.0 * (params.q0 - params.q_min))
        spec = DenoiseSpec.create(params.prior, 1.0 / q_hat_1)
        q_1 = params.q0 - matdenoise.mmse(spec)
        trace = gamp.state_evolution_iterate(params)
        assert trace[0][1] == pytest.approx(q_hat_1, rel=1e-12)
        assert trace[0][0] == pytest.approx(q_1, rel=1e-10)

    def test_supercritical_noiseless_reaches_exact_recovery(self):
        params = ProblemParams(alpha=0.45, kappa=0.5)
        trace = gamp.state_evolution_iterate(params)
        assert trace[-1][0] == pytest.approx(params.q0, abs=1e-9)

    @pytest.mark.parametrize(
        "alpha,delta", [(0.2, 0.0), (0.3, 0.0625), (0.1, 0.25)]
    )
    def test_both_init_ends_reach_same_fixed_point(self, alpha, delta):
        params = ProblemParams(alpha=alpha, kappa=0.5, delta=delta)
        low = gamp.state_evolution_iterate(params)[-1][0]
        high = gamp.state_evolution_iterate(params, q_init=params.q0 - 1e-3)[-1][0]
        assert low == pytest.approx(high, abs=1e-8)

    def test_overlap_monotone_from_below(self):
        params = ProblemParams(alpha=0.25, kappa=0.5)
        qs = [q for q, _ in gamp.state_evolution_iterate(params)]
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))
        assert params.q_min <= qs[0] <= qs[-1] <= params.q0

    def test_q_init_out_of_range_rejected(self):
        params = ProblemParams(alpha=0.2, kappa=0.5)
        with pytest.raises(ValueError):
            gamp.state_evolution_iterate(params, q_init=params.q0 + 0.5)


class TestRunBasics:
    def test_state_fields_and_trace_lengths(self, tracked_run):
        _, _, S_hat, state, _ = tracked_run
        assert state.iter == 10
        assert len(state.mse_trace) == 10
        assert S_hat.shape == state.S_hat.shape == state.R.shape
        assert state.omega.shape == (model.generate(d=200, kappa=0.5, alpha=0.3, seed=11).n,)

    def test_positivity_invariants(self, tracked_run):
        # per iteration: the damped precision A = 1 / (2 t_lvl), the channel
        # variance V (the initial c_hat or an earlier step's c_new) and c_new
        params, _, _, state, steps = tracked_run
        assert len(steps) == state.iter
        t_lvls, c_news = zip(*steps)
        assert all(1.0 / (2.0 * t) > 0 for t in t_lvls)
        assert all(v > 0 for v in (2.0 * params.prior.variance, *c_news[:-1]))
        assert all(0 < c <= 2.0 * params.q0 for c in c_news)

    def test_estimate_symmetric(self, tracked_run):
        _, _, S_hat, state, _ = tracked_run
        for mat in (S_hat, state.S_hat, state.R):
            assert np.max(np.abs(mat - mat.T)) < 1e-12

    def test_same_seed_bit_identical(self, monkeypatch):
        monkeypatch.setattr(gamp, "FIXED_POINT_TOL", 0.0)
        params = ProblemParams(alpha=0.3, kappa=0.5)
        inst = model.generate(d=80, kappa=0.5, alpha=0.3, delta=0.0, seed=5)
        dataset = model.reduce(inst)
        opts = gamp.GampOptions(max_iter=4, seed=5, s_star=inst.S_star)
        S1, st1 = gamp.run(dataset, params, opts)
        S2, st2 = gamp.run(dataset, params, opts)
        assert np.array_equal(S1, S2)
        assert st1.mse_trace == st2.mse_trace

    def test_teacher_does_not_steer_the_run(self, monkeypatch):
        # s_star only fills mse_trace: the returned estimate, the iteration
        # count and the stop reason must not depend on it
        params = ProblemParams(alpha=0.3, kappa=0.5)
        inst = model.generate(d=80, kappa=0.5, alpha=0.3, delta=0.0, seed=5)
        dataset = model.reduce(inst)
        S1, st1 = gamp.run(dataset, params, gamp.GampOptions(seed=5, s_star=inst.S_star))
        S2, st2 = gamp.run(dataset, params, gamp.GampOptions(seed=5))
        assert np.array_equal(S1, S2)
        assert np.array_equal(S1, st1.S_hat)
        assert st1.iter == st2.iter
        assert st1.stop_reason == st2.stop_reason

        # nor whether the divergence guard fires
        monkeypatch.setattr(gamp, "DIVERGENCE_FACTOR", 0.9)
        monkeypatch.setattr(gamp, "DIVERGENCE_PATIENCE", 2)
        params = ProblemParams(alpha=0.15, kappa=0.5)
        inst = model.generate(d=60, kappa=0.5, alpha=0.15, delta=0.0, seed=9)
        dataset = model.reduce(inst)

        def outcome(s_star):
            try:
                S, st = gamp.run(dataset, params,
                                 gamp.GampOptions(max_iter=10, seed=9, s_star=s_star))
            except gamp.Diverged as exc:
                return "diverged", str(exc)
            return "returned", S.tobytes(), st.iter, st.stop_reason

        assert outcome(inst.S_star) == outcome(None)

    def test_option_validation(self):
        with pytest.raises(ValueError):
            gamp.GampOptions(damping=0.7)
        with pytest.raises(ValueError):
            gamp.GampOptions(init="spectral")
        with pytest.raises(ValueError):
            gamp.GampOptions(max_iter=0)

    def test_sample_init_runs_to_same_fixed_point(self):
        params = ProblemParams(alpha=0.3, kappa=0.5)
        inst = model.generate(d=150, kappa=0.5, alpha=0.3, delta=0.0, seed=21)
        dataset = model.reduce(inst)
        best = {}
        for init in ("mean", "sample"):
            opts = gamp.GampOptions(max_iter=30, seed=21, init=init, s_star=inst.S_star)
            _, state = gamp.run(dataset, params, opts)
            best[init] = min(state.mse_trace)
        # sample init starts with the variance of an independent draw
        assert best["sample"] == pytest.approx(best["mean"], abs=0.03)

    def test_sample_init_is_not_the_teacher(self, monkeypatch):
        # the teacher and the run share one seed; the start must still be an
        # independent draw, with error about twice the prior variance
        params = ProblemParams(alpha=0.3, kappa=0.5)
        inst = model.generate(d=60, kappa=0.5, alpha=0.3, delta=0.0, seed=21)
        starts = []
        draw = matdenoise.sample_prior

        def recording(*args):
            starts.append(draw(*args))
            return starts[-1]

        monkeypatch.setattr(matdenoise, "sample_prior", recording)
        opts = gamp.GampOptions(max_iter=1, seed=21, init="sample")
        gamp.run(model.reduce(inst), params, opts)
        assert len(starts) == 1
        err = np.sum((starts[0] - inst.S_star) ** 2) / 60
        assert err == pytest.approx(2.0 * params.prior.variance, rel=0.2)

    def test_no_data_regime_stays_at_prior_mean(self):
        # a single observation carries no usable signal; the estimate must
        # remain at the prior mean instead of amplifying channel noise
        d = 80
        params = ProblemParams(alpha=1.0 / d**2, kappa=0.5)
        inst = model.generate(d=d, kappa=0.5, alpha=1.0 / d**2, delta=0.0, seed=2)
        dataset = model.reduce(inst)
        assert dataset.n == 1
        opts = gamp.GampOptions(max_iter=8, seed=2, s_star=inst.S_star)
        S_hat, state = gamp.run(dataset, params, opts)
        assert state.converged
        assert state.mse_trace[-1] == pytest.approx(1.0, abs=0.2)
        np.testing.assert_allclose(S_hat, params.prior.mean * np.eye(d), atol=1e-12)

    def test_divergence_guard_raises(self, monkeypatch):
        # tighten the guard so a plateaued trace trips it deterministically
        monkeypatch.setattr(gamp, "DIVERGENCE_FACTOR", 0.5)
        monkeypatch.setattr(gamp, "DIVERGENCE_PATIENCE", 2)
        params = ProblemParams(alpha=0.15, kappa=0.5)
        inst = model.generate(d=60, kappa=0.5, alpha=0.15, delta=0.0, seed=9)
        dataset = model.reduce(inst)
        opts = gamp.GampOptions(max_iter=10, seed=9, s_star=inst.S_star)
        with pytest.raises(gamp.Diverged):
            gamp.run(dataset, params, opts)


class TestRunAgainstScalarTracker:
    def test_per_iteration_tracking_d200(self, tracked_run):
        # first ten iterations track kappa (Q0 - q^t) within 0.05
        _, predicted, _, state, _ = tracked_run
        devs = [abs(m - p) for m, p in zip(state.mse_trace, predicted)]
        assert max(devs) < 0.05


class TestSupercritical:
    # alpha = 0.45 > alpha_PR = 0.375: exact recovery regime.  One run without
    # the teacher serves both tests (s_star does not steer a run:
    # TestRunBasics::test_teacher_does_not_steer_the_run)

    @pytest.fixture(scope="class")
    def recovery_run(self):
        params = ProblemParams(alpha=0.45, kappa=0.5)
        inst = model.generate(d=200, kappa=0.5, alpha=0.45, delta=0.0, seed=7)
        _, state = gamp.run(model.reduce(inst), params, gamp.GampOptions(max_iter=120, seed=7))
        return params, inst, state

    def test_noiseless_recovery_above_threshold_d200(self, recovery_run):
        params, inst, state = recovery_run
        final = model.matrix_mse(state.S_hat, inst.S_star, params.kappa)
        assert final < 1e-2

    def test_teacher_free_stop_reports_recovery_d200(self, recovery_run):
        # without the teacher the run must end at the noise floor with
        # residuals matching c_hat, never on an iterate that froze early
        params, inst, state = recovery_run
        assert state.converged
        assert state.stop_reason == "noise_floor"
        assert state.residual_ratio <= gamp.RESIDUAL_RATIO_MAX
        assert model.matrix_mse(state.S_hat, inst.S_star, params.kappa) < 1e-4
