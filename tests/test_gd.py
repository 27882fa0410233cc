"""Tests for the gradient-descent baseline and its average over initializations."""

import numpy as np
import pytest

from quadnet import gd, model


class TestGradient:
    @pytest.mark.parametrize("l2", [0.0, 0.3])
    def test_matches_central_finite_differences(self, l2):
        inst = model.generate(d=10, kappa=1.2, alpha=0.3, delta=0.1, seed=3)
        rng = np.random.default_rng(0)
        W = rng.standard_normal((inst.m, inst.d))
        _, r, P = gd._loss(W, inst.X, inst.y, l2)
        grad = gd._gradient(W, inst.X, r, P, l2)
        fd = np.zeros_like(W)
        h = 1e-5
        for i in range(W.shape[0]):
            for j in range(W.shape[1]):
                up = W.copy()
                up[i, j] += h
                down = W.copy()
                down[i, j] -= h
                fd[i, j] = (gd._loss(up, inst.X, inst.y, l2)[0]
                            - gd._loss(down, inst.X, inst.y, l2)[0]) / (2 * h)
        rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
        assert rel < 1e-5

    @pytest.mark.parametrize("l2", [0.0, 0.3])
    def test_float32_products_match_central_finite_differences(self, l2):
        # gd_run hands _gradient a float32 copy of X; the float64 loss is
        # the reference, and the gradient still comes back as float64
        inst = model.generate(d=10, kappa=1.2, alpha=0.3, delta=0.1, seed=3)
        W = np.random.default_rng(0).standard_normal((inst.m, inst.d))
        _, r, P = gd._loss(W, inst.X, inst.y, l2)
        grad = gd._gradient(W, inst.X.astype(np.float32), r, P, l2)
        assert grad.dtype == np.float64
        fd = _central_differences(lambda V: gd._loss(V, inst.X, inst.y, l2)[0], W, 1e-5)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-5

    @pytest.mark.parametrize("l2", [0.0, 0.3])
    def test_float32_forward_matches_central_finite_differences(self, l2):
        # before its float64 tail gd_run takes both products in float32:
        # r and P from _loss on the float32 X feed _gradient
        inst = model.generate(d=10, kappa=1.2, alpha=0.3, delta=0.1, seed=3)
        W = np.random.default_rng(0).standard_normal((inst.m, inst.d))
        X32 = inst.X.astype(np.float32)
        _, r, P = gd._loss(W, X32, inst.y, l2)
        grad = gd._gradient(W, X32, r, P, l2)
        assert grad.dtype == np.float64
        fd = _central_differences(lambda V: gd._loss(V, inst.X, inst.y, l2)[0], W, 1e-5)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-5

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
    def test_float32_forward_residuals_within_rounding(self, scale):
        # the loss and r stay float64 and within the bounds gd_run's switch
        # takes for the forward's rounding: ||r - r64|| <= 2 eps32 ||f|| with
        # f = y - r64, so the loss is off by at most ||r64|| ||r - r64|| / 2
        # + ||r - r64||^2 / 4 <= eps32 ||r64|| ||f|| + eps32^2 ||f||^2
        inst = model.generate(d=10, kappa=1.2, alpha=0.3, delta=0.1, seed=3)
        W = scale * np.random.default_rng(0).standard_normal((inst.m, inst.d))
        loss, r, _ = gd._loss(W, inst.X.astype(np.float32), inst.y, 0.3)
        loss64, r64, _ = gd._loss(W, inst.X, inst.y, 0.3)
        assert isinstance(loss, float) and r.dtype == np.float64
        eps32, f = np.finfo(np.float32).eps, np.linalg.norm(inst.y - r64)
        assert np.linalg.norm(r - r64) <= 2 * eps32 * f
        assert abs(loss - loss64) <= eps32 * np.linalg.norm(r64) * f + (eps32 * f) ** 2

def _central_differences(f, W, h):
    """Central finite differences of the scalar f at W, entry by entry."""
    fd = np.zeros_like(W)
    for idx in np.ndindex(W.shape):
        up, down = W.copy(), W.copy()
        up[idx] += h
        down[idx] -= h
        fd[idx] = (f(up) - f(down)) / (2 * h)
    return fd


class TestGdRun:
    def test_deterministic_given_seeds(self):
        inst = model.generate(d=30, kappa=0.5, alpha=0.3, delta=0.0, seed=5)
        cfg = gd.GdConfig(max_steps=200, seed=8)
        S1, t1 = gd.gd_run(inst, cfg)
        S2, t2 = gd.gd_run(inst, cfg)
        assert np.array_equal(S1, S2)
        assert np.array_equal(t1, t2)

    def test_init_is_not_the_teacher(self):
        # shared seed between data generation and the descent must not
        # replay the teacher weights as the starting point
        inst = model.generate(d=30, kappa=0.5, alpha=0.3, delta=0.0, seed=5)
        _, trace = gd.gd_run(inst, gd.GdConfig(max_steps=1, seed=5))
        assert trace[0] > 1.0

    def test_diverges_at_huge_learning_rate(self):
        inst = model.generate(d=30, kappa=0.5, alpha=0.3, delta=0.0, seed=5)
        with pytest.raises(gd.Diverged):
            gd.gd_run(inst, gd.GdConfig(learning_rate=50.0, max_steps=500, seed=5))

    def test_backtracking_keeps_loss_monotone(self):
        inst = model.generate(d=30, kappa=0.5, alpha=0.3, delta=0.0, seed=6)
        cfg = gd.GdConfig(learning_rate=5.0, max_steps=400, seed=6, backtracking=True)
        _, trace = gd.gd_run(inst, cfg)
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_convex_regime_recovers_teacher(self):
        # overparametrized and identifiable: above half sample complexity
        # with kappa > 1 the landscape is benign and descent drives both
        # the training loss and the matrix error to zero
        inst = model.generate(d=40, kappa=1.2, alpha=0.55, delta=0.0, seed=4)
        cfg = gd.GdConfig(learning_rate=2.0, max_steps=50000, seed=4,
                          backtracking=True)
        S_hat, trace = gd.gd_run(inst, cfg)
        assert trace[-1] < 1e-4
        assert model.matrix_mse(S_hat, inst.S_star, inst.kappa) < 1e-2

    def test_grad_tol_stop_fires_before_budget(self):
        # a noiseless run that reaches zero loss stops on grad_tol (at step
        # 5109); residuals from the float32 forward floor near eps32 |f_i|,
        # so without the float64 tail the gradient would stay above
        # grad_tol and the run take all 60000 steps
        inst = model.generate(d=12, kappa=0.5, alpha=0.8, delta=0.0, seed=1)
        cfg = gd.GdConfig(learning_rate=0.2, max_steps=60000, seed=2)
        _, trace = gd.gd_run(inst, cfg)
        assert len(trace) - 1 < cfg.max_steps // 4
        assert trace[-1] < 1e-10

    @pytest.mark.parametrize("kappa, delta", [(1.0, 0.0), (0.5, 0.0625)])
    def test_ridge_run_stops_before_budget(self, kappa, delta):
        # at a ridge minimum the data term of the gradient equals -l2 W, not
        # zero; its float32 rounding alone would keep the gradient norm above
        # grad_tol for all 30000 steps, where float64 stops at 4346 / 5415
        inst = model.generate(d=18, kappa=kappa, alpha=0.5, delta=delta, seed=1)
        cfg = gd.GdConfig(learning_rate=0.2, l2=0.3, max_steps=30000, seed=2)
        _, trace = gd.gd_run(inst, cfg)
        assert len(trace) - 1 < cfg.max_steps // 3

    def test_float64_tail_keeps_stop_steps(self, monkeypatch):
        # the all-float64 descent stops at steps 5109 (grad_tol run above),
        # 4346 / 5415 (ridge runs above) and 865; with the float32 products
        # and their one float64 tail each stops within a few steps of that
        d12 = model.generate(d=12, kappa=0.5, alpha=0.8, delta=0.0, seed=1)
        runs = [(d12, gd.GdConfig(learning_rate=0.2, max_steps=60000, seed=2), 5109)]
        for kappa, delta, steps in [(1.0, 0.0, 4346), (0.5, 0.0625, 5415)]:
            inst = model.generate(d=18, kappa=kappa, alpha=0.5, delta=delta, seed=1)
            runs.append((inst, gd.GdConfig(learning_rate=0.2, l2=0.3, max_steps=30000, seed=2),
                         steps))
        # backtracking on a ridge run stops at 865; comparing float32-forward
        # losses there halved the step size away and ran the whole budget,
        # so backtracking runs are float64 throughout
        runs.append((runs[1][0], gd.GdConfig(learning_rate=1.0, l2=0.3, max_steps=30000, seed=2,
                                             backtracking=True), 865))
        for inst, cfg, steps in runs:
            _, trace = gd.gd_run(inst, cfg)
            assert abs(len(trace) - 1 - steps) <= 3

        # the plain run to zero loss: the forward switches from float32 to
        # float64 once and the run stops on grad_tol
        calls = []
        loss = gd._loss

        def record(W, X, y, l2):
            out = loss(W, X, y, l2)
            calls.append((X.dtype, W, out[0]))
            return out

        monkeypatch.setattr(gd, "_loss", record)
        cfg = runs[0][1]
        _, trace = gd.gd_run(d12, cfg)
        dtypes = [dtype for dtype, _, _ in calls]
        switch = dtypes.index(np.float64)
        assert switch > 0 and set(dtypes[:switch]) == {np.dtype(np.float32)}
        assert set(dtypes[switch:]) == {np.dtype(np.float64)}
        # the switch recomputes the loss at the accepted float32 step's W in
        # float64, and that loss replaces the float32 one in the trace
        assert calls[switch][1] is calls[switch - 1][1]
        assert calls[switch][2] in trace and calls[switch - 1][2] not in trace
        _, W_last, loss_last = calls[-1]
        assert loss_last == trace[-1] < 1e-10
        _, r, P = loss(W_last, d12.X, d12.y, 0.0)
        assert np.linalg.norm(gd._gradient(W_last, d12.X, r, P, 0.0)) < cfg.grad_tol

        # a backtracking run compares losses: every one is float64, the
        # trace stays monotone and the run stops on grad_tol
        calls.clear()
        cfg = gd.GdConfig(learning_rate=1.0, max_steps=60000, seed=2, backtracking=True)
        _, trace = gd.gd_run(d12, cfg)
        assert {dtype for dtype, _, _ in calls} == {np.dtype(np.float64)}
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        assert len(trace) - 1 < cfg.max_steps and trace[-1] < 1e-10

    def test_consumed_products_are_never_read_again(self, monkeypatch):
        # _gradient scales P in place; handing it a copy instead leaves a
        # plain run through its float64 tail and a backtracking run, which
        # discards the products of its rejected trial steps, bit-identical
        d12 = model.generate(d=12, kappa=0.5, alpha=0.8, delta=0.0, seed=1)
        cfgs = [gd.GdConfig(learning_rate=0.2, max_steps=60000, seed=2),
                gd.GdConfig(learning_rate=1.0, max_steps=60000, seed=2, backtracking=True)]
        runs = [gd.gd_run(d12, cfg) for cfg in cfgs]
        gradient = gd._gradient
        monkeypatch.setattr(gd, "_gradient",
                            lambda W, X, r, P, l2: gradient(W, X, r, P.copy(), l2))
        for cfg, (S_hat, trace) in zip(cfgs, runs):
            S_copy, trace_copy = gd.gd_run(d12, cfg)
            assert np.array_equal(S_copy, S_hat)
            assert np.array_equal(trace_copy, trace)

    def test_default_learning_rates(self):
        assert gd.default_learning_rate(200) == 0.2
        assert gd.default_learning_rate(100) == 0.07

    def test_config_validation(self):
        with pytest.raises(ValueError):
            gd.GdConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            gd.GdConfig(l2=-0.1)

    @pytest.mark.parametrize("field", ["learning_rate", "l2", "grad_tol"])
    def test_infinite_rejected(self, field):
        # an infinite grad_tol would stop at step 0 and return the random
        # init; an infinite step size or weight decay would diverge
        with pytest.raises(ValueError, match=f"{field} must be .* finite"):
            gd.GdConfig(**{field: np.inf})

    def test_nan_l2_rejected(self):
        with pytest.raises(ValueError, match="l2"):
            gd.GdConfig(l2=float("nan"))

    @pytest.mark.parametrize("grad_tol", [float("nan"), -1.0])
    def test_nan_or_negative_grad_tol_rejected(self, grad_tol):
        with pytest.raises(ValueError, match="grad_tol must be nonnegative"):
            gd.GdConfig(grad_tol=grad_tol)


class TestRegularization:
    def test_l2_hurts_final_error(self):
        # ridge term biases the estimate; same descent budget, worse MSE
        inst = model.generate(d=50, kappa=0.5, alpha=0.4, delta=0.0625, seed=1)
        out = {}
        for l2 in (0.0, 0.2):
            cfg = gd.GdConfig(l2=l2, max_steps=10000, seed=1)
            S_hat, _ = gd.gd_run(inst, cfg)
            out[l2] = model.matrix_mse(S_hat, inst.S_star, inst.kappa)
        assert out[0.2] > out[0.0]


class TestAgd:
    def test_needs_two_inits(self):
        inst = model.generate(d=30, kappa=0.5, alpha=0.3, delta=0.0, seed=5)
        with pytest.raises(ValueError):
            gd.agd_run(inst, gd.GdConfig(max_steps=50), 1)

    def test_distinct_inits_spread(self):
        inst = model.generate(d=30, kappa=0.5, alpha=0.3, delta=0.0, seed=5)
        S_bar, disp = gd.agd_run(inst, gd.GdConfig(max_steps=100, seed=5), 3)
        assert disp > 0
        assert np.max(np.abs(S_bar - S_bar.T)) < 1e-12

    def test_mean_and_spread_of_runs_at_spawned_seeds(self):
        inst = model.generate(d=20, kappa=0.5, alpha=0.3, delta=0.0, seed=5)
        S_bar, disp = gd.agd_run(inst, gd.GdConfig(max_steps=100, seed=5), 3)
        seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(5).spawn(3)]
        mats = [gd.gd_run(inst, gd.GdConfig(max_steps=100, seed=s))[0] for s in seeds]
        mean = np.mean(mats, axis=0)
        assert np.array_equal(S_bar, mean)
        assert disp == float(np.mean([np.sum((mean - S) ** 2) for S in mats]))
