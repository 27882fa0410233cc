"""Tests for teacher data generation, the matrix reduction, and metrics."""

import json

import numpy as np
import pytest

from quadnet import model


def z_matrix(red, i):
    """Materialize a single Z_i = (x_i x_i^T - I)/sqrt(d) of a reduced dataset."""
    x = red.X[i]
    return (np.outer(x, x) - np.eye(red.d)) / np.sqrt(red.d)


def save_instance(path, instance):
    """Binary dump: X, y, S* spectrum, and a JSON metadata record."""
    meta = {
        "d": instance.d,
        "m": instance.m,
        "n": instance.n,
        "delta": instance.delta,
        "seed": instance.seed,
        "kappa": instance.kappa,
        "alpha": instance.alpha,
    }
    np.savez_compressed(
        path,
        X=instance.X,
        y=instance.y,
        W_star=instance.W_star,
        a=instance.a,
        s_star_eigenvalues=np.linalg.eigvalsh(instance.S_star),
        meta=np.bytes_(json.dumps(meta, sort_keys=True).encode()),
    )


def load_instance(path):
    with np.load(path) as f:
        meta = json.loads(bytes(f["meta"]).decode())
        W = f["W_star"]
        a = f["a"]
        return model.TeacherInstance(
            d=meta["d"],
            m=meta["m"],
            n=meta["n"],
            W_star=W,
            a=a,
            S_star=(W.T * a) @ W / meta["m"],
            X=f["X"],
            y=f["y"],
            delta=meta["delta"],
            seed=meta["seed"],
        )


class TestGenerate:
    def test_shapes_and_rounding(self):
        inst = model.generate(d=50, kappa=0.52, alpha=0.31, delta=0.1, seed=1)
        assert inst.m == 26
        assert inst.n == 775
        assert inst.W_star.shape == (26, 50)
        assert inst.X.shape == (775, 50)
        assert inst.y.shape == (775,)
        assert inst.kappa == pytest.approx(26 / 50)
        assert inst.alpha == pytest.approx(775 / 2500)

    def test_s_star_is_psd_with_unit_normalized_trace(self):
        inst = model.generate(d=80, kappa=0.5, alpha=0.1, seed=2)
        evals = np.linalg.eigvalsh(inst.S_star)
        assert evals.min() > -1e-12
        assert np.sum(evals > 1e-10) <= inst.m
        assert np.trace(inst.S_star) / inst.d == pytest.approx(1.0, abs=0.2)

    def test_basis_teacher_labels(self):
        # teacher-scale rows sqrt(d) e_k give y = ||x||^2 / 2 exactly
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 2))
        y = model.labels(np.sqrt(2.0) * np.eye(2), np.ones(2), X, 0.0, rng)
        np.testing.assert_allclose(y, 0.5 * (X**2).sum(axis=1), atol=1e-14)

    @pytest.mark.parametrize("delta", [0.0, 0.2])
    def test_label_mean(self, delta):
        inst = model.generate(d=100, kappa=0.5, alpha=0.3, delta=delta, seed=7)
        assert abs(inst.y.mean() - (1.0 + delta)) < 5.0 / np.sqrt(inst.n)

    def test_same_seed_is_bit_identical(self):
        a = model.generate(d=20, kappa=0.5, alpha=0.3, delta=0.1, seed=42)
        b = model.generate(d=20, kappa=0.5, alpha=0.3, delta=0.1, seed=42)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.W_star, b.W_star)
        c = model.generate(d=20, kappa=0.5, alpha=0.3, delta=0.1, seed=43)
        assert not np.array_equal(a.y, c.y)

    def test_noise_stream_shared_across_delta(self):
        a = model.generate(d=20, kappa=0.5, alpha=0.3, delta=0.0, seed=4)
        b = model.generate(d=20, kappa=0.5, alpha=0.3, delta=0.5, seed=4)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.W_star, b.W_star)

    @pytest.mark.parametrize("second_layer", [None, ((1.0, 0.5), (-1.0, 0.5))])
    def test_noiseless_labels_draw_no_noise(self, second_layer):
        # the noise is the last draw, and delta = 0 skips it: the teacher
        # and the inputs are shared across delta, and the noiseless labels
        # are the plain quadratic form
        kw = dict(d=30, kappa=0.5, alpha=0.2, seed=9, second_layer=second_layer)
        base = model.generate(delta=0.0, **kw)
        for delta in (0.1, 1.0):
            other = model.generate(delta=delta, **kw)
            assert np.array_equal(other.X, base.X)
            assert np.array_equal(other.W_star, base.W_star)
            assert np.array_equal(other.a, base.a)
        W, X = base.W_star, base.X
        y = (X @ W.T / np.sqrt(base.d)) ** 2 @ base.a / base.m
        assert np.array_equal(base.y, y)

    @pytest.mark.parametrize("a", [np.ones(15), np.array([1.0, -1.0, 2.0] * 5)])
    def test_noisy_labels_match_the_plain_expression_bit_for_bit(self, a):
        # labels forms the pre-activations in place; the values and the
        # noise draws are those of the plain expression (the noiseless
        # labels are pinned by test_noiseless_labels_draw_no_noise)
        rng = np.random.default_rng(11)
        W, X = rng.standard_normal((15, 30)), rng.standard_normal((200, 30))
        rng_plain, rng_labels = (np.random.default_rng(12) for _ in range(2))
        pre = X @ W.T / np.sqrt(30) + np.sqrt(0.25) * rng_plain.standard_normal((200, 15))
        y = pre**2 @ a / 15
        assert np.array_equal(model.labels(W, a, X, 0.25, rng_labels), y)
        assert rng_labels.bit_generator.state == rng_plain.bit_generator.state

    def test_memory_budget(self, monkeypatch):
        # read at call time
        monkeypatch.setattr(model, "MEMORY_BUDGET", 1000)
        with pytest.raises(model.DimensionOverflow):
            model.generate(d=50, kappa=0.5, alpha=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            model.generate(d=1, kappa=1.0, alpha=0.1)
        with pytest.raises(ValueError):
            model.generate(d=10, kappa=0.01, alpha=0.1)
        with pytest.raises(ValueError):
            model.generate(d=10, kappa=1.0, alpha=1e-4)
        with pytest.raises(ValueError):
            model.generate(d=10, kappa=1.0, alpha=0.1, delta=-0.1)

    def test_nan_delta_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            model.generate(d=10, kappa=1.0, alpha=0.1, delta=float("nan"))

    def test_second_layer_draws_atoms(self):
        inst = model.generate(
            d=100, kappa=0.7, alpha=0.2, delta=0.1, seed=9,
            second_layer=((0.5, 0.5), (2.0, 0.5)),
        )
        assert set(np.unique(inst.a)) <= {0.5, 2.0}
        assert not inst.fixed_layer
        # label mean follows the realized second-layer average
        a_bar = inst.a.mean()
        assert abs(inst.y.mean() - a_bar * 1.1) < 5.0 / np.sqrt(inst.n)
        with pytest.raises(ValueError):
            model.generate(d=20, kappa=0.5, alpha=0.3,
                           second_layer=((1.0, 0.6), (2.0, 0.6)))


class TestReduce:
    def test_noiseless_reduction_identity(self):
        inst = model.generate(d=100, kappa=0.5, alpha=0.3, delta=0.0, seed=7)
        red = model.reduce(inst)
        resid = red.y_tilde - red.trace_products(inst.S_star)
        const = np.sqrt(inst.d) * (np.trace(inst.S_star) / inst.d - 1.0)
        np.testing.assert_allclose(resid, const, atol=1e-12)
        assert abs(const) < 3.0

    def test_reduced_label_variance(self):
        inst = model.generate(d=100, kappa=0.5, alpha=0.3, delta=0.0, seed=7)
        red = model.reduce(inst)
        q0 = 1.0 + 1.0 / inst.kappa
        assert red.y_tilde.var() == pytest.approx(2.0 * q0, rel=0.1)

    def test_reduction_noise_variance_matches_channel(self):
        inst = model.generate(d=200, kappa=0.5, alpha=0.2, delta=0.0625, seed=3)
        red = model.reduce(inst)
        resid = red.y_tilde - red.trace_products(inst.S_star)
        assert red.tilde_delta == pytest.approx(
            2 * 0.0625 * 2.0625 / inst.kappa
        )
        assert resid.var() == pytest.approx(red.tilde_delta, rel=0.1)

    def test_second_layer_centers_empirically(self):
        inst = model.generate(
            d=100, kappa=0.7, alpha=0.2, delta=0.1, seed=9,
            second_layer=((0.5, 0.5), (2.0, 0.5)),
        )
        red = model.reduce(inst)
        assert abs(red.y_tilde.mean()) < 1e-10
        c_a = float(np.mean(inst.a**2))
        assert red.tilde_delta == pytest.approx(
            2 * 0.1 * (2 + c_a * 0.1) / inst.kappa
        )

    def test_trace_products_matches_dense(self):
        inst = model.generate(d=30, kappa=0.7, alpha=0.5, delta=0.1, seed=5)
        red = model.reduce(inst)
        rng = np.random.default_rng(0)
        S = rng.standard_normal((30, 30))
        S = S + S.T
        dense = np.array(
            [np.trace(z_matrix(red, i) @ S) for i in range(red.n)]
        )
        np.testing.assert_allclose(red.trace_products(S), dense, atol=1e-12)

    def test_weighted_sum_matches_dense(self):
        inst = model.generate(d=30, kappa=0.7, alpha=0.5, delta=0.1, seed=5)
        red = model.reduce(inst)
        g = np.random.default_rng(1).standard_normal(red.n)
        dense = sum(gi * z_matrix(red, i) for i, gi in enumerate(g))
        np.testing.assert_allclose(red.weighted_sum(g), dense, atol=1e-12)

    def test_trace_against_independent_matrix_is_centered(self):
        inst = model.generate(d=100, kappa=0.5, alpha=0.3, seed=12)
        red = model.reduce(inst)
        S = np.diag(np.random.default_rng(3).uniform(0.5, 1.5, size=100))
        vals = red.trace_products(S)
        # E Tr[Z S] = 0; stderr of the mean ~ sqrt(2 tr S^2 / d / n)
        stderr = np.sqrt(2 * np.trace(S @ S) / 100 / red.n)
        assert abs(vals.mean()) < 5 * stderr


class TestMatrixMse:
    def test_perfect_estimate_is_zero(self):
        inst = model.generate(d=40, kappa=0.5, alpha=0.1, seed=1)
        assert model.matrix_mse(inst.S_star, inst.S_star, 0.5) == 0.0

    def test_prior_mean_estimator_gives_unit_mmse(self):
        inst = model.generate(d=200, kappa=0.5, alpha=0.05, seed=11)
        val = model.matrix_mse(np.eye(200), inst.S_star, 0.5)
        assert val == pytest.approx(1.0, rel=0.05)

    def test_zero_estimator_gives_kappa_q0(self):
        inst = model.generate(d=200, kappa=0.5, alpha=0.05, seed=11)
        val = model.matrix_mse(np.zeros((200, 200)), inst.S_star, 0.5)
        assert val == pytest.approx(0.5 * (1 + 1 / 0.5), rel=0.05)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            model.matrix_mse(np.eye(3), np.eye(4), 1.0)


class TestExport:
    def test_round_trip(self, tmp_path):
        inst = model.generate(d=20, kappa=0.5, alpha=0.3, delta=0.1, seed=42)
        path = tmp_path / "instance.npz"
        save_instance(path, inst)
        back = load_instance(path)
        assert back.d == inst.d and back.m == inst.m and back.n == inst.n
        assert back.delta == inst.delta and back.seed == inst.seed
        np.testing.assert_array_equal(back.X, inst.X)
        np.testing.assert_array_equal(back.y, inst.y)
        np.testing.assert_allclose(back.S_star, inst.S_star, atol=1e-12)

    def test_spectrum_is_stored_sorted(self, tmp_path):
        inst = model.generate(d=20, kappa=0.5, alpha=0.3, seed=42)
        path = tmp_path / "instance.npz"
        save_instance(path, inst)
        with np.load(path) as f:
            evals = f["s_star_eigenvalues"]
        assert np.all(np.diff(evals) >= 0)
        np.testing.assert_allclose(
            evals, np.linalg.eigvalsh(inst.S_star), atol=1e-12
        )
