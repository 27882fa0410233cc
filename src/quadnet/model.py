"""Synthetic teacher-student data for the quadratic network.

A teacher with m = round(kappa d) hidden units labels n = round(alpha d^2)
Gaussian inputs through

    y_i = (1/m) sum_k a_k [ (w_k . x_i)/sqrt(d) + sqrt(delta) z_ik ]^2,

with standard-normal weights w_k and per-unit label noise z_ik.  The fixed
second layer has a_k = 1; an optional atom law draws a_k from a discrete
distribution.  Learning the teacher is equivalent to estimating the matrix
S* = (1/m) sum_k a_k w_k w_k^T from the reduced labels
y_tilde_i = sqrt(d)(y_i - 1 - delta), which behave as Tr[Z_i S*] plus an
effective Gaussian noise of variance tilde_delta; the reduction is what the
message-passing and denoising modules consume.

Z_i = (x_i x_i^T - I)/sqrt(d) is never materialized densely: all bilinear
operations go through the matrix-free identities on X rows.
"""

import dataclasses

import numpy as np

# elements (float64) allowed for X plus the pre-activation matrix
MEMORY_BUDGET = int(2e8)


class DimensionOverflow(RuntimeError):
    """Requested instance would exceed the configured memory budget."""


@dataclasses.dataclass
class TeacherInstance:
    d: int
    m: int
    n: int
    W_star: np.ndarray
    a: np.ndarray
    S_star: np.ndarray
    X: np.ndarray
    y: np.ndarray
    delta: float
    seed: int

    @property
    def kappa(self) -> float:
        """Width ratio recomputed from the rounded m."""
        return self.m / self.d

    @property
    def alpha(self) -> float:
        """Sample ratio recomputed from the rounded n."""
        return self.n / self.d**2

    @property
    def fixed_layer(self) -> bool:
        return bool(np.all(self.a == 1.0))


@dataclasses.dataclass
class ReducedDataset:
    """Centered, rescaled labels with matrix-free access to the Z_i."""

    X: np.ndarray
    y_tilde: np.ndarray
    tilde_delta: float

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def trace_products(self, S) -> np.ndarray:
        """Tr[Z_i S] for all i: (x_i^T S x_i - Tr S)/sqrt(d)."""
        quad = np.einsum("ij,ij->i", self.X @ S, self.X)
        return (quad - np.trace(S)) / np.sqrt(self.d)

    def weighted_sum(self, g) -> np.ndarray:
        """sum_i g_i Z_i: (X^T diag(g) X - (sum g) I)/sqrt(d)."""
        out = self.X.T @ (np.asarray(g)[:, None] * self.X)
        out[np.diag_indices_from(out)] -= np.sum(g)
        return out / np.sqrt(self.d)


def labels(W, a, X, delta, rng) -> np.ndarray:
    """Labels of Eq-form (1/m) sum_k a_k [(w_k.x)/sqrt(d) + sqrt(delta) z]^2.

    The per-unit noise z is drawn only when delta > 0.  It is the last draw
    of `generate`, so instances with the same seed share X and W across
    delta values, and the noise across positive ones.
    """
    m, d = W.shape
    pre = X @ W.T
    pre /= np.sqrt(d)
    if delta > 0:
        noise = rng.standard_normal(pre.shape)
        noise *= np.sqrt(delta)
        pre += noise
    np.square(pre, out=pre)
    return pre @ np.asarray(a) / m


def check_dimension(d: int) -> None:
    """Raise ValueError unless d, the input dimension, is at least 2."""
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")


def generate(
    d: int,
    kappa: float,
    alpha: float,
    delta: float = 0.0,
    seed: int = 0,
    second_layer=None,
) -> TeacherInstance:
    """Draw a reproducible teacher instance with rounded m and n.

    second_layer, when given, is a tuple of (value, weight) atoms for the
    a_k law; weights must sum to 1.  The effective kappa and alpha are the
    rounded ratios m/d and n/d^2 exposed on the instance.  Past
    `MEMORY_BUDGET` floats it raises `DimensionOverflow`.
    """
    check_dimension(d)
    if not delta >= 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    m = round(kappa * d)
    n = round(alpha * d**2)
    if m < 1:
        raise ValueError(f"kappa={kappa} rounds to zero hidden units at d={d}")
    if n < 1:
        raise ValueError(f"alpha={alpha} rounds to zero samples at d={d}")
    if n * d + n * m > MEMORY_BUDGET:
        raise DimensionOverflow(
            f"instance needs {n * d + n * m} floats, budget {MEMORY_BUDGET}"
        )
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((m, d))
    if second_layer is None:
        a = np.ones(m)
    else:
        vals = np.array([v for v, _ in second_layer], dtype=float)
        probs = np.array([p for _, p in second_layer], dtype=float)
        if not np.isclose(probs.sum(), 1.0):
            raise ValueError(f"second-layer weights sum to {probs.sum()}, not 1")
        a = rng.choice(vals, size=m, p=probs)
    X = rng.standard_normal((n, d))
    y = labels(W, a, X, delta, rng)
    S = (W.T * a) @ W / m
    return TeacherInstance(
        d=d, m=m, n=n, W_star=W, a=a, S_star=S, X=X, y=y, delta=delta, seed=seed
    )


def reduce(instance: TeacherInstance) -> ReducedDataset:
    """Center and rescale labels to the matrix-estimation channel.

    Fixed second layer: y_tilde = sqrt(d)(y - 1 - delta), using the known
    label mean.  General second layer: center by the empirical mean instead.
    The effective channel variance is 2 delta (2 + c_a delta)/kappa with
    c_a the second moment of the a_k law (c_a = 1 when fixed).
    """
    d = instance.d
    if instance.fixed_layer:
        y_tilde = np.sqrt(d) * (instance.y - 1.0 - instance.delta)
        c_a = 1.0
    else:
        y_tilde = np.sqrt(d) * (instance.y - instance.y.mean())
        c_a = float(np.mean(instance.a**2))
    tilde_delta = 2.0 * instance.delta * (2.0 + c_a * instance.delta) / instance.kappa
    return ReducedDataset(X=instance.X, y_tilde=y_tilde, tilde_delta=tilde_delta)


def matrix_mse(S_hat, S_star, kappa: float) -> float:
    """kappa times the dimension-normalized squared Frobenius error."""
    S_hat = np.asarray(S_hat)
    if S_hat.shape != np.shape(S_star):
        raise ValueError(f"shape mismatch: {S_hat.shape} vs {np.shape(S_star)}")
    diff = S_hat - S_star
    return kappa * float(np.sum(diff * diff)) / S_hat.shape[0]
