"""Full-batch gradient descent baseline for the quadratic student.

Minimizes R(W) = (1/4) sum_i (y_i - f_W(x_i))^2 + (l2/2) ||W||_F^2 with
f_W(x) = (1/m) sum_k ((w_k . x)/sqrt(d))^2, the student matching the teacher
architecture (same width, no noise term).  The gradient is

    dR/dW = -(1/(m d)) sum_i r_i W x_i x_i^T + l2 W,   r_i = y_i - f_W(x_i),

verified against central finite differences in the tests.

A step costs two GEMMs, the forward P = X W^T / sqrt(d) and the gradient
product.  `_gradient` scales P in place into Q = P r / (-m sqrt(d)), so P
is consumed and no n x m temporary is allocated, and forms the data term
as (X^T Q)^T rather than Q^T X.  The flops are the same; the time depends
on how OpenBLAS splits the two layouts over its threads.  In float32 on a
2-vCPU Xeon, X^T Q against Q^T X took 0.35 against 0.45 ms at d = 100
(n = 3000, m = 50) and 5.6 against 7.7 ms at d = 200 (n = 18000, m = 100)
with 2 BLAS threads, but 0.50 against 0.49 ms and 9.4 against 9.1 ms with
one.  So the layout pays only with a multithreaded BLAS: re-measure it if
the BLAS thread count changes.  Whole steps with one BLAS thread were no
slower in paired runs; the in-place Q and `_loss`'s skipped l2 term make
up for it.
In float32 the two layouts gave bit-identical products with 1 and 2
threads; in float64 with 2 threads OpenBLAS splits them differently at
n = 3000, which moves a float64 product by about one rounding.

A plain descent runs both products with X in float32, with float64 master
quantities as in mixed-precision training: `gd_run` casts X once per run,
`_loss` forms the forward P in X's dtype, and `_gradient` forms Q and its
product with X in X's dtype.  The residuals r = y - f, the loss, W and its
update, the gradient norm and the stop rules stay float64.  Two roundings
matter near the end of a run.  The forward leaves r
about eps32 |f_i| off per sample, a floor that does not shrink with r; and
the gradient product's rounding is relative to its data term
(X^T Q)^T = -(1/(m d)) sum_i r_i W x_i x_i^T, which at a ridge minimum equals
-l2 W and with noisy labels past n = m d is a cancelling sum of terms that
are not small.  Either holds the gradient norm above `grad_tol`: the tests'
d = 12 run to zero loss, which stops at step 5109, ran all 60000 steps with
the float32 forward and a switch bound for the gradient product alone, and
a d = 30, l2 = 0.2, delta = 0.1 run that stops at step 62254 ran all 200000
with the float32 gradient product and no switch.

So a plain descent has one float64 tail for both products: `gd_run`
switches once the gradient norm is below `grad_tol` plus a bound on the
rounding of both products, recomputes the loss, r and P in float64, and
the stop fires within a few steps of the all-float64 run's.  A
backtracking descent runs in float64 from its first step: it compares
losses, and a float32-forward loss's rounding outlasts the gain of a step
on ridge and noisy runs, where d = 18 and 20 runs that stop within 2527
steps in float64 halved their step size away and ran all 40000.

Averaged GD reruns the descent from independent initializations on a fixed
dataset and averages the resulting S = W^T W / m matrices; the spread of the
individual S around that average (the dispersion) is the landscape
diagnostic: it drops to zero once all initializations reach the same
function.  The `gd-scan` command of `cli` scans it over alpha.
"""

import dataclasses

import numpy as np

from .model import TeacherInstance

DIVERGENCE_FACTOR = 1e6

# Learning rates used for the reference runs at d=200 and d=100; other sizes
# are served by the backtracking option.
LR_LARGE = 0.2
LR_SMALL = 0.07
LR_SIZE_CUTOFF = 150

MAX_BACKTRACKS = 60


class Diverged(RuntimeError):
    """Training loss exceeded a million times its starting value."""


def default_learning_rate(d: int) -> float:
    return LR_LARGE if d >= LR_SIZE_CUTOFF else LR_SMALL


@dataclasses.dataclass
class GdConfig:
    """One descent: its step size, weight decay, stop rules and init seed."""

    learning_rate: float | None = None  # None: pick by instance size
    l2: float = 0.0
    max_steps: int = 200_000
    grad_tol: float = 1e-7
    seed: int = 0
    backtracking: bool = False

    def __post_init__(self):
        if self.learning_rate is not None and not 0 < self.learning_rate < np.inf:
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0 <= self.l2 < np.inf:
            raise ValueError(f"l2 must be nonnegative and finite, got {self.l2}")
        if not 0 <= self.grad_tol < np.inf:
            raise ValueError(f"grad_tol must be nonnegative and finite, got {self.grad_tol}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


def _loss(W, X, y, l2):
    """R(W) on the dataset (X, y), with the residuals r and P = X W^T / sqrt(d)
    that `_gradient` reuses.

    P and its row sums f are formed in X's dtype: float32 from `gd_run`
    until its float64 tail (module docstring), float64 for a float64 X.
    r = y - f and the loss are float64 either way."""
    m, d = W.shape
    P = X @ (W.T / np.sqrt(d)).astype(X.dtype, copy=False)
    r = y - np.einsum("ij,ij->i", P, P) / m
    loss = 0.25 * float(r @ r)
    if l2 > 0:
        loss += 0.5 * l2 * float(np.sum(W * W))
    return loss, r, P


def _gradient(W, X, r, P, l2):
    """dR/dW from `_loss`'s residuals r and products P at W, as float64.

    The scaled products Q = P r / (-m sqrt(d)) and the data term
    (X^T Q)^T are formed in X's dtype, the one `_loss` formed P in: float32
    from `gd_run` until its float64 tail (module docstring), float64 for a
    float64 X.  P is consumed: when it is already in X's dtype it is scaled
    in place into Q, so a caller must not read P afterwards."""
    m, d = W.shape
    scale = (r / (-m * np.sqrt(d))).astype(X.dtype, copy=False)
    Q = P.astype(X.dtype, copy=False)
    Q *= scale[:, None]
    # C order, like W: the gradient norm then sums in W's element order
    grad = (X.T @ Q).T.astype(np.float64, order="C", copy=False)
    if l2:
        grad = grad + l2 * W
    return grad


def gd_run(instance: TeacherInstance, cfg: GdConfig | None = None):
    """Descend from one prior draw; returns (S_hat, loss_trace)."""
    cfg = cfg or GdConfig()
    m, d = instance.m, instance.d
    X, y = instance.X, instance.y
    X_prod = X if cfg.backtracking else X.astype(np.float32)
    # bound on the float32 rounding of the gradient: 4 eps32 ||X||_F / sqrt(m d)
    # times sqrt(sum_i (r_i^2 + f_i^2) f_i), f = y - r.  The r^2 term is for
    # the gradient product (||Q||_F^2 = sum_i r_i^2 f_i / (m d)), the f^2
    # term for the forward, whose r is about eps32 f_i off.  The rounding
    # measured up to 0.53 eps32 ||X||_F / sqrt(m d) sqrt(...) at d = 6 to 150
    # on ridge, noisy and noiseless runs, and ||r - r_64|| up to 1.7 eps32 ||f||
    round_scale = 4 * np.finfo(np.float32).eps * np.linalg.norm(X) / np.sqrt(m * d)
    lr0 = cfg.learning_rate if cfg.learning_rate is not None else default_learning_rate(d)
    # keyed stream so a shared seed never replays the teacher's weight draw
    rng = np.random.default_rng([cfg.seed, 0x4744])
    W = rng.standard_normal((m, d))

    loss, r, P = _loss(W, X_prod, y, cfg.l2)
    loss0 = loss
    trace = [loss]
    lr = lr0
    for _ in range(cfg.max_steps):
        grad = _gradient(W, X_prod, r, P, cfg.l2)
        gnorm = float(np.linalg.norm(grad))
        if X_prod is not X:
            f = np.abs(y - r)
            if gnorm < cfg.grad_tol + round_scale * np.sqrt((r * r + f * f) @ f):
                # float64 from here on, from this step's loss
                X_prod = X
                loss, r, P = _loss(W, X, y, cfg.l2)
                trace[-1] = loss
                grad = _gradient(W, X, r, P, cfg.l2)
                gnorm = float(np.linalg.norm(grad))
        if gnorm < cfg.grad_tol:
            break
        if cfg.backtracking:
            for _ in range(MAX_BACKTRACKS):
                W_new = W - lr * grad
                loss_new, r_new, P_new = _loss(W_new, X_prod, y, cfg.l2)
                if loss_new <= loss:
                    break
                lr *= 0.5
            else:
                break  # no descent direction at float precision
            lr = min(lr * 1.3, lr0)
        else:
            W_new = W - lr * grad
            loss_new, r_new, P_new = _loss(W_new, X_prod, y, cfg.l2)
        W, loss, r, P = W_new, loss_new, r_new, P_new
        trace.append(loss)
        if not np.isfinite(loss) or loss > DIVERGENCE_FACTOR * max(loss0, 1e-300):
            raise Diverged(
                f"loss {loss:.3g} exceeded {DIVERGENCE_FACTOR:g} x initial {loss0:.3g}"
            )
    S_hat = W.T @ W / m
    return S_hat, np.asarray(trace)


def agd_run(instance: TeacherInstance, cfg: GdConfig, n_inits: int):
    """Average the descent estimate over ``n_inits`` initializations of one
    dataset: the descents of ``cfg`` from seeds spawned by
    ``SeedSequence(cfg.seed)``.

    Returns (S_bar, dispersion) with S_bar the mean of the per-init
    S = W^T W / m and dispersion the mean of tr[(S_bar - S)^2] over inits
    (averaging over datasets is the caller's job).
    """
    if n_inits < 2:
        raise ValueError(f"agd_run needs n_inits >= 2, got {n_inits}")
    mats = []
    for seq in np.random.SeedSequence(cfg.seed).spawn(n_inits):
        S_hat, _ = gd_run(instance, dataclasses.replace(cfg, seed=int(seq.generate_state(1)[0])))
        mats.append(S_hat)
    S_bar = np.mean(mats, axis=0)
    dispersion = float(np.mean([np.sum((S_bar - S) ** 2) for S in mats]))
    return S_bar, dispersion
