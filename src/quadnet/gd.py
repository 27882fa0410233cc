"""Full-batch gradient descent baseline for the quadratic student.

Minimizes R(W) = (1/4) sum_i (y_i - f_W(x_i))^2 + (l2/2) ||W||_F^2 with
f_W(x) = (1/m) sum_k ((w_k . x)/sqrt(d))^2, the student matching the teacher
architecture (same width, no noise term).  The gradient is

    dR/dW = -(1/(m d)) sum_i r_i W x_i x_i^T + l2 W,   r_i = y_i - f_W(x_i),

verified against central finite differences in the tests.

Only the gradient's product with X runs in float32, with float64 master
quantities as in mixed-precision training: `gd_run` casts X once per run,
and `_gradient` forms P r and its product with X in X's dtype.  The forward
P = X W^T / sqrt(d), the residuals r, the loss, W and its update, the
gradient norm, backtracking and the stop rules stay float64.  The rounding
is relative to the data term Q^T X = -(1/(m d)) sum_i r_i W x_i x_i^T, not
to the gradient.  On runs to zero loss the two vanish together, but at a
ridge minimum the data term equals -l2 W, and with noisy labels past
n = m d the terms r_i W x_i x_i^T cancel without being small.  There the
rounding alone holds the gradient norm above `grad_tol` for longer or for
good: a d = 30, l2 = 0.2, delta = 0.1 run that stops at step 62254 in
float64 ran all 200000 steps, and a noisy d = 30 run at alpha = 0.8
stopped at 28306 instead of 21962.  So once the float32 gradient norm
comes within a bound on that rounding of `grad_tol`, `gd_run` takes the
rest of the run's gradients in float64, and the stop fires within a few
steps of the all-float64 run's.  A float32 forward as well would floor r
near 1e-7 relative, so the gradient norm would stay above `grad_tol` on
runs that reach zero loss (the test's d = 12 run stops at step 5109, and
with that forward it runs all 60000), and the backtracking convex run
would end at loss 5.6e-6 instead of 2.45e-6.

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
        if self.learning_rate is not None and not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not self.l2 >= 0:
            raise ValueError(f"l2 must be nonnegative, got {self.l2}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


def _loss(W, X, y, l2):
    """R(W) on the dataset (X, y), with the residuals r and P = X W^T / sqrt(d)
    that `_gradient` reuses."""
    m, d = W.shape
    P = X @ (W.T / np.sqrt(d))
    r = y - np.einsum("ij,ij->i", P, P) / m
    return 0.25 * float(r @ r) + 0.5 * l2 * float(np.sum(W * W)), r, P


def _gradient(W, X, r, P, l2):
    """dR/dW from `_loss`'s residuals r and products P at W, as float64.

    The scaled products Q = P r / (-m sqrt(d)) and Q^T X are formed in X's
    dtype: float32 from `gd_run` until the stop rule needs float64 (module
    docstring), and exact float64 for a float64 X.  r and P stay the
    float64 forward's, so the rounding stays in the gradient and leaves the
    residuals and the loss as in float64."""
    m, d = W.shape
    scale = (r / (-m * np.sqrt(d))).astype(X.dtype, copy=False)
    Q = P.astype(X.dtype, copy=False) * scale[:, None]
    grad = (Q.T @ X).astype(np.float64, copy=False)
    if l2:
        grad = grad + l2 * W
    return grad


def gd_run(instance: TeacherInstance, cfg: GdConfig | None = None):
    """Descend from one prior draw; returns (S_hat, loss_trace)."""
    cfg = cfg or GdConfig()
    m, d = instance.m, instance.d
    X, y = instance.X, instance.y
    X_grad = X.astype(np.float32)
    # bound on the float32 rounding of the data term Q^T X: 4 eps32 ||Q||_F
    # ||X||_F, with ||Q||_F^2 = sum_i r_i^2 f_i / (m d) and f = y - r (the
    # rounding measured up to 0.63 eps32 ||Q||_F ||X||_F at d = 6 to 150)
    round_scale = 4 * np.finfo(np.float32).eps * np.linalg.norm(X) / np.sqrt(m * d)
    lr0 = cfg.learning_rate if cfg.learning_rate is not None else default_learning_rate(d)
    # keyed stream so a shared seed never replays the teacher's weight draw
    rng = np.random.default_rng([cfg.seed, 0x4744])
    W = rng.standard_normal((m, d))

    loss, r, P = _loss(W, X, y, cfg.l2)
    loss0 = loss
    trace = [loss]
    lr = lr0
    for _ in range(cfg.max_steps):
        grad = _gradient(W, X_grad, r, P, cfg.l2)
        gnorm = float(np.linalg.norm(grad))
        if X_grad is not X and gnorm < cfg.grad_tol + round_scale * np.sqrt(r * r @ np.abs(y - r)):
            # the rounding could hide a grad_tol stop: float64 from here on
            X_grad = X
            grad = _gradient(W, X, r, P, cfg.l2)
            gnorm = float(np.linalg.norm(grad))
        if gnorm < cfg.grad_tol:
            break
        if cfg.backtracking:
            for _ in range(MAX_BACKTRACKS):
                W_new = W - lr * grad
                loss_new, r_new, P_new = _loss(W_new, X, y, cfg.l2)
                if loss_new <= loss:
                    break
                lr *= 0.5
            else:
                break  # no descent direction at float precision
            lr = min(lr * 1.3, lr0)
        else:
            W_new = W - lr * grad
            loss_new, r_new, P_new = _loss(W_new, X, y, cfg.l2)
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
