"""Full-batch gradient descent baseline for the quadratic student.

Minimizes R(W) = (1/4) sum_i (y_i - f_W(x_i))^2 + (l2/2) ||W||_F^2 with
f_W(x) = (1/m) sum_k ((w_k . x)/sqrt(d))^2, the student matching the teacher
architecture (same width, no noise term).  The gradient is

    dR/dW = -(1/(m d)) sum_i r_i W x_i x_i^T + l2 W,   r_i = y_i - f_W(x_i),

verified against central finite differences in the tests.  Averaged GD
reruns the descent from independent initializations on a fixed dataset and
averages the resulting S = W^T W / m matrices; the spread of the individual
S around that average (the dispersion) is the landscape diagnostic: it
drops to zero once all initializations reach the same function.
"""

import dataclasses
import functools

import numpy as np

from . import model
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


class NotReached(RuntimeError):
    """No grid point satisfied the trivialization thresholds."""


def default_learning_rate(d: int) -> float:
    return LR_LARGE if d >= LR_SIZE_CUTOFF else LR_SMALL


@dataclasses.dataclass
class GdConfig:
    learning_rate: float | None = None  # None: pick by instance size
    l2: float = 0.0
    max_steps: int = 200_000
    grad_tol: float = 1e-7
    n_inits: int = 1
    seed: int = 0
    backtracking: bool = False

    def __post_init__(self):
        if self.learning_rate is not None and not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be nonnegative, got {self.l2}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.n_inits < 1:
            raise ValueError("n_inits must be at least 1")


def _residual(W, X, y, m, d):
    P = X @ (W.T / np.sqrt(d))
    return y - np.einsum("ij,ij->i", P, P) / m, P


def risk(W, instance: TeacherInstance, l2: float = 0.0) -> float:
    """R(W) on the instance's dataset."""
    r, _ = _residual(W, instance.X, instance.y, instance.m, instance.d)
    return 0.25 * float(r @ r) + 0.5 * l2 * float(np.sum(W * W))


def risk_gradient(W, instance: TeacherInstance, l2: float = 0.0) -> np.ndarray:
    """dR/dW on the instance's dataset."""
    r, P = _residual(W, instance.X, instance.y, instance.m, instance.d)
    grad = (P * (r / (-instance.m * np.sqrt(instance.d)))[:, None]).T @ instance.X
    if l2:
        grad = grad + l2 * W
    return grad


def gd_run(instance: TeacherInstance, cfg: GdConfig | None = None):
    """Descend from one prior draw; returns (S_hat, loss_trace)."""
    cfg = cfg or GdConfig()
    m, d = instance.m, instance.d
    X, y = instance.X, instance.y
    lr0 = cfg.learning_rate if cfg.learning_rate is not None else default_learning_rate(d)
    # keyed stream so a shared seed never replays the teacher's weight draw
    rng = np.random.default_rng([cfg.seed, 0x4744])
    W = rng.standard_normal((m, d))

    def eval_at(Wc):
        r, P = _residual(Wc, X, y, m, d)
        loss = 0.25 * float(r @ r) + 0.5 * cfg.l2 * float(np.sum(Wc * Wc))
        return loss, r, P

    loss, r, P = eval_at(W)
    loss0 = loss
    trace = [loss]
    lr = lr0
    for _ in range(cfg.max_steps):
        grad = (P * (r / (-m * np.sqrt(d)))[:, None]).T @ X
        if cfg.l2:
            grad = grad + cfg.l2 * W
        gnorm = float(np.linalg.norm(grad))
        if gnorm < cfg.grad_tol:
            break
        if cfg.backtracking:
            for _ in range(MAX_BACKTRACKS):
                W_new = W - lr * grad
                loss_new, r_new, P_new = eval_at(W_new)
                if loss_new <= loss:
                    break
                lr *= 0.5
            else:
                break  # no descent direction at float precision
            lr = min(lr * 1.3, lr0)
        else:
            W_new = W - lr * grad
            loss_new, r_new, P_new = eval_at(W_new)
        W, loss, r, P = W_new, loss_new, r_new, P_new
        trace.append(loss)
        if not np.isfinite(loss) or loss > DIVERGENCE_FACTOR * max(loss0, 1e-300):
            raise Diverged(
                f"loss {loss:.3g} exceeded {DIVERGENCE_FACTOR:g} x initial {loss0:.3g}"
            )
    S_hat = W.T @ W / m
    return S_hat, np.asarray(trace)


def agd_run(instance: TeacherInstance, cfg: GdConfig, seeds=None):
    """Average the descent estimate over initializations of one dataset.

    Returns (S_bar, dispersion) with S_bar the mean of the per-init
    S = W^T W / m and dispersion the mean of tr[(S_bar - S)^2] over inits
    (averaging over datasets is the caller's job).
    """
    if cfg.n_inits < 2:
        raise ValueError(f"agd_run needs n_inits >= 2, got {cfg.n_inits}")
    if seeds is None:
        seeds = [s.generate_state(1)[0] for s in np.random.SeedSequence(cfg.seed).spawn(cfg.n_inits)]
    elif len(seeds) != cfg.n_inits:
        raise ValueError(f"got {len(seeds)} seeds for n_inits={cfg.n_inits}")
    mats = []
    for seed in seeds:
        run_cfg = dataclasses.replace(cfg, seed=int(seed), n_inits=1)
        S_hat, _ = gd_run(instance, run_cfg)
        mats.append(S_hat)
    S_bar = np.mean(mats, axis=0)
    dispersion = float(np.mean([np.sum((S_bar - S) ** 2) for S in mats]))
    return S_bar, dispersion


ABS_THRESHOLD = 1e-2
REL_THRESHOLD = 1e-3


@dataclasses.dataclass
class ScanResult:
    alphas: list
    dispersions: list
    alpha_t_abs: float | None  # first alpha with dispersion < 1e-2
    alpha_t_rel: float | None  # first alpha with dispersion < 1e-3 * max


def _scan_cell(d, kappa, delta, cfg, alpha, index):
    """(dispersion,) of averaged GD on the scan's dataset number `index`."""
    instance = model.generate(d=d, kappa=kappa, alpha=alpha, delta=delta,
                              seed=cfg.seed + 7919 * index + 1)
    return agd_run(instance, dataclasses.replace(cfg, seed=cfg.seed + 104729 * index))[1:]


def trivialization_scan(d, kappa, delta, alpha_grid, cfg: GdConfig, n_datasets: int = 1,
                        map_cells=None):
    """Locate the sample complexity where the landscape trivializes.

    Scans the increasing alpha grid, measuring the dataset-averaged
    dispersion at each point, and reports the first grid point under each
    of the two cutoffs (absolute 1e-2, and 1e-3 relative to the scan
    maximum).  Raises NotReached when neither variant has a qualifying
    point.  `map_cells(cell, keys)`, an order-preserving map of
    ``cell(**key)``, runs the (alpha, dataset) cells; default: in turn.
    """
    alphas = [float(a) for a in alpha_grid]
    if not alphas:
        raise ValueError("alpha_grid is empty")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alpha_grid must be strictly increasing")
    keys = [{"alpha": a, "index": j * n_datasets + rep}
            for j, a in enumerate(alphas) for rep in range(n_datasets)]
    cell = functools.partial(_scan_cell, d, kappa, delta, cfg)
    values = map_cells(cell, keys) if map_cells else [cell(**key) for key in keys]
    dispersions = [float(np.mean([v for v, in values[j * n_datasets:(j + 1) * n_datasets]]))
                   for j in range(len(alphas))]
    peak = max(dispersions)
    alpha_t_abs = next((a for a, v in zip(alphas, dispersions) if v < ABS_THRESHOLD), None)
    alpha_t_rel = next(
        (a for a, v in zip(alphas, dispersions) if v < REL_THRESHOLD * peak), None
    )
    if alpha_t_abs is None and alpha_t_rel is None:
        raise NotReached(
            f"no alpha in {alphas} under abs {ABS_THRESHOLD} or rel "
            f"{REL_THRESHOLD} x peak {peak:.3g}"
        )
    return ScanResult(alphas, dispersions, alpha_t_abs, alpha_t_rel)
