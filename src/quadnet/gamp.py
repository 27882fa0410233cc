"""Message-passing reconstruction of the teacher matrix from reduced labels.

The iteration alternates a scalar Gaussian channel step on the n observations
with a rotationally-invariant matrix denoising step on the d x d estimate.
Observation i sees the estimate through Z_i = (x_i x_i^T - I)/sqrt(d); for a
traceless rotation-invariant D the variance of Tr[Z_i D] is s_i 2 Tr[D^2]/d
with s_i = |x_i|^4 / (d (d + 2)), so observation i carries the variance share
s_i (mean one, relative spread 2 sqrt(2/d)).  With V_i = c_hat^t s_i:

    omega_i = Tr[Z_i S_hat^t] - V_i gbar_i
    g_i     = (y_i - omega_i) / (tilde_delta + V_i)
    A       = (2 / d^2) sum_i s_i / (tilde_delta + V_i)
    (gbar, Abar, Sbar) <- (1 - beta) (gbar, Abar, Sbar) + beta (g, A, S_hat^t)
    R       = Sbar + (1 / (d Abar)) sum_i gbar_i Z_i
    S_hat^{t+1} = denoise(R, 1 / (2 Abar)),  c_hat^{t+1} = 2 mmse(1 / (2 Abar))

The memory term V_i gbar_i keeps the residuals decorrelated from the running
estimate; dropping it breaks the agreement with the scalar state evolution
(see ``state_evolution_iterate``), which is what the iteration is tracked
against in the tests.  With s_i = 1 and beta = 1 the channel precision is
A = 2 alpha / (tilde_delta + c_hat), the derivative form -sum_i dg_i/domega_i,
and the iteration replays the state evolution step for step.  The squared
residual form (2/d^2) sum_i g_i^2 has the same mean by the Nishimori identity
but feeds back on itself: once the iterate lags its predicted error, the
residuals stay large while c_hat shrinks, A runs away, the update step
vanishes and the iterate freezes.  The shares s_i matter at desk scale:
without them the undamped iteration leaves the state evolution within six
steps at d=200.

Damping adapts as in Vila, Schniter, Rangan, Krzakala & Zdeborova, "Adaptive
damping and mean removal for GAMP" (ICASSP 2015); the damped quantities are
those of the damped GAMP of Rangan et al., "On the convergence of AMP with
arbitrary matrices" (IEEE T-IT 2019).  A step is judged by its fixed-point
residual ||S_hat^{t+1} - Sbar||, the distance between the denoiser output and
the damped estimate it was computed from, which is zero exactly at a fixed
point.  (Vila et al. judge steps by the Bethe free energy, which has no
closed form for the rotationally-invariant prior.)  If a step's residual
exceeds the previous step's, the step is undone and redone from the same
channel outputs with beta shrunk by ``STEP_SHRINK`` (not below ``STEP_MIN``);
otherwise beta grows by ``STEP_GROW`` up to 1 - ``GampOptions.damping``.
The first step from the initialization is never damped, so a run that needs
no damping is the plain iteration.

The stop rule needs no teacher.  The residual check compares the mean square
m2 of the residuals y - omega with the claimed error: it passes when
(m2 - tilde_delta) / c_hat <= ``RESIDUAL_RATIO_MAX``, up to three sampling
standard errors of m2.  A frozen iterate fails it: its residuals stay put
while c_hat collapses, and the ratio grows without bound.  The run stops when

* the denoising noise level 1 / (2 Abar) falls below ``T_FLOOR`` (the
  noiseless exact-recovery regime: the denoiser is the identity, and
  iterating on only amplifies rounding), or
* the fixed-point residual is below ``FIXED_POINT_TOL`` times the claimed
  error of the new estimate, ||S_hat^{t+1} - Sbar|| <= FIXED_POINT_TOL
  sqrt(d c_hat^{t+1} / 2), and the residual check passes (a fixed point of
  the damped map is one of the undamped map).

``converged`` is True exactly when the stop rule fired with the residual
check passing; the stop reason is recorded in the state.

Initialization options:

* ``"mean"`` (default): S_hat^0 is the prior mean, c_hat^0 = 2 * prior
  variance.  This is exactly self-consistent (c_hat^0 equals twice the
  expected squared error of S_hat^0) and makes the iteration line up with
  ``state_evolution_iterate`` started at q_init = q_min from the first step.
* ``"sample"``: S_hat^0 is an independent draw (``matdenoise.sample_prior``)
  with c_hat^0 = 4 * prior variance, again twice the expected initial error
  (the error of an independent sample is twice the prior variance).  Same
  fixed point, different transient.

At finite d the reduced labels carry a common offset sqrt(d) (Tr S*/d - 1) of
order 1/sqrt(d) that the Gaussian channel cannot represent, and which
otherwise puts a floor under the noiseless residuals.  The residuals are
therefore recentered by their mean at every iteration.  Disable with
``GampOptions(center=False)``.
"""

import dataclasses

import numpy as np

from . import matdenoise
from .matdenoise import DenoiseSpec
from .model import ReducedDataset, matrix_mse
from .state_evolution import ProblemParams

# Below this denoising noise level the shrinkage correction is smaller than
# floating-point noise on the eigenvalues; the denoiser degenerates to the
# identity and the mmse to the noise level itself.
T_FLOOR = 1e-6

# Above this noise level (in units of the prior variance) the channel carries
# essentially no information and the posterior mean is the prior mean; the
# asymptotic shrinkage formula is skipped because at such levels the observed
# spectrum is dominated by finite-sample outliers far off the model support.
T_CEIL_FACTOR = 100.0

# Division guard for g_out in the noiseless channel (tilde_delta = 0).
V_FLOOR = 1e-10

# Divergence guard: the residual mean square m2 stays above this factor times
# its value expected at the initialization for this many iterations in a row.
DIVERGENCE_FACTOR = 10.0
DIVERGENCE_PATIENCE = 20

# Adaptive damping: growth and shrink factors of the step beta, and its
# lower bound.
STEP_GROW = 1.1
STEP_SHRINK = 0.5
STEP_MIN = 0.05

# Residual check: largest accepted ratio (m2 - tilde_delta) / c_hat.  At the
# noise floor of noiseless d=100 runs it measures 1.1-2.4.  The iterate that
# the squared-residual precision froze (d=200, alpha=0.45) measured 4.3 when
# it froze and about 1e4 three iterations later.
RESIDUAL_RATIO_MAX = 3.0

# Fixed-point stop, in units of the claimed error (see the module
# docstring), and the scalar tracker's stop on the step of its overlap and
# its step budget.
FIXED_POINT_TOL = 1e-2
SE_ITERATE_TOL = 1e-10
SE_ITERATE_MAX = 5000


class Diverged(RuntimeError):
    """The residual mean square grew an order of magnitude beyond its starting value."""


@dataclasses.dataclass
class GampOptions:
    """Run options.

    ``damping`` is the least damping the adaptive rule keeps: the step beta
    never exceeds 1 - damping.  The stop tolerance is the module constant
    ``FIXED_POINT_TOL`` (see the module docstring).
    """

    max_iter: int = 1000
    damping: float = 0.0
    init: str = "mean"
    center: bool = True
    seed: int = 0
    s_star: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 <= self.damping <= 0.5:
            raise ValueError(f"damping must be in [0, 0.5], got {self.damping}")
        if self.init not in ("mean", "sample"):
            raise ValueError(f"init must be 'mean' or 'sample', got {self.init!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclasses.dataclass
class GampState:
    """Live state of the iteration plus its error trace.

    ``mse_trace`` holds, per iteration, matrix_mse against ``s_star`` when
    the teacher matrix was provided, otherwise the mean squared channel
    residual (the only error proxy observable without the teacher).  ``R``
    is the last step's denoiser input.  ``stop_reason`` is "fixed_point",
    "noise_floor" or "max_iter"; ``residual_ratio`` is (m2 - tilde_delta) /
    c_hat at the last channel step; ``n_backtracks`` counts steps undone by
    the damping rule.
    """

    S_hat: np.ndarray
    c_hat: float
    omega: np.ndarray
    R: np.ndarray
    iter: int
    mse_trace: list
    converged: bool = False
    n_v_floor: int = 0
    stop_reason: str = "max_iter"
    residual_ratio: float = float("nan")
    n_backtracks: int = 0


def _denoise_step(prior, t_lvl, R):
    """One prior step: returns (S_new, c_new) at noise level t_lvl."""
    if t_lvl < T_FLOOR:
        return 0.5 * (R + R.T), 2.0 * t_lvl
    if t_lvl > T_CEIL_FACTOR * prior.variance:
        return prior.mean * np.eye(R.shape[0]), 2.0 * prior.variance
    spec = DenoiseSpec.create(prior, t_lvl)
    return matdenoise.denoise_matrix(spec, R), 2.0 * matdenoise.mmse(spec)


def _variance_share(dataset: ReducedDataset) -> np.ndarray:
    """Variance share s_i = |x_i|^4 / (d (d + 2)) of each observation (mean one)."""
    sq = np.einsum("ij,ij->i", dataset.X, dataset.X)
    return sq * sq / (dataset.d * (dataset.d + 2))


def run(dataset: ReducedDataset, params: ProblemParams, opts: GampOptions | None = None):
    """Iterate the message passing on a reduced dataset until the stop rule.

    Returns ``(S_hat, state)``, where ``S_hat`` is ``state.S_hat``, the
    final iterate: the algorithm's own output, never picked with the
    teacher.  ``state.converged`` says whether the teacher-free stop rule
    fired with the residual check passing (see the module docstring).
    ``s_star`` only fills ``mse_trace`` with the teacher error in place of
    the residual mean square m2.  Raises ``Diverged`` when m2 exceeds
    ``DIVERGENCE_FACTOR`` times its expected value at the initialization,
    tilde_delta + c_hat^0, for ``DIVERGENCE_PATIENCE`` consecutive
    iterations.
    """
    opts = opts or GampOptions()
    prior = params.prior
    td = dataset.tilde_delta
    d, n = dataset.d, dataset.n
    y = dataset.y_tilde
    share = _variance_share(dataset)
    # three sampling standard errors of a mean of n squared Gaussians
    m2_slack = 3.0 * np.sqrt(2.0 / n)

    if opts.init == "mean":
        S = prior.mean * np.eye(d)
        c = 2.0 * prior.variance
    else:
        # keyed stream so a shared seed never replays the teacher's weight draw
        S = matdenoise.sample_prior(prior, d, np.random.default_rng([opts.seed, 0x4741]))
        c = 4.0 * prior.variance

    state = GampState(S_hat=S, c_hat=c, omega=np.zeros(n), R=S, iter=0, mse_trace=[])

    beta_max = 1.0 - opts.damping
    beta = beta_max
    g_bar = A_bar = S_bar = None  # damped averages, set by the first step
    last = None  # state the last step was taken from, and its channel outputs
    fp_res = fp_prev = np.inf  # fixed-point residuals of the last two steps
    m2_start = td + c  # m2 expected at the initialization
    n_over = 0
    for it in range(1, opts.max_iter + 1):
        undo = last is not None and beta > STEP_MIN and fp_res > fp_prev
        if undo:
            beta = max(STEP_SHRINK * beta, STEP_MIN)
            S, c, g_bar, A_bar, S_bar, g, A, m2 = last
            state.n_backtracks += 1
        else:
            if last is not None:
                beta = min(STEP_GROW * beta, beta_max)
            fp_prev = fp_res
            V = c
            if td + V < V_FLOOR:
                V = V_FLOOR - td
                state.n_v_floor += 1
            var = td + V * share
            omega = dataset.trace_products(S)
            if g_bar is not None:
                omega = omega - V * share * g_bar
            residual = y - omega
            if opts.center:
                residual = residual - np.mean(residual)
            g = residual / var
            A = 2.0 * float(np.sum(share / var)) / d**2
            m2 = float(residual @ residual) / n
            last = (S, c, g_bar, A_bar, S_bar, g, A, m2)
            state.omega = omega
            state.residual_ratio = (m2 - td) / c
            consistent = m2 - td <= RESIDUAL_RATIO_MAX * c + m2_slack * (td + c)
        if g_bar is None:
            g_bar, A_bar, S_bar = g, A, S
        else:
            g_bar = (1.0 - beta) * g_bar + beta * g
            A_bar = (1.0 - beta) * A_bar + beta * A
            S_bar = (1.0 - beta) * S_bar + beta * S
        R = S_bar + dataset.weighted_sum(g_bar) / (d * A_bar)
        t_lvl = 1.0 / (2.0 * A_bar)
        S_new, c_new = _denoise_step(prior, t_lvl, R)
        fp_res = float(np.linalg.norm(S_new - S_bar))

        state.mse_trace.append(
            m2 if opts.s_star is None else matrix_mse(S_new, opts.s_star, params.kappa)
        )
        state.S_hat, state.c_hat, state.R = S_new, c_new, R
        state.iter = it
        S, c = S_new, c_new

        if m2_start > 0 and m2 > DIVERGENCE_FACTOR * m2_start:
            n_over += 1
            if n_over >= DIVERGENCE_PATIENCE:
                raise Diverged(
                    f"residual mean square {m2:.3g} stayed above {DIVERGENCE_FACTOR:g}x"
                    f" its starting value {m2_start:.3g} for {n_over} iterations"
                )
        else:
            n_over = 0
        if undo:
            continue
        if t_lvl < T_FLOOR:
            state.stop_reason, state.converged = "noise_floor", consistent
            break
        if fp_res <= FIXED_POINT_TOL * np.sqrt(0.5 * d * c_new) and consistent:
            state.stop_reason, state.converged = "fixed_point", True
            break

    return state.S_hat, state


def state_evolution_iterate(params: ProblemParams, q_init: float | None = None):
    """Scalar tracker of the iteration: alternates the channel and prior maps.

    q_hat^t = 4 alpha / (tilde_delta + 2 (Q0 - q^t)), then
    q^{t+1} = Q0 - mmse(1 / q_hat^t).  Returns the trace as a list of
    (q, q_hat) pairs, starting with the first updated pair.  The overlap
    q = Q0 - mmse matches the matrix iteration started from the prior mean:
    kappa * (Q0 - q^t) is the predicted error after t denoising steps.
    The trace ends once q moves by less than ``SE_ITERATE_TOL``, or after
    ``SE_ITERATE_MAX`` steps.
    """
    prior = params.prior
    q0 = params.q0
    q_min = params.q_min
    if q_init is None:
        q_init = q_min
    if not q_min - 1e-9 <= q_init <= q0 + 1e-9:
        raise ValueError(f"q_init must lie in [{q_min}, {q0}], got {q_init}")
    td = params.tilde_delta
    q = min(max(q_init, q_min), q0)
    trace = []
    for _ in range(SE_ITERATE_MAX):
        gap = q0 - q
        q_hat = 4.0 * params.alpha / (td + 2.0 * gap)
        t_lvl = 1.0 / q_hat
        if t_lvl < T_FLOOR:
            # noiseless perfect-recovery endpoint: the map keeps contracting,
            # the limit is exact recovery
            trace.append((q0, q_hat))
            break
        if t_lvl > T_CEIL_FACTOR * prior.variance:
            mmse_val = prior.variance
        else:
            mmse_val = matdenoise.mmse(DenoiseSpec.create(prior, t_lvl))
        q_new = q0 - mmse_val
        trace.append((q_new, q_hat))
        if abs(q_new - q) < SE_ITERATE_TOL:
            q = q_new
            break
        q = q_new
    return trace
