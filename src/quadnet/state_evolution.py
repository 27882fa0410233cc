"""Asymptotic Bayes-optimal overlap and MMSE via the state-evolution fixed point.

The learning problem is parameterized by the sample ratio alpha, the width
ratio kappa, and the label noise delta.  Its asymptotic MMSE is kappa times
the matrix-denoising error at an effective noise level t = 1/q_hat, where the
conjugate overlap q_hat solves the scalar fixed-point equation

    (1 - 2 alpha) + tilde_delta q_hat / 2 = (4 pi^2 / 3 q_hat) int mu_{1/q_hat}^3,

mu_t being the free convolution of the prior spectrum with a semicircle of
variance t.  Above the noiseless perfect-recovery threshold the equation has
no root and the MMSE is exactly zero (q_hat = infinity).

The free-entropy functional F(q) whose maximizer is the overlap q* is also
provided, off the solver's default path; its inner conjugate solve, the
fixed-point solver, and the iterative route in `gamp.state_evolution_iterate`
are independent implementations whose agreement is asserted in the tests.
Both root solves use Brent's method, implemented in this module (`_brentq`).
"""

import dataclasses
import functools
import math

import numpy as np

from . import freeprob
from .freeprob import PriorSpectrum

# q_hat beyond this is numerically indistinguishable from the perfect-recovery
# fixed point at infinity (MMSE ~ 2 alpha kappa / q_hat < 1e-8)
QHAT_MAX = 1e9
# |residual| above this at the bracketed root means Brent closed in on a
# jump of the fixed-point map, not a root (true roots reach ~1e-14)
RESIDUAL_MAX = 1e-9


class NoConvergence(RuntimeError):
    """Fixed-point root finder exhausted its iteration budget or found no root."""


class OutOfRange(RuntimeError):
    """Solved overlap fell outside [q_min, Q0] beyond tolerance."""


@dataclasses.dataclass(frozen=True)
class ProblemParams:
    """Problem sizes (alpha, kappa, delta) with the derived constants.

    alpha = n / d^2 samples per squared dimension, kappa = m / d hidden units
    per dimension, delta = per-unit label noise variance.  The reduced matrix
    problem has Gaussian channel variance tilde_delta and prior second moment
    q0; q_min is the squared prior mean, the overlap reached with no data.
    """

    alpha: float
    kappa: float
    delta: float = 0.0
    prior: PriorSpectrum = None

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.delta < 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        if self.prior is None:
            object.__setattr__(
                self, "prior", PriorSpectrum.marchenko_pastur(self.kappa)
            )
        elif self.prior.kappa != self.kappa:
            raise ValueError(
                f"prior kappa {self.prior.kappa} != problem kappa {self.kappa}"
            )

    @property
    def tilde_delta(self) -> float:
        """Effective Gaussian-channel variance 2 delta (2 + delta) / kappa."""
        return 2.0 * self.delta * (2.0 + self.delta) / self.kappa

    @property
    def q0(self) -> float:
        """Prior second moment (1 + 1/kappa for the Marchenko-Pastur prior)."""
        return self.prior.second_moment

    @property
    def q_min(self) -> float:
        """Squared prior mean: the overlap of the data-free estimator."""
        return self.prior.mean**2

    @property
    def mmse_max(self) -> float:
        """kappa (Q0 - q_min): the MMSE with no data (1 for the MP prior)."""
        return self.kappa * (self.q0 - self.q_min)


@dataclasses.dataclass
class SEFixedPoint:
    """Solution of the state-evolution fixed-point equation at one cell.

    Attributes
    ----------
    q, q_hat : float
        Overlap and conjugate overlap; q_hat = inf past perfect recovery.
    mmse : float
        kappa (Q0 - q), clipped into [0, `ProblemParams.mmse_max`].
    free_entropy : float
        F(q), NaN when the solve skipped it, inf past perfect recovery.
    iterations : int
        Points of the fixed-point map probed by the doubling-step bracket
        search (`QHAT_MAX` itself included) plus the `_brentq` iterations.
        Not the number of density builds: each point is built once, and
        Brent's two endpoint evaluations are the search's last two probes.
    residual : float
        |lhs - rhs| of the fixed-point equation at the returned root
        (0 past perfect recovery).
    status : str
        "converged" for a bracketed root, "supercritical" when the map has
        no root below `QHAT_MAX` (noiseless perfect recovery, mmse 0).
    clipped : float
        How far the raw MMSE 2 alpha kappa / q_hat - kappa tilde_delta / 2
        was moved to land in [0, mmse_max].
    """

    q: float
    q_hat: float
    mmse: float
    free_entropy: float
    iterations: int
    residual: float
    status: str = "converged"
    clipped: float = 0.0


def _cube(prior, t):
    return freeprob.density(prior, t).cube_integral()


def _fixed_point_lhs_minus_rhs(params, q_hat):
    """Residual of the scalar fixed-point equation at q_hat."""
    t = 1.0 / q_hat
    return (
        (1.0 - 2.0 * params.alpha)
        + 0.5 * params.tilde_delta * q_hat
        - (4.0 * np.pi**2 / 3.0) / q_hat * _cube(params.prior, t)
    )


def _f_rie(prior, t):
    """Denoising error t - (4 pi^2 / 3) t^2 int mu_t^3 (resolvent route).

    Shares the density build with `matdenoise.mmse`, which the iterative
    state evolution uses, but not its formula: `mmse` also checks the
    Hilbert-transform form.  The two routes are cross-checked in the tests.
    """
    return t - (4.0 * np.pi**2 / 3.0) * t**2 * _cube(prior, t)


def _gallop(f, x, x_max=math.inf):
    """Bracket the root of f, negative below it and positive above.

    Exponential search (Bentley and Yao 1976): from x, probe in the direction
    the sign of f points with steps 1, 2, 4, ..., upward probes clamped at
    x_max.  Returns the last two probes (lo, hi), f(lo) <= 0 <= f(hi), or None
    when f(x_max) < 0.  Ten doublings pass the float range of e^x.
    """
    f_x, prev, step = f(x), x, 1.0
    down = f_x > 0.0
    while (f_x > 0.0) if down else (f_x < 0.0):
        if x == x_max:
            return None
        if step > 512.0:
            raise NoConvergence(f"no sign change in 10 doubling steps, last probe {x}")
        prev, x = x, (x - step if down else min(x + step, x_max))
        f_x = f(x)
        step *= 2.0
    return (x, prev) if down else (prev, x)


def _brentq(f, xa, xb, xtol, rtol, maxiter):
    """Root of f between xa and xb by Brent's method: (root, iterations, converged).

    A step-for-step port of the usual C brentq (Brent 1973, ch. 4), so roots
    and iteration counts are that routine's; the tests check both.  Stops
    unconverged at the first NaN of f, returning the point that gave it.
    """
    xpre, xcur = xa, xb
    fpre, fcur = float(f(xpre)), float(f(xcur))
    for x, fx in ((xpre, fpre), (xcur, fcur)):
        if math.isnan(fx) or fx == 0.0:
            return x, 0, fx == 0.0
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError(f"f({xa!r}) = {fpre!r} and f({xb!r}) = {fcur!r} have one sign")
    xblk = fblk = spre = scur = 0.0
    for i in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, i, True
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            short = 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)  # else bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(f(xcur))
        if math.isnan(fcur):
            return xcur, i, False
    return xcur, maxiter, False


def _log_root(g, bracket, name):
    """Root u of g(u = log x) in `bracket` and its Brent iterations; NoConvergence names x."""
    root, iterations, converged = _brentq(g, *bracket, xtol=1e-13, rtol=8.9e-16, maxiter=200)
    if not converged:
        raise NoConvergence(
            f"Brent's method stopped after {iterations} iterations at"
            f" {name}={math.exp(root)!r}, where the map is {g(root)!r}"
        )
    return root, iterations


def solve_qhat(params: ProblemParams, with_free_entropy: bool = False) -> SEFixedPoint:
    """Solve the fixed-point equation for q_hat and assemble the MMSE.

    The root is bracketed in log q_hat by doubling steps from the
    initialization q_hat = 2 alpha / Q0 up to QHAT_MAX, which is probed itself
    (`_gallop`), and solved by the in-package Brent method (`_brentq`); a NaN
    of the map or a Brent solve out of iterations raises NoConvergence naming
    q_hat.  Each point of the map, one density build, is evaluated once per
    call: the bracket ends handed to Brent and the root checked for its
    residual are not rebuilt.  In the noiseless supercritical regime (no root
    below QHAT_MAX) the perfect-recovery fixed point is returned: q_hat = inf,
    MMSE = 0, q = Q0.  F(q) is NaN unless `with_free_entropy`; it takes q_hat
    as the inner conjugate of q, which it is at the fixed point, for one build
    more (a solve if the MMSE clipped).
    """
    if not params.alpha > 0:
        raise ValueError("solve_qhat requires alpha > 0")
    # Brent evaluates the bracket ends again and the residual check the
    # root Brent returns; the cache, local to this call, saves those builds.
    # g(q_hat -> 0) = -2 alpha < 0, so a sign change below always exists
    g = functools.cache(lambda u: _fixed_point_lhs_minus_rhs(params, math.exp(u)))
    bracket = _gallop(g, math.log(2.0 * params.alpha / params.q0), math.log(QHAT_MAX))
    evals = g.cache_info().currsize
    if bracket is None:  # the perfect-recovery fixed point
        return SEFixedPoint(
            q=params.q0, q_hat=math.inf, mmse=0.0, free_entropy=math.inf,
            iterations=evals, residual=0.0, status="supercritical",
        )
    u_star, brent_iterations = _log_root(g, bracket, "q_hat")
    q_hat = math.exp(u_star)
    residual = abs(g(u_star))
    if residual > RESIDUAL_MAX:
        raise NoConvergence(
            f"bracketed sign change at q_hat={q_hat} is not a root: residual"
            f" {residual:.3g} > {RESIDUAL_MAX:g} at alpha={params.alpha},"
            f" kappa={params.kappa}, delta={params.delta}"
        )
    mmse_raw = 2.0 * params.alpha * params.kappa / q_hat - 0.5 * params.kappa * params.tilde_delta
    q_raw = params.q0 - mmse_raw / params.kappa
    if not (params.q_min - 1e-6 <= q_raw <= params.q0 + 1e-6):
        raise OutOfRange(
            f"overlap q={q_raw} outside [{params.q_min}, {params.q0}] "
            f"at alpha={params.alpha}, kappa={params.kappa}, delta={params.delta}"
        )
    mmse = min(max(mmse_raw, 0.0), params.mmse_max)
    q = params.q0 - mmse / params.kappa
    # the equation says F_RIE(1 / q_hat) = Q0 - q_raw: unclipped, q_hat is q's conjugate
    conjugate = q_hat if q == q_raw else None
    fe = _free_entropy(params, q, conjugate) if with_free_entropy else float("nan")
    return SEFixedPoint(
        q=q,
        q_hat=q_hat,
        mmse=mmse,
        free_entropy=fe,
        iterations=evals + brent_iterations,
        residual=residual,
        clipped=abs(mmse - mmse_raw),
    )


def _inner_conjugate(params, q):
    """q_hat realizing the inner infimum of I(q): solves F_RIE(1/q_hat) = Q0 - q."""
    target, var = params.q0 - q, params.q0 - params.q_min
    # local to this call: Brent re-evaluates the bracket ends.  F_RIE is
    # increasing in t from 0 to the prior variance, and at most var t / (var + t),
    # the linear estimator's error, so the root lies above where that equals target
    g = functools.cache(lambda v: _f_rie(params.prior, math.exp(v)) - target)
    bracket = _gallop(g, math.log(max(target * var / (var - target), 1e-12)))
    v_star, _ = _log_root(g, bracket, "t")
    return 1.0 / math.exp(v_star)


def overlap_rate(params: ProblemParams, q: float) -> float:
    """I(q): the prior-side rate function of the overlap.

    inf over q_hat >= 0 of (Q0-q) q_hat/4 - Sigma(mu_{1/q_hat})/2
    - log(q_hat)/4 - 1/8, with Sigma the log potential.  Zero at q = q_min;
    the infimum is attained at the conjugate returned by the inner solve.
    """
    return _overlap_rate(params, q)


def _overlap_rate(params, q, q_hat=None):
    """`overlap_rate`, taking q_hat as the conjugate of q when given."""
    span = params.q0 - params.q_min
    if q <= params.q_min + 1e-12 * span:
        return 0.0
    q = min(q, params.q0 - 1e-9 * span)
    if q_hat is None:
        q_hat = _inner_conjugate(params, q)
    sigma = freeprob.log_potential(freeprob.density(params.prior, 1.0 / q_hat))
    return (
        0.25 * (params.q0 - q) * q_hat
        - 0.5 * sigma
        - 0.25 * math.log(q_hat)
        - 0.125
    )


def free_entropy(params: ProblemParams, q: float) -> float:
    """F(q) = I(q) - (alpha/2) log[tilde_delta + 2 (Q0 - q)].

    The asymptotic overlap is the maximizer of F over [q_min, Q0].  At the
    noiseless boundary q -> Q0 the channel term diverges; q is evaluated a
    relative 1e-9 inside the boundary, which preserves the (in)finite-ness
    competition between the two terms.
    """
    return _free_entropy(params, q)


def _free_entropy(params, q, q_hat=None):
    """`free_entropy`, taking q_hat as the conjugate of q when given."""
    if not (params.q_min - 1e-9 <= q <= params.q0 + 1e-9):
        raise ValueError(f"q={q} outside [{params.q_min}, {params.q0}]")
    span = params.q0 - params.q_min
    q_in = min(max(q, params.q_min), params.q0 - 1e-9 * span)
    channel = -0.5 * params.alpha * math.log(
        params.tilde_delta + 2.0 * (params.q0 - q_in)
    )
    # a q moved inside the boundary has a conjugate of its own
    return _overlap_rate(params, q_in, q_hat if q_in == q else None) + channel


def perfect_recovery_threshold(kappa: float) -> float:
    """Noiseless sample ratio above which the MMSE is exactly zero.

    kappa - kappa^2/2 below square aspect, 1/2 above (Marchenko-Pastur
    prior).
    """
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    return kappa - 0.5 * kappa**2 if kappa <= 1.0 else 0.5


def mmse_slope_at_pr(kappa: float) -> float:
    """Slope dMMSE/dalpha of the noiseless curve at the recovery threshold."""
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    if kappa <= 1.0:
        return -2.0 - 4.0 / kappa + 12.0 / (1.0 + kappa)
    return -2.0 + 2.0 / kappa


def small_kappa_mmse(alpha_tilde: float, delta: float = 0.0) -> float:
    """Narrow-width limit of the MMSE as a function of alpha/kappa.

    Below the breakpoint (1 + Lambda)/2 the MMSE sticks at 1; above it
    follows -Lambda + 2 at [1 - at + sqrt((1 - at)^2 + Lambda)], which in the
    noiseless case is 4 at (1 - at) until perfect recovery at alpha/kappa = 1.
    """
    if alpha_tilde < 0:
        raise ValueError("alpha_tilde must be nonnegative")
    lam = delta * (2.0 + delta)
    if alpha_tilde <= 0.5 * (1.0 + lam):
        return 1.0
    at = alpha_tilde
    val = -lam + 2.0 * at * (1.0 - at + math.sqrt((1.0 - at) ** 2 + lam))
    return max(val, 0.0)


def large_kappa_mmse(alpha: float, delta: float = 0.0) -> float:
    """Wide-width limit of the MMSE: max(1 - 2 alpha, 0) when noiseless."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    lam = delta * (2.0 + delta)
    return 0.5 * (
        1.0 - 2.0 * alpha - lam + math.sqrt((1.0 - 2.0 * alpha + lam) ** 2 + 8.0 * alpha * lam)
    )


def threshold_alpha(
    kappa: float,
    delta: float = 0.0,
    level: float = 1e-3,
    alpha_lo: float = 1e-3,
    alpha_hi: float = 0.8,
    tol: float = 1e-3,
    prior: PriorSpectrum = None,
) -> float:
    """Smallest alpha at which the solved MMSE drops below `level`.

    Bisection over alpha.  The raw MMSE 2 alpha kappa / q_hat - kappa
    tilde_delta / 2 falls as q_hat grows, so it is below `level` iff the
    root lies above the q_level where it equals `level`.  Each probe is the
    sign of the fixed-point map at q_level (clamped at `QHAT_MAX`), one
    density build, which assumes the map increases in q_hat (checked on a
    log grid for kappa 0.1-3; flat to 1e-12 at kappa 0.01).  Locates the
    perfect-recovery transition as a check of the closed-form threshold.
    """

    def below_level(alpha):
        p = ProblemParams(alpha=alpha, kappa=kappa, delta=delta, prior=prior)
        q_level = 2.0 * alpha * kappa / (level + 0.5 * kappa * p.tilde_delta)
        return _fixed_point_lhs_minus_rhs(p, min(q_level, QHAT_MAX)) < 0.0

    lo, hi = alpha_lo, alpha_hi
    if not below_level(hi):
        raise NoConvergence(f"MMSE still above {level} at alpha={hi}")
    if below_level(lo):
        raise NoConvergence(f"MMSE already below {level} at alpha={lo}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if below_level(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
