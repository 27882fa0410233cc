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
Both root solves work in log scale (`_newton`): safeguarded Newton steps
until the root is bracketed, then steps to the root of the cubic Hermite
interpolant through the last two points.  A map's slope costs no extra
build: the t-derivative of int mu_t^3 is one more quadrature on the density
the map's value is read from, with the dg/dz that its build stored.
Noiseless, the fixed-point map tends to 1 - 2 alpha - w0^2 as q_hat grows,
w0 the prior's mass at zero (2 (alpha_pr - alpha) for the MP prior).  Where
that limit is not positive the solve starts at QHAT_MAX; below it the
solve fits the map's flattening near perfect recovery in its one-sided
steps and stops at the map's rounding.
"""

import dataclasses
import math

from . import freeprob
from .freeprob import PriorSpectrum
from .matdenoise import _K, _rie_error

# q_hat beyond this is numerically indistinguishable from the perfect-recovery
# fixed point at infinity (MMSE ~ 2 alpha kappa / q_hat < 1e-8)
QHAT_MAX = 1e9
# |residual| above this where the root solve stopped means it closed in on a
# jump of the fixed-point map, not a root (true roots reach ~1e-14)
RESIDUAL_MAX = 1e-9
# `threshold_alpha` bisects over this alpha bracket down to this width
THRESHOLD_BRACKET = (1e-3, 0.8)
THRESHOLD_TOL = 1e-3


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
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be nonnegative and finite, got {self.alpha}")
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        if not 0 <= self.delta < math.inf:
            raise ValueError(f"delta must be nonnegative and finite, got {self.delta}")
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
        Points of the fixed-point map evaluated by the root solve, `QHAT_MAX`
        included when probed; each is one density build.  A noiseless cell
        past the map's limit (`_noiseless_limit`) that is supercritical
        takes one, `QHAT_MAX` itself.
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


def _map_value(params, q_hat):
    """Fixed-point map G = lhs - rhs at q_hat, with C = int mu_t^3 and the
    density at t = 1/q_hat that give it."""
    dens = freeprob.density(params.prior, 1.0 / q_hat)
    cube = dens.cube_integral()
    return (1.0 - 2.0 * params.alpha) + 0.5 * params.tilde_delta * q_hat - _K / q_hat * cube, cube, dens


def _fixed_point_map(params, q_hat):
    """Fixed-point map G = lhs - rhs at q_hat, its slope dG/dlog q_hat, and
    the density at t = 1/q_hat that gives both.

    With C = int mu_t^3, dG/dlog q_hat = tilde_delta q_hat / 2 + K (t C + t^2 C').
    """
    value, cube, dens = _map_value(params, q_hat)
    t = 1.0 / q_hat
    slope = 0.5 * params.tilde_delta * q_hat + _K * (t * cube + t * t * dens.cube_integral_dt())
    return value, slope, dens


def _f_rie(prior, t):
    """Denoising error F_RIE(t) = t - K t^2 int mu_t^3 (resolvent route), its
    slope t dF_RIE/dt = t (1 - 2 K t C - K t^2 C') and the density at t.

    Its value is `matdenoise.mmse`'s, from the same formula: the iterative
    state evolution reads F_RIE there.
    """
    dens = freeprob.density(prior, t)
    cube, cube_dt = dens.cube_integral(), dens.cube_integral_dt()
    return _rie_error(t, cube), t * (1.0 - 2.0 * _K * t * cube - _K * t * t * cube_dt), dens


def _hermite_step(x0, f0, d0, x1, f1, d1, step):
    """Step from x1 to the root of the cubic Hermite interpolant through
    (x0, f0, d0) and (x1, f1, d1), values and slopes, found by Newton's
    method on the cubic from the Newton step `step`; NaN where that does not
    converge in eight iterations."""
    h = x0 - x1
    secant = (f0 - f1) / h
    # H(x1 + u) = f1 + d1 u + c2 u^2 + c3 u^3
    c2 = (3.0 * secant - 2.0 * d1 - d0) / h
    c3 = (d0 + d1 - 2.0 * secant) / (h * h)
    u = step
    for _ in range(8):
        dh = d1 + u * (2.0 * c2 + 3.0 * u * c3)
        if dh == 0.0:
            break
        du = (f1 + u * (d1 + u * (c2 + u * c3))) / dh
        u -= du
        if abs(du) <= 1e-12 * abs(u):
            return u
    return math.nan


def _newton(f, x, name, x_max=math.inf, maxiter=100, _saturating=None):
    """Root of an increasing f by safeguarded Newton and Hermite steps, with
    the safeguards of rtsafe (Press et al., Numerical Recipes, 3rd ed.,
    sec. 9.4).

    f(x) returns (value, slope, payload); x is the log of `name`.  Every
    point f has seen narrows the bracket (lo, hi), f(lo) < 0 < f(hi).  While
    one end is open, Newton steps are capped at 2, 4, 8, ... and clamped at
    x_max, which is probed itself.  Once both ends are known the step goes
    to the root of the cubic Hermite interpolant through the last two points
    and their slopes (`_hermite_step`), which converges with order
    1 + sqrt(3) against Newton's 2 (Traub, Iterative Methods for the
    Solution of Equations, 1964, ch. 6).  Where that root leaves the
    bracket, is more than twice the Newton step away or needs a slope that
    is not positive and finite, the Newton step is taken; where that
    leaves the bracket too, or the slope is not positive and finite,
    bisection.  Stops when the Newton step or the bracket is below
    1e-13 + 8.9e-16 |x|, and at x_max when f(x_max) < 0, returning the last
    point f evaluated: (x, value, payload, evaluations).  A NaN of f or an
    exhausted budget raises NoConvergence naming the point.

    `_saturating` is None for the steps and stops above.  A number s says
    that f flattens like a - b exp(-x) for large x, as the noiseless
    fixed-point map does in x = log q_hat, with terms of size s.  Then a
    one-sided step from f < 0 goes to the root of that model fitted to f's
    value and slope, x - log(1 + f/f'), wherever the fitted a = f + f' is
    positive (the capped step otherwise), and the search also stops once
    |f| <= 4 ulp(s), the rounding of f's terms.
    """
    lo, hi, cap = -math.inf, math.inf, 2.0
    f_tol = 4.0 * math.ulp(_saturating) if _saturating else 0.0
    for evals in range(1, maxiter + 1):
        fx, slope, payload = f(x)
        if math.isnan(fx):
            break
        if fx < 0.0:
            lo = x
        elif fx > 0.0:
            hi = x
        tol = 1e-13 + 8.9e-16 * abs(x)
        if abs(fx) <= f_tol or hi - lo < tol or (x == x_max and fx < 0.0):
            return x, fx, payload, evals
        step = -fx / slope if 0.0 < slope < math.inf else math.nan
        if abs(step) < tol:
            return x, fx, payload, evals
        if math.isinf(hi - lo):  # one-sided
            if _saturating and fx < 0.0 < fx + slope < math.inf:
                # the root of a - b exp(-x) with f's value and slope, a = fx + slope
                new = min(x - math.log1p(fx / slope), x_max)
            else:  # a capped step the way f's sign points
                new = min(x + math.copysign(min(cap, abs(step)), -fx), x_max)  # NaN: the cap
            cap *= 2.0
        else:  # bracketed, so prev holds the point before this one
            new = x + step
            if 0.0 < prev[2] < math.inf and not math.isnan(step):
                hermite = x + _hermite_step(*prev, x, fx, slope, step)
                if lo < hermite < hi and abs(hermite - x) <= 2.0 * abs(step):
                    new = hermite
            if not lo < new < hi:  # also when step is NaN
                new = 0.5 * (lo + hi)
        prev = x, fx, slope
        if evals < maxiter:  # a spent budget names the last point evaluated
            x = new
    raise NoConvergence(
        f"Newton's method stopped after {evals} iterations at"
        f" {name}={math.exp(x)!r}, where the map is {fx!r}"
    )


def _noiseless_limit(params):
    """1 - 2 alpha - w0^2, the noiseless fixed-point map's limit as q_hat
    grows, w0 = max(0, 1 - kappa sum_{a_k > 0} p_k) the prior's mass at zero:
    as t -> 0 that atom spreads into a semicircle of variance t w0, whose
    K t int rho^3 is w0^2, and the rest of mu_t adds O(t) to K t C."""
    w0 = max(0.0, 1.0 - params.kappa * sum(p for a, p in params.prior.atoms if a > 0))
    return 1.0 - 2.0 * params.alpha - w0 * w0


def _qhat_start(params):
    """Root of the fixed-point map with int mu_t^3 taken from a semicircle of
    variance V + t, V = Q0 - q_min: then K t C = 1 / (V q_hat + 1), and the
    root solves (tilde_delta V / 2) q_hat^2 + ((1 - 2 alpha) V +
    tilde_delta / 2) q_hat - 2 alpha = 0.  The semicircle is the linear
    estimator's law, as in `_inner_conjugate`'s start.  Clamped into
    (0, QHAT_MAX].  Noiseless, QHAT_MAX itself wherever the map's limit
    (`_noiseless_limit`) is not positive, alpha >= alpha_pr for the MP
    prior: no root can exist there, and the map's sign at QHAT_MAX decides.
    """
    if params.delta == 0.0 and _noiseless_limit(params) <= 0.0:
        return QHAT_MAX
    var = params.q0 - params.q_min
    a = 0.5 * params.tilde_delta * var
    b = (1.0 - 2.0 * params.alpha) * var + 0.5 * params.tilde_delta
    disc = math.sqrt(b * b + 8.0 * a * params.alpha)
    if b > 0.0:  # the form without cancellation
        q_hat = 4.0 * params.alpha / (b + disc)
    else:
        q_hat = (disc - b) / (2.0 * a)
    return min(q_hat, QHAT_MAX)


def solve_qhat(params: ProblemParams, with_free_entropy: bool = False) -> SEFixedPoint:
    """Solve the fixed-point equation for q_hat and assemble the MMSE.

    The root is found in u = log q_hat by safeguarded Newton and Hermite
    steps (`_newton`) from the root of the map with a semicircle in place of
    mu_t (`_qhat_start`), with the slope of the map taken from the same
    density build as its value
    (`freeprob.SpectralDensity.cube_integral_dt`).  Steps are bounded by
    QHAT_MAX, which is probed itself; a NaN of the map or an exhausted
    budget raises NoConvergence naming q_hat.  Each point of the map is one
    density build, and the root returned is a point already built.  In the
    noiseless supercritical regime (no root below QHAT_MAX) the
    perfect-recovery fixed point is returned: q_hat = inf, MMSE = 0, q = Q0.
    Noiseless, the map tends to 1 - 2 alpha - w0^2 as q_hat grows: where
    that is not positive the solve starts at QHAT_MAX, one build when the
    map is negative there.  Below it the map is about a - b / q_hat for
    large q_hat, and the one-sided steps go to that model's root fitted to
    the map's value and slope; the solve stops once |G| is within 4 ulp of
    max(1, 2 alpha), the size of its terms (K t C = 1 - 2 alpha - G).
    F(q) is NaN unless `with_free_entropy`; it takes q_hat as the inner
    conjugate of q, which it is at the fixed point, and the root's density
    for its log potential, so it costs no build (a solve if the MMSE
    clipped).
    """
    if not params.alpha > 0:
        raise ValueError("solve_qhat requires alpha > 0")
    # G(q_hat -> 0) = -2 alpha < 0, so a sign change below always exists
    u_max = math.log(QHAT_MAX)
    u, g_u, dens, evals = _newton(
        lambda u: _fixed_point_map(params, math.exp(u)),
        math.log(_qhat_start(params)), "q_hat", u_max,
        _saturating=max(1.0, 2.0 * params.alpha) if params.delta == 0.0 else None,
    )
    if u == u_max and g_u < 0.0:  # the perfect-recovery fixed point
        return SEFixedPoint(
            q=params.q0, q_hat=math.inf, mmse=0.0, free_entropy=math.inf,
            iterations=evals, residual=0.0, status="supercritical",
        )
    q_hat = math.exp(u)
    residual = abs(g_u)
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
    conjugate = (q_hat, dens) if q == q_raw else None
    fe = _free_entropy(params, q, conjugate) if with_free_entropy else float("nan")
    return SEFixedPoint(
        q=q,
        q_hat=q_hat,
        mmse=mmse,
        free_entropy=fe,
        iterations=evals,
        residual=residual,
        clipped=abs(mmse - mmse_raw),
    )


def _inner_conjugate(params, q):
    """q_hat realizing the inner infimum of I(q): solves F_RIE(1/q_hat) = Q0 - q
    in v = log t.  Returns q_hat and the density at t = 1/q_hat, from the solve."""
    target, var = params.q0 - q, params.q0 - params.q_min

    def g(v):
        f_rie, slope, dens = _f_rie(params.prior, math.exp(v))
        return f_rie - target, slope, dens

    # F_RIE is increasing in t from 0 to the prior variance, and at most
    # var t / (var + t), the linear estimator's error, so the root lies
    # above where that equals target
    v, _, dens, _ = _newton(g, math.log(max(target * var / (var - target), 1e-12)), "t")
    return 1.0 / math.exp(v), dens


def _overlap_rate(params, q, conjugate=None):
    """I(q): the prior-side rate function of the overlap.

    inf over q_hat >= 0 of (Q0-q) q_hat/4 - Sigma(mu_{1/q_hat})/2
    - log(q_hat)/4 - 1/8, with Sigma the log potential.  Zero at q = q_min;
    the infimum is attained at the conjugate returned by the inner solve,
    or at conjugate = (q_hat, density at t = 1/q_hat) of q when given.
    """
    span = params.q0 - params.q_min
    if q <= params.q_min + 1e-12 * span:
        return 0.0
    q = min(q, params.q0 - 1e-9 * span)
    q_hat, dens = conjugate or _inner_conjugate(params, q)
    return (
        0.25 * (params.q0 - q) * q_hat
        - 0.5 * freeprob.log_potential(dens)
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


def _free_entropy(params, q, conjugate=None):
    """`free_entropy`, taking conjugate = (q_hat, its density) of q when given."""
    if not (params.q_min - 1e-9 <= q <= params.q0 + 1e-9):
        raise ValueError(f"q={q} outside [{params.q_min}, {params.q0}]")
    span = params.q0 - params.q_min
    q_in = min(max(q, params.q_min), params.q0 - 1e-9 * span)
    channel = -0.5 * params.alpha * math.log(
        params.tilde_delta + 2.0 * (params.q0 - q_in)
    )
    # a q moved inside the boundary has a conjugate of its own
    return _overlap_rate(params, q_in, conjugate if q_in == q else None) + channel


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


def threshold_alpha(kappa: float, delta: float = 0.0, level: float = 1e-3) -> float:
    """Smallest alpha at which the solved MMSE drops below `level`, for the
    Marchenko-Pastur prior.

    Bisection over alpha in `THRESHOLD_BRACKET`, to a bracket narrower than
    `THRESHOLD_TOL`.  The raw MMSE 2 alpha kappa / q_hat - kappa
    tilde_delta / 2 falls as q_hat grows, so it is below `level` iff the
    root lies above the q_level where it equals `level`.  Each probe is the
    sign of the fixed-point map at q_level (clamped at `QHAT_MAX`), one
    density build and no slope (`_map_value`), which assumes the map
    increases in q_hat (checked on a log grid for kappa 0.1-3; flat to 1e-12
    at kappa 0.01).  Locates the perfect-recovery transition as a check of
    the closed-form threshold.
    """

    def below_level(alpha):
        p = ProblemParams(alpha=alpha, kappa=kappa, delta=delta)
        q_level = 2.0 * alpha * kappa / (level + 0.5 * kappa * p.tilde_delta)
        return _map_value(p, min(q_level, QHAT_MAX))[0] < 0.0

    lo, hi = THRESHOLD_BRACKET
    if not below_level(hi):
        raise NoConvergence(f"MMSE still above {level} at alpha={hi}")
    if below_level(lo):
        raise NoConvergence(f"MMSE already below {level} at alpha={lo}")
    while hi - lo > THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if below_level(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
