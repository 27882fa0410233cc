"""Benchmark workloads: the cells each one runs, their checks and references.

A workload is a sweep: a list of cells whose inputs come from numpy's
generator seeded with the workload seed, so the same seed gives the same
inputs.  Every seed gives a sweep of the same make-up.
Cells call quadnet's public functions through their modules, as the CLI cell
functions do, so the traced run's wrappers see every call.

Why these workloads:

* ``theory``: a phase-diagram grid of state-evolution solves plus the
  threshold bisection, the scalar state-evolution iterate and the free
  entropy.  The work is density builds and root finding with no dense
  linear algebra, so density or solver changes show here and BLAS changes
  do not.
* ``dense-mc``: Monte-Carlo denoising at d=500 and fixed-budget gradient
  descent at d=100.  The work is eigh and matrix products; the shrinker
  only interpolates on the support.  It is the control on which a density
  or shrinker change should not move.
"""

import dataclasses
import hashlib
import math

import numpy as np

from quadnet import cli, gamp, gd, matdenoise, model, state_evolution
from quadnet.freeprob import PriorSpectrum
from quadnet.state_evolution import ProblemParams

# Grid points sit at their grid cell's centre, moved by a seeded fraction of
# a step, at most JITTER / 2 either way.  Moved across the whole cell, a
# noiseless point lands just below the perfect-recovery threshold on some
# seeds and not on others; solve_qhat then takes 70-80 iterations instead of
# about 23, and the sweep's cost would depend on the seed by about 10%.
JITTER = 0.25

# theory: phase-diagram ranges of the README command, on a coarser grid
THEORY_KAPPAS = (0.1, 2.0, 8)
THEORY_ALPHAS = (0.02, 0.6, 12)
THEORY_DELTAS = (0.0, 0.1)
THRESHOLD_KAPPAS = (0.5, 1.0)
SE_ITERATE_CELLS = 3  # (alpha, kappa=0.5, delta=0.1), alpha in [0.1, 0.6]
FREE_ENTROPY_PARAMS = (0.3, 0.5, 0.1)  # alpha, kappa, delta
# fixed q, as fractions of [q_min, Q0]: near Q0 the density splits into two
# intervals and the log potential's work arrays double, so a jittered q
# would make peak memory depend on the seed
FREE_ENTROPY_FRACTIONS = (0.25, 0.5, 0.75)

# dense-mc: the denoise-mc README grid at d=500, two repetitions per cell
DMC_D = 500
DMC_KAPPAS = (0.5, 1.0)
DMC_DELTAS = (0.1, 0.5, 1.0)
DMC_REPS = 2
# denoise cells per (kappa, delta): with the GD cells, a pass takes about
# 5 s, so a run has about ten passes to take each cell's best from
DMC_REPEATS = 2
# the MC mean of two repetitions sits within 1% of F_RIE at d=500; 3%
# catches a broken shrinker without tripping on sampling noise
DMC_REL_TOL = 0.03
# gradient descent with a fixed step budget, so every run does equal work
GD_D, GD_KAPPA, GD_ALPHA = 100, 0.5, 0.3
GD_STEPS = 50
GD_CELLS = 16

# acceptance GAMP cells at d=100, kappa=0.5, with the CLI's defaults
GAMP_D, GAMP_KAPPA = 100, 0.5
GAMP_CELLS = tuple((0.0, a) for a in (0.15, 0.25, 0.35, 0.45)) + tuple(
    (0.0625, a) for a in (0.2, 0.4, 0.6)
)
GAMP_MAX_ITER = 200


@dataclasses.dataclass(frozen=True)
class Cell:
    kind: str
    args: tuple


def _rng(seed, *stream):
    return np.random.default_rng([seed, *stream])


def _int_seed(seed, *stream):
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def _spread(grid, i, u):
    """Point i of the n-point grid (lo, hi, n): the centre of its grid cell,
    shifted by (u - 1/2) * JITTER of a step, u in [0, 1)."""
    lo, hi, n = grid
    return float(lo + (hi - lo) * (i + 0.5 + (u - 0.5) * JITTER) / n)


def _jittered(grid, u):
    return [_spread(grid, i, ui) for i, ui in enumerate(u)]


def theory_sweep(seed):
    # every grid point is jittered within its own grid cell, so each seed
    # samples the whole phase diagram at the same cost
    rng = _rng(seed, 0)
    nk, na = THEORY_KAPPAS[2], THEORY_ALPHAS[2]
    cells = []
    for dl in THEORY_DELTAS:
        u = rng.random((nk, na, 2))
        cells += [
            Cell("solve_qhat", (_spread(THEORY_ALPHAS, j, u[i, j, 1]),
                                _spread(THEORY_KAPPAS, i, u[i, j, 0]), dl))
            for i in range(nk) for j in range(na)
        ]
    cells += [Cell("threshold_alpha", (k,)) for k in THRESHOLD_KAPPAS]
    cells += [
        Cell("se_iterate", (a, 0.5, 0.1))
        for a in _jittered((0.1, 0.6, SE_ITERATE_CELLS), rng.random(SE_ITERATE_CELLS))
    ]
    alpha, kappa, delta = FREE_ENTROPY_PARAMS
    p = ProblemParams(alpha=alpha, kappa=kappa, delta=delta)
    cells += [
        Cell("free_entropy", (alpha, kappa, delta, p.q_min + f * (p.q0 - p.q_min)))
        for f in FREE_ENTROPY_FRACTIONS
    ]
    return cells


def dense_mc_sweep(seed):
    pairs = [(k, dl) for k in DMC_KAPPAS for dl in DMC_DELTAS] * DMC_REPEATS
    cells = [Cell("denoise", (k, dl, _int_seed(seed, 0, i))) for i, (k, dl) in enumerate(pairs)]
    cells += [
        Cell("gd", (_int_seed(seed, 0, 1000 + j), _int_seed(seed, 0, 2000 + j)))
        for j in range(GD_CELLS)
    ]
    return cells


SWEEPS = {"theory": theory_sweep, "dense-mc": dense_mc_sweep}


def gamp_slice(seed):
    """The acceptance GAMP cells, one data seed each, for the traced run."""
    return [Cell("gamp", (dl, a, _int_seed(seed, 7, i))) for i, (dl, a) in enumerate(GAMP_CELLS)]


# --- running a cell -----------------------------------------------------------


def _matrix_digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def run_cell(cell):
    """Run one cell; returns a tuple of plain values (floats, ints, strings)."""
    kind, args = cell.kind, cell.args
    if kind == "solve_qhat":
        a, k, dl = args
        fp = state_evolution.solve_qhat(ProblemParams(alpha=a, kappa=k, delta=dl),
                                        with_free_entropy=False)
        return (fp.mmse, fp.q, fp.q_hat, fp.residual, fp.iterations, fp.status)
    if kind == "threshold_alpha":
        return (state_evolution.threshold_alpha(args[0]),)
    if kind == "se_iterate":
        p = ProblemParams(alpha=args[0], kappa=args[1], delta=args[2])
        trace = gamp.state_evolution_iterate(p)
        return (p.kappa * (p.q0 - trace[-1][0]), len(trace))
    if kind == "free_entropy":
        a, k, dl, q = args
        return (state_evolution.free_entropy(ProblemParams(alpha=a, kappa=k, delta=dl), q),)
    if kind == "denoise":
        k, dl, s = args
        spec = matdenoise.DenoiseSpec.create(PriorSpectrum.marchenko_pastur(k), dl)
        theory = matdenoise.mmse(spec)
        rng = np.random.default_rng(s)
        vals = []
        for _ in range(DMC_REPS):
            S = matdenoise.sample_wishart(DMC_D, k, rng)
            R = S + np.sqrt(dl) * matdenoise.sample_goe(DMC_D, rng)
            S_hat = matdenoise.denoise_matrix(spec, R)
            vals.append(float(np.sum((S_hat - S) ** 2)) / DMC_D)
        return (theory, *vals)
    if kind == "gd":
        data_seed, init_seed = args
        inst = model.generate(d=GD_D, kappa=GD_KAPPA, alpha=GD_ALPHA, seed=data_seed)
        cfg = gd.GdConfig(max_steps=GD_STEPS, grad_tol=0.0, seed=init_seed)
        S_hat, trace = gd.gd_run(inst, cfg)
        return (model.matrix_mse(S_hat, inst.S_star, GD_KAPPA), float(trace[0]),
                float(trace[-1]), len(trace) - 1)
    if kind == "gamp":
        dl, a, s = args
        params = ProblemParams(alpha=a, kappa=GAMP_KAPPA, delta=dl)
        inst = model.generate(d=GAMP_D, kappa=GAMP_KAPPA, alpha=a, delta=dl, seed=s)
        dataset = model.reduce(inst)
        opts = gamp.GampOptions(max_iter=GAMP_MAX_ITER, damping=0.0, init="mean",
                                center=True, seed=s, s_star=inst.S_star)
        S_best, state = gamp.run(dataset, params, opts)
        return (model.matrix_mse(S_best, inst.S_star, GAMP_KAPPA),
                model.matrix_mse(state.S_hat, inst.S_star, GAMP_KAPPA),
                state.iter, int(state.converged), state.n_v_floor,
                _matrix_digest(state.S_hat))
    raise ValueError(f"unknown cell kind {kind!r}")


# --- references and checks ----------------------------------------------------


class References:
    """Reference values the checks and gaps compare against, solved once."""

    def __init__(self):
        self._mmse = {}
        self._fe_max = None

    def se_mmse(self, alpha, kappa, delta):
        key = (alpha, kappa, delta)
        if key not in self._mmse:
            p = ProblemParams(alpha=alpha, kappa=kappa, delta=delta)
            self._mmse[key] = state_evolution.solve_qhat(p, with_free_entropy=False).mmse
        return self._mmse[key]

    def free_entropy_max(self):
        """F at the solved overlap q*, the maximizer of F over [q_min, Q0]."""
        if self._fe_max is None:
            alpha, kappa, delta = FREE_ENTROPY_PARAMS
            p = ProblemParams(alpha=alpha, kappa=kappa, delta=delta)
            fp = state_evolution.solve_qhat(p, with_free_entropy=True)
            self._fe_max = fp.free_entropy
        return self._fe_max


def _finite(*vals):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals)


def check_cell(cell, out, refs):
    """Whether a cell's output is correct; returns None or a failure reason."""
    kind, args = cell.kind, cell.args
    if kind == "solve_qhat":
        mmse, q, q_hat, residual, _, status = out
        a, k, dl = args
        if status == "supercritical":
            alpha_pr = state_evolution.perfect_recovery_threshold(k)
            ok = dl == 0.0 and mmse == 0.0 and a > alpha_pr - 0.01
        else:
            ok = (status == "converged" and _finite(mmse, q, q_hat, residual)
                  and 0.0 <= mmse <= 1.0 and (dl == 0.0 or mmse > 0.0))
        return None if ok else f"solve_qhat{args}: {out}"
    if kind == "threshold_alpha":
        gap = abs(out[0] - state_evolution.perfect_recovery_threshold(args[0]))
        return None if gap < 0.01 else f"threshold_alpha{args}: {out[0]}"
    if kind == "se_iterate":
        gap = abs(out[0] - refs.se_mmse(*args))
        return None if gap < 1e-6 else f"se_iterate{args}: {out[0]} off by {gap:.3g}"
    if kind == "free_entropy":
        ok = _finite(out[0]) and out[0] <= refs.free_entropy_max() + 1e-9
        return None if ok else f"free_entropy{args}: {out[0]} above max {refs.free_entropy_max()}"
    if kind == "denoise":
        theory, *vals = out
        ok = (_finite(theory, *vals) and 0.0 < theory < args[1]
              and abs(np.mean(vals) - theory) <= DMC_REL_TOL * theory)
        return None if ok else f"denoise{args[:2]}: MC {vals} vs F_RIE {theory}"
    if kind == "gd":
        mse, loss0, loss, steps = out
        ok = _finite(mse, loss0, loss) and steps == GD_STEPS and loss < loss0
        return None if ok else f"gd{args}: {out}"
    if kind == "gamp":
        ok = _finite(*out[:2]) and 1 <= out[2] <= GAMP_MAX_ITER
        return None if ok else f"gamp{args}: {out[:5]}"
    raise ValueError(f"unknown cell kind {kind!r}")


def gap_vs_theory(cells, outputs, refs):
    """Largest deviation of a sweep from its reference (deterministic per seed).

    theory: the larger of |threshold_alpha - closed-form threshold| and
    |state-evolution iterate MMSE - solve_qhat MMSE|.  dense-mc: the largest
    |GD MSE after the fixed step budget - solve_qhat MMSE| over GD cells.
    """
    gaps = []
    for cell, out in zip(cells, outputs):
        if cell.kind == "threshold_alpha":
            gaps.append(abs(out[0] - state_evolution.perfect_recovery_threshold(cell.args[0])))
        elif cell.kind == "se_iterate":
            gaps.append(abs(out[0] - refs.se_mmse(*cell.args)))
        elif cell.kind == "gd":
            gaps.append(abs(out[0] - refs.se_mmse(GD_ALPHA, GD_KAPPA, 0.0)))
    return max(gaps)


def denoise_z_max(cells, outputs):
    """Largest |MC mean - F_RIE| / stderr over (kappa, delta), reps pooled."""
    pooled = {}
    for cell, out in zip(cells, outputs):
        if cell.kind == "denoise":
            theory, *vals = out
            pooled.setdefault(cell.args[:2], (theory, []))[1].extend(vals)
    zs = []
    for theory, vals in pooled.values():
        if len(vals) > 1:
            zs.append(abs(np.mean(vals) - theory) / (np.std(vals, ddof=1) / math.sqrt(len(vals))))
    return max(zs) if zs else float("nan")


def gamp_summary(cells, outputs, refs):
    """Final-iterate accuracy of the GAMP cells and the bias of the returned one.

    final_gap: largest |final-iterate MSE - solve_qhat MMSE|.  The iterate
    gamp.run returns is picked with the teacher; best_final_gap is the
    largest amount by which the final iterate is worse than it.
    """
    final_gap = max(
        abs(out[1] - refs.se_mmse(cell.args[1], GAMP_KAPPA, cell.args[0]))
        for cell, out in zip(cells, outputs)
    )
    best_final_gap = max(out[1] - out[0] for out in outputs)
    return final_gap, best_final_gap


# --- the CLI slice -------------------------------------------------------------


def cli_slice_args(seed):
    rng = _rng(seed, 9)
    kappas = _jittered((0.25, 1.75, 2), rng.random(2))
    alphas = _jittered((0.05, 0.55, 3), rng.random(3))
    return kappas, alphas, 0.1


def run_cli_slice(seed, out_path):
    """phase-diagram through quadnet.cli.main in-process, single worker."""
    kappas, alphas, delta = cli_slice_args(seed)
    argv = ["phase-diagram", "--kappas", ",".join(repr(k) for k in kappas),
            "--alphas", ",".join(repr(a) for a in alphas), "--delta", repr(delta),
            "--threads", "1", "--out", str(out_path)]
    out_path.unlink(missing_ok=True)
    code = cli.main(argv)
    return code, out_path.read_text() if code == 0 else ""


def cli_rows_mismatch(seed, code, text):
    """CSV data rows that differ from direct solve_qhat calls formatted alike."""
    kappas, alphas, delta = cli_slice_args(seed)
    expected = []
    for k in kappas:
        for a in alphas:
            fp = state_evolution.solve_qhat(ProblemParams(alpha=a, kappa=k, delta=delta),
                                            with_free_entropy=False)
            row = (a, k, delta, fp.mmse, fp.q, fp.q_hat,
                   state_evolution.perfect_recovery_threshold(k))
            expected.append(",".join(format(v, ".12g") for v in row))
    got = text.splitlines()[2:] if code == 0 else []
    return sum(e != g for e, g in zip(expected, got)) + abs(len(expected) - len(got))
