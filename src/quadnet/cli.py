"""Command-line front end: experiment orchestration and CSV emission.

Each subcommand is a config dataclass whose fields are its flags and the keys
accepted from a flat JSON file (--config; flags win).  Each writes one CSV
whose first line is a commented JSON header holding the resolved config and
the package version, so a rerun with the same header is byte-identical.
Every command maps its cells over one worker pool (`_run_cells`).  A cell
that raises gets NaN values and its reason on stderr; the CSV is still
written, except by gd-scan, whose rows average its cells into one scan.
Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

import argparse
import concurrent.futures
import contextlib
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__, gamp, gd, matdenoise, model
from .freeprob import PriorSpectrum
from .state_evolution import ProblemParams, perfect_recovery_threshold, solve_qhat

NAN = float("nan")
# gd-scan's dispersion cutoffs: absolute, and relative to the scan's peak
ABS_THRESHOLD = 1e-2
REL_THRESHOLD = 1e-3


class UsageError(ValueError):
    pass


class NumericalFailure(RuntimeError):
    pass


def _opt(default=None, help=None, **meta):
    """A config field.  ``meta``: ``choices``, ``minimum``, ``required`` and
    ``echo=False`` (not in the CSV header)."""
    return dataclasses.field(default=default, metadata={"help": help, **meta})


@dataclasses.dataclass
class _Command:
    """A subcommand's ``grid()`` returns its header config and cell keys,
    ``cell(**key)`` one cell's ``values``, and ``rows`` the table.  By
    default a row is the ``lead`` columns, from the cell's key or else the
    config, then the ``values`` columns."""

    out: str = _opt(help="output CSV path (default stdout)", echo=False)
    threads: int = _opt(help="worker pool size", echo=False)

    def echo(self, **resolved):
        """The fields not marked echo=False, updated with ``resolved``."""
        fields = dataclasses.fields(self)
        echo = {f.name: getattr(self, f.name) for f in fields if f.metadata.get("echo", True)}
        return {**echo, **resolved}

    def table(self):
        """Header config, columns, formatted rows and the failed-cell count."""
        header, keys = self.grid()
        values, failed = _run_cells(self.cell, keys, len(self.values), self.threads)
        return self.rows(header, keys, values, failed)

    def rows(self, header, keys, values, failed):
        """``table()`` from the cells' keys, values and failure flags."""
        rows = []
        for key, v in zip(keys, values):
            lead = [key[c] if c in key else getattr(self, c) for c in self.lead]
            rows.append(tuple(map(_fmt, (*lead, *v))))
        return header, self.lead + self.values, rows, sum(failed)


@dataclasses.dataclass
class _AlphaGrid(_Command):
    alphas: list = _opt(help="explicit alpha list, comma or space separated")
    alpha_min: float = _opt(help="first alpha of an even grid", echo=False)
    alpha_max: float = _opt(help="last alpha of the even grid", echo=False)
    alpha_steps: int = _opt(help="number of alphas in the even grid", echo=False, minimum=1)
    delta: float = _opt(0.0, "label noise variance")


@dataclasses.dataclass
class SeCurve(_AlphaGrid):
    """Asymptotic MMSE over an alpha grid per kappa."""

    kappas: list = _opt(help="kappa list")

    lead = ("alpha", "kappa", "delta")
    values = ("mmse", "q", "q_hat")

    def grid(self):
        kappas, alphas = _grid(self, "kappa"), _grid(self, "alpha")
        keys = [{"alpha": a, "kappa": k} for k in kappas for a in alphas]
        _checked(lambda: [self.params(**key) for key in keys])
        return self.echo(kappas=kappas, alphas=alphas), keys

    def params(self, alpha, kappa):
        return ProblemParams(alpha=alpha, kappa=kappa, delta=self.delta)

    def cell(self, alpha, kappa):
        fp = solve_qhat(self.params(alpha, kappa))
        return fp.mmse, fp.q, fp.q_hat


@dataclasses.dataclass
class PhaseDiagram(SeCurve):
    """MMSE over a (kappa, alpha) grid, with the perfect-recovery line."""

    kappa_min: float = _opt(help="first kappa of an even grid", echo=False)
    kappa_max: float = _opt(help="last kappa of the even grid", echo=False)
    kappa_steps: int = _opt(help="number of kappas in the even grid", echo=False, minimum=1)

    values = SeCurve.values + ("alpha_pr",)

    def cell(self, alpha, kappa):
        return (*super().cell(alpha, kappa), perfect_recovery_threshold(kappa))


@dataclasses.dataclass
class _Teacher(_AlphaGrid):
    d: int = _opt(help="input dimension", required=True)
    kappa: float = _opt(help="width ratio m/d", required=True)
    seed: int = _opt(0, "base RNG seed")

    def params(self, alpha):
        return ProblemParams(alpha=alpha, kappa=self.kappa, delta=self.delta)

    def problems(self, alphas):
        """Every cell's `params`, after the check of d that `model.generate`
        makes in each cell."""
        model.check_dimension(self.d)
        return [self.params(a) for a in alphas]

    def teacher(self, alpha, seed):
        """A cell's problem, its state-evolution fixed point and its instance."""
        params = self.params(alpha)
        fp = solve_qhat(params)
        return params, fp, model.generate(d=self.d, kappa=self.kappa, alpha=alpha,
                                          delta=self.delta, seed=seed)


@dataclasses.dataclass
class Gamp(_Teacher):
    """Message-passing MSE vs the theory curve."""

    n_seeds: int = _opt(8, "runs per alpha, seeded from --seed upwards", minimum=1)
    max_iter: int = _opt(200, "iteration budget per run")
    damping: float = _opt(gamp.GampOptions.damping, "least damping of the adaptive step")
    init: str = _opt(gamp.GampOptions.init, "initial estimate", choices=("mean", "sample"))
    center: bool = _opt(gamp.GampOptions.center, "recentre the residuals every iteration")

    values = ("mse", "se_mmse", "iters", "converged")

    def grid(self):
        alphas = _grid(self, "alpha")
        _checked(lambda: (self.options(self.seed), self.problems(alphas)))
        seeds = [self.seed + i for i in range(self.n_seeds)]
        header = self.echo(alphas=alphas, seeds=seeds)
        del header["seed"], header["n_seeds"]
        return header, [{"alpha": a, "seed": s} for a in alphas for s in seeds]

    def options(self, seed):
        return gamp.GampOptions(max_iter=self.max_iter, damping=self.damping, init=self.init,
                                center=self.center, seed=seed)

    def cell(self, alpha, seed):
        params, fp, instance = self.teacher(alpha, seed)
        _, state = gamp.run(model.reduce(instance), params, self.options(seed))
        mse = model.matrix_mse(state.S_hat, instance.S_star, self.kappa)
        return mse, fp.mmse, state.iter, int(state.converged)

    def rows(self, header, keys, values, failed):
        """Per-seed rows, with each alpha's mean and stderr over the seeds
        that did not fail."""
        rows = []
        for start in range(0, len(keys), self.n_seeds):
            runs = range(start, start + self.n_seeds)
            summary = _mean_stderr([values[i][0] for i in runs if not failed[i]])
            for i in runs:
                mse, se_mmse, iters, converged = values[i]
                rows.append(tuple(map(_fmt, (keys[i]["alpha"], self.kappa, self.delta, self.d,
                                             keys[i]["seed"], mse, se_mmse, *summary, iters,
                                             converged, int(failed[i])))))
        columns = ("alpha", "kappa", "delta", "d", "seed", "mse", "se_mmse",
                   "mse_mean", "mse_stderr", "iters", "converged", "failed")
        return header, columns, rows, sum(failed)


@dataclasses.dataclass
class DenoiseMc(_Command):
    """Monte-Carlo denoiser MSE vs theory."""

    kappas: list = _opt(help="kappa list")
    deltas: list = _opt(help="noise variance list, all positive")
    d: int = _opt(500, "matrix size", minimum=1)
    reps: int = _opt(16, "Monte-Carlo draws per cell", minimum=1)
    seed: int = _opt(0, "base RNG seed")

    lead = ("kappa", "delta", "d", "reps")
    values = ("mc_mse", "mc_stderr", "f_rie", "forms_gap")

    def grid(self):
        kappas, deltas = _grid(self, "kappa"), _grid(self, "delta")
        _checked(lambda: [PriorSpectrum.marchenko_pastur(k) for k in kappas])
        if min(deltas) <= 0:
            raise UsageError("deltas must be positive")
        pairs = [(k, dl) for k in kappas for dl in deltas]
        keys = [{"kappa": k, "delta": dl, "seed": self.seed + 1000 * i}
                for i, (k, dl) in enumerate(pairs)]
        return self.echo(kappas=kappas, deltas=deltas), keys

    def cell(self, kappa, delta, seed):
        spec = matdenoise.DenoiseSpec.create(PriorSpectrum.marchenko_pastur(kappa), delta)
        theory, secondary = matdenoise.mmse_forms(spec)
        rng = np.random.default_rng(seed)
        vals = []
        for _ in range(self.reps):
            S = matdenoise.sample_wishart(self.d, kappa, rng)
            R = S + np.sqrt(delta) * matdenoise.sample_goe(self.d, rng)
            vals.append(float(np.sum((matdenoise.denoise_matrix(spec, R) - S) ** 2)) / self.d)
        return (*_mean_stderr(vals), theory, abs(theory - secondary))


@dataclasses.dataclass
class _Descent(_Teacher):
    n_inits: int = _opt(1, "initializations per dataset", minimum=1)
    learning_rate: float = _opt(help="step size (default: set by d)")
    l2: float = _opt(gd.GdConfig.l2, "weight decay")
    max_steps: int = _opt(gd.GdConfig.max_steps, "step budget per run")
    grad_tol: float = _opt(gd.GdConfig.grad_tol, "gradient-norm stop")
    backtracking: bool = _opt(gd.GdConfig.backtracking, "halve the step until the loss falls")

    def descent(self, seed):
        return gd.GdConfig(learning_rate=self.learning_rate, l2=self.l2,
                           max_steps=self.max_steps, grad_tol=self.grad_tol,
                           seed=seed, backtracking=self.backtracking)


@dataclasses.dataclass
class Gd(_Descent):
    """Gradient-descent baseline vs the theory curve."""

    reps: int = _opt(1, "independent datasets per alpha", minimum=1)

    lead = ("alpha", "kappa", "delta", "d", "rep")
    values = ("gd_mse", "agd_mse", "dispersion", "mmse", "final_loss", "steps")

    def grid(self):
        alphas = _grid(self, "alpha")
        _checked(lambda: (self.descent(self.seed), self.problems(alphas)))
        keys = [{"alpha": a, "rep": rep, "seed": self.seed + 37 * rep + 9973 * i}
                for i, a in enumerate(alphas) for rep in range(self.reps)]
        return self.echo(alphas=alphas), keys

    def cell(self, alpha, rep, seed):
        """One dataset; ``rep`` only labels it."""
        _, fp, instance = self.teacher(alpha, seed)
        run_cfg = self.descent(seed)
        S_single, trace = gd.gd_run(instance, run_cfg)
        agd_mse = dispersion = NAN
        if self.n_inits >= 2:
            S_bar, dispersion = gd.agd_run(instance, run_cfg, self.n_inits)
            agd_mse = model.matrix_mse(S_bar, instance.S_star, self.kappa)
        return (model.matrix_mse(S_single, instance.S_star, self.kappa), agd_mse,
                dispersion, fp.mmse, float(trace[-1]), len(trace) - 1)


@dataclasses.dataclass
class GdScan(_Descent):
    """Trivialization scan over alpha."""

    n_inits: int = _opt(4, "initializations per dataset", minimum=2)
    n_datasets: int = _opt(1, "datasets per alpha", minimum=1)

    values = ("dispersion",)

    def grid(self):
        alphas = [float(a) for a in _grid(self, "alpha")]
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise UsageError("alpha_grid must be strictly increasing")
        _checked(lambda: (self.descent(self.seed), self.problems(alphas)))
        keys = [{"alpha": a, "index": j * self.n_datasets + rep}
                for j, a in enumerate(alphas) for rep in range(self.n_datasets)]
        return self.echo(alphas=alphas), keys

    def cell(self, alpha, index):
        """(dispersion,) of averaged GD on the scan's dataset number ``index``."""
        instance = model.generate(d=self.d, kappa=self.kappa, alpha=alpha, delta=self.delta,
                                  seed=self.seed + 7919 * index + 1)
        return gd.agd_run(instance, self.descent(self.seed + 104729 * index), self.n_inits)[1:]

    def rows(self, header, keys, values, failed):
        """One row per alpha: its dispersion, averaged over its datasets,
        under each cutoff or not, and in the header the first alpha under
        each.  A failed run, or a scan under neither cutoff, fails the
        command."""
        if any(failed):
            raise NumericalFailure(f"{sum(failed)} of {len(keys)} scan runs failed")
        n = self.n_datasets
        alphas = [key["alpha"] for key in keys[::n]]
        dispersions = [float(np.mean([v for v, in values[j:j + n]]))
                       for j in range(0, len(keys), n)]
        peak = max(dispersions)
        flags = [(int(v < ABS_THRESHOLD), int(v < REL_THRESHOLD * peak)) for v in dispersions]
        alpha_t = [next((a for a, f in zip(alphas, flags) if f[i]), None) for i in (0, 1)]
        if alpha_t == [None, None]:
            raise NumericalFailure(f"no alpha in {alphas} under abs {ABS_THRESHOLD} or rel "
                                   f"{REL_THRESHOLD} x peak {peak:.3g}")
        header = {**header, "alpha_t_abs": alpha_t[0], "alpha_t_rel": alpha_t[1]}
        rows = [(_fmt(a), _fmt(v), *f) for a, v, f in zip(alphas, dispersions, flags)]
        return header, ("alpha", "dispersion", "below_abs", "below_rel"), rows, 0


COMMANDS = {"se-curve": SeCurve, "phase-diagram": PhaseDiagram, "gamp": Gamp,
            "denoise-mc": DenoiseMc, "gd": Gd, "gd-scan": GdScan}


def _float_list(value):
    """A JSON list or a comma/space separated string -> list of floats."""
    items = value if isinstance(value, list) else str(value).replace(",", " ").split()
    return [_convert(float, v) for v in items]


def _convert(kind, value):
    """A config value as its field's type: only a JSON boolean for a bool,
    no boolean for another type, an integral value for an int, and no NaN
    or infinity."""
    if kind is list:
        return _float_list(value)
    if (kind is bool) != isinstance(value, bool):
        raise ValueError(f"expected {kind.__name__}, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    out = kind(value)
    if kind is float and not math.isfinite(out):
        raise ValueError(f"expected a finite number, got {value!r}")
    return out


def _resolve(args, cls):
    """The config from the field defaults, the --config file and the flags."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}")
        if not isinstance(values, dict):
            raise UsageError("config file must hold a flat JSON object")
        unknown = sorted(set(values) - set(fields))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    values = {k: v for k, v in values.items() if v is not None}  # null: the default
    values.update({k: getattr(args, k) for k in fields if getattr(args, k) is not None})
    for name, value in values.items():
        try:
            values[name] = _convert(fields[name].type, value)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{name}: {exc}")
        choices = fields[name].metadata.get("choices")
        if choices and values[name] not in choices:
            raise UsageError(f"{name}: {value!r} is not one of {', '.join(choices)}")
        minimum = fields[name].metadata.get("minimum")
        if minimum is not None and values[name] < minimum:
            raise UsageError(f"{name} must be at least {minimum}, got {values[name]}")
    missing = [f"--{n}" for n, f in fields.items() if f.metadata.get("required")
               and values.get(n) is None]
    if missing:
        raise UsageError("needs " + " and ".join(missing))
    return cls(**values)


def _checked(build):
    """Run ``build()``, which makes the config classes a command's cells
    build, once before any cell runs: a ValueError from their own range
    checks is a usage error (exit 2), not a failure of every cell."""
    try:
        build()
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _grid(cfg, prefix):
    """The '<prefix>s' list, or the even grid '<prefix>_min/_max/_steps'."""
    values = getattr(cfg, prefix + "s")
    ends = [getattr(cfg, f"{prefix}_{end}", None) for end in ("min", "max", "steps")]
    if values is None and None not in ends:
        values = list(np.linspace(*ends))
    elif values is None and ends != [None] * 3:
        raise UsageError(f"{prefix}_min/_max/_steps must be given together")
    if not values:
        raise UsageError(f"needs a nonempty {prefix} grid")
    return values


def _guarded(cell, key):
    try:
        return tuple(cell(**key)), None
    except Exception as exc:  # reported by the runner; the other cells go on
        return None, f"{type(exc).__name__}: {exc}"


def _run_cells(cell, keys, width, threads):
    """Order-preserving map of ``cell(**key)`` over ``keys`` on a process pool
    of at most one worker per key.

    A cell that raises gets ``width`` NaN values, and ``cell <key>:
    <reason>`` goes to stderr.  Returns the value tuples and a failure flag
    per key.
    """
    n_workers = min(threads or 1, len(keys))
    if n_workers <= 1:
        results = [_guarded(cell, key) for key in keys]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_guarded, [cell] * len(keys), keys))
    for key, (_, reason) in zip(keys, results):
        if reason is not None:
            label = " ".join(f"{k}={v}" for k, v in key.items())
            print(f"cell {label}: {reason}", file=sys.stderr)
    return ([(NAN,) * width if reason else values for values, reason in results],
            [reason is not None for _, reason in results])


def _fmt(value):
    return format(value, ".12g") if isinstance(value, float) else value


def _mean_stderr(vals):
    mean = float(np.mean(vals)) if vals else NAN
    stderr = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else NAN
    return mean, stderr


def _write_csv(path, header_cfg, columns, rows):
    to_file = path not in (None, "-")
    with open(path, "w", newline="") if to_file else contextlib.nullcontext(sys.stdout) as out:
        header = {"config": header_cfg, "version": __version__}
        out.write("# " + json.dumps(header, sort_keys=True) + "\n")
        csv.writer(out).writerows([columns, *rows])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quadnet",
        description="Quadratic-network learning experiments: state evolution, "
                    "message passing, matrix denoising, gradient descent.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, cls in COMMANDS.items():
        sub = subs.add_parser(name, help=cls.__doc__)
        sub.add_argument("--config", help="flat JSON config file")
        for f in dataclasses.fields(cls):
            flag = "--" + f.name.replace("_", "-")
            kw = {"dest": f.name, "default": None, "help": f.metadata["help"]}
            if f.type is bool:  # a switch away from the default
                flag = "--no-" + flag[2:] if f.default else flag
                kw["action"] = "store_false" if f.default else "store_true"
            else:
                kw.update(type=None if f.type is list else f.type,
                          choices=f.metadata.get("choices"))
            sub.add_argument(flag, **kw)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args, COMMANDS[args.command])
        header, columns, rows, n_failed = cfg.table()
        _write_csv(cfg.out, header, columns, rows)
    except UsageError as exc:
        print(f"usage error: {args.command}: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    if n_failed:
        print(f"numerical failure: {n_failed} of {len(rows)} cells failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
