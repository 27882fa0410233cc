"""Command-line front end: experiment orchestration and CSV emission.

Each subcommand is a config dataclass whose fields are its flags and the keys
accepted from a flat JSON file (--config; flags win).  Each writes one CSV
whose first line is a commented JSON header holding the resolved config and
the package version, so a rerun with the same header is byte-identical.  A
cell that raises gets NaN values and its reason on stderr; the CSV is still
written.  Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

import argparse
import concurrent.futures
import contextlib
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__, gamp, gd, matdenoise, model
from .freeprob import PriorSpectrum
from .state_evolution import ProblemParams, perfect_recovery_threshold, solve_qhat

THREADS_ENV = "QUADNET_THREADS"
NAN = float("nan")


class UsageError(ValueError):
    pass


class NumericalFailure(RuntimeError):
    pass


def _opt(default=None, help=None, **meta):
    """A config field.  ``meta``: ``choices``, ``required``, ``raw`` (kept as
    given, not converted) and ``echo=False`` (not in the CSV header)."""
    return dataclasses.field(default=default, metadata={"help": help, **meta})


@dataclasses.dataclass
class _Command:
    """A subcommand's ``grid()`` returns its header config and cell keys, and
    ``cell(**key)`` one cell's values.  A row is the ``lead`` columns, from
    the cell's key or else the config, then the ``values`` columns; values
    past the last column are dropped."""

    out: str = _opt(help="output CSV path (default stdout)", echo=False)
    threads: int = _opt(help=f"worker pool size (env {THREADS_ENV} overrides)", echo=False)

    def echo(self, **resolved):
        """The fields not marked echo=False, updated with ``resolved``."""
        fields = dataclasses.fields(self)
        echo = {f.name: getattr(self, f.name) for f in fields if f.metadata.get("echo", True)}
        return {**echo, **resolved}

    def table(self):
        """Header config, columns, formatted rows and the failed-cell count."""
        header, keys = self.grid()
        values, failed = _run_cells(self.cell, keys, len(self.values), self.threads)
        columns = self.lead + self.values
        rows = []
        for key, v in zip(keys, values):
            lead = [key[c] if c in key else getattr(self, c) for c in self.lead]
            rows.append(tuple(map(_fmt, (*lead, *v)))[:len(columns)])
        return header, columns, rows, sum(failed)


@dataclasses.dataclass
class _AlphaGrid(_Command):
    alphas: list = _opt(help="explicit alpha list, comma or space separated")
    alpha_min: float = _opt(help="first alpha of an even grid", echo=False)
    alpha_max: float = _opt(help="last alpha of the even grid", echo=False)
    alpha_steps: int = _opt(help="number of alphas in the even grid", echo=False)
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
        return self.echo(kappas=kappas, alphas=alphas), keys

    def cell(self, alpha, kappa):
        """The phase-diagram cell; se-curve leaves out its last value."""
        params = ProblemParams(alpha=alpha, kappa=kappa, delta=self.delta)
        fp = solve_qhat(params)
        return fp.mmse, fp.q, fp.q_hat, perfect_recovery_threshold(kappa)


@dataclasses.dataclass
class PhaseDiagram(SeCurve):
    """MMSE over a (kappa, alpha) grid, with the perfect-recovery line."""

    kappa_min: float = _opt(help="first kappa of an even grid", echo=False)
    kappa_max: float = _opt(help="last kappa of the even grid", echo=False)
    kappa_steps: int = _opt(help="number of kappas in the even grid", echo=False)

    values = SeCurve.values + ("alpha_pr",)


@dataclasses.dataclass
class _Teacher(_AlphaGrid):
    d: int = _opt(help="input dimension", required=True)
    kappa: float = _opt(help="width ratio m/d", required=True)
    seed: int = _opt(0, "base RNG seed")

    def teacher(self, alpha, seed):
        """A cell's problem, its state-evolution fixed point and its instance."""
        params = ProblemParams(alpha=alpha, kappa=self.kappa, delta=self.delta)
        fp = solve_qhat(params)
        return params, fp, model.generate(d=self.d, kappa=self.kappa, alpha=alpha,
                                          delta=self.delta, seed=seed)


@dataclasses.dataclass
class Gamp(_Teacher):
    """Message-passing MSE vs the theory curve."""

    n_seeds: int = _opt(8, "runs per alpha, seeded from --seed upwards")
    max_iter: int = _opt(200, "iteration budget per run")
    damping: float = _opt(gamp.GampOptions.damping, "least damping of the adaptive step")
    init: str = _opt(gamp.GampOptions.init, "initial estimate", choices=("mean", "sample"))
    center: bool = _opt(gamp.GampOptions.center, "recentre the residuals every iteration")

    def grid(self):
        if self.n_seeds < 1:
            raise UsageError("n_seeds must be at least 1")
        alphas = _grid(self, "alpha")
        seeds = [self.seed + i for i in range(self.n_seeds)]
        header = self.echo(alphas=alphas, seeds=seeds)
        del header["seed"], header["n_seeds"]
        return header, [{"alpha": a, "seed": s} for a in alphas for s in seeds]

    def cell(self, alpha, seed):
        params, fp, instance = self.teacher(alpha, seed)
        opts = gamp.GampOptions(max_iter=self.max_iter, damping=self.damping, init=self.init,
                                center=self.center, seed=seed, s_star=instance.S_star)
        _, state = gamp.run(model.reduce(instance), params, opts)
        mse = model.matrix_mse(state.S_hat, instance.S_star, self.kappa)
        return mse, fp.mmse, state.iter, int(state.converged)

    def table(self):
        """Per-seed rows, with each alpha's mean and stderr over the seeds
        that did not fail."""
        header, keys = self.grid()
        values, failed = _run_cells(self.cell, keys, 4, self.threads)
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
    d: int = _opt(500, "matrix size")
    reps: int = _opt(16, "Monte-Carlo draws per cell")
    seed: int = _opt(0, "base RNG seed")

    lead = ("kappa", "delta", "d", "reps")
    values = ("mc_mse", "mc_stderr", "f_rie", "forms_gap")

    def grid(self):
        kappas, deltas = _grid(self, "kappa"), _grid(self, "delta")
        if min(deltas) <= 0:
            raise UsageError("deltas must be positive")
        pairs = [(k, dl) for k in kappas for dl in deltas]
        keys = [{"kappa": k, "delta": dl, "seed": self.seed + 1000 * i}
                for i, (k, dl) in enumerate(pairs)]
        return self.echo(kappas=kappas, deltas=deltas), keys

    def cell(self, kappa, delta, seed):
        spec = matdenoise.DenoiseSpec.create(PriorSpectrum.marchenko_pastur(kappa), delta)
        theory = matdenoise.mmse(spec)
        primary, secondary = matdenoise.mmse_forms(spec)
        rng = np.random.default_rng(seed)
        vals = []
        for _ in range(self.reps):
            S = matdenoise.sample_wishart(self.d, kappa, rng)
            R = S + np.sqrt(delta) * matdenoise.sample_goe(self.d, rng)
            vals.append(float(np.sum((matdenoise.denoise_matrix(spec, R) - S) ** 2)) / self.d)
        return (*_mean_stderr(vals), theory, abs(primary - secondary))


@dataclasses.dataclass
class _Descent(_Teacher):
    n_inits: int = _opt(1, "initializations per dataset")
    learning_rate: float = _opt(help="step size (default: set by d)", raw=True)
    l2: float = _opt(gd.GdConfig.l2, "weight decay")
    max_steps: int = _opt(gd.GdConfig.max_steps, "step budget per run")
    grad_tol: float = _opt(gd.GdConfig.grad_tol, "gradient-norm stop")
    backtracking: bool = _opt(gd.GdConfig.backtracking, "halve the step until the loss falls")

    def descent(self, seed, n_inits):
        lr = self.learning_rate
        return gd.GdConfig(learning_rate=None if lr is None else float(lr), l2=self.l2,
                           max_steps=self.max_steps, grad_tol=self.grad_tol,
                           n_inits=n_inits, seed=seed, backtracking=self.backtracking)


@dataclasses.dataclass
class Gd(_Descent):
    """Gradient-descent baseline vs the theory curve."""

    reps: int = _opt(1, "independent datasets per alpha")

    lead = ("alpha", "kappa", "delta", "d", "rep")
    values = ("gd_mse", "agd_mse", "dispersion", "mmse", "final_loss", "steps")

    def grid(self):
        alphas = _grid(self, "alpha")
        keys = [{"alpha": a, "rep": rep, "seed": self.seed + 37 * rep + 9973 * i}
                for i, a in enumerate(alphas) for rep in range(self.reps)]
        return self.echo(alphas=alphas), keys

    def cell(self, alpha, rep, seed):
        """One dataset; ``rep`` only labels it."""
        _, fp, instance = self.teacher(alpha, seed)
        run_cfg = self.descent(seed, max(1, self.n_inits))
        S_single, trace = gd.gd_run(instance, run_cfg)
        agd_mse = dispersion = NAN
        if self.n_inits >= 2:
            S_bar, dispersion = gd.agd_run(instance, run_cfg)
            agd_mse = model.matrix_mse(S_bar, instance.S_star, self.kappa)
        return (model.matrix_mse(S_single, instance.S_star, self.kappa), agd_mse,
                dispersion, fp.mmse, float(trace[-1]), len(trace) - 1)


@dataclasses.dataclass
class GdScan(_Descent):
    """Trivialization scan over alpha."""

    n_inits: int = _opt(4, "initializations per dataset")
    n_datasets: int = _opt(1, "datasets per alpha")

    def table(self):
        """One scan of pool cells: a failure is the command's, not a cell's."""
        alphas = _grid(self, "alpha")
        try:
            result = gd.trivialization_scan(self.d, self.kappa, self.delta, alphas,
                                            self.descent(self.seed, self.n_inits),
                                            n_datasets=self.n_datasets, map_cells=self.map_cells)
        except gd.NotReached as exc:
            raise NumericalFailure(str(exc))
        peak = max(result.dispersions)
        rows = [(_fmt(a), _fmt(v), int(v < gd.ABS_THRESHOLD), int(v < gd.REL_THRESHOLD * peak))
                for a, v in zip(result.alphas, result.dispersions)]
        header = self.echo(alphas=alphas, alpha_t_abs=result.alpha_t_abs,
                           alpha_t_rel=result.alpha_t_rel)
        return header, ("alpha", "dispersion", "below_abs", "below_rel"), rows, 0

    def map_cells(self, cell, keys):
        values, failed = _run_cells(cell, keys, 1, self.threads)
        if any(failed):
            raise NumericalFailure(f"{sum(failed)} of {len(keys)} scan runs failed")
        return values


COMMANDS = {"se-curve": SeCurve, "phase-diagram": PhaseDiagram, "gamp": Gamp,
            "denoise-mc": DenoiseMc, "gd": Gd, "gd-scan": GdScan}


def _float_list(value):
    """A JSON list or a comma/space separated string -> list of floats."""
    items = value if isinstance(value, list) else str(value).replace(",", " ").split()
    return [float(v) for v in items]


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
        kind = fields[name].type
        if fields[name].metadata.get("raw"):
            continue
        try:
            values[name] = _float_list(value) if kind is list else kind(value)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{name}: {exc}")
    missing = [f"--{n}" for n, f in fields.items() if f.metadata.get("required")
               and values.get(n) is None]
    if missing:
        raise UsageError("needs " + " and ".join(missing))
    return cls(**values)


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
    """Order-preserving map of ``cell(**key)`` over ``keys`` on a process pool.

    A cell that raises gets ``width`` NaN values, and ``cell <key>:
    <reason>`` goes to stderr.  Returns the value tuples and a failure flag
    per key.
    """
    env = os.environ.get(THREADS_ENV)
    try:
        n_workers = max(1, int(env) if env is not None else threads or 1)
    except ValueError:
        raise UsageError(f"{THREADS_ENV} must be an integer, got {env!r}")
    if n_workers <= 1 or len(keys) <= 1:
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
