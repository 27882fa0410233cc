"""Span tracing for the benchmark's traced run.

quadnet itself has no instrumentation, so the traced run wraps its public
functions from outside: each wrapped call records a span (name, start, end,
parent) in memory, plus exact counts taken from its arguments and return
value at the same boundary.  Nothing is written until the run ends.

A span's self time is its duration minus the time covered by its child
spans.  Calls are single-threaded and properly nested, so the covered time
is the sum of the direct children's durations.
"""

import contextlib
import functools
import time

import numpy as np

from quadnet import cli, freeprob, gamp, gd, matdenoise, model, state_evolution
from quadnet.matdenoise import DenoiseSpec
from quadnet.model import ReducedDataset


class Tracer:
    """In-memory span recorder.

    ``spans`` holds one dict per call: name, start, end (perf_counter
    seconds), parent (index into ``spans`` or None), root (index of the
    outermost span) and counts (exact integers recorded at the boundary).
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block; yields the span's count dict."""
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        rec = {
            "name": name,
            "start": None,
            "end": None,
            "parent": parent,
            "root": idx if parent is None else self.spans[parent]["root"],
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(idx)
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, count=None):
        """fn with every call recorded as a span; count(counts, args, kwargs,
        result) fills the span's exact counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced


# --- exact counts taken at the wrapped boundaries ----------------------------


def _count_density(counts, args, kwargs, dens):
    counts["nodes"] = int(sum(len(x) for x in dens.x))


def _count_hilbert(counts, args, kwargs, result):
    lam = np.atleast_1d(np.asarray(args[2] if len(args) > 2 else kwargs["lam"], dtype=float))
    dens = args[3] if len(args) > 3 else kwargs.get("dens")
    inside = np.zeros(lam.shape, dtype=bool)
    if dens is not None:
        for lo, hi in dens.intervals:
            inside |= (lam >= lo) & (lam <= hi)
    counts["points"] = int(lam.size)
    counts["offsupport"] = int(lam.size - inside.sum())


def _count_solve_qhat(counts, args, kwargs, fp):
    counts["evals"] = int(fp.iterations)
    counts["supercritical"] = int(fp.status == "supercritical")


def _count_gamp_run(counts, args, kwargs, result):
    _, state = result
    counts["iters"] = int(state.iter)
    counts["unconverged"] = int(not state.converged)
    counts["v_floor_hits"] = int(state.n_v_floor)


def _count_se_iterate(counts, args, kwargs, trace):
    counts["steps"] = len(trace)


def _count_trace_products(counts, args, kwargs, result):
    # X @ S, then the row-wise dot with X: 2 n d^2 + 2 n d flop; reads X, S,
    # the n x d product and X again, writes the product and n outputs
    n, d = args[0].X.shape
    counts["flop"] = 2 * n * d * d + 2 * n * d
    counts["bytes"] = 8 * (4 * n * d + d * d + n)


def _count_weighted_sum(counts, args, kwargs, result):
    # g[:, None] * X, then X^T @ that: n d + 2 n d^2 flop; reads g, X twice
    # and the scaled copy, writes the copy and the d x d result
    n, d = args[0].X.shape
    counts["flop"] = n * d + 2 * n * d * d
    counts["bytes"] = 8 * (4 * n * d + n + d * d)


def _count_gd_run(counts, args, kwargs, result):
    _, loss_trace = result
    counts["steps"] = len(loss_trace) - 1


# (owner, attribute, span name, counter).  Every binding a caller looks up at
# call time is listed: cli imports solve_qhat by name, so it is patched there
# too.  Classmethods are unwrapped and rewrapped below.
_TARGETS = (
    (freeprob, "density", "freeprob.density", _count_density),
    (freeprob, "hilbert", "freeprob.hilbert", _count_hilbert),
    (DenoiseSpec, "create", "matdenoise.create", None),
    (np.linalg, "eigh", "matdenoise.eigh", None),
    (matdenoise, "shrink", "matdenoise.shrink", None),
    (matdenoise, "denoise_matrix", "matdenoise.denoise_matrix", None),
    (matdenoise, "mmse", "matdenoise.mmse", None),
    (state_evolution, "solve_qhat", "state_evolution.solve_qhat", _count_solve_qhat),
    (cli, "solve_qhat", "state_evolution.solve_qhat", _count_solve_qhat),
    (state_evolution, "threshold_alpha", "state_evolution.threshold_alpha", None),
    (state_evolution, "free_entropy", "state_evolution.free_entropy", None),
    (gamp, "run", "gamp.run", _count_gamp_run),
    (gamp, "state_evolution_iterate", "gamp.se_iterate", _count_se_iterate),
    (model, "generate", "model.generate", None),
    (ReducedDataset, "trace_products", "model.trace_products", _count_trace_products),
    (ReducedDataset, "weighted_sum", "model.weighted_sum", _count_weighted_sum),
    (gd, "gd_run", "gd.gd_run", _count_gd_run),
)


@contextlib.contextmanager
def patched(tracer):
    """Install the tracing wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count in _TARGETS:
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, count)))
            else:
                setattr(owner, attr, tracer.wrap(name, raw, count))
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# --- per-layer metrics --------------------------------------------------------


def _select(spans, name, root):
    return [s for s in spans if s["name"] == name and spans[s["root"]]["name"] == root]


def _dur(s):
    return s["end"] - s["start"]


def _total(spans, name, root):
    return sum(_dur(s) for s in _select(spans, name, root))


def _self_total(spans, name, root):
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += _dur(s)
    return sum(
        _dur(s) - child[i]
        for i, s in enumerate(spans)
        if s["name"] == name and spans[s["root"]]["name"] == root
    )


def _sum_count(spans, name, key, root):
    return sum(s["counts"].get(key, 0) for s in _select(spans, name, root))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, cell_root, gamp_root):
    """Per-layer metrics from the traced spans.

    Layers exercised by the workload's own cells are counted under
    ``cell_root`` spans.  GAMP and the model reduction are counted under
    ``gamp_root`` spans, and the CLI's own span is ``cli.main``.
    Returns {name: (value, unit)}.
    """
    c, g = cell_root, gamp_root
    n_solve = len(_select(spans, "state_evolution.solve_qhat", c))
    n_gamp = len(_select(spans, "gamp.run", g))
    iters = _sum_count(spans, "gamp.run", "iters", g)
    gamp_s = _total(spans, "gamp.run", g)
    gd_steps = _sum_count(spans, "gd.gd_run", "steps", c)
    gd_s = _total(spans, "gd.gd_run", c)
    model_flop = sum(
        _sum_count(spans, n, "flop", g) for n in ("model.trace_products", "model.weighted_sum")
    )
    model_bytes = sum(
        _sum_count(spans, n, "bytes", g) for n in ("model.trace_products", "model.weighted_sum")
    )
    return {
        "freeprob.density.calls": (len(_select(spans, "freeprob.density", c)), "count"),
        "freeprob.density.s": (_total(spans, "freeprob.density", c), "s"),
        "freeprob.density.nodes": (_sum_count(spans, "freeprob.density", "nodes", c), "count"),
        "freeprob.hilbert.calls": (len(_select(spans, "freeprob.hilbert", c)), "count"),
        "freeprob.hilbert.s": (_total(spans, "freeprob.hilbert", c), "s"),
        "freeprob.hilbert.offsupport_points": (
            _sum_count(spans, "freeprob.hilbert", "offsupport", c), "count"),
        "matdenoise.create.s": (_self_total(spans, "matdenoise.create", c), "s"),
        "matdenoise.eigh.s": (_total(spans, "matdenoise.eigh", c), "s"),
        "matdenoise.shrink.s": (_total(spans, "matdenoise.shrink", c), "s"),
        "matdenoise.denoise_matrix.s": (_self_total(spans, "matdenoise.denoise_matrix", c), "s"),
        "matdenoise.mmse.s": (_total(spans, "matdenoise.mmse", c), "s"),
        "state_evolution.solve_qhat.calls": (n_solve, "count"),
        "state_evolution.solve_qhat.s": (_total(spans, "state_evolution.solve_qhat", c), "s"),
        "state_evolution.solve_qhat.evals": (
            _sum_count(spans, "state_evolution.solve_qhat", "evals", c), "count"),
        "state_evolution.solve_qhat.supercritical_frac": (
            _ratio(_sum_count(spans, "state_evolution.solve_qhat", "supercritical", c), n_solve),
            "ratio"),
        "state_evolution.threshold_alpha.s": (
            _total(spans, "state_evolution.threshold_alpha", c), "s"),
        "state_evolution.free_entropy.s": (_total(spans, "state_evolution.free_entropy", c), "s"),
        "gamp.run.s": (gamp_s, "s"),
        "gamp.iters": (iters, "count"),
        "gamp.iter_s": (_ratio(gamp_s, iters), "s"),
        "gamp.unconverged_frac": (
            _ratio(_sum_count(spans, "gamp.run", "unconverged", g), n_gamp), "ratio"),
        "gamp.v_floor_hits": (_sum_count(spans, "gamp.run", "v_floor_hits", g), "count"),
        "gamp.se_iterate.s": (_total(spans, "gamp.se_iterate", c), "s"),
        "gamp.se_iterate.steps": (_sum_count(spans, "gamp.se_iterate", "steps", c), "count"),
        "model.generate.s": (_total(spans, "model.generate", g), "s"),
        "model.trace_products.s": (_total(spans, "model.trace_products", g), "s"),
        "model.weighted_sum.s": (_total(spans, "model.weighted_sum", g), "s"),
        "model.gflop": (model_flop / 1e9, "Gflop-computed"),
        "model.gbytes": (model_bytes / 1e9, "GB-computed"),
        "gd.gd_run.s": (gd_s, "s"),
        "gd.steps": (gd_steps, "count"),
        "gd.step_s": (_ratio(gd_s, gd_steps), "s"),
        "cli.main.s": (_total(spans, "cli.main", "cli.main"), "s"),
    }
