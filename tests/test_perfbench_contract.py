"""The benchmark's traced run (perfbench/tracing.py) wraps quadnet functions
by name and reads their arguments.  These tests fail when a change in
quadnet would break a traced run."""

import importlib.util
import pathlib

import numpy as np

from quadnet import freeprob, matdenoise, state_evolution
from quadnet.freeprob import PriorSpectrum

_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_every_target_exists():
    for owner, attr, name, _ in tracing._TARGETS:
        assert attr in vars(owner), name


def test_traced_shrinker_is_bit_identical_and_counted():
    prior = PriorSpectrum.marchenko_pastur(0.5)
    spec = matdenoise.DenoiseSpec.create(prior, 0.1)
    lo, hi = spec.rho.intervals[0][0], spec.rho.intervals[-1][1]
    on = np.concatenate([x[100:-100:50] for x in spec.rho.x])
    lam = np.concatenate([[lo - 1.0], on, [hi + 0.5, hi + 2.0]])
    plain = (matdenoise.shrink(spec, lam), freeprob.hilbert(prior, 0.1, lam, spec.rho))
    hilbert = freeprob.hilbert
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        traced = (matdenoise.shrink(spec, lam), freeprob.hilbert(prior, 0.1, lam, spec.rho))
    assert freeprob.hilbert is hilbert
    for a, b in zip(plain, traced):
        assert np.array_equal(a, b)
    assert [s["name"] for s in tracer.spans] == [
        "matdenoise.shrink", "freeprob.hilbert", "freeprob.hilbert"]
    for s in tracer.spans[1:]:
        assert s["counts"] == {"points": len(lam), "offsupport": 3}


def test_density_counter_counts_nodes_of_an_unformed_build():
    # the counter reads dens.x, which a Marchenko-Pastur build forms on
    # first read: it still counts every node of every interval
    dens = freeprob.density(PriorSpectrum.marchenko_pastur(0.5), 1e-3)
    assert len(dens.intervals) == 2 and dens.pending is not None
    counts = {}
    tracing._count_density(counts, (dens.prior, dens.t), {}, dens)
    assert counts == {"nodes": 2 * freeprob.DEFAULT_NODES}


def test_traced_solve_qhat_is_bit_identical():
    # the traced run forms x after each density span closes; the solve's
    # outputs do not move
    params = state_evolution.ProblemParams(alpha=0.3, kappa=0.5, delta=0.1)
    plain = state_evolution.solve_qhat(params, with_free_entropy=True)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        traced = state_evolution.solve_qhat(params, with_free_entropy=True)
    assert repr(traced) == repr(plain)
    builds = [s for s in tracer.spans if s["name"] == "freeprob.density"]
    assert len(builds) >= traced.iterations
    assert all(s["counts"]["nodes"] % freeprob.DEFAULT_NODES == 0 for s in builds)
