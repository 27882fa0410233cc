"""quadnet benchmark: sweep throughput and accuracy per workload.

    python3 perfbench/run.py --workload theory --seed 0 --seconds 20 --trace 0

Run from a checkout of the repository; quadnet is imported from its src/
directory, in this one process, with a single worker and numpy's default
BLAS threads.

--trace 0 measures the end-to-end metrics: set-up time in fresh processes,
then passes over the workload's sweep of cells until --seconds have passed,
each cell timed on its own and taken at its best pass.  --trace 1 runs the
sweep, the acceptance GAMP cells and a CLI slice, each cell once plain and
once with every quadnet layer wrapped in spans; it checks that both give
identical outputs and reports the per-layer metrics and the tracing
overhead.  Every cell's output is checked.  The last
line of standard output is one JSON object with the metrics; a fuller record
(run record, notes, spans) goes to .perfbench/ in the checkout.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
MIN_PASSES = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("theory", "dense-mc"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# --- run record ---------------------------------------------------------------


def _git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_record(args):
    import numpy
    import scipy

    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "quadnet").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --- running cells ------------------------------------------------------------


def attempt(workloads, cell):
    """(output, None) or (None, reason) when the cell raised."""
    try:
        return workloads.run_cell(cell), None
    except Exception as exc:  # a failing cell is counted, the sweep goes on
        return None, f"{cell.kind}{cell.args}: {type(exc).__name__}: {exc}"


def check_all(workloads, cells, outputs, errors, refs):
    failures = [e for e in errors if e is not None]
    for cell, out, err in zip(cells, outputs, errors):
        if err is None:
            reason = workloads.check_cell(cell, out, refs)
            if reason is not None:
                failures.append(reason)
    return failures


def setup_probe(args):
    """Wall time of one fresh process that imports quadnet and builds the sweep."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return dt


def tail(times):
    """The highest percentile with at least 10 cells beyond it: (value, percentile)."""
    s = sorted(times)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def timed_run(args, workloads, reference):
    refs = workloads.References()
    cells = workloads.SWEEPS[args.workload](args.seed)
    n = len(cells)
    ref = reference.Reference()
    setup_probe(args)  # warms the file cache
    attempt(workloads, cells[0])  # lazy imports and first-call set-up

    # The sweep runs pass after pass while the next pass still fits in
    # --seconds.  Other tenants of the host slow it by up to half, for
    # seconds at a time; they only ever add time.  So each cell's time is its
    # best over the passes, which spread its samples over the whole run.  The
    # reference kernel runs at the start of each pass and about once a
    # second, for the host's speed over the run (see reference.py).  Set-up
    # processes run between the first passes, so their samples spread over
    # the run too.
    times = [[] for _ in cells]
    outputs, errors, pass_s, setup_s = None, [], [], []
    changed, last_ref = 0, 0.0
    while len(pass_s) < MIN_PASSES or sum(pass_s) + pass_s[-1] <= args.seconds:
        if len(setup_s) < SETUP_REPEATS:
            setup_s.append(setup_probe(args))
        p0 = time.perf_counter()
        outs = []
        for i, cell in enumerate(cells):
            if i == 0 or time.perf_counter() - last_ref > 1.0:
                ref.sample()
                last_ref = time.perf_counter()
            t0 = time.perf_counter()
            out, err = attempt(workloads, cell)
            times[i].append(time.perf_counter() - t0)
            outs.append(out)
            if outputs is None:
                errors.append(err)
        pass_s.append(time.perf_counter() - p0)
        if outputs is None:
            outputs = outs
        else:
            changed += sum(repr(a) != repr(b) for a, b in zip(outputs, outs))
    while len(setup_s) < SETUP_REPEATS:
        setup_s.append(setup_probe(args))

    failures = check_all(workloads, cells, outputs, errors, refs)
    if changed:
        failures.append(f"{changed} cell outputs changed between passes")
    gap = (workloads.gap_vs_theory(cells, outputs, refs)
           if all(e is None for e in errors) else float("nan"))
    code, text = workloads.run_cli_slice(args.seed, OUT_DIR / f"cli-{args.workload}.csv")
    if workloads.cli_rows_mismatch(args.seed, code, text):
        failures.append("cli phase-diagram rows differ from direct calls")

    raw = [min(t) for t in times]
    scale = ref.scale()
    best = [t * scale for t in raw]
    tail_s, tail_pct = tail(best)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "cells_per_s": (n / sum(best), "cells/s"),
        "cell_s_p50": (statistics.median(best), "s"),
        "cell_s_tail": (tail_s, "s"),
        "gap_vs_theory": (gap, "dimensionless"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "passes": len(pass_s),
        "cells": n,
        "failed_frac": len(failures) / (n + 1),
        "tail_percentile": tail_pct,
        "reference_samples": len(ref.samples),
        "reference_q1_s": ref.quartile_s(),
        "reference_scale": scale,
        "wall_cells_per_s": n / sum(raw),
        "wall_cell_s_p50": statistics.median(raw),
        "wall_cell_s_tail": tail(raw)[0],
        "pass_s": pass_s,
        "setup_s": setup_s,
    }
    if args.workload == "dense-mc":
        notes["denoise_z_max"] = workloads.denoise_z_max(cells, outputs)
    return metrics, notes, n * len(pass_s) + 1, failures, None


def traced_run(args, workloads, tracing):
    refs = workloads.References()
    cells = workloads.SWEEPS[args.workload](args.seed)
    gcells = workloads.gamp_slice(args.seed)
    attempt(workloads, cells[0])

    tracer = tracing.Tracer()

    def run_pairs(todo, root):
        """Each cell plain and traced back to back, alternating which goes
        first, so a passing slowdown hits both sides alike.  Returns outputs,
        errors and seconds, each keyed by whether the run was traced."""
        outs, errs, secs = {False: [], True: []}, {False: [], True: []}, {False: 0.0, True: 0.0}
        for i, cell in enumerate(todo):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                t0 = time.perf_counter()
                if traced:
                    with tracing.patched(tracer), tracer.span(root):
                        out, err = attempt(workloads, cell)
                else:
                    out, err = attempt(workloads, cell)
                secs[traced] += time.perf_counter() - t0
                outs[traced].append(out)
                errs[traced].append(err)
        return outs, errs, secs

    outs, errs, secs = run_pairs(cells, "cell")
    gouts, gerrs, _ = run_pairs(gcells, "slice.gamp")
    plain, plain_err, plain_s = outs[False] + gouts[False], errs[False] + gerrs[False], secs[False]
    traced, traced_err, traced_s = outs[True] + gouts[True], errs[True] + gerrs[True], secs[True]
    cli_plain = workloads.run_cli_slice(args.seed, OUT_DIR / f"cli-{args.workload}-plain.csv")
    with tracing.patched(tracer), tracer.span("cli.main"):
        cli_traced = workloads.run_cli_slice(args.seed, OUT_DIR / f"cli-{args.workload}-traced.csv")

    failures = check_all(workloads, cells + gcells, plain, plain_err, refs)
    failures += check_all(workloads, cells + gcells, traced, traced_err, refs)
    differ = sum(repr(a) != repr(b) for a, b in zip(plain, traced))
    if differ:
        failures.append(f"{differ} cells gave different outputs traced and untraced")
    if cli_traced != cli_plain:
        failures.append("cli output differs traced and untraced")
    rows_mismatch = workloads.cli_rows_mismatch(args.seed, *cli_traced)
    if rows_mismatch:
        failures.append(f"cli phase-diagram: {rows_mismatch} rows differ from direct calls")

    metrics = tracing.layer_metrics(tracer.spans, "cell", "slice.gamp")
    if all(e is None for e in gerrs[True]):
        final_gap, best_final_gap = workloads.gamp_summary(gcells, gouts[True], refs)
    else:
        final_gap = best_final_gap = float("nan")
    metrics.update({
        "gamp.final_gap": (final_gap, "dimensionless"),
        "gamp.best_final_gap": (best_final_gap, "dimensionless"),
        "cli.rows_mismatch": (rows_mismatch, "count"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "trace.overhead_frac": ((traced_s - plain_s) / plain_s, "ratio"),
    })
    notes = {"cells": len(cells), "gamp_cells": len(gcells), "untraced_s": plain_s,
             "traced_s": traced_s, "spans": len(tracer.spans)}
    attempted = 2 * (len(cells) + len(gcells)) + 2
    return metrics, notes, attempted, failures, tracer.spans


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "quadnet" / "__init__.py").is_file():
        print(f"error: quadnet sources not found in {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("QUADNET_THREADS", None)  # the CLI slice must run one worker
    OUT_DIR.mkdir(exist_ok=True)

    import reference
    import tracing
    import workloads

    if args.trace:
        metrics, notes, attempted, failures, spans = traced_run(args, workloads, tracing)
    else:
        metrics, notes, attempted, failures, spans = timed_run(args, workloads, reference)
    record = run_record(args)

    print(f"# quadnet benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print("# notes " + json.dumps(notes, sort_keys=True))
    for reason in failures[:20]:
        print(f"# FAILED {reason}")
    print("# run " + json.dumps(record, sort_keys=True))
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"record": record, "metrics": metrics, "notes": notes,
                   "failures": failures, "spans": spans}, fh)

    correct = not failures and all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
