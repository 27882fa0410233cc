"""Acceptance suite: one test per headline claim, at desk scale.

Each test aggregates its subchecks and fails with a table of every measured
value, so a single -v line answers pass/fail per claim and the assertion
message carries the numbers.  The gradient-descent phenomenology study is
report-only and lives behind the slow marker; see its docstring.
"""

import csv
import json
import math

import numpy as np
import pytest

from quadnet import cli, freeprob, gamp, gd, matdenoise, model
from quadnet import state_evolution as se
from quadnet.freeprob import PriorSpectrum, density
from quadnet.state_evolution import ProblemParams, solve_qhat

from oracles import interp, sigma_t_derivative


def _check(failures, ok, label):
    if not ok:
        failures.append(label)


# --- noiseless MMSE curve: threshold locations and slopes ---


def test_perfect_recovery_thresholds():
    cases = [(0.25, 0.21875), (0.5, 0.375), (1.0, 0.5), (2.0, 0.5)]
    failures = []
    for kappa, expected in cases:
        assert se.perfect_recovery_threshold(kappa) == pytest.approx(expected)
        crossed = se.threshold_alpha(kappa, level=1e-3)
        _check(
            failures,
            abs(crossed - expected) < 0.01,
            f"kappa={kappa}: solver crossing {crossed:.5f} vs {expected}",
        )
    assert not failures, "\n".join(failures)


def test_mmse_slope_at_threshold():
    assert se.mmse_slope_at_pr(0.5) == pytest.approx(-2.0)
    failures = []
    h = 1e-3
    for kappa in (0.3, 0.5, 0.7, 1.5, 3.0):
        a_pr = se.perfect_recovery_threshold(kappa)
        m = solve_qhat(
            ProblemParams(alpha=a_pr - h, kappa=kappa), with_free_entropy=False
        ).mmse
        fd = -m / h
        closed = se.mmse_slope_at_pr(kappa)
        rel = abs(fd - closed) / abs(closed)
        _check(
            failures,
            rel < 0.05,
            f"kappa={kappa}: fd slope {fd:.4f} vs closed {closed:.4f} (rel {rel:.3f})",
        )
    assert not failures, "\n".join(failures)


# --- narrow and wide aspect-ratio limits of the solved curve ---


def test_aspect_ratio_limits():
    """kappa -> 0 and kappa -> infinity limits of the solved MMSE curve.

    small_kappa_mmse is the kappa -> 0 limit, so the narrow block checks it
    as a limit: at fixed alpha/kappa the gap to it must shrink as kappa goes
    0.01 -> 0.003 -> 0.001 -> 0.0003, and be within the gate at the smallest
    kappa.
    """
    failures = []
    narrow_kappas = (0.01, 0.003, 0.001, 3e-4)
    for alpha_tilde in (0.6, 0.8, 1.2):
        lim = se.small_kappa_mmse(alpha_tilde)
        gaps = [
            solve_qhat(
                ProblemParams(alpha=alpha_tilde * k, kappa=k), with_free_entropy=False
            ).mmse
            - lim
            for k in narrow_kappas
        ]
        trail = ", ".join(f"kappa={k}: {g:+.4f}" for k, g in zip(narrow_kappas, gaps))
        _check(
            failures,
            all(abs(b) <= abs(a) for a, b in zip(gaps, gaps[1:])),
            f"narrow alpha/kappa={alpha_tilde}: gap to limit {lim:.4f} does not "
            f"shrink with kappa ({trail})",
        )
        _check(
            failures,
            abs(gaps[-1]) < 0.02,
            f"narrow kappa={narrow_kappas[-1]} alpha/kappa={alpha_tilde}: "
            f"gap {gaps[-1]:+.4f} to limit {lim:.4f} ({trail})",
        )
    for alpha in (0.1, 0.3, 0.45):
        m = solve_qhat(
            ProblemParams(alpha=alpha, kappa=50.0), with_free_entropy=False
        ).mmse
        lim = max(1.0 - 2.0 * alpha, 0.0)
        _check(
            failures,
            abs(m - lim) < 0.02,
            f"wide kappa=50 alpha={alpha}: solver {m:.4f} vs limit {lim:.4f}",
        )
    for kappa in (0.5, 2.0):
        m = solve_qhat(
            ProblemParams(alpha=1e-4, kappa=kappa), with_free_entropy=False
        ).mmse
        _check(
            failures,
            abs(m - 1.0) < 1e-3,
            f"no-data kappa={kappa}: mmse {m:.6f} should be 1",
        )
    assert not failures, "\n".join(failures)


# --- the two fixed-point routes and the free-entropy landscape agree ---


def test_fixed_point_solvers_agree():
    failures = []
    for kappa in (0.3, 0.7, 1.5):
        for alpha in (0.05, 0.1, 0.15, 0.2, 0.3):
            p = ProblemParams(alpha=alpha, kappa=kappa, delta=0.1)
            fp_ = solve_qhat(p, with_free_entropy=False)
            q_iter = gamp.state_evolution_iterate(p)[-1][0]
            _check(
                failures,
                abs(q_iter - fp_.q) < 1e-5,
                f"({alpha}, {kappa}): iterate {q_iter:.8f} vs solve {fp_.q:.8f}",
            )
            qs = np.linspace(p.q_min, p.q0, 17)
            vals = [se.free_entropy(p, q) for q in qs]
            q_grid = qs[int(np.argmax(vals))]
            step = qs[1] - qs[0]
            _check(
                failures,
                abs(q_grid - fp_.q) <= step + 1e-12,
                f"({alpha}, {kappa}): free-entropy argmax {q_grid:.4f} "
                f"vs {fp_.q:.4f}, grid step {step:.4f}",
            )
    assert not failures, "\n".join(failures)


# --- matrix denoiser against Monte Carlo at d=500 ---


def test_denoiser_monte_carlo():
    d, reps = 500, 16
    failures = []
    for kappa in (0.5, 1.0):
        prior = PriorSpectrum.marchenko_pastur(kappa)
        for delta in (0.1, 0.5, 1.0):
            spec = matdenoise.DenoiseSpec.create(prior, delta)
            primary, secondary = matdenoise.mmse_forms(spec)
            gap = abs(primary - secondary)
            _check(
                failures,
                gap < 1e-4,
                f"kappa={kappa} delta={delta}: analytic forms differ by {gap:.2e}",
            )
            mses = []
            for rep in range(reps):
                rng = np.random.default_rng(
                    [rep, int(kappa * 100), int(delta * 100)]
                )
                S = matdenoise.sample_wishart(d, kappa, rng)
                R = S + math.sqrt(delta) * matdenoise.sample_goe(d, rng)
                S_hat = matdenoise.denoise_matrix(spec, R)
                mses.append(float(np.sum((S_hat - S) ** 2) / d))
            mc = float(np.mean(mses))
            stderr = float(np.std(mses, ddof=1) / math.sqrt(reps))
            _check(
                failures,
                abs(mc - primary) <= 3.0 * stderr,
                f"kappa={kappa} delta={delta}: mc {mc:.6f} vs theory "
                f"{primary:.6f} ({abs(mc - primary) / stderr:.1f} stderr)",
            )
    assert not failures, "\n".join(failures)


# --- message passing against the asymptotic curve and its tracker ---


def test_gamp_matches_asymptotic_mmse():
    """Mean MSE over 8 seeds at d=100 vs the asymptotic MMSE, per cell.

    The tolerance is max(0.03, 3 stderr).  At this dimension the estimator
    carries a finite-size gap that shrinks like 1/d (see the per-iteration
    tracking test, which passes at d=200 with the same code); cells close
    to the threshold exceed the desk-scale tolerance.
    """
    d, kappa, n_seeds = 100, 0.5, 8
    cells = [(a, 0.0) for a in (0.15, 0.25, 0.35, 0.45)]
    cells += [(a, 0.0625) for a in (0.2, 0.4, 0.6)]
    failures = []
    for alpha, delta in cells:
        p = ProblemParams(alpha=alpha, kappa=kappa, delta=delta)
        theory = solve_qhat(p, with_free_entropy=False).mmse
        mses = []
        for seed in range(n_seeds):
            inst = model.generate(d=d, kappa=kappa, alpha=alpha, delta=delta, seed=seed)
            dataset = model.reduce(inst)
            opts = gamp.GampOptions(seed=seed, s_star=inst.S_star)
            _, state = gamp.run(dataset, p, opts)
            mses.append(model.matrix_mse(state.S_hat, inst.S_star, kappa))
        mean = float(np.mean(mses))
        stderr = float(np.std(mses, ddof=1) / math.sqrt(n_seeds))
        limit = max(0.03, 3.0 * stderr)
        _check(
            failures,
            abs(mean - theory) <= limit,
            f"alpha={alpha} delta={delta}: mean {mean:.4f} vs theory "
            f"{theory:.4f} (dev {mean - theory:+.4f}, limit {limit:.4f})",
        )
    assert not failures, "\n".join(failures)


def test_gamp_tracks_state_evolution(monkeypatch):
    params = ProblemParams(alpha=0.3, kappa=0.5)
    trace = gamp.state_evolution_iterate(params)
    predicted = [params.kappa * (params.q0 - q) for q, _ in trace[:10]]
    inst = model.generate(d=200, kappa=0.5, alpha=0.3, delta=0.0, seed=11)
    dataset = model.reduce(inst)
    monkeypatch.setattr(gamp, "FIXED_POINT_TOL", 0.0)
    opts = gamp.GampOptions(max_iter=10, seed=11, s_star=inst.S_star)
    _, state = gamp.run(dataset, params, opts)
    devs = [abs(m - p) for m, p in zip(state.mse_trace, predicted)]
    assert max(devs) < 0.05, f"per-iteration deviations {devs}"


# --- spectral-density property grid ---


def _pv_oracle(dens, lam):
    # principal value of int rho(s)/(lam - s) ds by symmetric pairing;
    # the folded integrand is smooth at the singularity
    lo = min(l for l, _ in dens.intervals)
    hi = max(u for _, u in dens.intervals)
    u = np.geomspace(1e-8, max(lam - lo, hi - lam) + 1.0, 6000)

    def rho_at(pts):
        v = interp(dens, pts, dens.rho)
        return np.where(np.isfinite(v), v, 0.0)

    f = (rho_at(lam - u) - rho_at(lam + u)) / u
    return float(np.trapezoid(f * u, np.log(u)))


def test_density_property_grid():
    priors = [
        PriorSpectrum.marchenko_pastur(0.5),
        PriorSpectrum.marchenko_pastur(2.0),
        PriorSpectrum.compound_poisson(0.7, ((0.5, 0.3), (1.0, 0.4), (2.0, 0.3))),
    ]
    failures = []
    for pi, prior in enumerate(priors):
        for t in (0.1, 0.5, 1.0):
            tag = f"prior#{pi} t={t}"
            dens = density(prior, t)
            _check(failures, abs(dens.mass() - 1.0) < 1e-4, f"{tag}: mass {dens.mass():.6f}")
            m2 = dens.integrate([r * x * x for r, x in zip(dens.rho, dens.x)])
            want = prior.second_moment + t
            _check(
                failures,
                abs(m2 - want) < 1e-3,
                f"{tag}: second moment {m2:.5f} vs {want:.5f}",
            )
            ref = density(prior, t, n_nodes=4001).cube_integral()
            rel = abs(dens.cube_integral() - ref) / abs(ref)
            _check(failures, rel < 1e-5, f"{tag}: cube integral rel {rel:.2e}")
            xs = np.concatenate(dens.x)
            rs = np.concatenate(dens.rho)
            lam = float(xs[int(np.argmax(rs))])
            hv = freeprob.hilbert(prior, t, lam, dens)
            pv = _pv_oracle(dens, lam)
            _check(
                failures,
                abs(hv - pv) < 1e-4,
                f"{tag}: hilbert {hv:.6f} vs pv oracle {pv:.6f}",
            )
            dt = 1e-3
            fd = (
                freeprob.log_potential(density(prior, t + dt))
                - freeprob.log_potential(density(prior, t - dt))
            ) / (2.0 * dt)
            an = sigma_t_derivative(prior, t)
            _check(
                failures,
                abs(an - fd) / abs(fd) < 1e-3,
                f"{tag}: sigma rate {an:.6f} vs fd {fd:.6f}",
            )
    assert not failures, "\n".join(failures)


# --- gradient-descent phenomenology (report only) ---


@pytest.mark.slow
def test_gd_phenomenology_report(tmp_path, capsys):
    """Landscape phenomenology at reduced scale; prints a report, never red.

    Asymptotic targets: plain GD plateaus at about twice the MMSE, the
    average over initializations closes most of that gap, and the noiseless
    dispersion scan trivializes at the perfect-recovery threshold.  Full
    statistics need replica counts and step budgets far beyond a desk run,
    so measured values are printed next to their targets instead of
    asserted.  Run with -s (or read the captured section) for the numbers.
    """
    kappa, alpha = 0.5, 0.3
    mmse = solve_qhat(ProblemParams(alpha=alpha, kappa=kappa), with_free_entropy=False).mmse
    d, short, long = 150, 10000, 40000
    inst = model.generate(d=d, kappa=kappa, alpha=alpha, delta=0.0, seed=1)
    at_short, endpoints = [], []
    for init_seed in (2, 3, 4):
        # descent is deterministic after the init draw, so the short run
        # replays the long trajectory's prefix and gives a mid checkpoint
        S_s, _ = gd.gd_run(inst, gd.GdConfig(max_steps=short, seed=init_seed))
        at_short.append(model.matrix_mse(S_s, inst.S_star, kappa))
        S_hat, _ = gd.gd_run(inst, gd.GdConfig(max_steps=long, seed=init_seed))
        endpoints.append((S_hat, model.matrix_mse(S_hat, inst.S_star, kappa)))
    gd_mse = float(np.mean([m for _, m in endpoints]))
    m_short = float(np.mean(at_short))
    # 1/sqrt(t) tail through (short, 4*short) checkpoints
    extrapolated = 2.0 * gd_mse - m_short
    S_bar = np.mean([S for S, _ in endpoints], axis=0)
    agd_mse = model.matrix_mse(S_bar, inst.S_star, kappa)
    lines = [
        f"d={d} kappa={kappa} alpha={alpha} noiseless, 3 inits, {long} steps",
        f"  mmse            {mmse:.4f}",
        f"  gd mse          {gd_mse:.4f}  ratio {gd_mse / mmse:.2f}  (target 1.7..2.3)",
        f"    at {short:5d} steps {m_short:.4f}; still decreasing at the cap;"
        f" sqrt-tail limit {extrapolated:.4f}  ratio {extrapolated / mmse:.2f}",
        f"  agd mse         {agd_mse:.4f}  dev {agd_mse - mmse:+.4f}  (target |dev| <= 0.05)",
    ]
    scan = tmp_path / "scan.csv"
    argv = ["gd-scan", "--d", "30", "--kappa", str(kappa), "--delta", "0",
            "--alphas", "0.3,0.4,0.45,0.55", "--n-inits", "2", "--max-steps", "200000",
            "--seed", "3", "--out", str(scan)]
    if cli.main(argv) == 0:
        text = scan.read_text().splitlines()
        header, rows = json.loads(text[0][2:])["config"], list(csv.DictReader(text[1:]))
        a_pr = se.perfect_recovery_threshold(kappa)
        lines.append(
            "  trivialization  "
            + "  ".join(f"a={r['alpha']}:{float(r['dispersion']):.2e}" for r in rows)
        )
        lines.append(
            f"  alpha_T {header['alpha_t_abs']}  vs alpha_PR {a_pr}  (grid step 0.05..0.1)"
        )
    else:
        reason = capsys.readouterr().err.strip().splitlines()[-1]
        lines.append(f"  trivialization not reached on this grid: {reason}")
    report = "\n".join(lines)
    with capsys.disabled():
        print("\n" + report)
    assert np.isfinite(gd_mse) and np.isfinite(agd_mse)


# --- command line reproducibility ---


def _run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    rc = cli.main(argv + ["--out", str(out)])
    assert rc == 0
    return out.read_bytes()


def test_cli_reproducibility(tmp_path):
    pairs = {
        "theory": ["se-curve", "--alphas", "0.1,0.3", "--kappas", "0.5"],
        "mc-gamp": [
            "gamp", "--d", "40", "--kappa", "0.5", "--alphas", "0.2",
            "--delta", "0", "--n-seeds", "1", "--seed", "5",
        ],
        "mc-denoise": [
            "denoise-mc", "--d", "60", "--kappas", "0.5", "--deltas", "0.5",
            "--reps", "2", "--seed", "3",
        ],
        "mc-gd": [
            "gd", "--d", "25", "--kappa", "0.5", "--alphas", "0.3",
            "--delta", "0", "--max-steps", "500", "--seed", "2",
        ],
    }
    failures = []
    for tag, argv in pairs.items():
        a = _run_to_file(tmp_path, f"{tag}-a.csv", list(argv))
        b = _run_to_file(tmp_path, f"{tag}-b.csv", list(argv))
        _check(failures, a == b, f"{tag}: reruns differ")
    assert not failures, "\n".join(failures)
