"""Acceptance suite: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line on the real terminal (capture
disabled for that line only) and then asserts, so a plain `pytest -v` run
shows the twelve verdicts even when everything is green.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from proxsure.config import parse_config
from proxsure.data import add_noise, generate_subspace_data
from proxsure.jacobian import (
    accumulate_jacobian,
    jacobian_trace_exact,
    path_expansion,
)
from proxsure.network import flatten_weights, forward_map, random_stack, unroll_forward
from proxsure.operators import StepParams, identity_operator
from proxsure.risk import dof_monte_carlo
from proxsure.sweep import run_cell, run_sweep
from proxsure.train import loss_and_gradients
from proxsure.verify import (
    verify_jacobian,
    verify_lemma2,
    verify_lemma3,
    verify_lemma4,
    verify_sure_unbiased,
    verify_theorem1,
    verify_theorem1_trained,
)
from reference import _sample_regular_input, stack_with_weights

STEP0 = StepParams("gradient", 0.0)


@pytest.fixture
def announce(capfd):
    def _announce(ok, label):
        with capfd.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {label}", flush=True)
        assert ok, label

    return _announce


def test_path_expansion_identity_random_nets(announce):
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(4, 33))
        ell = int(rng.integers(1, 17))
        T = 1 + trial % 10
        stack = random_stack(n, [ell], T=T, mode="ws", symmetric=True,
                             seed=trial)
        op = identity_operator(n)
        y = rng.standard_normal(n)
        _, tr = unroll_forward(y, stack, op, STEP0, record=True)
        J = accumulate_jacobian(tr, stack, op, STEP0)
        terms = path_expansion(tr, stack)
        alternating = float(n) + sum(
            (-1.0) ** len(t.index_set) * t.trace_exact for t in terms
        )
        worst = max(worst, abs(jacobian_trace_exact(J) - alternating) / n)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 60.0
    announce(ok, f"path-expansion identity on 200 random nets "
                 f"(max |gap|/n = {worst:.2e}, {elapsed:.1f}s)")


def test_surrogate_exact_for_orthonormal_rows(announce):
    report = verify_theorem1(trials=20)
    announce(report.passed,
             f"surrogate trace exact at zero coherence "
             f"(max gap {report.max_violation:.2e} <= {report.tolerance:.1e})")


def test_random_mask_path_deviation_bound(announce):
    report = verify_lemma4(trials=100)
    announce(report.passed,
             f"path deviation within coherence bound on 100 random-mask "
             f"trials (max ratio {report.details['max_ratio']:.3f})")


def test_trained_net_surrogate_bound(announce):
    report = verify_theorem1_trained()
    ok = report.passed and report.details["checked"] > 0
    announce(ok,
             f"trained-net surrogate deviation within bound "
             f"({report.details['checked']} checked, "
             f"{report.details['exempt']} exempt)")


def test_jacobian_matches_finite_differences(announce):
    report = verify_jacobian(trials=20)
    announce(report.passed,
             f"Jacobian trace vs finite differences over {report.trials} "
             f"inputs (max rel err {report.max_violation:.2e})")


def test_gradients_match_central_differences(announce):
    n = 6
    op = identity_operator(n)
    step = StepParams("gradient", 0.5)
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng([77, seed])
        x = rng.standard_normal((3, n))
        y = x + 0.2 * rng.standard_normal((3, n))
        for mode in ("ws", "wc"):
            stack = random_stack(n, [4], T=2, mode=mode, symmetric=True,
                                 seed=seed)
            _, analytic = loss_and_gradients(stack, x, y, op, step)
            weights = flatten_weights(stack)
            h = 1e-5
            for wi, W in enumerate(weights):
                for idx in np.ndindex(W.shape):
                    num = 0.0
                    for sign in (1.0, -1.0):
                        bumped = [w.copy() for w in weights]
                        bumped[wi][idx] += sign * h
                        loss, _ = loss_and_gradients(
                            stack_with_weights(stack, bumped), x, y, op, step
                        )
                        num += sign * loss / (2 * h)
                    scale = 1.0 + abs(num)
                    worst = max(worst, abs(analytic[wi][idx] - num) / scale)
    announce(worst <= 1e-4,
             f"analytic gradients vs central differences, 10 seeds x 2 "
             f"modes (max rel err {worst:.2e})")


def test_sure_tracks_mse_over_noise_draws(announce):
    started = time.perf_counter()
    report = verify_sure_unbiased(draws=2000)
    elapsed = time.perf_counter() - started
    ok = report.passed and elapsed < 120.0
    announce(ok,
             f"mean SURE vs mean MSE over 2000 draws "
             f"(|gap| {report.max_violation:.4f} <= 3SE "
             f"{report.tolerance:.4f}, {elapsed:.1f}s)")


def test_monte_carlo_dof_convergence(announce):
    n = 16
    op = identity_operator(n)
    stack = random_stack(n, [8], T=3, mode="ws", symmetric=True, seed=3)
    rng = np.random.default_rng(11)
    y = _sample_regular_input(stack, op, STEP0, rng)
    h = forward_map(stack, op, STEP0)
    _, tr = unroll_forward(y, stack, op, STEP0, record=True)
    exact = jacobian_trace_exact(accumulate_jacobian(tr, stack, op, STEP0))
    err16, err1024, covered = [], [], 0
    for seed in range(50):
        err16.append(abs(dof_monte_carlo(h, y, 16, seed=seed)[0] - exact))
        err1024.append(abs(dof_monte_carlo(h, y, 1024, seed=seed)[0] - exact))
        est, se = dof_monte_carlo(h, y, 4096, seed=seed)
        covered += abs(est - exact) <= 3.0 * se
    med16 = float(np.median(err16))
    med1024 = float(np.median(err1024))
    ok = med1024 < med16 and covered >= 48
    announce(ok,
             f"MC DOF convergence (median err {med16:.3f} @16 -> "
             f"{med1024:.3f} @1024; {covered}/50 within 3SE @4096)")


def test_spectral_dof_matches_brute_force(announce):
    report = verify_lemma2()
    announce(report.passed,
             f"closed-form spectral weights vs brute-force subsets "
             f"(max gap {report.max_violation:.2e})")


def test_fixed_point_projector_and_dof(announce):
    report = verify_lemma3(trials=50)
    announce(report.passed,
             f"fixed-point projector and support DOF on "
             f"{report.details['converged']}/50 converged trials "
             f"({report.details['strictly_exact']} strictly exact)")


TREND_CONFIG = """\
n = 32
data.rank = 4
sigma = 0.2
n_train_grid = [16, 64, 256, 1024, 4096]
n_test = 128
model.hidden = [64]
model.iterations = 3
model.mode = ["ws", "wc"]
optimizer.epochs = 400
optimizer.lr_grid = [0.001, 0.003]
optimizer.max_steps = 2500
seeds = [0, 1, 2, 3, 4]
"""


def test_risk_trends_over_training_set_size(announce):
    started = time.perf_counter()
    cfg = parse_config(TREND_CONFIG)
    n, sigma = cfg.n, cfg.sigma[0]
    grid = cfg.n_train_grid
    mse, dof, nrss = {}, {}, {}
    for mode in ("ws", "wc"):
        mse[mode], dof[mode], nrss[mode] = [], [], []
        for N in grid:
            rows = [run_cell(cfg, mode, sigma, N, s) for s in cfg.seeds]
            mse[mode].append(np.mean([r["test_mse"] for r in rows]))
            dof[mode].append(np.mean([r["dof_exact_mean"] for r in rows]))
            nrss[mode].append(
                np.mean([r["rss_mean"] for r in rows]) / (n * sigma**2)
            )
    elapsed = time.perf_counter() - started
    sp = {m: spearmanr(dof[m], grid).statistic for m in dof}
    dof_increasing = all(v > 0.8 for v in sp.values())
    rss_near_unity = all(0.85 <= nrss[m][-1] <= 1.15 for m in nrss)
    ws_wins_small = all(mse["ws"][i] <= mse["wc"][i] for i in (0, 1))
    gap = abs(mse["ws"][-1] - mse["wc"][-1]) / mse["wc"][-1]
    modes_meet = gap <= 0.05
    ok = (dof_increasing and rss_near_unity and ws_wins_small and modes_meet
          and elapsed < 1800.0)
    announce(ok,
             "risk trends vs training-set size "
             f"(DOF spearman ws {sp['ws']:.2f} / wc {sp['wc']:.2f}; "
             f"RSS/n-sigma^2 @4096 ws {nrss['ws'][-1]:.3f} / "
             f"wc {nrss['wc'][-1]:.3f}; ws<=wc at small N {ws_wins_small}; "
             f"mode gap {100 * gap:.1f}%; {elapsed:.0f}s)")


DET_CONFIG = """\
n = 8
data.rank = 2
sigma = 0.2
n_train_grid = [8, 16]
n_test = 8
model.hidden = [4]
model.iterations = 2
model.mode = ["ws", "wc"]
optimizer.epochs = 2
optimizer.lr_grid = [0.003]
seeds = [0, 1]
"""

DETERMINISTIC_ARTIFACTS = ("sweep.csv", "summary.json", "schema.json",
                           "config.echo")


def test_artifact_determinism(announce, tmp_path):
    cfg = parse_config(DET_CONFIG)
    run_sweep(cfg, tmp_path / "a")
    run_sweep(cfg, tmp_path / "b")
    sweeps_match = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in DETERMINISTIC_ARTIFACTS
    )
    first = verify_theorem1(trials=5).to_json()
    second = verify_theorem1(trials=5).to_json()
    verify_match = first == second and json.loads(first)["pass"]
    ok = sweeps_match and bool(verify_match)
    announce(ok, "byte-identical sweep artifacts and verify reports on re-run")
