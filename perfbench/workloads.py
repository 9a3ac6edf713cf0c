"""The three benchmark workloads, driven through proxsure's public API.

Each workload has a `setup(seed, size, work_dir)` that builds every
input from the workload seed, and a `run_pass(state, workers)` that runs
the workload once, times each item, checks the outputs and returns a
`PassResult`.
Calls into the package always go through module attributes
(`network.unroll_forward`, not an imported name), so the tracer in
`tracing.py` sees them once it rebinds those attributes.

Sizes: "full" is what the benchmark measures; "smoke" is the smallest
size that still exercises every layer and every check, for the
harness's own test.
"""

from __future__ import annotations

import csv
import inspect
import math
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from proxsure import config, data, jacobian, network, operators, risk, sweep, verify


@dataclass
class PassResult:
    """One pass of a workload: when it ran, its items, checked outcomes.

    Items are timed either as perf_counter (start, end) stamps, so they
    can be calibrated like the pass, or as durations the program itself
    wrote (trend-sweep's cells).
    """

    start: float
    end: float = 0.0
    item_spans: list = field(default_factory=list)
    item_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    test_mse: list = field(default_factory=list)
    command_s: dict = field(default_factory=dict)  # verify-suite only
    rechecked: int = 0  # dof-analysis only


def _report_failure(what: str) -> None:
    print(f"FAILED {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _finite(*values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


# --- trend-sweep --------------------------------------------------------

# The trend configuration of the acceptance gate, cut to N in {256, 4096}
# and one cell seed per (mode, N).
TREND_CONFIG = {
    "full": """\
n = 32
data.rank = 4
sigma = 0.2
n_train_grid = [256, 4096]
n_test = 128
model.hidden = [64]
model.iterations = 3
model.mode = ["ws", "wc"]
optimizer.epochs = 400
optimizer.lr_grid = [0.001, 0.003]
optimizer.max_steps = 2500
seeds = [{seed}]
""",
    "smoke": """\
n = 8
data.rank = 2
sigma = 0.2
n_train_grid = [16, 64]
n_test = 8
model.hidden = [4]
model.iterations = 2
model.mode = ["ws", "wc"]
optimizer.epochs = 400
optimizer.lr_grid = [0.003]
optimizer.max_steps = 10
seeds = [{seed}]
""",
}

# Artifacts covered by the sweep's determinism contract.
DETERMINISTIC_ARTIFACTS = ("sweep.csv", "summary.json", "schema.json")


def step_budget(n_train: int, lr_grid, epochs: int, batch: int, max_steps) -> int:
    """Minibatch steps `train` takes over its learning-rate grid when no
    learning rate diverges."""
    per_lr = epochs * math.ceil(n_train / batch)
    if max_steps is not None and max_steps >= 0:
        per_lr = min(per_lr, max_steps)
    return len(lr_grid) * per_lr


class TrendSweep:
    name = "trend-sweep"
    min_passes = 2  # the determinism check compares two sweeps of one seed

    def setup(self, seed: int, size: str, work_dir: str):
        cell_seed = int(np.random.default_rng([seed, 1]).integers(2**31))
        cfg = config.parse_config(TREND_CONFIG[size].format(seed=cell_seed))
        os.makedirs(work_dir, exist_ok=True)
        return {"cfg": cfg, "work_dir": work_dir, "passes": 0, "reference": None}

    def cells(self, state) -> int:
        cfg = state["cfg"]
        return len(cfg.modes()) * len(cfg.sigma) * len(cfg.n_train_grid) * len(cfg.seeds)

    def expected_counts(self, state) -> dict:
        cfg = state["cfg"]
        steps = sum(
            step_budget(N, cfg.opt_lr_grid, cfg.opt_epochs, cfg.opt_batch, cfg.opt_max_steps)
            for _mode in cfg.modes()
            for _sigma in cfg.sigma
            for N in cfg.n_train_grid
            for _seed in cfg.seeds
        )
        return {"train.loss_and_gradients.calls": steps, "sweep.cells": self.cells(state)}

    def run_pass(self, state, workers: int) -> PassResult:
        cfg = state["cfg"]
        out_dir = os.path.join(state["work_dir"], f"sweep{state['passes']}")
        state["passes"] += 1
        result = PassResult(time.perf_counter())
        try:
            csv_path = sweep.run_sweep(cfg, out_dir, workers=workers)
        except Exception:
            _report_failure("trend-sweep: run_sweep raised")
            result.end = time.perf_counter()
            result.attempted = result.failed = self.cells(state)
            return result
        result.end = time.perf_counter()

        with open(os.path.join(out_dir, "timings.csv")) as f:
            next(f)
            result.item_ms = [1000.0 * float(line.split(",")[1]) for line in f]
        with open(csv_path, newline="") as f:
            rows = list(csv.DictReader(f))
        for row in rows:
            result.attempted += 1
            values = [float(row[c]) for c in ("test_mse", "rss_mean", "dof_exact_mean")]
            if row["status"] != "ok" or not _finite(*values):
                print(f"FAILED trend-sweep cell {row['mode']}/{row['n_train']}: "
                      f"status {row['status']}, values {values}", file=sys.stderr)
                result.failed += 1
            else:
                result.test_mse.append(values[0])
        missing = self.cells(state) - len(rows)
        result.attempted += missing
        result.failed += missing

        artifacts = {}
        for name in DETERMINISTIC_ARTIFACTS:
            with open(os.path.join(out_dir, name), "rb") as f:
                artifacts[name] = f.read()
        if state["reference"] is None:
            state["reference"] = artifacts
        else:
            result.attempted += 1
            differing = [n for n in DETERMINISTIC_ARTIFACTS if artifacts[n] != state["reference"][n]]
            if differing:
                print(f"FAILED trend-sweep determinism: {differing} differ between "
                      "two sweeps of one seed", file=sys.stderr)
                result.failed += 1
        shutil.rmtree(out_dir, ignore_errors=True)
        return result


# --- dof-analysis -------------------------------------------------------

# (subspaces, inputs per subspace). The p90 needs >= 100 inputs per pass;
# drawing them from several subspaces keeps the seed-to-seed spread of
# the mean MSE small.
DOF_SIZES = {"full": (8, 16), "smoke": (2, 2)}
# Share of a pass's inputs whose Monte-Carlo check may be settled at the
# smaller step (at least one input). Above it every rechecked input fails.
MAX_RECHECKED_SHARE = 0.01


class DofAnalysis:
    name = "dof-analysis"
    min_passes = 1
    n, width, T = 32, 32, 10
    rank, sigma = 4, 0.1
    mc_probes = 1024
    stack_seed = 0  # the analysed network is fixed; only its inputs vary

    def setup(self, seed: int, size: str, work_dir: str):
        subspaces, per_subspace = DOF_SIZES[size]
        op = operators.identity_operator(self.n)
        step = operators.StepParams("gradient", 0.0)
        stack = network.random_stack(
            self.n, [self.width], T=self.T, mode="ws", symmetric=True, seed=self.stack_seed
        )
        truth = np.concatenate([
            data.generate_subspace_data(self.n, self.rank, per_subspace, seed=(seed, 50, j)).samples
            for j in range(subspaces)
        ])
        noisy = data.add_noise(truth, self.sigma, seed=(seed, 51))
        return {
            "op": op,
            "step": step,
            "stack": stack,
            "h": network.forward_map(stack, op, step),
            "x": truth,
            "y": noisy,
            "rechecked": 0,
        }

    def expected_counts(self, state) -> dict:
        inputs = len(state["y"])
        return {
            "jacobian.path_terms": (2**self.T - 1) * inputs,
            "risk.mc_probes": self.mc_probes * (inputs + state["rechecked"]),
        }

    def mc_agrees(self, state, result, i, y, report) -> bool:
        """|dof_mc - dof_exact| <= 6 SE, confirmed at a 100x smaller step.

        The finite-difference probes of dof_monte_carlo average the slope
        over their step. When an input's pre-activations sit closer to a
        ReLU kink than the step, that average differs from the Jacobian
        at the input by more than 6 SE (seed 53, input 37: margin 2e-5,
        step 1.5e-4). A deviation that vanishes at a 100x smaller step is
        that bias; an estimator error does not vanish. Such inputs are
        rare (1 in about 6,400), so `run_pass` fails them all when they
        exceed MAX_RECHECKED_SHARE of the pass: a default step that is too
        large, or a biased default-step path, cannot pass as kinks.
        """
        if abs(report.dof_mc - report.dof_exact) <= 6.0 * report.mc_std_error:
            return True
        state["rechecked"] += 1
        result.rechecked += 1
        delta = risk.default_mc_delta(y) / 100.0
        estimate, std_error = risk.dof_monte_carlo(state["h"], y, self.mc_probes, delta=delta, seed=i)
        print(f"dof-analysis input {i}: MC off by more than 6 SE at the default step; "
              f"at a 100x smaller step off by {abs(estimate - report.dof_exact):.3g} "
              f"vs 6 SE = {6 * std_error:.3g}", file=sys.stderr)
        return abs(estimate - report.dof_exact) <= 6.0 * std_error

    def run_pass(self, state, workers: int) -> PassResult:
        op, step, stack, h = state["op"], state["step"], state["stack"], state["h"]
        n = self.n
        result = PassResult(time.perf_counter())
        rescued = 0  # inputs that passed only at the smaller MC step
        for i, (x, y) in enumerate(zip(state["x"], state["y"])):
            result.attempted += 1
            t0 = time.perf_counter()
            try:
                _, tr = network.unroll_forward(y, stack, op, step, record=True)
                J = jacobian.accumulate_jacobian(tr, stack, op, step)
                report = risk.sure_report(
                    h, y, self.sigma, J=J, x_true=x, mc_probes=self.mc_probes, mc_seed=i
                )
                jr = jacobian.jacobian_report(tr, stack, op, step)
            except Exception:
                _report_failure(f"dof-analysis input {i} raised")
                result.failed += 1
                continue
            finally:
                result.item_spans.append((t0, time.perf_counter()))
            alternating = float(n) + sum((-1.0) ** len(t.index_set) * t.trace_exact for t in jr.paths)
            identity_gap = abs(jr.trace - alternating)
            rechecked = result.rechecked
            if identity_gap > 1e-9 * n or not self.mc_agrees(state, result, i, y, report):
                print(f"FAILED dof-analysis input {i}: |trJ - paths| = {identity_gap:.3g}",
                      file=sys.stderr)
                result.failed += 1
            else:
                result.test_mse.append(report.mse_vs_truth)
                rescued += result.rechecked - rechecked
        result.end = time.perf_counter()
        allowed = max(1, int(MAX_RECHECKED_SHARE * len(state["y"])))
        if result.rechecked > allowed:
            print(f"FAILED dof-analysis: {result.rechecked} inputs needed the smaller MC step, "
                  f"more than {allowed}", file=sys.stderr)
            result.failed += rescued
        return result


# --- verify-suite -------------------------------------------------------

# Small arguments for the harness's smoke test; every command still
# passes at these sizes.
VERIFY_SMOKE_ARGS = {
    "jacobian": {"trials": 1},
    "theorem1": {"trials": 3},
    "theorem1-trained": {"seeds": (0,), "T_values": (2,), "n_train": 64, "n_eval": 8},
    "lemma2": {"n": 8, "rank": 2, "N": 200, "seeds": (0,), "random_projections": 5},
    "lemma3": {"trials": 5},
    "lemma4": {"trials": 3, "n_inputs": 8},
    "sure-unbiased": {"n": 16, "draws": 100},
}


class VerifySuite:
    name = "verify-suite"
    min_passes = 1

    def setup(self, seed: int, size: str, work_dir: str):
        calls = []
        for command, fn in verify.COMMANDS.items():
            kwargs = dict(VERIFY_SMOKE_ARGS[command]) if size == "smoke" else {}
            if "seed" in inspect.signature(fn).parameters:
                kwargs["seed"] = seed
            calls.append((command, kwargs))
        return {"calls": calls}

    def expected_counts(self, state) -> dict:
        return {}

    def run_pass(self, state, workers: int) -> PassResult:
        # Held-out MSE of every net the suite trains, read from train()'s result.
        trained_mse = []
        train = verify.train

        def train_and_record(*args, **kwargs):
            out = train(*args, **kwargs)
            trained_mse.append(out.test_mse[-1])
            return out

        verify.train = train_and_record
        result = PassResult(time.perf_counter())
        try:
            for command, kwargs in state["calls"]:
                result.attempted += 1
                t0 = time.perf_counter()
                try:
                    report = verify.COMMANDS[command](**kwargs)
                    passed = report.passed
                except Exception:
                    _report_failure(f"verify {command} raised")
                    passed = False
                result.command_s[command] = time.perf_counter() - t0
                if not passed:
                    print(f"FAILED verify {command}: pass is false", file=sys.stderr)
                    result.failed += 1
        finally:
            verify.train = train
        result.end = time.perf_counter()
        # The item is the whole suite: its commands differ in cost by 60x,
        # so percentiles over commands would jump between commands.
        result.item_spans = [(result.start, result.end)]
        result.test_mse = trained_mse
        return result


WORKLOADS = {w.name: w for w in (TrendSweep(), DofAnalysis(), VerifySuite())}
