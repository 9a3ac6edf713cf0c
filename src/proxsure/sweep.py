"""Sweep orchestration: train/evaluate one cell per (mode, sigma, N, seed),
emit deterministic CSV/JSON artifacts, and reshape them for plotting.

Artifacts are pure functions of (config, seeds): per-cell JSON files are
written atomically and reused on resume when they were made under the
same config, and the aggregate CSV carries no timestamps. Wall-clock
timings go to a separate timings.csv that is excluded from the
determinism contract.
"""

from __future__ import annotations

import contextvars
import csv
import dataclasses
import itertools
import json
import math
import operator
import os
import time
from functools import partial

import numpy as np

from . import data as datamod
from .config import ExperimentConfig, build_dataset, build_operator, build_step, config_to_text
from .errors import NonFiniteError, ProxsureError, TrainingFailureError
from .jsonout import strict_dumps
from .operators import apply_operator
from .risk import evaluate_set, mse_psnr
from .train import train

COLUMN_DOCS = {
    "seed": "run seed for data, initialization, and shuffling",
    "mode": "weight sharing (ws) or weight changing (wc)",
    "sigma": "noise standard deviation on unit-normalized data",
    "n_train": "number of training pairs in the cell",
    "status": "ok, or the failure class recorded for the cell",
    "test_mse": "per-coordinate mean squared error against ground truth",
    "psnr": "-10 log10(test_mse)",
    "rss_mean": "mean squared residual ||h(y) - y||^2 over the test set",
    "dof_exact_mean": "mean Jacobian trace over the test set",
    "dof_mc_mean": "mean Monte-Carlo divergence estimate (nan if disabled)",
    "sure_mean": "mean of -n sigma^2 + rss + 2 sigma^2 dof; nan unless the operator is the identity (SURE is unbiased only for y = x + v)",
    "mu_w": "largest off-diagonal inner product of the shared W",
    "rho_max": "largest mean per-iteration activation count",
    "epsilon": "mu_w * rho_max^(3/2)",
    "dof_surrogate": "mean alternating path-sparsity sum; nan unless the path expansion is the network's Jacobian: the identity operator with the data step skipped (alpha = 0, gradient or ls) and a symmetric single-layer ws stack with T <= path_cap (its summary mean and count cover only seeds with eps_valid true)",
    "theorem1_bound": "(1 + epsilon)^T - 1 - epsilon T, summed as sum_{k=2..T} C(T, k) epsilon^k; nan where dof_surrogate is (its summary mean and count cover only seeds with eps_valid true)",
    "eps_valid": "True when epsilon < 1, the hypothesis of Theorem 1: only there do dof_surrogate and theorem1_bound carry its guarantee (nan where dof_surrogate is; its summary mean is the share of valid seeds)",
}
COLUMNS = list(COLUMN_DOCS)  # the first five name a row; summary.json averages the rest

# A row's cell, in sweep and sort order.
_cell = operator.itemgetter("mode", "sigma", "n_train", "seed")


# The splits that the cells of the running run_sweep share: (its config,
# {(sigma, N, seed, test): split}).
_shared_splits = contextvars.ContextVar("shared_splits", default=None)


def cell_split(cfg: ExperimentConfig, op, sigma: float, N: int, seed: int, test: bool = False):
    """A cell's train or test split: (clean samples, measurements Phi(x + v)),
    drawn by data.noisy_split with tag 10.

    Inside run_sweep a split is built once and its read-only arrays are
    handed to every cell of the sweep that uses it.
    """
    shared = _shared_splits.get()
    splits = shared[1] if shared and shared[0] is cfg else None
    key = (sigma, N, seed, test)
    if splits is not None and key in splits:
        return splits[key]
    clean, noisy = datamod.noisy_split(partial(build_dataset, cfg), N, sigma, seed, 10, test)
    split = clean, apply_operator(op, noisy)
    if splits is not None:
        clean.samples.flags.writeable = False
        split[1].flags.writeable = False
        splits[key] = split
    return split


def train_cell(cfg: ExperimentConfig, mode: str, sigma: float, n_train: int, seed: int):
    """Train one cell's network; returns (TrainRunResult, op, step, test
    split, test measurements). Raises TrainingFailureError."""
    op = build_operator(cfg)
    step = build_step(cfg)
    train_set, m_train = cell_split(cfg, op, sigma, n_train, seed)
    test_set, m_test = cell_split(cfg, op, sigma, cfg.n_test, seed, test=True)
    result = train(
        train_set.samples,
        m_train,
        test_set.samples,
        m_test,
        op,
        step,
        hidden=cfg.model_hidden,
        T=cfg.model_iterations,
        mode=mode,
        symmetric=cfg.model_symmetric,
        lr_grid=cfg.opt_lr_grid,
        epochs=cfg.opt_epochs,
        batch=cfg.opt_batch,
        anneal_at=None if cfg.opt_anneal_at < 0 else cfg.opt_anneal_at,
        max_steps=None if cfg.opt_max_steps < 0 else cfg.opt_max_steps,
        seed=seed,
    )
    return result, op, step, test_set, m_test


def run_cell(cfg: ExperimentConfig, mode: str, sigma: float, n_train: int, seed: int) -> dict:
    """Train and evaluate one sweep cell; returns a SweepRow dict."""
    row = {c: math.nan for c in COLUMNS}
    row.update(seed=seed, mode=mode, sigma=sigma, n_train=n_train, status="ok")
    try:
        result, op, step, test_set, m_test = train_cell(cfg, mode, sigma, n_train, seed)
    except TrainingFailureError:
        row["status"] = "training-failure"
        return row

    try:
        ev = evaluate_set(result.stack, op, step, m_test, sigma, max_T=cfg.path_cap,
                          mc_probes=cfg.mc_probes(), mc_seed=seed)
    except NonFiniteError:
        row["status"] = "evaluation-failure"
        return row
    row["test_mse"], row["psnr"] = mse_psnr(ev.xhat, test_set.samples)
    row.update(ev.columns())
    return row


def _cell_name(mode, sigma, n_train, seed) -> str:
    return f"cell_{mode}_{sigma:g}_{n_train}_{seed}.json"


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cell_config_sha256(cfg: ExperimentConfig) -> str:
    """SHA-256 of the echoed config without the keys that only select
    cells (the grids; a cell file holds its own mode, sigma, N and seed)
    or name the output directory. hashlib is imported here, not with the
    module, so that importing proxsure loads no OpenSSL."""
    import hashlib

    cell_cfg = dataclasses.replace(
        cfg, sigma=[], sigma_pixel=[], n_train_grid=[], model_mode=[], seeds=[], out=""
    )
    return hashlib.sha256(config_to_text(cell_cfg).encode()).hexdigest()


def run_sweep(cfg: ExperimentConfig, out_dir, workers: int = 1) -> str:
    """Run all cells in order in the calling thread, resuming from
    per-cell files written under the same config.

    Each cell file stores a SHA-256 of the config a cell depends on (see
    _cell_config_sha256); a file that is not a JSON object, whose hash is
    missing or differs, or that lacks a column, is recomputed, so a
    resumed directory never mixes configs, while growing a grid or moving
    the directory reuses the cells already done.

    Each train split (sigma, N, seed) and test split (sigma, n_test, seed)
    is built once and shared, read-only, by the cells that use it (the ws
    and wc cells of one (sigma, N, seed)). The splits are held for the
    sweep's life and dropped when it returns or raises.

    workers is ignored, kept only for callers that still pass it: a train
    step is ~65 numpy calls of 1-5 us that each release the GIL, so a
    thread pool spends its time switching threads. On 2 vCPUs, 2 threads
    ran at 0.65-0.72x the in-order speed at n = 32, l = 64 (the trend and
    default sizes) and won (1.5-1.8x) only at n = 128, l = 256, beyond any
    shipped config.

    Returns the path of the aggregate CSV. Also writes summary.json,
    schema.json, the echoed config, and (non-deterministic) timings.csv.
    """
    os.makedirs(out_dir, exist_ok=True)
    config_sha256 = _cell_config_sha256(cfg)
    cells = list(itertools.product(cfg.modes(), cfg.sigma, cfg.n_train_grid, cfg.seeds))
    timings = {}

    def compute(cell):
        name = _cell_name(*cell)
        path = os.path.join(out_dir, name)
        try:
            with open(path) as f:
                row = json.load(f)
        except (FileNotFoundError, ValueError):  # no cell file, or not JSON
            row = None
        if (isinstance(row, dict) and row.get("config_sha256") == config_sha256
                and row.keys() >= set(COLUMNS) and _cell(row) == cell):
            return {k: math.nan if v is None else v for k, v in row.items()}  # the file writes nan as null
        started = time.perf_counter()
        row = run_cell(cfg, *cell)
        timings[name] = time.perf_counter() - started
        with open(path + ".tmp", "w") as f:
            f.write(strict_dumps({**row, "config_sha256": config_sha256}, sort_keys=True))
        os.replace(path + ".tmp", path)
        return row

    splits = {}
    token = _shared_splits.set((cfg, splits))
    try:
        rows = sorted(map(compute, cells), key=_cell)
    finally:
        _shared_splits.reset(token)
        splits.clear()

    def write(name, text):
        with open(os.path.join(out_dir, name), "w") as f:
            f.write(text)

    csv_path = os.path.join(out_dir, "sweep.csv")
    with open(csv_path, "w") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(COLUMNS)
        writer.writerows([_fmt(row[c]) for c in COLUMNS] for row in rows)

    summary = {}
    for (mode, sigma, n_train), group in itertools.groupby(rows, key=lambda r: _cell(r)[:3]):
        group = list(group)
        valid = [g for g in group if g["eps_valid"] is True]
        agg = summary[f"{mode}|{sigma:g}|{n_train}"] = {}
        for col in COLUMNS[5:]:
            support = valid if col in ("dof_surrogate", "theorem1_bound") else group
            finite = [g[col] for g in support
                      if isinstance(g[col], (int, float)) and math.isfinite(g[col])]
            agg[col] = {
                "count": len(finite),
                "mean": float(np.mean(finite)) if finite else "nan",
                "std_error": (float(np.std(finite, ddof=1) / math.sqrt(len(finite)))
                              if len(finite) > 1 else None),
            }
    write("summary.json", strict_dumps(summary, sort_keys=True, indent=1))
    write("schema.json", json.dumps({"columns": COLUMNS, "docs": COLUMN_DOCS}, sort_keys=True, indent=1))
    write("config.echo", config_to_text(cfg))
    if timings:
        write("timings.csv", "cell,wallclock_s\n" + "".join(
            f"{name},{timings[name]:.3f}\n" for name in sorted(timings)))
    return csv_path


def report_plots(csv_path, out_dir) -> list[str]:
    """Reshape a sweep CSV into long-format per-figure files.

    One file per y-quantity with columns (n_train, mode, sigma, value),
    value averaged across seeds. Raises on missing columns.
    """
    with open(csv_path, newline="") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    if not rows:
        raise ProxsureError("empty sweep CSV")
    needed = {"n_train", "mode", "sigma", "seed", "psnr", "rss_mean", "dof_exact_mean"}
    missing = needed - set(rows[0].keys())
    if missing:
        raise ProxsureError(f"sweep CSV missing columns: {sorted(missing)}")
    os.makedirs(out_dir, exist_ok=True)
    outputs = []
    for quantity in ("psnr", "rss_mean", "dof_exact_mean"):
        groups = {}
        for row in rows:
            key = (int(row["n_train"]), row["mode"], float(row["sigma"]))
            val = float(row[quantity])
            if math.isfinite(val):
                groups.setdefault(key, []).append(val)
        path = os.path.join(out_dir, f"fig_{quantity}.csv")
        with open(path, "w") as f:
            f.write("n_train,mode,sigma,value\n")
            for (n_train, mode, sigma), vals in sorted(groups.items()):
                f.write(f"{n_train},{mode},{_fmt(sigma)},{_fmt(float(np.mean(vals)))}\n")
        outputs.append(path)
    return outputs
