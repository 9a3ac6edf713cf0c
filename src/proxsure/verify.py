"""Numerical verification commands behind `proxsure verify <name>`.

Each command runs seeded trials against an independent check (finite
differences, brute-force enumeration, paired statistics) and returns a
machine-readable report: {command, trials, max_violation, tolerance,
pass} plus command-specific details. Expectation-style quantities are
realized as empirical means over seeded evaluation sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, islice

import numpy as np

from . import data as datamod
from .jacobian import path_table
from .jsonout import strict_dumps
from .network import ProximalStack, forward_map, random_stack, unroll
from .operators import (
    SensingOperator,
    StepParams,
    circular_operator,
    dft_operator,
    identity_operator,
    step_matrices,
)
from .risk import dof_finite_difference, evaluate_set
from .train import (
    fixed_point_jacobian,
    mask_fixed_point,
    pca_closed_form,
    projection_objective,
    train,
)


@dataclass
class VerifyReport:
    command: str
    trials: int
    max_violation: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        # -inf: no trial reached a comparison, so nothing was checked
        if self.max_violation == -math.inf:
            self.max_violation, self.passed = 1.0, False

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "trials": int(self.trials),
            "max_violation": float(self.max_violation),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
        }
        payload.update(self.details)
        return strict_dumps(payload, sort_keys=True)


def _sample_regular_inputs(stack, op, step, rng, count, margin=1e-4, attempts=50):
    """count random inputs whose pre-activations stay away from the ReLU
    boundary; an input falls back to its last draw after `attempts`."""
    G_x, G_y = step_matrices(op, step)
    Y = np.empty((count, op.m))
    for y in Y:
        for _ in range(attempts):
            y[:] = rng.standard_normal(op.m)
            _, rec = unroll(y, stack, op, G_x, G_y, record=True)
            if min(np.abs(h @ (W if Wbar is None else Wbar).T).min()
                   for t, (_, units) in enumerate(rec)
                   for (h, _, _), (W, Wbar) in zip(units, stack.layer_weights(t))) > margin:
                break
    return Y


def _square_dft(n: int) -> SensingOperator:
    """Subsampled DFT whose stacked real output has m = n."""
    half = n // 4
    omega = list(range(1, half + 1))
    op = dft_operator(n, omega)
    assert op.m == n, "frequency set did not symmetrize to m = n"
    return op


def verify_jacobian(trials: int = 20, n: int = 16, seed: int = 0) -> VerifyReport:
    """Assembled Jacobian trace vs coordinate finite differences across
    operator/step/mode/depth combinations."""
    tol = 1e-5
    ops = {
        "identity": identity_operator(n),
        "blur": circular_operator(np.array([0.6, 0.25, 0.15]), n=n),
        "dft": _square_dft(n),
    }
    steps = {
        "gradient": StepParams("gradient", 0.1),
        "ls": StepParams("ls", 0.5),
    }
    max_violation = -math.inf
    config_id = 0
    for op in ops.values():
        for step in steps.values():
            for mode in ("ws", "wc"):
                for K in (1, 2):
                    config_id += 1
                    hidden = [n // 2] if K == 1 else [n // 2, n // 2]
                    stack = random_stack(
                        n, hidden, T=3, mode=mode, symmetric=(K == 1),
                        seed=seed + 1000 * config_id,
                    )
                    rng = np.random.default_rng([seed, config_id])
                    h = forward_map(stack, op, step)
                    Y = _sample_regular_inputs(stack, op, step, rng, trials)
                    for y, exact in zip(Y, evaluate_set(stack, op, step, Y).dof):
                        fd = dof_finite_difference(h, y)
                        rel = float(abs(exact - fd) / (1.0 + abs(exact)))
                        max_violation = max(max_violation, rel)
    return VerifyReport("jacobian", trials * config_id, max_violation, tol, max_violation <= tol)


def verify_theorem1(trials: int = 20, n: int = 16, max_T: int = 10, seed: int = 0) -> VerifyReport:
    """Surrogate exactness at epsilon = 0: orthonormal-row W."""
    tol = 1e-9 * n
    op = identity_operator(n)
    step = StepParams("gradient", 0.0)
    rng = np.random.default_rng(seed)
    max_violation = -math.inf
    for trial in range(trials):
        T = 1 + trial % max_T
        ell = int(rng.integers(2, n + 1))
        Q, _ = np.linalg.qr(rng.standard_normal((n, ell)))
        W = Q.T
        stack = ProximalStack(n=n, T=T, mode="ws", symmetric=True,
                              weights=(((W, None),),))
        ev = evaluate_set(stack, op, step, rng.standard_normal(n), max_T=T)
        violation = float(abs(ev.dof[0] - ev.surrogate[0]))
        if ev.bound != 0.0:
            violation = max(violation, abs(ev.bound))
        max_violation = max(max_violation, violation)
    return VerifyReport("theorem1", trials, max_violation, tol, max_violation <= tol)


def verify_theorem1_trained(
    n: int = 16,
    ell: int = 2,
    rank: int = 4,
    n_train: int = 256,
    n_eval: int = 64,
    sigma: float = 0.15,
    seeds=(0, 1, 2),
    T_values=(2, 3, 4, 5, 6),
) -> VerifyReport:
    """DOF surrogate bound on trained nets; trials with epsilon >= 1 are
    reported but exempt (the bound's hypothesis is unmet)."""
    op = identity_operator(n)
    step = StepParams("gradient", 0.0)
    max_violation = -math.inf
    checked = exempt = 0
    rows = []
    make = partial(datamod.generate_subspace_data, n, rank)
    for seed in seeds:
        train_set, y_train = datamod.noisy_split(make, n_train, sigma, seed, 20)
        test_set, y_eval = datamod.noisy_split(make, n_eval, sigma, seed, 20, test=True)
        for T in T_values:
            result = train(
                train_set.samples, y_train, test_set.samples, y_eval,
                op, step, hidden=[ell], T=T, mode="ws", symmetric=True,
                lr_grid=[3e-3], epochs=30, batch=8, max_steps=1500, seed=seed,
            )
            ev = evaluate_set(result.stack, op, step, y_eval, max_T=T)
            eps = ev.epsilon
            deviation = abs(float(np.mean(ev.dof)) - float(np.mean(ev.surrogate)))
            row = {"seed": seed, "T": T, "epsilon": eps,
                   "deviation": deviation, "bound": ev.bound}
            rows.append(row)
            if eps >= 1.0:
                exempt += 1
                continue
            checked += 1
            max_violation = max(max_violation, deviation - ev.bound)
    return VerifyReport(
        "theorem1-trained",
        checked + exempt,
        max_violation,
        0.0,
        max_violation <= 0.0,
        details={"checked": checked, "exempt": exempt, "rows": rows},
    )


def verify_lemma4(
    trials: int = 100,
    n: int = 16,
    ells: tuple[int, ...] = (8, 2),
    T: int = 4,
    max_order: int = 4,
    n_inputs: int = 64,
    seed: int = 0,
) -> VerifyReport:
    """Per-path deviation vs the index-cycle bound on random masks.

    Per width l in ells and trial: Gaussian W (l, n) with normalized
    rows; masks are drawn from fresh Gaussian inputs, one per iteration,
    so sparsity levels stay in the lemma's operating regime. The
    expectation statement is realized by averaging both the per-input
    deviation and the per-input bound (with realized sparsities) over
    the mask draws. l = 2 is the low-sparsity case, where a hop often
    keeps one row.
    """
    tol = 1e-12
    max_violation = -math.inf
    ratio_max = 0.0
    # the subsets of at most max_order iterations lead combinations order
    k = sum(math.comb(T, j) for j in range(1, min(max_order, T) + 1))
    for ell in ells:
        for trial in range(trials):
            rng = np.random.default_rng([seed, trial])
            W = rng.standard_normal((ell, n))
            W /= np.linalg.norm(W, axis=1, keepdims=True)
            table = path_table(W, rng.standard_normal((n_inputs, T, n)) @ W.T > 0.0)
            # per subset, the mean over the mask draws of the deviation and the
            # bound; each subset's draws are made one contiguous row, so its mean
            # sums them pairwise as the mean of a 1-D column does
            deviation = np.abs(table.traces[:, :k] - table.path_sparsity[:, :k]).T.copy().mean(axis=1)
            bounds = table.deviation_bound[:, :k].T.copy().mean(axis=1)
            for dev, bound in zip(deviation, bounds):
                max_violation = max(max_violation, dev - bound)
                if bound > 0:
                    ratio_max = max(ratio_max, dev / bound)
    return VerifyReport(
        "lemma4", trials, max_violation, tol, max_violation <= tol,
        details={"max_ratio": ratio_max, "ells": list(ells)},
    )


def brute_force_subset_objective(C: np.ndarray, sigma2: float):
    """Minimize tr(P (C - sigma2 I)) over all eigenvector subsets by
    explicit projector evaluation. Returns (best objective, best subset)."""
    n = C.shape[0]
    eigvals, eigvecs = np.linalg.eigh(C)
    best = (0.0, ())  # the empty subset
    target = C - sigma2 * np.eye(n)
    for size in range(1, n + 1):
        subsets = combinations(range(n), size)
        # 256 subsets per batch bound the (c, n, size) and (c, n, n) temporaries
        while chunk := list(islice(subsets, 256)):
            V = np.ascontiguousarray(eigvecs[:, chunk].transpose(1, 0, 2))
            objs = np.trace(V @ (V.transpose(0, 2, 1) @ target), axis1=1, axis2=2)
            for obj, subset in zip(objs.tolist(), chunk):
                if obj < best[0] - 1e-15:
                    best = (obj, subset)
    return best


def verify_lemma2(
    n: int = 16, rank: int = 4, N: int = 2000, seeds=(0, 1, 2), random_projections: int = 100
) -> VerifyReport:
    """Closed-form spectral weights vs brute-force subset enumeration and
    random same-rank projections."""
    tol = 1e-9
    max_violation = -math.inf
    details = []
    for seed in seeds:
        dataset = datamod.generate_subspace_data(n, rank, N, seed=seed)
        C = datamod.sample_correlation(dataset)
        eigvals = np.linalg.eigvalsh(C)
        signal = eigvals[eigvals > 1e-8]
        sigma2 = 0.5 * signal.min()  # between zero and the smallest signal eigenvalue
        W, dof_spectral = pca_closed_form(dataset, sigma2)
        closed_obj = projection_objective(W, C, sigma2)
        brute_obj, brute_subset = brute_force_subset_objective(C, sigma2)
        max_violation = max(max_violation, abs(closed_obj - brute_obj))
        expected_dof = int(np.sum(eigvals >= sigma2))
        if dof_spectral != expected_dof or dof_spectral != n - len(brute_subset):
            max_violation = max(max_violation, 1.0)
        rng = np.random.default_rng([seed, 99])
        for _ in range(random_projections):
            R = rng.standard_normal((W.shape[0], n)) if W.shape[0] else W
            if W.shape[0] and projection_objective(R, C, sigma2) < closed_obj - 1e-12:
                max_violation = max(max_violation, 1.0)
        details.append({"seed": seed, "dof_spectral": dof_spectral,
                        "objective": closed_obj, "brute_force": brute_obj})
    return VerifyReport(
        "lemma2", len(seeds), max_violation, tol, max_violation <= tol,
        details={"rows": details},
    )


def verify_lemma3(
    trials: int = 50, n: int = 16, ell: int = 8, seed: int = 0, max_iter: int = 10000
) -> VerifyReport:
    """Fixed-point mask support vs the projector and the Jacobian trace.

    W has orthonormal rows, the regime where each masked stage is an
    exact orthogonal projector and the iteration limit is the projection
    onto the complement of the active rows.
    """
    residual_tol = 1e-6
    max_violation = -math.inf
    converged = exact = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        Q, _ = np.linalg.qr(rng.standard_normal((n, ell)))
        W = Q.T
        y = rng.standard_normal(n)
        y /= np.linalg.norm(y)
        result = mask_fixed_point(W, y, tol=1e-10, max_iter=max_iter)
        if not result.converged:
            continue
        converged += 1
        max_violation = max(max_violation, result.projector_residual - residual_tol)
        J = fixed_point_jacobian(W, y, result.iterations + 60)
        trace = float(np.trace(J))
        gap = abs(result.dof - trace)
        if result.tail_margin > 1e-10:
            exact += 1
            max_violation = max(max_violation, gap - 1e-6)
        else:
            max_violation = max(max_violation, gap - 1.0)
    return VerifyReport(
        "lemma3", trials, max_violation, 0.0, max_violation <= 0.0,
        details={"converged": converged, "strictly_exact": exact},
    )


def sure_gap_parts(ev, x, v, sigma: float):
    """Per input x + v of ev: the gap SURE - ||xhat - x||^2 and its two
    parts, which sum to it. The noise-norm part ||v||^2 - n sigma^2 has
    mean 0 by the noise model, whatever the network; the Stein part
    2(sigma^2 tr J - <xhat - x, v>) has mean 0 by Stein's identity, and
    is the part a wrong DOF moves."""
    err = ev.xhat - x
    gap = ev.sure - np.sum(err**2, axis=1)
    noise = np.sum(v**2, axis=1) - len(x) * sigma**2
    stein = 2.0 * (sigma**2 * ev.dof - np.sum(err * v, axis=1))
    return gap, noise, stein


def verify_sure_unbiased(
    n: int = 64,
    sigma: float = 0.1,
    draws: int = 2000,
    rank: int = 6,
    seed: int = 0,
) -> VerifyReport:
    """Paired check that mean SURE tracks mean MSE over fresh noise draws."""
    op = identity_operator(n)
    step = StepParams("gradient", 0.0)
    make = partial(datamod.generate_subspace_data, n, rank)
    train_set, y_train = datamod.noisy_split(make, 512, sigma, seed, 30)
    test_set, y_eval = datamod.noisy_split(make, 64, sigma, seed, 30, test=True)
    result = train(
        train_set.samples, y_train, test_set.samples, y_eval, op, step,
        hidden=[2 * n], T=3, mode="ws", symmetric=True,
        lr_grid=[1e-3], epochs=40, batch=8, max_steps=2000, seed=seed,
    )
    x = test_set.samples[0]  # fixed unit-norm truth
    parts = np.empty((3, draws))  # per draw: the gap and its two parts
    # 128 draws per pass bound the batched forward's temporaries and record
    for lo in range(0, draws, 128):
        batch = range(lo, min(lo + 128, draws))
        v = sigma * np.array([datamod.seeded_rng(seed, 40, d).standard_normal(n) for d in batch])
        ev = evaluate_set(result.stack, op, step, x + v, sigma)
        parts[:, batch] = sure_gap_parts(ev, x, v, sigma)
    means = [float(p.mean()) for p in parts]
    ses = [float(p.std(ddof=1) / math.sqrt(draws)) for p in parts]
    tol = 3.0 * ses[0]
    return VerifyReport(
        "sure-unbiased", draws, abs(means[0]), tol, abs(means[0]) <= tol,
        details={"mean_gap": means[0], "std_error": ses[0],
                 "noise_norm_part": {"mean": means[1], "std_error": ses[1]},
                 "stein_part": {"mean": means[2], "std_error": ses[2]}},
    )


COMMANDS = {
    "jacobian": verify_jacobian,
    "theorem1": verify_theorem1,
    "theorem1-trained": verify_theorem1_trained,
    "lemma2": verify_lemma2,
    "lemma3": verify_lemma3,
    "lemma4": verify_lemma4,
    "sure-unbiased": verify_sure_unbiased,
}
