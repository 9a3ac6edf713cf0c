import math
from itertools import combinations

import numpy as np
import pytest

from proxsure.jacobian import path_expansion
from proxsure.network import ProximalStack
from proxsure.verify import VerifyReport, brute_force_subset_objective, verify_lemma3, verify_lemma4


def _reference_subset_objective(C, sigma2):
    """One projector per subset, scanned in combinations order."""
    n = C.shape[0]
    eigvals, eigvecs = np.linalg.eigh(C)
    best = (0.0, ())
    target = C - sigma2 * np.eye(n)
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            if not subset:
                obj = 0.0
            else:
                V = eigvecs[:, list(subset)]
                obj = float(np.trace(V @ (V.T @ target)))
            if obj < best[0] - 1e-15:
                best = (obj, subset)
    return best


@pytest.mark.parametrize("n", range(6, 13))
def test_brute_force_subset_objective_matches_per_subset_loop(n):
    rng = np.random.default_rng([31, n])
    A = rng.standard_normal((n, n))
    C = A @ A.T / n
    sigma2 = float(np.median(np.linalg.eigvalsh(C)))
    got = brute_force_subset_objective(C, sigma2)
    assert repr(got) == repr(_reference_subset_objective(C, sigma2))


def test_lemma3_checks_every_converged_trial_tightly():
    report = verify_lemma3()
    assert report.details["converged"] > 0
    assert report.details["strictly_exact"] == report.details["converged"]
    assert report.passed


def _reference_lemma4(trials, n=16, ell=8, T=4, max_order=4, n_inputs=64, seed=0):
    """One path expansion per mask draw, accumulated per subset."""
    tol = 1e-12
    max_violation = -math.inf
    ratio_max = 0.0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        W = rng.standard_normal((ell, n))
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        stack = ProximalStack(n=n, T=T, mode="ws", symmetric=True, weights=(((W, None),),))
        acc = {}
        for _ in range(n_inputs):
            masks = [[W @ rng.standard_normal(n) > 0.0] for _ in range(T)]
            for term in path_expansion(masks, stack):
                if len(term.index_set) > max_order:
                    continue
                acc.setdefault(term.index_set, []).append(
                    (abs(term.trace_exact - term.path_sparsity), term.deviation_bound)
                )
        for values in acc.values():
            arr = np.asarray(values)
            deviation = arr[:, 0].mean()
            bound = arr[:, 1].mean()
            max_violation = max(max_violation, deviation - bound)
            if bound > 0:
                ratio_max = max(ratio_max, deviation / bound)
    return VerifyReport("lemma4", trials, max_violation, tol, max_violation <= tol,
                        details={"max_ratio": ratio_max})


@pytest.mark.parametrize("kwargs", [
    {"trials": 5, "n_inputs": 8},
    {"trials": 3, "n_inputs": 9, "T": 5, "max_order": 3, "seed": 4},
    {"trials": 2, "n_inputs": 1, "T": 2, "ell": 3},
])
def test_lemma4_matches_per_input_reference(kwargs):
    assert verify_lemma4(**kwargs).to_json() == _reference_lemma4(**kwargs).to_json()
