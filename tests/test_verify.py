import json
import math
from itertools import combinations

import numpy as np
import pytest

from proxsure.jacobian import path_expansion
from proxsure.network import ProximalStack
from proxsure.verify import (
    VerifyReport,
    brute_force_subset_objective,
    verify_lemma3,
    verify_lemma4,
    verify_theorem1_trained,
)


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


def _reject_non_finite(token):
    raise ValueError(f"non-finite JSON token {token}")


@pytest.mark.parametrize("check, counter", [
    # one iteration converges no trial, so no projector or trace is compared
    (lambda: verify_lemma3(trials=3, max_iter=1), "converged"),
    # l = 8 rows in n = 8 dimensions: every trial has epsilon >= 1 and is exempt
    (lambda: verify_theorem1_trained(n=8, ell=8, rank=2, n_train=32, n_eval=8,
                                     seeds=(0,), T_values=(2,)), "checked"),
], ids=["lemma3", "theorem1-trained"])
def test_a_check_that_compared_nothing_fails_with_a_finite_violation(check, counter):
    report = check()
    payload = json.loads(report.to_json(), parse_constant=_reject_non_finite)
    assert payload[counter] == 0
    assert payload["pass"] is False and payload["max_violation"] == 1.0
    assert not report.passed


def _lemma4_bound(sparsities, mu, b_max):
    """Lemma 4's index-cycle bound on |tr P_I - p_I|: 0 for a singleton,
    else (prod_t s_t) mu^2 max(b_max, mu)^(|I| - 2)."""
    if len(sparsities) == 1:
        return 0.0
    bound = 1.0
    for s in sparsities:
        bound *= s
    return bound * (mu**2 * max(b_max, mu) ** (len(sparsities) - 2))


def _reference_lemma4(trials, n=16, ells=(8, 2), T=4, max_order=4, n_inputs=64, seed=0):
    """One path expansion per mask draw, accumulated per subset, with the
    bound recomputed from each term's sparsities."""
    tol = 1e-12
    max_violation = -math.inf
    ratio_max = 0.0
    for ell in ells:
        for trial in range(trials):
            rng = np.random.default_rng([seed, trial])
            W = rng.standard_normal((ell, n))
            W /= np.linalg.norm(W, axis=1, keepdims=True)
            stack = ProximalStack(n=n, T=T, mode="ws", symmetric=True, weights=(((W, None),),))
            G = W @ W.T
            mu = float(np.abs(G - np.diag(np.diag(G))).max()) if ell > 1 else 0.0
            b_max = float(np.diag(G).max())
            acc = {}
            for _ in range(n_inputs):
                masks = [[W @ rng.standard_normal(n) > 0.0] for _ in range(T)]
                for term in path_expansion(masks, stack):
                    if len(term.index_set) > max_order:
                        continue
                    acc.setdefault(term.index_set, []).append(
                        (abs(term.trace_exact - term.path_sparsity),
                         _lemma4_bound(term.sparsities, mu, b_max))
                    )
            for values in acc.values():
                arr = np.asarray(values)
                deviation = arr[:, 0].mean()
                bound = arr[:, 1].mean()
                max_violation = max(max_violation, deviation - bound)
                if bound > 0:
                    ratio_max = max(ratio_max, deviation / bound)
    return VerifyReport("lemma4", trials, max_violation, tol, max_violation <= tol,
                        details={"max_ratio": ratio_max, "ells": list(ells)})


@pytest.mark.parametrize("kwargs", [
    {"trials": 5, "n_inputs": 8},
    {"trials": 3, "n_inputs": 9, "T": 5, "max_order": 3, "seed": 4},
    {"trials": 2, "n_inputs": 1, "T": 2, "ells": (3,)},
])
def test_lemma4_matches_per_input_reference(kwargs):
    assert verify_lemma4(**kwargs).to_json() == _reference_lemma4(**kwargs).to_json()


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_lemma4_holds_at_low_sparsity(ell):
    # the former bound, prod_t sqrt(s_t) (s_t - 1) mu, failed here with
    # max_violation 0.26, 0.65 and 0.78: it is 0 once a hop keeps one row
    report = verify_lemma4(trials=100, ells=(ell,))
    assert report.passed and report.max_violation <= report.tolerance
    assert 0.0 < report.details["max_ratio"] <= 1.0


@pytest.mark.parametrize("seed", [0, 2**32 - 1])
def test_sure_unbiased_draws_are_the_list_seeded_streams(monkeypatch, seed):
    """The check's data and noise draws are the streams of list-seeded
    default_rng calls: its report is the same with the list rule."""
    from proxsure import data
    from proxsure.verify import verify_sure_unbiased

    got = verify_sure_unbiased(n=16, draws=130, seed=seed).to_json()
    monkeypatch.setattr(data, "seeded_rng", lambda *words: np.random.default_rng(list(words)))
    assert verify_sure_unbiased(n=16, draws=130, seed=seed).to_json() == got
