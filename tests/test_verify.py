from itertools import combinations

import numpy as np
import pytest

from proxsure.verify import brute_force_subset_objective, verify_lemma3


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
