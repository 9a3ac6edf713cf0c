"""End-to-end Jacobian assembly and the path-sparsity expansion.

For a recurrent symmetric single-layer stack the Jacobian factors as a
product of masked stages (I - W^H D_t W); expanding the product over the
2^T subsets of iterations yields one trace term per activation path.
The weighted path sparsity p_I = tr(D_I B^|I|), with B the diagonal of
W W^H, approximates each term up to a coherence-controlled deviation,
and the alternating sum n + sum_I (-1)^|I| p_I serves as a DOF
surrogate with error bound (1 + eps)^T - 1 - eps*T when
eps = mu_W * (max_t rho_t)^(3/2) < 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DimensionMismatchError,
    PathCapExceededError,
    UnsupportedArchitectureError,
)
from .network import ForwardTrace, ProximalStack, frozen_mask_pass
from .operators import SensingOperator, StepParams, operator_matrix, step_matrices

DEFAULT_PATH_CAP = 14


@dataclass(frozen=True)
class PathTerm:
    """One subset I of iterations in the Jacobian expansion."""

    index_set: tuple[int, ...]  # 1-based, strictly increasing
    trace_exact: float
    path_sparsity: float
    deviation_bound: float
    sparsities: tuple[float, ...]  # realized tr(D_i) per hop


def accumulate_jacobian(
    trace: ForwardTrace,
    stack: ProximalStack,
    op: SensingOperator,
    step: StepParams,
) -> np.ndarray:
    """Assemble d x^T / d y (n-by-m) with the recorded masks frozen."""
    if len(trace.masks) != stack.T:
        raise ValueError("trace does not match the stack's iteration count")
    for t in range(stack.T):
        for (W, _), mask in zip(stack.layer_weights(t), trace.masks[t]):
            if mask.shape[-1] != W.shape[0]:
                raise DimensionMismatchError(
                    "trace mask width", W.shape[0], mask.shape[-1]
                )
    G_x, G_y = step_matrices(op, step)
    # d x^0 / d y = Phi^H, and the data step's y-term has Jacobian G_y
    return frozen_mask_pass(trace.masks, stack, G_x, G_y, operator_matrix(op).T, np.eye(op.m))


def jacobian_trace_exact(J: np.ndarray) -> float:
    """Trace of the assembled end-to-end Jacobian: the exact DOF."""
    J = np.asarray(J)
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise ValueError(f"trace needs a square matrix, got shape {J.shape}")
    return float(np.trace(J))


def incoherence(W: np.ndarray) -> float:
    """Largest off-diagonal magnitude of W W^H; 0 for a single row."""
    W = np.asarray(W, dtype=np.float64)
    if W.size == 0:
        raise ValueError("incoherence of an empty matrix is undefined")
    if W.shape[0] < 2:
        return 0.0
    G = W @ W.T
    off = G - np.diag(np.diag(G))
    return float(np.abs(off).max())


def norm_matrix_b(W: np.ndarray) -> np.ndarray:
    """Squared row norms: the diagonal of W W^H."""
    W = np.asarray(W, dtype=np.float64)
    return np.einsum("ij,ij->i", W, W)


def _expansion_weights(trace: ForwardTrace, stack: ProximalStack):
    if stack.K != 1 or not stack.symmetric:
        raise UnsupportedArchitectureError(
            "path expansion needs a symmetric single-layer stack (K=1)"
        )
    if stack.mode != "ws":
        raise UnsupportedArchitectureError(
            "path expansion needs shared weights across iterations"
        )
    W = stack.weights[0][0][0]
    masks = np.array([trace.masks[t][0] for t in range(stack.T)], dtype=np.float64)
    return W, masks


def path_expansion(
    trace: ForwardTrace,
    stack: ProximalStack,
    max_T: int = DEFAULT_PATH_CAP,
) -> list[PathTerm]:
    """Enumerate all 2^T - 1 nonempty iteration subsets.

    Traces are evaluated on the l-by-l Gram matrix W W^H, which matches
    tr(J_I) by cyclicity and keeps the cost at O(2^T l^3).
    """
    W, d = _expansion_weights(trace, stack)  # d: (T, l) 0/1 masks
    T = stack.T
    if T > max_T:
        raise PathCapExceededError(
            f"path expansion for T={T} exceeds the cap {max_T} (2^T subsets)"
        )
    G = W @ W.T
    b = np.diag(G)
    mu = incoherence(W)
    masked = d[:, :, None] * G  # D_t G
    b_pow = [b**j for j in range(T + 1)]
    sparsity = [float(s) for s in d.sum(axis=1)]
    # deviation bound of a path: prod over its hops of sqrt(s) (s - 1) mu
    hop = [float(np.sqrt(s) * max(s - 1.0, 0.0) * mu) for s in sparsity]

    # Depth first over subsets J: the children {t} + J, t < min J, share
    # J's product, P_{t+J} = P_J @ D_t G (associated left to right from
    # the largest index), and joint mask; one batched matmul covers them.
    shared = {(t,): (float(masked[t].trace()), float((d[t] * b).sum())) for t in range(T)}
    todo = [((t,), masked[t], d[t]) for t in range(1, T)]
    while todo:
        subset, P, joint = todo.pop()
        C, D = P @ masked[: subset[0]], joint * d[: subset[0]]
        traces = np.trace(C, axis1=1, axis2=2).tolist()
        sums = (D * b_pow[len(subset) + 1]).sum(axis=1).tolist()
        for t in range(subset[0]):
            shared[(t,) + subset] = (traces[t], sums[t])
        todo.extend(((t,) + subset, C[t], D[t]) for t in range(1, subset[0]))

    terms = []
    bound = {(): 1.0}  # hop factors multiplied in index order
    for j in range(1, T + 1):
        for subset in combinations(range(T), j):
            bound[subset] = bound[subset[:-1]] * hop[subset[-1]]
            terms.append(
                PathTerm(
                    index_set=tuple(t + 1 for t in subset),
                    trace_exact=shared[subset][0],
                    path_sparsity=shared[subset][1],
                    deviation_bound=bound[subset],
                    sparsities=tuple(sparsity[t] for t in subset),
                )
            )
    return terms


def theorem1_bound(eps: float, T: int) -> float:
    """Theorem 1's surrogate error bound (1 + eps)^T - 1 - eps*T."""
    return float((1.0 + eps) ** T - 1.0 - eps * T)


def dof_surrogate(terms: list[PathTerm], n: int, mu: float, rho=None):
    """Alternating path-sparsity sum with its coherence error bound.

    Returns (surrogate, epsilon, bound, valid) where epsilon =
    mu * (max_t rho_t)^(3/2) and bound = (1 + eps)^T - 1 - eps*T;
    valid is True when eps < 1 (the regime the bound is proved for).
    """
    if not terms:
        raise ValueError("empty path list")
    T = max(t.index_set[-1] for t in terms)
    if rho is None:
        per_iter: dict[int, float] = {}
        for term in terms:
            for idx, s in zip(term.index_set, term.sparsities):
                per_iter[idx] = s
        rho = [per_iter[i] for i in sorted(per_iter)]
    rho_max = float(np.max(rho)) if len(rho) else 0.0
    surrogate = float(n) + sum(
        (-1.0) ** len(t.index_set) * t.path_sparsity for t in terms
    )
    eps = float(mu * rho_max**1.5)
    return surrogate, eps, theorem1_bound(eps, T), eps < 1.0


def path_deviation(term: PathTerm, slack: float = 1e-12):
    """(deviation, bound, satisfied) for one path term."""
    dev = abs(term.trace_exact - term.path_sparsity)
    return dev, term.deviation_bound, dev <= term.deviation_bound + slack


@dataclass
class JacobianReport:
    """Exact trace, expansion terms, and the surrogate with its bound."""

    n: int
    T: int
    trace: float
    mu_w: float
    rho: list[float]
    epsilon: float
    surrogate: float
    bound: float
    paths: list[PathTerm]

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "T": self.T,
                "trace": self.trace,
                "mu_w": self.mu_w,
                "rho": self.rho,
                "epsilon": self.epsilon,
                "surrogate": self.surrogate,
                "bound": self.bound,
                "paths": [
                    {
                        "I": list(t.index_set),
                        "trace": t.trace_exact,
                        "p": t.path_sparsity,
                        "bound": t.deviation_bound,
                    }
                    for t in self.paths
                ],
            },
            sort_keys=True,
        )


def jacobian_report(
    trace: ForwardTrace,
    stack: ProximalStack,
    op: SensingOperator,
    step: StepParams,
    max_T: int = DEFAULT_PATH_CAP,
) -> JacobianReport:
    """Full single-input analysis: exact Jacobian plus the path expansion."""
    W, masks = _expansion_weights(trace, stack)
    J = accumulate_jacobian(trace, stack, op, step)
    terms = path_expansion(trace, stack, max_T=max_T)
    mu = incoherence(W)
    rho = [float(d.sum()) for d in masks]
    surrogate, eps, bound, _ = dof_surrogate(terms, stack.n, mu, rho)
    return JacobianReport(
        n=stack.n,
        T=stack.T,
        trace=jacobian_trace_exact(J),
        mu_w=mu,
        rho=rho,
        epsilon=eps,
        surrogate=surrogate,
        bound=bound,
        paths=terms,
    )
