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
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple

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


# Bytes of l-by-l products that a level-by-level expansion may keep alive.
_PRODUCT_BUDGET = 4 << 20


class _Level(NamedTuple):
    """The j-subsets s of range(T), in combinations order."""

    idx: np.ndarray  # (N, j) indices
    masks: np.ndarray  # (N,) bitmasks
    prefix: np.ndarray  # (N,) row of s[:-1] in level j - 1 (row 0 of level 0 is ())
    index_sets: tuple  # 1-based tuples


@lru_cache(maxsize=DEFAULT_PATH_CAP + 1)
def _subset_levels(T: int) -> tuple[_Level, ...]:
    """Levels 1..T of the subsets of range(T), built once per T."""
    rank = np.zeros(1 << T, dtype=np.intp)  # row of a bitmask within its level
    levels = []
    for j in range(1, T + 1):
        subsets = list(combinations(range(T), j))
        idx = np.array(subsets, dtype=np.intp)
        masks = (1 << idx).sum(axis=1)
        rank[masks] = np.arange(len(subsets))
        prefix = rank[masks ^ (1 << idx[:, -1])]
        for a in (idx, masks, prefix):
            a.flags.writeable = False  # shared by every caller
        levels.append(_Level(idx, masks, prefix, tuple(tuple(t + 1 for t in s) for s in subsets)))
    return tuple(levels)


def _expand(traces, masked, P, high, budget):
    """Store tr P_{I+J} in traces[I | J] for every nonempty I within
    range(m), given P[t] = P_{t+J} for t < m; J is the bitmask `high`,
    all of whose indices are >= m, and P_{t+J} = P_J @ D_t G.

    Level k of the I's is built from level k - 1: the k-subsets with head
    t are (t,) + I' for the I' of level k - 1 with min I' > t, a suffix of
    that level in the same order, so each (level, head) is one product
    with a shared right factor. A level keeps only the products of heads
    >= 1, the only ones with children. While two of the widest such
    levels would exceed `budget` bytes, the children t + J of J are
    expanded one at a time instead (depth first over the high index).
    """
    m = len(P)
    levels = _subset_levels(m)
    traces[levels[0].masks | high] = np.trace(P, axis1=1, axis2=2)
    if 2 * comb(m - 1, (m - 1) // 2) * P[0].nbytes > budget:
        for t in range(1, m):
            child = P[t] @ masked[:t]
            _expand(traces, masked, child, high | 1 << t, budget - child.nbytes)
        return
    kept = P[1:]
    for k, level in enumerate(levels[1:], 2):
        head0 = len(kept)
        traces[level.masks[:head0] | high] = np.trace(kept @ masked[0], axis1=1, axis2=2)
        heads = np.empty((comb(m - 1, k),) + P.shape[1:])
        row = 0
        for t in range(1, m - k + 1):
            rows = comb(m - 1 - t, k - 1)
            np.matmul(kept[head0 - rows:], masked[t], out=heads[row : row + rows])
            row += rows
        traces[level.masks[head0:] | high] = np.trace(heads, axis1=1, axis2=2)
        kept = heads


def path_expansion(
    trace: ForwardTrace,
    stack: ProximalStack,
    max_T: int = DEFAULT_PATH_CAP,
) -> list[PathTerm]:
    """Enumerate all 2^T - 1 nonempty iteration subsets, in
    combinations order (by size, then lexicographically).

    Traces are evaluated on the l-by-l Gram matrix W W^H, which matches
    tr(J_I) by cyclicity. Each subset's product P_I, associated left to
    right from its largest index, costs one l x l product: subsets are
    expanded level by level with one batched product per (subset size,
    smallest index), while two levels of products fit in a 4 MiB budget;
    above that the largest indices are walked depth first, one batch of
    at most T products per depth. Joint masks and deviation bounds grow
    from each subset's prefix I[:-1] in index order, one elementwise
    product per subset size.
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
    traces = np.empty(1 << T)  # by subset bitmask
    _expand(traces, masked, masked, 0, _PRODUCT_BUDGET - masked.nbytes)
    del masked
    sparsity = d.sum(axis=1)
    # deviation bound of a path: prod over its hops of sqrt(s) (s - 1) mu
    hop = np.sqrt(sparsity) * np.maximum(sparsity - 1.0, 0.0) * mu
    joint, bound = np.ones((1, d.shape[1])), np.ones(1)
    terms = []
    for j, level in enumerate(_subset_levels(T), 1):
        last = level.idx[:, -1]
        joint = joint[level.prefix] * d[last]
        bound = bound[level.prefix] * hop[last]
        terms += map(
            PathTerm,
            level.index_sets,
            traces[level.masks].tolist(),
            (joint * b**j).sum(axis=1).tolist(),
            bound.tolist(),
            map(tuple, sparsity[level.idx].tolist()),
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
