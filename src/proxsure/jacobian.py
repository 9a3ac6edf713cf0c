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
from itertools import chain, combinations
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    PathCapExceededError,
    UnsupportedArchitectureError,
)
from .network import ProximalStack, unroll
from .operators import SensingOperator, StepParams, step_matrices

DEFAULT_PATH_CAP = 14


class PathTerm(NamedTuple):
    """One subset I of iterations in the Jacobian expansion."""

    index_set: tuple[int, ...]  # 1-based, strictly increasing
    trace_exact: float
    path_sparsity: float
    deviation_bound: float
    sparsities: tuple[float, ...]  # realized tr(D_i) per hop


class PathExpansion(list):
    """The PathTerms of one input in combinations order, with the
    incoherence `mu` of the W they were expanded on."""

    mu: float


class PathTable(NamedTuple):
    """Path expansion of B inputs on one W. Columns run over the 2^T - 1
    nonempty iteration subsets in combinations order (by size, then
    lexicographically)."""

    traces: np.ndarray  # (B, 2^T - 1) tr(P_I), P_I the masked Gram product
    path_sparsity: np.ndarray  # (B, 2^T - 1) p_I = tr(D_I B^|I|)
    deviation_bound: np.ndarray  # (B, 2^T - 1) prod over hops of sqrt(s) (s - 1) mu
    sparsities: np.ndarray  # (B, T) realized tr(D_t)
    mu: float  # incoherence of W


def accumulate_jacobian(
    masks,
    stack: ProximalStack,
    op: SensingOperator,
    step: StepParams,
) -> np.ndarray:
    """Assemble d x^T / d y (n-by-m) with the recorded masks frozen.

    Frozen masks make the network linear in y, so `unroll` on the rows
    of I_m returns the Jacobian's transpose row by row."""
    if len(masks) != stack.T:
        raise ValueError("trace does not match the stack's iteration count")
    for t in range(stack.T):
        if len(masks[t]) != stack.K:
            raise ValueError(
                f"trace iteration {t} needs {stack.K} masks, one per layer, got {len(masks[t])}"
            )
        for (W, _), mask in zip(stack.layer_weights(t), masks[t]):
            if np.ndim(mask) != 1:
                raise ValueError(f"trace masks must be 1-D, got shape {np.shape(mask)}")
            if len(mask) != W.shape[0]:
                raise DimensionMismatchError("trace mask width", W.shape[0], len(mask))
    return unroll(np.eye(op.m), stack, op, *step_matrices(op, step), masks=masks)[0].T


def jacobian_trace_exact(J: np.ndarray) -> float:
    """Trace of the assembled end-to-end Jacobian: the exact DOF."""
    J = np.asarray(J)
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise ValueError(f"trace needs a square matrix, got shape {J.shape}")
    return float(np.trace(J))


def _gram(W: np.ndarray):
    """G = W W^H, its diagonal B and the incoherence: the largest
    off-diagonal magnitude of G, 0 for a single row."""
    if W.size == 0:
        raise ValueError("incoherence of an empty matrix is undefined")
    G = W @ W.T
    mu = float(np.abs(G - np.diag(np.diag(G))).max()) if len(G) > 1 else 0.0
    return G, np.diag(G), mu


def incoherence(W: np.ndarray) -> float:
    """Largest off-diagonal magnitude of W W^H; 0 for a single row."""
    return _gram(np.asarray(W, dtype=np.float64))[2]


# Bytes of temporaries (l-by-l products, joint masks) that the path
# kernel may keep alive, over all the inputs it expands at once.
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


def _chunks(B: int, nbytes: int):
    """Slices of the B inputs, as many per slice as fit nbytes each in
    the budget, and at least one."""
    step = max(1, _PRODUCT_BUDGET // nbytes)
    return [slice(lo, lo + step) for lo in range(0, B, step)]


def _expand(traces, masked, P, high, budget):
    """Store tr P_{I+J} in traces[I | J] for every nonempty I within
    range(m), given P[:, t] = P_{t+J} for t < m; J is the bitmask `high`,
    all of whose indices are >= m, and P_{t+J} = P_J @ D_t G. The leading
    axis of P and masked, and the last axis of traces, run over inputs.

    Level k of the I's is built from level k - 1: the k-subsets with head
    t are (t,) + I' for the I' of level k - 1 with min I' > t, a suffix of
    that level in the same order, so each (level, head) is one product
    with a shared right factor. A level keeps only the products of heads
    >= 1, the only ones with children. The levels alternate between two
    buffers as wide as the widest kept level, allocated once per call: a
    level's head-0 products (its leaves) are traced in the spare buffer,
    and its heads then overwrite them there. While two of the widest such
    levels would exceed `budget` bytes, each t + J is expanded on its own
    by `_children` instead (depth first over the high index).
    """
    m = P.shape[1]
    levels = _subset_levels(m)
    traces[levels[0].masks | high] = P.trace(axis1=2, axis2=3).T
    if m < 2:
        return
    width = comb(m - 1, (m - 1) // 2)  # of the widest kept level
    if 2 * width * P[:, 0].nbytes > budget:
        for t in range(1, m):
            _children(traces, masked, P[:, t], high | 1 << t, t, budget)
        return
    kept = P[:, 1:]
    buffers = np.empty((2, len(P), width) + P.shape[2:])
    for k, level in enumerate(levels[1:], 2):
        spare = buffers[k % 2]  # the buffer kept does not live in
        head0 = kept.shape[1]
        leaves = np.matmul(kept, masked[:, :1], out=spare[:, :head0])
        traces[level.masks[:head0] | high] = leaves.trace(axis1=2, axis2=3).T
        heads = spare[:, : comb(m - 1, k)]
        row = 0
        for t in range(1, m - k + 1):
            rows = comb(m - 1 - t, k - 1)
            np.matmul(kept[:, head0 - rows:], masked[:, t : t + 1], out=heads[:, row : row + rows])
            row += rows
        traces[level.masks[head0:] | high] = heads.trace(axis1=2, axis2=3).T
        kept = heads


def _children(traces, masked, P, high, m, budget):
    """Expand the subsets I + J, I nonempty within range(m), of one
    product P = P_J (J the bitmask `high`): as one batch of its m children
    when that batch and a walk below it fit in `budget` bytes, else one
    child at a time, so the products alive beyond the budget stay at
    about T."""
    if (2 * m - 1) * P.nbytes <= budget:
        child = P[:, None] @ masked[:, :m]
        _expand(traces, masked, child, high, budget - child.nbytes)
        return
    for t in range(m):
        child = P @ masked[:, t]
        traces[high | 1 << t] = child.trace(axis1=1, axis2=2)
        if t:
            _children(traces, masked, child, high | 1 << t, t, budget - child.nbytes)


def _sparsity_half(d, b, hop, p, bound):
    """Store the path sparsities and deviation bounds of masks d (B, T, l)
    in p and bound, (B, 2^T - 1) each in combinations order. Each level's
    joint masks and bounds are one elementwise product with its prefix's
    row."""
    B, T, ell = d.shape
    joint, prev = np.ones((B, 1, ell)), np.ones((B, 1))
    col = 0
    for j, level in enumerate(_subset_levels(T), 1):
        last = level.idx[:, -1]
        joint = joint.take(level.prefix, axis=1) * d.take(last, axis=1)
        prev = prev.take(level.prefix, axis=1) * hop.take(last, axis=1)
        cols = slice(col, col + len(last))
        p[:, cols] = (joint * b**j).sum(axis=2)
        bound[:, cols] = prev
        col = cols.stop


def _sparsity_bytes(T: int, ell: int) -> int:
    """Bytes per input of the sparsity half: two levels of joint masks and
    a weighted copy, plus four rows over the subsets (p, the bounds, and
    path_surrogates' signed p and their running sums)."""
    return 8 * (3 * comb(T, T // 2) * ell + 4 * ((1 << T) - 1))


def _path_setup(W, masks):
    """Checked float masks (B, T, l), W W^H with its diagonal and mu, the
    (B, T) sparsities and each hop's factor of the deviation bound."""
    W = np.asarray(W, dtype=np.float64)
    d = np.asarray(masks, dtype=np.float64)
    if d.ndim != 3 or d.shape[1] < 1:
        raise ValueError(f"masks must be (B, T, l) with T >= 1, got shape {d.shape}")
    if d.shape[2] != W.shape[0]:
        raise DimensionMismatchError("path mask width", W.shape[0], d.shape[2])
    G, b, mu = _gram(W)
    sparsity = d.sum(axis=2)
    # deviation bound of a path: prod over its hops of sqrt(s) (s - 1) mu
    hop = np.sqrt(sparsity) * np.maximum(sparsity - 1.0, 0.0) * mu
    return d, G, b, mu, sparsity, hop


def path_table(W, masks) -> PathTable:
    """Expand the traces of B inputs' Jacobians over all iteration subsets.

    W is the (l, n) weight of a shared symmetric single-layer stack and
    masks a (B, T, l) 0/1 array, row t of input i its mask at iteration t.
    Traces are evaluated on the l-by-l Gram matrix W W^H, which matches
    tr(J_I) by cyclicity. Each subset's product P_I, associated left to
    right from its largest index, costs one l x l product: subsets are
    expanded level by level with one batched product per (subset size,
    smallest index), over as many inputs at once as fit two levels in the
    `_PRODUCT_BUDGET` of 4 MiB; when one input does not fit, its largest
    indices are walked depth first, in batches of children while they
    fit and one product at a time below that. Joint masks and deviation
    bounds grow from each subset's prefix I[:-1] in index order, one
    elementwise product per subset size, for as many inputs at once as
    fit in the budget.
    """
    d, G, b, mu, sparsity, hop = _path_setup(W, masks)
    B, T, ell = d.shape
    p, bound = np.empty((2, B, (1 << T) - 1))
    for rows in _chunks(B, _sparsity_bytes(T, ell)):
        _sparsity_half(d[rows], b, hop[rows], p[rows], bound[rows])
    traces = np.empty((1 << T, B))  # by subset bitmask
    for rows in _chunks(B, (T + 2 * comb(T - 1, (T - 1) // 2)) * G.nbytes):
        masked = d[rows, :, :, None] * G  # D_t G
        _expand(traces[:, rows], masked, masked, 0, _PRODUCT_BUDGET - masked.nbytes)
        del masked
    order = np.concatenate([level.masks for level in _subset_levels(T)])
    return PathTable(traces.take(order, axis=0).T, p, bound, sparsity, mu)


def path_surrogates(W, masks, n: int):
    """The alternating path-sparsity sums n + sum_I (-1)^|I| p_I of B
    inputs, from the sparsity half of `path_table` alone (no l x l
    product). Each sum runs over the subsets in combinations order from
    left to right, as `jacobian_report` sums a term list, and the p_I are
    held for as many inputs at once as fit in the budget. Returns
    (surrogates (B,), sparsities (B, T), mu).
    """
    d, _, b, mu, sparsity, hop = _path_setup(W, masks)
    B, T, ell = d.shape
    signs = np.concatenate([np.full(len(level.idx), (-1.0) ** j)
                            for j, level in enumerate(_subset_levels(T), 1)])
    out = np.empty(B)
    for rows in _chunks(B, _sparsity_bytes(T, ell)):
        p, bound = np.empty((2, len(d[rows]), len(signs)))
        _sparsity_half(d[rows], b, hop[rows], p, bound)
        out[rows] = float(n) + np.add.accumulate(p * signs, axis=1)[:, -1]
    return out, sparsity, mu


def path_expansion(
    masks,
    stack: ProximalStack,
    max_T: int = DEFAULT_PATH_CAP,
) -> PathExpansion:
    """Enumerate all 2^T - 1 nonempty iteration subsets of one input's
    recorded masks, in combinations order (by size, then
    lexicographically): the one-input case of `path_table`, as PathTerms."""
    if stack.K != 1 or not stack.symmetric:
        raise UnsupportedArchitectureError(
            "path expansion needs a symmetric single-layer stack (K=1)"
        )
    if stack.mode != "ws":
        raise UnsupportedArchitectureError(
            "path expansion needs shared weights across iterations"
        )
    T = stack.T
    if T > max_T:
        raise PathCapExceededError(
            f"path expansion for T={T} exceeds the cap {max_T} (2^T subsets)"
        )
    table = path_table(stack.weights[0][0][0], [[masks[t][0] for t in range(T)]])
    levels = _subset_levels(T)
    sparsity = table.sparsities[0]
    terms = PathExpansion(map(
        PathTerm,
        chain.from_iterable(level.index_sets for level in levels),
        table.traces[0].tolist(),
        table.path_sparsity[0].tolist(),
        table.deviation_bound[0].tolist(),
        chain.from_iterable(map(tuple, sparsity[level.idx].tolist()) for level in levels),
    ))
    terms.mu = table.mu
    return terms


def theorem1_bound(mu: float, rho_max: float, T: int) -> tuple[float, float]:
    """Theorem 1's eps = mu * rho_max^(3/2) and its surrogate error bound
    (1 + eps)^T - 1 - eps*T; returns (eps, bound)."""
    eps = float(mu * rho_max**1.5)
    return eps, float((1.0 + eps) ** T - 1.0 - eps * T)


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
                "valid": self.epsilon < 1.0,
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
    masks,
    stack: ProximalStack,
    op: SensingOperator,
    step: StepParams,
    max_T: int = DEFAULT_PATH_CAP,
) -> JacobianReport:
    """Full single-input analysis: the exact Jacobian, the path expansion,
    and its surrogate n + sum_I (-1)^|I| p_I summed over the terms in
    order, with Theorem 1's eps and bound. The expansion's product
    prod_t (I - W^T D_t W) is the Jacobian only on the identity operator
    with the data step skipped; other nets raise
    UnsupportedArchitectureError."""
    if op.kind != "identity" or not step.skipped:
        raise UnsupportedArchitectureError(
            "path expansion needs the identity operator with the data step skipped"
        )
    J = accumulate_jacobian(masks, stack, op, step)
    terms = path_expansion(masks, stack, max_T=max_T)
    rho = [t.sparsities[0] for t in terms[: stack.T]]  # the singletons (1,) .. (T,)
    surrogate = float(stack.n) + sum((-1.0) ** len(t.index_set) * t.path_sparsity for t in terms)
    eps, bound = theorem1_bound(terms.mu, max(rho), stack.T)
    return JacobianReport(
        n=stack.n,
        T=stack.T,
        trace=jacobian_trace_exact(J),
        mu_w=terms.mu,
        rho=rho,
        epsilon=eps,
        surrogate=surrogate,
        bound=bound,
        paths=terms,
    )
