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

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, repeat
from math import comb, fsum, inf
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    PathCapExceededError,
    UnsupportedArchitectureError,
)
from .jsonout import strict_dumps
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
    one-input PathTable they were read from."""

    table: PathTable


class PathTable(NamedTuple):
    """Path expansion of B inputs on one W. Columns run over the 2^T - 1
    nonempty iteration subsets in combinations order (by size, then
    lexicographically)."""

    traces: np.ndarray  # (B, 2^T - 1) tr(P_I), P_I the masked Gram product
    path_sparsity: np.ndarray  # (B, 2^T - 1) p_I = tr(D_I B^|I|)
    deviation_bound: np.ndarray  # (B, 2^T - 1) Lemma 4's index-cycle bound, see _sparsity_half
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


# Bytes of temporaries (l-by-l products, joint masks) that the path
# kernel may keep alive, over all the inputs it expands at once.
_PRODUCT_BUDGET = 4 << 20


class _Level(NamedTuple):
    """The j-subsets s of range(T), in combinations order."""

    idx: np.ndarray  # (N, j) indices
    masks: np.ndarray  # (N,) bitmasks
    prefix: np.ndarray  # (N,) row of s[:-1] in level j - 1 (row 0 of level 0 is ())
    tail: np.ndarray  # (N,) row of s[1:] in level j - 1


class _Subsets(NamedTuple):
    """The 2^T - 1 nonempty subsets I of range(T) in combinations order,
    by level and whole."""

    levels: tuple  # the _Level of each size j = 1..T
    order: np.ndarray  # (2^T - 1,) bitmasks
    signs: np.ndarray  # (2^T - 1,) (-1)^|I|


@lru_cache(maxsize=DEFAULT_PATH_CAP + 1)
def _subsets(T: int) -> _Subsets:
    """The `_Subsets` of T, built once per T."""
    rank = np.zeros(1 << T, dtype=np.intp)  # row of a bitmask within its level
    levels = []
    for j in range(1, T + 1):
        subsets = list(combinations(range(T), j))
        idx = np.array(subsets, dtype=np.intp)
        masks = (1 << idx).sum(axis=1)
        rank[masks] = np.arange(len(subsets))
        prefix = rank[masks ^ (1 << idx[:, -1])]
        tail = rank[masks ^ (1 << idx[:, 0])]
        for a in (idx, masks, prefix, tail):
            a.flags.writeable = False  # shared by every caller
        levels.append(_Level(idx, masks, prefix, tail))
    order = np.concatenate([level.masks for level in levels])
    signs = np.concatenate([np.full(len(level.idx), (-1.0) ** j) for j, level in enumerate(levels, 1)])
    order.flags.writeable = signs.flags.writeable = False
    return _Subsets(tuple(levels), order, signs)


@lru_cache(maxsize=DEFAULT_PATH_CAP + 1)
def _term_tables(T: int):
    """What a PathTerm owes to T alone, built once per T: the 1-based
    index sets in combinations order and, per level j >= 2, one
    itemgetter of its subsets' indices in turn, which returns each
    subset's j values in a row from a length-T list."""
    levels = _subsets(T).levels
    index_sets = tuple(tuple(t + 1 for t in s) for level in levels for s in level.idx.tolist())
    return index_sets, tuple(itemgetter(*level.idx.ravel().tolist()) for level in levels[1:])


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
    levels = _subsets(m).levels
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


def _mask_words(d):
    """The integer pass of the word kernel on one input's masks d (T, l).
    Iteration t's mask is named by rep[t], the first iteration with the
    same mask; the word of a subset I is the sequence of names along it,
    numbered within each level j of `_subsets(T)` by the key (name of
    min I, word of I - {min I}), so that a level's words run grouped by
    head. Returns (rep, levels): per level j >= 2 the triple (word,
    tails, bounds), the word of each subset, each word's tail word in
    level j - 1 (an iteration at j = 2), and the words with head t,
    words[bounds[t]:bounds[t + 1]]."""
    seen = {}
    rep = np.array([seen.setdefault(row.tobytes(), t) for t, row in enumerate(d)], dtype=np.intp)
    T = len(d)
    word, count, levels = rep, T, []
    for level in _subsets(T).levels[1:]:
        key = rep[level.idx[:, 0]] * count + word[level.tail]
        number = np.zeros(T * count, dtype=np.intp)
        number[key] = 1
        keys = np.flatnonzero(number)
        number[keys] = np.arange(len(keys))
        word = number[key]
        bounds = np.searchsorted(keys, np.arange(0, number.size + 1, count)).tolist()
        levels.append((word, keys % count, bounds))
        count = len(keys)
    return rep, levels


def _words_pay(words, width):
    """Whether `_word_expand` runs on an input with these `_mask_words`:
    when its distinct words number at most 0.4 of its 2^T - 1 subsets,
    and each level, with its largest gathered group beside it, fits in one
    of `_expand`'s two buffers of `width` products.

    The word kernel's time over `_expand`'s, measured by words per subset
    on one input (2 vCPUs, one OpenBLAS thread; 60 random mask sequences
    per size, half of them with a converged tail):
    - T = 10, l = 32: 0.16 below 0.1, 0.62 at 0.3-0.4, 0.87 at 0.4-0.5
      and 1.26 at 0.7-0.8, beside 1.5 ms for `_expand`;
    - T = 8 to 14, l = 8 to 16: 0.2-0.7 below 0.3, 0.9-1.0 at 0.3-0.4
      and 1.0-1.1 at 0.4-0.5;
    - T = 4, l = 32: 1.0-1.3 throughout, beside 0.07 ms for `_expand`."""
    rep, levels = words
    count = len(set(rep.tolist())) + sum(len(tails) for _, tails, _ in levels)
    if 5 * count > 2 * ((1 << len(rep)) - 1):  # so T >= 4
        return False
    return all(len(tails) + max(hi - lo for lo, hi in zip(bounds, bounds[1:])) <= width
               for _, tails, bounds in levels)


def _word_expand(traces, masked, rep, levels, buffers):
    """Store tr P_I in traces[I] for every nonempty I of one input, with one
    product per distinct word: masked[t] = D_t G, (rep, levels) the
    `_mask_words` of the input, and buffers `_expand`'s two level buffers.
    A word's product is its tail's times its head's factor, P_I =
    P_{I - min I} @ D_{min I} G as in `_expand`, so subsets with one word
    have equal factors in the same order and equal products, bit for bit.
    The words of a level with one head are one batched product with a
    shared right factor. Its left factors are a slice of the level below,
    or its rows gathered into the buffer's slots past the level.
    """
    subsets = _subsets(len(rep)).levels
    traces[subsets[0].masks] = masked.trace(axis1=1, axis2=2)
    below = masked
    for k, (level, (word, tails, bounds)) in enumerate(zip(subsets[1:], levels)):
        products, spare = buffers[k % 2, : len(tails)], buffers[k % 2, len(tails) :]
        for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if lo == hi:
                continue
            first, last = tails[lo], tails[hi - 1]
            if last - first == hi - 1 - lo:
                rows = below[first : last + 1]
            else:
                rows = np.take(below, tails[lo:hi], axis=0, out=spare[: hi - lo])
            np.matmul(rows, masked[t], out=products[lo:hi])
        traces[level.masks] = products.trace(axis1=1, axis2=2)[word]
        below = products


def _sparsity_half(d, b, mu, sparsity, p, bound):
    """Store the path sparsities and deviation bounds of masks d (B, T, l)
    in p and bound, (B, 2^T - 1) each in combinations order. Each level's
    joint masks and sparsity products are one elementwise product with
    its prefix's row.

    The bound on |tr P_I - p_I| counts index cycles: tr P_I sums, over
    the cycles that pick one active row per hop, the products of the G
    entries between consecutive rows, and p_I is the sum over its
    constant cycles. A singleton has only those, so its bound is 0. For
    |I| >= 2 there are at most prod_{t in I} s_t cycles; one that is not
    constant has at least two off-diagonal factors, each at most mu, and
    its others are at most max(max b, mu). So the bound is
    (prod_{t in I} s_t) mu^2 max(max b, mu)^(|I| - 2), infinite past the
    largest float."""
    B, T, ell = d.shape
    joint, prev = np.ones((B, 1, ell)), np.ones((B, 1))
    mu, cap = np.float64(mu), max(b.max(), mu)  # numpy floats overflow to inf
    col = 0
    for j, level in enumerate(_subsets(T).levels, 1):
        last = level.idx[:, -1]
        joint = joint.take(level.prefix, axis=1) * d.take(last, axis=1)
        prev = prev.take(level.prefix, axis=1) * sparsity.take(last, axis=1)
        cols = slice(col, col + len(last))
        p[:, cols] = (joint * b**j).sum(axis=2)
        bound[:, cols] = prev * (0.0 if j == 1 else mu**2 * cap ** (j - 2))
        col = cols.stop


def _sparsity_bytes(T: int, ell: int) -> int:
    """Bytes per input of the sparsity half: two levels of joint masks and
    a weighted copy, plus four rows over the subsets (p, the bounds, and
    path_surrogates' signed p and their running sums)."""
    return 8 * (3 * comb(T, T // 2) * ell + 4 * ((1 << T) - 1))


def _path_setup(W, masks):
    """Checked float masks (B, T, l), W W^H with its diagonal and mu, and
    the (B, T) sparsities."""
    W = np.asarray(W, dtype=np.float64)
    d = np.asarray(masks, dtype=np.float64)
    if d.ndim != 3 or d.shape[1] < 1:
        raise ValueError(f"masks must be (B, T, l) with T >= 1, got shape {d.shape}")
    if d.shape[2] != W.shape[0]:
        raise DimensionMismatchError("path mask width", W.shape[0], d.shape[2])
    G, b, mu = _gram(W)
    return d, G, b, mu, d.sum(axis=2)


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
    fit and one product at a time below that. One input whose masks
    repeat, as a converging net's do, runs `_word_expand` instead where
    `_words_pay` says so: one product per distinct sequence of masks along
    a subset, bit for bit the same, in the same two level buffers. Joint
    masks and deviation bounds grow from each subset's prefix I[:-1] in
    index order, one elementwise product per subset size, for as many
    inputs at once as fit in the budget.
    """
    d, G, b, mu, sparsity = _path_setup(W, masks)
    B, T, ell = d.shape
    p, bound = np.empty((2, B, (1 << T) - 1))
    for rows in _chunks(B, _sparsity_bytes(T, ell)):
        _sparsity_half(d[rows], b, mu, sparsity[rows], p[rows], bound[rows])
    traces = np.empty((1 << T, B))  # by subset bitmask
    width = comb(T - 1, (T - 1) // 2)  # of _expand's level buffers
    levels_bytes = (T + 2 * width) * G.nbytes
    words = _mask_words(d[0]) if B == 1 and levels_bytes <= _PRODUCT_BUDGET else None
    if words is not None and _words_pay(words, width):
        _word_expand(traces[:, 0], d[0, :, :, None] * G, *words, np.empty((2, width) + G.shape))
    else:
        for rows in _chunks(B, levels_bytes):
            masked = d[rows, :, :, None] * G  # D_t G
            _expand(traces[:, rows], masked, masked, 0, _PRODUCT_BUDGET - masked.nbytes)
            del masked
    return PathTable(traces.take(_subsets(T).order, axis=0).T, p, bound, sparsity, mu)


def alternating_sums(p, n: int) -> np.ndarray:
    """The path surrogates n + sum_I (-1)^|I| p_I of the rows of p
    (B, 2^T - 1), each summed over the subsets in combinations order from
    left to right."""
    signs = _subsets(p.shape[1].bit_length()).signs  # 2^T - 1 has T bits
    return float(n) + np.add.accumulate(p * signs, axis=1)[:, -1]


def path_surrogates(W, masks, n: int):
    """The `alternating_sums` of B inputs, from the sparsity half of
    `path_table` alone (no l x l product), with the p_I held for as many
    inputs at once as fit in the budget. Returns (surrogates (B,),
    sparsities (B, T), mu).
    """
    d, _, b, mu, sparsity = _path_setup(W, masks)
    B, T, ell = d.shape
    out = np.empty(B)
    for rows in _chunks(B, _sparsity_bytes(T, ell)):
        p, bound = np.empty((2, len(d[rows]), (1 << T) - 1))
        _sparsity_half(d[rows], b, mu, sparsity[rows], p, bound)
        out[rows] = alternating_sums(p, n)
    return out, sparsity, mu


def expansion_error(stack: ProximalStack, max_T: int, op=None, step=None):
    """None where the path expansion is the net's Jacobian prod_t (I - W^T D_t W):
    the identity operator with the data step skipped (unchecked without op
    and step), and a symmetric single-layer ws stack with T <= max_T.
    Elsewhere the error to raise."""
    if op is not None and (op.kind != "identity" or not step.skipped):
        return UnsupportedArchitectureError("path expansion needs the identity operator with the data step skipped")
    if stack.K != 1 or not stack.symmetric:
        return UnsupportedArchitectureError("path expansion needs a symmetric single-layer stack (K=1)")
    if stack.mode != "ws":
        return UnsupportedArchitectureError("path expansion needs shared weights across iterations")
    if stack.T > max_T:
        return PathCapExceededError(f"path expansion for T={stack.T} exceeds the cap {max_T} (2^T subsets)")
    return None


def path_expansion(
    masks,
    stack: ProximalStack,
    max_T: int = DEFAULT_PATH_CAP,
) -> PathExpansion:
    """Enumerate all 2^T - 1 nonempty iteration subsets of one input's
    recorded masks, in combinations order (by size, then
    lexicographically): the one-input case of `path_table`, as PathTerms.
    A term is its row of the table with the `_term_tables` of T: its
    index set and, picked from the input's T sparsities, its per-hop ones.
    Raises the `expansion_error` of the stack."""
    error = expansion_error(stack, max_T)
    if error is not None:
        raise error
    T = stack.T
    table = path_table(stack.weights[0][0][0], [[masks[t][0] for t in range(T)]])
    index_sets, picks = _term_tables(T)
    s = table.sparsities[0].tolist()
    # level 1 is s itself; level j >= 2 groups its picks j at a time
    hops = chain(zip(s), *(zip(*[iter(pick(s))] * j) for j, pick in enumerate(picks, 2)))
    rows = zip(index_sets, table.traces[0].tolist(), table.path_sparsity[0].tolist(),
               table.deviation_bound[0].tolist(), hops)
    terms = PathExpansion(map(tuple.__new__, repeat(PathTerm), rows))
    terms.table = table
    return terms


def _check_finite(what: str, checked: dict):
    """Raise NonFiniteError naming the values of `checked` that are not
    finite (a count for arrays); None values are skipped."""
    bad = [name if np.ndim(v) == 0 else f"{np.sum(~np.isfinite(v))} of {np.size(v)} {name}"
           for name, v in checked.items() if v is not None and not np.isfinite(v).all()]
    if bad:
        raise NonFiniteError(f"non-finite {what}: " + ", ".join(bad))


def theorem1_bound(mu: float, sparsities):
    """Theorem 1 on B inputs on a W of incoherence mu, from their (B, T)
    per-iteration sparsities tr(D_t): rho_max, the largest over t of their
    mean over the inputs; eps = mu * rho_max^(3/2); the surrogate error
    bound (1 + eps)^T - 1 - eps*T, summed as sum_{k=2}^T C(T, k) eps^k so
    that a small eps does not cancel, and infinite beyond the largest
    float; and whether eps < 1, the theorem's hypothesis. Returns
    (rho_max, eps, bound, valid)."""
    rho_max = float((sparsities.sum(axis=0) / len(sparsities)).max())
    eps, T = float(mu * rho_max**1.5), sparsities.shape[1]
    try:
        bound = fsum(comb(T, k) * eps**k for k in range(2, T + 1))
    except OverflowError:  # eps**k or the sum passed the largest float
        bound = inf
    return rho_max, eps, bound, eps < 1.0


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
    valid: bool
    paths: list[PathTerm]

    def to_json(self) -> str:
        paths = [{"I": list(t.index_set), "trace": t.trace_exact, "p": t.path_sparsity,
                  "bound": t.deviation_bound} for t in self.paths]
        return strict_dumps({**self.__dict__, "paths": paths}, sort_keys=True)


def jacobian_report(
    masks,
    stack: ProximalStack,
    op: SensingOperator,
    step: StepParams,
    max_T: int = DEFAULT_PATH_CAP,
) -> JacobianReport:
    """Full single-input analysis: the exact Jacobian, the path expansion,
    and its `alternating_sums` surrogate with `theorem1_bound`'s eps and bound.
    Raises the `expansion_error` of the net: the expansion's product
    prod_t (I - W^T D_t W) is the Jacobian only on the identity operator
    with the data step skipped. Raises NonFiniteError, naming them, where
    the trace, path traces, path sparsities or surrogate overflow; the
    bounds may be infinite."""
    error = expansion_error(stack, max_T, op, step)
    if error is not None:
        raise error
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        trace = jacobian_trace_exact(accumulate_jacobian(masks, stack, op, step))
        terms = path_expansion(masks, stack, max_T=max_T)
        table = terms.table
        surrogate = float(alternating_sums(table.path_sparsity, stack.n)[0])
    _check_finite("Jacobian report", {"trace": trace, "path traces": table.traces,
                                      "path sparsities": table.path_sparsity, "surrogate": surrogate})
    _, eps, bound, valid = theorem1_bound(table.mu, table.sparsities)
    return JacobianReport(n=stack.n, T=stack.T, trace=trace, mu_w=table.mu,
                          rho=table.sparsities[0].tolist(), epsilon=eps, surrogate=surrogate,
                          bound=bound, valid=valid, paths=terms)
