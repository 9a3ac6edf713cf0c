import gc
import hashlib
import json
import tracemalloc
import warnings
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from proxsure import jacobian
from proxsure.errors import (
    DimensionMismatchError,
    NonFiniteError,
    PathCapExceededError,
    UnsupportedArchitectureError,
)
from proxsure.jacobian import (
    PathTerm,
    accumulate_jacobian,
    jacobian_report,
    jacobian_trace_exact,
    path_expansion,
    path_surrogates,
    path_table,
    theorem1_bound,
)
from proxsure.network import ProximalStack, random_stack, unroll, unroll_forward
from proxsure.operators import (
    StepParams,
    circular_operator,
    dense_operator,
    dft_operator,
    identity_operator,
    step_matrices,
)
from proxsure.risk import dof_finite_difference, evaluate_set
from proxsure.network import forward_map
from reference import (
    dof_surrogate,
    incoherence,
    jacobian_from_trace,
    norm_matrix_b,
    path_deviation,
)

STEP0 = StepParams("gradient", 0.0)


def trace_from_masks(masks):
    """Synthetic single-layer trace: the masks of one unit per iteration."""
    return [[np.asarray(m, dtype=bool)] for m in masks]


def stack_for(W, T):
    W = np.asarray(W, dtype=np.float64)
    return ProximalStack(n=W.shape[1], T=T, mode="ws", symmetric=True,
                         weights=(((W, None),),))


def test_accumulate_identity_when_weights_zero():
    n = 4
    stack = stack_for(np.zeros((2, n)), T=2)
    op = identity_operator(n)
    _, tr = unroll_forward(np.ones(n), stack, op, STEP0)
    assert np.array_equal(accumulate_jacobian(tr, stack, op, STEP0), np.eye(n))


def test_accumulate_worked_mask_example():
    W = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    stack = stack_for(W, T=2)
    tr = trace_from_masks([[True, False], [True, True]])
    J = accumulate_jacobian(tr, stack, identity_operator(4), STEP0)
    assert np.allclose(J, np.diag([0.0, 0.0, 1.0, 1.0]))
    assert jacobian_trace_exact(J) == 2.0


@pytest.mark.parametrize("op", [
    identity_operator(6),
    dense_operator(np.random.default_rng(3).standard_normal((5, 6)) / np.sqrt(6)),
    circular_operator([0.6, 0.25, 0.15], n=6),
    dft_operator(6, [1]),
], ids=lambda o: o.kind)
@pytest.mark.parametrize("step", [
    StepParams("gradient", 0.3), StepParams("ls", 0.5), StepParams("deblur", 0.7),
], ids=lambda s: s.kind)
@pytest.mark.parametrize("mode", ["ws", "wc"])
@pytest.mark.parametrize("symmetric", [True, False], ids=["sym", "asym"])
@pytest.mark.parametrize("hidden", [[5], [5, 3]], ids=["K1", "K2"])
def test_accumulate_jacobian_matches_the_stage_products(op, step, mode, symmetric, hidden):
    """The kernel with frozen masks against the product of n-by-n stage
    matrices; on y itself it replays the recorded x^T byte for byte."""
    stack = random_stack(6, hidden, T=3, mode=mode, symmetric=symmetric, seed=8)
    y = np.random.default_rng(9).standard_normal(op.m)
    x, masks = unroll_forward(y, stack, op, step)
    assert unroll(y, stack, op, *step_matrices(op, step), masks=masks)[0].tobytes() == x.tobytes()
    J = accumulate_jacobian(masks, stack, op, step)
    want = jacobian_from_trace(masks, stack, op, step)
    assert J.shape == (op.n, op.m)
    assert np.linalg.norm(J - want) <= 1e-12 * np.linalg.norm(want)


def test_accumulate_jacobian_rejects_masks_that_do_not_fit_the_layers():
    stack = random_stack(6, [4, 3], T=2, seed=1)
    op = identity_operator(6)
    _, masks = unroll_forward(np.ones(6), stack, op, STEP0)
    with pytest.raises(ValueError, match="needs 2 masks, one per layer, got 1"):
        accumulate_jacobian([units[:1] for units in masks], stack, op, STEP0)
    with pytest.raises(DimensionMismatchError):
        accumulate_jacobian([units[::-1] for units in masks], stack, op, STEP0)
    with pytest.raises(ValueError, match="1-D"):
        accumulate_jacobian([[m[None] for m in units] for units in masks], stack, op, STEP0)


def test_trace_requires_square():
    with pytest.raises(ValueError):
        jacobian_trace_exact(np.zeros((2, 3)))
    assert jacobian_trace_exact(np.eye(4)) == 4.0
    assert jacobian_trace_exact(np.zeros((3, 3))) == 0.0


def test_incoherence_values():
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 3)))
    assert incoherence(Q.T) <= 1e-12
    assert np.isclose(incoherence(np.array([[1.0, 0.0], [0.6, 0.8]])), 0.6)
    assert np.isclose(incoherence(np.array([[1.0, 0.0], [1.0, 0.0]])), 1.0)
    assert incoherence(np.array([[1.0, 2.0]])) == 0.0


def test_norm_matrix_b():
    assert np.allclose(norm_matrix_b(np.array([[3.0, 4.0], [0.0, 0.0]])), [25.0, 0.0])
    Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((5, 4)))
    assert np.allclose(norm_matrix_b(Q.T), 1.0)


def test_path_expansion_worked_example():
    # orthonormal rows: traces reduce to joint mask counts
    W = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    stack = stack_for(W, T=2)
    tr = trace_from_masks([[True, False], [True, True]])
    terms = {t.index_set: t for t in path_expansion(tr, stack)}
    assert np.isclose(terms[(1,)].path_sparsity, 1.0)
    assert np.isclose(terms[(2,)].path_sparsity, 2.0)
    assert np.isclose(terms[(1, 2)].path_sparsity, 1.0)
    for t in terms.values():
        assert t.deviation_bound <= 1e-12
        assert np.isclose(t.trace_exact, t.path_sparsity)
    surrogate, eps, bound, valid = dof_surrogate(list(terms.values()), 4, incoherence(W))
    assert np.isclose(surrogate, 2.0)
    assert eps <= 1e-12 and bound <= 1e-12 and valid


def test_path_expansion_zero_masks():
    W = np.random.default_rng(2).standard_normal((3, 5))
    stack = stack_for(W, T=3)
    tr = trace_from_masks([[False] * 3] * 3)
    terms = path_expansion(tr, stack)
    assert len(terms) == 2**3 - 1
    assert all(t.trace_exact == 0.0 and t.path_sparsity == 0.0 for t in terms)
    surrogate, *_ = dof_surrogate(terms, 5, incoherence(W))
    assert surrogate == 5.0


def test_path_expansion_single_unit_row():
    stack = stack_for(np.array([[0.6, 0.8]]), T=1)
    tr = trace_from_masks([[True]])
    (term,) = path_expansion(tr, stack)
    assert np.isclose(term.trace_exact, 1.0)
    assert np.isclose(term.path_sparsity, 1.0)


def test_expansion_identity_matches_exact_trace():
    rng = np.random.default_rng(5)
    for T in (1, 3, 6):
        W = rng.standard_normal((4, 8)) / np.sqrt(8)
        stack = stack_for(W, T=T)
        op = identity_operator(8)
        y = rng.standard_normal(8)
        _, tr = unroll_forward(y, stack, op, STEP0)
        J = accumulate_jacobian(tr, stack, op, STEP0)
        terms = path_expansion(tr, stack)
        alt = 8.0 + sum((-1.0) ** len(t.index_set) * t.trace_exact for t in terms)
        assert abs(jacobian_trace_exact(J) - alt) <= 1e-9 * 8


def test_path_cap_and_architecture_errors():
    W = np.zeros((2, 4))
    stack = stack_for(W, T=3)
    tr = trace_from_masks([[False, False]] * 3)
    with pytest.raises(PathCapExceededError):
        path_expansion(tr, stack, max_T=2)
    bad = random_stack(4, [2, 2], T=2, symmetric=False, seed=0)
    _, tr2 = unroll_forward(np.ones(4), bad, identity_operator(4), STEP0)
    with pytest.raises(UnsupportedArchitectureError):
        path_expansion(tr2, bad)


def test_bound_monotone_in_eps_and_T():
    def bound(eps, T):
        return theorem1_bound(eps, np.ones((1, T)))[2]  # mu = eps, rho_max = 1

    for T in (2, 5, 9):
        vals = [bound(e, T) for e in np.linspace(0, 2, 9)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    for eps in (0.1, 0.5, 0.9):
        vals = [bound(eps, T) for T in range(1, 10)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
    # (1 + eps)^T - 1 - eps T read -4e-17 at eps = 1e-17, 3.3e-16 at 1e-9
    # and 642478.7469999999 at 85.3, T = 3
    for eps, T in [(1e-17, 4), (1e-9, 4), (85.3, 3), (0.3, 5), (0.3, 1)]:
        assert bound(eps, T) == float(sum(comb(T, k) * Fraction(eps) ** k for k in range(2, T + 1)))


def test_bound_is_infinite_past_the_largest_float():
    # eps**3 overflows a float; eps >= 1 there, so Theorem 1 does not apply
    rho_max, eps, bound, valid = theorem1_bound(1e200, np.full((1, 3), 8.0))
    assert (rho_max, eps, bound, valid) == (8.0, 1e200 * 8.0**1.5, np.inf, False)


def test_jacobian_report_of_an_overflowing_net_names_its_non_finite_values():
    # weights of size 1e60 on an input of size 1e-70: the forward stays
    # finite, while the Jacobian and the 3-hop path overflow
    stack = stack_for(1e60 * random_stack(8, [4], T=3, seed=0).weights[0][0][0], T=3)
    op = identity_operator(8)
    _, tr = unroll_forward(np.full(8, 1e-70), stack, op, STEP0, record=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError) as info:
            jacobian_report(tr, stack, op, STEP0)
    assert str(info.value) == (
        "non-finite Jacobian report: trace, 1 of 7 path traces, 1 of 7 path sparsities, surrogate"
    )


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(8)
    n = 10
    stack = random_stack(n, [6], T=3, seed=3)
    op = identity_operator(n)
    h = forward_map(stack, op, STEP0)
    y = rng.standard_normal(n)
    _, tr = unroll_forward(y, stack, op, STEP0)
    exact = jacobian_trace_exact(accumulate_jacobian(tr, stack, op, STEP0))
    fd = dof_finite_difference(h, y)
    assert abs(exact - fd) <= 1e-5 * (1 + abs(exact))


def test_jacobian_report_json_schema():
    import json

    n = 6
    stack = random_stack(n, [3], T=2, seed=4)
    op = identity_operator(n)
    y = np.random.default_rng(4).standard_normal(n)
    _, tr = unroll_forward(y, stack, op, STEP0)
    report = jacobian_report(tr, stack, op, STEP0)
    payload = json.loads(report.to_json())
    assert set(payload) == {"n", "T", "trace", "mu_w", "rho", "epsilon",
                            "surrogate", "bound", "valid", "paths"}
    assert payload["valid"] is (payload["epsilon"] < 1)
    assert len(payload["paths"]) == 2**2 - 1
    assert set(payload["paths"][0]) == {"I", "trace", "p", "bound"}


def test_path_deviation_helper():
    W = np.array([[1.0, 0, 0], [0, 1.0, 0]])
    stack = stack_for(W, T=1)
    tr = trace_from_masks([[True, True]])
    (term,) = path_expansion(tr, stack)
    dev, bound, ok = path_deviation(term)
    assert dev <= 1e-12 and ok


def _reference_path_expansion(trace, stack):
    """Per-subset reference: every subset's product, joint mask and
    deviation bound built anew."""
    W = stack.weights[0][0][0]
    masks = [trace[t][0].astype(np.float64) for t in range(stack.T)]
    T = stack.T
    G = W @ W.T
    b = np.diag(G)
    mu = incoherence(W)
    masked = [d[:, None] * G for d in masks]  # D_t G
    sparsity = [float(d.sum()) for d in masks]

    def path_deviation_bound(sparsities, mu):
        # Lemma 4's index-cycle bound: 0 for a singleton, else
        # (prod_t s_t) mu^2 max(max b, mu)^(|I| - 2)
        if len(sparsities) == 1:
            return 0.0
        bound = 1.0
        for s in sparsities:
            bound *= s
        return float(bound * (mu**2 * max(float(b.max()), mu) ** (len(sparsities) - 2)))

    terms = []
    for j in range(1, T + 1):
        for subset in combinations(range(T), j):
            P = masked[subset[-1]]
            for t in reversed(subset[:-1]):
                P = P @ masked[t]
            trace_exact = float(np.trace(P))
            joint = masks[subset[0]].copy()
            for t in subset[1:]:
                joint = joint * masks[t]
            p = float(np.sum(joint * b**j))
            s = tuple(sparsity[t] for t in subset)
            terms.append(
                PathTerm(
                    index_set=tuple(t + 1 for t in subset),
                    trace_exact=trace_exact,
                    path_sparsity=p,
                    deviation_bound=path_deviation_bound(s, mu),
                    sparsities=s,
                )
            )
    return terms


def _reference_report_json(trace, stack, op):
    """The report's JSON built from `_reference_path_expansion` and
    `accumulate_jacobian`."""
    terms = _reference_path_expansion(trace, stack)
    mu = incoherence(stack.weights[0][0][0])
    rho = [float(m[0].sum()) for m in trace]
    surrogate, eps, bound, valid = dof_surrogate(terms, stack.n, mu, rho)
    paths = [{"I": list(t.index_set), "trace": t.trace_exact, "p": t.path_sparsity,
              "bound": t.deviation_bound} for t in terms]
    return json.dumps({
        "n": stack.n, "T": stack.T, "trace": jacobian_trace_exact(accumulate_jacobian(trace, stack, op, STEP0)),
        "mu_w": mu, "rho": rho, "epsilon": eps, "surrogate": surrogate, "bound": bound, "valid": valid,
        "paths": paths,
    }, sort_keys=True)


@pytest.mark.parametrize("T, ell", [(T, 6) for T in range(1, 11)] + [(14, 3)])
def test_jacobian_report_json_equals_the_per_subset_reference(T, ell):
    rng = np.random.default_rng([35, T])
    n = 8
    stack = stack_for(rng.standard_normal((ell, n)) / np.sqrt(n), T)
    op = identity_operator(n)
    _, tr = unroll_forward(rng.standard_normal(n), stack, op, STEP0, record=True)
    assert 0 < sum(m[0].sum() for m in tr) < T * ell  # some units on, some off
    got, want = jacobian_report(tr, stack, op, STEP0).to_json(), _reference_report_json(tr, stack, op)
    # pytest's diff of two strings of up to a megabyte runs for minutes:
    # compare digests, and on a mismatch name the first entry that differs
    if hashlib.sha256(got.encode()).digest() != hashlib.sha256(want.encode()).digest():
        got, want = json.loads(got), json.loads(want)
        paths = got.pop("paths"), want.pop("paths")
        for i, (g, w) in enumerate(zip(*paths)):
            assert json.dumps(g) == json.dumps(w), f"paths[{i}] is the first entry that differs"
        pytest.fail(f"{len(paths[0])} against {len(paths[1])} paths, and outside them {got} against {want}")


def _random_masked_net(rng, T, ell, n, scale=1.0):
    W = scale * rng.standard_normal((ell, n))
    masks = [rng.random(ell) < 0.6 for _ in range(T)]
    return stack_for(W, T), trace_from_masks(masks)


@pytest.mark.parametrize("T", range(1, 15))
def test_path_expansion_bit_identical_to_per_subset_products(T):
    rng = np.random.default_rng([21, T])
    ell = 12 if T <= 8 else max(2, 16 - T)
    stack, tr = _random_masked_net(rng, T, ell, ell + int(rng.integers(0, 4)))
    # repr tells -0.0 from 0.0, which == does not
    got = [repr(t) for t in path_expansion(tr, stack)]
    want = [repr(t) for t in _reference_path_expansion(tr, stack)]
    assert len(got) == len(want) == 2**T - 1
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, f"{len(bad)} terms differ, first {got[bad[0]]} vs {want[bad[0]]}"


def test_path_sparsity_alternating_sum_matches_closed_form():
    # sum_I (-1)^|I| d_I b^|I| over nonempty I factors per unit i into
    # prod_t (1 - d_{t,i} b_i) - 1
    rng = np.random.default_rng(22)
    for _ in range(40):
        T = int(rng.integers(1, 11))
        ell = int(rng.integers(1, 9))
        n = ell + int(rng.integers(0, 5))
        stack, tr = _random_masked_net(rng, T, ell, n, scale=1.0 / np.sqrt(n))
        terms = path_expansion(tr, stack)
        enumerated = n + sum((-1.0) ** len(t.index_set) * t.path_sparsity for t in terms)
        b = norm_matrix_b(stack.weights[0][0][0])
        d = np.array([m[0] for m in tr], dtype=np.float64)
        closed = n + float(np.sum(np.prod(1.0 - d * b, axis=0) - 1.0))
        assert abs(enumerated - closed) <= 1e-10 * max(1.0, abs(closed))


def test_path_expansion_leaves_no_garbage_cycles():
    # a walk that keeps its state in a self-referencing closure holds every
    # call's subset table until a full collection
    stack, tr = _random_masked_net(np.random.default_rng(23), 8, 6, 8)
    gc.collect()
    gc.disable()
    try:
        terms = path_expansion(tr, stack)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert len(terms) == 2**8 - 1
    assert unreachable == 0


def _assert_matches_reference(stack, tr):
    got = [repr(t) for t in path_expansion(tr, stack)]
    want = [repr(t) for t in _reference_path_expansion(tr, stack)]
    assert len(got) == len(want) == 2**stack.T - 1
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, f"{len(bad)} terms differ, first {got[bad[0]]} vs {want[bad[0]]}"


def test_path_expansion_split_path_bit_identical():
    # at T = 12, l = 64 two widest levels of products (2 x 462 x 32 KiB)
    # exceed the budget, so the high indices are walked depth first
    stack, tr = _random_masked_net(np.random.default_rng(24), 12, 64, 70)
    _assert_matches_reference(stack, tr)


@pytest.mark.parametrize("budget", [0, 14000, 25000])
def test_path_expansion_bit_identical_under_any_budget(monkeypatch, budget):
    # 0 walks depth first throughout; at l = 6 the larger budgets switch
    # to whole levels at depths 1 to 4 of the walk
    monkeypatch.setattr(jacobian, "_PRODUCT_BUDGET", budget)
    stack, tr = _random_masked_net(np.random.default_rng([25, budget]), 9, 6, 8)
    _assert_matches_reference(stack, tr)


@pytest.mark.parametrize("T, ell, repeated", [
    pytest.param(10, 64, False, id="10-64"),
    pytest.param(12, 64, False, id="12-64"),
    pytest.param(14, 32, False, id="14-32"),
    pytest.param(12, 128, False, id="12-128"),
    # a converged tail at sizes where the word kernel runs
    pytest.param(10, 32, True, id="10-32-repeated"),
    pytest.param(14, 12, True, id="14-12-repeated"),
])
def test_path_expansion_memory_within_budget(monkeypatch, T, ell, repeated):
    if repeated:
        masks = _pattern_masks(np.random.default_rng([26, T]), "converged", T, ell)
        stack = stack_for(np.random.default_rng([26, T]).standard_normal((ell, ell)), T)
        tr = trace_from_masks(masks)
    else:
        stack, tr = _random_masked_net(np.random.default_rng([26, T]), T, ell, ell)
    runs = _count_calls(monkeypatch, "_word_expand")
    path_expansion(tr, stack)  # builds the per-T subset tables
    assert len(runs) == repeated
    gc.collect()
    tracemalloc.start()
    try:
        terms = path_expansion(tr, stack)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(terms) == 2**T - 1
    assert peak - retained <= jacobian._PRODUCT_BUDGET


def test_path_bound_is_the_index_cycle_bound_at_low_sparsity():
    # each hop keeps one row: the former bound, prod_t sqrt(s_t) (s_t - 1) mu,
    # read 0 where the path deviates by mu^2 = 0.36
    W = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
    table = path_table(W, np.array([[[True, False], [False, True]]]))
    assert table.mu == incoherence(W)
    assert np.allclose(table.traces, [[1.0, 1.0, 0.36]])
    assert np.allclose(table.path_sparsity, [[1.0, 1.0, 0.0]])
    assert table.deviation_bound[0, :2].tolist() == [0.0, 0.0]  # singletons are exact
    assert table.deviation_bound[0, 2] == table.mu**2


def test_path_term_repr_is_the_dataclass_repr():
    term = PathTerm((1, 3), 0.5, -0.0, 0.25, (2.0, 3.0))
    assert repr(term) == (
        "PathTerm(index_set=(1, 3), trace_exact=0.5, path_sparsity=-0.0, "
        "deviation_bound=0.25, sparsities=(2.0, 3.0))"
    )


def _random_mask_batch(rng, B, T, ell, n):
    W = rng.standard_normal((ell, n))
    return W, rng.random((B, T, ell)) < 0.6


def _assert_rows_match_path_expansion(W, masks):
    table = path_table(W, masks)
    T = masks.shape[1]
    assert table.traces.shape == table.path_sparsity.shape == (len(masks), 2**T - 1)
    stack = stack_for(W, T)
    for i, m in enumerate(masks):
        terms = path_expansion(trace_from_masks(m), stack)
        # repr tells -0.0 from 0.0, which == does not
        assert repr(table.traces[i].tolist()) == repr([t.trace_exact for t in terms])
        assert repr(table.path_sparsity[i].tolist()) == repr([t.path_sparsity for t in terms])
        assert repr(table.deviation_bound[i].tolist()) == repr([t.deviation_bound for t in terms])
        assert repr(table.sparsities[i].tolist()) == repr([t.sparsities[0] for t in terms[:T]])
        assert table.mu == terms.table.mu == incoherence(W)


@pytest.mark.parametrize("budget", [None, 0, 14000, 25000])
@pytest.mark.parametrize("T", range(1, 11))
def test_path_table_rows_equal_path_expansion(monkeypatch, T, budget):
    # budgets 0, 14000 and 25000 split the batch into chunks of inputs and
    # walk the high indices of the larger T depth first
    if budget is not None:
        monkeypatch.setattr(jacobian, "_PRODUCT_BUDGET", budget)
    rng = np.random.default_rng([27, T, budget or 1])
    _assert_rows_match_path_expansion(*_random_mask_batch(rng, 5, T, 6, 8))


def test_path_table_split_path_rows_equal_path_expansion():
    # at T = 11, l = 64 one input's two widest levels exceed the budget
    _assert_rows_match_path_expansion(*_random_mask_batch(np.random.default_rng(28), 2, 11, 64, 66))


def test_path_table_batch_through_swapped_level_buffers_equals_path_expansion(monkeypatch):
    # 7 inputs at T = 10, l = 16 fit the budget together, so one level
    # expansion takes all of them through levels 2..10, whose products
    # alternate between its two buffers
    shapes = []
    expand = jacobian._expand

    def recording(traces, masked, P, high, budget):
        shapes.append(P.shape[:2])
        return expand(traces, masked, P, high, budget)

    monkeypatch.setattr(jacobian, "_expand", recording)
    W, masks = _random_mask_batch(np.random.default_rng(31), 7, 10, 16, 16)
    _assert_rows_match_path_expansion(W, masks)
    assert shapes[0] == (7, 10)
    # path_expansion runs the same kernel, so check against products built anew
    table, stack = path_table(W, masks), stack_for(W, 10)
    for row, m in zip(table.traces, masks):
        want = [t.trace_exact for t in _reference_path_expansion(trace_from_masks(m), stack)]
        assert repr(row.tolist()) == repr(want)


@pytest.mark.parametrize("budget", [None, 0, 20000])
def test_path_surrogates_equal_dof_surrogate_of_path_expansion(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(jacobian, "_PRODUCT_BUDGET", budget)
    rng = np.random.default_rng([29, budget or 1])
    for T in range(1, 11):
        n = 9
        W, masks = _random_mask_batch(rng, 6, T, 7, n)
        W /= np.sqrt(n)
        got, sparsities, mu = path_surrogates(W, masks, n)
        stack = stack_for(W, T)
        want = [dof_surrogate(path_expansion(trace_from_masks(m), stack), n, mu)[0] for m in masks]
        assert repr(got.tolist()) == repr(want)
        assert np.array_equal(sparsities, masks.sum(axis=2)) and mu == incoherence(W)


def test_path_table_rejects_masks_of_another_width():
    W = np.ones((3, 4))
    with pytest.raises(DimensionMismatchError):
        path_table(W, np.ones((2, 2, 4)))
    with pytest.raises(ValueError):
        path_table(W, np.ones((2, 3)))


def test_jacobian_report_forms_the_gram_matrix_once(monkeypatch):
    calls = []
    gram = jacobian._gram

    def counted(W):
        calls.append(W.shape)
        return gram(W)

    monkeypatch.setattr(jacobian, "_gram", counted)
    stack = random_stack(6, [3], T=4, seed=4)
    _, tr = unroll_forward(np.random.default_rng(4).standard_normal(6), stack, identity_operator(6), STEP0)
    report = jacobian_report(tr, stack, identity_operator(6), STEP0)
    assert calls == [(3, 6)]
    assert report.mu_w == gram(stack.weights[0][0][0])[2]
    assert report.rho == [float(m[0].sum()) for m in tr]


@pytest.mark.parametrize("B, T, ell", [(64, 10, 16), (8, 12, 64)])
def test_path_table_memory_within_budget(B, T, ell):
    W, masks = _random_mask_batch(np.random.default_rng([30, T]), B, T, ell, ell)
    path_table(W, masks)  # builds the per-T subset tables
    gc.collect()
    tracemalloc.start()
    try:
        table = path_table(W, masks)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.traces.shape == (B, 2**T - 1)
    assert peak - retained <= jacobian._PRODUCT_BUDGET


def test_jacobian_report_reaches_path_expansion_once(monkeypatch):
    # a benchmark counts the path terms of jacobian_report at the module
    # attribute jacobian.path_expansion
    calls = []
    expansion = jacobian.path_expansion

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return expansion(*args, **kwargs)

    monkeypatch.setattr(jacobian, "path_expansion", counted)
    stack = random_stack(6, [3], T=4, seed=4)
    _, tr = unroll_forward(np.random.default_rng(4).standard_normal(6), stack, identity_operator(6), STEP0)
    report = jacobian_report(tr, stack, identity_operator(6), STEP0)
    assert calls == [4] and len(report.paths) == 2**4 - 1


@pytest.mark.parametrize("T", range(1, 11))
@pytest.mark.parametrize("scale, valid", [(0.1, True), (3.0, False)])
def test_jacobian_report_agrees_with_evaluate_set_on_one_input(T, scale, valid):
    rng = np.random.default_rng([33, T])
    n, ell = 12, 5
    stack = stack_for(scale * rng.standard_normal((ell, n)) / np.sqrt(n), T)
    op, y = identity_operator(n), rng.standard_normal(n)
    _, tr = unroll_forward(y, stack, op, STEP0, record=True)
    report = jacobian_report(tr, stack, op, STEP0)
    ev = evaluate_set(stack, op, STEP0, y, max_T=T)
    got = [report.trace, report.surrogate, report.mu_w, max(report.rho),
           report.epsilon, report.bound, report.valid]
    want = [ev.dof[0].item(), ev.surrogate[0].item(), ev.mu, ev.rho_max,
            ev.epsilon, ev.bound, ev.eps_valid]
    assert repr(got) == repr(want)
    assert report.valid is valid


REJECTED = {  # (stack, operator, step, cap, error)
    "circular": (dict(hidden=[3]), circular_operator([0.6, 0.25, 0.15], 6), STEP0, 14,
                 UnsupportedArchitectureError),
    "alpha": (dict(hidden=[3]), identity_operator(6), StepParams("gradient", 0.5), 14,
              UnsupportedArchitectureError),
    "deblur": (dict(hidden=[3]), identity_operator(6), StepParams("deblur", 0.5), 14,
               UnsupportedArchitectureError),
    "K=2": (dict(hidden=[3, 3]), identity_operator(6), STEP0, 14, UnsupportedArchitectureError),
    "asymmetric": (dict(hidden=[3], symmetric=False), identity_operator(6), STEP0, 14,
                   UnsupportedArchitectureError),
    "wc": (dict(hidden=[3], mode="wc"), identity_operator(6), STEP0, 14,
           UnsupportedArchitectureError),
    "T>cap": (dict(hidden=[3]), identity_operator(6), STEP0, 2, PathCapExceededError),
}


@pytest.mark.parametrize("name", REJECTED)
def test_a_net_outside_the_expansion_has_no_surrogate_and_no_jacobian_report(name):
    kwargs, op, step, cap, error = REJECTED[name]
    stack = random_stack(6, T=3, seed=1, **kwargs)
    y = np.random.default_rng(5).standard_normal(6)
    _, tr = unroll_forward(y, stack, op, step, record=True)
    ev = evaluate_set(stack, op, step, y, max_T=cap)
    assert ev.surrogate is None and "dof_surrogate" not in ev.columns()
    with pytest.raises(error):
        jacobian_report(tr, stack, op, step, max_T=cap)
    assert type(jacobian.expansion_error(stack, cap, op, step)) is error


PATTERNS = {  # mask ids over T iterations
    "converged": lambda T: [min(t, T // 2) for t in range(T)],
    "2-cycle": lambda T: [t % 2 for t in range(T)],
    "all equal": lambda T: [0] * T,
    "all distinct": lambda T: list(range(T)),
}


def _pattern_masks(rng, pattern, T, ell):
    """T masks of width ell whose ids follow PATTERNS[pattern], distinct
    ids holding distinct masks."""
    while True:
        distinct = rng.random((T, ell)) < 0.6
        if len(np.unique(distinct, axis=0)) == T:
            return list(distinct[PATTERNS[pattern](T)])


def _count_calls(monkeypatch, name):
    """Record the calls of jacobian.<name> in a list, which is returned."""
    calls, fn = [], getattr(jacobian, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(jacobian, name, recording)
    return calls


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("T", range(1, 11))
def test_repeated_masks_match_the_per_subset_reference(monkeypatch, T, pattern):
    # the word kernel runs on one input with at most 0.4 distinct words
    # per subset whose levels fit `_expand`'s buffers: here at the T
    # given; batches run `_expand`
    word_T = {"converged": {7, 8, 9, 10}, "2-cycle": {9, 10}, "all equal": set(range(4, 11)),
              "all distinct": set()}[pattern]
    rng = np.random.default_rng([43, T])
    n, ell = 8, 6
    stack = stack_for(rng.standard_normal((ell, n)) / np.sqrt(n), T)
    op = identity_operator(n)
    tr = trace_from_masks(_pattern_masks(rng, pattern, T, ell))
    runs = _count_calls(monkeypatch, "_word_expand")
    got, want = jacobian_report(tr, stack, op, STEP0).to_json(), _reference_report_json(tr, stack, op)
    # pytest's diff of two strings of up to a megabyte runs for minutes:
    # compare digests, and on a mismatch name the first entry that differs
    if hashlib.sha256(got.encode()).digest() != hashlib.sha256(want.encode()).digest():
        got, want = json.loads(got), json.loads(want)
        paths = got.pop("paths"), want.pop("paths")
        for i, (g, w) in enumerate(zip(*paths)):
            assert json.dumps(g) == json.dumps(w), f"paths[{i}] is the first entry that differs"
        pytest.fail(f"{len(paths[0])} against {len(paths[1])} paths, and outside them {got} against {want}")
    _assert_matches_reference(stack, tr)
    assert len(runs) == 2 * (T in word_T)
    batch = np.array([_pattern_masks(rng, p, T, ell) for p in PATTERNS])
    table = path_table(stack.weights[0][0][0], batch)
    for row, masks in zip(table.traces, batch):
        want = [t.trace_exact for t in _reference_path_expansion(trace_from_masks(masks), stack)]
        assert repr(row.tolist()) == repr(want)


def _products(monkeypatch):
    """Count the l x l products of np.matmul calls, which the path kernels
    make with out= arrays."""
    counted = []
    matmul = np.matmul

    def counting(a, b, out=None, **kwargs):
        counted.append(int(np.prod(out.shape[:-2])))
        return matmul(a, b, out=out, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    return counted


def test_word_kernel_runs_one_product_per_distinct_word(monkeypatch):
    # ids 0, 1, 1, ..., 1: a j-subset reads (1, ..., 1) or (1, ..., 1, 0),
    # so the 2^T - 1 subsets have 2T - 1 words, 2 of them of length one
    T, ell = 10, 8
    rng = np.random.default_rng(44)
    W = rng.standard_normal((ell, ell))
    masks = np.array(_pattern_masks(rng, "2-cycle", 2, ell))[[0] + [1] * (T - 1)]
    words = _count_calls(monkeypatch, "_word_expand")
    counted = _products(monkeypatch)
    path_table(W, masks[None])
    assert len(words) == 1 and sum(counted) == 2 * T - 3
    # a batch of two, and masks all distinct, run one product per subset of
    # two or more iterations
    counted.clear()
    path_table(W, np.stack([masks, masks]))
    path_table(W, np.array(_pattern_masks(rng, "all distinct", T, ell))[None])
    assert len(words) == 1 and sum(counted) == 3 * (2**T - 1 - T)


def test_word_count_of_a_2_cycle_is_that_of_its_parity_strings(monkeypatch):
    # the word of a subset is the sequence of ids along it; counted here
    # from that definition
    T, ell = 9, 7
    rng = np.random.default_rng(45)
    masks = np.array(_pattern_masks(rng, "2-cycle", T, ell))
    ids = PATTERNS["2-cycle"](T)
    words = {tuple(ids[t] for t in s) for j in range(1, T + 1) for s in combinations(range(T), j)}
    counted = _products(monkeypatch)
    path_table(rng.standard_normal((ell, ell)), masks[None])
    assert sum(counted) == len(words) - 2 < (2**T - 1) // 2
