import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxsure.errors import DimensionMismatchError, NonFiniteError
from proxsure.jacobian import jacobian_trace_exact
from proxsure.risk import (
    default_mc_delta,
    dof_finite_difference,
    dof_monte_carlo,
    mse_psnr,
    rss,
    sure,
    sure_report,
)
from reference import dof_surrogate, residual_identity


def test_rss_values():
    y = np.array([3.0, 4.0])
    assert rss(y, y) == 0.0
    assert rss(y, np.zeros(2)) == 25.0
    assert rss(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0
    with pytest.raises(DimensionMismatchError):
        rss(np.zeros(2), np.zeros(3))


def test_dof_exact_values():
    assert jacobian_trace_exact(np.eye(5)) == 5.0
    assert jacobian_trace_exact(np.diag([0.0, 0.0, 1.0, 1.0])) == 2.0
    assert jacobian_trace_exact(np.zeros((3, 3))) == 0.0
    with pytest.raises(ValueError):
        jacobian_trace_exact(np.zeros((2, 3)))


def test_fd_identity_and_linear_exact():
    n = 7
    y = np.random.default_rng(0).standard_normal(n)
    assert np.isclose(dof_finite_difference(lambda v: v, y), n)
    A = np.random.default_rng(1).standard_normal((n, n))
    assert np.isclose(
        dof_finite_difference(lambda v: v @ A.T, y), np.trace(A), atol=1e-6
    )


def test_mc_identity_is_exact_with_rademacher():
    n = 6
    y = np.zeros(n)
    est, se = dof_monte_carlo(lambda v: v, y, K=8)
    assert est == n
    assert se == 0.0


def test_mc_one_probe_has_no_standard_error():
    """One probe has no spread: nan (null in a report), never 0.0; RuntimeWarnings fail the suite."""
    y = np.random.default_rng(4).standard_normal(5)
    est, se = dof_monte_carlo(lambda v: 2.0 * v, y, K=1)
    assert est == pytest.approx(10.0) and math.isnan(se)
    report = sure_report(lambda v: 2.0 * v, y, 0.1, mc_probes=1)
    assert json.loads(report.to_json())["mc_std_error"] is None


def test_mc_zero_map():
    est, _ = dof_monte_carlo(lambda v: np.zeros_like(v), np.ones(4), K=4)
    assert est == 0.0


def test_mc_nan_in_one_probe_row_is_a_non_finite_error():
    def h(v):
        out = 2.0 * v
        if out.ndim == 2:  # the probe batch; h(y) itself stays finite
            out[5, 2] = np.nan
        return out

    y = np.random.default_rng(6).standard_normal(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="Monte-Carlo"):
            dof_monte_carlo(h, y, K=8)
        with pytest.raises(NonFiniteError, match="Monte-Carlo"):
            sure_report(h, y, 0.1, J=2.0 * np.eye(4), mc_probes=8)


def test_mc_deterministic_and_linear_convergence():
    n = 8
    rng = np.random.default_rng(3)
    A = rng.standard_normal((n, n))
    h = lambda v: v @ A.T
    y = rng.standard_normal(n)
    a1, s1 = dof_monte_carlo(h, y, K=512, seed=7)
    a2, s2 = dof_monte_carlo(h, y, K=512, seed=7)
    assert a1 == a2 and s1 == s2
    est, se = dof_monte_carlo(h, y, K=4096, seed=7)
    assert abs(est - np.trace(A)) <= 4 * se


def test_sure_arithmetic():
    assert np.isclose(sure(0.5, 1.0, 2, 1.0), 0.5)
    # identity denoiser: rss 0, dof n -> n sigma^2
    assert np.isclose(sure(0.0, 4.0, 4, 0.5), 4 * 0.25)
    with pytest.raises(ValueError):
        sure(1.0, 1.0, 4, 0.0)


def test_mse_psnr_values():
    x = np.zeros(4)
    assert np.isclose(mse_psnr(np.full(4, 0.1), x)[1], 20.0)
    assert np.isclose(mse_psnr(np.full(4, 1.0), x)[1], 0.0)
    mse, psnr = mse_psnr(x, x)
    assert mse == 0.0 and psnr == math.inf


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_residual_identity_property(seed):
    rng = np.random.default_rng(seed)
    n = 8
    J = rng.standard_normal((n, n))
    y = rng.standard_normal(n)
    lhs, rhs = residual_identity(J, y)
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_residual_identity_corners():
    y = np.array([3.0, 4.0])
    lhs, rhs = residual_identity(np.eye(2), y)
    assert lhs == rhs == 0.0
    lhs, rhs = residual_identity(np.zeros((2, 2)), y)
    assert lhs == rhs == 25.0


def test_sure_report_json():
    n = 5
    A = 0.5 * np.eye(n)
    h = lambda v: v @ A.T
    y = np.random.default_rng(2).standard_normal(n)
    rep = sure_report(h, y, sigma=0.1, J=A, x_true=np.zeros(n), mc_probes=16)
    payload = json.loads(rep.to_json())
    assert payload["dof_exact"] == pytest.approx(2.5)
    assert payload["rss_normalization"] == "sum"
    assert payload["mse_normalization"] == "mean"
    assert payload["mc_probes"] == 16
    # SURE assembled from the designated estimator
    assert payload["primary_dof"] == "exact" and payload["dof_fd"] is None
    assert payload["sure"] == pytest.approx(
        -n * 0.01 + rep.rss + 2 * 0.01 * 2.5
    )


# --- evaluate_set against the per-input loop --------------------------------

from proxsure.jacobian import (
    accumulate_jacobian,
    incoherence,
    path_expansion,
)
from proxsure.network import ProximalStack, forward_map, random_stack, unroll_forward
from proxsure.operators import (
    StepParams,
    apply_operator,
    circular_operator,
    dft_operator,
    identity_operator,
)
from proxsure.risk import evaluate_set

EVAL_N = 8
EVAL_CASES = [
    (identity_operator(EVAL_N), StepParams("gradient", 0.0)),
    (circular_operator(np.array([0.6, 0.25, 0.15]), n=EVAL_N), StepParams("ls", 0.5)),
    (dft_operator(EVAL_N, [1, 2]), StepParams("gradient", 0.1)),  # stacked m = n
]
EVAL_STACKS = [  # (hidden, mode, symmetric)
    ([6], "ws", True),
    ([6], "wc", True),
    ([6, 4], "ws", False),
    ([6], "wc", False),
]


@pytest.mark.parametrize("op, step", EVAL_CASES, ids=["identity", "circular-ls", "dft-gradient"])
@pytest.mark.parametrize("hidden, mode, symmetric", EVAL_STACKS)
def test_evaluate_set_matches_per_input_loop(op, step, hidden, mode, symmetric):
    assert op.m == op.n
    stack = random_stack(EVAL_N, hidden, T=3, mode=mode, symmetric=symmetric, seed=5)
    Y = np.random.default_rng(3).standard_normal((6, op.m))
    ev = evaluate_set(stack, op, step, Y, sigma=0.1, max_T=4)
    assert np.array_equal(ev.xhat, forward_map(stack, op, step)(Y))
    assert np.array_equal(ev.rss, np.sum((ev.xhat - Y) ** 2, axis=1))
    # the path expansion is the Jacobian only for the identity operator
    # with the data step skipped
    analysable = op.kind == "identity" and mode == "ws" and symmetric and len(hidden) == 1
    assert (ev.surrogate is not None) == analysable
    mu = incoherence(stack.weights[0][0][0])
    for i, y in enumerate(Y):
        _, tr = unroll_forward(y, stack, op, step, record=True)
        assert ev.dof[i] == jacobian_trace_exact(accumulate_jacobian(tr, stack, op, step))
        if analysable:
            assert ev.surrogate[i] == dof_surrogate(path_expansion(tr, stack), EVAL_N, mu)[0]
    assert (ev.sure is not None) == (op.kind == "identity")
    if analysable:
        assert ev.mu == mu and math.isfinite(ev.epsilon) and math.isfinite(ev.bound)
    else:
        assert math.isnan(ev.epsilon) and math.isnan(ev.bound)


def test_evaluate_set_without_square_jacobian_has_no_dof_or_sure():
    op = dft_operator(EVAL_N, [1])
    assert op.m != op.n
    stack = random_stack(EVAL_N, [6], T=2, seed=1)
    Y = np.random.default_rng(4).standard_normal((5, op.m))
    ev = evaluate_set(stack, op, StepParams("gradient", 0.1), Y, sigma=0.1, max_T=4)
    back = apply_operator(op, Y, "adjoint")
    assert np.array_equal(ev.rss, np.sum((ev.xhat - back) ** 2, axis=1))
    assert ev.dof is None and ev.surrogate is None and ev.sure is None


@pytest.mark.parametrize("op, step", [
    *EVAL_CASES,
    (dft_operator(EVAL_N, [1]), StepParams("gradient", 0.1)),  # m = 4 != n
], ids=["identity", "circular-ls", "dft-gradient", "dft-m<n"])
def test_evaluate_set_monte_carlo_dof_is_the_probe_estimator_of_each_input(op, step):
    stack = random_stack(EVAL_N, [6], T=3, seed=13)
    Y = np.random.default_rng(14).standard_normal((5, op.m))
    ev = evaluate_set(stack, op, step, Y, sigma=0.1, mc_probes=16, mc_seed=7)
    if op.m != op.n:
        assert ev.dof_mc is None and ev.mc_std_error is None
        assert "dof_mc_mean" not in ev.columns()
        return
    h = forward_map(stack, op, step)
    want = [dof_monte_carlo(h, y, 16, seed=[7, i]) for i, y in enumerate(Y)]
    assert repr(list(zip(ev.dof_mc.tolist(), ev.mc_std_error.tolist()))) == repr(want)
    assert ev.columns()["dof_mc_mean"] == float(np.mean([estimate for estimate, _ in want]))
    # the exact DOF and the outputs do not depend on the probes
    plain = evaluate_set(stack, op, step, Y, sigma=0.1)
    assert plain.dof_mc is None and plain.mc_std_error is None
    assert np.array_equal(plain.dof, ev.dof) and np.array_equal(plain.xhat, ev.xhat)


def test_set_evaluation_columns_name_what_was_computed():
    op = identity_operator(EVAL_N)
    stack = random_stack(EVAL_N, [6], T=3, seed=2)
    Y = np.random.default_rng(6).standard_normal((4, EVAL_N))
    assert set(evaluate_set(stack, op, StepParams(), Y).columns()) == {"rss_mean", "dof_exact_mean"}
    ev = evaluate_set(stack, op, StepParams(), Y, sigma=0.2, max_T=3, mc_probes=4)
    cols = ev.columns()
    assert cols == {
        "rss_mean": float(np.mean(ev.rss)), "dof_exact_mean": float(np.mean(ev.dof)),
        "dof_mc_mean": float(np.mean(ev.dof_mc)), "sure_mean": float(np.mean(ev.sure)),
        "mu_w": ev.mu, "rho_max": ev.rho_max, "epsilon": ev.epsilon,
        "dof_surrogate": float(np.mean(ev.surrogate)), "theorem1_bound": ev.bound,
        "eps_valid": ev.eps_valid,
    }


def test_evaluate_set_path_cap_and_sure():
    op = identity_operator(EVAL_N)
    stack = random_stack(EVAL_N, [6], T=3, seed=2)
    Y = np.random.default_rng(6).standard_normal((4, EVAL_N))
    plain = evaluate_set(stack, op, StepParams(), Y)
    assert plain.surrogate is None and plain.sure is None
    assert evaluate_set(stack, op, StepParams(), Y, max_T=2).surrogate is None
    ev = evaluate_set(stack, op, StepParams(), Y, sigma=0.2, max_T=3)
    assert ev.surrogate.shape == (4,)
    assert np.array_equal(ev.sure, [sure(r, d, EVAL_N, 0.2) for r, d in zip(ev.rss, ev.dof)])
    with pytest.raises(DimensionMismatchError):
        evaluate_set(stack, op, StepParams(), Y[:, :-1])


def test_evaluate_set_takes_one_input_as_one_row():
    op = identity_operator(EVAL_N)
    stack = random_stack(EVAL_N, [6], T=2, seed=3)
    y = np.random.default_rng(7).standard_normal(EVAL_N)
    one = evaluate_set(stack, op, StepParams(), y, sigma=0.1, max_T=2)
    row = evaluate_set(stack, op, StepParams(), y[None], sigma=0.1, max_T=2)
    assert one.xhat.shape == (1, EVAL_N)
    assert np.array_equal(one.dof, row.dof) and np.array_equal(one.surrogate, row.surrogate)


def test_mc_probe_rows_are_prefix_stable_across_probe_counts():
    n = 5
    batches = []

    def h(v):
        if v.ndim == 2:
            batches.append(v.copy())
        return v

    # y = 0 and delta = 1 make the probe batch the probes themselves
    for K in (8, 64):
        dof_monte_carlo(h, np.zeros(n), K, delta=1.0, seed=[5, 2])
    small, large = batches
    assert small.shape == (8, n) and large.shape == (64, n)
    assert np.array_equal(small, large[:8])
    assert len(np.unique(large, axis=0)) > 8
    assert set(np.unique(large)) == {-1.0, 1.0}


def test_mc_probes_are_one_draw_from_the_seeded_generator():
    batches = []
    dof_monte_carlo(lambda v: batches.append(v) or v, np.zeros(3), 16, delta=1.0, seed=9)
    expected = np.random.default_rng(9).integers(0, 2, size=(16, 3)) * 2.0 - 1.0
    assert np.array_equal(batches[-1], expected)


def _read_only_view(v):
    v = np.asarray(v).view()
    v.flags.writeable = False
    return v


@pytest.mark.parametrize("h", [lambda v: v, _read_only_view], ids=["identity", "read-only"])
def test_mc_writes_into_no_array_of_h_or_the_caller(h):
    n, K = 6, 32
    y = np.random.default_rng(42).standard_normal(n)
    y.flags.writeable = False
    y_before = y.tobytes()
    got = dof_monte_carlo(h, y, K, seed=[42, 1])

    # the estimator's expression before its temporaries were reused
    delta = default_mc_delta(y)
    probes = np.random.default_rng([42, 1]).integers(0, 2, size=(K, n)) * 2.0 - 1.0
    diffs = (h(y[None, :] + delta * probes) - h(y)) / delta
    samples = np.einsum("ki,ki->k", probes, diffs)
    want = float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(K))
    assert repr(got) == repr(want)
    assert y.tobytes() == y_before


# --- the path surrogate from the batched kernel -----------------------------

import gc
import tracemalloc

from proxsure import jacobian


def test_evaluate_set_surrogate_in_chunks_matches_per_input(monkeypatch):
    # about two inputs per chunk, so the 11 inputs leave a partial last chunk
    monkeypatch.setattr(jacobian, "_PRODUCT_BUDGET", 10000)
    op = identity_operator(EVAL_N)
    stack = random_stack(EVAL_N, [6], T=6, seed=8)
    Y = np.random.default_rng(9).standard_normal((11, EVAL_N))
    ev = evaluate_set(stack, op, StepParams(), Y, max_T=6)
    mu = incoherence(stack.weights[0][0][0])
    assert ev.mu == mu
    want = []
    for y in Y:
        _, tr = unroll_forward(y, stack, op, StepParams(), record=True)
        want.append(dof_surrogate(path_expansion(tr, stack), EVAL_N, mu)[0])
    assert repr(ev.surrogate.tolist()) == repr(want)


def test_evaluate_set_surrogate_at_T14_within_budget():
    # one input's 16,383 path terms would take more than the budget alone
    n, T = 16, 14
    op, step = identity_operator(n), StepParams()
    stack = random_stack(n, [8], T=T, seed=10)
    Y = np.random.default_rng(11).standard_normal((128, n))
    evaluate_set(stack, op, step, Y[:2], max_T=T)  # builds the per-T subset tables
    gc.collect()
    tracemalloc.start()
    try:
        evaluate_set(stack, op, step, Y)
        _, without = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ev = evaluate_set(stack, op, step, Y, max_T=T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ev.surrogate.shape == (128,) and np.all(np.isfinite(ev.surrogate))
    assert peak - without <= jacobian._PRODUCT_BUDGET


@pytest.mark.parametrize("omega", [range(8), [1]], ids=["m>n", "m<n"])
@pytest.mark.parametrize("estimator", [
    dof_finite_difference,
    lambda h, y: dof_monte_carlo(h, y, K=16),
], ids=["fd", "mc"])
def test_dof_estimators_reject_an_output_of_another_size(estimator, omega):
    # y -> x^T maps m = 16 (or 4) measurements to n = 8 outputs: its
    # Jacobian is not square, so it has no divergence
    op = dft_operator(8, omega)
    h = forward_map(random_stack(8, [6], T=2), op, StepParams())
    y = np.random.default_rng(12).standard_normal(op.m)
    with pytest.raises(DimensionMismatchError):
        estimator(h, y)


def test_sure_report_without_jacobian_uses_finite_differences():
    n = 5
    A = 0.5 * np.eye(n)
    y = np.random.default_rng(2).standard_normal(n)
    rep = sure_report(lambda v: v @ A.T, y, sigma=0.1)
    assert rep.dof_exact is None and rep.primary_dof == "fd"
    assert rep.dof_fd == pytest.approx(2.5)
    assert rep.sure == sure(rep.rss, rep.dof_fd, n, 0.1)


# --- finiteness of a set evaluation ------------------------------------------


def _scaled_stack(n, ell, T, scale):
    W = random_stack(n, [ell], T=T, seed=0).weights[0][0][0]
    return ProximalStack(n=n, T=T, mode="ws", symmetric=True, weights=(((scale * W, None),),))


@pytest.mark.parametrize("size, named", [
    # the forward overflows: no Monte-Carlo DOF is drawn around it
    (1.0, "32 of 32 outputs, 4 of 4 rss, 4 of 4 DOF, 4 of 4 SURE, 4 of 4 surrogates"),
    # the outputs stay finite, while their squares, the Jacobian and the
    # 3-hop path overflow
    (1e-70, "4 of 4 rss, 4 of 4 DOF, 4 of 4 SURE, 4 of 4 surrogates"),
])
def test_evaluate_set_of_an_overflowing_net_names_its_non_finite_values(size, named):
    stack = _scaled_stack(EVAL_N, 4, 3, 1e60)
    Y = size * np.random.default_rng(46).standard_normal((4, EVAL_N))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError) as info:
            evaluate_set(stack, identity_operator(EVAL_N), StepParams(), Y, sigma=0.2, max_T=3,
                         mc_probes=4)
    assert str(info.value) == "non-finite set evaluation: " + named


def test_evaluate_set_values_infinite_or_nan_by_rule_are_not_errors():
    # eps**14 passes the largest float while every other value stays
    # finite, and one probe has no standard error
    stack = _scaled_stack(16, 64, 14, 1e10)
    Y = 1e-150 * np.random.default_rng(1).standard_normal((3, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = evaluate_set(stack, identity_operator(16), StepParams(), Y, sigma=0.1, max_T=14,
                          mc_probes=1)
    assert ev.bound == math.inf and np.isnan(ev.mc_std_error).all()
    assert all(math.isfinite(v) for k, v in ev.columns().items() if k != "theorem1_bound")
