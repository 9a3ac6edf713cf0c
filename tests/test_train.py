import numpy as np
import pytest

from proxsure.data import Dataset, generate_subspace_data, add_noise
from proxsure.errors import NonFiniteError, TrainingFailureError
from proxsure.network import ProximalStack, random_stack
from proxsure.operators import StepParams, identity_operator, circular_operator
from proxsure.train import (
    FIXED_POINT_TAIL,
    OptimizerState,
    adam_step,
    fixed_point_jacobian,
    flatten_weights,
    loss_and_gradients,
    mask_fixed_point,
    pca_closed_form,
    projection_objective,
    stack_with_weights,
    train,
)

STEP0 = StepParams("gradient", 0.0)


def central_difference_grads(stack, x, y, op, step, h=1e-5):
    weights = flatten_weights(stack)
    grads = []
    for wi, W in enumerate(weights):
        g = np.zeros_like(W)
        for idx in np.ndindex(W.shape):
            for sign in (1.0, -1.0):
                bumped = [w.copy() for w in weights]
                bumped[wi][idx] += sign * h
                loss, _ = loss_and_gradients(
                    stack_with_weights(stack, bumped), x, y, op, step
                )
                g[idx] += sign * loss / (2 * h)
        grads.append(g)
    return grads


@pytest.mark.parametrize("mode", ["ws", "wc"])
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("step", [STEP0, StepParams("ls", 0.4)], ids=["gradient", "ls"])
def test_gradients_match_central_differences(mode, symmetric, step):
    n = 6
    rng = np.random.default_rng(0)
    stack = random_stack(n, [4], T=2, mode=mode, symmetric=symmetric, seed=1)
    op = identity_operator(n)
    x = rng.standard_normal((3, n))
    y = x + 0.2 * rng.standard_normal((3, n))
    _, analytic = loss_and_gradients(stack, x, y, op, step)
    numeric = central_difference_grads(stack, x, y, op, step)
    for a, b in zip(analytic, numeric):
        scale = 1.0 + np.abs(b).max()
        assert np.abs(a - b).max() / scale <= 1e-4


def test_loss_zero_at_fit():
    n = 4
    stack = random_stack(n, [3], T=1, seed=2)
    op = identity_operator(n)
    y = np.random.default_rng(2).standard_normal((2, n))
    from proxsure.network import forward_map

    x = forward_map(stack, op, STEP0)(y)
    loss, grads = loss_and_gradients(stack, x, y, op, STEP0)
    assert loss == 0.0
    assert all(np.allclose(g, 0.0) for g in grads)


def test_loss_identity_network():
    n = 4
    W = np.zeros((3, n))
    stack = ProximalStack(n=n, T=2, mode="ws", symmetric=True, weights=(((W, None),),))
    op = identity_operator(n)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, n))
    y = rng.standard_normal((5, n))
    loss, _ = loss_and_gradients(stack, x, y, op, STEP0)
    assert np.isclose(loss, np.mean(np.sum((y - x) ** 2, axis=1)))


def test_ws_gradient_is_sum_of_tied_wc_gradients():
    n, T = 5, 3
    rng = np.random.default_rng(4)
    W = rng.standard_normal((3, n)) / np.sqrt(n)
    from proxsure.network import ProximalStack

    ws = ProximalStack(n=n, T=T, mode="ws", symmetric=True, weights=(((W, None),),))
    wc = ProximalStack(n=n, T=T, mode="wc", symmetric=True,
                       weights=tuple(((W.copy(), None),) for _ in range(T)))
    op = identity_operator(n)
    x = rng.standard_normal((4, n))
    y = x + 0.1 * rng.standard_normal((4, n))
    _, g_ws = loss_and_gradients(ws, x, y, op, STEP0)
    _, g_wc = loss_and_gradients(wc, x, y, op, STEP0)
    assert np.allclose(g_ws[0], sum(g_wc), atol=1e-12)


def test_adam_zero_gradient_keeps_weights():
    w = [np.ones((2, 2))]
    state = OptimizerState.for_weights(w, lr=0.1)
    new_w, new_state = adam_step(state, w, [np.zeros((2, 2))])
    assert np.array_equal(new_w[0], w[0])
    assert new_state.step_count == 1


def test_adam_first_step_is_signed_lr():
    w = [np.array([[1.0]])]
    g = [np.array([[0.5]])]
    state = OptimizerState.for_weights(w, lr=0.01)
    new_w, _ = adam_step(state, w, g)
    # bias correction makes m-hat = g, v-hat = g^2, so the step is lr*sign(g)
    assert np.isclose(new_w[0][0, 0], 1.0 - 0.01 * 0.5 / (0.5 + 1e-8))


def test_adam_determinism_and_nonfinite():
    w = [np.ones(3)]
    g = [np.full(3, 0.2)]
    s = OptimizerState.for_weights(w, lr=0.1)
    a, _ = adam_step(s, w, g)
    b, _ = adam_step(OptimizerState.for_weights(w, lr=0.1), w, g)
    assert np.array_equal(a[0], b[0])
    with pytest.raises(NonFiniteError):
        adam_step(s, w, [np.array([np.nan, 0.0, 0.0])])


def test_adam_matches_textbook_and_leaves_inputs_unchanged():
    rng = np.random.default_rng(5)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    weights = [rng.standard_normal((3, 4)), rng.standard_normal(5)]
    ref = [w.copy() for w in weights]
    m = [np.zeros_like(w) for w in weights]
    v = [np.zeros_like(w) for w in weights]
    state = OptimizerState.for_weights(weights, lr=lr)
    for t in range(1, 6):
        grads = [rng.standard_normal(w.shape) for w in weights]
        grads[0][0, 0] = 0.0
        w_bytes = [w.tobytes() for w in weights]
        g_bytes = [g.tobytes() for g in grads]
        new_w, state = adam_step(state, weights, grads)
        assert [w.tobytes() for w in weights] == w_bytes
        assert [g.tobytes() for g in grads] == g_bytes
        for j, g in enumerate(grads):
            m[j] = b1 * m[j] + (1 - b1) * g
            v[j] = b2 * v[j] + (1 - b2) * g * g
            m_hat = m[j] / (1 - b1**t)
            v_hat = v[j] / (1 - b2**t)
            ref[j] = ref[j] - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert [w.tobytes() for w in new_w] == [r.tobytes() for r in ref]
        assert [a.tobytes() for a in state.m] == [a.tobytes() for a in m]
        assert [a.tobytes() for a in state.v] == [a.tobytes() for a in v]
        weights = new_w
    assert state.step_count == 5


def _toy_problem(seed=0, N=16, n=6):
    data = generate_subspace_data(n, 2, N, seed=seed)
    x = data.samples
    y = add_noise(x, 0.2, seed=seed + 100)
    return x, y


def test_train_overfits_singleton():
    n = 6
    x, y = _toy_problem(N=1, n=n)
    x = np.repeat(x, 8, axis=0)
    y = np.repeat(y, 8, axis=0)
    result = train(x, y, x, y, identity_operator(n), STEP0, hidden=[8], T=2,
                   lr_grid=[3e-3], epochs=6, batch=4, seed=0)
    assert len(result.train_loss) == 6
    assert result.train_loss[4] < result.train_loss[0]


def test_train_deterministic():
    n = 6
    x, y = _toy_problem(N=16, n=n)
    kwargs = dict(hidden=[4], T=2, lr_grid=[1e-3, 3e-3], epochs=3, batch=4, seed=7)
    a = train(x, y, x, y, identity_operator(n), STEP0, **kwargs)
    b = train(x, y, x, y, identity_operator(n), STEP0, **kwargs)
    assert a.lr == b.lr
    for wa, wb in zip(flatten_weights(a.stack), flatten_weights(b.stack)):
        assert np.array_equal(wa, wb)


def test_train_single_lr_selected():
    n = 6
    x, y = _toy_problem(N=8, n=n)
    result = train(x, y, x, y, identity_operator(n), STEP0, hidden=[4], T=1,
                   lr_grid=[1e-3], epochs=2, batch=4, seed=1)
    assert result.lr == 1e-3


def test_train_all_lrs_diverge():
    n = 4
    x, y = _toy_problem(N=8, n=n)
    with pytest.raises(TrainingFailureError):
        train(x, y, x, y, identity_operator(n), STEP0, hidden=[4], T=3,
              lr_grid=[1e60], epochs=3, batch=4, seed=2)


def test_pca_closed_form_worked_example():
    # correlation diag(4, 0.25, 0) built from explicit samples
    X = np.zeros((16, 3))
    X[:8, 0] = np.sqrt(8.0)
    X[8:12, 1] = 1.0
    ds = Dataset(n=3, kind="subspace", samples=X, seed=0, params={})
    C = (X.T @ X) / 16
    assert np.allclose(C, np.diag([4.0, 0.25, 0.0]))
    W, dof = pca_closed_form(ds, 1.0)
    assert dof == 1
    P = W.T @ np.linalg.pinv(W.T)
    assert np.allclose(P, np.diag([0.0, 1.0, 1.0]), atol=1e-12)


def test_pca_extreme_thresholds():
    ds = generate_subspace_data(5, 5, 200, seed=6)
    eigvals = np.linalg.eigvalsh((ds.samples.T @ ds.samples) / ds.N)
    W, dof = pca_closed_form(ds, eigvals.max() * 2)
    assert dof == 0 and W.shape[0] == 5
    W, dof = pca_closed_form(ds, eigvals.min() * 0.5)
    assert dof == 5 and W.shape[0] == 0


def test_projection_objective_empty():
    assert projection_objective(np.zeros((0, 4)), np.eye(4), 0.5) == 0.0


def test_mask_fixed_point_hand_example():
    result = mask_fixed_point(np.array([[1.0, 0.0]]), np.array([2.0, 3.0]))
    assert np.allclose(result.x, [0.0, 3.0], atol=1e-8)
    assert result.support.tolist() == [0]
    assert result.dof == 1
    assert result.projector_residual <= 1e-8


def test_mask_fixed_point_never_active():
    W = np.array([[-1.0, 0.0], [0.0, -1.0]])
    y = np.array([1.0, 2.0])
    result = mask_fixed_point(W, y)
    assert len(result.support) == 0
    assert np.array_equal(result.x, y)
    assert result.dof == 2


def test_mask_fixed_point_support_and_margin_come_from_the_tail_window():
    # non-orthonormal rows couple the units: 86 iterations, during which
    # rows 1 and 3 turn on and off again before the last 10
    rng = np.random.default_rng(1)
    W = rng.standard_normal((4, 6)) / np.sqrt(6)
    y = rng.standard_normal(6)
    result = mask_fixed_point(W, y)
    assert result.converged and result.iterations > FIXED_POINT_TAIL
    x, zs = y.copy(), []
    for _ in range(result.iterations):
        z = W @ x
        zs.append(z)
        x = x - W.T @ ((z > 0.0) * z)
    tail = zs[-FIXED_POINT_TAIL:]
    union = np.any([z > 0.0 for z in tail], axis=0)
    assert result.support.tolist() == np.flatnonzero(union).tolist() == [2]
    assert np.any([z > 0.0 for z in zs], axis=0).sum() == 3  # the whole run's union is wider
    assert result.tail_margin == min(np.abs(z)[~union].min() for z in tail)
    assert result.tail_margin < np.abs(zs[-1])[~union].min()

def test_fixed_point_jacobian_orthonormal_rows():
    rng = np.random.default_rng(8)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    W = Q.T
    y = rng.standard_normal(6)
    result = mask_fixed_point(W, y, tol=1e-11)
    assert result.converged
    J = fixed_point_jacobian(W, y, result.iterations + 40)
    assert abs(result.dof - np.trace(J)) <= 1.0
    assert result.projector_residual <= 1e-6


@np.errstate(over="ignore", invalid="ignore")  # as train() runs a diverging lr
def _reference_train(x, y, x_test, y_test, op, step, hidden, T, mode, symmetric,
                     lr_grid, epochs, batch, seed):
    """train() spelled out with the public step functions, one weight list
    and one rebuilt stack per minibatch. Returns, per learning rate, the
    final weights and the train-loss history, or None if it diverged."""
    from proxsure.network import forward_map

    runs = []
    for li, lr in enumerate(lr_grid):
        stack = random_stack(x.shape[1], hidden, T, mode, symmetric,
                             seed=np.random.default_rng([seed, li, 2]))
        order_rng = np.random.default_rng([seed, li, 3])
        weights = flatten_weights(stack)
        state = OptimizerState.for_weights(weights, lr)
        losses = []
        try:
            for _ in range(epochs):
                order = order_rng.permutation(len(x))
                total, seen = 0.0, 0
                for start in range(0, len(x), batch):
                    idx = order[start : start + batch]
                    stack = stack_with_weights(stack, weights)
                    loss, grads = loss_and_gradients(stack, x[idx], y[idx], op, step)
                    weights, state = adam_step(state, weights, grads)
                    total += loss * len(idx)
                    seen += len(idx)
                losses.append(total / seen)
        except NonFiniteError:
            runs.append(None)
            continue
        xhat = forward_map(stack_with_weights(stack, weights), op, step)(y_test)
        runs.append((weights, losses, float(np.mean((xhat - x_test) ** 2))))
    return runs


@pytest.mark.parametrize("mode", ["ws", "wc"])
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("step", [StepParams("gradient", 0.3), StepParams("ls", 0.4)],
                         ids=["gradient", "ls"])
def test_train_matches_reference_loop_bit_for_bit(mode, symmetric, step):
    n = 6
    x, y = _toy_problem(seed=3, N=24, n=n)
    op = identity_operator(n)
    lr_grid = [1e-3, 1e150, 3e-3]
    kwargs = dict(hidden=[5, 3], T=2, mode=mode, symmetric=symmetric,
                  lr_grid=lr_grid, epochs=3, batch=5, seed=11)
    result = train(x[:16], y[:16], x[16:], y[16:], op, step, **kwargs)
    runs = _reference_train(x[:16], y[:16], x[16:], y[16:], op, step, **kwargs)

    assert runs[1] is None and result.diverged_lrs == [1e150]
    finite = {lr: run for lr, run in zip(lr_grid, runs) if run is not None}
    assert result.lr == min(finite, key=lambda lr: finite[lr][2])
    weights, losses, mse = finite[result.lr]
    assert result.train_loss == losses
    assert np.isclose(result.test_mse[-1], mse, rtol=1e-9)
    got = flatten_weights(result.stack)
    assert len(got) == len(weights)
    for a, b in zip(got, weights):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_train_builds_step_matrices_once_and_steps_once_per_batch(monkeypatch):
    import importlib

    from proxsure.network import ProximalStack

    # the package re-exports the function train, which shadows the module
    train_mod = importlib.import_module("proxsure.train")

    calls = {"step_matrices": 0, "loss_and_gradients": 0}
    step_matrices, loss_and_grads = train_mod.step_matrices, train_mod.loss_and_gradients

    def counted_step_matrices(*args, **kwargs):
        calls["step_matrices"] += 1
        return step_matrices(*args, **kwargs)

    def counted_loss(stack, *args, **kwargs):
        assert isinstance(stack, ProximalStack)
        calls["loss_and_gradients"] += 1
        return loss_and_grads(stack, *args, **kwargs)

    monkeypatch.setattr(train_mod, "step_matrices", counted_step_matrices)
    monkeypatch.setattr(train_mod, "loss_and_gradients", counted_loss)
    n = 6
    x, y = _toy_problem(N=18, n=n)
    # 3 epochs of ceil(18 / 4) = 5 minibatches, capped at 12 steps, per lr
    train(x, y, x, y, identity_operator(n), StepParams("ls", 0.5), hidden=[4], T=2,
          lr_grid=[1e-3, 3e-3], epochs=3, batch=4, max_steps=12, seed=4)
    assert calls == {"step_matrices": 1, "loss_and_gradients": 2 * 12}


@pytest.mark.parametrize("mode", ["ws", "wc"])
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("kind,step", [("circular", StepParams("ls", 0.5)),
                                       ("dft", StepParams("gradient", 0.3))],
                         ids=["circular-ls", "dft-gradient"])
def test_evaluation_and_training_see_the_same_network(mode, symmetric, kind, step):
    """forward_map's output is, bit for bit, the forward pass behind the
    loss of loss_and_gradients and the held-out MSE of train: scored
    against forward_map's output, both are exactly 0."""
    from proxsure.network import forward_map
    from proxsure.operators import apply_operator, dft_operator

    if kind == "circular":
        op = circular_operator(np.array([0.6, 0.25, 0.15]), n=8)
    else:
        op = dft_operator(8, [1, 2])

    rng = np.random.default_rng(21)
    X = rng.standard_normal((12, 8))
    Y = apply_operator(op, X + 0.1 * rng.standard_normal(X.shape))
    hidden = [6] if symmetric else [6, 4]
    stack = random_stack(8, hidden, T=3, mode=mode, symmetric=symmetric, seed=3)
    loss, _ = loss_and_gradients(stack, forward_map(stack, op, step)(Y), Y, op, step)
    assert loss == 0.0

    kwargs = dict(hidden=hidden, T=3, mode=mode, symmetric=symmetric, lr_grid=[1e-3],
                  epochs=2, batch=4, seed=2)
    first = train(X[:8], Y[:8], X[8:], Y[8:], op, step, **kwargs)
    xhat = forward_map(first.stack, op, step)(Y[8:])
    # the held-out truth only scores a run, so this run trains the same weights
    assert train(X[:8], Y[:8], xhat, Y[8:], op, step, **kwargs).test_mse[-1] == 0.0


@pytest.mark.parametrize("mode", ["ws", "wc"])
@pytest.mark.parametrize("symmetric", [True, False])
def test_skipped_data_step_gives_the_same_loss_and_gradients(mode, symmetric):
    """With (None, None) the backward pass skips g @ G_x; loss and every
    gradient match the explicit G_x = I, G_y = 0 byte for byte."""
    n = 6
    op = identity_operator(n)
    step = StepParams("gradient", 0.0)
    x, y = _toy_problem(seed=8, N=9, n=n)
    stack = random_stack(n, [5, 3], T=3, mode=mode, symmetric=symmetric, seed=6)
    loss, grads = loss_and_gradients(stack, x, y, op, step, (None, None))
    want_loss, want_grads = loss_and_gradients(
        stack, x, y, op, step, (np.eye(n), np.zeros((n, n)))
    )
    assert loss == want_loss
    assert len(grads) == len(want_grads)
    for a, b in zip(grads, want_grads):
        assert a.tobytes() == b.tobytes()


def _reference_loss_and_gradients(stack, x_true, y, op, step):
    """The textbook backward pass: the pre-activation gradient dz with
    its own sign, and every unit's input gradient formed, the last one
    included."""
    from proxsure.network import unroll
    from proxsure.operators import step_matrices

    X, Y = np.atleast_2d(x_true), np.atleast_2d(y)
    B = X.shape[0]
    G_x, G_y = step_matrices(op, step)
    xhat, record = unroll(Y, stack, op, G_x, G_y, record=True)
    diff = xhat - X
    loss = float(np.sum(diff**2) / B)
    slots = 1 if stack.symmetric else 2
    K = stack.K
    grads = [0.0] * (len(stack.weights) * K * slots)
    g = 2.0 * diff / B
    for t in reversed(range(stack.T)):
        wi = 0 if stack.mode == "ws" else t
        layers = stack.layer_weights(t)
        for k in reversed(range(K)):
            W, Wbar = layers[k]
            h_in, D, a = record[t][1][k]
            i = (wi * K + k) * slots
            if Wbar is None:
                dz = D * (-(g @ W.T))
                grads[i] = grads[i] + (dz.T @ h_in - a.T @ g)
                g = g + dz @ W
            else:
                dz = D * (g @ W.T)
                grads[i] = grads[i] + a.T @ g
                grads[i + 1] = grads[i + 1] + dz.T @ h_in
                g = g + dz @ Wbar
        if t > 0 and G_x is not None:
            g = g @ G_x
    return loss, grads


@pytest.mark.parametrize("mode", ["ws", "wc"])
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("hidden", [[5], [5, 3]], ids=["K1", "K2"])
@pytest.mark.parametrize("T", [1, 3])
@pytest.mark.parametrize("kind,step", [("identity", StepParams("gradient", 0.0)),
                                       ("circular", StepParams("ls", 0.5))],
                         ids=["identity-skipped", "circular-ls"])
def test_loss_and_gradients_equal_the_textbook_backward_bit_for_bit(
    mode, symmetric, hidden, T, kind, step
):
    n = 6
    if kind == "identity":
        op = identity_operator(n)
    else:
        op = circular_operator(np.array([0.6, 0.25, 0.15]), n=n)
    x, y = _toy_problem(seed=12, N=9, n=n)
    # a zero measurement row drives whole masks off, so exact zeros occur
    y[4] = 0.0
    stack = random_stack(n, hidden, T=T, mode=mode, symmetric=symmetric, seed=13)
    loss, grads = loss_and_gradients(stack, x, y, op, step)
    want_loss, want_grads = _reference_loss_and_gradients(stack, x, y, op, step)
    assert loss == want_loss
    assert len(grads) == len(want_grads)
    for a, b in zip(grads, want_grads):
        assert a.tobytes() == b.tobytes()


def test_adam_checks_entries_not_their_sum_and_leaves_inputs_unchanged():
    rng = np.random.default_rng(14)
    weights = [rng.standard_normal(2)]
    state = OptimizerState.for_weights(weights, lr=0.01)
    _, state = adam_step(state, weights, [rng.standard_normal(2)])
    kept = [weights[0].tobytes(), state.m[0].tobytes(), state.v[0].tobytes()]

    for bad in (np.inf, -np.inf, np.nan):
        grad = np.array([1.0, bad])
        before = grad.tobytes()
        with pytest.raises(NonFiniteError):
            adam_step(state, weights, [grad])
        assert grad.tobytes() == before
        assert [weights[0].tobytes(), state.m[0].tobytes(), state.v[0].tobytes()] == kept

    # finite entries whose sum overflows are a valid gradient
    grad = np.array([1e308, 1e308])
    before = grad.tobytes()
    with np.errstate(over="ignore"):
        new_w, new_state = adam_step(state, weights, [grad])
    assert new_state.step_count == state.step_count + 1
    assert np.all(np.isfinite(new_w[0]))
    assert grad.tobytes() == before
    assert [weights[0].tobytes(), state.m[0].tobytes(), state.v[0].tobytes()] == kept


def test_train_reports_a_diverging_lr_without_runtime_warnings():
    import warnings

    n = 6
    x, y = _toy_problem(seed=15, N=16, n=n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = train(x[:12], y[:12], x[12:], y[12:], identity_operator(n),
                       StepParams("ls", 0.4), hidden=[4], T=2, lr_grid=[1e150, 1e-3],
                       epochs=3, batch=4, seed=16)
    assert result.diverged_lrs == [1e150]
    assert result.lr == 1e-3


def test_train_rejects_a_step_cap_below_one():
    x, y = _toy_problem(N=8, n=6)
    with pytest.raises(ValueError, match="max_steps"):
        train(x, y, x, y, identity_operator(6), STEP0, hidden=[4], T=2, max_steps=0)


def test_anneal_scales_the_learning_rate_from_its_epoch():
    x, y = _toy_problem(N=16, n=6)
    kwargs = dict(hidden=[4], T=2, epochs=3, batch=4, seed=5)

    def run(lr_grid, **extra):
        return train(x, y, x, y, identity_operator(6), STEP0, lr_grid=lr_grid, **kwargs, **extra)

    def weights(result):
        return [w.tobytes() for w in flatten_weights(result.stack)]

    # annealed from epoch 0, the run is the run at lr * 0.1, reported under lr
    annealed = run([3e-3], anneal_at=0)
    assert annealed.lr == 3e-3
    assert weights(annealed) == weights(run([3e-3 * 0.1]))
    # an anneal epoch past the last epoch never fires
    assert weights(run([3e-3], anneal_at=3)) == weights(run([3e-3]))
    assert weights(run([3e-3], anneal_at=1)) != weights(run([3e-3]))
