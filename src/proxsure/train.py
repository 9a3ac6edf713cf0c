"""Training: reverse-mode gradients, Adam, the spectral closed form for
the linear limit, and the fixed-point mask analysis.

The backward pass traverses the unrolled graph with the recorded ReLU
masks (derivative 0 at exactly 0); weight-sharing sums the per-iteration
contributions into the single weight set.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, sample_correlation
from .errors import NonFiniteError, TrainingFailureError
from .jacobian import accumulate_jacobian
from .network import ProximalStack, random_stack, unroll, unroll_forward
from .operators import SensingOperator, StepParams, identity_operator, step_matrices

DEFAULT_LR_GRID = (3e-4, 1e-3, 3e-3)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def loss_and_gradients(
    stack: ProximalStack,
    x_true,
    y,
    op: SensingOperator,
    step: StepParams,
    matrices=None,
):
    """Mean squared batch loss and gradients for every stored weight.

    x_true is (B, n), y is (B, m). Returns (loss, grads) with grads in
    flatten_weights order. matrices, when given, is the pair (G_x, G_y)
    that step_matrices(op, step) returns; a caller that takes many steps
    with one operator and step computes it once and passes it here.
    """
    X = np.asarray(x_true, dtype=np.float64)
    Y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        X = np.atleast_2d(X)
    if Y.ndim != 2:
        Y = np.atleast_2d(Y)
    if X.shape[0] != Y.shape[0] or X.shape[0] == 0:
        raise ValueError("batch of (x, y) pairs must be nonempty and aligned")
    B = X.shape[0]
    G_x, G_y = step_matrices(op, step) if matrices is None else matrices
    xhat, record = unroll(Y, stack, op, G_x, G_y, record=True)
    diff = np.subtract(xhat, X, out=xhat)
    loss = float((diff**2).sum() / B)
    if not math.isfinite(loss):
        bad = int(np.flatnonzero(~np.isfinite(np.sum(diff**2, axis=1)))[0])
        raise NonFiniteError(f"non-finite loss at batch sample {bad}")

    # grads[i] accumulates flatten_weights(stack)[i]: weight set wi, layer
    # k and slot (0 = W, 1 = Wbar) sit at (wi * K + k) * slots + slot.
    # Each starts at 0.0, so its first sum is 0.0 - X or 0.0 + X, whose
    # zeros are +0.0 where -X would give -0.0
    slots = 1 if stack.symmetric else 2
    K = stack.K
    grads = [0.0] * (len(stack.weights) * K * slots)
    g = np.multiply(diff, 2.0, out=diff)
    g /= B
    for t in reversed(range(stack.T)):
        wi = 0 if stack.mode == "ws" else t
        layers = stack.layer_weights(t)
        for k in reversed(range(K)):
            W, Wbar = layers[k]
            h_in, D, a = record[t][1][k]
            i = (wi * K + k) * slots
            # nothing reads the gradient with respect to the first unit's input
            first = t == 0 and k == 0
            # each line is a textbook expression in its order of operations,
            # written into an array this pass owns. e = D * (g @ W.T) is the
            # general unit's pre-activation gradient dz, and the symmetric
            # unit's -dz: negation is exact, so its lines equal the textbook
            # grads + (dz^T h - a^T g) and g + dz W
            e = np.dot(g, W.T)
            e *= D
            if Wbar is None:
                s = np.dot(e.T, h_in)
                s += np.dot(a.T, g)
                grads[i] = np.subtract(grads[i], s, out=s)
                if not first:
                    np.subtract(g, np.dot(e, W), out=g)
            else:
                s = np.dot(a.T, g)
                grads[i] = np.add(grads[i], s, out=s)
                s = np.dot(e.T, h_in)
                grads[i + 1] = np.add(grads[i + 1], s, out=s)
                if not first:
                    np.add(g, np.dot(e, Wbar), out=g)
        if t > 0 and G_x is not None:
            g = np.dot(g, G_x)
    return loss, grads


@dataclass
class OptimizerState:
    """Adam accumulators shaped like the flat weight list."""

    lr: float
    m: list
    v: list
    step_count: int = 0

    @classmethod
    def for_weights(cls, weights, lr):
        return cls(lr, [np.zeros_like(w) for w in weights], [np.zeros_like(w) for w in weights])


def adam_step(state: OptimizerState, weights, grads):
    """Bias-corrected Adam update; returns (new_weights, new_state).

    The arrays passed in are left untouched; every returned array is new.
    """
    for g in grads:
        # a finite sum proves every entry finite; only a sum that is not
        # (an inf or nan entry, or finite entries that overflow) is rechecked
        if not math.isfinite(g.sum()) and not np.all(np.isfinite(g)):
            raise NonFiniteError("non-finite gradient passed to Adam")
    t = state.step_count + 1
    new_m, new_v, new_w = [], [], []
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for w, g, m, v in zip(weights, grads, state.m, state.v):
        # the textbook expressions, evaluated in the same order into reused
        # buffers: m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
        # w - lr (m / c1) / (sqrt(v / c2) + eps)
        tmp = np.multiply(g, 1.0 - b1)
        m = b1 * m
        m += tmp
        np.multiply(g, 1.0 - b2, out=tmp)
        tmp *= g
        v = b2 * v
        v += tmp
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        upd = m / c1
        upd *= state.lr
        upd /= tmp
        np.subtract(w, upd, out=upd)
        new_m.append(m)
        new_v.append(v)
        new_w.append(upd)
    return new_w, OptimizerState(lr=state.lr, m=new_m, v=new_v, step_count=t)


@dataclass
class TrainRunResult:
    """Outcome of one training cell after learning-rate selection."""

    stack: ProximalStack
    train_loss: list[float]
    test_mse: list[float]
    lr: float
    epochs: int
    diverged_lrs: list[float] = field(default_factory=list)


def train(
    x_train,
    y_train,
    x_test,
    y_test,
    op: SensingOperator,
    step: StepParams,
    hidden,
    T: int,
    mode: str = "ws",
    symmetric: bool = True,
    lr_grid=DEFAULT_LR_GRID,
    epochs: int = 20,
    batch: int = 8,
    anneal_at: int | None = None,
    max_steps: int | None = None,
    seed: int = 0,
) -> TrainRunResult:
    """Minibatch Adam over a learning-rate grid; keeps the run with the
    lowest final held-out MSE. Fully deterministic given the seed.

    Each learning rate takes min(max_steps, epochs * ceil(N / batch))
    steps; a cap ends its epoch early, and that epoch is recorded."""
    x_train = np.asarray(x_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.float64)
    x_test = np.asarray(x_test, dtype=np.float64)
    y_test = np.asarray(y_test, dtype=np.float64)
    if len(x_train) == 0:
        raise ValueError("empty training set")
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    if batch < 1:
        raise ValueError("batch must be at least 1")
    if max_steps is not None and max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    starts = range(0, len(x_train), batch)  # one minibatch per start
    steps = min(len(starts) * epochs, math.inf if max_steps is None else max_steps)
    matrices = step_matrices(op, step)

    runs, diverged = [], []
    for li, lr in enumerate(lr_grid):
        stack = random_stack(x_train.shape[1], hidden, T, mode, symmetric,
                             seed=np.random.default_rng([seed, li, 2]))
        order_rng = np.random.default_rng([seed, li, 3])
        state = OptimizerState.for_weights([stack.flat], lr)
        loss_hist, mse_hist = [], []
        try:
            # a diverging lr overflows on its way to a non-finite loss or MSE,
            # which diverged_lrs already reports
            with np.errstate(over="ignore", invalid="ignore"):
                for epoch in range(-(-steps // len(starts))):  # the epochs that start
                    if epoch == anneal_at:
                        state.lr = lr * 0.1
                    order = order_rng.permutation(len(x_train))
                    epoch_loss = 0.0
                    seen = 0
                    for start in starts[: steps - epoch * len(starts)]:
                        idx = order[start : start + batch]
                        loss, grads = loss_and_gradients(
                            stack, x_train[idx], y_train[idx], op, step, matrices
                        )
                        flat_grad = (grads[0].ravel() if len(grads) == 1
                                     else np.concatenate([g.ravel() for g in grads]))
                        new, state = adam_step(state, [stack.flat], [flat_grad])
                        stack.flat[:] = new[0]
                        epoch_loss += loss * len(idx)
                        seen += len(idx)
                    xhat, _ = unroll(y_test, stack, op, *matrices)
                    loss_hist.append(epoch_loss / seen)
                    mse_hist.append(float(np.mean((xhat - x_test) ** 2)))
        except NonFiniteError:
            diverged.append(lr)
            continue
        if not math.isfinite(mse_hist[-1]):
            diverged.append(lr)
            continue
        runs.append(TrainRunResult(stack, loss_hist, mse_hist, lr, len(loss_hist)))
    if not runs:
        raise TrainingFailureError("training diverged for every learning rate in the grid")
    result = min(runs, key=lambda run: run.test_mse[-1])
    result.diverged_lrs = diverged
    return result


# --- linear limit (PCA) -------------------------------------------------


def projection_objective(W: np.ndarray, C: np.ndarray, sigma2: float) -> float:
    """tr(P_W (C - sigma^2 I)) for the row-space projector of W."""
    if W.shape[0] == 0:
        return 0.0
    P = W.T @ np.linalg.pinv(W.T)
    return float(np.trace(P @ (C - sigma2 * np.eye(C.shape[0]))))


def pca_closed_form(dataset: Dataset, sigma2: float):
    """Closed-form weights of the infinite-iteration linear limit.

    The rows of W are the eigenvectors of the sample correlation matrix
    whose eigenvalues fall strictly below sigma2 (ties are retained in
    the signal, i.e. kept out of W), so the end-to-end limit map
    I - P_W annihilates exactly the below-noise directions. Returns
    (W, dof_spectral) with dof_spectral = #{sigma_i >= sigma2}.
    """
    if dataset.N < 1:
        raise ValueError("empty dataset")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    C = sample_correlation(dataset)
    eigvals, eigvecs = np.linalg.eigh(C)
    below = eigvals < sigma2
    W = eigvecs[:, below].T
    dof_spectral = int(np.sum(~below))
    return W, dof_spectral


# --- fixed-point mask analysis ------------------------------------------

FIXED_POINT_TAIL = 10  # iterations whose active sets make up the support


@dataclass
class FixedPointResult:
    x: np.ndarray
    support: np.ndarray  # active row indices (tail-window union)
    dof: int  # n - |support|
    converged: bool
    iterations: int
    projector_residual: float
    tail_margin: float  # min |pre-activation| off the support over the tail window


def mask_fixed_point(
    W: np.ndarray,
    y,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> FixedPointResult:
    """Iterate x <- (I - W^H D(x) W) x until the state stops moving.

    The support is the union of active indices over the last FIXED_POINT_TAIL
    iterations: exact fixed points drive active pre-activations to zero
    from above, where the instantaneous 1{>0} mask flickers off.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    W = np.asarray(W, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x = y.copy()
    tail = deque(maxlen=FIXED_POINT_TAIL)  # (mask, |z|) of the latest iterations
    for iterations in range(1, max_iter + 1):
        z = W @ x
        D = z > 0.0
        x_new = x - W.T @ (D * z)
        tail.append((D, np.abs(z)))
        delta = float(np.linalg.norm(x_new - x))
        x = x_new
        if delta < tol:
            break
    mask = np.logical_or.reduce([D for D, _ in tail])
    support = np.flatnonzero(mask)
    W_s = W[support]
    if len(support):
        target = (np.eye(len(x)) - W_s.T @ np.linalg.pinv(W_s.T)) @ y
    else:
        target = y
    # support rows' pre-activations go to 0 by construction; the margin
    # that matters is how far the other rows stay from turning on
    off = ~mask
    tail_margin = float(min(z[off].min() for _, z in tail)) if off.any() else np.inf
    return FixedPointResult(
        x=x,
        support=support,
        dof=len(x) - len(support),
        converged=delta < tol,
        iterations=iterations,
        projector_residual=float(np.linalg.norm(x - target)),
        tail_margin=tail_margin,
    )


def fixed_point_jacobian(W: np.ndarray, y, iterations: int) -> np.ndarray:
    """The Jacobian at y of `iterations` shared symmetric units on the
    identity: the product of the stages (I - W^H D_t W) along the orbit
    from y, taken as `unroll` on I_n with the orbit's masks frozen."""
    W = np.asarray(W, dtype=np.float64)
    stack = ProximalStack(n=W.shape[1], T=iterations, mode="ws", symmetric=True,
                          weights=(((W, None),),))
    op, step = identity_operator(stack.n), StepParams("gradient", 0.0)
    _, masks = unroll_forward(y, stack, op, step)
    return accumulate_jacobian(masks, stack, op, step)
