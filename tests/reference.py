"""Test-only references over the package's kernels.

They sit beside the tests, not in the package: the data steps one
operator application at a time (`apply_step`), which `step_matrices`
must match; one residual unit with its input checks; the network with
its masks frozen as a product of n-by-n stage matrices, which replays a
recorded forward pass (`replay_from_trace`) and gives the Jacobian
(`jacobian_from_trace`) that `unroll` with frozen masks must match;
the network's forward with every product one call on the whole batch
(`one_call_forward`), which `unroll` must match up to its slab size;
a minibatch's loss and gradients as plain expressions, forward and
backward (`textbook_loss_and_gradients`), which `loss_and_gradients`
must match byte for byte; a stack rebuilt from a weight list in
flatten_weights order (`stack_with_weights`); the RSS identity of a linear map; the B matrix,
the incoherence of W (`incoherence`), the oracle for the package's mu,
and the per-term deviation check of the path expansion; the
alternating path-sparsity sum over a term list (`dof_surrogate`), the
oracle for the batched `path_surrogates`; one input drawn away from
the ReLU boundary; and the FFT formulas of the circular and DFT
operators (`circular_fft`, `dft_fft`), which their matrices must match."""

import dataclasses

import numpy as np

from proxsure.errors import DimensionMismatchError, SingularSystemError
from proxsure.jacobian import PathTerm, theorem1_bound
from proxsure.network import ProximalStack, _unit
from proxsure.operators import (
    SensingOperator,
    StepParams,
    _check_len,
    apply_operator,
    gram_matrix,
    step_matrices,
)
from proxsure.verify import _sample_regular_inputs


def residual_unit_forward(h, W, Wbar=None):
    """One residual unit of the forward kernel on the last axis; returns
    (h', mask).

    General: h' = h + W^H (D * (Wbar h)), D = 1{Wbar h > 0}.
    Symmetric (Wbar None): h' = h - W^H (D * (W h)), D = 1{W h > 0}.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.shape[-1] != W.shape[1]:
        raise DimensionMismatchError("residual unit input", W.shape[1], h.shape[-1])
    if Wbar is not None and Wbar.shape != W.shape:
        raise DimensionMismatchError("Wbar rows", W.shape[0], Wbar.shape[0])
    h, D, _ = _unit(h, W, Wbar)
    return h, D


def stage_matrix(W, Wbar, mask) -> np.ndarray:
    """Pseudo-linear matrix of one unit with the mask frozen:
    I - W^H D W (symmetric) or I + W^H D Wbar."""
    d = np.asarray(mask, dtype=np.float64)
    if Wbar is None:
        return np.eye(W.shape[1]) - W.T @ (d[:, None] * W)
    return np.eye(W.shape[1]) + W.T @ (d[:, None] * Wbar)


def frozen_mask_pass(masks, stack: ProximalStack, G_x, G_y, x, r) -> np.ndarray:
    """The network with its masks frozen: per iteration
    x <- stage_K ... stage_1 (G_x x + G_y r), on columns of x and r.
    (G_x, G_y) = (None, None) skips the data step."""
    for t in range(stack.T):
        if G_x is not None:
            x = G_x @ x + G_y @ r
        for (W, Wbar), mask in zip(stack.layer_weights(t), masks[t], strict=True):
            x = stage_matrix(W, Wbar, mask) @ x
    return x


def replay_from_trace(
    masks,
    stack: ProximalStack,
    op: SensingOperator,
    step: StepParams,
    y,
) -> np.ndarray:
    """Rebuild x^T from the recorded masks via pseudo-linear stage products."""
    y = np.asarray(y, dtype=np.float64)
    x0 = apply_operator(op, y, "adjoint")
    return frozen_mask_pass(masks, stack, *step_matrices(op, step), x0, y)


def jacobian_from_trace(masks, stack: ProximalStack, op: SensingOperator, step: StepParams):
    """d x^T / d y (n-by-m) via stage products: d x^0 / d y = Phi^H, and
    the data step's y-term has Jacobian G_y."""
    return frozen_mask_pass(masks, stack, *step_matrices(op, step), op.matrix.T, np.eye(op.m))


def one_call_forward(y, stack: ProximalStack, op: SensingOperator, G_x, G_y) -> np.ndarray:
    """The network without masks, every product one call on the whole
    batch against the transposed view: x @ G_x.T + y @ G_y.T, then per
    unit h -+ max(h @ (W or Wbar).T, 0) @ W."""
    x = apply_operator(op, y, "adjoint")
    for t in range(stack.T):
        h = x if G_x is None else x @ G_x.T + y @ G_y.T
        for W, Wbar in stack.layer_weights(t):
            a = np.maximum(h @ (W if Wbar is None else Wbar).T, 0.0)
            h = h - a @ W if Wbar is None else h + a @ W
        x = h
    return x


def textbook_loss_and_gradients(stack: ProximalStack, x_true, y, op: SensingOperator,
                                step: StepParams):
    """Mean squared loss and gradients (flatten_weights order) of the
    batch (x_true, y), every line a plain expression that makes a new
    array. The forward records each unit's input h, mask D and ReLU
    output a; the backward carries g = dL/dh with, per unit,
    e = D * (g @ W.T) and
      symmetric: grads -= e.T @ h + a.T @ g, g = g - e @ W;
      general:   grads += a.T @ g (W), e.T @ h (Wbar), g = g + e @ Wbar;
    and g @ G_x between iterations. Every sum starts from 0.0."""
    X, Y = np.atleast_2d(x_true), np.atleast_2d(y)
    B = X.shape[0]
    G_x, G_y = step_matrices(op, step)
    x = apply_operator(op, Y, "adjoint")
    record = []
    for t in range(stack.T):
        h = x if G_x is None else x @ G_x.T + Y @ G_y.T
        units = []
        for W, Wbar in stack.layer_weights(t):
            a = h @ (W if Wbar is None else Wbar).T
            D = a > 0.0
            a = a * D
            units.append((h, D, a))
            h = h - a @ W if Wbar is None else h + a @ W
        record.append(units)
        x = h
    diff = x - X
    loss = float((diff**2).sum() / B)
    slots = 1 if stack.symmetric else 2
    grads = [0.0] * (len(stack.weights) * stack.K * slots)
    g = 2.0 * diff / B
    for t in reversed(range(stack.T)):
        wi = 0 if stack.mode == "ws" else t
        for k in reversed(range(stack.K)):
            W, Wbar = stack.layer_weights(t)[k]
            h, D, a = record[t][k]
            i = (wi * stack.K + k) * slots
            e = D * (g @ W.T)
            if Wbar is None:
                grads[i] = grads[i] - (e.T @ h + a.T @ g)
                g = g - e @ W
            else:
                grads[i] = grads[i] + a.T @ g
                grads[i + 1] = grads[i + 1] + e.T @ h
                g = g + e @ Wbar
        if t > 0 and G_x is not None:
            g = g @ G_x
    return loss, grads


def stack_with_weights(stack: ProximalStack, arrays) -> ProximalStack:
    """Rebuild a stack from a flat array list in flatten_weights order."""
    it = iter(arrays)
    its = []
    for layers in stack.weights:
        new_layers = []
        for _, Wbar in layers:
            W_new = next(it)
            Wb_new = None if Wbar is None else next(it)
            new_layers.append((W_new, Wb_new))
        its.append(tuple(new_layers))
    return dataclasses.replace(stack, weights=tuple(its))


def gradient_step(x, y, op: SensingOperator, alpha: float):
    """alpha * Phi^H y + (I - alpha * Phi^H Phi) x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_len(x, op.n, "gradient step state")
    if alpha == 0.0:
        return x.copy()
    back = apply_operator(op, y, "adjoint")
    return x + alpha * (back - apply_operator(op, apply_operator(op, x), "adjoint"))


def _solve(system: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve system @ out = rhs along the last axis of rhs."""
    if np.linalg.cond(system) > 1e12:
        raise SingularSystemError(
            "least-squares system matrix is numerically singular"
        )
    if rhs.ndim == 1:
        return np.linalg.solve(system, rhs)
    n = rhs.shape[-1]
    flat = rhs.reshape(-1, n)
    return np.linalg.solve(system, flat.T).T.reshape(rhs.shape)


def least_squares_step(x, y, op: SensingOperator, alpha: float, kind: str = "mixing"):
    """Proximal least-squares update on the Gram matrix Phi^H Phi.

    mixing: (alpha G + (1-alpha) I)^-1 (alpha Phi^H y + (1-alpha) x)
    deblur: (G + alpha I)^-1 (Phi^H y + alpha x)
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_len(x, op.n, "least-squares step state")
    G = gram_matrix(op)
    back = apply_operator(op, y, "adjoint")
    if kind == "mixing":
        system = alpha * G + (1.0 - alpha) * np.eye(op.n)
        rhs = alpha * back + (1.0 - alpha) * x
    elif kind == "deblur":
        system = G + alpha * np.eye(op.n)
        rhs = back + alpha * x
    else:
        raise ValueError(f"unknown least-squares kind {kind!r}")
    return _solve(system, rhs)


def apply_step(x, y, op: SensingOperator, step: StepParams):
    """Run the configured data-consistency step."""
    if step.kind == "gradient":
        return gradient_step(x, y, op, step.alpha)
    if step.kind == "ls":
        return least_squares_step(x, y, op, step.alpha, "mixing")
    return least_squares_step(x, y, op, step.alpha, "deblur")


def circular_fft(kernel, n: int, u, direction: str = "forward"):
    """Circular convolution (forward) or correlation (adjoint) of the
    rows of u with the zero-padded kernel, through the FFT."""
    pad = np.zeros(n)
    pad[: len(kernel)] = kernel
    kf = np.fft.fft(pad)
    mul = kf if direction == "forward" else np.conj(kf)
    return np.fft.ifft(np.fft.fft(u, axis=-1) * mul, axis=-1).real


def dft_fft(n: int, omega, u, direction: str = "forward"):
    """The unitary DFT sampled at omega symmetrized under k -> -k mod n,
    real parts stacked over imaginary parts (forward), and its adjoint,
    through the FFT."""
    idx = np.asarray(omega, dtype=np.int64) % n
    sym = np.union1d(idx, (-idx) % n)
    if direction == "forward":
        z = np.fft.fft(u, axis=-1)[..., sym] / np.sqrt(n)
        return np.concatenate([z.real, z.imag], axis=-1)
    p = len(sym)
    full = np.zeros(u.shape[:-1] + (n,), dtype=np.complex128)
    full[..., sym] = u[..., :p] + 1j * u[..., p:]
    return (np.fft.ifft(full, axis=-1) * np.sqrt(n)).real


def residual_identity(J, y):
    """Both sides of ||Jy - y||^2 = ||Jy||^2 - 2 y^H J y + ||y||^2.

    This is the exact algebraic identity behind the RSS decomposition of
    a mask-frozen linearization; returns (lhs, rhs).
    """
    J = np.asarray(J, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    Jy = J @ y
    lhs = float(np.sum((Jy - y) ** 2))
    rhs = float(Jy @ Jy - 2.0 * (y @ Jy) + y @ y)
    return lhs, rhs


def norm_matrix_b(W: np.ndarray) -> np.ndarray:
    """Squared row norms: the diagonal of W W^H."""
    W = np.asarray(W, dtype=np.float64)
    return np.einsum("ij,ij->i", W, W)


def incoherence(W: np.ndarray) -> float:
    """Largest off-diagonal magnitude of W W^H; 0 for a single row."""
    W = np.asarray(W, dtype=np.float64)
    G = W @ W.T
    return float(np.abs(G - np.diag(np.diag(G))).max()) if len(G) > 1 else 0.0


def path_deviation(term: PathTerm, slack: float = 1e-12):
    """(deviation, bound, satisfied) for one path term."""
    dev = abs(term.trace_exact - term.path_sparsity)
    return dev, term.deviation_bound, dev <= term.deviation_bound + slack


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
    surrogate = float(n) + sum(
        (-1.0) ** len(t.index_set) * t.path_sparsity for t in terms
    )
    _, eps, bound, valid = theorem1_bound(mu, np.array([rho], dtype=np.float64))
    return surrogate, eps, bound, valid


def _sample_regular_input(stack, op, step, rng, margin=1e-4, attempts=50):
    """Random input whose pre-activations stay away from the ReLU boundary."""
    return _sample_regular_inputs(stack, op, step, rng, 1, margin, attempts)[0]
