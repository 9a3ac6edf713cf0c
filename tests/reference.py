"""Test-only references over the package's kernels.

They sit beside the tests, not in the package: the data steps one
operator application at a time (`apply_step`), which `step_matrices`
must match; one residual unit with its input checks; the replay of a
recorded forward pass from its masks through the frozen-mask stages;
the RSS identity of a linear map; the B matrix and the per-term
deviation check of the path expansion; the alternating path-sparsity
sum over a term list (`dof_surrogate`), the oracle for the batched
`path_surrogates`; and one input drawn away from the ReLU boundary."""

import numpy as np

from proxsure.errors import DimensionMismatchError, SingularSystemError
from proxsure.jacobian import PathTerm, theorem1_bound
from proxsure.network import ProximalStack, _unit, frozen_mask_pass
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


def adjoint_gap(op: SensingOperator, rng: np.random.Generator) -> float:
    """|<Phi u, v> - <u, Phi^H v>| / (||u|| ||v||) for one random pair."""
    u = rng.standard_normal(op.n)
    v = rng.standard_normal(op.m)
    lhs = float(apply_operator(op, u) @ v)
    rhs = float(u @ apply_operator(op, v, "adjoint"))
    return abs(lhs - rhs) / (np.linalg.norm(u) * np.linalg.norm(v))


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
    rho_max = float(np.max(rho)) if len(rho) else 0.0
    surrogate = float(n) + sum(
        (-1.0) ** len(t.index_set) * t.path_sparsity for t in terms
    )
    eps, bound = theorem1_bound(mu, rho_max, T)
    return surrogate, eps, bound, eps < 1.0


def _sample_regular_input(stack, op, step, rng, margin=1e-4, attempts=50):
    """Random input whose pre-activations stay away from the ReLU boundary."""
    return _sample_regular_inputs(stack, op, step, rng, 1, margin, attempts)[0]
