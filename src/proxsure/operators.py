"""Linear measurement operators and data-consistency steps.

Every operator is its m-by-n float64 matrix Phi, built once by its
factory and read-only; the subsampled DFT stacks its real rows over its
imaginary rows, so the pipeline never sees complex numbers.
`apply_operator` is one product on the last axis, so a batch (B, n)
works the same as one (n,) vector; the identity is applied as a copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, SingularSystemError

VALID_KINDS = ("identity", "dense", "circular", "dft")
STEP_KINDS = ("gradient", "ls", "deblur")


@dataclass(frozen=True, eq=False)
class SensingOperator:
    """Forward map Phi with kind in {identity, dense, circular, dft}.

    The operator owns a read-only float64 copy of its m-by-n matrix;
    use the factory functions below.
    """

    kind: str
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        A = np.array(self.matrix, dtype=np.float64)
        if A.ndim != 2 or 0 in A.shape:
            raise ValueError("operator needs an m-by-n matrix with m, n >= 1")
        A.flags.writeable = False
        object.__setattr__(self, "matrix", A)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


def identity_operator(n: int) -> SensingOperator:
    return SensingOperator("identity", np.eye(n))


def dense_operator(matrix) -> SensingOperator:
    return SensingOperator("dense", matrix)


def circular_operator(kernel, n: int) -> SensingOperator:
    """Circular convolution of a length-n signal with a 1-D kernel:
    Phi[i, j] = kernel[(i - j) mod n], zero-padded to length n."""
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim != 1 or len(k) == 0:
        raise ValueError("kernel must be 1-D and non-empty")
    if len(k) > n:
        raise ValueError("kernel longer than the signal")
    pad = np.zeros(n)
    pad[: len(k)] = k
    return SensingOperator("circular", pad[np.subtract.outer(np.arange(n), np.arange(n)) % n])


def dft_operator(n: int, omega) -> SensingOperator:
    """Subsampled unitary DFT with conjugate-symmetric frequency set.

    The sampled index set is symmetrized (each k paired with -k mod n) so
    that the normal map Phi^H Phi is an orthogonal projection and real
    inputs stay real. Output stacks real parts then imaginary parts, so
    m = 2 * |Omega|.
    """
    idx = np.asarray(omega, dtype=np.int64) % n
    sym = np.union1d(idx, (-idx) % n)
    F = np.fft.fft(np.eye(n), axis=0)[sym] / np.sqrt(n)
    return SensingOperator("dft", np.concatenate([F.real, F.imag]))


def _check_len(u, expected, what):
    if u.shape[-1] != expected:
        raise DimensionMismatchError(what, expected, u.shape[-1])


def apply_operator(op: SensingOperator, u, direction: str = "forward") -> np.ndarray:
    """Apply Phi (forward) or Phi^H (adjoint) along the last axis."""
    u = np.asarray(u, dtype=np.float64)
    if direction not in ("forward", "adjoint"):
        raise ValueError(f"direction must be forward or adjoint, got {direction!r}")
    forward = direction == "forward"
    _check_len(u, op.n if forward else op.m, f"{op.kind} {direction} input")

    if op.kind == "identity":
        return u.copy()
    return u @ (op.matrix.T if forward else op.matrix)


def gram_matrix(op: SensingOperator) -> np.ndarray:
    """The normal map Phi^H Phi as an n-by-n matrix."""
    return op.matrix.T @ op.matrix


@dataclass(frozen=True)
class StepParams:
    """Data-consistency step: kind in {gradient, ls, deblur} with scalar alpha."""

    kind: str = "gradient"
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}")
        if not np.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if self.kind == "ls" and not 0.0 <= self.alpha <= 1.0:
            raise ValueError("mixing least-squares step needs 0 <= alpha <= 1")
        if self.kind == "deblur" and self.alpha <= 0.0:
            raise ValueError("deblur least-squares step needs alpha > 0")

    @property
    def skipped(self) -> bool:
        """The step is the identity map s = x (`gradient` or `ls` with
        alpha = 0, on any operator), which the kernels skip."""
        return self.alpha == 0.0 and self.kind in ("gradient", "ls")


def step_matrices(op: SensingOperator, step: StepParams):
    """Jacobians (G_x, G_y) of the data-consistency step s = G_x x + G_y y,
    or (None, None) when the step is skipped (see StepParams.skipped)."""
    if step.skipped:
        return None, None
    eye = np.eye(op.n)
    adj = op.matrix.T  # n x m
    G = gram_matrix(op)
    if step.kind == "gradient":
        return eye - step.alpha * G, step.alpha * adj
    if step.kind == "ls":
        system = step.alpha * G + (1.0 - step.alpha) * eye
        if np.linalg.cond(system) > 1e12:
            raise SingularSystemError("least-squares system matrix is singular")
        inv = np.linalg.inv(system)
        return (1.0 - step.alpha) * inv, step.alpha * (inv @ adj)
    system = G + step.alpha * eye
    if np.linalg.cond(system) > 1e12:
        raise SingularSystemError("deblur system matrix is singular")
    inv = np.linalg.inv(system)
    return step.alpha * inv, inv @ adj
