"""Linear measurement operators and data-consistency steps.

All operators act on the last axis of their argument, so a batch of row
vectors with shape (B, n) works the same as a single (n,) vector.
Everything is real float64; the subsampled-DFT operator exposes its
complex coefficients as stacked real/imaginary channels so the rest of
the pipeline never sees complex numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, SingularSystemError

VALID_KINDS = ("identity", "dense", "circular", "dft")
STEP_KINDS = ("gradient", "ls", "deblur")


@dataclass(frozen=True)
class SensingOperator:
    """Forward map with kind in {identity, dense, circular, dft}.

    Immutable after construction; use the factory functions below.
    """

    kind: str
    n: int
    m: int
    matrix: np.ndarray | None = field(default=None, repr=False)
    kernel: np.ndarray | None = field(default=None, repr=False)
    omega: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.n <= 0:
            raise ValueError("operator needs n >= 1")


def identity_operator(n: int) -> SensingOperator:
    return SensingOperator("identity", n=n, m=n)


def dense_operator(matrix) -> SensingOperator:
    A = np.asarray(matrix, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("dense operator needs a 2-D real matrix")
    m, n = A.shape
    return SensingOperator("dense", n=n, m=m, matrix=A)


def circular_operator(kernel, n: int) -> SensingOperator:
    """Circular convolution of a length-n signal with a 1-D kernel."""
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim != 1:
        raise ValueError("kernel must be 1-D")
    if len(k) > n:
        raise ValueError("kernel longer than the signal")
    pad = np.zeros(n)
    pad[: len(k)] = k
    return SensingOperator("circular", n=n, m=n, kernel=pad)


def dft_operator(n: int, omega) -> SensingOperator:
    """Subsampled unitary DFT with conjugate-symmetric frequency set.

    The sampled index set is symmetrized (each k paired with -k mod n) so
    that the normal map Phi^H Phi is an orthogonal projection and real
    inputs stay real. Output stacks real parts then imaginary parts, so
    m = 2 * |Omega|.
    """
    idx = np.asarray(omega, dtype=np.int64) % n
    sym = np.union1d(idx, (-idx) % n)
    return SensingOperator("dft", n=n, m=2 * len(sym), omega=sym)


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

    if op.kind == "dense":
        A = op.matrix
        return u @ (A.T if forward else A)

    if op.kind == "circular":
        kf = np.fft.fft(op.kernel)
        uf = np.fft.fft(u, axis=-1)
        mul = kf if forward else np.conj(kf)
        return np.fft.ifft(uf * mul, axis=-1).real

    # subsampled unitary DFT, real/imaginary stacked channels
    p = len(op.omega)
    root_n = np.sqrt(op.n)
    if forward:
        z = np.fft.fft(u, axis=-1)[..., op.omega] / root_n
        return np.concatenate([z.real, z.imag], axis=-1)
    z = u[..., :p] + 1j * u[..., p:]
    full = np.zeros(u.shape[:-1] + (op.n,), dtype=np.complex128)
    full[..., op.omega] = z
    return (np.fft.ifft(full, axis=-1) * root_n).real


def operator_matrix(op: SensingOperator) -> np.ndarray:
    """Materialize Phi as an m-by-n matrix."""
    return apply_operator(op, np.eye(op.n)).T


def gram_matrix(op: SensingOperator) -> np.ndarray:
    """Materialize the normal map Phi^H Phi as an n-by-n matrix."""
    return apply_operator(op, apply_operator(op, np.eye(op.n)), "adjoint").T


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


def step_matrices(op: SensingOperator, step: StepParams):
    """Jacobians (G_x, G_y) of the data-consistency step s = G_x x + G_y y,
    or (None, None) when the step is the identity map s = x (`gradient` or
    `ls` with alpha = 0, on any operator), which the kernels then skip."""
    if step.alpha == 0.0 and step.kind in ("gradient", "ls"):
        return None, None
    n = op.n
    eye = np.eye(n)
    adj = operator_matrix(op).T  # n x m
    if step.kind == "gradient":
        G = gram_matrix(op)
        return eye - step.alpha * G, step.alpha * adj
    G = gram_matrix(op)
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
