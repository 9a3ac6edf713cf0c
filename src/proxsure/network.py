"""Residual-unit proximal stacks and the unrolled forward pass.

A stack holds, per effective iteration, K residual units h -> h + W^H
relu(Wbar h). In the symmetric case Wbar is tied to W with the unit
acting as h -> (I - W^H D W) h, where the mask D = 1{W h > 0} so the
stage matrix is the exact local Jacobian. ReLU at exactly zero counts
as inactive.

Every forward pass (training, evaluation, mask recording) runs the one
kernel `unroll` on the data step's matrices (G_x, G_y), so they all see
the same network bit for bit. `frozen_mask_pass` runs the network with
recorded masks frozen: on y it replays x^T, on Phi^H the Jacobian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DatasetHeaderError, DatasetTruncatedError
from .operators import SensingOperator, StepParams, apply_operator, step_matrices

MAGIC = b"SUNW1"


@dataclass(frozen=True)
class ProximalStack:
    """Trainable weights of the unrolled network.

    weights[i][k] is the pair (W, Wbar) for effective iteration i and
    layer k; Wbar is None when the stack is symmetric. Weight-sharing
    stacks store one iteration entry reused for all T outer iterations.
    """

    n: int
    T: int
    mode: str  # "ws" | "wc"
    symmetric: bool
    weights: tuple  # tuple[tuple[(W, Wbar | None), ...], ...]

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("stack needs n >= 1")
        if self.T < 1:
            raise ValueError("stack needs T >= 1")
        if self.mode not in ("ws", "wc"):
            raise ValueError(f"mode must be 'ws' or 'wc', got {self.mode!r}")
        expected = 1 if self.mode == "ws" else self.T
        if len(self.weights) != expected:
            raise ValueError(
                f"{self.mode} stack must store {expected} weight sets, "
                f"got {len(self.weights)}"
            )
        for layers in self.weights:
            if len(layers) == 0:
                raise ValueError("each iteration needs at least one layer")
            for W, Wbar in layers:
                if W.ndim != 2 or W.shape[1] != self.n:
                    raise ValueError("every W must be (l_k, n)")
                if self.symmetric:
                    if Wbar is not None:
                        raise ValueError("symmetric stacks derive Wbar from W")
                elif Wbar is None or Wbar.shape != W.shape:
                    raise ValueError("Wbar must match the shape of W")

    @property
    def K(self) -> int:
        return len(self.weights[0])

    def layer_weights(self, t: int):
        """Weight list for outer iteration t (0-based)."""
        return self.weights[0 if self.mode == "ws" else t]

    def widths(self) -> tuple[int, ...]:
        return tuple(W.shape[0] for W, _ in self.weights[0])


def random_stack(
    n: int,
    hidden,
    T: int,
    mode: str = "ws",
    symmetric: bool = True,
    seed: int = 0,
) -> ProximalStack:
    """Gaussian-initialized stack; std 1/sqrt(n) keeps stages near identity."""
    rng = np.random.default_rng(seed)
    std = 1.0 / np.sqrt(n)
    reps = 1 if mode == "ws" else T
    its = []
    for _ in range(reps):
        layers = []
        for width in hidden:
            W = std * rng.standard_normal((width, n))
            Wbar = None if symmetric else std * rng.standard_normal((width, n))
            layers.append((W, Wbar))
        its.append(tuple(layers))
    return ProximalStack(n=n, T=T, mode=mode, symmetric=symmetric, weights=tuple(its))


def _unit(h, W, Wbar):
    """One residual unit; returns (h', D, a) with a = D * (Wbar h) the
    ReLU output that the backward pass reuses.

    a is written into the pre-activation buffer and h' into the a @ W
    product, so a call allocates only the arrays it returns; h is read,
    never written."""
    a = h @ (W if Wbar is None else Wbar).T
    D = a > 0.0
    np.multiply(a, D, out=a)
    p = a @ W
    return (np.subtract(h, p, out=p) if Wbar is None else np.add(h, p, out=p)), D, a


def unroll(y, stack: ProximalStack, op: SensingOperator, G_x, G_y, record: bool = False):
    """The forward kernel: x^0 = Phi^H y, then per iteration the data step
    s = G_x x + G_y y followed by the residual units.

    y is (m,) or a batch (B, m); (G_x, G_y) come from step_matrices,
    and (None, None) means the data step is the identity map s = x.
    Returns (x^T, record): record is None unless asked for, else one
    (x_in, units) tuple per iteration with units[k] = (h, D, a) the
    input, mask and ReLU output of unit k.
    """
    x = apply_operator(op, y, "adjoint")
    rec = [] if record else None
    for t in range(stack.T):
        if G_x is None:
            h = x
        else:
            h = x @ G_x.T
            h += y @ G_y.T
        units = []
        for W, Wbar in stack.layer_weights(t):
            h_next, D, a = _unit(h, W, Wbar)
            if record:
                units.append((h, D, a))
            h = h_next
            del D, a  # free them before the next unit allocates its own
        if record:
            rec.append((x, units))
        x = h
    return x, rec


def unroll_forward(
    y,
    stack: ProximalStack,
    op: SensingOperator,
    step: StepParams,
    record: bool = True,
):
    """Run the unrolled network on y; returns (x^T, masks or None).

    Accepts a single (m,) vector or a batch (B, m); the masks are only
    recorded for single vectors, masks[t][k] the mask of unit k at
    iteration t: the layout `frozen_mask_pass` takes.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape[-1] != op.m:
        raise DimensionMismatchError("measurement", op.m, y.shape[-1])
    if record and y.ndim != 1:
        raise ValueError("trace recording needs a single input vector")
    x, rec = unroll(y, stack, op, *step_matrices(op, step), record=record)
    if not record:
        return x, None
    return x, [[D for _, D, _ in units] for _, units in rec]


def stage_matrix(W, Wbar, mask) -> np.ndarray:
    """Pseudo-linear matrix of one unit with the mask frozen."""
    d = mask.astype(np.float64)
    if Wbar is None:
        return np.eye(W.shape[1]) - W.T @ (d[:, None] * W)
    return np.eye(W.shape[1]) + W.T @ (d[:, None] * Wbar)


def frozen_mask_pass(masks, stack: ProximalStack, G_x, G_y, x, r) -> np.ndarray:
    """The network with its masks frozen: per iteration
    x <- stage_K ... stage_1 (G_x x + G_y r), on columns of x and r.

    On (Phi^H y, y) it replays x^T; on (Phi^H, I) it is d x^T / d y.
    (G_x, G_y) = (None, None) skips the data step, the identity map.
    """
    for t in range(stack.T):
        if G_x is not None:
            x = G_x @ x + G_y @ r
        for (W, Wbar), mask in zip(stack.layer_weights(t), masks[t]):
            x = stage_matrix(W, Wbar, mask) @ x
    return x


def forward_map(stack: ProximalStack, op: SensingOperator, step: StepParams):
    """End-to-end map y -> x^T as a plain callable (batched on the last axis)."""
    G_x, G_y = step_matrices(op, step)

    def h(y):
        return unroll(np.asarray(y, dtype=np.float64), stack, op, G_x, G_y)[0]

    return h


def save_stack(stack: ProximalStack, path) -> None:
    """Write the SUNW1 weight container.

    Layout: magic "SUNW1"; little-endian u32 mode (0 ws / 1 wc), u32
    symmetric flag, u32 T, u32 K; per layer u32 l_k, u32 n_k; then
    row-major float64 payloads in iteration-major, layer-major order
    (W, then Wbar when present).
    """
    header = [MAGIC]
    header.append(struct.pack("<4I", 0 if stack.mode == "ws" else 1,
                              1 if stack.symmetric else 0, stack.T, stack.K))
    for W, _ in stack.weights[0]:
        header.append(struct.pack("<2I", W.shape[0], W.shape[1]))
    payload = []
    for layers in stack.weights:
        for W, Wbar in layers:
            payload.append(np.ascontiguousarray(W, dtype="<f8").tobytes())
            if Wbar is not None:
                payload.append(np.ascontiguousarray(Wbar, dtype="<f8").tobytes())
    with open(path, "wb") as f:
        f.write(b"".join(header) + b"".join(payload))


def load_stack(path) -> ProximalStack:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < len(MAGIC) + 16 or blob[: len(MAGIC)] != MAGIC:
        raise DatasetHeaderError("not a SUNW1 weight container")
    off = len(MAGIC)
    mode_u, sym_u, T, K = struct.unpack_from("<4I", blob, off)
    off += 16
    if mode_u not in (0, 1):
        raise DatasetHeaderError(f"weight container mode word must be 0 or 1, got {mode_u}")
    if sym_u not in (0, 1):
        raise DatasetHeaderError(f"weight container symmetric flag must be 0 or 1, got {sym_u}")
    if T < 1 or K < 1:
        raise DatasetHeaderError(f"weight container needs T >= 1 and K >= 1, got T={T}, K={K}")
    shapes = []
    for _ in range(K):
        if off + 8 > len(blob):
            raise DatasetTruncatedError("weight container header truncated")
        l_k, n_k = struct.unpack_from("<2I", blob, off)
        off += 8
        shapes.append((l_k, n_k))
    n = shapes[0][1]
    if n < 1 or any(n_k != n for _, n_k in shapes):
        raise DatasetHeaderError(
            f"weight container layers must share one n >= 1, got {[n_k for _, n_k in shapes]}"
        )
    mode = "ws" if mode_u == 0 else "wc"
    symmetric = bool(sym_u)
    reps = 1 if mode == "ws" else T
    its = []
    for _ in range(reps):
        layers = []
        for l_k, n_k in shapes:
            count = l_k * n_k
            mats = []
            for _ in range(1 if symmetric else 2):
                end = off + 8 * count
                if end > len(blob):
                    raise DatasetTruncatedError("weight payload truncated")
                mats.append(
                    np.frombuffer(blob, dtype="<f8", count=count, offset=off)
                    .reshape(l_k, n_k)
                    .copy()
                )
                off = end
            layers.append((mats[0], mats[1] if not symmetric else None))
        its.append(tuple(layers))
    if off != len(blob):
        raise DatasetHeaderError("trailing bytes after declared weight payload")
    return ProximalStack(n=n, T=T, mode=mode, symmetric=symmetric, weights=tuple(its))
