"""Residual-unit proximal stacks and the unrolled forward pass.

A stack holds, per effective iteration, K residual units h -> h + W^H
relu(Wbar h). In the symmetric case Wbar is tied to W with the unit
acting as h -> (I - W^H D W) h, where the mask D = 1{W h > 0} so the
stage matrix is the exact local Jacobian. ReLU at exactly zero counts
as inactive.

Every pass (training, evaluation, mask recording, replay and the
Jacobian) runs the one kernel `unroll` on the data step's matrices
(G_x, G_y), so they all see the same network bit for bit. Given
recorded masks, `unroll` runs the network with them frozen, which makes
it linear in y: on y it replays x^T, and on the rows of I_m it returns
the transposed Jacobian (d x^T / d y)^T.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, DatasetHeaderError, DatasetTruncatedError
from .operators import SensingOperator, StepParams, apply_operator, step_matrices

MAGIC = b"SUNW1"


def flatten_weights(stack: ProximalStack) -> list[np.ndarray]:
    """The weight layout: iteration-major, layer-major, W then Wbar.

    `ProximalStack.flat` and the SUNW1 payload hold these arrays in this
    order, each row-major.
    """
    return [w for layers in stack.weights for pair in layers for w in pair if w is not None]


@dataclass(frozen=True)
class ProximalStack:
    """Trainable weights of the unrolled network.

    weights[i][k] is the pair (W, Wbar) for effective iteration i and
    layer k; Wbar is None when the stack is symmetric. Weight-sharing
    stacks store one iteration entry reused for all T outer iterations.

    The stack copies the weights it is given into one contiguous float64
    vector, `flat`, in flatten_weights order, and its `weights` are views
    into it: writing `flat` updates every weight in place.
    """

    n: int
    T: int
    mode: str  # "ws" | "wc"
    symmetric: bool
    weights: tuple  # tuple[tuple[(W, Wbar | None), ...], ...]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

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
        arrays = flatten_weights(self)
        flat = np.concatenate([w.ravel() for w in arrays], dtype=np.float64)
        views = iter(np.split(flat, np.cumsum([w.size for w in arrays])[:-1]))
        weights = tuple(
            tuple(tuple(w if w is None else next(views).reshape(w.shape) for w in pair) for pair in layers)
            for layers in self.weights
        )
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "weights", weights)

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


def _unit(h, W, Wbar, D=None, forward_only=False):
    """One residual unit; returns (h', D, a) with a = D * (Wbar h) the
    ReLU output that the backward pass reuses. D is the given mask, or
    1{Wbar h > 0} when None. A forward_only call builds no mask: it
    returns D None and applies ReLU as max(a, 0), which gives the same h'
    bit for bit wherever the pre-activations are finite.

    a is written into the pre-activation buffer and h' into the a @ W
    product, so a call allocates only the arrays it returns; h is read,
    never written."""
    a = h @ (W if Wbar is None else Wbar).T
    if forward_only:
        np.maximum(a, 0.0, out=a)
    else:
        if D is None:
            D = a > 0.0
        np.multiply(a, D, out=a)
    p = a @ W
    return (np.subtract(h, p, out=p) if Wbar is None else np.add(h, p, out=p)), D, a


def unroll(y, stack: ProximalStack, op: SensingOperator, G_x, G_y, record: bool = False,
           masks=None):
    """The forward kernel: x^0 = Phi^H y, then per iteration the data step
    s = G_x x + G_y y followed by the residual units.

    y is (m,) or a batch (B, m); (G_x, G_y) come from step_matrices,
    and (None, None) means the data step is the identity map s = x.
    masks, when given, freezes unit k at iteration t to the mask
    masks[t][k] (the layout unroll_forward records) for every row of y.
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
        for k, (W, Wbar) in enumerate(stack.layer_weights(t)):
            h_next, D, a = _unit(h, W, Wbar, None if masks is None else masks[t][k],
                                 forward_only=masks is None and not record)
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
    iteration t: the layout `unroll(..., masks=...)` takes to replay
    x^T or to give the Jacobian.
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


def forward_map(stack: ProximalStack, op: SensingOperator, step: StepParams):
    """End-to-end map y -> x^T as a plain callable (batched on the last axis)."""
    G_x, G_y = step_matrices(op, step)

    def h(y):
        return unroll(np.asarray(y, dtype=np.float64), stack, op, G_x, G_y)[0]

    return h


def save_stack(stack: ProximalStack, path) -> None:
    """Write the SUNW1 weight container.

    Layout: magic "SUNW1"; little-endian u32 mode (0 ws / 1 wc), u32
    symmetric flag, u32 T, u32 K; per layer u32 l_k, u32 n_k; then the
    payload `stack.flat` as little-endian float64.
    """
    header = [MAGIC, struct.pack("<4I", 0 if stack.mode == "ws" else 1,
                                 1 if stack.symmetric else 0, stack.T, stack.K)]
    header += [struct.pack("<2I", l_k, stack.n) for l_k in stack.widths()]
    with open(path, "wb") as f:
        f.write(b"".join(header) + stack.flat.astype("<f8", copy=False).tobytes())


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
    if off + 8 * K > len(blob):
        raise DatasetTruncatedError("weight container header truncated")
    shapes = [struct.unpack_from("<2I", blob, off + 8 * k) for k in range(K)]
    off += 8 * K
    n = shapes[0][1]
    if n < 1 or any(n_k != n for _, n_k in shapes):
        raise DatasetHeaderError(
            f"weight container layers must share one n >= 1, got {[n_k for _, n_k in shapes]}"
        )
    mode = "ws" if mode_u == 0 else "wc"
    symmetric = bool(sym_u)
    reps = 1 if mode == "ws" else T
    size = reps * (1 if symmetric else 2) * sum(l_k * n_k for l_k, n_k in shapes)
    if off + 8 * size > len(blob):
        raise DatasetTruncatedError("weight payload truncated")
    if off + 8 * size != len(blob):
        raise DatasetHeaderError("trailing bytes after declared weight payload")
    # W and Wbar of a layer share one shape, so zeros of the layer shapes
    # lay out the stack, and the payload then fills its flat vector
    layers = tuple((np.zeros(s), None if symmetric else np.zeros(s)) for s in shapes)
    stack = ProximalStack(n=n, T=T, mode=mode, symmetric=symmetric, weights=(layers,) * reps)
    stack.flat[:] = np.frombuffer(blob, dtype="<f8", offset=off)
    return stack
