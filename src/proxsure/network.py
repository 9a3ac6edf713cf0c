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
from .operators import SensingOperator, StepParams, _check_len, apply_operator, step_matrices

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


# Rows per slab of a batched product; see `_product`.
SLAB = 128


def _product(a, M):
    """a @ M for a batch a (B, k) of more than SLAB rows, multiplied as
    SLAB-row slabs: one batched matmul over them and one for the
    remaining rows.

    At 1,024 x 32 @ 32 x 32 on one OpenBLAS thread a product costs about
    34 ns per row in calls of at most 768 rows and 55 ns per row from
    1,024, but only against a C-contiguous M: slabs against the view W.T
    gain nothing. `unroll` passes such copies for the batches it slabs."""
    B = len(a)
    whole = B - B % SLAB
    out = np.empty((B, M.shape[1]))
    np.matmul(a[:whole].reshape(-1, SLAB, a.shape[1]), M, out=out[:whole].reshape(-1, SLAB, M.shape[1]))
    if whole < B:
        np.matmul(a[whole:], M, out=out[whole:])
    return out


def _unit(h, W, Wbar, D=None, forward_only=False, pre=None, mul=np.dot):
    """One residual unit; returns (h', D, a) with a = D * (Wbar h) the
    ReLU output that the backward pass reuses. D is the given mask, or
    1{Wbar h > 0} when None. A forward_only call builds no mask: it
    returns D None and applies ReLU as max(a, 0), which gives the same h'
    bit for bit wherever the pre-activations are finite. pre is the
    right factor of the pre-activation product, (W or Wbar).T by default,
    and mul multiplies: np.dot, or `_product` for a slabbed batch.

    a is written into the pre-activation buffer and h' into the a @ W
    product, so a call allocates only the arrays it returns; h is read,
    never written."""
    a = mul(h, (W if Wbar is None else Wbar).T if pre is None else pre)
    if forward_only:
        np.maximum(a, 0.0, out=a)
    else:
        if D is None:
            D = a > 0.0
        np.multiply(a, D, out=a)
    p = mul(a, W)
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

    A batch of at most SLAB rows is multiplied with one np.dot per
    product (the BLAS call of np.matmul without its dispatch); a larger
    one through `_product`, in slabs against C-contiguous copies of W.T,
    Wbar.T, G_x.T and G_y.T made once per call. The rule depends on B
    alone, so every pass at a given B multiplies alike.

    On the identity x^0 is y itself, not a copy (with apply_operator's
    length check), so no pass may write into y or the record's arrays.
    """
    if op.kind == "identity":
        _check_len(y, op.m, "identity adjoint input")
        x = y
    else:
        x = apply_operator(op, y, "adjoint")
    rec = [] if record else None
    slabbed = y.ndim == 2 and len(y) > SLAB
    mul = _product if slabbed else np.dot

    def right(M):  # M.T; one C-contiguous copy per call for a slabbed batch
        return np.ascontiguousarray(M.T) if slabbed else M.T

    if G_x is not None:
        G_x, G_y = right(G_x), right(G_y)
    weights = [[(W, Wbar, right(W if Wbar is None else Wbar)) for W, Wbar in layers]
               for layers in stack.weights]
    for t in range(stack.T):
        if G_x is None:
            h = x
        else:
            h = mul(x, G_x)
            h += mul(y, G_y)
        units = []
        for k, (W, Wbar, pre) in enumerate(weights[0 if stack.mode == "ws" else t]):
            h_next, D, a = _unit(h, W, Wbar, None if masks is None else masks[t][k],
                                 forward_only=masks is None and not record, pre=pre, mul=mul)
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
