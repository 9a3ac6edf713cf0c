"""Test-only helpers over the package's kernels: one residual unit with
its input checks, and the replay of a recorded forward pass through the
frozen-mask stages."""

import numpy as np

from proxsure.errors import DimensionMismatchError
from proxsure.network import ForwardTrace, ProximalStack, _unit, frozen_mask_pass
from proxsure.operators import SensingOperator, StepParams, apply_operator, step_matrices


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
    trace: ForwardTrace,
    stack: ProximalStack,
    op: SensingOperator,
    step: StepParams,
    y,
) -> np.ndarray:
    """Rebuild x^T from the recorded masks via pseudo-linear stage products."""
    y = np.asarray(y, dtype=np.float64)
    x0 = apply_operator(op, y, "adjoint")
    return frozen_mask_pass(trace.masks, stack, *step_matrices(op, step), x0, y)
