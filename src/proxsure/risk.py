"""SURE risk decomposition: RSS, degrees of freedom, and reference MSE.

For Gaussian denoising y = x + v with known sigma,
SURE(y) = -n sigma^2 + ||h(y) - y||^2 + 2 sigma^2 * div_y h(y)
is an unbiased estimate of the test MSE. The divergence (DOF) comes
from the exact Jacobian trace, coordinate finite differences, or a
seeded Monte-Carlo probe estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import _seed_seq, seeded_rng
from .errors import DimensionMismatchError, NonFiniteError
from .jacobian import _check_finite, expansion_error, jacobian_trace_exact, path_surrogates, theorem1_bound
from .jsonout import strict_dumps
from .network import ProximalStack, unroll
from .operators import SensingOperator, StepParams, apply_operator, step_matrices


def rss(y, xhat) -> float:
    """Squared distance between the network output and its noisy input."""
    y = np.asarray(y, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if y.shape != xhat.shape:
        raise DimensionMismatchError("rss", y.shape[-1], xhat.shape[-1])
    return float(np.sum((xhat - y) ** 2))


def _output(h, y):
    """h(y), shaped like y: a divergence needs a square Jacobian."""
    out = np.asarray(h(y))
    if out.shape != y.shape:
        raise DimensionMismatchError("divergence of h: shape of h(y)", y.shape, out.shape)
    return out


def dof_finite_difference(h, y) -> float:
    """Coordinate divergence sum_i [h(y + d e_i)_i - h(y)_i] / d with
    the step d = 1e-6 * (1 + max|y|).

    Exact for linear maps; n + 1 forward passes, batched.
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[-1]
    delta = 1e-6 * (1.0 + float(np.max(np.abs(y))))
    base = _output(h, y)
    shifted = h(y[None, :] + delta * np.eye(n))
    diag = np.diagonal(shifted) - base
    if not np.all(np.isfinite(diag)):
        bad = int(np.flatnonzero(~np.isfinite(diag))[0])
        raise NonFiniteError(f"non-finite output at coordinate {bad}")
    return float(np.sum(diag) / delta)


def default_mc_delta(y) -> float:
    # larger than the fd step so probes stay within one linear region
    # with high probability relative to their norm
    return 1e-4 * (1.0 + float(np.max(np.abs(y))))


def dof_monte_carlo(
    h,
    y,
    K: int,
    delta: float | None = None,
    seed: int | list[int] = 0,
):
    """Probe estimator (1/K) sum_k e_k^T [h(y + d e_k) - h(y)] / d.

    The probes e_k are Rademacher (+-1): the rows of one (K, n) draw from
    default_rng(seed) (an int or a sequence of ints, which
    `data.seeded_rng` turns into that generator). The draw is
    prefix-stable: probe k is the same for every K > k. Returns
    (estimate, standard error); one probe has no spread, so its standard
    error is nan.
    """
    if K < 1:
        raise ValueError("need at least one probe")
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[-1]
    base = _output(h, y)
    if delta is None:
        delta = default_mc_delta(y)
    rng = seeded_rng(*_seed_seq(seed))
    probes = rng.integers(0, 2, size=(K, n)) * 2.0
    probes -= 1.0
    shifted = delta * probes
    shifted += y
    diffs = np.subtract(h(shifted), base)  # a fresh array: h may return shifted
    diffs /= delta
    if not np.all(np.isfinite(diffs)):
        raise NonFiniteError("non-finite output during Monte-Carlo probing")
    samples = np.einsum("ki,ki->k", probes, diffs)
    estimate = float(samples.mean())
    std_error = float(samples.std(ddof=1) / math.sqrt(K)) if K > 1 else math.nan
    return estimate, std_error


def sure(rss_value: float, dof: float, n: int, sigma: float) -> float:
    """-n sigma^2 + RSS + 2 sigma^2 DOF."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return -n * sigma**2 + rss_value + 2.0 * sigma**2 * dof


def mse_psnr(xhat, x_true):
    """Per-coordinate MSE and PSNR = -10 log10(MSE); zero MSE maps to +inf."""
    xhat = np.asarray(xhat, dtype=np.float64)
    x_true = np.asarray(x_true, dtype=np.float64)
    if xhat.shape != x_true.shape:
        raise DimensionMismatchError("mse", x_true.shape[-1], xhat.shape[-1])
    mse = float(np.mean((xhat - x_true) ** 2))
    psnr = math.inf if mse == 0.0 else -10.0 * math.log10(mse)
    return mse, psnr


@dataclass
class SureReport:
    """RSS, DOF estimates, SURE, and the ground-truth reference for one input."""

    n: int
    sigma: float
    rss: float
    dof_exact: float | None = None
    dof_fd: float | None = None
    dof_mc: float | None = None
    mc_std_error: float | None = None
    mc_probes: int | None = None
    primary_dof: str | None = "exact"  # None when no DOF applies
    sure: float = math.nan
    mse_vs_truth: float | None = None
    psnr: float | None = None
    output_norm: float | None = None  # ||x^T||, reported instead of renormalizing
    # RSS/SURE use un-normalized sums; MSE/PSNR use the per-coordinate mean.
    rss_normalization: str = "sum"
    mse_normalization: str = "mean"

    def to_json(self) -> str:
        return strict_dumps(self.__dict__, sort_keys=True)


def sure_report(
    h,
    y,
    sigma: float,
    J=None,
    x_true=None,
    mc_probes: int | None = None,
    mc_seed: int = 0,
) -> SureReport:
    """Evaluate the full SURE decomposition for one input; its DOF is
    tr J when J is given, else finite differences (see primary_dof)."""
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[-1]
    xhat = h(y)
    report = SureReport(n=n, sigma=sigma, rss=rss(y, xhat))
    report.output_norm = float(np.linalg.norm(xhat))
    if J is not None:
        report.dof_exact = dof = jacobian_trace_exact(J)
    else:
        report.dof_fd = dof = dof_finite_difference(h, y)
        report.primary_dof = "fd"
    if mc_probes:
        report.dof_mc, report.mc_std_error = dof_monte_carlo(
            h, y, mc_probes, seed=mc_seed
        )
        report.mc_probes = mc_probes
    report.sure = sure(report.rss, dof, n, sigma)
    if x_true is not None:
        report.mse_vs_truth, report.psnr = mse_psnr(xhat, x_true)
    return report


@dataclass
class SetEvaluation:
    """Outputs and risk terms of a network on B inputs; None and nan
    mark what does not apply to the set (see evaluate_set)."""

    xhat: np.ndarray  # (B, n)
    rss: np.ndarray  # (B,), against y, or Phi^H y when m != n
    dof: np.ndarray | None = None  # exact Jacobian traces
    dof_mc: np.ndarray | None = None  # Monte-Carlo DOF estimates
    mc_std_error: np.ndarray | None = None  # their standard errors
    sure: np.ndarray | None = None
    surrogate: np.ndarray | None = None  # path-sparsity sums
    mu: float = math.nan
    rho_max: float = math.nan  # largest mean per-iteration activation count
    epsilon: float = math.nan  # mu * rho_max^(3/2)
    bound: float = math.nan  # Theorem 1's bound at epsilon
    eps_valid: bool | None = None  # epsilon < 1: Theorem 1's hypothesis holds

    def columns(self) -> dict:
        """The set-level values that were computed, named as sweep columns."""
        means = {"rss_mean": self.rss, "dof_exact_mean": self.dof, "dof_mc_mean": self.dof_mc,
                 "sure_mean": self.sure, "dof_surrogate": self.surrogate}
        out = {name: float(np.mean(v)) for name, v in means.items() if v is not None}
        if self.surrogate is not None:
            out.update(mu_w=self.mu, rho_max=self.rho_max, epsilon=self.epsilon,
                       theorem1_bound=self.bound, eps_valid=self.eps_valid)
        return out


def evaluate_set(
    stack: ProximalStack,
    op: SensingOperator,
    step: StepParams,
    Y,
    sigma: float | None = None,
    max_T: int | None = None,
    mc_probes: int | None = None,
    mc_seed: int = 0,
) -> SetEvaluation:
    """Evaluate the network on the rows of Y (B, m; one (m,) input is
    one row) in one batched recorded forward; input i's DOF is the trace
    of its Jacobian: `unroll` on I_m with its recorded masks frozen.

    DOF needs a square Jacobian (m == n), and so does the Monte-Carlo DOF
    with mc_probes probes per input, input i's drawn from
    default_rng([mc_seed, i]). SURE needs sigma and the identity
    operator: it is unbiased only for y = x + v. The path surrogate and
    `theorem1_bound`'s values need max_T and a net without an `expansion_error`:
    one whose Jacobian is the expansion's prod_t (I - W^T D_t W).

    Raises NonFiniteError, naming them, where the values computed are not
    finite, except Theorem 1's bound and the Monte-Carlo standard error of
    one probe, which may be infinite or nan by rule. The Monte-Carlo DOF
    is drawn only where the outputs and the exact DOF are finite; an
    input whose probes overflow gets a nan estimate and standard error,
    which the check counts.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if Y.ndim != 2 or Y.shape[1] != op.m:
        raise DimensionMismatchError("measurement set", op.m, Y.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        G_x, G_y = step_matrices(op, step)
        xhat, rec = unroll(Y, stack, op, G_x, G_y, record=True)
        target = Y if op.m == op.n else apply_operator(op, Y, "adjoint")
        ev = SetEvaluation(xhat, np.sum((xhat - target) ** 2, axis=1))
        if op.m == op.n:
            masks = [[[D[i] for _, D, _ in units] for _, units in rec] for i in range(len(Y))]
            eye = np.eye(op.m)
            ev.dof = np.array(
                [jacobian_trace_exact(unroll(eye, stack, op, G_x, G_y, masks=m)[0]) for m in masks]
            )
            if mc_probes and np.isfinite(xhat).all() and np.isfinite(ev.dof).all():
                h = lambda v: unroll(v, stack, op, G_x, G_y)[0]
                mc = np.full((len(Y), 2), np.nan)  # an input whose probes overflow stays nan
                for i, y in enumerate(Y):
                    try:
                        mc[i] = dof_monte_carlo(h, y, mc_probes, seed=[mc_seed, i])
                    except NonFiniteError:
                        pass
                ev.dof_mc, ev.mc_std_error = mc.T
            if sigma is not None and op.kind == "identity":
                ev.sure = sure(ev.rss, ev.dof, op.n, sigma)
        # a net without an expansion_error is on the identity, so m == n
        if max_T is not None and expansion_error(stack, max_T, op, step) is None:
            d = np.stack([units[0][1] for _, units in rec], axis=1)  # (B, T, l) masks
            ev.surrogate, rho, ev.mu = path_surrogates(stack.weights[0][0][0], d, stack.n)
            ev.rho_max, ev.epsilon, ev.bound, ev.eps_valid = theorem1_bound(ev.mu, rho)
    _check_finite("set evaluation", {
        "outputs": ev.xhat, "rss": ev.rss, "DOF": ev.dof, "Monte-Carlo DOF": ev.dof_mc,
        "Monte-Carlo standard errors": ev.mc_std_error if mc_probes and mc_probes > 1 else None,
        "SURE": ev.sure, "surrogates": ev.surrogate,
        **({"mu": ev.mu, "rho_max": ev.rho_max, "epsilon": ev.epsilon} if ev.surrogate is not None else {}),
    })
    return ev
