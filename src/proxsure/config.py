"""Experiment configuration: flat key = value text with dotted keys.

Values are parsed as JSON fragments (numbers, strings, booleans,
lists); '#' starts a comment. Every key is validated against the schema
below, errors carry the field path and line number, and a parsed config
echoes back to canonical text that re-parses to an equal config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

from .errors import ConfigError


@dataclass
class ExperimentConfig:
    # operator
    operator_kind: str = "identity"
    operator_kernel: list = field(default_factory=list)
    operator_omega: list = field(default_factory=list)
    operator_matrix: list = field(default_factory=list)
    # noise: unit-scale sigmas; sigma_pixel (if given) records the raw values
    sigma: list = field(default_factory=lambda: [0.1])
    sigma_pixel: list = field(default_factory=list)
    # data
    n: int = 32
    data_kind: str = "subspace"
    data_rank: int = 4
    data_dict_size: int = 64
    data_sparsity: int = 3
    n_train_grid: list = field(default_factory=lambda: [16, 64, 256])
    n_test: int = 256
    # model
    model_hidden: list = field(default_factory=lambda: [64])
    model_iterations: int = 3
    model_mode: list = field(default_factory=lambda: ["ws"])
    model_symmetric: bool = True
    # data-consistency step
    step_kind: str = "gradient"
    step_alpha: float = 0.0
    # optimizer
    opt_lr_grid: list = field(default_factory=lambda: [3e-4, 1e-3, 3e-3])
    opt_epochs: int = 20
    opt_batch: int = 8
    opt_anneal_at: int = -1  # epoch index; -1 disables the x0.1 anneal preset
    opt_max_steps: int = -1  # cap on minibatch steps per lr; -1 means unlimited
    # evaluation
    seeds: list = field(default_factory=lambda: [0])
    dof_estimator: str = "exact"
    dof_probes: int = 256
    path_cap: int = 14
    out: str = "results"

    def modes(self) -> list[str]:
        return list(self.model_mode)

    def mc_probes(self) -> int | None:
        """Monte-Carlo DOF probes per input, or None unless `dof.estimator` is "mc"."""
        return self.dof_probes if self.dof_estimator == "mc" else None


def _number(x, kinds=(int, float)) -> bool:
    return isinstance(x, kinds) and not isinstance(x, bool)


_SCHEMA = {
    "operator.kind": ("operator_kind", str, lambda v: v in ("identity", "dense", "circular", "dft"), "one of identity/dense/circular/dft"),
    "operator.kernel": ("operator_kernel", list, lambda v: all(map(_number, v)), "a flat list of numbers"),
    "operator.omega": ("operator_omega", list, lambda v: all(_number(x, int) for x in v), "a flat list of integers"),
    "operator.matrix": ("operator_matrix", list, lambda v: all(isinstance(r, list) and r and len(r) == len(v[0]) and all(map(_number, r)) for r in v), "equal-length non-empty rows of numbers"),
    "sigma": ("sigma", list, lambda v: len(v) > 0 and all(_number(s) and s > 0 for s in v), "positive number(s)"),
    "sigma_pixel": ("sigma_pixel", list, lambda v: all(_number(s) and s > 0 for s in v), "positive number(s)"),
    "n": ("n", int, lambda v: v >= 1, ">= 1"),
    "data.kind": ("data_kind", str, lambda v: v in ("subspace", "sparse"), "subspace or sparse"),
    "data.rank": ("data_rank", int, lambda v: v >= 1, ">= 1"),
    "data.dict_size": ("data_dict_size", int, lambda v: v >= 1, ">= 1"),
    "data.sparsity": ("data_sparsity", int, lambda v: v >= 1, ">= 1"),
    "n_train_grid": ("n_train_grid", list, lambda v: len(v) > 0 and all(_number(x, int) and x >= 1 for x in v) and all(a < b for a, b in zip(v, v[1:])), "strictly increasing positive integers"),
    "n_test": ("n_test", int, lambda v: v >= 1, ">= 1"),
    "model.hidden": ("model_hidden", list, lambda v: len(v) > 0 and all(_number(x, int) and x >= 1 for x in v), "positive layer widths"),
    "model.iterations": ("model_iterations", int, lambda v: v >= 1, ">= 1"),
    "model.mode": ("model_mode", list, lambda v: len(v) > 0 and all(m in ("ws", "wc") for m in v), "subset of ws/wc"),
    "model.symmetric": ("model_symmetric", bool, None, None),
    "step.kind": ("step_kind", str, lambda v: v in ("gradient", "ls", "deblur"), "one of gradient/ls/deblur"),
    "step.alpha": ("step_alpha", (int, float), _number, "a number"),
    "optimizer.lr_grid": ("opt_lr_grid", list, lambda v: len(v) > 0 and all(_number(x) and x > 0 for x in v), "positive learning rates"),
    "optimizer.epochs": ("opt_epochs", int, lambda v: v >= 1, ">= 1"),
    "optimizer.batch": ("opt_batch", int, lambda v: v >= 1, ">= 1"),
    "optimizer.anneal_at": ("opt_anneal_at", int, None, None),
    "optimizer.max_steps": ("opt_max_steps", int, lambda v: v == -1 or v >= 1, "-1 (unlimited) or >= 1"),
    "seeds": ("seeds", list, lambda v: len(v) > 0 and all(_number(x, int) and x >= 0 for x in v), "non-negative integer seeds"),
    "dof.estimator": ("dof_estimator", str, lambda v: v in ("exact", "mc"), "exact or mc"),
    # input i's probes are one draw from default_rng([seed, i]), distinct
    # at any count; the cap bounds each input's (probes, n) forward batch
    "dof.probes": ("dof_probes", int, lambda v: 1 <= v <= 65536, "between 1 and 65536"),
    "path_cap": ("path_cap", int, lambda v: v >= 1, ">= 1"),
    "out": ("out", str, None, None),
}

_SCALARS_AS_LISTS = {"sigma", "sigma_pixel", "model.mode"}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate configuration text; defaults fill missing keys."""
    cfg = ExperimentConfig()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(line, "expected 'key = value'", lineno)
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in _SCHEMA:
            raise ConfigError(key, "unknown key", lineno)
        if key in seen:
            raise ConfigError(key, "duplicate key", lineno)
        seen.add(key)
        attr, expected_type, check, want = _SCHEMA[key]
        try:
            value = json.loads(value_text)
        except json.JSONDecodeError:
            value = value_text  # bare string
        if key in _SCALARS_AS_LISTS and not isinstance(value, list):
            value = [value]
        if expected_type is int and isinstance(value, bool):
            raise ConfigError(key, "expected an integer", lineno)
        if not isinstance(value, expected_type):
            raise ConfigError(
                key, f"expected {getattr(expected_type, '__name__', expected_type)}", lineno
            )
        if check is not None and not check(value):
            raise ConfigError(key, f"constraint violated: {want}", lineno)
        setattr(cfg, attr, value)
    if "sigma_pixel" in seen and "sigma" not in seen:
        cfg.sigma = [s / 255.0 for s in cfg.sigma_pixel]
    _cross_validate(cfg)
    return cfg


def _cross_validate(cfg: ExperimentConfig) -> None:
    if cfg.data_kind == "subspace" and cfg.data_rank > cfg.n:
        raise ConfigError("data.rank", f"rank {cfg.data_rank} exceeds n = {cfg.n}")
    if cfg.data_kind == "sparse" and cfg.data_sparsity > cfg.data_dict_size:
        raise ConfigError("data.sparsity", "exceeds data.dict_size")
    if cfg.step_kind == "ls" and not 0 <= cfg.step_alpha <= 1:
        raise ConfigError("step.alpha", "mixing step needs 0 <= alpha <= 1")
    if cfg.step_kind == "deblur" and cfg.step_alpha <= 0:
        raise ConfigError("step.alpha", "deblur step needs alpha > 0")
    if cfg.operator_kind == "circular" and not cfg.operator_kernel:
        raise ConfigError("operator.kernel", "circular operator needs a kernel")
    if cfg.operator_kind == "circular" and len(cfg.operator_kernel) > cfg.n:
        raise ConfigError("operator.kernel", f"kernel longer than n = {cfg.n}")
    if cfg.operator_kind == "dft" and not cfg.operator_omega:
        raise ConfigError("operator.omega", "dft operator needs a frequency set")
    if cfg.operator_kind == "dense" and not cfg.operator_matrix:
        raise ConfigError("operator.matrix", "dense operator needs a matrix")
    if cfg.operator_kind == "dense" and len(cfg.operator_matrix[0]) != cfg.n:
        raise ConfigError("operator.matrix", f"matrix needs n = {cfg.n} columns")


_ATTR_TO_KEY = {attr: key for key, (attr, *_rest) in _SCHEMA.items()}


def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical echo: sorted keys, JSON values; re-parses to an equal config."""
    lines = []
    for attr, value in sorted(asdict(cfg).items(), key=lambda kv: _ATTR_TO_KEY[kv[0]]):
        lines.append(f"{_ATTR_TO_KEY[attr]} = {json.dumps(value)}")
    return "\n".join(lines) + "\n"


def build_operator(cfg: ExperimentConfig):
    from . import operators as ops

    if cfg.operator_kind == "identity":
        return ops.identity_operator(cfg.n)
    if cfg.operator_kind == "dense":
        return ops.dense_operator(cfg.operator_matrix)
    if cfg.operator_kind == "circular":
        return ops.circular_operator(cfg.operator_kernel, n=cfg.n)
    return ops.dft_operator(cfg.n, cfg.operator_omega)


def build_dataset(cfg: ExperimentConfig, N: int, seed, offset: int = 0):
    """N samples of the configured data kind (see data.generate_*_data)."""
    from . import data

    if cfg.data_kind == "subspace":
        return data.generate_subspace_data(cfg.n, cfg.data_rank, N, seed=seed, offset=offset)
    return data.generate_sparse_data(
        cfg.n, cfg.data_dict_size, cfg.data_sparsity, N, seed=seed, offset=offset
    )


def build_step(cfg: ExperimentConfig):
    from .operators import StepParams

    return StepParams(cfg.step_kind, float(cfg.step_alpha))
