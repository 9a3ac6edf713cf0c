"""Span tracing of proxsure's layers from outside the package.

`Tracer` wraps every public function of each layer module and rebinds
every name that refers to it, in every loaded proxsure module and in
module-level dicts such as `verify.COMMANDS`. A name imported with
`from .operators import step_matrices` is a separate binding in the
importing module; rebinding only `proxsure.operators` would silently
miss those calls.

Each call records one span (function, start, end, parent span, thread)
plus an optional work count taken at the boundary (rows, probes, path
terms, samples, shapes). Spans stay in memory until `write`. A layer's
self time is the duration of its spans minus the time their direct
child spans cover, so time spent in another layer is not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
import types
from collections import defaultdict

from workloads import step_budget

LAYERS = ("operators", "network", "jacobian", "risk", "data", "train", "sweep", "verify")


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _rows(a) -> int:
    return 1 if a.ndim == 1 else a.shape[0]


def _count_train(fn):
    """(step budget, learning-rate runs, diverged runs) of one train() call."""
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        runs = len(a["lr_grid"])
        steps = step_budget(len(a["x_train"]), a["lr_grid"], a["epochs"], a["batch"], a["max_steps"])
        diverged = runs if result is None else len(result.diverged_lrs)
        return (steps, runs, diverged)

    return count


def _count_loss(args, kwargs, result):
    """Shapes that fix the matmul flops of one loss_and_gradients call."""
    stack, y, op = _arg(args, kwargs, 0, "stack"), _arg(args, kwargs, 2, "y"), _arg(args, kwargs, 3, "op")
    return (_rows(y), stack.n, op.m, stack.T, stack.widths())


# Work counted at the boundary of selected functions, keyed "layer.function".
COUNTERS = {
    "network.unroll_forward": lambda a, k, r: _rows(_arg(a, k, 0, "y")),
    "risk.dof_monte_carlo": lambda a, k, r: _arg(a, k, 2, "K"),
    "jacobian.path_expansion": lambda a, k, r: 0 if r is None else len(r),
    "data.generate_subspace_data": lambda a, k, r: 0 if r is None else r.N,
    "data.generate_sparse_data": lambda a, k, r: 0 if r is None else r.N,
    "data.add_noise": lambda a, k, r: 0 if r is None else _rows(r),
    "train.loss_and_gradients": _count_loss,
}


def loss_flops(rows, n, m, T, widths) -> int:
    """Matmul flops of one loss_and_gradients call, from argument shapes.

    Per iteration: the data step x G_x^T + y G_y^T forward and g G_x
    backward (2Bn^2 + 2Bnm + 2Bn^2), and per residual unit two matmuls
    forward and four backward, each 2Bnl.
    """
    return T * (4 * rows * n * n + 2 * rows * n * m + sum(12 * rows * n * l for l in widths))


class Tracer:
    """Context manager that traces calls into every layer while active."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _wrap(self, qualname: str, fn, count):
        fid = len(self.names)
        self.names.append(qualname)
        spans, ids, local = self.spans, self._ids, self._local
        clock, thread_id = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                work = count(args, kwargs, result) if count is not None else None
                spans.append((sid, fid, start, end, parent, thread_id(), work))

        return traced

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"proxsure.{layer}")
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != module.__name__
                ):
                    continue
                qualname = f"{layer}.{attr}"
                count = _count_train(obj) if qualname == "train.train" else COUNTERS.get(qualname)
                wrappers[obj] = self._wrap(qualname, obj, count)
        for name, module in list(sys.modules.items()):
            if name != "proxsure" and not name.startswith("proxsure."):
                continue
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._restore.append((vars(module), attr, obj))
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if isinstance(value, types.FunctionType) and value in wrappers:
                            obj[key] = wrappers[value]
                            self._restore.append((obj, key, value))
        return self

    def __exit__(self, *exc):
        for namespace, key, original in reversed(self._restore):
            namespace[key] = original
        self._restore.clear()
        return False

    # --- aggregation ----------------------------------------------------

    def per_function(self) -> dict:
        """qualname -> {calls, incl_ns, self_ns, work: list}."""
        child_ns = defaultdict(int)
        for sid, fid, start, end, parent, tid, work in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats = {}
        for sid, fid, start, end, parent, tid, work in self.spans:
            s = stats.setdefault(self.names[fid], {"calls": 0, "incl_ns": 0, "self_ns": 0, "work": []})
            s["calls"] += 1
            s["incl_ns"] += end - start
            s["self_ns"] += end - start - child_ns[sid]
            if work is not None:
                s["work"].append(work)
        return stats

    def layer_metrics(self) -> dict:
        """Per-layer metrics that come from the spans alone."""
        fns = self.per_function()
        empty = {"calls": 0, "incl_ns": 0, "self_ns": 0, "work": []}

        def fn(qualname):
            return fns.get(qualname, empty)

        out = {}
        for layer in LAYERS:
            mine = [s for q, s in fns.items() if q.split(".", 1)[0] == layer]
            out[f"{layer}.self_s"] = sum(s["self_ns"] for s in mine) / 1e9
            out[f"{layer}.calls"] = sum(s["calls"] for s in mine)
        out["operators.step_matrices.calls"] = fn("operators.step_matrices")["calls"]

        forwards = fn("network.unroll_forward")
        out["network.rows"] = sum(forwards["work"])
        out["network.rows_per_call"] = out["network.rows"] / forwards["calls"] if forwards["calls"] else 0.0

        out["jacobian.path_terms"] = sum(fn("jacobian.path_expansion")["work"])

        mc = fn("risk.dof_monte_carlo")
        out["risk.mc_probes"] = sum(mc["work"])
        out["risk.us_per_probe"] = mc["self_ns"] / 1e3 / out["risk.mc_probes"] if out["risk.mc_probes"] else 0.0

        out["data.samples"] = sum(
            sum(fn(q)["work"])
            for q in ("data.generate_subspace_data", "data.generate_sparse_data", "data.add_noise")
        )

        loss = fn("train.loss_and_gradients")
        out["train.loss_and_gradients.calls"] = loss["calls"]
        out["train.loss_and_gradients.self_s"] = loss["self_ns"] / 1e9
        out["train.adam_step.self_s"] = fn("train.adam_step")["self_ns"] / 1e9
        flops = sum(loss_flops(*shape) for shape in loss["work"])
        out["train.gflop_per_s"] = flops / loss["incl_ns"] if loss["incl_ns"] else 0.0
        train_runs = fn("train.train")["work"]
        runs = sum(r for _, r, _ in train_runs)
        out["train.diverged_ratio"] = sum(d for _, _, d in train_runs) / runs if runs else 0.0

        out["sweep.cells"] = fn("sweep.run_cell")["calls"]
        return out

    def write(self, path) -> None:
        """Write the names table and every span as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(json.dumps({"names": self.names, "fields": [
                "span", "function", "start_ns", "end_ns", "parent", "thread", "work"]}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

    def train_step_budget(self) -> int:
        """Minibatch steps the traced train() calls were asked for."""
        return sum(steps for steps, _, _ in self.per_function().get("train.train", {"work": []})["work"])
