"""Command-line front end.

Exit codes: 0 success, 1 usage/config error, 2 verification failure,
3 runtime/numerical failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import os
import sys

import numpy as np

from . import data as datamod
from .config import ExperimentConfig, _number, build_dataset, build_operator, build_step, parse_config
from .errors import ConfigError, DimensionMismatchError, ProxsureError
from .jacobian import jacobian_report
from .jsonout import strict_dumps
from .network import load_stack, save_stack, unroll_forward
from .risk import SureReport, evaluate_set, mse_psnr
from .spectrum import spectrum, spectrum_csv
from .sweep import cell_split, report_plots, run_sweep, train_cell
from .verify import COMMANDS as VERIFY_COMMANDS

log = logging.getLogger("proxsure")


def _load_config(args) -> ExperimentConfig:
    if args.config is None:
        cfg = ExperimentConfig()
    else:
        with open(args.config) as f:
            cfg = parse_config(f.read())
    if args.seed is not None:
        cfg.seeds = [args.seed]
    if args.out is not None:
        cfg.out = args.out
    return cfg


def _load_net(args):
    """(config, stack, operator, step) of a command that runs a saved
    stack; the stack's n must be the operator's."""
    cfg = _load_config(args)
    stack = load_stack(args.weights)
    op = build_operator(cfg)
    if stack.n != op.n:
        raise DimensionMismatchError(f"n of {args.weights} against the config's n", op.n, stack.n)
    return cfg, stack, op, build_step(cfg)


def _cmd_generate_data(args) -> int:
    cfg = _load_config(args)
    dataset = build_dataset(cfg, args.count, cfg.seeds[0])
    os.makedirs(os.path.dirname(args.path) or ".", exist_ok=True)
    datamod.save_dataset(dataset, args.path)
    log.info("wrote %d samples to %s", dataset.N, args.path)
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    result = train_cell(cfg, cfg.modes()[0], cfg.sigma[0], cfg.n_train_grid[-1], cfg.seeds[0])[0]
    os.makedirs(cfg.out, exist_ok=True)
    weights_path = os.path.join(cfg.out, "weights.bin")
    save_stack(result.stack, weights_path)
    summary = {
        "lr": result.lr,
        "epochs": result.epochs,
        "final_train_loss": result.train_loss[-1],
        "final_test_mse": result.test_mse[-1],
        "diverged_lrs": result.diverged_lrs,
        "weights": weights_path,
    }
    line = strict_dumps(summary, sort_keys=True)
    with open(os.path.join(cfg.out, "train.json"), "w") as f:
        f.write(line)
    print(line)
    return 0


def _cmd_evaluate(args) -> int:
    cfg, stack, op, step = _load_net(args)
    sigma, probes = cfg.sigma[0], cfg.mc_probes()
    test_set, y_test = cell_split(cfg, op, sigma, cfg.n_test, cfg.seeds[0], test=True)
    ev = evaluate_set(stack, op, step, y_test, sigma, max_T=cfg.path_cap,
                      mc_probes=probes, mc_seed=cfg.seeds[0])
    reports = []
    for i, (xhat, x) in enumerate(zip(ev.xhat, test_set.samples)):
        report = SureReport(n=op.n, sigma=sigma, rss=float(ev.rss[i]),
                            output_norm=float(np.linalg.norm(xhat)),
                            primary_dof=None if ev.dof is None else "exact")
        if ev.dof is not None:
            report.dof_exact = float(ev.dof[i])
        if ev.dof_mc is not None:
            report.dof_mc, report.mc_std_error = float(ev.dof_mc[i]), float(ev.mc_std_error[i])
            report.mc_probes = probes
        if ev.sure is not None:
            report.sure = float(ev.sure[i])
        report.mse_vs_truth, report.psnr = mse_psnr(xhat, x)
        reports.append(report)
    mean = {
        "n_test": len(reports),
        "sigma": sigma,
        "sure_mean": None,  # null unless evaluate_set computed SURE
        **ev.columns(),
        "mse_mean": float(np.mean([r.mse_vs_truth for r in reports])),
        "psnr_mean": float(np.mean([r.psnr for r in reports])),
    }
    print(strict_dumps(mean, sort_keys=True))
    if args.per_input:
        for r in reports:
            print(r.to_json())
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    csv_path = run_sweep(cfg, cfg.out)
    print(csv_path)
    return 0


def _cmd_verify(args) -> int:
    fn = VERIFY_COMMANDS[args.check]
    kwargs = {k: v for k, v in (("trials", args.trials), ("seed", args.seed)) if v is not None}
    params = inspect.signature(fn).parameters
    unknown = [k for k in kwargs if k not in params]
    if unknown:
        print(f"usage error: verify {args.check} takes no --{unknown[0]}", file=sys.stderr)
        return 1
    for flag, low in (("trials", 1), ("seed", 0)):
        if kwargs.get(flag, low) < low:
            print(f"usage error: verify --{flag} must be >= {low}", file=sys.stderr)
            return 1
    report = fn(**kwargs)
    print(report.to_json())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, f"verify_{args.check}.json"), "w") as f:
            f.write(report.to_json())
    return 0 if report.passed else 2


def _cmd_jacobian_report(args) -> int:
    try:
        y = json.loads(args.input)
    except json.JSONDecodeError:
        y = None
    if not isinstance(y, list) or not all(map(_number, y)):
        print("usage error: jacobian-report input must be a JSON array of finite numbers", file=sys.stderr)
        return 1
    cfg, stack, op, step = _load_net(args)
    _, masks = unroll_forward(y, stack, op, step, record=True)
    print(jacobian_report(masks, stack, op, step, max_T=cfg.path_cap).to_json())
    return 0


def _cmd_spectrum(args) -> int:
    with open(args.kernels) as f:
        kernels = json.load(f)
    grid, label, ratio = spectrum(kernels, args.pad)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    grid_path = os.path.join(out_dir, "spectrum.csv")
    with open(grid_path, "w") as f:
        f.write(spectrum_csv(grid))
    print(strict_dumps(
        {"classification": label, "low_frequency_ratio": ratio,
         "pad": args.pad, "grid": grid_path},
        sort_keys=True,
    ))
    return 0


def _cmd_report(args) -> int:
    outputs = report_plots(args.csv, args.out or os.path.dirname(args.csv) or ".")
    for path in outputs:
        print(path)
    return 0


def positive_int(text: str) -> int:
    """An integer flag that must be >= 1; below that argparse reports a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxsure",
        description="Unrolled proximal networks with SURE-based risk analysis.",
    )
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    common.add_argument("--seed", type=int, help="override the config seed list")
    common.add_argument("--out", help="output directory")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", parents=[common], help="write a dataset container")
    p.add_argument("path", help="output .bin path")
    p.add_argument("--count", type=positive_int, default=256, help="number of samples")
    p.set_defaults(fn=_cmd_generate_data)

    p = sub.add_parser("train", parents=[common], help="train one cell and save weights")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("evaluate", parents=[common], help="SURE decomposition on the test set")
    p.add_argument("weights", help="SUNW1 weight container")
    p.add_argument("--per-input", action="store_true", help="also print per-input reports")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("sweep", parents=[common], help="run the full experiment grid")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("verify", parents=[common], help="numerical theory checks")
    p.add_argument("check", choices=sorted(VERIFY_COMMANDS))
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("jacobian-report", parents=[common],
                       help="path expansion for one input")
    p.add_argument("weights")
    p.add_argument("input", help="JSON array, the measurement vector")
    p.set_defaults(fn=_cmd_jacobian_report)

    p = sub.add_parser("spectrum", parents=[common], help="filter bank spectrum analysis")
    p.add_argument("kernels", help="JSON file: list of 2-D kernel arrays")
    p.add_argument("--pad", type=positive_int, default=64)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("report", parents=[common], help="reshape a sweep CSV for plotting")
    p.add_argument("csv")
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    logging.basicConfig(level=args.log_level.upper())
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ProxsureError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
