import csv
import json
import os
import threading

import pytest

from proxsure import cli, sweep
from proxsure.config import parse_config
from proxsure.errors import ProxsureError
from proxsure.network import random_stack, save_stack
from proxsure.sweep import COLUMNS, report_plots, run_sweep

TINY_CONFIG = """\
n = 8
data.rank = 2
sigma = 0.2
n_train_grid = [8]
n_test = 8
model.hidden = [4]
model.iterations = 2
model.mode = ["ws"]
optimizer.epochs = 2
optimizer.lr_grid = [0.003]
seeds = [0]
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(TINY_CONFIG)
    return path


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_single_cell_sweep(tmp_path, tiny_cfg):
    cfg = parse_config(tiny_cfg.read_text())
    csv_path = run_sweep(cfg, tmp_path / "out")
    rows = read_csv(csv_path)
    assert len(rows) == 1
    assert list(rows[0].keys()) == COLUMNS
    assert rows[0]["status"] == "ok"
    assert float(rows[0]["dof_exact_mean"]) > 0


def test_sweep_determinism_and_resume(tmp_path, tiny_cfg):
    cfg = parse_config(tiny_cfg.read_text())
    a = run_sweep(cfg, tmp_path / "a")
    b = run_sweep(cfg, tmp_path / "b")
    assert open(a, "rb").read() == open(b, "rb").read()
    # resume: re-run over existing cells leaves identical artifacts
    first = open(a, "rb").read()
    run_sweep(cfg, tmp_path / "a")
    assert open(a, "rb").read() == first


def test_sweep_emits_schema_and_summary(tmp_path, tiny_cfg):
    cfg = parse_config(tiny_cfg.read_text())
    out = tmp_path / "out"
    run_sweep(cfg, out)
    schema = json.loads((out / "schema.json").read_text())
    assert schema["columns"] == COLUMNS
    assert set(schema["docs"]) == set(COLUMNS)
    summary = json.loads((out / "summary.json").read_text())
    (key,) = summary.keys()
    assert "mean" in summary[key]["test_mse"]
    echoed = parse_config((out / "config.echo").read_text())
    assert echoed == cfg


def test_training_failure_recorded_in_row(tmp_path):
    cfg = parse_config(TINY_CONFIG.replace("[0.003]", "[1e60]"))
    csv_path = run_sweep(cfg, tmp_path / "out")
    rows = read_csv(csv_path)
    assert rows[0]["status"] == "training-failure"


def test_report_plots(tmp_path, tiny_cfg):
    cfg = parse_config(tiny_cfg.read_text())
    csv_path = run_sweep(cfg, tmp_path / "out")
    outputs = report_plots(csv_path, tmp_path / "figs")
    assert len(outputs) == 3
    rows = read_csv(outputs[0])
    assert rows and set(rows[0]) == {"n_train", "mode", "sigma", "value"}


def test_report_plots_averages_over_seeds_within_each_sigma(tmp_path):
    sweep_csv = tmp_path / "sweep.csv"
    sweep_csv.write_text(
        "seed,mode,sigma,n_train,psnr,rss_mean,dof_exact_mean\n"
        "0,ws,0.1,8,10.0,1.0,4.0\n"
        "1,ws,0.1,8,12.0,3.0,6.0\n"
        "0,ws,0.2,8,4.0,5.0,2.0\n"
        "1,ws,0.2,8,8.0,7.0,nan\n"
    )
    figs = dict(zip(("psnr", "rss_mean", "dof_exact_mean"), report_plots(sweep_csv, tmp_path / "figs")))
    values = {q: {row["sigma"]: float(row["value"]) for row in read_csv(path)} for q, path in figs.items()}
    assert values == {
        "psnr": {"0.1": 11.0, "0.2": 6.0},
        "rss_mean": {"0.1": 2.0, "0.2": 6.0},
        "dof_exact_mean": {"0.1": 5.0, "0.2": 2.0},
    }


def test_report_plots_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("seed,mode\n")
    with pytest.raises(ProxsureError):
        report_plots(empty, tmp_path)
    missing = tmp_path / "missing.csv"
    missing.write_text("seed,mode\n0,ws\n")
    with pytest.raises(ProxsureError) as err:
        report_plots(missing, tmp_path)
    assert "psnr" in str(err.value)


def test_parallel_matches_serial(tmp_path, tiny_cfg):
    text = tiny_cfg.read_text().replace('["ws"]', '["ws", "wc"]')
    cfg = parse_config(text)
    serial = run_sweep(cfg, tmp_path / "serial", workers=1)
    parallel = run_sweep(cfg, tmp_path / "parallel", workers=4)
    assert open(serial, "rb").read() == open(parallel, "rb").read()


@pytest.fixture
def cell_calls(monkeypatch):
    """Record (thread, mode, sigma, n_train, seed) of every run_cell call."""
    calls = []
    run_cell = sweep.run_cell

    def recording(cfg, mode, sigma, n_train, seed):
        calls.append((threading.get_ident(), mode, sigma, n_train, seed))
        return run_cell(cfg, mode, sigma, n_train, seed)

    monkeypatch.setattr(sweep, "run_cell", recording)
    return calls


def test_sweep_runs_cells_in_order_on_calling_thread(tmp_path, tiny_cfg, cell_calls):
    text = tiny_cfg.read_text().replace('["ws"]', '["ws", "wc"]').replace("[0]", "[0, 1]")
    run_sweep(parse_config(text), tmp_path / "out", workers=4)
    me = threading.get_ident()
    assert cell_calls == [
        (me, "ws", 0.2, 8, 0),
        (me, "ws", 0.2, 8, 1),
        (me, "wc", 0.2, 8, 0),
        (me, "wc", 0.2, 8, 1),
    ]


def test_sweep_builds_each_split_once_and_shares_it_across_modes(
    tmp_path, tiny_cfg, cell_calls, monkeypatch
):
    import gc
    import weakref

    from proxsure import data

    text = tiny_cfg.read_text().replace("n_train_grid = [8]", "n_train_grid = [8, 12]")
    text = text.replace("seeds = [0]", "seeds = [0, 1]")
    singles = {}
    for mode in ("ws", "wc"):
        out = tmp_path / mode
        run_sweep(parse_config(text.replace('["ws"]', f'["{mode}"]')), out)
        singles[mode] = ((out / "sweep.csv").read_text().splitlines(keepends=True),
                         json.loads((out / "summary.json").read_text()))
    cell_calls.clear()

    generated, noised, returned = [], [], []
    generate, add_noise, cell_split = data.generate_subspace_data, data.add_noise, sweep.cell_split

    def counting_generate(n, r, N, seed=0, offset=0):
        generated.append((N, seed, offset))
        return generate(n, r, N, seed=seed, offset=offset)

    def counting_add_noise(x, sigma, seed=0):
        noised.append((len(x), seed))
        return add_noise(x, sigma, seed=seed)

    def recording_split(*args, **kwargs):
        clean, y = cell_split(*args, **kwargs)
        returned.append((weakref.ref(clean.samples), weakref.ref(y),
                         clean.samples.flags.writeable, y.flags.writeable))
        return clean, y

    monkeypatch.setattr(data, "generate_subspace_data", counting_generate)
    monkeypatch.setattr(data, "add_noise", counting_add_noise)
    monkeypatch.setattr(sweep, "cell_split", recording_split)
    out = tmp_path / "both"
    run_sweep(parse_config(text.replace('["ws"]', '["ws", "wc"]')), out)

    me = threading.get_ident()
    assert cell_calls == [
        (me, mode, 0.2, N, seed) for mode in ("ws", "wc") for N in (8, 12) for seed in (0, 1)
    ]
    test_offset = data.TEST_OFFSET
    assert sorted(generated) == sorted(
        [(N, (seed, 10), 0) for N in (8, 12) for seed in (0, 1)]
        + [(8, (seed, 10), test_offset) for seed in (0, 1)]
    )
    assert sorted(noised) == sorted(
        [(N, (seed, 12)) for N in (8, 12) for seed in (0, 1)] + [(8, (seed, 13)) for seed in (0, 1)]
    )
    # each of the 8 cells asks for a train and a test split
    assert len(returned) == 16
    assert not any(flag for *_, clean_w, y_w in returned for flag in (clean_w, y_w))

    # the two-mode sweep's artifacts are the two one-mode sweeps' merged
    header, *wc_rows = singles["wc"][0]
    assert singles["ws"][0][0] == header
    assert (out / "sweep.csv").read_text() == "".join([header, *wc_rows, *singles["ws"][0][1:]])
    summary = {**singles["wc"][1], **singles["ws"][1]}
    assert (out / "summary.json").read_text() == json.dumps(summary, sort_keys=True, indent=1)

    # no split outlives the sweep
    gc.collect()
    assert sweep._shared_splits.get() is None
    assert all(ref() is None for clean, y, *_ in returned for ref in (clean, y))


def test_sweep_that_raises_partway_holds_no_split(tmp_path, tiny_cfg, monkeypatch):
    import gc
    import weakref

    built, cell_split, run_cell = [], sweep.cell_split, sweep.run_cell

    def recording_split(*args, **kwargs):
        clean, y = cell_split(*args, **kwargs)
        built.append((weakref.ref(clean.samples), weakref.ref(y)))
        return clean, y

    def failing_cell(cfg, mode, *args):
        if mode == "wc":
            raise RuntimeError("cell failed")
        return run_cell(cfg, mode, *args)

    monkeypatch.setattr(sweep, "cell_split", recording_split)
    monkeypatch.setattr(sweep, "run_cell", failing_cell)
    text = tiny_cfg.read_text().replace('["ws"]', '["ws", "wc"]').replace("[0]", "[0, 1]")
    with pytest.raises(RuntimeError, match="cell failed"):
        run_sweep(parse_config(text), tmp_path / "out")

    assert len(built) == 4  # the two ws cells' train and test splits
    gc.collect()
    assert sweep._shared_splits.get() is None
    assert all(ref() is None for refs in built for ref in refs)


def test_summary_counts_finite_values_and_averages_the_surrogate_only_where_valid(
    tmp_path, tiny_cfg, monkeypatch
):
    import math

    nan = math.nan
    cells = {
        0: dict(test_mse=1.0, dof_surrogate=2.0, theorem1_bound=0.5, eps_valid=True),
        1: dict(test_mse=3.0, dof_surrogate=-17.0, theorem1_bound=6e5, eps_valid=False),
        2: dict(status="training-failure"),
    }

    def fake_cell(cfg, mode, sigma, n_train, seed):
        row = {c: nan for c in COLUMNS}
        row.update(seed=seed, mode=mode, sigma=sigma, n_train=n_train, status="ok")
        row.update(cells[seed])
        return row

    monkeypatch.setattr(sweep, "run_cell", fake_cell)
    out = tmp_path / "out"
    rows = read_csv(run_sweep(parse_config(tiny_cfg.read_text().replace("[0]", "[0, 1, 2]")), out))
    assert [r["dof_surrogate"] for r in rows] == ["2.0", "-17.0", "nan"]

    summary = json.loads((out / "summary.json").read_text())["ws|0.2|8"]
    assert summary["test_mse"] == {"count": 2, "mean": 2.0, "std_error": 1.0}
    assert summary["eps_valid"] == {"count": 2, "mean": 0.5, "std_error": 0.5}
    assert summary["dof_surrogate"] == {"count": 1, "mean": 2.0, "std_error": None}
    assert summary["theorem1_bound"] == {"count": 1, "mean": 0.5, "std_error": None}
    assert summary["rss_mean"] == {"count": 0, "mean": "nan", "std_error": None}
    assert "sigma" not in summary and "n_train" not in summary


def test_resume_recomputes_cells_of_another_config(tmp_path, tiny_cfg):
    cfg = parse_config(tiny_cfg.read_text())
    other = parse_config(tiny_cfg.read_text().replace("optimizer.epochs = 2", "optimizer.epochs = 3"))
    stale = run_sweep(cfg, tmp_path / "a")
    old_bytes = open(stale, "rb").read()
    resumed = run_sweep(other, tmp_path / "a")
    fresh = run_sweep(other, tmp_path / "b")
    assert open(fresh, "rb").read() != old_bytes
    assert open(resumed, "rb").read() == open(fresh, "rb").read()


def test_resume_same_config_runs_no_cell(tmp_path, tiny_cfg, cell_calls):
    cfg = parse_config(tiny_cfg.read_text().replace('["ws"]', '["ws", "wc"]'))
    first = open(run_sweep(cfg, tmp_path / "out"), "rb").read()
    cell_calls.clear()
    assert open(run_sweep(cfg, tmp_path / "out"), "rb").read() == first
    assert cell_calls == []


def test_resume_reuses_cells_when_grid_grows_or_out_is_respelled(tmp_path, tiny_cfg, cell_calls):
    cfg = parse_config(tiny_cfg.read_text())
    cfg.out = str(tmp_path / "a")
    run_sweep(cfg, cfg.out)
    grown = parse_config(tiny_cfg.read_text().replace("seeds = [0]", "seeds = [0, 1]"))
    grown.out = cfg.out + os.sep
    fresh = open(run_sweep(grown, tmp_path / "b"), "rb").read()
    cell_calls.clear()
    assert open(run_sweep(grown, grown.out), "rb").read() == fresh
    assert [c[1:] for c in cell_calls] == [("ws", 0.2, 8, 1)]


def test_resume_recomputes_cell_whose_sigma_shares_its_file_name(tmp_path, tiny_cfg, cell_calls):
    # cell file names print sigma with %g, so 0.2000001 and 0.2000002 share one
    cfg = parse_config(tiny_cfg.read_text().replace("sigma = 0.2", "sigma = 0.2000001"))
    run_sweep(cfg, tmp_path / "out")
    near = parse_config(tiny_cfg.read_text().replace("sigma = 0.2", "sigma = 0.2000002"))
    cell_calls.clear()
    run_sweep(near, tmp_path / "out")
    assert [c[1:] for c in cell_calls] == [("ws", 0.2000002, 8, 0)]


def test_resume_recomputes_cell_file_that_lacks_a_column(tmp_path, tiny_cfg, cell_calls):
    cfg = parse_config(tiny_cfg.read_text())
    out = tmp_path / "out"
    first = open(run_sweep(cfg, out), "rb").read()
    (cell_file,) = out.glob("cell_*.json")
    row = json.loads(cell_file.read_text())
    del row["eps_valid"]
    cell_file.write_text(json.dumps(row, sort_keys=True))
    cell_calls.clear()
    assert open(run_sweep(cfg, out), "rb").read() == first
    assert [c[1:] for c in cell_calls] == [("ws", 0.2, 8, 0)]


@pytest.mark.parametrize("spoil", [lambda text: "[1, 2]", lambda text: text[: len(text) // 2]],
                         ids=["json-list", "truncated"])
def test_resume_recomputes_cell_file_that_is_not_a_json_object(tmp_path, tiny_cfg, cell_calls, spoil):
    cfg = parse_config(tiny_cfg.read_text())
    out = tmp_path / "out"
    run_sweep(cfg, out)
    os.remove(out / "timings.csv")
    fresh = {p.name: p.read_bytes() for p in out.iterdir()}
    (cell_file,) = out.glob("cell_*.json")
    cell_file.write_text(spoil(cell_file.read_text()))
    cell_calls.clear()
    run_sweep(cfg, out)
    assert [c[1:] for c in cell_calls] == [("ws", 0.2, 8, 0)]
    os.remove(out / "timings.csv")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == fresh


TREND_SIZED_CONFIG = """\
n = 32
data.rank = 4
sigma = 0.1
n_train_grid = [16]
n_test = 16
model.iterations = 3
model.mode = ["ws", "wc"]
optimizer.epochs = 2
optimizer.lr_grid = [0.001]
"""


@pytest.mark.parametrize("hidden,valid", [(64, False), (2, True)])
def test_eps_valid_marks_cells_where_theorem1_applies(tmp_path, hidden, valid):
    """l = 64 rows of W in n = 32 dimensions cannot be near-orthogonal,
    so epsilon >= 1; l = 2 rows stay within the theorem."""
    cfg = parse_config(TREND_SIZED_CONFIG + f"model.hidden = [{hidden}]\n")
    rows = read_csv(run_sweep(cfg, tmp_path / "out"))
    ws, wc = (next(r for r in rows if r["mode"] == m) for m in ("ws", "wc"))
    assert ws["eps_valid"] == str(valid)
    assert (float(ws["epsilon"]) < 1) == valid
    assert wc["eps_valid"] == "nan"  # no surrogate for a wc stack
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["ws|0.1|16"]["eps_valid"]["mean"] == float(valid)
    # one seed: no spread; an invalid surrogate and bound are not averaged
    for col in ("dof_surrogate", "theorem1_bound"):
        mean = float(ws[col]) if valid else "nan"
        assert summary["ws|0.1|16"][col] == {"count": int(valid), "mean": mean, "std_error": None}


@pytest.mark.parametrize("hidden,valid", [(64, False), (2, True)])
def test_cli_jacobian_report_prints_whether_theorem1_applies(tmp_path, capsys, hidden, valid):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(TREND_SIZED_CONFIG + f"model.hidden = [{hidden}]\n")
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    weights = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["weights"]
    y = json.dumps([0.1 * ((-1) ** i) * (i % 5) for i in range(32)])
    assert cli.main(["jacobian-report", weights, y, "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is valid
    assert (report["epsilon"] < 1) == valid


# --- CLI ------------------------------------------------------------------


def test_cli_generate_data_roundtrip(tmp_path, tiny_cfg):
    from proxsure.data import load_dataset

    out = tmp_path / "ds.bin"
    rc = cli.main(["generate-data", str(out), "--config", str(tiny_cfg), "--count", "12"])
    assert rc == 0
    ds = load_dataset(out)
    assert ds.N == 12 and ds.n == 8


def test_cli_train_then_evaluate(tmp_path, tiny_cfg, capsys):
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", str(tiny_cfg), "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert os.path.exists(summary["weights"])
    rc = cli.main(["evaluate", summary["weights"], "--config", str(tiny_cfg)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[0])
    assert report["n_test"] == 8
    assert "sure_mean" in report


def test_evaluate_psnr_mean_averages_per_input_psnrs_and_sweep_psnr_is_of_the_mean_mse(
    tmp_path, tiny_cfg, capsys
):
    """The same net on the same test split: `proxsure train` and the
    one-cell sweep train the (ws, sigma, N, seed 0) cell alike."""
    import math

    import numpy as np

    (row,) = read_csv(run_sweep(parse_config(tiny_cfg.read_text()), tmp_path / "sweep"))
    assert float(row["psnr"]) == -10.0 * math.log10(float(row["test_mse"]))

    assert cli.main(["train", "--config", str(tiny_cfg), "--out", str(tmp_path / "run")]) == 0
    weights = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["weights"]
    assert cli.main(["evaluate", weights, "--config", str(tiny_cfg), "--per-input"]) == 0
    mean, *per_input = map(json.loads, capsys.readouterr().out.strip().splitlines())
    psnrs = [-10.0 * math.log10(r["mse_vs_truth"]) for r in per_input]
    assert [r["psnr"] for r in per_input] == psnrs
    assert mean["psnr_mean"] == float(np.mean(psnrs))
    assert mean["mse_mean"] == pytest.approx(float(row["test_mse"]), rel=1e-12)
    # by Jensen's inequality the mean of the PSNRs exceeds the PSNR of the mean
    assert mean["psnr_mean"] > float(row["psnr"])
    # evaluate applies the sweep's path_cap, so the Theorem 1 values agree
    theorem1 = ("mu_w", "rho_max", "epsilon", "dof_surrogate", "theorem1_bound", "eps_valid")
    assert {k: sweep._fmt(mean[k]) for k in theorem1} == {k: row[k] for k in theorem1}


def test_cli_sweep_and_report(tmp_path, tiny_cfg, capsys):
    rc = cli.main(["sweep", "--config", str(tiny_cfg), "--out", str(tmp_path / "s")])
    assert rc == 0
    csv_path = capsys.readouterr().out.strip()
    rc = cli.main(["report", csv_path, "--out", str(tmp_path / "figs")])
    assert rc == 0


def test_cli_verify_pass_and_report_shape(capsys):
    rc = cli.main(["verify", "theorem1", "--trials", "5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert set(payload) >= {"command", "trials", "max_violation", "tolerance", "pass"}
    assert payload["pass"] is True


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("sigma = -1\n")
    assert cli.main(["sweep", "--config", str(bad)]) == 1


def test_cli_usage_error_exit_code():
    assert cli.main(["verify", "not-a-check"]) == 1
    assert cli.main(["no-such-command"]) == 1


def test_cli_verify_failure_exit_code(monkeypatch):
    from proxsure import verify as vmod
    from proxsure.verify import VerifyReport

    def failing(**kwargs):
        return VerifyReport("theorem1", 1, 1.0, 0.0, False)

    monkeypatch.setitem(cli.VERIFY_COMMANDS, "theorem1", failing)
    assert cli.main(["verify", "theorem1"]) == 2


def test_cli_runtime_error_exit_code(tmp_path, tiny_cfg):
    missing = tmp_path / "nope.bin"
    assert cli.main(["evaluate", str(missing), "--config", str(tiny_cfg)]) == 1


@pytest.mark.parametrize("text", ["[1,2", '{"y": [1]}', "[[1, 2]]", '[1, "2"]', "[true]", "3"])
def test_cli_jacobian_report_input_that_is_not_a_list_of_numbers_is_usage_error(
    tmp_path, tiny_cfg, capsys, text
):
    weights = tmp_path / "w.bin"
    save_stack(random_stack(8, [4], T=2), weights)
    assert cli.main(["jacobian-report", str(weights), text, "--config", str(tiny_cfg)]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "jacobian-report"])
def test_cli_weights_of_another_n_is_a_runtime_error_naming_both(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(TINY_CONFIG.replace("n = 8", "n = 6"))
    weights = tmp_path / "w.bin"
    save_stack(random_stack(8, [4], T=2), weights)
    argv = [command, str(weights)] + (["[0, 0, 0, 0, 0, 0]"] if command == "jacobian-report" else [])
    assert cli.main(argv + ["--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "the config's n: expected length 6, got 8" in err and "matmul" not in err


def test_cli_spectrum(tmp_path, capsys):
    kern = tmp_path / "k.json"
    kern.write_text("[[[1.0]]]")
    rc = cli.main(["spectrum", str(kern), "--pad", "8", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.strip())
    # flat delta spectrum: disk holds 5/64 of the energy at pad 8
    assert payload["low_frequency_ratio"] == pytest.approx(5 / 64)
    assert os.path.exists(payload["grid"])


# --- one evaluation pass per cell and per evaluate --------------------------

import math  # noqa: E402

DFT_CONFIG = TINY_CONFIG + 'operator.kind = "dft"\noperator.omega = [1]\n'
CIRCULAR_CONFIG = TINY_CONFIG + 'operator.kind = "circular"\noperator.kernel = [0.6, 0.25, 0.15]\n'


@pytest.mark.parametrize("estimator", ["exact", "mc"])
def test_run_cell_builds_step_matrices_once_to_train_and_once_to_evaluate(monkeypatch, estimator):
    # the Monte-Carlo DOF probes the network with the evaluation's matrices
    import sys

    from proxsure import operators

    original = operators.step_matrices
    calls = []

    def counting(op, step):
        calls.append(op.kind)
        return original(op, step)

    for name, module in list(sys.modules.items()):
        if name.startswith("proxsure") and getattr(module, "step_matrices", None) is original:
            monkeypatch.setattr(module, "step_matrices", counting)
    cfg = parse_config(TINY_CONFIG + f'dof.estimator = "{estimator}"\ndof.probes = 4\n')
    row = sweep.run_cell(cfg, "ws", 0.2, 8, 0)
    assert row["status"] == "ok"
    assert math.isfinite(row["dof_mc_mean"]) == (estimator == "mc")
    assert len(calls) == 2


def test_circular_sweep_reports_dof_but_no_sure(tmp_path):
    rows = read_csv(run_sweep(parse_config(CIRCULAR_CONFIG), tmp_path / "out"))
    assert rows[0]["status"] == "ok"
    assert math.isnan(float(rows[0]["sure_mean"]))
    assert math.isfinite(float(rows[0]["dof_exact_mean"]))
    assert math.isfinite(float(rows[0]["rss_mean"]))
    # the path expansion is not this network's Jacobian: no surrogate
    for col in ("mu_w", "rho_max", "epsilon", "dof_surrogate", "theorem1_bound", "eps_valid"):
        assert rows[0][col] == "nan"


@pytest.mark.parametrize("extra", [
    'data.kind = "sparse"\ndata.dict_size = 16\ndata.sparsity = 2\n',
    'operator.kind = "dense"\noperator.matrix = ' + json.dumps(
        [[1.0 if i == j else 0.1 for j in range(8)] for i in range(6)]) + "\n",
], ids=["sparse-data", "dense-operator"])
def test_one_cell_sweep_on_sparse_data_and_a_dense_operator(tmp_path, extra):
    (row,) = read_csv(run_sweep(parse_config(TINY_CONFIG + extra), tmp_path / "out"))
    assert row["status"] == "ok"
    assert math.isfinite(float(row["test_mse"])) and math.isfinite(float(row["rss_mean"]))


def test_cli_train_then_evaluate_with_m_not_n(tmp_path, capsys):
    cfg = tmp_path / "dft.txt"
    cfg.write_text(DFT_CONFIG)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    weights = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["weights"]
    assert cli.main(["evaluate", weights, "--config", str(cfg), "--per-input"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[0])
    assert summary["n_test"] == 8 and summary["sure_mean"] is None
    assert "dof_exact_mean" not in summary and math.isfinite(summary["rss_mean"])
    per_input = [json.loads(line) for line in lines[1:]]
    assert len(per_input) == 8
    assert all(r["sure"] is None and r["dof_exact"] is None for r in per_input)
    # n is the signal length (m = 4 here), and no DOF means no primary DOF
    assert all(r["n"] == 8 and r["primary_dof"] is None for r in per_input)


def test_cli_evaluate_reports_sure_only_for_identity(tmp_path, tiny_cfg, capsys):
    means = {}
    for name, text in (("identity", TINY_CONFIG), ("circular", CIRCULAR_CONFIG)):
        cfg = tmp_path / f"{name}.txt"
        cfg.write_text(text)
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        weights = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["weights"]
        assert cli.main(["evaluate", weights, "--config", str(cfg)]) == 0
        means[name] = json.loads(capsys.readouterr().out.strip().splitlines()[0])
    assert math.isfinite(means["identity"]["sure_mean"])
    assert means["circular"]["sure_mean"] is None
    assert math.isfinite(means["circular"]["dof_exact_mean"])


def test_cli_verify_trials_on_command_without_trials_is_usage_error(capsys):
    assert cli.main(["verify", "lemma2", "--trials", "2"]) == 1
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["lemma3", "--trials", "0"], "--trials"),
    (["theorem1", "--trials", "-3"], "--trials"),
    (["theorem1", "--seed", "-1"], "--seed"),
])
def test_cli_verify_trials_below_one_or_negative_seed_is_usage_error(capsys, argv, flag):
    assert cli.main(["verify", *argv]) == 1
    out = capsys.readouterr()
    assert out.out == "" and flag in out.err


def test_cli_verify_forwards_seed_by_signature(monkeypatch):
    from proxsure.verify import VerifyReport

    seen = {}

    def fake_sure_unbiased(n=64, sigma=0.1, draws=2000, rank=6, seed=0):
        seen["seed"] = seed
        return VerifyReport("sure-unbiased", 1, 0.0, 1.0, True)

    monkeypatch.setitem(cli.VERIFY_COMMANDS, "sure-unbiased", fake_sure_unbiased)
    assert cli.main(["verify", "sure-unbiased", "--seed", "3"]) == 0
    assert seen == {"seed": 3}


def test_run_cell_seeds_each_inputs_probes_by_cell_seed_and_index(monkeypatch):
    # an XOR-combined seed such as seed ^ (i << 16) would give cell seed
    # 65536 input 0 the probes of cell seed 0 input 1
    seeds = []
    from proxsure import risk

    original = risk.dof_monte_carlo

    def recording(h, y, K, **kwargs):
        seeds.append(kwargs["seed"])
        return original(h, y, K, **kwargs)

    monkeypatch.setattr(risk, "dof_monte_carlo", recording)
    cfg = parse_config(TINY_CONFIG + 'dof.estimator = "mc"\ndof.probes = 4\n')
    for seed in (0, 65536):
        row = sweep.run_cell(cfg, "ws", 0.2, 8, seed)
        assert row["status"] == "ok" and math.isfinite(row["dof_mc_mean"])
    assert seeds == [[seed, i] for seed in (0, 65536) for i in range(cfg.n_test)]


def test_verify_jacobian_builds_step_matrices_once_per_use_per_configuration(monkeypatch):
    import sys

    from proxsure import operators, verify

    original = operators.step_matrices
    calls = []

    def counting(op, step):
        calls.append(op.kind)
        return original(op, step)

    for name, module in list(sys.modules.items()):
        if name.startswith("proxsure") and getattr(module, "step_matrices", None) is original:
            monkeypatch.setattr(module, "step_matrices", counting)
    report = verify.verify_jacobian(trials=3)
    assert report.passed
    # 24 configurations, each: sampling its inputs, evaluate_set, forward_map
    assert len(calls) == 24 * 3


def test_cli_negative_seed_is_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("seeds = [-1]\n")
    assert cli.main(["sweep", "--config", str(bad), "--out", str(tmp_path / "s")]) == 1
    assert "seeds" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_cli_evaluate_honours_the_mc_estimator(tmp_path, capsys):
    import numpy as np

    from proxsure.config import build_operator, build_step
    from proxsure.network import forward_map, load_stack
    from proxsure.risk import dof_monte_carlo

    text = TINY_CONFIG + 'dof.estimator = "mc"\ndof.probes = 16\n'
    cfg_path = tmp_path / "mc.txt"
    cfg_path.write_text(text)
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    weights = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["weights"]
    assert cli.main(["evaluate", weights, "--config", str(cfg_path), "--per-input"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    summary, per_input = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]

    # input i's probes are seeded [seed, i], as in run_cell
    cfg = parse_config(text)
    op = build_operator(cfg)
    _, y_test = sweep.cell_split(cfg, op, cfg.sigma[0], cfg.n_test, cfg.seeds[0], test=True)
    h = forward_map(load_stack(weights), op, build_step(cfg))
    want = [dof_monte_carlo(h, y, 16, seed=[cfg.seeds[0], i]) for i, y in enumerate(y_test)]
    assert [(r["dof_mc"], r["mc_std_error"], r["mc_probes"]) for r in per_input] == [
        (estimate, se, 16) for estimate, se in want
    ]
    assert summary["dof_mc_mean"] == float(np.mean([estimate for estimate, _ in want]))
    assert all(r["n"] == 8 and r["primary_dof"] == "exact" for r in per_input)

    (tmp_path / "exact.txt").write_text(TINY_CONFIG)
    assert cli.main(["evaluate", weights, "--config", str(tmp_path / "exact.txt")]) == 0
    assert "dof_mc_mean" not in json.loads(capsys.readouterr().out.strip().splitlines()[0])


def test_cli_fd_estimator_is_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "fd.txt"
    bad.write_text(TINY_CONFIG + 'dof.estimator = "fd"\n')
    assert cli.main(["evaluate", str(tmp_path / "weights.bin"), "--config", str(bad)]) == 1
    assert "dof.estimator" in capsys.readouterr().err


def test_run_cell_mc_estimator_skips_a_non_square_jacobian():
    # the probe divergence needs h(y) and y of one size, as the exact DOF does
    cfg = parse_config(DFT_CONFIG + 'dof.estimator = "mc"\ndof.probes = 4\n')
    row = sweep.run_cell(cfg, "ws", 0.2, 8, 0)
    assert row["status"] == "ok" and math.isnan(row["dof_mc_mean"])
    assert math.isnan(row["dof_exact_mean"])


def test_cli_jacobian_report_prints_the_report_of_the_input(tmp_path, tiny_cfg, capsys):
    import numpy as np

    from proxsure.config import build_operator, build_step
    from proxsure.jacobian import jacobian_report
    from proxsure.network import load_stack, unroll_forward

    assert cli.main(["train", "--config", str(tiny_cfg), "--out", str(tmp_path / "run")]) == 0
    weights = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["weights"]
    y = [0.3, -0.2, 0.5, 0.1, 0.0, -0.4, 0.2, 0.7]
    assert cli.main(["jacobian-report", weights, json.dumps(y), "--config", str(tiny_cfg)]) == 0
    out = capsys.readouterr().out

    cfg = parse_config(TINY_CONFIG)
    stack, op, step = load_stack(weights), build_operator(cfg), build_step(cfg)
    _, masks = unroll_forward(np.array(y), stack, op, step, record=True)
    assert out == jacobian_report(masks, stack, op, step, max_T=cfg.path_cap).to_json() + "\n"


def test_cli_jacobian_report_on_an_overflowing_net_is_one_runtime_error_line(tmp_path, tiny_cfg, capsys):
    import warnings

    from reference import stack_with_weights

    # weights of size 1e60 on an input of size 1e-70: the forward stays
    # finite, while the Jacobian and the 3-hop path overflow
    stack = random_stack(8, [4], T=3, seed=0)
    weights = tmp_path / "w.bin"
    save_stack(stack_with_weights(stack, [1e60 * stack.weights[0][0][0]]), weights)
    y = json.dumps([1e-70] * 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["jacobian-report", str(weights), y, "--config", str(tiny_cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "runtime error: non-finite Jacobian report: trace, 1 of 7 path traces, 1 of 7 path sparsities, surrogate"
    ]


def test_cli_jacobian_report_on_wc_net_is_runtime_error(tmp_path, capsys):
    cfg = tmp_path / "wc.txt"
    cfg.write_text(TINY_CONFIG.replace('model.mode = ["ws"]', 'model.mode = ["wc"]'))
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    weights = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["weights"]
    assert cli.main(["jacobian-report", weights, json.dumps([0.1] * 8), "--config", str(cfg)]) == 3
    assert "runtime error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    CIRCULAR_CONFIG,
    TINY_CONFIG + 'step.alpha = 0.5\n',
], ids=["circular", "identity-gradient-step"])
def test_cli_jacobian_report_where_paths_are_not_the_jacobian_is_runtime_error(tmp_path, capsys, text):
    # the expansion's prod_t (I - W^T D_t W) is the Jacobian only on the
    # identity operator with the data step skipped
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    weights = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["weights"]
    assert cli.main(["jacobian-report", weights, json.dumps([0.1] * 8), "--config", str(cfg)]) == 3
    assert "identity operator" in capsys.readouterr().err


def test_cli_verify_out_writes_the_printed_report(tmp_path, capsys):
    out = tmp_path / "reports"
    assert cli.main(["verify", "theorem1", "--trials", "5", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert (out / "verify_theorem1.json").read_text() + "\n" == printed


@pytest.mark.parametrize("line,key", [
    ("optimizer.max_steps = 0", "optimizer.max_steps"),
    ('operator.kind = "circular"\noperator.kernel = [[0.5, 0.5], [0, 0]]', "operator.kernel"),
    ('operator.kind = "circular"\noperator.kernel = ["a", 1]', "operator.kernel"),
    ('operator.kind = "dft"\noperator.omega = ["a"]', "operator.omega"),
    ('operator.kind = "dft"\noperator.omega = [true]', "operator.omega"),
    ('operator.kind = "dense"\noperator.matrix = [[1, 2], [3]]', "operator.matrix"),
    ('operator.kind = "dense"\noperator.matrix = [[1, 0], [0, 1]]', "operator.matrix"),
], ids=["max-steps-0", "nested-kernel", "string-kernel", "string-omega", "bool-omega",
        "ragged-matrix", "matrix-of-2-columns"])
def test_cli_config_values_that_failed_at_run_time_are_config_errors(tmp_path, capsys, line, key):
    bad = tmp_path / "bad.txt"
    bad.write_text(TINY_CONFIG + line + "\n")
    assert cli.main(["sweep", "--config", str(bad), "--out", str(tmp_path / "s")]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


# --- a non-finite evaluation ------------------------------------------------


def test_cli_evaluate_on_an_overflowing_net_is_one_runtime_error_line(tmp_path, capsys):
    import warnings

    from reference import stack_with_weights

    cfg = tmp_path / "cfg.txt"
    cfg.write_text(TINY_CONFIG.replace("n_test = 8", "n_test = 4"))
    stack = random_stack(8, [4], T=3, seed=0)
    weights = tmp_path / "w.bin"
    save_stack(stack_with_weights(stack, [1e60 * stack.weights[0][0][0]]), weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["evaluate", str(weights), "--config", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "runtime error: non-finite set evaluation: "
        "32 of 32 outputs, 4 of 4 rss, 4 of 4 DOF, 4 of 4 SURE, 4 of 4 surrogates"
    ]


def test_evaluation_failure_recorded_in_row(tmp_path, monkeypatch):
    train_cell = sweep.train_cell

    def overflowing(*args):
        result, *rest = train_cell(*args)
        result.stack.flat[:] *= 1e60
        return (result, *rest)

    monkeypatch.setattr(sweep, "train_cell", overflowing)
    rows = read_csv(run_sweep(parse_config(TINY_CONFIG), tmp_path / "out"))
    assert rows[0]["status"] == "evaluation-failure"
    assert all(rows[0][c] == "nan" for c in COLUMNS[5:])


def test_importing_proxsure_loads_no_hashlib():
    # hashlib loads OpenSSL; only a sweep's cell hash needs it
    import subprocess
    import sys

    code = "import sys, proxsure, proxsure.cli; print('hashlib' in sys.modules)"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
