import pytest

from proxsure import cli
from proxsure.config import ExperimentConfig, config_to_text, parse_config
from proxsure.errors import ConfigError


def test_defaults_fill_missing_keys():
    cfg = parse_config("n = 8\n")
    assert cfg.n == 8
    assert cfg.model_iterations == 3
    assert cfg.sigma == [0.1]


def test_negative_sigma_names_field():
    with pytest.raises(ConfigError) as err:
        parse_config("sigma = -1\n")
    assert "sigma" in str(err.value)


def test_unknown_key_with_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("n = 8\nbogus = 1\n")
    assert "bogus" in str(err.value)
    assert "2" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("n = 8\nn = 9\n")


def test_type_mismatch():
    with pytest.raises(ConfigError):
        parse_config("n = [1, 2]\n")
    with pytest.raises(ConfigError):
        parse_config("model.symmetric = 3\n")


def test_grid_must_increase():
    with pytest.raises(ConfigError):
        parse_config("n_train_grid = [16, 16]\n")


def test_cross_validation():
    with pytest.raises(ConfigError):
        parse_config("n = 4\ndata.rank = 9\n")
    with pytest.raises(ConfigError):
        parse_config("step.kind = ls\nstep.alpha = 1.5\n")
    with pytest.raises(ConfigError):
        parse_config("operator.kind = circular\n")


@pytest.mark.parametrize("text, field, message", [
    ("n 8\n", "n 8", "expected 'key = value'"),
    ("n = true\n", "n", "expected an integer"),
    ('data.kind = "sparse"\ndata.dict_size = 4\ndata.sparsity = 5\n', "data.sparsity",
     "exceeds data.dict_size"),
    ('step.kind = "deblur"\nstep.alpha = 0\n', "step.alpha", "alpha > 0"),
    ('step.kind = "deblur"\nstep.alpha = -0.5\n', "step.alpha", "alpha > 0"),
    ('operator.kind = "dft"\n', "operator.omega", "needs a frequency set"),
    ('operator.kind = "dense"\n', "operator.matrix", "needs a matrix"),
    # a repeated grid value names one cell twice; cell files and summary
    # keys spell sigma with %g, where 0.2000001 and 51.00001 / 255 read 0.2
    ("seeds = [0, 1, 0]\n", "seeds", "distinct"),
    ('model.mode = ["ws", "ws"]\n', "model.mode", "distinct"),
    ("sigma = [0.2, 0.2]\n", "sigma", "%g"),
    ("sigma = [0.2, 0.2000001]\n", "sigma", "%g"),
    ("sigma_pixel = [51, 51.00001]\n", "sigma_pixel", "%g"),
], ids=["no-equals", "bool-as-int", "sparsity", "deblur-zero", "deblur-negative", "dft-no-omega",
        "dense-no-matrix", "repeated-seed", "repeated-mode", "repeated-sigma", "sigma-alike-in-g",
        "sigma-pixel-alike-in-g"])
def test_config_errors_name_their_key(text, field, message):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.field == field
    assert f"'{field}'" in str(err.value) and message in str(err.value)


def test_scalar_promoted_to_list():
    cfg = parse_config('sigma = 0.25\nmodel.mode = "wc"\n')
    assert cfg.sigma == [0.25]
    assert cfg.modes() == ["wc"]


def test_sigma_pixel_preset_scaling():
    cfg = parse_config("sigma_pixel = [25, 50]\n")
    assert cfg.sigma == [25 / 255, 50 / 255]


def test_echo_roundtrip():
    cfg = parse_config(
        "n = 12\nsigma = [0.1, 0.2]\nmodel.mode = [\"ws\", \"wc\"]\n"
        "optimizer.epochs = 7\nout = \"somewhere\"\n"
    )
    assert parse_config(config_to_text(cfg)) == cfg


def test_comments_and_blank_lines():
    cfg = parse_config("# header\n\nn = 10  # trailing comment\n")
    assert cfg.n == 10


def test_minimal_empty_config():
    assert parse_config("") == ExperimentConfig()


def test_dof_probes_capped_below_seed_aliasing():
    # input i's probes are one (probes, n) draw from default_rng([seed, i]);
    # the cap bounds that batch
    assert parse_config("dof.probes = 65536\n").dof_probes == 65536
    with pytest.raises(ConfigError) as err:
        parse_config("dof.probes = 65537\n")
    assert "dof.probes" in str(err.value)


def test_negative_seed_names_field():
    # every generator seeded from a sweep seed rejects negative integers
    assert parse_config("seeds = [0, 3]\n").seeds == [0, 3]
    with pytest.raises(ConfigError) as err:
        parse_config("seeds = [2, -1]\n")
    assert "seeds" in str(err.value)


def test_dof_estimator_accepts_only_the_estimators_that_act():
    assert parse_config('dof.estimator = "mc"\n').dof_estimator == "mc"
    # "fd" was accepted but read by nothing
    with pytest.raises(ConfigError) as err:
        parse_config('dof.estimator = "fd"\n')
    assert "dof.estimator" in str(err.value)


def test_max_steps_is_unlimited_or_positive():
    assert parse_config("optimizer.max_steps = 1\n").opt_max_steps == 1
    assert parse_config("optimizer.max_steps = -1\n").opt_max_steps == -1
    # 0 steps trains nothing, which train() would report as divergence
    with pytest.raises(ConfigError) as err:
        parse_config("optimizer.max_steps = 0\n")
    assert "optimizer.max_steps" in str(err.value)


@pytest.mark.parametrize("kernel", ["[[0.5, 0.5], [0, 0]]", '["a", 1]', "[true, 0.5]", "0.5"])
def test_kernel_must_be_a_flat_list_of_numbers(kernel):
    with pytest.raises(ConfigError) as err:
        parse_config(f'operator.kind = "circular"\noperator.kernel = {kernel}\n')
    assert "operator.kernel" in str(err.value)


def test_kernel_longer_than_the_signal_is_config_error():
    assert parse_config("n = 3\ndata.rank = 1\noperator.kind = circular\noperator.kernel = [1, 2, 3]\n")
    with pytest.raises(ConfigError) as err:
        parse_config("n = 3\ndata.rank = 1\noperator.kind = circular\noperator.kernel = [1, 2, 3, 4]\n")
    assert "operator.kernel" in str(err.value)


@pytest.mark.parametrize("omega", ['["a"]', "[true]", "[[1, 2]]", "[1.5]"])
def test_omega_must_be_a_flat_list_of_integers(omega):
    assert parse_config('operator.kind = "dft"\noperator.omega = [1, -2]\n').operator_omega == [1, -2]
    with pytest.raises(ConfigError) as err:
        parse_config(f'operator.kind = "dft"\noperator.omega = {omega}\n')
    assert "operator.omega" in str(err.value)


@pytest.mark.parametrize("matrix", [
    "[[1, 2], [3]]", "[[]]", '[[1, "a"]]', "[[true, 0]]", "[1, 2]", "[[[1], [2]]]",
], ids=["ragged", "empty-row", "string", "bool", "flat", "nested"])
def test_matrix_must_be_equal_length_rows_of_numbers(matrix):
    with pytest.raises(ConfigError) as err:
        parse_config(f'n = 2\ndata.rank = 1\noperator.kind = "dense"\noperator.matrix = {matrix}\n')
    assert "operator.matrix" in str(err.value)


def test_matrix_needs_n_columns():
    cfg = parse_config('n = 2\ndata.rank = 1\noperator.kind = "dense"\noperator.matrix = [[1, 0.5]]\n')
    assert cfg.operator_matrix == [[1, 0.5]]
    with pytest.raises(ConfigError) as err:
        parse_config('n = 8\noperator.kind = "dense"\noperator.matrix = [[1, 0], [0, 1]]\n')
    assert "operator.matrix" in str(err.value) and "n = 8" in str(err.value)


@pytest.mark.parametrize("line", [
    "sigma = true", "sigma_pixel = [true]", "n_train_grid = [true]", "model.hidden = [true]",
    "seeds = [true]", "step.alpha = true", "optimizer.lr_grid = [true]",
])
def test_booleans_are_not_numbers_in_any_key(line, tmp_path):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError) as err:
        parse_config(line + "\n")
    assert key in str(err.value)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", [
    "step.alpha = NaN", "optimizer.lr_grid = [Infinity]", "operator.kernel = [NaN, 0.5]",
    "sigma = [Infinity]", "sigma_pixel = [NaN]", "operator.matrix = [[1, -Infinity]]",
    "step.alpha = 1" + "0" * 400,
], ids=["alpha-nan", "lr-inf", "kernel-nan", "sigma-inf", "sigma-pixel-nan", "matrix-neg-inf",
        "alpha-past-largest-float"])
def test_non_finite_numbers_are_not_numbers_in_any_key(line, tmp_path):
    """json.loads parses NaN, Infinity and integers no float64 holds; a
    config rejects them as it rejects a string, so a sweep exits 1
    before it writes anything."""
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError) as err:
        parse_config(line + "\n")
    assert key in str(err.value) and "finite" in str(err.value)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()
