from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxsure.errors import DimensionMismatchError, SingularSystemError
from proxsure.operators import (
    StepParams,
    apply_operator,
    circular_operator,
    dense_operator,
    dft_operator,
    gram_matrix,
    identity_operator,
    step_matrices,
)
from reference import (
    apply_step,
    circular_fft,
    dft_fft,
    gradient_step,
    least_squares_step,
)


DENSE = np.random.default_rng(7).standard_normal((5, 8))
KERNEL, OMEGA = [0.5, 0.3, 0.2], [1, 2]


def defined_operators():
    """(operator, formula) pairs: formula(u, direction) applies Phi or
    Phi^H to the rows of u from what defines the operator, not from its
    matrix: the identity, the given dense matrix, or the FFT."""
    return [
        (identity_operator(8), lambda u, direction: u),
        (dense_operator(DENSE),
         lambda u, direction: np.einsum("ij,bj->bi", DENSE if direction == "forward" else DENSE.T, u)),
        (circular_operator(KERNEL, n=8), partial(circular_fft, KERNEL, 8)),
        (dft_operator(8, OMEGA), partial(dft_fft, 8, OMEGA)),
    ]


DEFINED = [pytest.param(op, formula, id=op.kind) for op, formula in defined_operators()]


def all_operators():
    return [op for op, _ in defined_operators()]


def apply_gap(op, formula, direction, rng):
    """Largest |apply_operator - formula| over three random rows."""
    U = rng.standard_normal((3, op.n if direction == "forward" else op.m))
    return np.max(np.abs(apply_operator(op, U, direction) - formula(U, direction)))


def test_identity_forward():
    op = identity_operator(2)
    assert np.array_equal(apply_operator(op, np.array([1.0, 2.0])), [1.0, 2.0])
    assert op.m == op.n == 2


def test_dense_forward_adjoint():
    op = dense_operator([[1.0, 0.0]])
    assert np.allclose(apply_operator(op, np.array([3.0, 4.0])), [3.0])
    assert np.allclose(apply_operator(op, np.array([3.0]), "adjoint"), [3.0, 0.0])


def test_delta_kernel_is_identity():
    n = 6
    kernel = np.zeros(n)
    kernel[0] = 1.0
    op = circular_operator(kernel, n=n)
    u = np.random.default_rng(0).standard_normal(n)
    assert np.allclose(apply_operator(op, u), u)


@pytest.mark.parametrize("op, formula", DEFINED)
def test_forward_matches_the_defining_formula(op, formula):
    assert apply_gap(op, formula, "forward", np.random.default_rng(1)) <= 1e-12


@pytest.mark.parametrize("op, formula", DEFINED)
def test_adjoint_matches_the_defining_formula(op, formula):
    assert apply_gap(op, formula, "adjoint", np.random.default_rng(3)) <= 1e-12


def test_dft_gram_is_projection():
    op = dft_operator(8, [1, 3])
    G = gram_matrix(op)
    assert np.allclose(G @ G, G, atol=1e-12)
    assert np.allclose(G, G.T, atol=1e-12)


def test_dimension_mismatch_names_sizes():
    op = identity_operator(4)
    with pytest.raises(DimensionMismatchError) as err:
        apply_operator(op, np.zeros(5))
    assert "4" in str(err.value) and "5" in str(err.value)


def test_gradient_step_alpha_zero_is_noop():
    op = dense_operator([[1.0, 0.0]])
    x = np.array([1.0, 1.0])
    assert np.array_equal(gradient_step(x, np.array([3.0]), op, 0.0), x)


def test_gradient_step_identity_full_step():
    op = identity_operator(2)
    y = np.array([5.0, -1.0])
    assert np.allclose(gradient_step(np.array([1.0, 1.0]), y, op, 1.0), y)


def test_gradient_step_hand_example():
    # 0.5*(3,0) + (I - 0.5*diag(1,0))*(1,1) = (2,1)
    op = dense_operator([[1.0, 0.0]])
    out = gradient_step(np.array([1.0, 1.0]), np.array([3.0]), op, 0.5)
    assert np.allclose(out, [2.0, 1.0])


def test_ls_step_mixing_identity_alpha_one():
    op = identity_operator(2)
    y = np.array([2.0, 3.0])
    out = least_squares_step(np.array([0.0, 0.0]), y, op, 1.0, kind="mixing")
    assert np.allclose(out, y)


def test_ls_step_mixing_alpha_zero_is_noop():
    op = dense_operator([[1.0, 0.0]])
    x = np.array([1.0, -2.0])
    out = least_squares_step(x, np.array([3.0]), op, 0.0, kind="mixing")
    assert np.allclose(out, x)


def test_ls_step_deblur_hand_example():
    op = identity_operator(2)
    out = least_squares_step(
        np.array([0.0, 0.0]), np.array([2.0, 4.0]), op, 1.0, kind="deblur"
    )
    assert np.allclose(out, [1.0, 2.0])


def test_ls_step_singular_system():
    op = dense_operator([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(SingularSystemError):
        least_squares_step(
            np.zeros(2), np.array([1.0, 1.0]), op, 1e-14, kind="deblur"
        )


def test_step_params_validation():
    with pytest.raises(ValueError):
        StepParams("ls", 1.5)
    with pytest.raises(ValueError):
        StepParams("deblur", 0.0)
    with pytest.raises(ValueError):
        StepParams("unknown", 0.1)


@pytest.mark.parametrize("op", all_operators(), ids=lambda o: o.kind)
@pytest.mark.parametrize("step", [
    StepParams("gradient", 0.3),
    StepParams("ls", 0.5),
    StepParams("deblur", 0.7),
])
def test_step_matrices_match_apply_step(op, step):
    rng = np.random.default_rng(11)
    G_x, G_y = step_matrices(op, step)
    x = rng.standard_normal(op.n)
    y = rng.standard_normal(op.m)
    assert np.allclose(G_x @ x + G_y @ y, apply_step(x, y, op, step), atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_drawn_operators_match_their_defining_formulas(n, seed):
    """A drawn kernel of any length up to n, and a drawn frequency set."""
    rng = np.random.default_rng(seed)
    kernel = rng.standard_normal(rng.integers(1, n + 1))
    omega = rng.integers(0, n, size=rng.integers(1, 4))
    for op, formula in [(circular_operator(kernel, n=n), partial(circular_fft, kernel, n)),
                        (dft_operator(n, omega), partial(dft_fft, n, omega))]:
        for direction in ("forward", "adjoint"):
            assert apply_gap(op, formula, direction, rng) <= 1e-12


def test_batched_apply_matches_loop():
    op = circular_operator(np.array([0.5, 0.25, 0.25]), n=6)
    rng = np.random.default_rng(2)
    U = rng.standard_normal((4, 6))
    batched = apply_operator(op, U)
    for i in range(4):
        assert np.allclose(batched[i], apply_operator(op, U[i]))


@pytest.mark.parametrize("op", all_operators(), ids=lambda o: o.kind)
@pytest.mark.parametrize("kind", ["gradient", "ls"])
def test_zero_alpha_step_is_the_identity_map(op, kind):
    """gradient and ls at alpha = 0 are s = x on every operator, so
    step_matrices reports no matrices and the kernels skip the step."""
    step = StepParams(kind, 0.0)
    assert step_matrices(op, step) == (None, None)
    rng = np.random.default_rng(12)
    x = rng.standard_normal(op.n)
    y = rng.standard_normal(op.m)
    assert apply_step(x, y, op, step).tobytes() == x.tobytes()


@pytest.mark.parametrize("n", [7, 8])
def test_circular_matrix_matches_the_fft_reference(n):
    """A non-symmetric kernel pins the circulant's orientation."""
    kernel = [0.6, 0.25, 0.15]
    op = circular_operator(kernel, n=n)
    U = np.random.default_rng(n).standard_normal((3, n))
    for direction in ("forward", "adjoint"):
        want = circular_fft(kernel, n, U, direction)
        assert np.max(np.abs(apply_operator(op, U, direction) - want)) <= 1e-12


@pytest.mark.parametrize("n, omega, m", [(8, [0, 4, 1], 8), (7, [0, 2], 6), (8, [3], 4)])
def test_dft_matrix_matches_the_fft_reference(n, omega, m):
    """Omega holding 0 and n/2 (each its own mirror), and m < n."""
    op = dft_operator(n, omega)
    assert op.m == m
    rng = np.random.default_rng(n)
    U, V = rng.standard_normal((3, n)), rng.standard_normal((3, op.m))
    assert np.max(np.abs(apply_operator(op, U) - dft_fft(n, omega, U))) <= 1e-12
    assert np.max(np.abs(apply_operator(op, V, "adjoint") - dft_fft(n, omega, V, "adjoint"))) <= 1e-12


def test_operator_matrix_is_read_only_and_owned():
    source = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    op = dense_operator(source)
    source[0, 0] = 9.0
    assert op.matrix[0, 0] == 1.0
    assert (op.m, op.n) == (2, 3)
    for op in all_operators():
        assert not op.matrix.flags.writeable
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 1.0
