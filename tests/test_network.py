import gc
import tracemalloc

import numpy as np
import pytest

from proxsure.network import (
    ProximalStack,
    _unit,
    flatten_weights,
    forward_map,
    load_stack,
    random_stack,
    save_stack,
    unroll,
    unroll_forward,
)
from proxsure.operators import StepParams, circular_operator, dft_operator, identity_operator, step_matrices
from reference import one_call_forward, replay_from_trace, residual_unit_forward


IDENTITY_STEP = StepParams("gradient", 0.0)


def symmetric_stack(W, T=1):
    W = np.asarray(W, dtype=np.float64)
    return ProximalStack(n=W.shape[1], T=T, mode="ws", symmetric=True,
                         weights=(((W, None),),))


def test_residual_unit_inactive_passthrough():
    h, D = residual_unit_forward(np.array([-1.0, 1.0]), np.array([[1.0, 0.0]]))
    assert np.array_equal(h, [-1.0, 1.0])
    assert not D.any()


def test_residual_unit_active_hand_example():
    h, D = residual_unit_forward(np.array([1.0, 1.0]), np.array([[1.0, 0.0]]))
    assert np.allclose(h, [0.0, 1.0])
    assert D.tolist() == [True]


def test_residual_unit_zero_weights():
    h0 = np.array([0.3, -0.7])
    h, D = residual_unit_forward(h0, np.zeros((2, 2)))
    assert np.array_equal(h, h0)
    assert not D.any()


def test_relu_at_zero_counts_inactive():
    # pre-activation exactly 0 must not activate
    _, D = residual_unit_forward(np.array([0.0, 1.0]), np.array([[1.0, 0.0]]))
    assert not D.any()


def test_general_unit_uses_wbar_mask():
    W = np.array([[0.5, 0.0]])
    Wbar = np.array([[0.0, 1.0]])
    h, D = residual_unit_forward(np.array([1.0, 2.0]), W, Wbar)
    # h + W^H relu(Wbar h) = (1,2) + (0.5,0)*2
    assert np.allclose(h, [2.0, 2.0])
    assert D.tolist() == [True]


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("B", [None, 1, 8, 1024])  # None: one (n,) input
def test_unit_is_byte_equal_to_the_textbook_unit(symmetric, B):
    n, ell = 7, 5
    rng = np.random.default_rng([40, B or 0, symmetric])
    W = rng.standard_normal((ell, n))
    W[:, 0] = 0.0  # column 0 of a @ W is a signed zero
    Wbar = None if symmetric else rng.standard_normal((ell, n))
    h = rng.standard_normal((n,) if B is None else (B, n))
    h[..., 0] = -0.0
    h_before = h.tobytes()

    got = _unit(h, W, Wbar)
    z = h @ (W if symmetric else Wbar).T
    D = z > 0.0
    a = D * z
    want = (h - a @ W if symmetric else h + a @ W), D, a
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()  # -0.0 and 0.0 differ here
        assert not np.shares_memory(g, h)
    assert h.tobytes() == h_before
    assert np.signbit(got[2][got[2] == 0.0]).any()  # inactive units give a = -0.0


def test_unroll_holds_three_batch_arrays_per_unit():
    # a unit allocates its a (B, l), its mask and the a @ W product that
    # becomes h' (B, n), after the previous unit's a and mask are freed;
    # holding those across units and forming D * z and h - a @ W apart
    # would peak at 6.25 (B, 32) arrays
    n = ell = 32
    stack = random_stack(n, [ell], T=10, seed=41)
    op = identity_operator(n)
    y = np.random.default_rng(41).standard_normal((1024, n))
    y_before = y.tobytes()
    unroll(y, stack, op, None, None)
    gc.collect()
    tracemalloc.start()
    try:
        x, _ = unroll(y, stack, op, None, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * y.nbytes
    assert y.tobytes() == y_before and not np.shares_memory(x, y)


def test_unroll_zero_weights_is_identity():
    n = 5
    op = identity_operator(n)
    stack = ProximalStack(n=n, T=3, mode="ws", symmetric=True,
                          weights=(((np.zeros((2, n)), None),),))
    y = np.random.default_rng(0).standard_normal(n)
    x, _ = unroll_forward(y, stack, op, IDENTITY_STEP)
    assert np.array_equal(x, y)


def test_unroll_single_unit_example():
    stack = symmetric_stack([[1.0, 0.0]])
    x, _ = unroll_forward(np.array([1.0, 1.0]), stack, identity_operator(2), IDENTITY_STEP)
    assert np.allclose(x, [0.0, 1.0])


def test_ws_equals_wc_with_copied_weights():
    n, T = 6, 3
    rng = np.random.default_rng(4)
    W = rng.standard_normal((4, n)) / np.sqrt(n)
    ws = ProximalStack(n=n, T=T, mode="ws", symmetric=True, weights=(((W, None),),))
    wc = ProximalStack(n=n, T=T, mode="wc", symmetric=True,
                       weights=tuple(((W, None),) for _ in range(T)))
    op = identity_operator(n)
    y = rng.standard_normal(n)
    x_ws, _ = unroll_forward(y, ws, op, IDENTITY_STEP)
    x_wc, _ = unroll_forward(y, wc, op, IDENTITY_STEP)
    assert np.array_equal(x_ws, x_wc)


@pytest.mark.parametrize("op, step, stack", [
    (circular_operator(np.array([0.6, 0.4]), n=8), StepParams("ls", 0.5),
     random_stack(8, [5], T=3, seed=9)),
    (circular_operator(np.array([0.6, 0.4]), n=8), StepParams("ls", 0.5),
     random_stack(8, [5, 3], T=3, mode="wc", symmetric=False, seed=9)),
    (dft_operator(8, [1]), StepParams("gradient", 0.3),
     random_stack(8, [5], T=3, seed=9)),
], ids=["ws-K1", "wc-nonsymmetric-K2", "dft-gradient"])
def test_replay_matches_forward(op, step, stack):
    y = np.random.default_rng(1).standard_normal(op.m)
    x, trace = unroll_forward(y, stack, op, step)
    replayed = replay_from_trace(trace, stack, op, step, y)
    assert np.linalg.norm(replayed - x) <= 1e-10 * (1 + np.linalg.norm(x))


def test_trace_masks_have_layer_widths():
    stack = random_stack(6, [4, 3], T=2, symmetric=False, seed=2)
    y = np.random.default_rng(2).standard_normal(6)
    _, trace = unroll_forward(y, stack, identity_operator(6), IDENTITY_STEP)
    assert len(trace) == 2
    assert [m.shape[0] for m in trace[0]] == [4, 3]


def test_stack_validation():
    W = np.zeros((2, 4))
    with pytest.raises(ValueError):
        ProximalStack(n=4, T=2, mode="ws", symmetric=True,
                      weights=(((W, None),), ((W, None),)))
    with pytest.raises(ValueError):
        ProximalStack(n=4, T=1, mode="bad", symmetric=True, weights=(((W, None),),))
    with pytest.raises(ValueError):
        ProximalStack(n=0, T=1, mode="ws", symmetric=True, weights=(((W, None),),))
    with pytest.raises(ValueError):
        ProximalStack(n=4, T=1, mode="ws", symmetric=True, weights=(((W, W),),))



def test_stack_validation_names_the_bad_field():
    W = np.zeros((2, 4))
    with pytest.raises(ValueError, match="T >= 1"):
        ProximalStack(n=4, T=0, mode="ws", symmetric=True, weights=(((W, None),),))
    with pytest.raises(ValueError, match="at least one layer"):
        ProximalStack(n=4, T=1, mode="ws", symmetric=True, weights=((),))
    with pytest.raises(ValueError, match=r"\(l_k, n\)"):
        ProximalStack(n=5, T=1, mode="ws", symmetric=True, weights=(((W, None),),))
    with pytest.raises(ValueError, match=r"\(l_k, n\)"):
        ProximalStack(n=4, T=1, mode="ws", symmetric=True, weights=(((W[0], None),),))
    with pytest.raises(ValueError, match="Wbar must match"):
        ProximalStack(n=4, T=1, mode="ws", symmetric=False, weights=(((W, None),),))
    with pytest.raises(ValueError, match="Wbar must match"):
        ProximalStack(n=4, T=1, mode="ws", symmetric=False, weights=(((W, W[:1]),),))


def test_unroll_forward_input_checks():
    from proxsure.errors import DimensionMismatchError

    stack = random_stack(5, [3], T=2, seed=6)
    op = identity_operator(5)
    with pytest.raises(DimensionMismatchError):
        unroll_forward(np.zeros(4), stack, op, IDENTITY_STEP)
    with pytest.raises(ValueError, match="single input vector"):
        unroll_forward(np.zeros((2, 5)), stack, op, IDENTITY_STEP, record=True)

def test_batched_forward_matches_loop():
    stack = random_stack(5, [3], T=2, seed=6)
    op = identity_operator(5)
    Y = np.random.default_rng(3).standard_normal((4, 5))
    h = forward_map(stack, op, IDENTITY_STEP)
    batched = h(Y)
    for i in range(4):
        assert np.allclose(batched[i], h(Y[i]))


@pytest.mark.parametrize("mode,symmetric", [("ws", True), ("wc", True), ("ws", False), ("wc", False)])
def test_weight_container_roundtrip(tmp_path, mode, symmetric):
    stack = random_stack(6, [4, 3], T=3, mode=mode, symmetric=symmetric, seed=8)
    path = tmp_path / "weights.bin"
    save_stack(stack, path)
    loaded = load_stack(path)
    assert loaded.mode == mode and loaded.symmetric == symmetric and loaded.T == 3
    for a, b in zip(stack.weights, loaded.weights):
        for (Wa, Ba), (Wb, Bb) in zip(a, b):
            assert np.array_equal(Wa, Wb)
            assert (Ba is None) == (Bb is None)
            if Ba is not None:
                assert np.array_equal(Ba, Bb)


@pytest.mark.parametrize("mode,symmetric", [("ws", True), ("wc", True), ("ws", False), ("wc", False)])
def test_stack_copies_its_weights_into_one_flat_vector(mode, symmetric):
    """flat is a float64 copy in flatten_weights order and every weight is
    a view into it; a column-major source, given in several places, gets
    its own row-major slice in each."""
    rng = np.random.default_rng(2)
    shared = np.asfortranarray(rng.standard_normal((3, 4)))
    given = tuple(
        ((shared, None if symmetric else shared),
         (rng.standard_normal((2, 4)), None if symmetric else rng.standard_normal((2, 4))))
        for _ in range(1 if mode == "ws" else 2)
    )
    stack = ProximalStack(n=4, T=2, mode=mode, symmetric=symmetric, weights=given)
    flat = stack.flat
    assert flat.dtype == np.float64 and flat.flags.c_contiguous and flat.flags.owndata
    sources = [w for layers in given for pair in layers for w in pair if w is not None]
    weights = flatten_weights(stack)
    assert flat.tobytes() == b"".join(np.ascontiguousarray(w).tobytes() for w in sources)
    for src, w in zip(sources, weights, strict=True):
        assert w.shape == src.shape and np.array_equal(w, src)
        assert np.shares_memory(w, flat) and not np.shares_memory(w, src)
    before = flat.copy()
    for src in sources:
        src += 1.0
    assert np.array_equal(stack.flat, before)
    flat[:] = np.arange(flat.size)
    assert np.array_equal(np.concatenate([w.ravel() for w in weights]), np.arange(flat.size))
    for a, b in zip(weights, weights[1:]):
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("mode,symmetric", [("ws", True), ("wc", True), ("ws", False), ("wc", False)])
@pytest.mark.parametrize("hidden", [[4], [4, 3]], ids=["K1", "K2"])
def test_weight_container_is_its_header_then_flat(tmp_path, mode, symmetric, hidden):
    import struct

    stack = random_stack(6, hidden, T=3, mode=mode, symmetric=symmetric, seed=8)
    path = tmp_path / "weights.bin"
    save_stack(stack, path)
    header = b"SUNW1" + struct.pack("<4I", int(mode == "wc"), int(symmetric), 3, len(hidden))
    header += b"".join(struct.pack("<2I", l, 6) for l in hidden)
    assert path.read_bytes() == header + stack.flat.tobytes()
    loaded = load_stack(path)
    assert loaded.flat.tobytes() == stack.flat.tobytes()
    assert loaded.flat.flags.writeable and loaded.flat.flags.owndata
    loaded.flat[:] = 0.0
    assert not any(w.any() for w in flatten_weights(loaded))


def test_corrupt_weight_container(tmp_path):
    from proxsure.errors import DatasetHeaderError

    path = tmp_path / "weights.bin"
    path.write_bytes(b"XXXXX" + b"\x00" * 32)
    with pytest.raises(DatasetHeaderError):
        load_stack(path)


def _sunw1(path, mode_u, sym_u, T, shapes, payload_values=0):
    """Write a SUNW1 header with the given fields and a zero payload."""
    import struct

    blob = b"SUNW1" + struct.pack("<4I", mode_u, sym_u, T, len(shapes))
    for l_k, n_k in shapes:
        blob += struct.pack("<2I", l_k, n_k)
    path.write_bytes(blob + b"\x00" * (8 * payload_values))
    return path


def test_weight_container_without_layers_is_header_error(tmp_path):
    from proxsure.cli import main
    from proxsure.errors import DatasetHeaderError

    path = _sunw1(tmp_path / "weights.bin", 0, 1, 2, [])
    with pytest.raises(DatasetHeaderError):
        load_stack(path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 4\ndata.rank = 2\nn_test = 2\n")
    assert main(["evaluate", str(path), "--config", str(cfg)]) == 3


def test_weight_container_unknown_mode_word_is_header_error(tmp_path):
    from proxsure.errors import DatasetHeaderError

    path = _sunw1(tmp_path / "weights.bin", 7, 1, 1, [(2, 3)], payload_values=6)
    with pytest.raises(DatasetHeaderError):
        load_stack(path)


def test_weight_container_mismatched_layer_n_is_header_error(tmp_path):
    from proxsure.errors import DatasetHeaderError

    path = _sunw1(tmp_path / "weights.bin", 0, 1, 1, [(2, 3), (2, 4)], payload_values=14)
    with pytest.raises(DatasetHeaderError):
        load_stack(path)



def test_weight_container_bad_symmetric_flag_is_header_error(tmp_path):
    from proxsure.errors import DatasetHeaderError

    path = _sunw1(tmp_path / "weights.bin", 0, 2, 1, [(2, 3)], payload_values=6)
    with pytest.raises(DatasetHeaderError, match="symmetric flag"):
        load_stack(path)


def test_weight_container_trailing_bytes_is_header_error(tmp_path):
    from proxsure.errors import DatasetHeaderError

    path = tmp_path / "weights.bin"
    save_stack(random_stack(3, [2], T=1, seed=1), path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(DatasetHeaderError, match="trailing bytes"):
        load_stack(path)

@pytest.mark.parametrize("mode,symmetric", [("ws", True), ("wc", False)])
def test_weight_container_cut_anywhere_is_a_format_error(tmp_path, mode, symmetric):
    from proxsure.errors import DatasetFormatError

    stack = random_stack(3, [2, 2], T=2, mode=mode, symmetric=symmetric, seed=1)
    path = tmp_path / "weights.bin"
    save_stack(stack, path)
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(DatasetFormatError):
            load_stack(path)


def _explicit_identity_step(op):
    return np.eye(op.n), np.zeros((op.n, op.m))


@pytest.mark.parametrize("mode", ["ws", "wc"])
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("op", [identity_operator(6),
                                circular_operator(np.array([0.6, 0.25, 0.15]), n=6)],
                         ids=lambda o: o.kind)
def test_skipped_data_step_matches_explicit_identity_matrices(mode, symmetric, op):
    """(None, None) skips the data step; the kernel, its record, and the
    kernel with the masks frozen on y and on I_m come out byte for byte
    as with G_x = I, G_y = 0."""
    from proxsure.network import unroll

    stack = random_stack(6, [5, 3], T=3, mode=mode, symmetric=symmetric, seed=4)
    Y = np.random.default_rng(5).standard_normal((7, op.m))
    got_x, got_rec = unroll(Y, stack, op, None, None, record=True)
    want_x, want_rec = unroll(Y, stack, op, *_explicit_identity_step(op), record=True)
    assert got_x.tobytes() == want_x.tobytes()
    for (x_got, units_got), (x_want, units_want) in zip(got_rec, want_rec, strict=True):
        assert x_got.tobytes() == x_want.tobytes()
        for got, want in zip(units_got, units_want, strict=True):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))

    masks = [[D[0] for _, D, _ in units] for _, units in got_rec]
    for r in (Y[0], np.eye(op.m)):
        got = unroll(r, stack, op, None, None, masks=masks)[0]
        want = unroll(r, stack, op, *_explicit_identity_step(op), masks=masks)[0]
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ["ws", "wc"])
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("op, step", [
    (identity_operator(6), IDENTITY_STEP),
    (identity_operator(6), StepParams("gradient", 0.5)),
    (circular_operator(np.array([0.6, 0.25, 0.15]), n=6), StepParams("ls", 0.5)),
], ids=["identity", "identity-gradient-step", "circular-ls"])
@pytest.mark.parametrize("B", [None, 1, 9])  # None: one (m,) input
def test_forward_only_unroll_is_byte_equal_to_the_recorded_one(mode, symmetric, op, step, B):
    # nonnegative weights make every unit inactive on a nonpositive row:
    # the row of zeros, the row of -0.0 and the negative rows, where the
    # forward-only ReLU writes +0.0 and the recorded one a * False = -0.0
    rng = np.random.default_rng([42, B or 0])
    stack = random_stack(6, [5, 3], T=3, mode=mode, symmetric=symmetric, seed=5)
    stack.flat[:] = np.abs(stack.flat)
    Y = rng.standard_normal((9, op.m))
    Y[0], Y[1], Y[2:5] = 0.0, -0.0, -np.abs(Y[2:5])
    Y = Y[1] if B is None else Y[-B:]
    matrices = step_matrices(op, step)
    x, rec = unroll(Y, stack, op, *matrices, record=True)
    assert unroll(Y, stack, op, *matrices)[0].tobytes() == x.tobytes()
    active = np.reshape([D.any(axis=-1) for _, units in rec for _, D, _ in units], (6, -1))
    assert B == 1 or not active[:, :5].any()  # Y[1] alone, or rows 0-4 of the batch


# --- the slab rule: batches of more than SLAB rows ---------------------------


def _slab_case(n, ell, mode, symmetric, blur):
    stack = random_stack(n, [ell], T=3, mode=mode, symmetric=symmetric, seed=n + ell)
    if blur:
        op = circular_operator(np.array([0.6, 0.25, 0.15]), n=n)
        return stack, op, step_matrices(op, StepParams("gradient", 0.1))
    return stack, identity_operator(n), (None, None)


SLAB_CASES = [(n, ell, mode, symmetric, blur)
              for n, ell in [(32, 32), (16, 2), (100, 64)]
              for mode in ("ws", "wc") for symmetric in (True, False) for blur in (False, True)]


@pytest.mark.parametrize("n, ell, mode, symmetric, blur", SLAB_CASES)
@pytest.mark.parametrize("B", [129, 300, 1024])
def test_slabbed_passes_are_byte_equal_to_one_another(n, ell, mode, symmetric, blur, B):
    # the recorded, forward-only and frozen-mask passes share one product
    # rule, so they agree at every batch size; the frozen pass replays each
    # row under its own recorded masks
    stack, op, matrices = _slab_case(n, ell, mode, symmetric, blur)
    Y = np.random.default_rng([43, n, B]).standard_normal((B, op.m))
    x, rec = unroll(Y, stack, op, *matrices, record=True)
    assert unroll(Y, stack, op, *matrices)[0].tobytes() == x.tobytes()
    masks = [[D for _, D, _ in units] for _, units in rec]
    assert unroll(Y, stack, op, *matrices, masks=masks)[0].tobytes() == x.tobytes()


@pytest.mark.parametrize("n, ell, mode, symmetric, blur", SLAB_CASES)
@pytest.mark.parametrize("B", [None, 1, 7, 128])  # None: one (m,) input
def test_batches_up_to_a_slab_keep_one_call_products(n, ell, mode, symmetric, blur, B):
    stack, op, matrices = _slab_case(n, ell, mode, symmetric, blur)
    rng = np.random.default_rng([44, n, B or 0])
    Y = rng.standard_normal((op.m,) if B is None else (B, op.m))
    got = unroll(Y, stack, op, *matrices)[0]
    assert got.tobytes() == one_call_forward(Y, stack, op, *matrices).tobytes()


@pytest.mark.parametrize("mode, symmetric, blur", [("ws", True, False), ("wc", False, True)])
@pytest.mark.parametrize("B", [128, 129])
def test_one_contiguous_transpose_per_matrix_per_call(monkeypatch, mode, symmetric, blur, B):
    _, op, (G_x, G_y) = _slab_case(16, 8, mode, symmetric, blur)
    stack = random_stack(16, [8, 4], T=3, mode=mode, symmetric=symmetric, seed=45)
    contiguous, copies = np.ascontiguousarray, []

    def counting(a, *args, **kwargs):
        copies.append(a.shape)
        return contiguous(a, *args, **kwargs)

    monkeypatch.setattr(np, "ascontiguousarray", counting)
    Y = np.random.default_rng(45).standard_normal((B, op.m))
    unroll(Y, stack, op, G_x, G_y, record=True)
    # one (W or Wbar).T per stored layer, and G_x.T and G_y.T, for a
    # slabbed batch; none up to a slab
    want = [] if G_x is None else [G_x.T.shape, G_y.T.shape]
    want += [(W if Wbar is None else Wbar).T.shape for layers in stack.weights for W, Wbar in layers]
    assert copies == (want if B > 128 else [])


def _read_only(a):
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("kind", ["identity", "circular"])
@pytest.mark.parametrize("step", [IDENTITY_STEP, StepParams("gradient", 0.3)], ids=["skipped", "gradient"])
def test_no_pass_writes_into_its_inputs(kind, step):
    """On the identity x^0 is y itself, so every pass must only read y:
    a write into these read-only inputs would raise."""
    from proxsure.risk import evaluate_set, sure_report
    from proxsure.train import loss_and_gradients, train

    n = 8
    op = identity_operator(n) if kind == "identity" else circular_operator(np.array([0.6, 0.25, 0.15]), n=n)
    G = step_matrices(op, step)
    rng = np.random.default_rng(60)
    X, Y = _read_only(rng.standard_normal((300, n))), _read_only(rng.standard_normal((300, n)))
    for mode, symmetric in (("ws", True), ("wc", False)):
        stack = random_stack(n, [6, 4], T=3, mode=mode, symmetric=symmetric, seed=61)
        _, masks = unroll_forward(Y[0], stack, op, step)
        for rows in (Y[0], Y[:8], Y):  # one input, a minibatch, a slabbed batch
            unroll(rows, stack, op, *G, record=True)
            unroll(rows, stack, op, *G)
            unroll(rows, stack, op, *G, masks=masks)
        unroll(_read_only(np.eye(n)), stack, op, *G, masks=masks)
        loss_and_gradients(stack, X[0], Y[0], op, step)
        loss_and_gradients(stack, X[:8], Y[:8], op, step)
        evaluate_set(stack, op, step, Y[:4], sigma=0.1, mc_probes=8)
        sure_report(forward_map(stack, op, step), Y[0], 0.1, mc_probes=8)
        train(X[:20], Y[:20], X[20:28], Y[20:28], op, step, hidden=[6, 4], T=3, mode=mode,
              symmetric=symmetric, lr_grid=[1e-3], epochs=2, batch=8, seed=62)


@pytest.mark.parametrize("kind", ["identity", "circular"])
def test_a_measurement_of_the_wrong_length_is_a_dimension_mismatch(kind):
    from proxsure.errors import DimensionMismatchError
    from proxsure.risk import dof_monte_carlo

    n = 8
    op = identity_operator(n) if kind == "identity" else circular_operator(np.array([0.6, 0.25, 0.15]), n=n)
    h = forward_map(random_stack(n, [6], T=2, seed=63), op, IDENTITY_STEP)
    for y in (np.zeros(n + 1), np.zeros((3, n - 1))):
        with pytest.raises(DimensionMismatchError, match=f"{kind} adjoint input"):
            h(y)
        with pytest.raises(DimensionMismatchError, match=f"{kind} adjoint input"):
            dof_monte_carlo(h, y, 4)
