import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxsure.data import (
    TEST_OFFSET,
    _sample_rng,
    add_noise,
    generate_sparse_data,
    generate_subspace_data,
    load_dataset,
    noisy_split,
    sample_correlation,
    save_dataset,
    seeded_rng,
)
from proxsure.errors import (
    DatasetChecksumError,
    DatasetHeaderError,
    DatasetTruncatedError,
)


def test_unit_norm_invariant():
    for ds in (
        generate_subspace_data(10, 3, 50, seed=0),
        generate_sparse_data(10, 20, 2, 50, seed=0),
    ):
        assert np.allclose(np.linalg.norm(ds.samples, axis=1), 1.0)


def test_full_rank_subspace_norms():
    ds = generate_subspace_data(6, 6, 40, seed=1)
    assert np.allclose(np.linalg.norm(ds.samples, axis=1), 1.0)


def test_rank_one_subspace_is_a_line():
    ds = generate_subspace_data(5, 1, 30, seed=2)
    u = ds.samples[0]
    dots = np.abs(ds.samples @ u)
    assert np.allclose(dots, 1.0)


def test_subspace_eigenvalue_count():
    ds = generate_subspace_data(8, 3, 1000, seed=3)
    eigvals = np.linalg.eigvalsh(sample_correlation(ds))
    assert int(np.sum(eigvals > 1e-10)) == 3


def test_generator_determinism():
    a = generate_subspace_data(6, 2, 20, seed=5)
    b = generate_subspace_data(6, 2, 20, seed=5)
    assert np.array_equal(a.samples, b.samples)
    c = generate_sparse_data(6, 12, 2, 20, seed=5)
    d = generate_sparse_data(6, 12, 2, 20, seed=5)
    assert np.array_equal(c.samples, d.samples)


def test_generator_validation():
    with pytest.raises(ValueError):
        generate_subspace_data(4, 5, 10)
    with pytest.raises(ValueError):
        generate_sparse_data(4, 3, 5, 10)


def test_add_noise_sigma_zero_and_determinism():
    x = np.random.default_rng(0).standard_normal((5, 4))
    assert np.array_equal(add_noise(x, 0.0, seed=1), x)
    assert np.array_equal(add_noise(x, 0.3, seed=1), add_noise(x, 0.3, seed=1))
    with pytest.raises(ValueError):
        add_noise(x, -0.1)


@pytest.mark.parametrize("tag", [10, 20, 30])
def test_noisy_split_matches_the_explicit_draws_it_replaces(tag):
    """Data seeded (seed, tag), held-out samples from TEST_OFFSET, noise
    seeded (seed, tag + 2) for train and (seed, tag + 3) held out."""
    from functools import partial

    n, r, sigma, seed = 8, 3, 0.15, 4
    noise_seeds = {10: (12, 13), 20: (22, 23), 30: (32, 33)}[tag]
    make = partial(generate_subspace_data, n, r)
    for N, test, offset, noise_tag in ((12, False, 0, noise_seeds[0]),
                                       (5, True, 1_000_000, noise_seeds[1])):
        clean, y = noisy_split(make, N, sigma, seed, tag, test=test)
        expected = generate_subspace_data(n, r, N, seed=(seed, tag), offset=offset)
        assert clean.samples.tobytes() == expected.samples.tobytes()
        assert clean.seed == (seed, tag)
        assert y.tobytes() == add_noise(expected.samples, sigma, seed=(seed, noise_tag)).tobytes()


def test_add_noise_variance_concentration():
    n, N, sigma = 64, 10000, 0.1
    x = np.zeros((N, n))
    v = add_noise(x, sigma, seed=9)
    mean_norm = float(np.mean(np.sum(v**2, axis=1) / n))
    assert 0.0097 <= mean_norm <= 0.0103


def test_sample_correlation_examples():
    from proxsure.data import Dataset

    ds = Dataset(n=2, kind="subspace",
                 samples=np.array([[1.0, 0.0], [0.0, 1.0]]), seed=0, params={})
    assert np.allclose(sample_correlation(ds), np.diag([0.5, 0.5]))
    single = Dataset(n=2, kind="subspace",
                     samples=np.array([[0.6, 0.8]]), seed=0, params={})
    x = single.samples[0]
    assert np.allclose(sample_correlation(single), np.outer(x, x))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_sample_correlation_psd(seed):
    ds = generate_subspace_data(6, 3, 12, seed=seed)
    assert np.linalg.eigvalsh(sample_correlation(ds)).min() >= -1e-12


def test_dataset_roundtrip(tmp_path):
    for ds in (
        generate_subspace_data(7, 2, 9, seed=11),
        generate_sparse_data(7, 14, 3, 9, seed=11),
    ):
        path = tmp_path / f"{ds.kind}.bin"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.samples, ds.samples)
        assert loaded.kind == ds.kind and loaded.params == ds.params
        assert loaded.seed == ds.seed


def test_dataset_corruption_errors(tmp_path):
    ds = generate_subspace_data(4, 2, 3, seed=0)
    path = tmp_path / "ds.bin"
    save_dataset(ds, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXXX" + blob[5:])
    with pytest.raises(DatasetHeaderError):
        load_dataset(bad_magic)

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(blob[:-20])
    with pytest.raises(DatasetTruncatedError):
        load_dataset(truncated)

    flipped = bytearray(blob)
    flipped[-10] ^= 0xFF
    corrupt = tmp_path / "crc.bin"
    corrupt.write_bytes(bytes(flipped))
    with pytest.raises(DatasetChecksumError):
        load_dataset(corrupt)



def test_dataset_unknown_kind_and_trailing_bytes_are_header_errors(tmp_path):
    import struct
    import zlib

    from proxsure.data import MAGIC

    ds = generate_subspace_data(4, 2, 3, seed=0)
    path = tmp_path / "ds.bin"
    save_dataset(ds, path)
    body = path.read_bytes()[:-4]
    code_at = len(MAGIC) + 8  # after the u32 n and N words
    for bad_body, message in [
        (body[:code_at] + bytes([7]) + body[code_at + 1:], "unknown dataset kind code 7"),
        (body + b"\x00" * 8, "trailing bytes"),
    ]:
        path.write_bytes(bad_body + struct.pack("<I", zlib.crc32(bad_body)))
        with pytest.raises(DatasetHeaderError, match=message):
            load_dataset(path)

@pytest.mark.parametrize("kind", ["subspace", "sparse"])
def test_dataset_cut_anywhere_is_a_format_error(tmp_path, kind):
    """Every prefix of a container, raw or with a CRC32 recomputed over
    the cut body, fails with a dataset error instead of a struct.error."""
    import struct
    import zlib

    from proxsure.data import MAGIC

    if kind == "subspace":
        ds = generate_subspace_data(3, 2, 2, seed=5)
    else:
        ds = generate_sparse_data(3, 4, 2, 2, seed=5)
    path = tmp_path / "ds.bin"
    save_dataset(ds, path)
    blob = path.read_bytes()
    body = blob[:-4]
    cut_path = tmp_path / "cut.bin"
    for cut in range(len(blob)):
        cases = [blob[:cut]]
        if cut < len(body):
            cases.append(body[:cut] + struct.pack("<I", zlib.crc32(body[:cut])))
        for data in cases:
            cut_path.write_bytes(data)
            expected = DatasetHeaderError if cut < len(MAGIC) else DatasetTruncatedError
            with pytest.raises(expected):
                load_dataset(cut_path)


def test_save_dataset_rejects_seed_outside_one_int64_word(tmp_path):
    ds = generate_subspace_data(5, 2, 3, seed=(1, 2))
    with pytest.raises(ValueError, match=r"\(1, 2\)"):
        save_dataset(ds, tmp_path / "ds.bin")
    assert not (tmp_path / "ds.bin").exists()


# --- seeding: every generator is the list-seeded default_rng stream ------

# seeds whose words include 0, 2**32 - 1 and tuples; 2**32 and 2**40 are
# split into 32-bit words by the list path
SEEDS = [0, 7, 2**32 - 1, (3, 4), (2**32 - 1, 0), 2**32, (5, 2**40)]


def _words(seed):
    return list(seed) if isinstance(seed, tuple) else [seed]


def _list_rng(*words):
    return np.random.default_rng(list(words))


@pytest.mark.parametrize("words", [(0,), (2**32 - 1,), (0, 1, TEST_OFFSET + 3), (3, 4, 1, 2**32 - 1),
                                   (2**32,), (2**40, 1), (5, 2**32 + 7), (True,)])
def test_seeded_rng_is_the_list_seeded_stream(words):
    got, want = seeded_rng(*words), _list_rng(*words)
    assert got.standard_normal(6).tobytes() == want.standard_normal(6).tobytes()
    assert got.integers(0, 2, size=9).tobytes() == want.integers(0, 2, size=9).tobytes()


@pytest.mark.parametrize("words", [(-1,), (3, -2), (1.5,), (2, 0.0)])
def test_seeded_rng_rejects_what_the_list_seed_rejects(words):
    with pytest.raises((ValueError, TypeError)) as want:
        _list_rng(*words)
    with pytest.raises(want.type, match=str(want.value)):
        seeded_rng(*words)


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_draw_the_list_seeded_streams(seed):
    n, r, dict_size, k, N = 8, 3, 12, 2, 4
    U, _ = np.linalg.qr(_list_rng(*_words(seed), 0).standard_normal((n, r)))
    A = _list_rng(*_words(seed), 0).standard_normal((n, dict_size))
    A /= np.linalg.norm(A, axis=0)
    for offset in (0, TEST_OFFSET):
        subspace, sparse = [], []
        for i in range(offset, offset + N):
            assert (_sample_rng(seed, i).standard_normal(5).tobytes()
                    == _list_rng(*_words(seed), 1, i).standard_normal(5).tobytes())
            x = U @ _list_rng(*_words(seed), 1, i).standard_normal(r)
            subspace.append(x / np.linalg.norm(x))
            rng = _list_rng(*_words(seed), 1, i)
            x = A[:, rng.choice(dict_size, size=k, replace=False)] @ rng.standard_normal(k)
            sparse.append(x / np.linalg.norm(x))
        got = generate_subspace_data(n, r, N, seed=seed, offset=offset).samples
        assert got.tobytes() == np.array(subspace).tobytes()
        got = generate_sparse_data(n, dict_size, k, N, seed=seed, offset=offset).samples
        assert got.tobytes() == np.array(sparse).tobytes()
    x = np.arange(3 * n, dtype=np.float64).reshape(3, n)
    noise = [_list_rng(*_words(seed), 1, i).standard_normal(n) for i in range(3)]
    assert add_noise(x, 0.3, seed=seed).tobytes() == (x + 0.3 * np.array(noise)).tobytes()


def test_a_negative_seed_raises_as_the_list_seed_does():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        generate_subspace_data(4, 2, 3, seed=-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        add_noise(np.zeros((2, 4)), 0.1, seed=(3, -1))
