"""Synthetic unit-norm datasets on low-dimensional manifolds.

Two generators: samples on a random r-dimensional subspace (makes the
spectral DOF limit exactly checkable) and k-sparse synthesis codes in a
random unit-column dictionary (exercises mask sparsity). Sampling is
counter-seeded per sample, so parallel generation matches serial.
Gaussian draws use numpy's PCG64 + ziggurat, pinned per release.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DatasetChecksumError,
    DatasetHeaderError,
    DatasetTruncatedError,
)

MAGIC = b"SUND1"
# sample-counter offset for held-out splits sharing a training manifold
TEST_OFFSET = 1_000_000
_KIND_CODES = {"subspace": 0, "sparse": 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}
# header after (n, N, kind code): the seed word, then the kind's parameters
_HEADER_TAIL = {"subspace": "<qI", "sparse": "<q2I"}
_PARAM_NAMES = {"subspace": ("r",), "sparse": ("dict_size", "k")}
# the shortest container: a subspace header, no samples, the CRC32 trailer
_MIN_SIZE = len(MAGIC) + 9 + struct.calcsize(_HEADER_TAIL["subspace"]) + 4


@dataclass(frozen=True)
class Dataset:
    """N unit-norm n-vectors plus the generator metadata."""

    n: int
    kind: str
    samples: np.ndarray = field(repr=False)
    seed: int
    params: dict

    @property
    def N(self) -> int:
        return self.samples.shape[0]


def _seed_seq(seed) -> list[int]:
    return list(seed) if isinstance(seed, (tuple, list)) else [seed]


def seeded_rng(*words) -> np.random.Generator:
    """np.random.default_rng(list(words)), the same stream, built faster.

    Integer words in [0, 2**32) go in as one uint32 array, which numpy
    coerces once instead of word by word. Any other word keeps the list,
    which splits a large word into 32-bit words and rejects a negative
    or non-integer one."""
    array = np.array(words)
    if array.dtype.kind in "iu" and 0 <= min(words) and max(words) < 2**32:
        return np.random.default_rng(array.astype(np.uint32))
    return np.random.default_rng(list(words))


def _basis_rng(seed) -> np.random.Generator:
    return seeded_rng(*_seed_seq(seed), 0)


def _sample_rng(seed, i: int) -> np.random.Generator:
    return seeded_rng(*_seed_seq(seed), 1, i)


def generate_subspace_data(
    n: int, r: int, N: int, seed: int = 0, offset: int = 0
) -> Dataset:
    """Unit-norm samples x = Uz/||Uz|| on a seeded random r-dim subspace.

    The basis depends only on the seed; samples are counter-seeded from
    `offset`, so disjoint offset ranges give disjoint samples on the
    same manifold (e.g. train/test splits).
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if N < 1:
        raise ValueError("need N >= 1")
    U, _ = np.linalg.qr(_basis_rng(seed).standard_normal((n, r)))
    samples = np.empty((N, n))
    for i in range(N):
        z = _sample_rng(seed, offset + i).standard_normal(r)
        x = U @ z
        samples[i] = x / np.linalg.norm(x)
    return Dataset(n=n, kind="subspace", samples=samples, seed=seed, params={"r": r})


def generate_sparse_data(
    n: int, dict_size: int, k: int, N: int, seed: int = 0, offset: int = 0
) -> Dataset:
    """Unit-norm k-sparse synthesis samples in a random unit-column dictionary.

    The dictionary depends only on the seed; see generate_subspace_data
    for the offset convention.
    """
    if not 1 <= k <= dict_size:
        raise ValueError(f"need 1 <= k <= dict_size, got k={k}")
    if N < 1:
        raise ValueError("need N >= 1")
    A = _basis_rng(seed).standard_normal((n, dict_size))
    A /= np.linalg.norm(A, axis=0)
    samples = np.empty((N, n))
    for i in range(N):
        rng = _sample_rng(seed, offset + i)
        support = rng.choice(dict_size, size=k, replace=False)
        x = A[:, support] @ rng.standard_normal(k)
        samples[i] = x / np.linalg.norm(x)
    return Dataset(
        n=n,
        kind="sparse",
        samples=samples,
        seed=seed,
        params={"dict_size": dict_size, "k": k},
    )


def add_noise(x, sigma: float, seed: int = 0) -> np.ndarray:
    """y_i = x_i + v_i with i.i.d. N(0, sigma^2) coordinates, seeded per row."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if sigma == 0.0:
        out = X.copy()
    else:
        out = np.empty_like(X)
        for i in range(X.shape[0]):
            out[i] = X[i] + sigma * _sample_rng(seed, i).standard_normal(X.shape[1])
    return out[0] if single else out


def noisy_split(make, N: int, sigma: float, seed: int, tag: int, test: bool = False):
    """A split (clean, clean.samples + v) with clean = make(N, (seed, tag),
    offset): offset 0, or TEST_OFFSET when held out (test), and noise
    seeded (seed, tag + 2), or (seed, tag + 3) when held out."""
    clean = make(N, (seed, tag), TEST_OFFSET if test else 0)
    return clean, add_noise(clean.samples, sigma, seed=(seed, tag + 3 if test else tag + 2))


def sample_correlation(dataset: Dataset) -> np.ndarray:
    """C_x = (1/N) sum_i x_i x_i^H."""
    if dataset.N < 1:
        raise ValueError("empty dataset")
    X = dataset.samples
    return (X.T @ X) / dataset.N


def save_dataset(dataset: Dataset, path) -> None:
    """SUND1 container: header, kind params, float64 payload, trailing CRC32."""
    seed = dataset.seed
    if not isinstance(seed, (int, np.integer)) or not -(2**63) <= seed < 2**63:
        raise ValueError(f"SUND1 stores one int64 seed word; cannot store seed {seed!r}")
    body = [MAGIC, struct.pack("<2IB", dataset.n, dataset.N, _KIND_CODES[dataset.kind])]
    names = _PARAM_NAMES[dataset.kind]
    body.append(struct.pack(_HEADER_TAIL[dataset.kind], seed,
                            *(dataset.params[k] for k in names)))
    body.append(np.ascontiguousarray(dataset.samples, dtype="<f8").tobytes())
    blob = b"".join(body)
    with open(path, "wb") as f:
        f.write(blob + struct.pack("<I", zlib.crc32(blob)))


def load_dataset(path) -> Dataset:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise DatasetHeaderError("not a SUND1 dataset container")
    if len(blob) < _MIN_SIZE:
        raise DatasetTruncatedError(f"file ends at {len(blob)} bytes, inside the header")
    payload, trailer = blob[:-4], blob[-4:]
    off = len(MAGIC)
    n, N, code = struct.unpack_from("<2IB", payload, off)
    off += 9
    if code not in _KIND_NAMES:
        raise DatasetHeaderError(f"unknown dataset kind code {code}")
    kind = _KIND_NAMES[code]
    tail = _HEADER_TAIL[kind]
    if len(payload) < off + struct.calcsize(tail):
        raise DatasetTruncatedError(f"file ends at {len(blob)} bytes, inside the header")
    seed, *words = struct.unpack_from(tail, payload, off)
    off += struct.calcsize(tail)
    params = dict(zip(_PARAM_NAMES[kind], words))
    expected = off + 8 * n * N
    if len(payload) < expected:
        raise DatasetTruncatedError(
            f"payload ends at {len(payload)} bytes, expected {expected + 4}"
        )
    if len(payload) > expected:
        raise DatasetHeaderError("trailing bytes after declared payload")
    if struct.unpack("<I", trailer)[0] != zlib.crc32(payload):
        raise DatasetChecksumError("CRC32 mismatch")
    samples = (
        np.frombuffer(payload, dtype="<f8", count=n * N, offset=off)
        .reshape(N, n)
        .copy()
    )
    return Dataset(n=n, kind=kind, samples=samples, seed=seed, params=params)
