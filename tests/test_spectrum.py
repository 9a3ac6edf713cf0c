import numpy as np
import pytest

from proxsure.spectrum import (
    classify,
    dft2_direct,
    low_frequency_energy_ratio,
    spectrum,
    spectrum_csv,
)


def test_delta_kernel_flat_grid():
    delta = np.array([[1.0]])
    grid, _, _ = spectrum([delta], pad=16)
    assert np.array_equal(grid, np.ones((16, 16)))


def test_averaging_kernel_lowpass():
    avg = np.full((3, 3), 1.0 / 9.0)
    grid, label, ratio = spectrum([avg], pad=8)
    assert np.isclose(grid[0, 0], 1.0)
    assert label == "lowpass"
    # DC dominates and the mainlobe decays along the axis (a sidelobe
    # reappears at Nyquist, so decay is only checked up to the first zero)
    assert grid.max() == pytest.approx(grid[0, 0])
    mainlobe = grid[:4, 0]
    assert all(b <= a + 1e-12 for a, b in zip(mainlobe, mainlobe[1:]))


def test_negation_invariance():
    rng = np.random.default_rng(0)
    k = rng.standard_normal((3, 3))
    a, _, _ = spectrum([k], pad=16)
    b, _, _ = spectrum([-k], pad=16)
    assert np.allclose(a, b)


def test_dft_matches_fft_oracle():
    rng = np.random.default_rng(1)
    k = rng.standard_normal((4, 4))
    pad = 16
    padded = np.zeros((pad, pad))
    padded[:4, :4] = k
    assert np.allclose(dft2_direct(k, pad), np.fft.fft2(padded), atol=1e-10)


def test_classify_thresholds():
    assert classify(0.6) == "lowpass"
    assert classify(0.05) == "highpass"
    assert classify(0.3) == "bandpass"


def test_highpass_kernel():
    lap = np.array([[0.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 0.0]])
    _, label, ratio = spectrum([lap], pad=32)
    assert ratio < 0.1 and label == "highpass"


def test_errors():
    with pytest.raises(ValueError):
        spectrum([], pad=8)
    with pytest.raises(ValueError):
        dft2_direct(np.ones((4, 4)), pad=2)
    with pytest.raises(ValueError):
        dft2_direct(np.ones(3), pad=8)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_kernel_entry_is_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        spectrum([np.ones((2, 2)), np.array([[1.0, bad]])], pad=8)


def test_flat_grid_ratio_near_disk_fraction():
    ratio = low_frequency_energy_ratio(np.ones((64, 64)))
    # disk of radius pad/8 holds about pi/64 of the grid
    assert 0.03 <= ratio <= 0.08


def test_csv_shape():
    grid, _, _ = spectrum([np.array([[1.0]])], pad=4)
    text = spectrum_csv(grid)
    rows = text.strip().split("\n")
    assert len(rows) == 4 and all(len(r.split(",")) == 4 for r in rows)
