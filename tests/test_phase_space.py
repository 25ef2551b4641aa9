"""Gaussian subcarrier statistics and the unitary transform pair."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcqkd.phase_space import (
    ComplexGaussianVector,
    dft,
    inverse_dft,
    sample_gaussian_vector,
)
from oracles import dft_direct


def test_sample_shape_and_type():
    v = sample_gaussian_vector(64, 2.0, seed=0)
    assert isinstance(v, ComplexGaussianVector)
    assert len(v) == 64
    assert v.samples.dtype == np.complex128
    assert v.variance == 2.0


def test_sampling_is_seed_deterministic():
    a = sample_gaussian_vector(32, 1.5, seed=42)
    b = sample_gaussian_vector(32, 1.5, seed=42)
    assert_allclose(a.samples, b.samples)
    c = sample_gaussian_vector(32, 1.5, seed=43)
    assert not np.allclose(a.samples, c.samples)


def test_variance_convention_complex_and_per_quadrature():
    # E|z|^2 -> sigma^2, each quadrature carries sigma^2 / 2
    sigma2 = 3.0
    v = sample_gaussian_vector(200_000, sigma2, seed=7)
    assert abs(np.mean(np.abs(v.samples) ** 2) - sigma2) < 0.05
    assert abs(np.var(v.samples.real) - sigma2 / 2) < 0.05
    assert abs(np.var(v.samples.imag) - sigma2 / 2) < 0.05
    assert abs(np.mean(v.samples)) < 0.02


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 64])
def test_constant_vector_maps_to_scaled_impulse(n):
    c = 0.7 - 0.2j
    v = ComplexGaussianVector(np.full(n, c), variance=1.0)
    d = inverse_dft(v)
    expected = np.zeros(n, dtype=complex)
    expected[0] = np.sqrt(n) * c
    assert_allclose(d.samples, expected, atol=1e-12)


def test_impulse_spreads_evenly_n4():
    d = ComplexGaussianVector(np.array([1.0, 0, 0, 0], dtype=complex), variance=1.0)
    z = dft(d)
    assert_allclose(z.samples, np.full(4, 0.5 + 0j), atol=1e-12)


@pytest.mark.parametrize("n", [2, 5, 16, 33, 128])
def test_parseval_energy_preserved(n):
    rng = np.random.default_rng(n)
    z = ComplexGaussianVector(
        rng.normal(size=n) + 1j * rng.normal(size=n), variance=2.0
    )
    d = inverse_dft(z)
    energy_in = np.sum(np.abs(z.samples) ** 2)
    energy_out = np.sum(np.abs(d.samples) ** 2)
    assert abs(energy_in - energy_out) < 1e-10


@pytest.mark.parametrize("n", [1, 4, 10, 31])
def test_round_trip_identity(n):
    rng = np.random.default_rng(100 + n)
    z = ComplexGaussianVector(
        rng.normal(size=n) + 1j * rng.normal(size=n), variance=1.0
    )
    back = dft(inverse_dft(z))
    assert_allclose(back.samples, z.samples, atol=1e-12)


@pytest.mark.parametrize("n", [3, 7, 12])
def test_transforms_match_direct_sums(n):
    rng = np.random.default_rng(n * 11)
    samples = rng.normal(size=n) + 1j * rng.normal(size=n)
    z = ComplexGaussianVector(samples, variance=1.0)
    assert_allclose(inverse_dft(z).samples, dft_direct(samples, -1), atol=1e-12)
    d = ComplexGaussianVector(samples, variance=1.0)
    assert_allclose(dft(d).samples, dft_direct(samples, +1), atol=1e-12)


def test_variance_carried_through_transform():
    v = sample_gaussian_vector(16, 4.0, seed=3)
    assert inverse_dft(v).variance == 4.0


@pytest.mark.parametrize(
    "samples,variance",
    [
        (np.zeros((2, 2), dtype=complex), 1.0),  # not 1-d
        (np.array([], dtype=complex), 1.0),  # empty
        (np.array([1.0 + 0j]), 0.0),  # variance must be positive
        (np.array([1.0 + 0j]), -1.0),
    ],
)
def test_vector_validation(samples, variance):
    with pytest.raises(ValueError):
        ComplexGaussianVector(samples, variance)


def test_bad_sample_count_rejected():
    with pytest.raises(ValueError):
        sample_gaussian_vector(0, 1.0, seed=1)
    with pytest.raises(ValueError):
        sample_gaussian_vector(8, -2.0, seed=1)
