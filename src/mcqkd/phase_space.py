"""Phase-space vectors and the unitary single-carrier/subcarrier transform pair.

A phase-space point is stored as one complex number: the real part is the
position quadrature, the imaginary part the momentum quadrature.  A vector of
``n`` points models ``n`` Gaussian sub-channels worth of modulation.

Variance convention (used consistently across the package): ``variance`` is
the complex variance ``E[|z|^2]``.  Under circular symmetry each quadrature
then carries ``variance / 2``.

Transform convention: the subcarrier map uses the negative-exponent kernel

    d_i = (1/sqrt(n)) * sum_k z_k * exp(-1j*2*pi*i*k/n)

with symmetric ``1/sqrt(n)`` normalisation, and ``dft`` is its exact inverse
(positive exponent).  Both directions are unitary, so norms and Gaussian
statistics are preserved to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _validate_vector(samples: np.ndarray, variance: float) -> np.ndarray:
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 1 or samples.size < 1:
        raise ValueError("samples must be a non-empty one-dimensional vector")
    if not variance > 0:
        raise ValueError(f"variance must be positive, got {variance}")
    return samples


@dataclass(frozen=True)
class ComplexGaussianVector:
    """A block of circular symmetric complex Gaussian samples, either
    single-carrier samples or the subcarriers obtained from them by
    :func:`inverse_dft`.

    ``variance`` is the declared complex variance E[|z_j|^2]; the per
    quadrature variance is half of it.
    """

    samples: np.ndarray
    variance: float

    def __post_init__(self):
        object.__setattr__(self, "samples", _validate_vector(self.samples, self.variance))

    def __len__(self) -> int:
        return self.samples.size


def sample_gaussian_vector(n: int, variance: float, seed: int) -> ComplexGaussianVector:
    """Draw ``n`` i.i.d. circular symmetric complex Gaussian samples.

    Each quadrature is N(0, variance/2), so E[|z_j|^2] = variance and the
    quadratures are uncorrelated.  Identical ``seed`` gives identical output.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not variance > 0:
        raise ValueError(f"variance must be positive, got {variance}")
    rng = np.random.default_rng(seed)
    quads = rng.normal(0.0, np.sqrt(variance / 2.0), size=(2, n))
    return ComplexGaussianVector(quads[0] + 1j * quads[1], float(variance))


def inverse_dft(z: ComplexGaussianVector) -> ComplexGaussianVector:
    """Map single-carrier samples ``z`` to subcarriers.

    Computes d_i = (1/sqrt(n)) * sum_k z_k * exp(-1j*2*pi*i*k/n); a constant
    input vector therefore maps to a single nonzero entry at index 0.  The
    squared norm of the subcarriers equals that of ``z`` (unitarity).
    """
    d = np.fft.fft(z.samples, norm="ortho")
    return ComplexGaussianVector(d, z.variance)


def dft(d: ComplexGaussianVector) -> ComplexGaussianVector:
    """Map subcarriers ``d`` back to single-carrier samples (positive-exponent
    kernel, ``1/sqrt(n)`` normalised); exact inverse of :func:`inverse_dft`."""
    z = np.fft.ifft(d.samples, norm="ortho")
    return ComplexGaussianVector(z, d.variance)
