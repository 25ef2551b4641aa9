"""Diversity-multiplexing tradeoffs, outage power laws and extraction-manifold
dimensions.

The error probability of a scheme that multiplexes a fraction ``sigma`` of the
capacity over Rayleigh-faded sub-channels decays polynomially in SNR; the decay
exponent ("diversity") traded against ``sigma`` gives the tradeoff curves
implemented here:

    single carrier      delta = Z * (1 - sigma)            0 < sigma <= 1
    multicarrier        delta = l * Z * (1 - sigma)        0 <= sigma <= 1
    g-scaled            delta = Z * (1 - sigma) * (1 - g)  0 <= g < 1
    multiaccess, K_in > K_out   delta = max(0, 2 * (2 - sigma))
    multiaccess, K_in <= K_out  piecewise linear through ((i, (K_in-i)*(K_out-i)))

All probabilities computed from power laws are clamped to [0, 1].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateInputError, DomainError
from .singular_layer import TransmittanceMatrix

CURVE_KINDS = (
    "single",
    "multicarrier",
    "g_scaled",
    "multiaccess_in_gt_out",
    "multiaccess_in_le_out",
    "orthogonal_complement",
)


def _check_z_exponent(z_exponent: float) -> None:
    if not (math.isfinite(z_exponent) and z_exponent >= 1.0):
        raise ValueError(f"z_exponent must be finite and >= 1, got {z_exponent}")


def _check_g_scale(g_scale: float) -> None:
    if not math.isfinite(g_scale):
        raise ValueError(f"g_scale must be finite, got {g_scale}")
    if not 0.0 <= g_scale < 1.0:
        raise DomainError(f"g_scale must lie in [0, 1), got {g_scale}")


@dataclass(frozen=True)
class OutageParams:
    """Parameters of a power-law outage evaluation."""

    snr: float
    multiplex_ratio: float
    l: int = 1

    def __post_init__(self):
        if not self.snr > 0:
            raise ValueError(f"snr must be positive, got {self.snr}")
        if not 0.0 <= self.multiplex_ratio <= 1.0:
            raise ValueError(
                f"multiplex_ratio must lie in [0, 1], got {self.multiplex_ratio}"
            )
        if self.l < 1:
            raise ValueError(f"l must be >= 1, got {self.l}")


@dataclass(frozen=True)
class ManifoldDims:
    """Dimension split of the extraction manifold inside the full
    K_in x K_out search space: the manifold itself, its orthogonal
    complement, and the total."""

    dim_m: float
    n_dim_perp: float
    dim_s: float


class ExponentialOutage(NamedTuple):
    q_form: float
    exp_form: float


@dataclass(frozen=True)
class TradeoffCurve:
    """A sampled diversity-multiplexing curve."""

    kind: str
    params: dict
    points: tuple

    def __post_init__(self):
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}")
        pts = tuple((float(s), float(d)) for s, d in self.points)
        if not pts:
            raise ValueError("a tradeoff curve needs at least one point")
        if any(d < 0 for _, d in pts):
            raise ValueError("diversity values must be non-negative")
        object.__setattr__(self, "points", pts)


def _clamp_probability(p: float) -> float:
    return min(max(p, 0.0), 1.0)


def require_unit_snr(snr: float) -> None:
    """Raise :class:`DomainError` unless snr >= 1, where the power laws hold."""
    if snr < 1.0:
        raise DomainError(f"power-law outage needs snr >= 1, got {snr}")


def perr_single(p: OutageParams) -> float:
    """Single-carrier outage power law snr ** -(1 - multiplex_ratio)."""
    require_unit_snr(p.snr)
    return _clamp_probability(p.snr ** -(1.0 - p.multiplex_ratio))


def perr_amqd(p: OutageParams) -> float:
    """Multicarrier outage power law snr ** -(l * (1 - multiplex_ratio)):
    the l active sub-channels multiply the decay exponent."""
    require_unit_snr(p.snr)
    return _clamp_probability(p.snr ** -(p.l * (1.0 - p.multiplex_ratio)))


def perr_exponential_outage(secret_rate: float, snr: float) -> ExponentialOutage:
    """Outage of an exponentially faded sub-channel against a fixed rate.

    Returns the linear form (2**secret_rate - 1)/snr and the exponential form
    1 - exp(-(2**secret_rate - 1)/snr); the two coincide as snr grows.
    """
    if not secret_rate >= 0:
        raise ValueError(f"secret_rate must be >= 0, got {secret_rate}")
    if not snr > 0:
        raise ValueError(f"snr must be positive, got {snr}")
    x = (2.0**secret_rate - 1.0) / snr
    return ExponentialOutage(_clamp_probability(x), -math.expm1(-x))


def manifold_exponent(perr_fn: Callable[[float], float], snr_grid) -> float:
    """Finite-SNR estimate of the diversity exponent of ``perr_fn``.

    The asymptotic definition normalises -log2(p_err) by the per-eigenchannel
    rate share, which itself scales as log2(snr); at that scaling the estimate
    reduces to the least-squares slope of -log2(p_err) against log2(snr),
    which is what is computed.
    """
    grid = np.asarray(snr_grid, dtype=float)
    if grid.size < 3:
        raise ValueError("snr_grid needs at least three points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("snr_grid must be strictly increasing")
    if np.any(grid <= 1.0):
        raise DomainError("snr_grid values must exceed 1")
    perr = np.array([float(perr_fn(s)) for s in grid])
    if np.any(perr <= 0):
        raise DegenerateInputError("perr_fn returned 0; exponent undefined")
    slope = np.polyfit(np.log2(grid), -np.log2(perr), 1)[0]
    return float(slope)


def tradeoff_single(multiplex_ratio: float, z_exponent: float = 1.0) -> float:
    """Single-carrier tradeoff Z * (1 - multiplex_ratio) on 0 < ratio <= 1."""
    if not 0.0 < multiplex_ratio <= 1.0:
        raise DomainError(
            f"multiplex_ratio must lie in (0, 1], got {multiplex_ratio}"
        )
    _check_z_exponent(z_exponent)
    return z_exponent * (1.0 - multiplex_ratio)


def tradeoff_multicarrier(
    multiplex_ratio: float, z_exponent: float = 1.0, l: int = 1
) -> float:
    """Multicarrier tradeoff l * Z * (1 - multiplex_ratio) on 0 <= ratio <= 1."""
    if not 0.0 <= multiplex_ratio <= 1.0:
        raise DomainError(
            f"multiplex_ratio must lie in [0, 1], got {multiplex_ratio}"
        )
    _check_z_exponent(z_exponent)
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    return l * z_exponent * (1.0 - multiplex_ratio)


def tradeoff_g_scaled(
    multiplex_ratio: float, z_exponent: float = 1.0, g_scale: float = 0.0
) -> float:
    """Single-carrier tradeoff damped by an interference scale g:
    Z * (1 - multiplex_ratio) * (1 - g)."""
    if not 0.0 <= multiplex_ratio <= 1.0:
        raise DomainError(
            f"multiplex_ratio must lie in [0, 1], got {multiplex_ratio}"
        )
    _check_z_exponent(z_exponent)
    _check_g_scale(g_scale)
    return z_exponent * (1.0 - multiplex_ratio) * (1.0 - g_scale)


def _check_dims(k_in: int, k_out: int) -> None:
    if k_in < 1 or k_out < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {k_in} x {k_out}")


def manifold_dims(k_in: int, k_out: int, multiplex_ratio: float) -> ManifoldDims:
    """Dimension of the extraction manifold and of its orthogonal complement
    at multiplex ratio sigma:

        dim_m      = K_in * sigma + (K_out - sigma) * sigma
        n_dim_perp = (K_in - sigma) * (K_out - sigma)

    and the two always add up to the full search-space dimension
    K_in * K_out.
    """
    _check_dims(k_in, k_out)
    if k_in > k_out:
        raise ValueError(f"expected K_in <= K_out, got {k_in} > {k_out}")
    if not 0.0 <= multiplex_ratio <= min(k_in, k_out):
        raise DomainError(
            f"multiplex_ratio must lie in [0, {min(k_in, k_out)}], got {multiplex_ratio}"
        )
    s = multiplex_ratio
    dim_m = k_in * s + (k_out - s) * s
    n_perp = (k_in - s) * (k_out - s)
    return ManifoldDims(dim_m, n_perp, float(k_in * k_out))


def perr_rank_outage(
    k_in: int, k_out: int, multiplex_ratio: float, snr: float
) -> float:
    """Outage power law of losing rank below the multiplex target:
    snr ** -((K_in - sigma) * (K_out - sigma))."""
    require_unit_snr(snr)
    dims = manifold_dims(k_in, k_out, multiplex_ratio)
    return _clamp_probability(snr**-dims.n_dim_perp)


def tradeoff_multiaccess(k_in: int, k_out: int, multiplex_ratio: float) -> float:
    """Multiple-access tradeoff.

    With more transmitters than receiver modes (K_in > K_out) the curve is
    2 * (2 - sigma) clamped at zero.  Otherwise it is the piecewise-linear
    interpolation through the integer knots (i, (K_in - i) * (K_out - i)),
    i = 0..min(K_in, K_out), and zero beyond the last knot.
    """
    _check_dims(k_in, k_out)
    if not multiplex_ratio >= 0:
        raise DomainError(f"multiplex_ratio must be >= 0, got {multiplex_ratio}")
    if k_in > k_out:
        return max(0.0, 2.0 * (2.0 - multiplex_ratio))
    # the largest knot value is the first, K_in * K_out
    if not k_in * k_out <= sys.float_info.max:
        raise ValueError("K_in * K_out must fit a double")
    if multiplex_ratio >= min(k_in, k_out):
        return 0.0
    # only the knots i and i + 1 around sigma; np.interp on the offset
    # sigma - i (exact) rounds as it does on the full knot list
    i = math.floor(multiplex_ratio)
    values = [float((k_in - j) * (k_out - j)) for j in (i, i + 1)]
    return float(np.interp(multiplex_ratio - i, (0.0, 1.0), values))


def interference_reduced_rate(secret_rate: float, r: float, k_in: int) -> float:
    """Achievable per-user rate once K_in - 1 interferers share the medium:
    r * secret_rate / (r + K_in - 1)."""
    if not secret_rate >= 0:
        raise ValueError(f"secret_rate must be >= 0, got {secret_rate}")
    if not r >= 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if k_in < 1:
        raise ValueError(f"k_in must be >= 1, got {k_in}")
    return r * secret_rate / (r + k_in - 1.0)


def interference_outage_threshold(
    multiplex_ratio: float, r: float, k_in: int, private_capacity: float
) -> float:
    """Outage-rate threshold matching :func:`interference_reduced_rate`:
    multiplex_ratio * (r + K_in - 1) / r * private_capacity."""
    if not multiplex_ratio >= 0:
        raise ValueError(f"multiplex_ratio must be >= 0, got {multiplex_ratio}")
    if not r >= 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if k_in < 1:
        raise ValueError(f"k_in must be >= 1, got {k_in}")
    if not private_capacity >= 0:
        raise ValueError(f"private_capacity must be >= 0, got {private_capacity}")
    return multiplex_ratio * (r + k_in - 1.0) / r * private_capacity


def log_det_rate(m: TransmittanceMatrix, snr: float) -> float:
    """Rate of the full matrix channel with isotropic input covariance
    (snr / K_in) * I:  log2 det(I + F K_o F^dagger).

    Equals the sum over eigenchannels of log2(1 + (snr / K_in) * lambda_i^2).
    """
    if not snr > 0:
        raise ValueError(f"snr must be positive, got {snr}")
    f = m.entries
    gram = np.eye(m.k_out) + (snr / m.k_in) * (f @ f.conj().T)
    sign, logdet = np.linalg.slogdet(gram)
    if sign.real <= 0:
        raise DegenerateInputError("log-det argument is not positive definite")
    return float(logdet / math.log(2.0))


def tradeoff_curve(
    kind: str,
    sigma_grid,
    *,
    z_exponent: float = 1.0,
    l: int = 1,
    g_scale: float = 0.0,
    k_in: int | None = None,
    k_out: int | None = None,
) -> TradeoffCurve:
    """Sample one named tradeoff family over a multiplex-ratio grid."""
    if kind not in CURVE_KINDS:
        raise ValueError(f"unknown curve kind {kind!r}; choose from {CURVE_KINDS}")
    grid = [float(s) for s in np.atleast_1d(np.asarray(sigma_grid, dtype=float))]
    if not grid:
        raise ValueError("sigma_grid must be non-empty")
    params: dict = {}
    if kind == "single":
        params = {"z_exponent": z_exponent}
        values = [tradeoff_single(s, z_exponent) for s in grid]
    elif kind == "multicarrier":
        params = {"z_exponent": z_exponent, "l": l}
        values = [tradeoff_multicarrier(s, z_exponent, l) for s in grid]
    elif kind == "g_scaled":
        params = {"z_exponent": z_exponent, "g_scale": g_scale}
        values = [tradeoff_g_scaled(s, z_exponent, g_scale) for s in grid]
    else:
        if k_in is None or k_out is None:
            raise ValueError(f"curve kind {kind!r} needs k_in and k_out")
        params = {"k_in": k_in, "k_out": k_out}
        if kind == "multiaccess_in_gt_out":
            if not k_in > k_out:
                raise ValueError("multiaccess_in_gt_out needs k_in > k_out")
            values = [tradeoff_multiaccess(k_in, k_out, s) for s in grid]
        elif kind == "multiaccess_in_le_out":
            if not k_in <= k_out:
                raise ValueError("multiaccess_in_le_out needs k_in <= k_out")
            values = [tradeoff_multiaccess(k_in, k_out, s) for s in grid]
        else:
            if not k_in <= k_out:
                raise ValueError("orthogonal_complement needs k_in <= k_out")
            values = [manifold_dims(k_in, k_out, s).n_dim_perp for s in grid]
    return TradeoffCurve(kind, params, tuple(zip(grid, values)))
