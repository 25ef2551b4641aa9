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

All probabilities computed from power laws lie in [0, 1], clamped wherever
the expression could leave that interval.

Validation happens once per table: :func:`tradeoff_curve` checks Z, l, g
and the dimensions (that l * Z and K_in * K_out fit a double included)
before any grid point, then each point against the curve's multiplex-ratio
domain, and :func:`perr_rows` checks the multiplex ratio and every l before
any snr, then each snr >= 1.  Every cell is then a plain scalar
expression, the same one the single-point functions (``tradeoff_single``,
``tradeoff_multiaccess``, ``perr_single``, ``perr_amqd``, ...) evaluate
after their own checks.

The module needs only the standard library, so the CLI's table subcommands
load it without numpy; the log-det rate of a transmittance matrix lives
beside the matrix in :mod:`mcqkd.singular_layer`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError

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


def _check_l(l: int) -> None:
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")


def _check_scale(l: int, z_exponent: float) -> None:
    # an int compares with a float exactly, so l converts only once it fits;
    # l > max / Z alone misses a product that rounds up past max
    if not (l <= sys.float_info.max and l * z_exponent <= sys.float_info.max):
        raise ValueError("l * z_exponent must fit a double")


def _check_multiplex_ratio(multiplex_ratio: float) -> None:
    if not 0.0 <= multiplex_ratio <= 1.0:
        raise ValueError(f"multiplex_ratio must lie in [0, 1], got {multiplex_ratio}")


@dataclass(frozen=True)
class OutageParams:
    """Parameters of a power-law outage evaluation."""

    snr: float
    multiplex_ratio: float
    l: int = 1

    def __post_init__(self):
        if not self.snr > 0:
            raise ValueError(f"snr must be positive, got {self.snr}")
        _check_multiplex_ratio(self.multiplex_ratio)
        _check_l(self.l)


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
    """A sampled diversity-multiplexing curve, as :func:`tradeoff_curve`
    builds it: a known kind and a non-empty tuple of (sigma, delta) float
    pairs with delta >= 0."""

    kind: str
    params: dict
    points: tuple


def _clamp_probability(p: float) -> float:
    return min(max(p, 0.0), 1.0)


def require_unit_snr(snr: float) -> None:
    """Raise :class:`DomainError` unless snr >= 1, where the power laws hold."""
    if not snr >= 1.0:
        raise DomainError(f"power-law outage needs snr >= 1, got {snr}")


def _perr_exponent(multiplex_ratio: float, l: int = 1) -> float:
    """The power of snr in the outage power law, -(l * (1 - multiplex_ratio))."""
    return -(l * (1.0 - multiplex_ratio))


def perr_single(p: OutageParams) -> float:
    """Single-carrier outage power law snr ** -(1 - multiplex_ratio)."""
    require_unit_snr(p.snr)
    return _clamp_probability(p.snr ** _perr_exponent(p.multiplex_ratio))


def perr_amqd(p: OutageParams) -> float:
    """Multicarrier outage power law snr ** -(l * (1 - multiplex_ratio)):
    the l active sub-channels multiply the decay exponent."""
    require_unit_snr(p.snr)
    return _clamp_probability(p.snr ** _perr_exponent(p.multiplex_ratio, p.l))


def perr_rows(snr_grid, multiplex_ratio: float, l_values) -> list[tuple]:
    """The outage power-law table: for each snr of ``snr_grid`` one row
    holding :func:`perr_single` and then :func:`perr_amqd` at each l of
    ``l_values``, with the same values.

    ``multiplex_ratio`` and every l are checked once, with the messages of
    :class:`OutageParams`, before any snr; each snr must be >= 1.
    """
    _check_multiplex_ratio(multiplex_ratio)
    for l in l_values:
        _check_l(l)
    exponents = [_perr_exponent(multiplex_ratio, l) for l in (1, *l_values)]
    # snr >= 1 and every exponent <= 0, so each cell already lies in [0, 1]
    rows = []
    for snr in snr_grid:
        require_unit_snr(snr)
        rows.append(tuple([snr**e for e in exponents]))
    return rows


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


def _linear_deltas(grid, scale: float, damping: float, *, zero_ratio: bool = True) -> list:
    """scale * (1 - sigma) * damping at each sigma of ``grid``, which must lie
    in [0, 1], or in (0, 1] without ``zero_ratio``.  The single-carrier,
    multicarrier and g-scaled tradeoffs are this line with scale Z or l * Z
    and damping 1 or 1 - g."""
    for s in grid:
        if not 0.0 <= s <= 1.0 or not (zero_ratio or s > 0.0):
            interval = "[0, 1]" if zero_ratio else "(0, 1]"
            raise DomainError(f"multiplex_ratio must lie in {interval}, got {s}")
    return [scale * (1.0 - s) * damping for s in grid]


def tradeoff_single(multiplex_ratio: float, z_exponent: float = 1.0) -> float:
    """Single-carrier tradeoff Z * (1 - multiplex_ratio) on 0 < ratio <= 1."""
    _check_z_exponent(z_exponent)
    return _linear_deltas([multiplex_ratio], z_exponent, 1.0, zero_ratio=False)[0]


def tradeoff_multicarrier(
    multiplex_ratio: float, z_exponent: float = 1.0, l: int = 1
) -> float:
    """Multicarrier tradeoff l * Z * (1 - multiplex_ratio) on 0 <= ratio <= 1."""
    _check_z_exponent(z_exponent)
    _check_l(l)
    _check_scale(l, z_exponent)
    return _linear_deltas([multiplex_ratio], l * z_exponent, 1.0)[0]


def tradeoff_g_scaled(
    multiplex_ratio: float, z_exponent: float = 1.0, g_scale: float = 0.0
) -> float:
    """Single-carrier tradeoff damped by an interference scale g:
    Z * (1 - multiplex_ratio) * (1 - g)."""
    _check_z_exponent(z_exponent)
    _check_g_scale(g_scale)
    return _linear_deltas([multiplex_ratio], z_exponent, 1.0 - g_scale)[0]


def _check_dims(k_in: int, k_out: int) -> None:
    if k_in < 1 or k_out < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {k_in} x {k_out}")


def _check_knots(k_in: int, k_out: int) -> None:
    # the largest knot value (K_in - i) * (K_out - i) is the first, K_in * K_out
    if not k_in * k_out <= sys.float_info.max:
        raise ValueError("K_in * K_out must fit a double")


def _complement_deltas(grid, k_in: int, k_out: int) -> list:
    """(K_in - sigma) * (K_out - sigma) at each sigma of ``grid``, which must
    lie in [0, min(K_in, K_out)]; the dimensions are checked by the caller."""
    top = min(k_in, k_out)
    for s in grid:
        if not 0.0 <= s <= top:
            raise DomainError(f"multiplex_ratio must lie in [0, {top}], got {s}")
    return [(k_in - s) * (k_out - s) for s in grid]


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
    _check_knots(k_in, k_out)
    n_perp = _complement_deltas([multiplex_ratio], k_in, k_out)[0]
    s = multiplex_ratio
    dim_m = k_in * s + (k_out - s) * s
    return ManifoldDims(dim_m, n_perp, float(k_in * k_out))


def perr_rank_outage(
    k_in: int, k_out: int, multiplex_ratio: float, snr: float
) -> float:
    """Outage power law of losing rank below the multiplex target:
    snr ** -((K_in - sigma) * (K_out - sigma))."""
    require_unit_snr(snr)
    dims = manifold_dims(k_in, k_out, multiplex_ratio)
    return _clamp_probability(snr**-dims.n_dim_perp)


def _multiaccess_deltas(grid, k_in: int, k_out: int) -> list:
    """The multiple-access tradeoff at each sigma >= 0 of ``grid``; the
    dimensions, and for K_in <= K_out that the knots fit a double, are
    checked by the caller.

    Between the knots i and i + 1 around sigma the value is
    (v_(i+1) - v_i) * t + v_i at the exact offset t = sigma - i, and v_i at
    t = 0: np.interp(t, (0, 1), (v_i, v_(i+1))) rounds the same way, and the
    full knot list is never built.
    """
    for s in grid:
        if not s >= 0:
            raise DomainError(f"multiplex_ratio must be >= 0, got {s}")
    if k_in > k_out:
        return [max(0.0, 2.0 * (2.0 - s)) for s in grid]
    values = []
    for s in grid:
        if s >= k_in:  # min(K_in, K_out), the last knot
            values.append(0.0)
            continue
        i = math.floor(s)
        v0 = float((k_in - i) * (k_out - i))
        t = s - i
        values.append((float((k_in - i - 1) * (k_out - i - 1)) - v0) * t + v0 if t else v0)
    return values


def tradeoff_multiaccess(k_in: int, k_out: int, multiplex_ratio: float) -> float:
    """Multiple-access tradeoff.

    With more transmitters than receiver modes (K_in > K_out) the curve is
    2 * (2 - sigma) clamped at zero.  Otherwise it is the piecewise-linear
    interpolation through the integer knots (i, (K_in - i) * (K_out - i)),
    i = 0..min(K_in, K_out), and zero beyond the last knot.
    """
    _check_dims(k_in, k_out)
    if k_in <= k_out:
        _check_knots(k_in, k_out)
    return _multiaccess_deltas([multiplex_ratio], k_in, k_out)[0]


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
    """Sample one named tradeoff family over a multiplex-ratio grid.

    The family's parameters are checked once, before any grid point, so a
    bad parameter is reported whatever the grid holds; each point is then
    checked against the family's multiplex-ratio domain.
    """
    if kind not in CURVE_KINDS:
        raise ValueError(f"unknown curve kind {kind!r}; choose from {CURVE_KINDS}")
    grid = [float(s) for s in sigma_grid]
    if not grid:
        raise ValueError("sigma_grid must be non-empty")
    if kind in ("single", "multicarrier", "g_scaled"):
        _check_z_exponent(z_exponent)
        if kind == "single":
            params = {"z_exponent": z_exponent}
            values = _linear_deltas(grid, z_exponent, 1.0, zero_ratio=False)
        elif kind == "multicarrier":
            _check_l(l)
            _check_scale(l, z_exponent)
            params = {"z_exponent": z_exponent, "l": l}
            values = _linear_deltas(grid, l * z_exponent, 1.0)
        else:
            _check_g_scale(g_scale)
            params = {"z_exponent": z_exponent, "g_scale": g_scale}
            values = _linear_deltas(grid, z_exponent, 1.0 - g_scale)
        return TradeoffCurve(kind, params, tuple(zip(grid, values)))
    if k_in is None or k_out is None:
        raise ValueError(f"curve kind {kind!r} needs k_in and k_out")
    if kind == "multiaccess_in_gt_out":
        if not k_in > k_out:
            raise ValueError("multiaccess_in_gt_out needs k_in > k_out")
    elif not k_in <= k_out:
        raise ValueError(f"{kind} needs k_in <= k_out")
    _check_dims(k_in, k_out)
    if k_in <= k_out:
        _check_knots(k_in, k_out)
    deltas = _complement_deltas if kind == "orthogonal_complement" else _multiaccess_deltas
    values = deltas(grid, k_in, k_out)
    return TradeoffCurve(kind, {"k_in": k_in, "k_out": k_out}, tuple(zip(grid, values)))
