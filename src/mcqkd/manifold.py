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

All probabilities computed from power laws lie in [0, 1]: snr >= 1 and the
exponent is <= 0.

Validation happens once per table: :func:`tradeoff_curve` checks Z, l, g
and the dimensions (each, l * Z and K_in * K_out must fit a double)
before any grid point, then that each point fits a double and lies in the
curve's multiplex-ratio domain, and :func:`perr_rows` checks the multiplex
ratio and that every l and snr is finite and fits a double before any
row, then each snr >= 1.
Every cell is then a plain scalar expression.  The single-point functions
``tradeoff_multiaccess``, ``manifold_dims``, ``perr_single`` and
``perr_amqd`` are one-point calls of these tables; :class:`OutageParams`
takes only a finite snr.

The module needs only the standard library, and its records are
``NamedTuple`` classes rather than dataclasses (``dataclasses`` imports
``inspect``), so the CLI's table subcommands load it without numpy and
without ``inspect``.  :class:`OutageParams` checks its fields in ``__new__``.
"""

from __future__ import annotations

import math
import sys
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


def _check_l(l: int) -> None:
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    # not math.isfinite, which raises OverflowError for an int beyond the
    # double range: the callers name that fault themselves
    if not l < math.inf:
        raise ValueError(f"l must be finite, got {l}")


def _to_double(x, name: str, error: type = ValueError) -> float:
    """``float(x)``, or ``error`` "<name> must fit a double" on overflow."""
    try:
        return float(x)
    except OverflowError:
        raise error(f"{name} must fit a double") from None


def _check_multiplex_ratio(multiplex_ratio: float) -> None:
    if not 0.0 <= multiplex_ratio <= 1.0:
        raise ValueError(f"multiplex_ratio must lie in [0, 1], got {multiplex_ratio}")


class _OutageFields(NamedTuple):
    snr: float
    multiplex_ratio: float
    l: int = 1


class OutageParams(_OutageFields):
    """Parameters of a power-law outage evaluation."""

    __slots__ = ()

    def __new__(cls, snr: float, multiplex_ratio: float, l: int = 1):
        if not snr > 0:
            raise ValueError(f"snr must be positive, got {snr}")
        if snr == math.inf:
            raise ValueError(f"snr must be finite, got {snr}")
        _check_multiplex_ratio(multiplex_ratio)
        _check_l(l)
        return super().__new__(cls, snr, multiplex_ratio, l)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``, which skips ``__new__``
        return cls(*iterable)


class ManifoldDims(NamedTuple):
    """Dimension split of the extraction manifold inside the full
    K_in x K_out search space: the manifold itself, its orthogonal
    complement, and the total."""

    dim_m: float
    n_dim_perp: float
    dim_s: float


class TradeoffCurve(NamedTuple):
    """A sampled diversity-multiplexing curve, as :func:`tradeoff_curve`
    builds it: the family's parameters and a non-empty tuple of
    (sigma, delta) float pairs with delta >= 0."""

    params: dict
    points: tuple


def perr_single(p: OutageParams) -> float:
    """Single-carrier outage power law snr ** -(1 - multiplex_ratio)."""
    return perr_rows([p.snr], p.multiplex_ratio, ())[0][0]


def perr_amqd(p: OutageParams) -> float:
    """Multicarrier outage power law snr ** -(l * (1 - multiplex_ratio)):
    the l active sub-channels multiply the decay exponent."""
    return perr_rows([p.snr], p.multiplex_ratio, (p.l,))[0][1]


def perr_rows(snr_grid, multiplex_ratio: float, l_values) -> list[tuple]:
    """The outage power-law table: for each snr of ``snr_grid`` one row
    holding snr ** -(1 - multiplex_ratio) and then
    snr ** -(l * (1 - multiplex_ratio)) at each l of ``l_values``.

    ``multiplex_ratio`` and every l are checked once, with the messages of
    :class:`OutageParams`, before any snr; every snr must be finite and fit
    a double before any row, then each snr must be >= 1, where the power
    laws hold.
    """
    _check_multiplex_ratio(multiplex_ratio)
    for l in l_values:
        _check_l(l)
        _to_double(l, "l")
    snr_grid = list(snr_grid)
    for snr in snr_grid:
        if _to_double(snr, "snr") == math.inf:
            raise ValueError(f"snr must be finite, got {snr}")
    exponents = [-(l * (1.0 - multiplex_ratio)) for l in (1, *l_values)]
    # snr >= 1 and every exponent <= 0, so each cell already lies in [0, 1]
    rows = []
    for snr in snr_grid:
        if not snr >= 1.0:
            raise DomainError(f"power-law outage needs snr >= 1, got {snr}")
        rows.append(tuple([snr**e for e in exponents]))
    return rows


def perr_exponential_outage(secret_rate: float, snr: float) -> tuple[float, float]:
    """Outage of an exponentially faded sub-channel against a fixed rate.

    Returns the linear form (2**secret_rate - 1)/snr and the exponential form
    1 - exp(-(2**secret_rate - 1)/snr); the two coincide as snr grows.
    """
    if not secret_rate >= 0:
        raise ValueError(f"secret_rate must be >= 0, got {secret_rate}")
    if not snr > 0:
        raise ValueError(f"snr must be positive, got {snr}")
    try:
        power = 2.0**secret_rate
    except OverflowError:
        raise ValueError("2**secret_rate must fit a double") from None
    x = (power - 1.0) / _to_double(snr, "snr")  # >= 0
    return min(x, 1.0), -math.expm1(-x)


def manifold_dims(k_in: int, k_out: int, multiplex_ratio: float) -> ManifoldDims:
    """Dimension of the extraction manifold and of its orthogonal complement
    at multiplex ratio sigma:

        dim_m      = K_in * sigma + (K_out - sigma) * sigma
        n_dim_perp = (K_in - sigma) * (K_out - sigma)

    and the two always add up to the full search-space dimension
    K_in * K_out.
    """
    if k_in > k_out:
        raise ValueError(f"expected K_in <= K_out, got {k_in} > {k_out}")
    curve = tradeoff_curve("orthogonal_complement", [multiplex_ratio], k_in=k_in, k_out=k_out)
    ((s, n_perp),) = curve.points
    return ManifoldDims(k_in * s + (k_out - s) * s, n_perp, float(k_in * k_out))


def _multiaccess_deltas(grid, k_in: int, k_out: int) -> list:
    """The K_in <= K_out multiple-access tradeoff at each sigma >= 0 of
    ``grid``; the caller checks the dimensions and that the knots fit a
    double.

    Between the knots i and i + 1 around sigma the value is
    (v_(i+1) - v_i) * t + v_i at the exact offset t = sigma - i, and v_i at
    t = 0: np.interp(t, (0, 1), (v_i, v_(i+1))) rounds the same way, and the
    full knot list is never built.
    """
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
    kind = "multiaccess_in_gt_out" if k_in > k_out else "multiaccess_in_le_out"
    return tradeoff_curve(kind, [multiplex_ratio], k_in=k_in, k_out=k_out).points[0][1]


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
    sigma_grid = list(sigma_grid)
    if not sigma_grid:
        raise ValueError("sigma_grid must be non-empty")
    if kind in ("single", "multicarrier", "g_scaled"):
        _to_double(z_exponent, "z_exponent")
        if not (math.isfinite(z_exponent) and z_exponent >= 1.0):
            raise ValueError(f"z_exponent must be finite and >= 1, got {z_exponent}")
        params, scale, damping = {"z_exponent": z_exponent}, z_exponent, 1.0
        if kind == "multicarrier":
            _check_l(l)
            # an int compares with a float exactly, so l converts only once it
            # fits; l > max / Z alone misses a product that rounds up past max
            if not (l <= sys.float_info.max and l * z_exponent <= sys.float_info.max):
                raise ValueError("l * z_exponent must fit a double")
            params["l"], scale = l, l * z_exponent
        elif kind == "g_scaled":
            if not math.isfinite(_to_double(g_scale, "g_scale")):
                raise ValueError(f"g_scale must be finite, got {g_scale}")
            if not 0.0 <= g_scale < 1.0:
                raise DomainError(f"g_scale must lie in [0, 1), got {g_scale}")
            params["g_scale"], damping = g_scale, 1.0 - g_scale
        top, domain = 1, "lie in (0, 1]" if kind == "single" else "lie in [0, 1]"
    else:
        if k_in is None or k_out is None:
            raise ValueError(f"curve kind {kind!r} needs k_in and k_out")
        if kind == "multiaccess_in_gt_out":
            if not k_in > k_out:
                raise ValueError("multiaccess_in_gt_out needs k_in > k_out")
        elif not k_in <= k_out:
            raise ValueError(f"{kind} needs k_in <= k_out")
        if k_in < 1 or k_out < 1:
            raise ValueError(f"matrix dimensions must be >= 1, got {k_in} x {k_out}")
        # the largest knot value (K_in - i) * (K_out - i) is the first, K_in * K_out
        if kind != "multiaccess_in_gt_out" and not k_in * k_out <= sys.float_info.max:
            raise ValueError("K_in * K_out must fit a double")
        params = {"k_in": k_in, "k_out": k_out}
        if kind == "orthogonal_complement":
            top, domain = k_in, f"lie in [0, {k_in}]"  # k_in = min(K_in, K_out)
        else:
            top, domain = math.inf, "be >= 0"
    grid = [_to_double(s, "multiplex_ratio", DomainError) for s in sigma_grid]
    for s in grid:
        if not 0.0 <= s <= top or (s == 0.0 and kind == "single"):
            raise DomainError(f"multiplex_ratio must {domain}, got {s}")
    if kind == "orthogonal_complement":
        values = [(k_in - s) * (k_out - s) for s in grid]
    elif kind == "multiaccess_in_le_out":
        values = _multiaccess_deltas(grid, k_in, k_out)
    elif kind == "multiaccess_in_gt_out":
        values = [max(0.0, 2.0 * (2.0 - s)) for s in grid]
    else:
        values = [scale * (1.0 - s) * damping for s in grid]
    return TradeoffCurve(params, tuple(zip(grid, values)))
