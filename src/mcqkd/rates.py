"""Capacities and secret key rates of faded Gaussian sub-channels.

Conventions: classical capacities carry the real-domain 1/2 prefactor,

    C = (1/2) * log2(1 + mod_variance * fade_sq / noise_variance),

while the private rates that :func:`rate_report` totals are complex-domain
terms without the 1/2 (both per-channel accessors are provided).
``fade_sq`` always denotes the squared magnitude |F|^2 of a Fourier-domain
transmission coefficient.

The optimal collective attack pushes the usable noise to

    attack_noise = mod_variance / ((mod*fade + input_noise)/(1 + input_noise*mod*fade) - 1)

which only exists while the bracketed term is positive; otherwise the regime
is degenerate and :class:`~mcqkd.errors.DegenerateRegimeError` is raised.  A
tiny ``mod_variance`` over a huge bracket underflows the noise to 0, and a
huge one over a tiny bracket overflows it to inf; either raises
``ValueError``.  :func:`optimal_attack_noise` and :func:`rate_report` share
these checks.

Each scalar function checks its own arguments.  :func:`rate_report` checks
``mod_variance`` and ``gain_c`` once, before any sub-channel, and per row
only what depends on the row: a negative fade, the eavesdropper tap of the
row's transmittance and the attack noise.  Its rates are the expressions
of the scalar functions, so every cell and total rounds as they give it; a
total that is not finite (a boosted variance that overflows, say) raises
``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelModel, eve_transmittance, total_input_noise
from .errors import DegenerateRegimeError

# the per-sub-channel values of a RateReport, in the order each row holds them
SUBCHANNEL_COLUMNS = (
    "fade_sq", "attack_noise", "capacity", "svd_capacity", "private", "svd_private"
)


@dataclass(frozen=True)
class RateReport:
    """Aggregated rates of a channel model: classical and gain-boosted
    capacities (real-domain, with the 1/2), private rates (complex-domain
    sums), and per active sub-channel one row of the values named by
    ``SUBCHANNEL_COLUMNS`` that the totals sum."""

    capacity: float
    svd_capacity: float
    private_capacity: float
    svd_private_capacity: float
    subchannels: tuple

    def __post_init__(self):
        # every cell is >= 0, so an inf cell makes its total inf and a NaN cell NaN
        for name in ("capacity", "svd_capacity", "private_capacity", "svd_private_capacity"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        object.__setattr__(self, "subchannels", tuple(map(tuple, self.subchannels)))


def _check_positive(**kwargs) -> None:
    for name, value in kwargs.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")


def _capacity(mod_variance: float, fade_sq: float, noise_variance: float) -> float:
    return 0.5 * math.log2(1.0 + mod_variance * fade_sq / noise_variance)


def _check_fade_sq(fade_sq: float) -> None:
    if not fade_sq >= 0:
        raise ValueError(f"fade_sq must be >= 0, got {fade_sq}")


def subchannel_capacity(mod_variance: float, fade_sq: float, noise_variance: float) -> float:
    """Classical capacity (1/2) * log2(1 + mod_variance*fade_sq/noise_variance)."""
    _check_positive(mod_variance=mod_variance, noise_variance=noise_variance)
    _check_fade_sq(fade_sq)
    return _capacity(mod_variance, fade_sq, noise_variance)


def _check_gain_c(gain_c: float) -> None:
    if not gain_c > 0:
        raise ValueError(f"gain_c must be > 0, got {gain_c}")


def svd_capacity(
    mod_variance: float, gain_c: float, fade_sq: float, noise_variance: float
) -> float:
    """Capacity with the eigenchannel-compensated modulation variance
    mod_variance * (1 + gain_c)."""
    _check_gain_c(gain_c)
    return subchannel_capacity(mod_variance * (1.0 + gain_c), fade_sq, noise_variance)


def _attack_noise(mod_variance: float, fade_sq: float, input_noise: float) -> float:
    signal = mod_variance * fade_sq
    bracket = (signal + input_noise) / (1.0 + input_noise * signal) - 1.0
    if not bracket > 0:  # NaN too: inf / inf once mod_variance * fade_sq overflows
        raise DegenerateRegimeError(bracket)
    noise = mod_variance / bracket
    # mod_variance / bracket underflows to 0 when a tiny mod_variance meets a
    # huge bracket (an input noise near the top of the double range), and
    # overflows to inf when a huge mod_variance meets a tiny one
    if not noise > 0:
        raise ValueError(
            f"optimal-attack noise underflows to {noise}: mod_variance "
            f"{mod_variance} is too small for the attack bracket"
        )
    if noise == math.inf:
        raise ValueError(
            f"optimal-attack noise overflows to {noise}: mod_variance "
            f"{mod_variance} is too large for the attack bracket"
        )
    return noise


def optimal_attack_noise(mod_variance: float, fade_sq: float, input_noise: float) -> float:
    """Noise variance granted by the optimal collective attack.

    Inverts the bracket (mod*fade + input_noise)/(1 + input_noise*mod*fade) - 1;
    a bracket that is not positive (or NaN) means no finite attack noise
    exists for these parameters and raises :class:`DegenerateRegimeError`
    carrying the value.  A noise that underflows to 0 or overflows to inf
    raises ``ValueError``.
    """
    _check_positive(mod_variance=mod_variance, input_noise=input_noise)
    _check_fade_sq(fade_sq)
    return _attack_noise(mod_variance, fade_sq, input_noise)


def private_capacity(mod_variance: float, fade_sq: float, attack_noise: float) -> float:
    """Private rate under the optimal attack, real-domain form
    (1/2) * log2(1 + mod_variance*fade_sq/attack_noise)."""
    return subchannel_capacity(mod_variance, fade_sq, attack_noise)


def private_capacity_complex(mod_variance: float, fade_sq: float, attack_noise: float) -> float:
    """Complex-domain private rate log2(1 + mod_variance*fade_sq/attack_noise)
    (no 1/2); these are the terms :func:`rate_report`'s private totals sum."""
    return 2.0 * subchannel_capacity(mod_variance, fade_sq, attack_noise)


def rate_report(
    channel: ChannelModel,
    mod_variance: float,
    gain_c: float = 1.0,
    fades_sq=None,
) -> RateReport:
    """Aggregate all four rates over the active sub-channels of a model.

    ``fades_sq`` optionally supplies the squared Fourier-domain gains, one per
    active sub-channel; without it the static |T_i|^2 values are used.  The
    eavesdropper tap and excess noise are always derived from the static
    transmittances.
    """
    for name, value in (("mod_variance", mod_variance), ("gain_c", gain_c)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    active = channel.active
    if fades_sq is None:
        fades_sq = [abs(sub.transmittance) ** 2 for sub in active]
    fades_sq = [float(f) for f in fades_sq]
    if len(fades_sq) != len(active):
        raise ValueError(
            f"expected {len(active)} fade values, got {len(fades_sq)}"
        )
    _check_positive(mod_variance=mod_variance)
    _check_gain_c(gain_c)
    boosted = mod_variance * (1.0 + gain_c)
    # totals add one sub-channel at a time, in order: sum() is compensated from
    # Python 3.12 on and np.sum is pairwise, and either changes the last bits
    capacity = svd = private = svd_private = 0.0
    rows = []
    for sub, fade_sq in zip(active, fades_sq):
        _check_fade_sq(fade_sq)
        # positive: the vacuum variance plus a non-negative excess noise
        input_noise = total_input_noise(
            sub.eve_epr_variance, eve_transmittance(sub.transmittance), channel.vacuum_variance
        )
        noise_star = _attack_noise(mod_variance, fade_sq, input_noise)
        # the expressions of subchannel_capacity, svd_capacity and (twice)
        # private_capacity_complex, so each rate rounds as those give it
        row = (
            fade_sq,
            noise_star,
            _capacity(mod_variance, fade_sq, sub.noise_variance),
            _capacity(boosted, fade_sq, sub.noise_variance),
            2.0 * _capacity(mod_variance, fade_sq, noise_star),
            2.0 * _capacity(boosted, fade_sq, noise_star),
        )
        rows.append(row)
        capacity += row[2]
        svd += row[3]
        private += row[4]
        svd_private += row[5]
    return RateReport(capacity, svd, private, svd_private, tuple(rows))
