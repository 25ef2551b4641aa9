"""Gaussian sub-channel model: transmittances, eavesdropper tap and excess
noise.

Each sub-channel i carries a complex transmittance T_i whose real part
(position quadrature) equals its imaginary part (momentum quadrature), with
|T_i|^2 <= 1.  The remainder 1 - |T_i|^2 is tapped by the eavesdropper's beam
splitter.  The fluctuating, Fourier-domain transmission coefficient of a
sub-channel is a zero-mean circular symmetric complex Gaussian, so its squared
magnitude is exponentially distributed (Rayleigh amplitude fading).
:func:`total_input_noise` takes that tap, e = 1 - |T_i|^2, from a checked
:class:`SubchannelParams` and adds to the vacuum variance the excess noise
N = (W - 1) * e / (1 - e) of the eavesdropper's EPR ancilla of variance W.

File format accepted by :func:`load_channel_model` (one record per line):

    # comment lines and blank lines are ignored
    vacuum_variance=1.0        # optional directive, before the records
    active_count=2             # optional directive, defaults to all records
    re_t=0.5 noise_var=1.0 eve_w=1.2
    re_t=0.3, noise_var=0.9, eve_w=1.0

Each directive may be given once.  Record keys may be separated by
whitespace or commas.  ``re_t`` and
``noise_var`` are required, ``eve_w`` is optional and defaults to 1 (a passive
eavesdropper port in the vacuum state).
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .errors import DomainError, input_lines

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_RECORD_KEYS = frozenset(("re_t", "noise_var", "eve_w"))
_REQUIRED_KEYS = frozenset(("re_t", "noise_var"))
_DIRECTIVE_KEYS = frozenset(("vacuum_variance", "active_count"))


class _SubchannelFields(NamedTuple):
    transmittance: complex
    noise_variance: float
    eve_epr_variance: float = 1.0


class SubchannelParams(_SubchannelFields):
    """Static parameters of one Gaussian sub-channel.

    ``transmittance`` must satisfy 0 <= Re T = Im T <= 1/sqrt(2) (hence
    |T|^2 <= 1), ``noise_variance`` is the per-quadrature noise variance of
    the sub-channel and ``eve_epr_variance`` >= 1 is the variance of the
    eavesdropper's EPR ancilla input.  All three must be finite.
    """

    __slots__ = ()

    def __new__(cls, transmittance: complex, noise_variance: float,
                eve_epr_variance: float = 1.0):
        t = complex(transmittance)
        for name, value in (
            ("transmittance real part", t.real),
            ("noise_variance", noise_variance),
            ("eve_epr_variance", eve_epr_variance),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if t.real != t.imag:
            raise ValueError(
                f"transmittance quadratures must be equal, got {t.real} and {t.imag}"
            )
        if not 0.0 <= t.real <= _SQRT_HALF + 1e-15:
            raise ValueError(
                f"transmittance real part must lie in [0, 1/sqrt(2)], got {t.real}"
            )
        if not noise_variance > 0:
            raise ValueError(f"noise_variance must be positive, got {noise_variance}")
        if not eve_epr_variance >= 1.0:
            raise ValueError(f"eve_epr_variance must be >= 1, got {eve_epr_variance}")
        return super().__new__(cls, t, noise_variance, eve_epr_variance)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``, which skips ``__new__``
        return cls(*iterable)

    @classmethod
    def from_real(cls, re_t: float, noise_variance: float, eve_epr_variance: float = 1.0):
        """Build parameters from the shared quadrature transmittance value."""
        return cls(complex(re_t, re_t), noise_variance, eve_epr_variance)


class _ChannelFields(NamedTuple):
    subchannels: tuple
    active_count: int
    vacuum_variance: float = 1.0


class ChannelModel(_ChannelFields):
    """A set of n Gaussian sub-channels of which the first ``active_count``
    (an integer) carry modulation; the inactive remainder is kept for
    bookkeeping but is excluded from every rate and outage sum."""

    __slots__ = ()

    def __new__(cls, subchannels, active_count: int, vacuum_variance: float = 1.0):
        subs = tuple(subchannels)
        if len(subs) < 1:
            raise ValueError("a channel model needs at least one sub-channel")
        try:
            operator.index(active_count)  # what a slice bound must support
        except TypeError:
            raise ValueError(f"active_count must be an integer, got {active_count!r}") from None
        if not 1 <= active_count <= len(subs):
            raise ValueError(
                f"active_count must lie in [1, {len(subs)}], got {active_count}"
            )
        if not math.isfinite(vacuum_variance):
            raise ValueError(f"vacuum_variance must be finite, got {vacuum_variance}")
        if not vacuum_variance > 0:
            raise ValueError(f"vacuum_variance must be positive, got {vacuum_variance}")
        return super().__new__(cls, subs, active_count, vacuum_variance)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def active(self) -> tuple:
        """The sub-channels that carry modulation."""
        return self.subchannels[: self.active_count]


def total_input_noise(sub: SubchannelParams, vacuum_variance: float = 1.0) -> float:
    """Vacuum plus excess noise at the input of ``sub``; N diverges as e -> 1,
    and a tap that takes everything (``re_t=0``) raises a
    :class:`DomainError`."""
    if not vacuum_variance > 0:
        raise ValueError(f"vacuum_variance must be positive, got {vacuum_variance}")
    eve_trans_sq = 1.0 - min(abs(sub.transmittance) ** 2, 1.0)
    if eve_trans_sq == 1.0:
        raise DomainError(
            "excess noise diverges: the eavesdropper tap transmits everything"
        )
    excess = (sub.eve_epr_variance - 1.0) * eve_trans_sq / (1.0 - eve_trans_sq)
    return vacuum_variance + excess


def _parse_assignments(line: str) -> dict[str, str]:
    pairs = line.replace(",", " ").split()
    out: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key or not value:
            raise ValueError(f"expected key=value, got {pair!r}")
        if key in out:
            raise ValueError(f"duplicate key {key!r} in record {line!r}")
        out[key] = value
    return out


def _convert(key: str, text: str, kind: type = float) -> float | int:
    """``text``, the value of ``key``, as a ``kind``; a fault names the key."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                         f"got {text!r}") from None


def _parse_directive(key: str, text: str) -> float | int:
    """The value of directive ``key``, checked as far as it can be before
    the records are read."""
    kind = int if key == "active_count" else float
    value = _convert(key, text, kind)
    if kind is int and value < 1:
        raise ValueError(f"active_count must be >= 1, got {value}")
    if kind is float and not (math.isfinite(value) and value > 0):
        raise ValueError(f"vacuum_variance must be finite and positive, got {value}")
    return value


def load_channel_model(path) -> ChannelModel:
    """Read a channel model from the flat key=value text format documented in
    the module docstring."""
    directives: dict[str, float | int] = {}
    where: dict[str, int] = {}
    records: list[SubchannelParams] = []
    for lineno, line in input_lines(path):
        try:
            fields = _parse_assignments(line)
            if not _RECORD_KEYS.isdisjoint(fields):
                unknown = fields.keys() - _RECORD_KEYS
                if unknown:
                    raise ValueError(f"unknown record keys {sorted(unknown)}")
                missing = _REQUIRED_KEYS - fields.keys()
                if missing:
                    raise ValueError(f"missing record keys {sorted(missing)}")
                records.append(SubchannelParams.from_real(
                    _convert("re_t", fields["re_t"]),
                    _convert("noise_var", fields["noise_var"]),
                    _convert("eve_w", fields.get("eve_w", "1"))))
            else:
                unknown = fields.keys() - _DIRECTIVE_KEYS
                if unknown:
                    raise ValueError(f"unknown directive keys {sorted(unknown)}")
                if records:
                    raise ValueError("directives must precede sub-channel records")
                for key, value in fields.items():
                    if key in directives:
                        raise ValueError(f"duplicate key {key!r}")
                    directives[key] = _parse_directive(key, value)
                    where[key] = lineno
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not records:
        raise ValueError(f"{path}: no sub-channel records found")
    try:
        return ChannelModel(tuple(records), directives.get("active_count", len(records)),
                            directives.get("vacuum_variance", 1.0))
    except ValueError as exc:  # the directives are checked: only active_count > n is left
        raise ValueError(f"{path}:{where['active_count']}: {exc}") from None
