"""Gaussian sub-channel model: transmittances, eavesdropper tap, excess noise
and Rayleigh-faded transmission of subcarrier blocks.

Each sub-channel i carries a complex transmittance T_i whose real part
(position quadrature) equals its imaginary part (momentum quadrature), with
|T_i|^2 <= 1.  The remainder 1 - |T_i|^2 is tapped by the eavesdropper's beam
splitter.  The fluctuating, Fourier-domain transmission coefficient of a
sub-channel is a zero-mean circular symmetric complex Gaussian, so its squared
magnitude is exponentially distributed (Rayleigh amplitude fading).

File format accepted by :func:`load_channel_model` (one record per line):

    # comment lines and blank lines are ignored
    vacuum_variance=1.0        # optional directive, before the records
    active_count=2             # optional directive, defaults to all records
    re_t=0.5 noise_var=1.0 eve_w=1.2
    re_t=0.3, noise_var=0.9, eve_w=1.0

Record keys may be separated by whitespace or commas.  ``re_t`` and
``noise_var`` are required, ``eve_w`` is optional and defaults to 1 (a passive
eavesdropper port in the vacuum state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularNoiseError
from .phase_space import ComplexGaussianVector

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_RECORD_KEYS = ("re_t", "noise_var", "eve_w")
_DIRECTIVE_KEYS = ("vacuum_variance", "active_count")


@dataclass(frozen=True)
class SubchannelParams:
    """Static parameters of one Gaussian sub-channel.

    ``transmittance`` must satisfy 0 <= Re T = Im T <= 1/sqrt(2) (hence
    |T|^2 <= 1), ``noise_variance`` is the per-quadrature noise variance of
    the sub-channel and ``eve_epr_variance`` >= 1 is the variance of the
    eavesdropper's EPR ancilla input.  All three must be finite.
    """

    transmittance: complex
    noise_variance: float
    eve_epr_variance: float = 1.0

    def __post_init__(self):
        t = complex(self.transmittance)
        for name, value in (
            ("transmittance real part", t.real),
            ("noise_variance", self.noise_variance),
            ("eve_epr_variance", self.eve_epr_variance),
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
        if abs(t) ** 2 > 1.0 + 1e-12:
            raise ValueError(f"|T|^2 must not exceed 1, got {abs(t)**2}")
        if not self.noise_variance > 0:
            raise ValueError(f"noise_variance must be positive, got {self.noise_variance}")
        if not self.eve_epr_variance >= 1.0:
            raise ValueError(
                f"eve_epr_variance must be >= 1, got {self.eve_epr_variance}"
            )

    @classmethod
    def from_real(cls, re_t: float, noise_variance: float, eve_epr_variance: float = 1.0):
        """Build parameters from the shared quadrature transmittance value."""
        return cls(complex(re_t, re_t), noise_variance, eve_epr_variance)


@dataclass(frozen=True)
class ChannelModel:
    """A set of n Gaussian sub-channels of which the first ``active_count``
    carry modulation; the inactive remainder is kept for bookkeeping but is
    excluded from every rate and outage sum."""

    subchannels: tuple
    active_count: int
    vacuum_variance: float = 1.0

    def __post_init__(self):
        subs = tuple(self.subchannels)
        if len(subs) < 1:
            raise ValueError("a channel model needs at least one sub-channel")
        if not 1 <= self.active_count <= len(subs):
            raise ValueError(
                f"active_count must lie in [1, {len(subs)}], got {self.active_count}"
            )
        if not math.isfinite(self.vacuum_variance):
            raise ValueError(f"vacuum_variance must be finite, got {self.vacuum_variance}")
        if not self.vacuum_variance > 0:
            raise ValueError(f"vacuum_variance must be positive, got {self.vacuum_variance}")
        object.__setattr__(self, "subchannels", subs)

    @property
    def active(self) -> tuple:
        """The sub-channels that carry modulation."""
        return self.subchannels[: self.active_count]


def eve_transmittance(transmittance) -> float:
    """Squared transmittance of the eavesdropper's beam-splitter tap,
    1 - |T|^2.  Accepts a :class:`SubchannelParams` or a bare complex T."""
    t = getattr(transmittance, "transmittance", transmittance)
    mag_sq = abs(complex(t)) ** 2
    if mag_sq > 1.0 + 1e-12:
        raise ValueError(f"|T|^2 must not exceed 1, got {mag_sq}")
    return 1.0 - min(mag_sq, 1.0)


def excess_noise(eve_epr_variance: float, eve_trans_sq: float) -> float:
    """Excess noise a tap of squared transmittance ``eve_trans_sq`` injects
    when the eavesdropper's ancilla has variance ``eve_epr_variance``:

        N = (W - 1) * e / (1 - e)

    Diverges as e -> 1 (the tap takes the whole signal), which raises
    :class:`SingularNoiseError`.
    """
    if not eve_epr_variance >= 1.0:
        raise ValueError(f"eve_epr_variance must be >= 1, got {eve_epr_variance}")
    if not 0.0 <= eve_trans_sq <= 1.0:
        raise ValueError(f"eve_trans_sq must lie in [0, 1], got {eve_trans_sq}")
    if eve_trans_sq == 1.0:
        raise SingularNoiseError(
            "excess noise diverges: the eavesdropper tap transmits everything"
        )
    return (eve_epr_variance - 1.0) * eve_trans_sq / (1.0 - eve_trans_sq)


def total_input_noise(
    eve_epr_variance: float, eve_trans_sq: float, vacuum_variance: float = 1.0
) -> float:
    """Vacuum plus excess noise seen at a sub-channel input."""
    if not vacuum_variance > 0:
        raise ValueError(f"vacuum_variance must be positive, got {vacuum_variance}")
    return vacuum_variance + excess_noise(eve_epr_variance, eve_trans_sq)


def sample_faded_transmittances(l: int, variance: float, seed: int) -> np.ndarray:
    """Draw ``l`` independent faded transmission coefficients as a complex
    array of shape (l,).

    Each is circular symmetric complex Gaussian with E[|F|^2] = variance, so
    |F|^2 is exponential with that mean.  Identical ``seed`` reproduces the
    draw exactly.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if not variance > 0:
        raise ValueError(f"variance must be positive, got {variance}")
    rng = np.random.default_rng(seed)
    quads = rng.normal(0.0, np.sqrt(variance / 2.0), size=(2, l))
    return quads[0] + 1j * quads[1]


def apply_channel(
    d: ComplexGaussianVector,
    fades: np.ndarray,
    noise_variance: float,
    seed: int,
) -> ComplexGaussianVector:
    """Transmit a block of subcarriers ``d`` through faded sub-channels with
    complex gains ``fades``, one per subcarrier.

    The receiver-side observable is y_i = F_i * w_i + noise_i where w is the
    positive-exponent transform of ``d`` and the additive noise is circular
    symmetric complex Gaussian with per-quadrature variance
    ``noise_variance`` (complex variance 2 * noise_variance).  With all fades
    equal to one and vanishing noise the output reduces to w itself.
    """
    if len(fades) != len(d):
        raise ValueError(f"expected {len(d)} fades, got {len(fades)}")
    if not noise_variance > 0:
        raise ValueError(f"noise_variance must be positive, got {noise_variance}")
    w = np.fft.ifft(d.samples, norm="ortho")
    gains = np.asarray(fades, dtype=complex)
    rng = np.random.default_rng(seed)
    quads = rng.normal(0.0, np.sqrt(noise_variance), size=(2, len(d)))
    y = gains * w + quads[0] + 1j * quads[1]
    model_variance = float(np.mean(np.abs(gains) ** 2) * d.variance + 2.0 * noise_variance)
    return ComplexGaussianVector(y, model_variance)


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


def _parse_directive(key: str, text: str) -> float | int:
    """The value of directive ``key``, checked as far as it can be before
    the records are read."""
    kind = int if key == "active_count" else float
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                         f"got {text!r}") from None
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
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                fields = _parse_assignments(line)
                if any(k in fields for k in _RECORD_KEYS):
                    unknown = set(fields) - set(_RECORD_KEYS)
                    if unknown:
                        raise ValueError(f"unknown record keys {sorted(unknown)}")
                    missing = {"re_t", "noise_var"} - set(fields)
                    if missing:
                        raise ValueError(f"missing record keys {sorted(missing)}")
                    records.append(
                        SubchannelParams.from_real(
                            float(fields["re_t"]),
                            float(fields["noise_var"]),
                            float(fields.get("eve_w", 1.0)),
                        )
                    )
                else:
                    unknown = set(fields) - set(_DIRECTIVE_KEYS)
                    if unknown:
                        raise ValueError(f"unknown directive keys {sorted(unknown)}")
                    if records:
                        raise ValueError("directives must precede sub-channel records")
                    for key, value in fields.items():
                        directives[key] = _parse_directive(key, value)
                        where[key] = lineno
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not records:
        raise ValueError(f"{path}: no sub-channel records found")
    active = directives.get("active_count", len(records))
    if active > len(records):
        raise ValueError(
            f"{path}:{where['active_count']}: active_count must lie in "
            f"[1, {len(records)}], got {active}"
        )
    return ChannelModel(tuple(records), active, directives.get("vacuum_variance", 1.0))
