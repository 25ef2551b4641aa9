"""Finite phase-space constellations and codeword-difference diagnostics.

A rate of ``secret_rate`` bits is carried by 2**ceil(secret_rate) points on a
centred rectangular grid whose nearest-neighbour distance is
2**(-secret_rate/2), so that (min distance)^2 * 2**secret_rate = 1 and the
unit transmit power budget is respected independently of the rate.

For multicarrier use the same point set is reused on every sub-channel but,
except for the first one, in an independently permuted order; permutations
are drawn uniformly and reproducibly from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError, NegativeFadeError

_MAX_BITS = 16.0


@dataclass(frozen=True)
class PhaseConstellation:
    """A rectangular-grid constellation of 2**ceil(bits) phase-space points."""

    points: tuple
    bits: float

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        if len(pts) < 2:
            raise ValueError("a constellation needs at least two points")
        if not 0.0 < self.bits <= _MAX_BITS:
            raise ValueError(f"bits must lie in (0, {_MAX_BITS}], got {self.bits}")
        if len(pts) != 2 ** math.ceil(self.bits):
            raise ValueError(
                f"expected {2 ** math.ceil(self.bits)} points for {self.bits} bits, "
                f"got {len(pts)}"
            )
        object.__setattr__(self, "points", pts)

    def min_distance(self) -> float:
        """Smallest pairwise distance: each point's nearest other point, found
        with a k-d tree in O(n log n) time and O(n) memory."""
        # imported here: nothing the CLI runs needs scipy.spatial at start-up
        from scipy.spatial import cKDTree

        arr = np.asarray(self.points)
        xy = np.column_stack((arr.real, arr.imag))
        dist, _ = cKDTree(xy).query(xy, k=2)
        return float(dist[:, 1].min())


@dataclass(frozen=True)
class PermutationConstellation:
    """One base constellation reused across l sub-channels; the first keeps
    the base order, the others each apply their own uniform permutation."""

    base: PhaseConstellation
    perms: tuple
    seed: int

    def __post_init__(self):
        n = len(self.base.points)
        indices = set(range(n))
        perms = tuple(map(tuple, self.perms))
        for p in perms:
            if len(p) != n or set(p) != indices:
                raise ValueError("each permutation must rearrange all point indices")
        object.__setattr__(self, "perms", perms)

    @property
    def subchannel_count(self) -> int:
        return len(self.perms) + 1

    def subchannel_points(self, subchannel: int) -> tuple:
        """Point order on a 1-based sub-channel index."""
        if not 1 <= subchannel <= self.subchannel_count:
            raise ValueError(
                f"subchannel must lie in [1, {self.subchannel_count}], got {subchannel}"
            )
        if subchannel == 1:
            return self.base.points
        perm = self.perms[subchannel - 2]
        return tuple(self.base.points[i] for i in perm)


@dataclass(frozen=True)
class CodewordPair:
    """Two codewords, one constellation point per sub-channel each."""

    a: tuple
    b: tuple

    def __post_init__(self):
        a = tuple(complex(p) for p in self.a)
        b = tuple(complex(p) for p in self.b)
        if len(a) != len(b) or len(a) < 1:
            raise ValueError("codewords must be non-empty and of equal length")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __len__(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class DiffMatrix:
    """Normalised codeword difference embedded as a diagonal l x l matrix."""

    entries: tuple
    snr: float

    def __post_init__(self):
        entries = tuple(complex(e) for e in self.entries)
        if len(entries) < 1:
            raise ValueError("entries must be non-empty")
        if not self.snr > 0:
            raise ValueError(f"snr must be positive, got {self.snr}")
        object.__setattr__(self, "entries", entries)

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(np.asarray(self.entries, dtype=complex))


class ProductDistance(NamedTuple):
    value: float
    passes_51: bool
    passes_116: bool
    c: float
    bits: float


class SmallestSingularCheck(NamedTuple):
    value: float
    passes_135: bool
    k_in: int
    bits: float
    passes_double_exponent: bool | None


def gaussian_q(x: float) -> float:
    """Gaussian tail probability Q(x) = 0.5 * erfc(x / sqrt(2))."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def build_constellation(secret_rate: float) -> PhaseConstellation:
    """Grid constellation for ``secret_rate`` bits per sub-channel.

    2**ceil(secret_rate) points on a centred rectangular grid with
    nearest-neighbour spacing 2**(-secret_rate/2).
    """
    if not 0.0 < secret_rate <= _MAX_BITS:
        raise ValueError(f"secret_rate must lie in (0, {_MAX_BITS}], got {secret_rate}")
    b = math.ceil(secret_rate)
    rows = 2 ** (b // 2)
    cols = 2 ** ((b + 1) // 2)
    spacing = 2.0 ** (-secret_rate / 2.0)
    xs = (np.arange(cols) - (cols - 1) / 2.0) * spacing
    ys = (np.arange(rows) - (rows - 1) / 2.0) * spacing
    points = [complex(x, y) for y in ys for x in xs]
    return PhaseConstellation(tuple(points), float(secret_rate))


def permute_constellation(
    base: PhaseConstellation, l: int, seed: int
) -> PermutationConstellation:
    """Reuse ``base`` on l sub-channels, drawing an independent uniform
    permutation for each sub-channel after the first.  Reproducible by seed."""
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    n = len(base.points)
    perms = tuple(tuple(rng.permutation(n).tolist()) for _ in range(l - 1))
    return PermutationConstellation(base, perms, int(seed))


def normalized_difference(pair: CodewordPair, i: int, snr: float) -> complex:
    """SNR-normalised codeword difference (a_i - b_i) / sqrt(snr) on the
    0-based sub-channel i."""
    if not 0 <= i < len(pair):
        raise IndexError(f"i must lie in [0, {len(pair) - 1}], got {i}")
    if not snr > 0:
        raise ValueError(f"snr must be positive, got {snr}")
    return (pair.a[i] - pair.b[i]) / math.sqrt(snr)


def product_distance(diffs, secret_rate: float, c: float = 1.0) -> ProductDistance:
    """Product of squared difference magnitudes and its two admission checks.

    ``passes_51`` tests value > (c / (l * 2**secret_rate)) ** l and
    ``passes_116`` tests value ** (1/l) > c / (l! * 2**secret_rate); the two
    printed forms normalise the per-sub-channel budget differently, so both
    are reported.
    """
    diffs = [complex(d) for d in diffs]
    if not diffs:
        raise ValueError("diffs must be non-empty")
    if not secret_rate >= 0:
        raise ValueError(f"secret_rate must be >= 0, got {secret_rate}")
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    mags = [abs(d) ** 2 for d in diffs]
    if any(m == 0.0 for m in mags):
        raise DegenerateInputError("zero component makes the product distance vanish")
    value = float(np.prod(mags))
    l = len(diffs)
    scale = 2.0**secret_rate
    passes_51 = value > (c / (l * scale)) ** l
    passes_116 = value ** (1.0 / l) > c / (math.factorial(l) * scale)
    return ProductDistance(value, bool(passes_51), bool(passes_116), float(c), float(secret_rate))


def pairwise_error(fades_sq, diffs, mod_variance: float, noise_variance: float) -> float:
    """Pairwise codeword error over faded sub-channels:

        Q( sqrt( mod_variance / (2 * noise_variance)
                 * sum_i fades_sq_i * |diff_i|^2 ) )
    """
    fades_sq = np.asarray(fades_sq, dtype=float)
    diffs = np.asarray([complex(d) for d in diffs])
    if fades_sq.shape != diffs.shape:
        raise ValueError(
            f"expected matching lengths, got {fades_sq.size} fades and {diffs.size} diffs"
        )
    if np.any(fades_sq < 0):
        raise ValueError("fades_sq must be non-negative")
    if not mod_variance > 0:
        raise ValueError(f"mod_variance must be positive, got {mod_variance}")
    if not noise_variance > 0:
        raise ValueError(f"noise_variance must be positive, got {noise_variance}")
    arg = mod_variance / (2.0 * noise_variance) * float(np.sum(fades_sq * np.abs(diffs) ** 2))
    return gaussian_q(math.sqrt(arg))


def worst_case_fades(v_eve: float, diffs, snr: float) -> np.ndarray:
    """Fade realisations that pin the pairwise error to the eavesdropper
    reference variance ``v_eve``: fade_i = (v_eve / |diff_i|^2 - 1) / snr."""
    if not v_eve > 0:
        raise ValueError(f"v_eve must be positive, got {v_eve}")
    if not snr > 0:
        raise ValueError(f"snr must be positive, got {snr}")
    mags = np.abs(np.asarray([complex(d) for d in diffs])) ** 2
    if mags.size < 1:
        raise ValueError("diffs must be non-empty")
    if np.any(mags == 0):
        raise DegenerateInputError("zero difference component has no worst-case fade")
    if np.any(mags > v_eve):
        raise NegativeFadeError(
            f"v_eve = {v_eve} is below a squared difference magnitude "
            f"(max {float(np.max(mags)):.6g}); worst-case fade would be negative"
        )
    return (v_eve / mags - 1.0) / snr


def simplified_worst_case_error(v_eve: float, diffs) -> float:
    """Closed worst-case pairwise error Q(sqrt(0.5 * sum_i (v_eve - |diff_i|^2)));
    coincides with :func:`pairwise_error` evaluated at :func:`worst_case_fades`
    when mod_variance / noise_variance equals the snr used there."""
    if not v_eve > 0:
        raise ValueError(f"v_eve must be positive, got {v_eve}")
    mags = np.abs(np.asarray([complex(d) for d in diffs])) ** 2
    if mags.size < 1:
        raise ValueError("diffs must be non-empty")
    if np.any(mags > v_eve):
        raise NegativeFadeError(
            "v_eve is below a squared difference magnitude; the error argument "
            "would be negative"
        )
    return gaussian_q(math.sqrt(0.5 * float(np.sum(v_eve - mags))))


def diff_matrix(pair: CodewordPair, snr: float) -> DiffMatrix:
    """Embed the SNR-normalised codeword difference as a diagonal matrix."""
    entries = [normalized_difference(pair, i, snr) for i in range(len(pair))]
    if all(e == 0 for e in entries):
        raise DegenerateInputError("codewords are identical")
    return DiffMatrix(tuple(entries), float(snr))


def smallest_singular(
    d: DiffMatrix,
    k_in: int,
    secret_rate: float,
    c: float = 1.0,
    check_double_exponent: bool = False,
) -> SmallestSingularCheck:
    """Smallest singular value of a difference matrix and its admission check
    lambda^2 > 1 / (k_in * 2**secret_rate).

    With ``check_double_exponent`` the printed double-exponent variant
    max lambda > c**(2**n) / (n**(2**n) * 2**(secret_rate/2)), n the matrix
    dimension, is evaluated as well (in log space, since the bound underflows
    quickly) and reported in the last field; otherwise that field is None.
    """
    if k_in < 1:
        raise ValueError(f"k_in must be >= 1, got {k_in}")
    if not secret_rate >= 0:
        raise ValueError(f"secret_rate must be >= 0, got {secret_rate}")
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    singulars = np.linalg.svd(d.matrix, compute_uv=False)
    lam = float(np.min(singulars))
    passes_135 = lam**2 > 1.0 / (k_in * 2.0**secret_rate)
    passes_dbl: bool | None = None
    if check_double_exponent:
        n = len(d.entries)
        log2_bound = (2.0**n) * (math.log2(c) - math.log2(n)) - secret_rate / 2.0
        lam_max = float(np.max(singulars))
        passes_dbl = lam_max > 0 and math.log2(lam_max) > log2_bound
    return SmallestSingularCheck(lam, bool(passes_135), int(k_in), float(secret_rate), passes_dbl)


def pairwise_error_multiaccess(
    lam: float, k_in: int, secret_rate: float, sqrt_argument: bool = False
) -> float:
    """Multiple-access pairwise error from the smallest singular value:
    Q(0.5 * lam^2 * k_in * (2**secret_rate - 1)) as printed; with
    ``sqrt_argument`` the square-rooted convention Q(sqrt(...)) is used."""
    if not lam >= 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if k_in < 1:
        raise ValueError(f"k_in must be >= 1, got {k_in}")
    if not secret_rate >= 0:
        raise ValueError(f"secret_rate must be >= 0, got {secret_rate}")
    arg = 0.5 * lam**2 * k_in * (2.0**secret_rate - 1.0)
    return gaussian_q(math.sqrt(arg) if sqrt_argument else arg)

