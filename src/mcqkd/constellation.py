"""Finite phase-space constellations and their permutation across sub-channels.

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

import numpy as np

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


@dataclass(frozen=True)
class PermutationConstellation:
    """One base constellation reused across l sub-channels; the first keeps
    the base order, the others each apply their own uniform permutation."""

    base: PhaseConstellation
    perms: tuple

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
    return PermutationConstellation(base, perms)

