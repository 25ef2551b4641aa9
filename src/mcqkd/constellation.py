"""Finite phase-space constellations and their permutation across sub-channels.

A rate of ``secret_rate`` bits is carried by 2**ceil(secret_rate) points on a
centred rectangular grid whose nearest-neighbour distance is
2**(-secret_rate/2), so that (min distance)^2 * 2**secret_rate = 1 and the
unit transmit power budget is respected independently of the rate.

For multicarrier use the same point set is reused on every sub-channel but,
except for the first one, in an independently permuted order; permutations
are drawn uniformly and reproducibly from a seed.  The points and those
permutations form a permutation code, held in one :class:`Constellation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MAX_BITS = 16.0


@dataclass(frozen=True)
class Constellation:
    """Phase-space points on l = len(perms) + 1 sub-channels: message i sends
    ``points[i]`` on sub-channel 1 and ``points[perms[j - 2][i]]`` on
    sub-channel j >= 2."""

    points: tuple
    perms: tuple = ()

    def __post_init__(self):
        pts = tuple(map(complex, self.points))
        if len(pts) < 2:
            raise ValueError("a constellation needs at least two points")
        indices = set(range(len(pts)))
        perms = tuple(map(tuple, self.perms))
        for p in perms:
            if len(p) != len(pts) or set(p) != indices:
                raise ValueError("each permutation must rearrange all point indices")
        object.__setattr__(self, "points", pts)
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
            return self.points
        perm = self.perms[subchannel - 2]
        return tuple(self.points[i] for i in perm)


def build_constellation(secret_rate: float) -> Constellation:
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
    # Python floats, for which complex() is cheaper than for numpy scalars.
    # No coordinate is -0.0, which the CLI's per-value formatting relies on:
    # cols and rows >= 2 are even, so every offset is a half-integer, and a
    # single row sits at (0 - 0.0) * spacing = +0.0
    xs = ((np.arange(cols) - (cols - 1) / 2.0) * spacing).tolist()
    ys = ((np.arange(rows) - (rows - 1) / 2.0) * spacing).tolist()
    return Constellation(tuple(complex(x, y) for y in ys for x in xs))


def permute_constellation(base: Constellation, l: int, seed: int) -> Constellation:
    """The points of ``base`` on l sub-channels, with an independent uniform
    permutation drawn for each sub-channel after the first.  Reproducible by
    seed; any permutations ``base`` already carries are replaced."""
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    n = len(base.points)
    perms = tuple(tuple(rng.permutation(n).tolist()) for _ in range(l - 1))
    return Constellation(base.points, perms)
