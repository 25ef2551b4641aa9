"""Grid constellations and their permutations across sub-channels."""

import math
from itertools import permutations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from mcqkd.constellation import (
    Constellation,
    build_constellation,
    permute_constellation,
)
from oracles import min_distance_exhaustive


class TestBuildConstellation:
    @pytest.mark.parametrize(
        "bits,cardinality,distance",
        [
            (1.0, 2, 2**-0.5),
            (2.0, 4, 0.5),
            (4.0, 16, 0.25),
        ],
    )
    def test_cardinality_and_min_distance(self, bits, cardinality, distance):
        c = build_constellation(bits)
        assert len(c.points) == cardinality
        assert min_distance_exhaustive(c.points) == pytest.approx(distance, abs=1e-12)

    def test_scaling_law(self):
        for bits in range(1, 9):
            c = build_constellation(float(bits))
            law = min_distance_exhaustive(c.points) ** 2 * 2.0**bits
            assert law == pytest.approx(1.0, abs=1e-9)

    def test_min_distance_at_sixteen_bits(self):
        # 65536 points: the exhaustive search would take about 2**31 pairs.
        # They form the product of their distinct real and imaginary parts,
        # so the nearest two differ in one coordinate by its smallest gap.
        points = build_constellation(16.0).points
        xs = sorted({p.real for p in points})
        ys = sorted({p.imag for p in points})
        assert len(set(points)) == len(xs) * len(ys) == len(points)
        gaps = [b - a for axis in (xs, ys) for a, b in zip(axis, axis[1:])]
        assert min(gaps) == 2.0**-8

    def test_no_coordinate_is_negative_zero(self):
        # the CLI formats each distinct coordinate once, keyed by its float
        # value, which would take -0.0 for 0.0
        for bits in np.arange(0.5, 16.5, 0.5):
            points = build_constellation(float(bits)).points
            assert not any(math.copysign(1.0, v) < 0 for p in points
                           for v in (p.real, p.imag) if v == 0.0), bits

    def test_fractional_bits_round_up_cardinality(self):
        c = build_constellation(2.5)
        assert len(c.points) == 8
        # spacing still follows the fractional rate
        assert min_distance_exhaustive(c.points) == pytest.approx(2.0 ** (-2.5 / 2), abs=1e-12)

    def test_grid_is_centred(self):
        c = build_constellation(4.0)
        assert abs(np.mean(c.points)) < 1e-12

    def test_bounds(self):
        with pytest.raises(ValueError):
            build_constellation(0.0)
        with pytest.raises(ValueError):
            build_constellation(17.0)


class TestPermutations:
    def test_single_subchannel_has_no_perms(self):
        pc = permute_constellation(build_constellation(2.0), 1, seed=0)
        assert pc.subchannel_count == 1
        assert len(pc.perms) == 0

    def test_reproducible_and_multiset_preserving(self):
        base = build_constellation(3.0)
        a = permute_constellation(base, 3, seed=11)
        b = permute_constellation(base, 3, seed=11)
        for sub in range(1, 4):
            assert_allclose(a.subchannel_points(sub), b.subchannel_points(sub))
            assert sorted(np.asarray(a.subchannel_points(sub)).tolist(), key=abs) == sorted(
                np.asarray(base.points).tolist(), key=abs
            ) or set(np.round(a.subchannel_points(sub), 12)) == set(
                np.round(base.points, 12)
            )

    def test_first_subchannel_is_base_order(self):
        base = build_constellation(2.0)
        pc = permute_constellation(base, 4, seed=3)
        assert_allclose(pc.subchannel_points(1), base.points)

    def test_permutation_distances_invariant(self):
        base = build_constellation(3.0)
        pc = permute_constellation(base, 5, seed=7)
        want = min_distance_exhaustive(base.points)
        for sub in range(1, 6):
            got = min_distance_exhaustive(pc.subchannel_points(sub))
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("bits, l, seed", [(2.0, 4, 3), (12.0, 3, 2014)])
    def test_permutations_are_the_generators_draws_in_order(self, bits, l, seed):
        base = build_constellation(bits)
        rng = np.random.default_rng(seed)
        n = len(base.points)
        want = tuple(tuple(int(i) for i in rng.permutation(n)) for _ in range(l - 1))
        pc = permute_constellation(base, l, seed)
        assert pc.perms == want
        assert all(type(i) is int for p in pc.perms for i in p)

    @pytest.mark.parametrize(
        "perm", [(0, 1, 2), (0, 1, 2, 2), (0, 1, 2, 3, 0), (1, 2, 3, 4), (0, 1, 2, 5)]
    )
    def test_a_perm_that_misses_an_index_is_rejected(self, perm):
        base = build_constellation(2.0)
        with pytest.raises(ValueError, match="rearrange all point indices"):
            Constellation(base.points, ((3, 2, 1, 0), perm))

    def test_uniform_over_permutation_group(self):
        # 4-point base: 24 possible orderings, swept over ten thousand seeds
        base = build_constellation(2.0)
        ids = {p: i for i, p in enumerate(permutations(range(4)))}
        counts = np.zeros(24)
        for seed in range(10_000):
            pc = permute_constellation(base, 2, seed)
            counts[ids[tuple(pc.perms[0])]] += 1
        expected = 10_000 / 24
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < stats.chi2.ppf(0.99, 23)
        p = 1.0 / 24.0
        stderr = np.sqrt(p * (1 - p) / 10_000)
        assert np.max(np.abs(counts / 10_000 - p)) < 3 * stderr



SPREAD = permute_constellation(build_constellation(2.0), 3, seed=1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Constellation((0j,)), ValueError, "a constellation needs at least two points"),
        (lambda: SPREAD.subchannel_points(0), ValueError, "subchannel must lie in [1, 3], got 0"),
        (lambda: SPREAD.subchannel_points(4), ValueError, "subchannel must lie in [1, 3], got 4"),
        (lambda: permute_constellation(build_constellation(2.0), 0, 1), ValueError,
         "l must be >= 1, got 0"),
    ],
)
def test_single_fault_error_type_and_message(call, error, message):
    """Each input with one fault raises exactly this type and message."""
    with pytest.raises(ValueError) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
