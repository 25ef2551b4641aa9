"""Grid constellations, permutations, distances and pairwise error bounds."""

from itertools import permutations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from mcqkd.constellation import (
    CodewordPair,
    PermutationConstellation,
    build_constellation,
    gaussian_q,
    pairwise_error,
    permute_constellation,
    product_distance,
)
from mcqkd.errors import DegenerateInputError
from oracles import min_distance_exhaustive, normal_tail_quad


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
            PermutationConstellation(base, ((3, 2, 1, 0), perm))

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


class TestCodewordPair:
    def test_points_become_complex_tuples(self):
        pair = CodewordPair(np.array([1.0, 2j]), [0, 1 - 1j])
        assert pair.a == (1 + 0j, 2j) and pair.b == (0j, 1 - 1j)
        assert len(pair) == 2

    def test_unequal_or_empty_codewords_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            CodewordPair([1.0, 2.0], [0.0])
        with pytest.raises(ValueError, match="equal length"):
            CodewordPair([], [])


class TestProductDistance:
    def test_single_component(self):
        d = product_distance([np.sqrt(0.5)], secret_rate=1.0, c=0.25)
        assert d.value == pytest.approx(0.5)
        assert d.passes_51 and d.passes_116

    def test_two_components(self):
        d = product_distance([np.sqrt(0.5), np.sqrt(0.5)], secret_rate=2.0, c=1.0)
        assert d.value == pytest.approx(0.25)
        assert d.passes_51  # 0.25 > (1/8)^2

    def test_zero_component_degenerate(self):
        with pytest.raises(DegenerateInputError):
            product_distance([0.5, 0.0], secret_rate=1.0)

    def test_carries_config(self):
        d = product_distance([0.5], secret_rate=1.5, c=0.7)
        assert d.c == 0.7
        assert d.bits == 1.5


class TestPairwiseError:
    def test_zero_differences(self):
        p = pairwise_error([1.0, 1.0], [0.0, 0.0], 1.0, 1.0)
        assert p == pytest.approx(0.5)

    def test_reference_quantile(self):
        # arrange the argument to be the 10% normal quantile
        target = 1.2815515655446004
        # mod/(2 noise) * fade * |d|^2 = target^2 with fade=1, |d|=1
        mod = 2.0 * target**2
        p = pairwise_error([1.0], [1.0], mod, 1.0)
        assert p == pytest.approx(0.1, abs=1e-6)
        assert p == pytest.approx(normal_tail_quad(target), abs=1e-12)

    def test_extra_subchannel_reduces_error(self):
        base = pairwise_error([1.0], [0.5], 1.0, 1.0)
        more = pairwise_error([1.0, 0.8], [0.5, 0.5], 1.0, 1.0)
        assert more < base

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pairwise_error([1.0], [0.5, 0.5], 1.0, 1.0)


class TestWorstCase:
    def test_worst_case_consistency_with_simplified_form(self):
        # at the worst-case fades (v_eve / |d_i|^2 - 1) / snr with snr =
        # mod/noise, the error is Q(sqrt(0.5 * sum_i (v_eve - |d_i|^2)))
        mod, noise = 2.0, 0.5
        snr = mod / noise
        v_eve = 3.0
        diffs = [1.0 + 0j, 0.5 + 0.5j, 0.2 - 0.1j]
        fades = [(v_eve / abs(d) ** 2 - 1.0) / snr for d in diffs]
        direct = pairwise_error(fades, diffs, mod, noise)
        simplified = normal_tail_quad(np.sqrt(0.5 * sum(v_eve - abs(d) ** 2 for d in diffs)))
        assert direct == pytest.approx(simplified, abs=1e-9)


class TestGaussianQ:
    def test_zero(self):
        assert gaussian_q(0.0) == 0.5

    def test_five_percent_point(self):
        assert gaussian_q(1.6449) == pytest.approx(0.05, abs=1e-4)

    def test_deep_tail(self):
        assert gaussian_q(6.0) < 1e-8

    def test_matches_quadrature_oracle(self):
        for x in (-2.0, -0.3, 0.7, 2.5, 4.0):
            assert gaussian_q(x) == pytest.approx(normal_tail_quad(x), abs=1e-12)

    def test_symmetry(self):
        for x in np.linspace(-8, 8, 33):
            assert abs(gaussian_q(x) + gaussian_q(-x) - 1.0) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            gaussian_q(np.nan)
        with pytest.raises(ValueError):
            gaussian_q(np.inf)

