"""Grid constellations, permutations, distances and pairwise error bounds."""

from itertools import permutations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from mcqkd.constellation import (
    CodewordPair,
    PhaseConstellation,
    build_constellation,
    diff_matrix,
    gaussian_q,
    normalized_difference,
    pairwise_error,
    pairwise_error_multiaccess,
    permute_constellation,
    product_distance,
    simplified_worst_case_error,
    smallest_singular,
    worst_case_fades,
)
from mcqkd.errors import DegenerateInputError, NegativeFadeError
from oracles import charpoly_eigs, min_distance_exhaustive, normal_tail_quad


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
        assert c.min_distance() == pytest.approx(distance, abs=1e-12)
        assert min_distance_exhaustive(c.points) == pytest.approx(distance, abs=1e-12)

    def test_scaling_law(self):
        for bits in range(1, 9):
            c = build_constellation(float(bits))
            law = c.min_distance() ** 2 * 2.0**bits
            assert law == pytest.approx(1.0, abs=1e-9)

    def test_min_distance_at_sixteen_bits(self):
        # 65536 points: the exhaustive n x n search would need about 68 GB
        assert build_constellation(16.0).min_distance() == 2.0**-8

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_min_distance_matches_exhaustive_on_random_points(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=64) + 1j * rng.normal(size=64)
        c = PhaseConstellation(tuple(points), 6.0)
        assert c.min_distance() == pytest.approx(min_distance_exhaustive(points), rel=1e-12)

    def test_min_distance_of_repeated_point_is_zero(self):
        c = PhaseConstellation((0.5j, 1.0, 0.5j, -1.0), 2.0)
        assert c.min_distance() == 0.0

    def test_fractional_bits_round_up_cardinality(self):
        c = build_constellation(2.5)
        assert len(c.points) == 8
        # spacing still follows the fractional rate
        assert c.min_distance() == pytest.approx(2.0 ** (-2.5 / 2), abs=1e-12)

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


class TestNormalizedDifference:
    def test_identical_codewords(self):
        pair = CodewordPair(np.array([1 + 1j, 2.0]), np.array([1 + 1j, 0.0]))
        assert normalized_difference(pair, 0, snr=4.0) == 0.0

    def test_hand_value(self):
        pair = CodewordPair(np.array([1.0 + 0j]), np.array([0.0 + 0j]))
        assert normalized_difference(pair, 0, snr=4.0) == pytest.approx(0.5)

    def test_snr_homogeneity(self):
        pair = CodewordPair(np.array([3.0 + 1j]), np.array([1.0 - 1j]))
        one = abs(normalized_difference(pair, 0, snr=5.0))
        two = abs(normalized_difference(pair, 0, snr=10.0))
        assert one / two == pytest.approx(np.sqrt(2.0))

    def test_index_out_of_range(self):
        pair = CodewordPair(np.array([1.0 + 0j]), np.array([0.0 + 0j]))
        with pytest.raises(IndexError):
            normalized_difference(pair, 1, snr=1.0)


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
    def test_boundary_gives_zero_fade(self):
        fades = worst_case_fades(1.0, [1.0], snr=10.0)
        assert fades[0] == pytest.approx(0.0)

    def test_hand_value(self):
        fades = worst_case_fades(2.0, [1.0], snr=10.0)
        assert fades[0] == pytest.approx(0.1)

    def test_eve_variance_below_difference_rejected(self):
        with pytest.raises(NegativeFadeError):
            worst_case_fades(0.5, [1.0], snr=10.0)

    def test_zero_difference_rejected(self):
        with pytest.raises(DegenerateInputError):
            worst_case_fades(1.0, [0.0], snr=10.0)

    def test_rate_condition_log_identity(self):
        # with |d_i|^2 = v * 2^(-rate) the per-channel logs sum to l * rate
        v, rate, l = 2.0, 1.5, 4
        diffs_sq = [v * 2.0**-rate] * l
        logs = sum(np.log2(v / d) for d in diffs_sq)
        assert logs == pytest.approx(l * rate, abs=1e-12)

    def test_worst_case_consistency_with_simplified_form(self):
        # the two printed error forms agree when snr = mod/noise
        mod, noise = 2.0, 0.5
        snr = mod / noise
        v_eve = 3.0
        diffs = [1.0 + 0j, 0.5 + 0.5j, 0.2 - 0.1j]
        fades = worst_case_fades(v_eve, diffs, snr)
        direct = pairwise_error(fades, diffs, mod, noise)
        simplified = simplified_worst_case_error(v_eve, diffs)
        assert direct == pytest.approx(simplified, abs=1e-9)


class TestDiffMatrix:
    def test_hand_value(self):
        pair = CodewordPair(np.array([2.0 + 0j, 0.0 + 0j]), np.zeros(2, dtype=complex))
        d = diff_matrix(pair, snr=4.0)
        assert_allclose(d.matrix, np.diag([1.0 + 0j, 0.0 + 0j]))

    def test_antisymmetry(self):
        a = np.array([1.0 + 1j, 2.0 - 1j])
        b = np.array([0.5 + 0j, 1.0 + 0j])
        fwd = diff_matrix(CodewordPair(a, b), snr=2.0)
        rev = diff_matrix(CodewordPair(b, a), snr=2.0)
        assert_allclose(fwd.matrix, -rev.matrix)

    def test_snr_scaling(self):
        a = np.array([1.0 + 0j])
        b = np.array([0.0 + 0j])
        one = diff_matrix(CodewordPair(a, b), snr=1.0)
        four = diff_matrix(CodewordPair(a, b), snr=4.0)
        assert_allclose(one.matrix, 2.0 * four.matrix)

    def test_identical_codewords_rejected(self):
        a = np.array([1.0 + 0j])
        with pytest.raises(ValueError):
            diff_matrix(CodewordPair(a, a.copy()), snr=1.0)


class TestSmallestSingular:
    def test_rank_deficient_fails_condition(self):
        pair = CodewordPair(np.array([2.0 + 0j, 0.0 + 0j]), np.zeros(2, dtype=complex))
        check = smallest_singular(diff_matrix(pair, snr=4.0), k_in=2, secret_rate=2.0)
        assert check.value == pytest.approx(0.0)
        assert not check.passes_135

    def test_hand_value_passes(self):
        pair = CodewordPair(np.array([1.0 + 0j, 1.0 + 0j]), np.zeros(2, dtype=complex))
        check = smallest_singular(diff_matrix(pair, snr=4.0), k_in=2, secret_rate=2.0)
        assert check.value == pytest.approx(0.5)
        assert check.passes_135  # 0.25 > 1/8

    def test_matches_eigen_oracle(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        d = diff_matrix(CodewordPair(a, b), snr=3.0)
        check = smallest_singular(d, k_in=4, secret_rate=2.0)
        eigs = charpoly_eigs(d.matrix)
        assert check.value**2 == pytest.approx(np.min(eigs), abs=1e-10)

    def test_double_exponent_flag_optional(self):
        pair = CodewordPair(np.array([1.0 + 0j, 1.0 + 0j]), np.zeros(2, dtype=complex))
        d = diff_matrix(pair, snr=1.0)
        plain = smallest_singular(d, k_in=2, secret_rate=2.0)
        assert plain.passes_double_exponent is None
        flagged = smallest_singular(
            d, k_in=2, secret_rate=2.0, check_double_exponent=True
        )
        assert flagged.passes_double_exponent in (True, False)


class TestMultiaccessError:
    def test_zero_singular_value(self):
        assert pairwise_error_multiaccess(0.0, 2, 1.0) == pytest.approx(0.5)

    def test_reference_quantile(self):
        target = 1.2815515655446004
        # 0.5 * lam^2 * k_in * (2^rate - 1) = target with k_in=1, rate=1
        lam = np.sqrt(2.0 * target)
        p = pairwise_error_multiaccess(lam, 1, 1.0)
        assert p == pytest.approx(0.1, abs=1e-6)

    def test_monotone_in_singular_value_and_rate(self):
        lams = np.linspace(0.1, 2.0, 12)
        ps = [pairwise_error_multiaccess(lam, 2, 1.0) for lam in lams]
        assert np.all(np.diff(ps) < 0)
        rates = np.linspace(0.5, 4.0, 12)
        ps = [pairwise_error_multiaccess(0.8, 2, r) for r in rates]
        assert np.all(np.diff(ps) < 0)

    def test_sqrt_argument_variant(self):
        plain = pairwise_error_multiaccess(0.9, 2, 2.0)
        rooted = pairwise_error_multiaccess(0.9, 2, 2.0, sqrt_argument=True)
        # 0.5 * 0.81 * 2 * 3 = 2.43 > 1 so the rooted argument is smaller
        assert rooted > plain


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

