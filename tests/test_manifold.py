"""Outage power laws, tradeoff curves and dimension counting."""

import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcqkd.errors import DomainError
from mcqkd.manifold import (
    ManifoldDims,
    OutageParams,
    TradeoffCurve,
    manifold_dims,
    perr_amqd,
    perr_exponential_outage,
    perr_rows,
    perr_single,
    tradeoff_curve,
    tradeoff_multiaccess,
)


class TestPowerLaws:
    def test_single_zero_ratio(self):
        assert perr_single(OutageParams(snr=100.0, multiplex_ratio=0.0)) == 0.01

    def test_single_fig_point(self):
        p = perr_single(OutageParams(snr=10.0, multiplex_ratio=0.6))
        assert p == pytest.approx(10.0 ** (-0.4), abs=1e-15)

    def test_single_full_ratio_is_one(self):
        for snr in (1.0, 10.0, 1e6):
            assert perr_single(OutageParams(snr=snr, multiplex_ratio=1.0)) == 1.0

    def test_amqd_fig_points(self):
        assert perr_amqd(
            OutageParams(snr=10.0, multiplex_ratio=0.6, l=5)
        ) == pytest.approx(1e-2, abs=1e-15)
        assert perr_amqd(
            OutageParams(snr=10.0, multiplex_ratio=0.6, l=10)
        ) == pytest.approx(1e-4, abs=1e-16)

    def test_amqd_reduces_to_single(self):
        for snr, ratio in [(2.0, 0.1), (50.0, 0.9), (1e4, 0.5)]:
            p = OutageParams(snr=snr, multiplex_ratio=ratio, l=1)
            assert perr_amqd(p) == perr_single(p)

    def test_more_subchannels_never_hurt(self):
        for snr in (1.5, 10.0, 1e3):
            for ratio in (0.0, 0.3, 0.9):
                p1 = perr_amqd(OutageParams(snr, ratio, l=1))
                p2 = perr_amqd(OutageParams(snr, ratio, l=2))
                p8 = perr_amqd(OutageParams(snr, ratio, l=8))
                assert p8 <= p2 <= p1

    def test_snr_below_one_rejected(self):
        with pytest.raises(DomainError):
            perr_single(OutageParams(snr=0.5, multiplex_ratio=0.5))
        with pytest.raises(DomainError):
            perr_amqd(OutageParams(snr=0.99, multiplex_ratio=0.0, l=2))

    def test_probability_clamped(self):
        assert 0.0 <= perr_amqd(OutageParams(snr=1.0, multiplex_ratio=0.0, l=4)) <= 1.0


class TestExponentialOutage:
    def test_zero_rate(self):
        q, e = perr_exponential_outage(0.0, 10.0)
        assert q == 0.0 and e == 0.0

    def test_hand_point(self):
        q, e = perr_exponential_outage(1.0, 10.0)
        assert q == pytest.approx(0.1)
        assert e == pytest.approx(1.0 - np.exp(-0.1), abs=1e-12)

    def test_asymptotic_coincidence_at_high_snr(self):
        q, e = perr_exponential_outage(1.0, 1e6)
        assert abs(e - q) / q < 1e-6

    def test_exp_form_keeps_its_relative_precision_at_tiny_x(self):
        # x = 1e-12: 1 - exp(-x) in floating point keeps only ~4 digits
        q, e = perr_exponential_outage(1.0, 1e12)
        assert q == 1e-12
        assert e == pytest.approx(1e-12 - 0.5e-24, rel=1e-15)

    def test_linear_form_is_capped_at_one(self):
        q, e = perr_exponential_outage(4.0, 2.0)  # x = 7.5
        assert q == 1.0
        assert e == pytest.approx(1.0 - np.exp(-7.5), abs=1e-15)

    @pytest.mark.parametrize("rate", [1023.9, np.inf])
    def test_a_rate_whose_power_fits_a_double_caps_both_forms(self, rate):
        # 2**1023.9 is just below the largest double; 2**inf is inf
        assert perr_exponential_outage(rate, 10.0) == (1.0, 1.0)

    def test_forms_never_cross(self):
        # 1 - exp(-x) <= x for all x >= 0
        for rate in (0.5, 1.0, 2.0, 4.0):
            for snr in (1.0, 10.0, 1e4):
                q, e = perr_exponential_outage(rate, snr)
                assert e <= q + 1e-15


def delta(kind, ratio, **params):
    """The tradeoff table's value at one multiplex ratio."""
    return tradeoff_curve(kind, [ratio], **params).points[0][1]


class TestTradeoffFamilies:
    def test_single_values(self):
        assert delta("single", 1.0) == 0.0
        assert delta("single", 0.5, z_exponent=2.0) == pytest.approx(1.0)
        assert delta("single", 0.25) == pytest.approx(0.75)

    def test_single_domain_is_half_open(self):
        with pytest.raises(DomainError):
            delta("single", 0.0)
        with pytest.raises(DomainError):
            delta("single", 1.2)

    def test_multicarrier_reduction_and_gain(self):
        for ratio in (0.2, 0.6, 1.0):
            assert delta("multicarrier", ratio, l=1) == pytest.approx(1.0 - ratio)
        assert delta("multicarrier", 0.6, l=5) == pytest.approx(2.0)
        # l-fold manifold gain relative to the single-carrier line
        for ratio in np.linspace(0.1, 0.9, 9):
            assert delta("multicarrier", ratio, l=7) / (1.0 - ratio) == pytest.approx(7.0)

    def test_multicarrier_allows_zero_ratio(self):
        assert delta("multicarrier", 0.0, l=3) == pytest.approx(3.0)

    @pytest.mark.parametrize(
        "l, z",
        [(10**400, 1.0), (10, 1e308),
         # l <= max / Z, but l * Z rounds up past the largest double
         (int(sys.float_info.max / 1.2754035088855806), 1.2754035088855806)],
        ids=["huge-l", "l-times-z", "product-rounds-up"],
    )
    def test_multicarrier_scale_must_fit_a_double(self, l, z):
        with pytest.raises(ValueError, match=r"l \* z_exponent must fit a double") as excinfo:
            delta("multicarrier", 0.5, z_exponent=z, l=l)
        assert not isinstance(excinfo.value, DomainError)
        assert delta("multicarrier", 0.0, z_exponent=1e308, l=1) == 1e308

    def test_a_parameter_fault_is_reported_before_a_huge_ratio(self):
        with pytest.raises(ValueError, match="z_exponent must be finite") as excinfo:
            tradeoff_curve("single", [10**400], z_exponent=np.nan)
        assert not isinstance(excinfo.value, DomainError)

    def test_g_scaled(self):
        assert delta("g_scaled", 0.3, g_scale=0.0) == pytest.approx(0.7)
        assert delta("g_scaled", 0.0, g_scale=0.5) == pytest.approx(0.5)
        for g in (0.1, 0.5, 0.9):
            for ratio in (0.0, 0.4, 0.8):
                assert delta("g_scaled", ratio, g_scale=g) <= 1.0 - ratio
        with pytest.raises(DomainError):
            delta("g_scaled", 0.3, g_scale=1.0)

    @pytest.mark.parametrize("g_scale", [np.nan, np.inf, -np.inf])
    def test_non_finite_g_scale_is_a_configuration_error(self, g_scale):
        with pytest.raises(ValueError, match="finite") as excinfo:
            delta("g_scaled", 0.3, g_scale=g_scale)
        assert not isinstance(excinfo.value, DomainError)

    def test_multiaccess_in_gt_out(self):
        assert tradeoff_multiaccess(4, 2, 0.0) == pytest.approx(4.0)
        assert tradeoff_multiaccess(4, 2, 2.0) == pytest.approx(0.0)
        assert tradeoff_multiaccess(4, 2, 3.0) == 0.0  # clamped

    def test_multiaccess_knots(self):
        assert tradeoff_multiaccess(2, 4, 0.0) == pytest.approx(8.0)
        assert tradeoff_multiaccess(2, 4, 1.0) == pytest.approx(3.0)
        assert tradeoff_multiaccess(2, 4, 2.0) == pytest.approx(0.0)

    def test_multiaccess_linear_between_knots(self):
        assert tradeoff_multiaccess(2, 4, 0.5) == pytest.approx(5.5)
        assert tradeoff_multiaccess(2, 4, 1.5) == pytest.approx(1.5)

    def test_multiaccess_beyond_last_knot_clamps_to_zero(self):
        assert tradeoff_multiaccess(2, 4, 2.5) == 0.0

    def test_multiaccess_memory_does_not_grow_with_k(self):
        k = 10**7
        tracemalloc.start()
        try:
            values = [tradeoff_multiaccess(k, k + 3, s) for s in (0.25, 5e6 + 0.5, k - 0.5)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        exact = lambda i, t: (1 - t) * (k - i) * (k + 3 - i) + t * (k - i - 1) * (k + 2 - i)
        assert values == pytest.approx([exact(0, 0.25), exact(5 * 10**6, 0.5), exact(k - 1, 0.5)])

    def test_multiaccess_curve_memory_does_not_grow_with_k(self):
        k = 10**7
        grid = [0.25, 5e6 + 0.5, k - 0.5, float(k)]
        tracemalloc.start()
        try:
            curve = tradeoff_curve("multiaccess_in_le_out", grid, k_in=k, k_out=k + 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        exact = lambda i, t: (1 - t) * (k - i) * (k + 3 - i) + t * (k - i - 1) * (k + 2 - i)
        deltas = [d for _, d in curve.points]
        assert deltas == pytest.approx([exact(0, 0.25), exact(5 * 10**6, 0.5), exact(k - 1, 0.5), 0.0])

    def test_multiaccess_knots_beyond_the_double_range_rejected(self):
        k = 10**200
        with pytest.raises(ValueError, match="fit a double"):
            tradeoff_multiaccess(k, k, 0.5)
        assert tradeoff_multiaccess(k, k - 1, 0.5) == 2.0 * 1.5  # K_in > K_out

    def test_complement_dims_beyond_the_double_range_rejected(self):
        k = 10**200
        with pytest.raises(ValueError, match="fit a double"):
            manifold_dims(k, k, 0.5)
        with pytest.raises(ValueError, match="fit a double"):
            tradeoff_curve("orthogonal_complement", [0.5], k_in=k, k_out=k)

    def test_knots_equal_orthogonal_complement_dims(self):
        for k_in, k_out in [(1, 1), (2, 4), (3, 3), (4, 7)]:
            for i in range(min(k_in, k_out) + 1):
                knot = tradeoff_multiaccess(k_in, k_out, float(i))
                dims = manifold_dims(k_in, k_out, float(i))
                assert knot == pytest.approx(dims.n_dim_perp)


class TestTradeoffCurveSampler:
    def test_multicarrier_curve(self):
        curve = tradeoff_curve("multicarrier", [0.0, 0.25, 0.5, 0.75, 1.0], l=5)
        assert isinstance(curve, TradeoffCurve)
        deltas = [d for _, d in curve.points]
        assert_allclose(deltas, [5.0, 3.75, 2.5, 1.25, 0.0])

    def test_affine_decreasing_invariant(self):
        curve = tradeoff_curve("multicarrier", np.linspace(0, 1, 11), l=3)
        deltas = np.array([d for _, d in curve.points])
        assert np.all(np.diff(deltas) < 0)
        assert np.allclose(np.diff(deltas, 2), 0.0, atol=1e-12)

    def test_multiaccess_curve_convex_decreasing(self):
        grid = np.linspace(0, 2, 21)
        curve = tradeoff_curve("multiaccess_in_le_out", grid, k_in=2, k_out=4)
        deltas = np.array([d for _, d in curve.points])
        assert np.all(np.diff(deltas) <= 1e-12)
        assert np.all(np.diff(deltas, 2) >= -1e-9)  # convex
        assert np.all(deltas >= 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            tradeoff_curve("spiral", [0.5])

    def test_multiaccess_requires_dims(self):
        with pytest.raises(ValueError):
            tradeoff_curve("multiaccess_in_le_out", [0.5])


BIG = 10**200  # K_in * K_out overflows a double
HUGE = 10**400  # overflows a double on its own
ANY_KIND = ("single", "multicarrier", "g_scaled", "multiaccess_in_gt_out",
            "multiaccess_in_le_out", "orthogonal_complement")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: tradeoff_curve("spiral", [0.5]), ValueError,
         f"unknown curve kind 'spiral'; choose from {ANY_KIND}"),
        (lambda: tradeoff_curve("single", []), ValueError, "sigma_grid must be non-empty"),
        (lambda: delta("single", 0.5, z_exponent=np.nan), ValueError,
         "z_exponent must be finite and >= 1, got nan"),
        (lambda: delta("multicarrier", 0.5, z_exponent=np.inf), ValueError,
         "z_exponent must be finite and >= 1, got inf"),
        (lambda: delta("g_scaled", 0.5, z_exponent=0.5), ValueError,
         "z_exponent must be finite and >= 1, got 0.5"),
        (lambda: delta("multicarrier", 0.5, l=0), ValueError, "l must be >= 1, got 0"),
        (lambda: delta("multicarrier", 0.5, l=10**400), ValueError,
         "l * z_exponent must fit a double"),
        (lambda: delta("multicarrier", 0.5, l=10, z_exponent=1e308), ValueError,
         "l * z_exponent must fit a double"),
        (lambda: delta("single", 0.5, z_exponent=HUGE), ValueError,
         "z_exponent must fit a double"),
        (lambda: delta("g_scaled", 0.5, g_scale=np.nan), ValueError,
         "g_scale must be finite, got nan"),
        (lambda: delta("g_scaled", 0.5, g_scale=HUGE), ValueError,
         "g_scale must fit a double"),
        (lambda: delta("g_scaled", 0.5, g_scale=1.0), DomainError,
         "g_scale must lie in [0, 1), got 1.0"),
        (lambda: delta("g_scaled", 0.5, g_scale=-0.1), DomainError,
         "g_scale must lie in [0, 1), got -0.1"),
        (lambda: delta("multiaccess_in_le_out", 0.5, k_in=2), ValueError,
         "curve kind 'multiaccess_in_le_out' needs k_in and k_out"),
        (lambda: delta("orthogonal_complement", 0.5, k_out=2), ValueError,
         "curve kind 'orthogonal_complement' needs k_in and k_out"),
        (lambda: delta("multiaccess_in_gt_out", 0.5, k_in=2, k_out=2), ValueError,
         "multiaccess_in_gt_out needs k_in > k_out"),
        (lambda: delta("multiaccess_in_le_out", 0.5, k_in=3, k_out=2), ValueError,
         "multiaccess_in_le_out needs k_in <= k_out"),
        (lambda: delta("orthogonal_complement", 0.5, k_in=3, k_out=2), ValueError,
         "orthogonal_complement needs k_in <= k_out"),
        (lambda: delta("multiaccess_in_gt_out", 0.5, k_in=2, k_out=0), ValueError,
         "matrix dimensions must be >= 1, got 2 x 0"),
        (lambda: delta("multiaccess_in_le_out", 0.5, k_in=0, k_out=2), ValueError,
         "matrix dimensions must be >= 1, got 0 x 2"),
        (lambda: delta("orthogonal_complement", 0.5, k_in=-1, k_out=2), ValueError,
         "matrix dimensions must be >= 1, got -1 x 2"),
        (lambda: delta("multiaccess_in_le_out", 0.5, k_in=BIG, k_out=BIG), ValueError,
         "K_in * K_out must fit a double"),
        (lambda: delta("orthogonal_complement", 0.5, k_in=BIG, k_out=BIG), ValueError,
         "K_in * K_out must fit a double"),
        (lambda: tradeoff_curve("single", [0.5, 0.0]), DomainError,
         "multiplex_ratio must lie in (0, 1], got 0.0"),
        (lambda: tradeoff_curve("single", [HUGE]), DomainError,
         "multiplex_ratio must fit a double"),
        (lambda: tradeoff_curve("orthogonal_complement", [HUGE], k_in=2, k_out=4),
         DomainError, "multiplex_ratio must fit a double"),
        (lambda: tradeoff_curve("multiaccess_in_le_out", [0.5, -HUGE], k_in=2, k_out=4),
         DomainError, "multiplex_ratio must fit a double"),
        (lambda: delta("single", -0.0), DomainError,
         "multiplex_ratio must lie in (0, 1], got -0.0"),
        (lambda: delta("single", 1.5), DomainError,
         "multiplex_ratio must lie in (0, 1], got 1.5"),
        (lambda: delta("multicarrier", -0.1, l=3), DomainError,
         "multiplex_ratio must lie in [0, 1], got -0.1"),
        (lambda: delta("multicarrier", np.nan), DomainError,
         "multiplex_ratio must lie in [0, 1], got nan"),
        (lambda: delta("g_scaled", 1.0 + 2**-52, g_scale=0.5), DomainError,
         "multiplex_ratio must lie in [0, 1], got 1.0000000000000002"),
        (lambda: delta("multiaccess_in_gt_out", -0.5, k_in=4, k_out=2), DomainError,
         "multiplex_ratio must be >= 0, got -0.5"),
        (lambda: delta("multiaccess_in_le_out", np.nan, k_in=2, k_out=4), DomainError,
         "multiplex_ratio must be >= 0, got nan"),
        (lambda: delta("orthogonal_complement", 2.5, k_in=2, k_out=4), DomainError,
         "multiplex_ratio must lie in [0, 2], got 2.5"),
        (lambda: delta("orthogonal_complement", -np.inf, k_in=2, k_out=4), DomainError,
         "multiplex_ratio must lie in [0, 2], got -inf"),
        (lambda: manifold_dims(0, 2, 0.5), ValueError,
         "matrix dimensions must be >= 1, got 0 x 2"),
        (lambda: manifold_dims(-1, -1, 0.5), ValueError,
         "matrix dimensions must be >= 1, got -1 x -1"),
        (lambda: manifold_dims(4, 2, 1.0), ValueError, "expected K_in <= K_out, got 4 > 2"),
        (lambda: manifold_dims(BIG, BIG, 0.5), ValueError, "K_in * K_out must fit a double"),
        (lambda: manifold_dims(2, 4, 2.5), DomainError,
         "multiplex_ratio must lie in [0, 2], got 2.5"),
        (lambda: manifold_dims(2, 4, -0.1), DomainError,
         "multiplex_ratio must lie in [0, 2], got -0.1"),
        (lambda: manifold_dims(2, 4, np.nan), DomainError,
         "multiplex_ratio must lie in [0, 2], got nan"),
        (lambda: manifold_dims(2, 4, HUGE), DomainError, "multiplex_ratio must fit a double"),
        (lambda: manifold_dims(4, 2, np.nan), ValueError, "expected K_in <= K_out, got 4 > 2"),
        (lambda: tradeoff_curve("orthogonal_complement", [0.5, -0.1], k_in=2, k_out=4),
         DomainError, "multiplex_ratio must lie in [0, 2], got -0.1"),
        (lambda: tradeoff_multiaccess(0, 2, 0.5), ValueError,
         "matrix dimensions must be >= 1, got 0 x 2"),
        (lambda: tradeoff_multiaccess(BIG, BIG, 0.5), ValueError,
         "K_in * K_out must fit a double"),
        (lambda: tradeoff_multiaccess(2, 4, -0.1), DomainError,
         "multiplex_ratio must be >= 0, got -0.1"),
        (lambda: tradeoff_multiaccess(4, 2, np.nan), DomainError,
         "multiplex_ratio must be >= 0, got nan"),
        (lambda: OutageParams(snr=0.0, multiplex_ratio=0.5), ValueError,
         "snr must be positive, got 0.0"),
        (lambda: OutageParams(snr=10.0, multiplex_ratio=-0.1), ValueError,
         "multiplex_ratio must lie in [0, 1], got -0.1"),
        (lambda: OutageParams(snr=10.0, multiplex_ratio=0.5, l=0), ValueError,
         "l must be >= 1, got 0"),
        (lambda: OutageParams(snr=np.inf, multiplex_ratio=0.5), ValueError,
         "snr must be finite, got inf"),
        (lambda: perr_single(OutageParams(np.inf, 0.5)), ValueError,
         "snr must be finite, got inf"),
        (lambda: perr_amqd(OutageParams(10.0, 0.5, np.nan)), ValueError,
         "l must be finite, got nan"),
        (lambda: OutageParams(10.0, 0.5, -np.inf), ValueError, "l must be >= 1, got -inf"),
        (lambda: perr_rows([10.0], 0.5, [np.nan]), ValueError, "l must be finite, got nan"),
        (lambda: perr_rows([10.0], 0.5, [2, np.inf]), ValueError,
         "l must be finite, got inf"),
        (lambda: tradeoff_curve("multicarrier", [0.5], l=np.nan), ValueError,
         "l must be finite, got nan"),
        (lambda: tradeoff_curve("multicarrier", [0.5], l=np.inf), ValueError,
         "l must be finite, got inf"),
        (lambda: perr_single(OutageParams(snr=0.5, multiplex_ratio=0.5)), DomainError,
         "power-law outage needs snr >= 1, got 0.5"),
        (lambda: perr_rows([10.0, 0.5], 0.5, (2,)), DomainError,
         "power-law outage needs snr >= 1, got 0.5"),
        (lambda: perr_rows([np.inf], 0.5, [2]), ValueError, "snr must be finite, got inf"),
        # before any row, so the snr below one ahead of it does not mask it
        (lambda: perr_rows([0.5, np.inf], 0.5, ()), ValueError, "snr must be finite, got inf"),
        (lambda: perr_exponential_outage(-1.0, 10.0), ValueError,
         "secret_rate must be >= 0, got -1.0"),
        (lambda: perr_exponential_outage(np.nan, 10.0), ValueError,
         "secret_rate must be >= 0, got nan"),
        (lambda: perr_exponential_outage(1.0, 0.0), ValueError,
         "snr must be positive, got 0.0"),
        (lambda: perr_exponential_outage(1.0, np.nan), ValueError,
         "snr must be positive, got nan"),
        (lambda: perr_exponential_outage(1024.0, 10.0), ValueError,
         "2**secret_rate must fit a double"),
        (lambda: perr_exponential_outage(2000.0, 10.0), ValueError,
         "2**secret_rate must fit a double"),
        (lambda: perr_exponential_outage(HUGE, 10.0), ValueError,
         "2**secret_rate must fit a double"),
        (lambda: perr_exponential_outage(1.0, HUGE), ValueError,
         "snr must fit a double"),
    ],
)
def test_single_fault_error_type_and_message(call, error, message):
    """Each input with one fault raises exactly this type and message."""
    with pytest.raises(ValueError) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


class TestManifoldDims:
    def test_zero_ratio(self):
        dims = manifold_dims(3, 5, 0.0)
        assert dims.dim_m == 0.0
        assert dims.n_dim_perp == 15.0

    def test_hand_point(self):
        dims = manifold_dims(2, 4, 1.0)
        assert dims.dim_m == 5.0
        assert dims.n_dim_perp == 3.0

    def test_full_rank_no_complement(self):
        assert manifold_dims(2, 4, 2.0).n_dim_perp == 0.0

    def test_square_full_ratio_fills_the_space(self):
        assert manifold_dims(3, 3, 3.0) == ManifoldDims(9.0, 0.0, 9.0)

    def test_identity_exact_on_quarter_grid(self):
        for k_in in range(1, 9):
            for k_out in range(k_in, 9):
                for ratio in np.arange(0.0, min(k_in, k_out) + 0.25, 0.25):
                    dims = manifold_dims(k_in, k_out, float(ratio))
                    assert dims.dim_m + dims.n_dim_perp == dims.dim_s == k_in * k_out

    def test_out_of_range_ratio(self):
        with pytest.raises(ValueError):
            manifold_dims(2, 4, 2.5)
        with pytest.raises(ValueError):
            manifold_dims(2, 4, -0.1)
        with pytest.raises(ValueError):
            manifold_dims(4, 2, 1.0)  # K_in must not exceed K_out


class TestOutageParamsValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            OutageParams(snr=0.0, multiplex_ratio=0.5)
        with pytest.raises(ValueError):
            OutageParams(snr=10.0, multiplex_ratio=-0.1)
        with pytest.raises(ValueError):
            OutageParams(snr=10.0, multiplex_ratio=0.5, l=0)
