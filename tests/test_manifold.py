"""Outage power laws, tradeoff curves, dimension counting and the log-det
rate."""

import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcqkd.errors import DomainError
from mcqkd.manifold import (
    OutageParams,
    TradeoffCurve,
    manifold_dims,
    perr_amqd,
    perr_exponential_outage,
    perr_rank_outage,
    perr_single,
    tradeoff_curve,
    tradeoff_g_scaled,
    tradeoff_multiaccess,
    tradeoff_multicarrier,
    tradeoff_single,
)
from mcqkd.singular_layer import TransmittanceMatrix, log_det_rate, svd_decompose


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

    def test_forms_never_cross(self):
        # 1 - exp(-x) <= x for all x >= 0
        for rate in (0.5, 1.0, 2.0, 4.0):
            for snr in (1.0, 10.0, 1e4):
                q, e = perr_exponential_outage(rate, snr)
                assert e <= q + 1e-15


class TestTradeoffFamilies:
    def test_single_values(self):
        assert tradeoff_single(1.0) == 0.0
        assert tradeoff_single(0.5, z_exponent=2.0) == pytest.approx(1.0)
        assert tradeoff_single(0.25) == pytest.approx(0.75)

    def test_single_domain_is_half_open(self):
        with pytest.raises(DomainError):
            tradeoff_single(0.0)
        with pytest.raises(DomainError):
            tradeoff_single(1.2)

    def test_multicarrier_reduction_and_gain(self):
        for ratio in (0.2, 0.6, 1.0):
            assert tradeoff_multicarrier(ratio, 1.0, 1) == pytest.approx(
                tradeoff_single(ratio)
            )
        assert tradeoff_multicarrier(0.6, 1.0, 5) == pytest.approx(2.0)
        # l-fold manifold gain relative to the single-carrier curve
        for ratio in np.linspace(0.1, 0.9, 9):
            ratio_gain = tradeoff_multicarrier(ratio, 1.0, 7) / tradeoff_single(ratio)
            assert ratio_gain == pytest.approx(7.0)

    def test_multicarrier_allows_zero_ratio(self):
        assert tradeoff_multicarrier(0.0, 1.0, 3) == pytest.approx(3.0)

    @pytest.mark.parametrize(
        "l, z",
        [(10**400, 1.0), (10, 1e308),
         # l <= max / Z, but l * Z rounds up past the largest double
         (int(sys.float_info.max / 1.2754035088855806), 1.2754035088855806)],
        ids=["huge-l", "l-times-z", "product-rounds-up"],
    )
    def test_multicarrier_scale_must_fit_a_double(self, l, z):
        with pytest.raises(ValueError, match=r"l \* z_exponent must fit a double") as excinfo:
            tradeoff_multicarrier(0.5, z, l)
        assert not isinstance(excinfo.value, DomainError)
        assert tradeoff_multicarrier(0.0, 1e308, 1) == 1e308

    def test_g_scaled(self):
        assert tradeoff_g_scaled(0.3, 1.0, 0.0) == pytest.approx(tradeoff_multicarrier(0.3, 1.0, 1))
        assert tradeoff_g_scaled(0.0, 1.0, 0.5) == pytest.approx(0.5)
        for g in (0.1, 0.5, 0.9):
            for ratio in (0.0, 0.4, 0.8):
                assert tradeoff_g_scaled(ratio, 1.0, g) <= tradeoff_multicarrier(
                    ratio, 1.0, 1
                )
        with pytest.raises(DomainError):
            tradeoff_g_scaled(0.3, 1.0, 1.0)

    @pytest.mark.parametrize("g_scale", [np.nan, np.inf, -np.inf])
    def test_non_finite_g_scale_is_a_configuration_error(self, g_scale):
        with pytest.raises(ValueError, match="finite") as excinfo:
            tradeoff_g_scaled(0.3, 1.0, g_scale)
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


class TestRankOutage:
    def test_zero_ratio_square(self):
        assert perr_rank_outage(2, 2, 0.0, 10.0) == pytest.approx(1e-4)

    def test_hand_point(self):
        assert perr_rank_outage(2, 4, 1.0, 10.0) == pytest.approx(1e-3)

    def test_full_ratio_is_one(self):
        assert perr_rank_outage(3, 5, 3.0, 100.0) == 1.0

    def test_exponent_matches_dims(self):
        for k_in, k_out, ratio in [(2, 3, 0.5), (3, 3, 1.0), (2, 6, 1.5)]:
            p = perr_rank_outage(k_in, k_out, ratio, 50.0)
            n_perp = manifold_dims(k_in, k_out, ratio).n_dim_perp
            assert p == pytest.approx(50.0**-n_perp)


class TestLogDetRate:
    def test_zero_matrix(self):
        m = TransmittanceMatrix(np.zeros((2, 2), dtype=complex))
        assert log_det_rate(m, 2.0) == pytest.approx(0.0)

    def test_identity_hand_value(self):
        m = TransmittanceMatrix(np.eye(2, dtype=complex))
        assert log_det_rate(m, 2.0) == pytest.approx(2.0)

    def test_det_form_matches_svd_form(self):
        rng = np.random.default_rng(41)
        m = TransmittanceMatrix(
            rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        )
        snr = 7.0
        lhs = log_det_rate(m, snr)
        lambdas = svd_decompose(m).lambdas
        rhs = np.sum(np.log2(1.0 + (snr / m.k_in) * lambdas**2))
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestOutageParamsValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            OutageParams(snr=0.0, multiplex_ratio=0.5)
        with pytest.raises(ValueError):
            OutageParams(snr=10.0, multiplex_ratio=-0.1)
        with pytest.raises(ValueError):
            OutageParams(snr=10.0, multiplex_ratio=0.5, l=0)
