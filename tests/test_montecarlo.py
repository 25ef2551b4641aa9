"""Monte Carlo outage estimation: Wilson bounds, slope fits, calibration.

Calibration targets are the closed-form gamma/exponential outage
probabilities; every seeded run asserted here was checked against those
targets before the seed was frozen.
"""

import math
import os
import re
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special, stats

from mcqkd.errors import DomainError, InsufficientTrialsError
from mcqkd.montecarlo import (
    EmpiricalOutage,
    TrialConfig,
    estimate_mean_fade_outage,
    estimate_rate_outage,
    wilson_interval,
)
from mcqkd import montecarlo

from oracles import (
    gamma_cdf_series, inverse_fade_mean_quad, ls_slope, rate_outage_convolution,
    rate_outage_l2_quad, wilson_direct,
)

GRID = (10.0, 31.6, 100.0)
HIGH_GRID = (1e4, 1e5, 1e6)


def analytic_inside_3sigma(outage, analytic_fn):
    """True when the analytic outage lies inside the 3-sigma Wilson interval
    recomputed from the run's own success counts, at every grid point."""
    for snr, successes in zip(outage.snr_grid, outage.successes):
        lo, hi = wilson_interval(successes, outage.trials, z=3.0)
        if not lo <= analytic_fn(snr) <= hi:
            return False
    return True


class TestWilsonInterval:
    def test_zero_successes_pin_lower_bound(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert 0.0 < hi < 0.01

    def test_full_successes_pin_upper_bound(self):
        lo, hi = wilson_interval(1000, 1000)
        assert hi == 1.0
        assert 0.99 < lo < 1.0

    def test_half_split_textbook_values(self):
        lo, hi = wilson_interval(50, 100)
        assert_allclose(lo, 0.4038315303659956, rtol=1e-12)
        assert_allclose(hi, 0.5961684696340044, rtol=1e-12)

    def test_interval_is_symmetric_around_half(self):
        lo, hi = wilson_interval(50, 100)
        assert_allclose(lo + hi, 1.0, atol=1e-14)

    @pytest.mark.parametrize(
        "successes,trials", [(1, 30), (7, 50), (250, 1000), (999, 1000), (13, 13)]
    )
    def test_matches_direct_transcription(self, successes, trials):
        z = float(stats.norm.ppf(0.975))
        expected = wilson_direct(successes, trials, z)
        got = wilson_interval(successes, trials)
        assert_allclose(got, np.clip(expected, 0.0, 1.0), rtol=1e-12)

    def test_higher_confidence_widens_interval(self):
        lo95, hi95 = wilson_interval(30, 500)
        lo3, hi3 = wilson_interval(30, 500, z=3.0)
        assert lo3 < lo95 and hi3 > hi95

    def test_default_z_is_the_scipy_quantile(self):
        assert montecarlo._Z95 == special.ndtri(0.975)

    @pytest.mark.parametrize(
        "successes,trials,z",
        [(0, 0, 0.95), (-1, 10, 0.95), (11, 10, 0.95), (5, 10, 0.0), (5, 10, -1.0),
         (5, 10, math.inf), (5, 10, math.nan)],
    )
    def test_validation(self, successes, trials, z):
        with pytest.raises(ValueError):
            wilson_interval(successes, trials, z)


class TestSlopeFit:
    """The slope that ``_assemble`` fits to the positive estimates, on counts
    whose p_hat = s / trials follows a known law."""

    def _assemble(self, snr_grid, successes):
        cfg = TrialConfig(l=1, multiplex_ratio=0.0, snr_grid=snr_grid, trials=10**12, seed=1)
        return montecarlo._assemble(cfg, successes)

    def test_exact_power_law_recovered(self):
        # p_hat = snr**-3 on snr 10 ... 1e4
        out = self._assemble((10.0, 100.0, 1000.0, 10000.0), [10**9, 10**6, 10**3, 1])
        assert_allclose(out.slope, 3.0, atol=1e-9)
        assert out.slope_stderr < 1e-9

    def test_intercept_does_not_bias_slope(self):
        # p_hat = 0.5 * snr**-2
        out = self._assemble((10.0, 100.0, 1000.0), [5 * 10**9, 5 * 10**7, 5 * 10**5])
        assert_allclose(out.slope, 2.0, atol=1e-9)

    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(77)
        grid = np.logspace(1, 4, 6)
        counts = np.rint(1e12 * grid**-1.3 * np.exp(rng.normal(0.0, 0.05, size=6)))
        out = self._assemble(tuple(grid), [int(c) for c in counts])
        x, y = np.log2(grid), np.log2(np.array(out.p_hat))
        assert_allclose(out.slope, -ls_slope(x, y), rtol=1e-12)
        assert_allclose(out.slope_stderr, stats.linregress(x, y).stderr, rtol=1e-9)

    def test_zero_estimates_excluded_and_counted(self):
        cfg = TrialConfig(l=1, multiplex_ratio=0.0, snr_grid=(10.0, 31.6, 100.0, 316.0),
                          trials=10_000, seed=1)
        out = montecarlo._assemble(cfg, [100, 10, 1, 0])
        assert out.excluded == 1 and out.p_hat[3] == 0.0
        clean = ls_slope(np.log2(cfg.snr_grid[:3]), np.log2(out.p_hat[:3]))
        assert_allclose(out.slope, -clean, rtol=1e-12)

    def test_too_few_nonzero_points(self):
        cfg = TrialConfig(l=1, multiplex_ratio=0.0, snr_grid=GRID, trials=1000, seed=1)
        with pytest.raises(InsufficientTrialsError, match="at least 3 nonzero points, got 2") as info:
            montecarlo._assemble(cfg, [10, 1, 0])
        assert info.value.outage.excluded == 1 and math.isnan(info.value.outage.slope)

    @pytest.mark.parametrize(
        "estimate, ratio, grid",
        [
            (estimate_mean_fade_outage, 0.0, (2.0, 2.0, 2.0)),
            (estimate_rate_outage, 0.5, (2.0, 2.0, 2.0)),
            # adjacent doubles share one log2, the fit's abscissa
            (estimate_mean_fade_outage, 0.0, (1000.0, 1000.0000000000001, 1000.0000000000002)),
        ],
        ids=["mean_fade", "rate", "one_log2"],
    )
    def test_constant_grid_is_refused_before_sampling(self, monkeypatch, estimate, ratio, grid):
        def draw(*args):
            raise AssertionError("a uniform was drawn")

        monkeypatch.setattr(montecarlo, "_block_fades", draw)
        cfg = TrialConfig(l=2, multiplex_ratio=ratio, snr_grid=grid, trials=1000, seed=1)
        with pytest.raises(DomainError, match="^snr grid is constant; slope undefined$") as info:
            estimate(cfg)
        assert not hasattr(info.value, "outage")


class TestExcludedCount:
    """``EmpiricalOutage.excluded`` counts the zero estimates left out of the
    slope fit, on a result and on the partial result of each failure."""

    def _cfg(self, snr_grid):
        return TrialConfig(l=1, multiplex_ratio=0.0, snr_grid=snr_grid, trials=1000, seed=1)

    def test_no_zero_estimate_counts_zero(self):
        assert montecarlo._assemble(self._cfg(GRID), [100, 10, 1]).excluded == 0

    def test_sampled_zero_estimate_is_counted(self):
        cfg = TrialConfig(l=64, multiplex_ratio=0.0, snr_grid=(1.2, 1.3, 1.4, 2.0),
                          trials=100_000, seed=9)
        out = estimate_mean_fade_outage(cfg)
        assert out.successes[3] == 0 and out.excluded == 1 and out.slope > 0

    @pytest.mark.parametrize(
        "grid, successes, error, match, excluded",
        [
            # the all-zero refusal runs no fit, so it leaves nothing out
            (GRID, [0, 0, 0], InsufficientTrialsError, "no outage events", 0),
            # every nonzero estimate at one snr value of a grid that is not constant
            ((10.0, 10.0, 10.0, 100.0), [5, 5, 5, 0], InsufficientTrialsError,
             "^slope undefined: every nonzero estimate is at one snr value, 10; increase trials$",
             1),
        ],
        ids=["all_zero", "one_snr_value"],
    )
    def test_each_failure_carries_its_count(self, grid, successes, error, match, excluded):
        with pytest.raises(error, match=match) as info:
            montecarlo._assemble(self._cfg(grid), successes)
        outage = info.value.outage
        assert outage.excluded == excluded and math.isnan(outage.slope)
        assert outage.successes == tuple(successes)


class TestTrialConfig:
    def test_grid_coerced_to_float_tuple(self):
        cfg = TrialConfig(l=1, multiplex_ratio=0.0, snr_grid=[10, 32, 100], trials=1000, seed=1)
        assert cfg.snr_grid == (10.0, 32.0, 100.0)
        assert isinstance(cfg.snr_grid, tuple)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(l=0),
            dict(l=2**20 + 1),
            dict(multiplex_ratio=-0.1),
            dict(multiplex_ratio=1.1),
            dict(snr_grid=(10.0, 100.0)),
            dict(snr_grid=(1.0, 10.0, 100.0)),
            dict(snr_grid=(0.5, 10.0, 100.0)),
            dict(snr_grid=(math.nan, 10.0, 100.0)),
            dict(snr_grid=(10.0, 100.0, math.inf)),
            dict(trials=999),
            dict(fade_variance=0.0),
            dict(fade_variance=math.nan),
            dict(fade_variance=math.inf),
            dict(seed=-1),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        base = dict(l=1, multiplex_ratio=0.0, snr_grid=GRID, trials=1000, seed=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            TrialConfig(**base)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(l=2.0), "l must be an integer, got 2.0"),
            (dict(trials=2000.0), "trials must be an integer, got 2000.0"),
            (dict(seed=1.7), "seed must be an integer, got 1.7"),
        ],
        ids=["l", "trials", "seed"],
    )
    def test_a_float_where_an_integer_belongs_is_rejected(self, kwargs, message):
        base = dict(l=2, multiplex_ratio=0.0, snr_grid=(2, 3, 4), trials=2000, seed=1)
        base.update(kwargs)
        with pytest.raises(ValueError) as excinfo:
            TrialConfig(**base)
        assert type(excinfo.value) is ValueError and str(excinfo.value) == message

    def test_numpy_integers_are_stored_as_ints(self):
        cfg = TrialConfig(l=np.int64(2), multiplex_ratio=0.0, snr_grid=(2, 3, 4),
                          trials=np.uint32(2000), seed=np.int8(3))
        assert (cfg.l, cfg.trials, cfg.seed) == (2, 2000, 3)
        assert {type(cfg.l), type(cfg.trials), type(cfg.seed)} == {int}


class TestMeanFadeOutage:
    def test_fade_variance_rescales_outage(self):
        """Doubling the fade variance at fixed snr is the same event as
        halving the threshold, so the estimate must drop."""
        base = TrialConfig(l=1, multiplex_ratio=0.0, snr_grid=GRID, trials=100_000, seed=7)
        wide = TrialConfig(
            l=1, multiplex_ratio=0.0, snr_grid=GRID, trials=100_000, seed=7, fade_variance=2.0
        )
        p_base = estimate_mean_fade_outage(base).p_hat
        p_wide = estimate_mean_fade_outage(wide).p_hat
        assert all(w < b for w, b in zip(p_wide, p_base))

    def test_seed_changes_the_sample(self):
        mk = lambda seed: TrialConfig(
            l=1, multiplex_ratio=0.0, snr_grid=GRID, trials=50_000, seed=seed
        )
        a = estimate_mean_fade_outage(mk(1))
        b = estimate_mean_fade_outage(mk(2))
        assert a.successes != b.successes

    def test_seeds_two_to_the_64_apart_draw_different_samples(self):
        mk = lambda seed: TrialConfig(
            l=2, multiplex_ratio=0.0, snr_grid=GRID, trials=20_000, seed=seed
        )
        a = estimate_mean_fade_outage(mk(1))
        b = estimate_mean_fade_outage(mk(2**64 + 1))
        assert a.successes != b.successes

    def test_unresolvable_probability_is_refused(self):
        cfg = TrialConfig(l=4, multiplex_ratio=0.0, snr_grid=(1e3, 1e4, 1e5), trials=10_000, seed=1)
        with pytest.raises(InsufficientTrialsError, match="cannot be resolved by sampling"):
            estimate_mean_fade_outage(cfg)

    def test_all_zero_counts_attach_partial_result(self):
        """Rare-but-allowed probabilities can still produce zero counts; the
        error then carries the per-point zeros with an undefined slope."""
        cfg = TrialConfig(
            l=2, multiplex_ratio=0.0, snr_grid=(1e3, 3.16e3, 1e4), trials=1000, seed=5
        )
        with pytest.raises(InsufficientTrialsError) as excinfo:
            estimate_mean_fade_outage(cfg)
        partial = excinfo.value.outage
        assert partial is not None
        assert partial.p_hat == (0.0, 0.0, 0.0)
        assert partial.successes == (0, 0, 0)
        assert math.isnan(partial.slope)
        assert partial.ci_low == (0.0, 0.0, 0.0)
        assert all(hi > 0 for hi in partial.ci_high)


class TestRateOutage:
    def test_zero_multiplex_event_never_occurs(self, monkeypatch):
        """A zero rate is never missed: the event is impossible, so the grid
        is refused before any fade is drawn."""
        drawn = []
        monkeypatch.setattr(montecarlo, "_block_fades", lambda *args: drawn.append(args))
        cfg = TrialConfig(l=1, multiplex_ratio=0.0, snr_grid=GRID, trials=1000, seed=1)
        with pytest.raises(
            InsufficientTrialsError, match="outage upper bound 0.000e[+]00 is below"
        ):
            estimate_rate_outage(cfg)
        assert drawn == []

    def test_half_multiplex_calibration(self):
        """l=1 at half multiplexing: outage below snr^(1/2) bits is the
        exponential event with threshold (sqrt(snr) - 1)/snr."""
        cfg = TrialConfig(l=1, multiplex_ratio=0.5, snr_grid=GRID, trials=1_000_000, seed=303)
        out = estimate_rate_outage(cfg)
        analytic = lambda s: 1.0 - math.exp(-(math.sqrt(s) - 1.0) / s)
        assert analytic_inside_3sigma(out, analytic)
        assert_allclose(out.p_hat[2], 1.0 - math.exp(-0.09), atol=1e-3)

    def test_single_channel_slope_at_high_snr(self):
        cfg = TrialConfig(l=1, multiplex_ratio=0.5, snr_grid=HIGH_GRID, trials=200_000, seed=11)
        out = estimate_rate_outage(cfg)
        assert 0.425 <= out.slope <= 0.575

    def test_two_channel_slope_at_high_snr(self):
        """The exact slope on this grid is 0.894 (quadrature oracle); 4M trials
        put about 48 events at snr=1e6, so both the slope band and the
        per-point calibration are resolved rather than left to the seed."""
        cfg = TrialConfig(
            l=2, multiplex_ratio=0.5, snr_grid=HIGH_GRID, trials=4_000_000, seed=3
        )
        out = estimate_rate_outage(cfg)
        assert analytic_inside_3sigma(out, lambda s: rate_outage_l2_quad(s, 0.5))
        assert 0.85 <= out.slope <= 1.15

    @pytest.mark.parametrize(
        "l, ratio, variance, grid, reference",
        [
            (1, 0.5, 0.7, (3.0, 10.0, 30.0),
             lambda s: -math.expm1(-(math.sqrt(s) - 1.0) / (0.7 * s))),
            (2, 0.5, 1.0, (10.0, 100.0, 1000.0), lambda s: rate_outage_l2_quad(s, 0.5)),
            (16, 0.75, 1.0, (10.0, 30.0, 100.0),
             lambda s: rate_outage_convolution(16, s, 0.75)),
        ],
        ids=["l1_closed_form", "l2_quadrature", "l16_convolution"],
    )
    @pytest.mark.parametrize("seed", [1203, 1204])
    def test_fresh_seeds_sit_within_three_sigma(self, seed, l, ratio, variance, grid, reference):
        """At a million trials the estimates sit inside the 3-sigma Wilson
        band of the l=1 closed form 1 - exp(-(snr**r - 1)/(snr v)), the l=2
        quadrature and the l=16 convolution."""
        cfg = TrialConfig(l=l, multiplex_ratio=ratio, snr_grid=grid, trials=1_000_000,
                          seed=seed, fade_variance=variance)
        assert analytic_inside_3sigma(estimate_rate_outage(cfg), reference)

    def test_unresolvable_probability_is_refused(self):
        cfg = TrialConfig(
            l=4, multiplex_ratio=0.25, snr_grid=(1e5, 1e6, 1e7), trials=10_000, seed=1
        )
        with pytest.raises(InsufficientTrialsError, match="rate outage"):
            estimate_rate_outage(cfg)


class TestRefusal:
    """Both modes refuse a grid on its first point whose outage is below 1e-8
    (in rate mode, whose upper bound is), before any fade is drawn."""

    @pytest.mark.parametrize(
        "estimate, ratio, grid, what",
        [
            (estimate_mean_fade_outage, 0.0, (2.0, 1e5, 3.0), "mean-fade outage"),
            (estimate_rate_outage, 0.25, (10.0, 1e6, 20.0), "rate outage"),
        ],
    )
    def test_only_the_middle_point_unresolvable(self, monkeypatch, estimate, ratio, grid, what):
        drawn = []
        monkeypatch.setattr(montecarlo, "_block_fades", lambda *args: drawn.append(args))
        cfg = TrialConfig(l=4, multiplex_ratio=ratio, snr_grid=grid, trials=10_000, seed=1)
        with pytest.raises(InsufficientTrialsError) as excinfo:
            estimate(cfg)
        message = str(excinfo.value)
        assert message.startswith(f"refusing {what} at snr={grid[1]:g}: ")
        assert "cannot be resolved by sampling" in message
        assert drawn == []

    def test_mean_fade_refuses_on_the_gamma_series_oracle(self, monkeypatch):
        """The probabilities mean-fade mode tests are P(l, l/(snr v)), checked
        against the closed-form series rather than scipy's gammainc."""
        seen = []

        def refuse(cfg, threads, probabilities, what, measure, events):
            seen.extend(probabilities)
            raise InsufficientTrialsError("stop before sampling")

        monkeypatch.setattr(montecarlo, "_estimate", refuse)
        grid = (1.5, 4.0, 10.0, 300.0)
        cfg = TrialConfig(
            l=3, multiplex_ratio=0.0, snr_grid=grid, trials=10_000, seed=1, fade_variance=0.8
        )
        with pytest.raises(InsufficientTrialsError, match="stop before sampling"):
            estimate_mean_fade_outage(cfg)
        expected = [gamma_cdf_series(3, 3.0 / (snr * 0.8)) for snr in grid]
        assert seen == pytest.approx(expected, rel=0, abs=1e-12)

    @pytest.mark.parametrize(
        "estimate, ratio, measure",
        [
            (estimate_mean_fade_outage, 0.0, "analytic outage probability"),
            (estimate_rate_outage, 0.25, "outage upper bound"),
        ],
        ids=["mean_fade", "rate"],
    )
    def test_message_names_the_quantity_compared(self, estimate, ratio, measure):
        """Mean-fade compares the exact P(l, l/(snr v)); rate mode only an
        upper bound on its outage, and says so."""
        cfg = TrialConfig(
            l=4, multiplex_ratio=ratio, snr_grid=(10.0, 1e6, 20.0), trials=10_000, seed=1
        )
        with pytest.raises(InsufficientTrialsError) as excinfo:
            estimate(cfg)
        message = str(excinfo.value)
        value = r"\d\.\d{3}e[-+]\d+"
        pattern = rf"refusing \S+ outage at snr=1e\+06: {measure} {value} is below 1e-08 "
        assert re.match(pattern, message)
        assert ("analytic" in message) == (estimate is estimate_mean_fade_outage)

    @pytest.mark.parametrize(
        "grid, variance",
        [((1e90, 1e95, 1e100), 1.0), ((2.0, 3.0, 4.0), 1e300)],
        ids=["huge_snr", "huge_fade_variance"],
    )
    def test_underflowed_outage_refused_before_sampling(self, monkeypatch, grid, variance):
        """P(l, l/(snr v)) underflows to 0.0 here: a sample of any size
        counts no event, so the grid is refused up front."""
        drawn = []
        monkeypatch.setattr(montecarlo, "_block_fades", lambda *args: drawn.append(args))
        cfg = TrialConfig(
            l=4, multiplex_ratio=0.0, snr_grid=grid, trials=4_000_000, seed=1,
            fade_variance=variance,
        )
        assert special.gammainc(cfg.l, cfg.l / (grid[0] * variance)) == 0.0
        with pytest.raises(InsufficientTrialsError) as excinfo:
            estimate_mean_fade_outage(cfg)
        assert str(excinfo.value).startswith(f"refusing mean-fade outage at snr={grid[0]:g}: ")
        assert drawn == []


class TestRateOutageBound:
    """Rate mode refuses on the Chernoff bound at theta = 1,
    2**(l * rate) * E[1/(1 + a E)]**l with a = snr * v and E ~ Exp(1)."""

    @pytest.mark.parametrize("a", [1e-6, 0.5, 1.0, 10.0, 1e3, 1e6])
    def test_mean_of_the_inverse_is_the_tricomi_function(self, a):
        assert montecarlo._exp_e1(1.0 / a) / a == pytest.approx(
            inverse_fade_mean_quad(a), rel=1e-9, abs=0.0
        )

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_bound_matches_quadrature(self, l):
        grid = (1e4, 1e5, 1e6)
        expected = [(s**0.5 * inverse_fade_mean_quad(2.0 * s)) ** l for s in grid]
        assert max(expected) < 1.0
        bounds = [montecarlo._rate_outage_bound(l, 0.5 * math.log2(s), 2.0 * s) for s in grid]
        assert_allclose(bounds, expected, rtol=1e-8)

    # at ratio 0.9 and snr >= 3e5 the quadrature reports roundoff; the bound
    # is 1 there, at least 1.9 times the outage
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("ratio", [0.25, 0.5, 0.9])
    def test_bound_is_above_the_two_channel_outage(self, ratio):
        for snr in np.logspace(1.0, 6.0, 11).tolist():
            bound = montecarlo._rate_outage_bound(2, ratio * math.log2(snr), snr)
            assert bound >= rate_outage_l2_quad(snr, ratio)

    @pytest.mark.filterwarnings("error")
    def test_extreme_arguments_raise_no_warning(self):
        bound = lambda l, ratio, grid, v: [
            montecarlo._rate_outage_bound(l, ratio * math.log2(snr), snr * v) for snr in grid
        ]
        # 2**(l * rate) is far beyond the double range: capped at 1
        assert bound(2**20, 1.0, (1e300, 1e301, 1e302), 1.0) == [1.0] * 3
        # a = snr * v below 1e-300: E[1/(1 + a E)] is 1, so the bound is too
        assert bound(1, 0.5, (2.0, 3.0, 4.0), 1e-320) == [1.0] * 3
        # a = snr * v overflows: still a positive bound, far below 1e-8
        assert all(0.0 < b < 1e-100 for b in bound(1, 0.5, (1e300, 2e300, 3e300), 1e10))
        # a zero rate is an impossible event
        assert bound(4, 0.0, (10.0, 20.0, 30.0), 1.0) == [0.0] * 3


class TestSpecialFunctions:
    """The refusals' regularised gamma P(l, x) and e**x E1(x) = U(1, 1, x),
    against mpmath at 40 digits and the closed-form gamma series."""

    @pytest.mark.parametrize("l", [1, 2, 3, 8, 32, 100])
    def test_gamma_p_matches_the_series_oracle(self, l):
        """The oracle 1 - e**-x sum_k x**k / k! runs in decimal at 400 digits,
        so it does not cancel in the lower tail, down to P = 1e-300."""
        checked = 0
        for x in l * np.logspace(-3.0, 1.0, 81):
            expected = gamma_cdf_series(l, x)
            if expected >= 1e-300:
                assert montecarlo._gamma_p(l, x) == pytest.approx(expected, rel=1e-11, abs=0.0)
                checked += 1
        assert checked > 20

    @pytest.mark.parametrize("l", [1, 2, 3, 15, 16, 17, 100, 1000, 4096])
    def test_gamma_p_matches_mpmath_down_to_1e_300(self, l):
        xs = [l * 2.0 ** (-k * 25.0 / l) for k in range(41)]
        xs += [l + d * math.sqrt(l) for d in range(-30, 31, 2) if d * d < l]
        xs += [l + 1.0, math.nextafter(l + 1.0, 0.0), 2.0 * l + 5.0, 16.0 * l + 40.0]
        tested = []
        with mpmath.workdps(40):
            for x in xs:
                expected = mpmath.gammainc(l, 0, mpmath.mpf(x), regularized=True)
                if expected >= 1e-300:
                    assert montecarlo._gamma_p(l, x) == pytest.approx(float(expected), rel=1e-11, abs=0.0)
                    tested.append((x, float(expected)))
        # both the series (x < l + 1) and the continued fraction, and P
        # from below 1e-250 up to nearly 1
        assert any(x < l + 1 for x, _ in tested) and any(x >= l + 1 for x, _ in tested)
        assert min(p for _, p in tested) < 1e-250 and max(p for _, p in tested) > 0.99

    def test_gamma_p_at_the_ends(self):
        assert montecarlo._gamma_p(4, 0.0) == 0.0
        assert montecarlo._gamma_p(4, math.inf) == 1.0
        assert montecarlo._gamma_p(4, 5e-324) == 0.0
        assert montecarlo._gamma_p(2**20, 1e300) == 1.0

    def test_gamma_p_at_the_widest_l_matches_scipy(self):
        """At l = 2**20 the series takes its most terms near x = l."""
        l = 2**20
        for x in (0.99 * l, l - 1.0, float(l), l + 1.0, 1.001 * l):
            assert montecarlo._gamma_p(l, x) == pytest.approx(
                special.gammainc(l, x), rel=1e-9, abs=0.0
            )

    @pytest.mark.parametrize(
        "x",
        [1e-300, 1e-100, 1e-8, 0.5, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0),
         1.5, 10.0, 1e3, 1e8, 1e100, 1e300],
    )
    def test_exp_e1_matches_mpmath(self, x):
        with mpmath.workdps(40):
            expected = float(mpmath.e1(x) * mpmath.exp(x))
        assert montecarlo._exp_e1(x) == pytest.approx(expected, rel=1e-13, abs=0.0)


class TestSharedDraw:
    """Every grid point counts its events on the same fades: trial t draws
    the same |F_i|^2 whatever the grid, its order or the thread count."""

    def test_reordering_the_grid_permutes_the_counts(self):
        grid = (10.0, 31.6, 100.0, 5.0)
        order = (2, 0, 3, 1)
        for estimate, ratio in ((estimate_mean_fade_outage, 0.0), (estimate_rate_outage, 0.5)):
            mk = lambda g: TrialConfig(
                l=2, multiplex_ratio=ratio, snr_grid=g, trials=70_000, seed=8
            )
            base = estimate(mk(grid)).successes
            shuffled = estimate(mk(tuple(grid[i] for i in order))).successes
            assert shuffled == tuple(base[i] for i in order)

    def test_point_count_ignores_the_other_points(self):
        mk = lambda g: TrialConfig(l=1, multiplex_ratio=0.5, snr_grid=g, trials=70_000, seed=5)
        for estimate in (estimate_mean_fade_outage, estimate_rate_outage):
            a = estimate(mk((10.0, 31.6, 100.0)))
            b = estimate(mk((31.6, 3.0, 1000.0, 20.0)))
            assert a.successes[1] == b.successes[0]

    def test_mean_fade_counts_are_nested(self):
        """Raising snr lowers the threshold 1/snr on a common draw, so the
        outage events are nested and the counts cannot increase."""
        grid = tuple(np.linspace(10.0, 10.5, 9))
        cfg = TrialConfig(l=2, multiplex_ratio=0.0, snr_grid=grid, trials=100_000, seed=6)
        counts = estimate_mean_fade_outage(cfg).successes
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] > counts[-1] > 0

    @pytest.mark.parametrize(
        "estimate, l, ratio, trials, seed",
        [
            (estimate_mean_fade_outage, 2, 0.0, 200_000, 4),
            (estimate_rate_outage, 2, 0.5, 200_000, 4),
            (estimate_mean_fade_outage, 2, 0.0, 200_000, 42),
            (estimate_rate_outage, 1, 0.5, 150_000, 9),
        ],
        ids=["mean_fade-l2-seed4", "rate-l2-seed4", "mean_fade-l2-seed42", "rate-l1-seed9"],
    )
    def test_counts_and_csv_identical_at_one_two_three_threads(
        self, monkeypatch, estimate, l, ratio, trials, seed
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        cfg = TrialConfig(l=l, multiplex_ratio=ratio, snr_grid=GRID, trials=trials, seed=seed)
        runs = [estimate(cfg, threads=t) for t in (1, 2, 3)]
        assert len({(r.successes, r.p_hat, r.slope, r.to_csv()) for r in runs}) == 1


class TestThreadsAndBlocks:
    def _pool_sizes(self, monkeypatch):
        sizes = []
        real = montecarlo.ThreadPoolExecutor

        def spy(max_workers):
            sizes.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", spy)
        return sizes

    def test_threads_clamped_to_cpu_count(self, monkeypatch):
        sizes = self._pool_sizes(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = TrialConfig(l=1, multiplex_ratio=0.0, snr_grid=GRID, trials=300_000, seed=1)
        clamped = estimate_mean_fade_outage(cfg, threads=64)
        assert sizes == [2]
        assert clamped.successes == estimate_mean_fade_outage(cfg).successes

    @pytest.mark.parametrize("threads", [2, 3])
    def test_worker_w_counts_blocks_w_plus_multiples_of_the_worker_count(
        self, monkeypatch, threads
    ):
        """One pool task per worker; the task started for worker w draws
        blocks w, w + W, ... and every block's generator is made once."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        tasks, drawn, running = [], [], {}
        real_pool, real_rng = montecarlo.ThreadPoolExecutor, montecarlo._block_rng

        class SpyPool(real_pool):
            def map(self, fn, firsts):
                firsts = list(firsts)
                tasks.append(firsts)

                def task(first):
                    running[threading.get_ident()] = first
                    return fn(first)

                return super().map(task, firsts)

        def spy(seed, block_index):
            drawn.append((running[threading.get_ident()], block_index))
            return real_rng(seed, block_index)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SpyPool)
        monkeypatch.setattr(montecarlo, "_block_rng", spy)
        # 7 blocks of 65536 trials, the last one ragged
        cfg = TrialConfig(l=1, multiplex_ratio=0.0, snr_grid=GRID, trials=400_000, seed=1)
        pooled = estimate_mean_fade_outage(cfg, threads=threads)
        assert tasks == [list(range(threads))]
        for first in range(threads):
            blocks = [b for w, b in drawn if w == first]
            assert blocks == list(range(first, 7, threads))
        monkeypatch.setattr(montecarlo, "_block_rng", real_rng)
        assert pooled.successes == estimate_mean_fade_outage(cfg).successes

    def test_unknown_cpu_count_runs_serially(self, monkeypatch):
        sizes = self._pool_sizes(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        cfg = TrialConfig(l=1, multiplex_ratio=0.0, snr_grid=GRID, trials=300_000, seed=1)
        estimate_mean_fade_outage(cfg, threads=8)
        assert sizes == []

    @pytest.mark.parametrize(
        "estimate", [estimate_mean_fade_outage, estimate_rate_outage], ids=["mean_fade", "rate"]
    )
    def test_ragged_chunks_ignore_threads_and_grid(self, monkeypatch, estimate):
        """l=3 gives chunks of 21845 trials, so every block of 65536 ends in
        a ragged chunk of one trial, and 150_001 trials a ragged last block.
        The counts are the same at 1, 2 and 3 threads, and a point counts
        the same beside any other points."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        cfg = TrialConfig(
            l=3, multiplex_ratio=0.5, snr_grid=(2.0, 4.0, 8.0), trials=150_001, seed=6
        )
        runs = {estimate(cfg, threads=t).successes for t in (1, 2, 3)}
        assert len(runs) == 1
        other = TrialConfig(
            l=3, multiplex_ratio=0.5, snr_grid=(50.0, 4.0, 3.0, 2.5), trials=150_001, seed=6
        )
        assert estimate(other, threads=2).successes[1] == runs.pop()[1]

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        cfg = TrialConfig(l=1, multiplex_ratio=0.5, snr_grid=GRID, trials=1000, seed=1)
        for estimate in (estimate_mean_fade_outage, estimate_rate_outage):
            with pytest.raises(ValueError, match="threads"):
                estimate(cfg, threads=threads)

    def test_block_memory_capped_for_wide_l(self, monkeypatch):
        blocks = []
        real = montecarlo._block_fades

        def spy(*args):
            fades = real(*args)
            blocks.append(fades.shape + (fades.nbytes,))
            return fades

        monkeypatch.setattr(montecarlo, "_block_fades", spy)
        cfg = TrialConfig(
            l=4096, multiplex_ratio=1.0, snr_grid=(1e3, 1e4, 1e5), trials=1000, seed=1
        )
        estimate_rate_outage(cfg)
        assert len(blocks) > 1
        assert all(nbytes <= 8 << 20 for _, _, nbytes in blocks)
        assert all(l == 4096 for l, _, _ in blocks)
        assert sum(n for _, n, _ in blocks) == 1000

    def test_worker_memory_stays_chunk_sized(self):
        """A worker draws and counts chunks of about 512 KiB in place; no
        buffer grows with the block (65536 x 16 fades, 8 MiB, here)."""
        cfg = TrialConfig(
            l=16, multiplex_ratio=0.75, snr_grid=(10.0, 30.0, 100.0), trials=131_072, seed=1
        )
        tracemalloc.start()
        try:
            estimate_rate_outage(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 << 20


def _block_values(seed, block, l=4, rows=10_000):
    """The first ``rows`` trials of block ``block``, one (l, rows) chunk as
    ``_block_fades`` draws it."""
    return montecarlo._block_fades(montecarlo._block_rng(seed, block), np.empty((l, rows)))


def _exponential_draw(variance):
    """The rate-mode view of the stream: fades |F|^2 = -variance ln U."""

    def draw(uniforms):
        return -variance * np.log(uniforms)

    return draw


def _uniform_draw(uniforms):
    """The mean-fade view of the stream: the uniforms U themselves."""
    return uniforms


class TestBlockStream:
    """The raw values of ``_block_fades`` against the analytic laws of the
    fades, and the independence of the (seed, block) keys."""

    @pytest.mark.parametrize("variance", [1.0, 2.5])
    @pytest.mark.parametrize("seed, block", [(2014, 0), (7, 3)])
    def test_rate_fades_follow_the_exponential_law(self, monkeypatch, seed, block, variance):
        """Rate mode draws the mean-fade stream whatever the fade variance:
        its chunks of block ``block`` are that block's uniforms, and
        -v ln U follows Exp(v)."""
        drawn = []
        real = montecarlo._block_fades

        def spy(rng, out):
            drawn.append(real(rng, out).copy())
            return out

        monkeypatch.setattr(montecarlo, "_block_fades", spy)
        cfg = TrialConfig(l=4, multiplex_ratio=0.5, snr_grid=GRID, trials=(block + 1) << 16,
                          seed=seed, fade_variance=variance)
        estimate_rate_outage(cfg)
        # at l=4 a block of 65536 trials is drawn in four chunks of 16384
        uniforms = np.concatenate([chunk.ravel() for chunk in drawn[-4:]])
        assert np.array_equal(uniforms, _block_values(seed, block, rows=1 << 16).ravel())
        fades = -variance * np.log(uniforms)
        assert stats.kstest(fades, stats.expon(scale=variance).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("variance", [1.0, 2.5])
    @pytest.mark.parametrize("seed, block", [(2014, 0), (7, 3)])
    def test_mean_fade_fades_follow_the_exponential_law(self, seed, block, variance):
        uniforms = _block_values(seed, block).ravel()
        assert stats.kstest(uniforms, stats.uniform.cdf).pvalue > 1e-3
        fades = -variance * np.log(uniforms)
        assert stats.kstest(fades, stats.expon(scale=variance).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("draw", [_exponential_draw(1.0), _uniform_draw])
    @pytest.mark.parametrize("other", [(2015, 0), (2014, 1)])
    def test_neighbouring_keys_share_no_value(self, other, draw):
        """Neither the uniforms nor the rate-mode fades of two neighbouring
        (seed, block) keys share a value."""
        base = draw(_block_values(2014, 0))
        assert np.intersect1d(base, draw(_block_values(*other))).size == 0

    @pytest.mark.parametrize("draw", [_exponential_draw(0.7), _uniform_draw])
    def test_a_stream_drawn_in_pieces_gives_the_same_values(self, draw):
        """An (l, n) chunk takes the next l * n values of its block's stream
        in C order, whatever the chunks drawn before it, in either mode's
        view of the stream."""
        whole = draw(_block_values(11, 2, l=3, rows=1000).ravel())
        rng = montecarlo._block_rng(11, 2)
        pieces = [draw(montecarlo._block_fades(rng, np.empty((3, n))).ravel())
                  for n in (1, 400, 7, 592)]
        assert np.array_equal(np.concatenate(pieces), whole)


def _oracle_trials(cfg, cut):
    """The uniforms of every trial of ``cfg``, one list per trial, laid out
    by the randomness contract and built here from it alone.  Block b holds
    min(65536, 2**20 // l) trials and draws from SFC64 seeded by
    ``SeedSequence(entropy=seed, spawn_key=(b,))``, in chunks of
    max(1, 65536 // l) trials, the last one ragged; a chunk of n trials
    takes the next l * n values, fade i of its trial j at value i * n + j.
    Uniforms above 1 - ``cut`` read as 0.0."""
    rows = min(1 << 16, (1 << 20) // cfg.l)
    chunk = max(1, (1 << 16) // cfg.l)
    for block, start in enumerate(range(0, cfg.trials, rows)):
        ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(block,))
        rng = np.random.Generator(np.random.SFC64(ss))
        count = min(rows, cfg.trials - start)
        for lo in range(0, count, chunk):
            n = min(chunk, count - lo)
            values = [0.0 if u > 1.0 - cut else u for u in rng.random(cfg.l * n).tolist()]
            for j in range(n):
                yield values[j::n]


def _oracle_counts(cfg, event, cut=0.0):
    """Per grid point, the trials for which ``event(uniforms)`` holds;
    ``event`` says per grid point whether one trial is an event."""
    counts = [0] * len(cfg.snr_grid)
    for trial in _oracle_trials(cfg, cut):
        for i, hit in enumerate(event(trial)):
            counts[i] += hit
    return counts


def _mean_fade_counts(cfg, cut=0.0):
    """Trials whose fades -v ln U_i have a mean below 1/snr, with the sum
    -sum_i ln U_i compared with l/(snr v); a zero uniform is an infinite fade."""
    limits = [cfg.l / (snr * cfg.fade_variance) for snr in cfg.snr_grid]

    def event(trial):
        total = math.fsum(-math.log(u) if u > 0.0 else math.inf for u in trial)
        return [total < limit for limit in limits]

    return _oracle_counts(cfg, event, cut)


def _rate_counts(cfg, cut=0.0):
    """Trials with sum_i log2(1 + snr |F_i|^2) below l * rate, where
    |F_i|^2 = -v ln U_i (infinite for a zero uniform)."""
    targets = [cfg.l * cfg.multiplex_ratio * math.log2(snr) for snr in cfg.snr_grid]

    def event(trial):
        fades = [-cfg.fade_variance * math.log(u) if u > 0.0 else math.inf for u in trial]
        return [math.fsum(math.log2(1.0 + f * snr) for f in fades) < target
                for snr, target in zip(cfg.snr_grid, targets)]

    return _oracle_counts(cfg, event, cut)


def _zero_high_uniforms(monkeypatch, cut):
    """Make every chunk read uniforms above 1 - ``cut`` as 0.0, as
    ``_oracle_trials`` does, and return the per-chunk numbers zeroed.
    ``random`` can return 0.0; the uniforms zeroed here sit mostly in trials
    that would be outages otherwise."""
    zeroed = []
    real = montecarlo._block_fades

    def zeroing(rng, out):
        real(rng, out)
        high = out > 1.0 - cut
        zeroed.append(np.count_nonzero(high))
        out[high] = 0.0
        return out

    monkeypatch.setattr(montecarlo, "_block_fades", zeroing)
    return zeroed


@pytest.mark.filterwarnings("error")
class TestEventKernels:
    """The vectorized event counts against a per-trial Python count on the
    uniforms that ``_oracle_trials`` reads from the (l, n) chunk layout:
    exact sums of ``-math.log`` terms for the mean-fade event and of
    ``math.log2(1 + snr |F_i|^2)`` terms for the rate event.  Warnings are
    errors: neither the log of a zero uniform nor an infinite fade may
    warn."""

    @pytest.mark.parametrize(
        "l, grid, trials, variance",
        [
            (1, GRID, 20_000, 1.0),
            (3, (3.0, 5.0, 8.0), 20_000, 1.0),
            (8, (1.5, 2.0, 2.5), 20_000, 2.5),
            (17, (1.2, 1.4, 1.6), 20_000, 1.0),
            (200, (1.05, 1.1, 1.2), 2000, 1.0),
            # l/(snr v) > 708 at every point: each floor exp(-l/(snr v)) is
            # below the smallest normal double and the log-sum decides
            (4096, (1.01, 1.02, 1.03), 1000, 1.0),
            # the floor underflows at the first point only
            (700, (1.05, 1.1, 1.15), 2000, 0.9),
        ],
    )
    def test_mean_fade_counts(self, l, grid, trials, variance):
        cfg = TrialConfig(
            l=l, multiplex_ratio=0.0, snr_grid=grid, trials=trials, seed=21,
            fade_variance=variance,
        )
        expected = _mean_fade_counts(cfg)
        assert min(expected) > 0
        assert list(estimate_mean_fade_outage(cfg).successes) == expected

    @pytest.mark.parametrize(
        "l, grid, trials, cut",
        [(3, (3.0, 5.0, 8.0), 20_000, 1e-3), (4096, (1.01, 1.02, 1.03), 1000, 1e-5)],
    )
    def test_zero_uniforms_are_infinite_fades(self, monkeypatch, l, grid, trials, cut):
        cfg = TrialConfig(l=l, multiplex_ratio=0.0, snr_grid=grid, trials=trials, seed=25)
        expected = _mean_fade_counts(cfg, cut)
        assert sum(expected) < sum(_mean_fade_counts(cfg))
        zeroed = _zero_high_uniforms(monkeypatch, cut)
        assert list(estimate_mean_fade_outage(cfg).successes) == expected
        assert sum(zeroed) > 0

    @pytest.mark.parametrize(
        "l, ratio, grid, trials, cut",
        [
            # the product form decides every point
            (3, 0.75, (10.0, 30.0, 100.0), 20_000, 1e-3),
            # the log-sum decides every point
            (200, 0.9, (10.0, 30.0, 100.0), 2000, 1e-4),
        ],
    )
    def test_zero_uniforms_are_never_rate_outages(self, monkeypatch, l, ratio, grid, trials, cut):
        cfg = TrialConfig(l=l, multiplex_ratio=ratio, snr_grid=grid, trials=trials, seed=26)
        expected = _rate_counts(cfg, cut)
        assert sum(expected) < sum(_rate_counts(cfg))
        zeroed = _zero_high_uniforms(monkeypatch, cut)
        assert list(estimate_rate_outage(cfg).successes) == expected
        assert sum(zeroed) > 0

    def test_mean_fade_where_every_floor_underflows_matches_gamma(self):
        """On l=4096, where the log-sum decides every point, the estimates
        sit inside the 3-sigma band of the regularised gamma."""
        grid = (1.01, 1.02, 1.05)
        cfg = TrialConfig(l=4096, multiplex_ratio=0.0, snr_grid=grid, trials=20_000, seed=2014)
        assert all(math.exp(-cfg.l / snr) < sys.float_info.min for snr in grid)
        out = estimate_mean_fade_outage(cfg)
        assert analytic_inside_3sigma(out, lambda s: float(special.gammainc(4096, 4096 / s)))

    @pytest.mark.parametrize(
        "l, ratio, grid, trials",
        [
            (1, 0.5, GRID, 20_000),
            (3, 0.75, (10.0, 30.0, 100.0), 20_000),
            (8, 0.9, (10.0, 30.0, 100.0), 20_000),
            (17, 0.9, (10.0, 30.0, 100.0), 20_000),
            (4096, 1.0, (1e3, 1e4, 1e5), 1000),
        ],
    )
    def test_rate_counts(self, l, ratio, grid, trials):
        cfg = TrialConfig(l=l, multiplex_ratio=ratio, snr_grid=grid, trials=trials, seed=22)
        expected = _rate_counts(cfg)
        assert min(expected) > 0
        assert list(estimate_rate_outage(cfg).successes) == expected

    @pytest.mark.parametrize(
        "l, ratio, grid, variance, trials, regimes",
        [
            (3, 0.75, (10.0, 30.0, 100.0), 1.0, 20_000, ("product",) * 3),
            # (2**R/a)**l = 1.78**-1536 is below the smallest normal double
            (1536, 1.0, (1e3, 1e4, 1e5), 1.78, 1000, ("bound",) * 3),
            # the bound is normal, but (1/a + 36.8)**200 is above 2**1023
            (200, 0.9, (10.0, 30.0, 100.0), 1.0, 2000, ("partial",) * 3),
            # (1/a)**16 is below 2**-1021 at snr = 1e20 only
            (16, 1.0, (1e19, 1.37e19, 1e20), 1.0, 2000, ("product", "product", "partial")),
        ],
        ids=["product", "bound_not_normal", "partial_above", "partial_below"],
    )
    def test_rate_counts_in_each_regime(
        self, monkeypatch, l, ratio, grid, variance, trials, regimes
    ):
        """Each point is decided by the product prod_i (1/a - ln U_i) against
        (2**R/a)**l, a = snr v, only where that bound is a normal double and
        no partial product can leave the normal range; the log-sum decides
        elsewhere.  Every regime is hit, with counts strictly between 0 and
        the trials."""
        decided = []
        real = montecarlo._product_bound

        def spy(*args):
            decided.append(real(*args))
            return decided[-1]

        monkeypatch.setattr(montecarlo, "_product_bound", spy)
        cfg = TrialConfig(l=l, multiplex_ratio=ratio, snr_grid=grid, trials=trials, seed=27,
                          fade_variance=variance)
        expected = _rate_counts(cfg)
        assert 0 < min(expected) and max(expected) < trials
        assert list(estimate_rate_outage(cfg).successes) == expected
        assert [bound is not None for bound in decided] == [r == "product" for r in regimes]
        for snr, regime in zip(grid, regimes):
            log2_bound = l * (ratio * math.log2(snr) - math.log2(snr * variance))
            assert (-1022 < log2_bound < 1024) == (regime != "bound")

    def test_rate_counts_where_products_overflow_below_a_finite_bound(self):
        # l * rate stays below 1024, while up to 2% of the products
        # prod_i (1 + snr |F_i|^2) exceed the largest double; divided by a**l
        # they stay normal at the first point, and the guard hands the
        # others to the log-sum
        cfg = TrialConfig(
            l=16, multiplex_ratio=1.0, snr_grid=(1.5e19, 1.7e19, 1.84e19), trials=20_000, seed=23
        )
        assert all(cfg.l * math.log2(snr) < 1024 for snr in cfg.snr_grid)
        overflowing = _oracle_counts(
            cfg,
            lambda t: [math.fsum(math.log2(1.0 - snr * math.log(u)) for u in t) > 1024.5
                       for snr in cfg.snr_grid],
        )
        assert min(overflowing) > 10
        expected = _rate_counts(cfg)
        assert min(expected) > 0
        assert list(estimate_rate_outage(cfg).successes) == expected

    @pytest.mark.parametrize(
        "l, ratio, grid",
        [
            # every product overflows and l * rate is far past 1024
            (200, 0.9988, (1e150, 1e151, 1e152)),
            # 2**(l * rate) is finite at the first two points only
            (16, 1.0, (1e19, 1.37e19, 1e20)),
        ],
    )
    def test_rate_counts_where_two_to_the_target_overflows(self, l, ratio, grid):
        cfg = TrialConfig(l=l, multiplex_ratio=ratio, snr_grid=grid, trials=2000, seed=24)
        assert cfg.l * ratio * math.log2(grid[-1]) >= 1024
        expected = _rate_counts(cfg)
        assert min(expected) > 0
        assert list(estimate_rate_outage(cfg).successes) == expected


class TestDeterminismPin:
    """Success counts recorded from the 0.5.0 streams: uniforms from SFC64
    keyed by ``SeedSequence(entropy=seed, spawn_key=(block,))``, drawn in
    (l, n) chunks of n = max(1, 65536 // l) trials, shared by both modes.  A
    regression pin on output bytes, not a correctness oracle: a change here
    changes ``mc`` output and needs a version bump.  Each count's z-score,
    (p_hat - p) / sqrt(p (1 - p) / trials), against its reference p when
    recorded is in the comment beside it: the regularised gamma
    P(l, l/snr) for mean-fade, 1 - exp(-(snr**r - 1)/snr) for rate at l=1,
    and for rate at l > 1 the law of sum_i log2(1 + snr |F_i|^2) by FFT
    convolution (``oracles.rate_outage_convolution``)."""

    @pytest.mark.parametrize(
        "mode, l, ratio, grid, successes",
        [
            # z = +0.69, +0.75, -0.89
            ("mean_fade", 1, 0.0, (10.0, 31.6, 100.0), (9580, 3156, 967)),
            # z = +1.23, -0.89, +0.13
            ("mean_fade", 4, 0.0, (2.0, 3.0, 5.0), (14424, 4590, 912)),
            # z = -0.98, -0.56, +0.29
            ("mean_fade", 16, 0.0, (1.2, 1.4, 1.6), (26524, 11668, 4894)),
            # z = +1.56, +0.82, +0.99
            ("mean_fade", 64, 0.0, (1.1, 1.2, 1.3), (24141, 8556, 2499)),
            # z = +1.10, +0.79, +0.81
            ("rate", 1, 0.5, (10.0, 31.6, 100.0), (19583, 13691, 8679)),
            # z = +0.44, +0.63, +0.95
            ("rate", 4, 0.75, (10.0, 30.0, 100.0), (26596, 22513, 14866)),
            # z = +0.62, +0.54, +0.48
            ("rate", 16, 0.75, (10.0, 30.0, 100.0), (10522, 7021, 2164)),
            # z = +0.24, -0.55, -0.06
            ("rate", 64, 0.9, (10.0, 30.0, 100.0), (69300, 78596, 66837)),
        ],
    )
    @pytest.mark.parametrize("threads", [1, 2])
    def test_recorded_counts(self, monkeypatch, mode, l, ratio, grid, successes, threads):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = TrialConfig(l=l, multiplex_ratio=ratio, snr_grid=grid, trials=100_000, seed=2014)
        estimate = estimate_mean_fade_outage if mode == "mean_fade" else estimate_rate_outage
        assert estimate(cfg, threads=threads).successes == successes


class TestEmpiricalOutage:
    def _sample(self):
        cfg = TrialConfig(l=1, multiplex_ratio=0.0, snr_grid=GRID, trials=10_000, seed=3)
        return estimate_mean_fade_outage(cfg)

    def test_bounds_bracket_estimates(self):
        out = self._sample()
        for lo, p, hi in zip(out.ci_low, out.p_hat, out.ci_high):
            assert 0.0 <= lo <= p <= hi <= 1.0

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError, match="confidence bounds"):
            EmpiricalOutage(
                snr_grid=GRID,
                p_hat=(0.1, 0.05, 0.01),
                ci_low=(0.2, 0.0, 0.0),
                ci_high=(0.3, 0.1, 0.02),
                slope=1.0,
                slope_stderr=0.1,
                successes=(100, 50, 10),
                trials=1000,
            )

    def test_csv_layout(self):
        out = self._sample()
        lines = out.to_csv().splitlines()
        assert lines[0] == "snr,p_hat,ci_low,ci_high"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == 10.0
        assert_allclose(float(first[1]), out.p_hat[0], rtol=1e-8)
        trailer = lines[-1].split(",")
        assert trailer[0] == "slope" and trailer[2] == "stderr"
        assert out.to_csv().endswith("\n")

    def test_csv_precision(self):
        out = self._sample()
        row = out.to_csv(precision=3).splitlines()[1]
        for cell in row.split(","):
            mantissa = cell.lstrip("-").replace(".", "").split("e")[0].lstrip("0")
            assert len(mantissa) <= 3
        with pytest.raises(ValueError):
            out.to_csv(precision=0)
