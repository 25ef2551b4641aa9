"""Capacities, optimal-attack noise, private rates and the rate report."""

import math

import numpy as np
import pytest

from mcqkd.channel import ChannelModel, SubchannelParams
from mcqkd.errors import DegenerateRegimeError, DomainError
from mcqkd.rates import (
    optimal_attack_noise,
    private_capacity,
    private_capacity_complex,
    rate_report,
    subchannel_capacity,
)

HALF_LOG2_3 = 0.5 * np.log2(3.0)


class TestSubchannelCapacity:
    def test_dead_channel(self):
        assert subchannel_capacity(2.0, 0.0, 1.0) == 0.0

    def test_hand_values(self):
        assert subchannel_capacity(2.0, 1.0, 1.0) == pytest.approx(HALF_LOG2_3)
        assert subchannel_capacity(1.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_nonpositive_variances_rejected(self):
        with pytest.raises(ValueError):
            subchannel_capacity(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            subchannel_capacity(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            subchannel_capacity(1.0, -0.5, 1.0)

    def test_monotone_in_fade_and_modulation(self):
        fades = np.linspace(0.0, 2.0, 20)
        caps = [subchannel_capacity(1.0, f, 1.0) for f in fades]
        assert np.all(np.diff(caps) > 0)
        mods = np.linspace(0.5, 5.0, 20)
        caps = [subchannel_capacity(m, 1.0, 1.0) for m in mods]
        assert np.all(np.diff(caps) > 0)
        assert min(caps) >= 0.0


def svd_capacity(mod_variance, gain_c, fade_sq, noise_variance):
    """The gain-boosted capacity of one sub-channel, as ``rate_report``'s
    ``svd_capacity`` column gives it.  eve_w = 2 and |T|^2 = 1/2 make the
    input noise 2, so the attack exists wherever mod_variance * fade_sq < 1."""
    sub = SubchannelParams.from_real(0.5, noise_variance, eve_epr_variance=2.0)
    return rate_report(ChannelModel((sub,), 1), mod_variance, gain_c, [fade_sq]).svd_capacity


class TestSvdCapacity:
    def test_small_gain_limit(self):
        boosted = svd_capacity(1.0, 1e-12, 0.7, 0.9)
        assert boosted == pytest.approx(0.5 * math.log2(1.0 + 0.7 / 0.9), abs=1e-11)

    def test_hand_value(self):
        # (1/2) log2(1 + 0.5 * (1 + 1) * 1 / 0.5)
        assert svd_capacity(0.5, 1.0, 1.0, 0.5) == pytest.approx(HALF_LOG2_3)

    def test_strictly_increasing_in_gain(self):
        gains = np.linspace(0.1, 3.0, 15)
        caps = [svd_capacity(0.5, c, 1.0, 1.0) for c in gains]
        assert np.all(np.diff(caps) > 0)

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ValueError, match="gain_c must be > 0, got 0.0"):
            svd_capacity(1.0, 0.0, 0.7, 0.9)
        with pytest.raises(ValueError, match="gain_c must be > 0, got -0.5"):
            svd_capacity(1.0, -0.5, 0.7, 0.9)


class TestOptimalAttackNoise:
    def test_hand_value(self):
        # bracket = (0.5 + 2)/(1 + 2*0.5) - 1 = 0.25 so the noise is 1/0.25
        assert optimal_attack_noise(1.0, 0.5, 2.0) == pytest.approx(4.0)

    @pytest.mark.parametrize("sigma_x", [0.5, 1.0, 2.0, 7.3])
    def test_unit_signal_is_degenerate(self, sigma_x):
        with pytest.raises(DegenerateRegimeError) as info:
            optimal_attack_noise(2.0, 0.5, sigma_x)
        assert info.value.bracket == pytest.approx(0.0, abs=1e-12)

    def test_negative_bracket_is_degenerate(self):
        with pytest.raises(DegenerateRegimeError) as info:
            optimal_attack_noise(4.0, 0.5, 1.5)
        assert info.value.bracket == pytest.approx(-0.125)

    def test_overflowing_signal_is_degenerate(self):
        # mod_variance * fade_sq overflows, so the bracket is inf / inf = NaN
        with pytest.raises(DegenerateRegimeError) as info:
            optimal_attack_noise(1e308, 10.0, 2.0)
        assert math.isnan(info.value.bracket)

    def test_error_is_a_domain_error(self):
        assert issubclass(DegenerateRegimeError, DomainError)

    def test_underflow_is_named_as_in_the_rate_report(self):
        # 1e-20 over a bracket of about 4.5e305 is 0: the same input and
        # message as TestRateReport.test_attack_noise_underflow_is_named
        with pytest.raises(ValueError) as info:
            optimal_attack_noise(1e-20, 1e-300, 4.5036e305)
        assert not isinstance(info.value, DomainError)
        assert str(info.value) == (
            "optimal-attack noise underflows to 0.0: mod_variance 1e-20 "
            "is too small for the attack bracket"
        )

    def test_overflow_is_named_as_in_the_rate_report(self):
        # 1e300 over a bracket of about 2.2e-16 is inf
        with pytest.raises(ValueError) as info:
            optimal_attack_noise(1e300, 0.5, 0.9999999999999999)
        assert not isinstance(info.value, DomainError)
        assert str(info.value) == (
            "optimal-attack noise overflows to inf: mod_variance 1e+300 "
            "is too large for the attack bracket"
        )

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError):
            optimal_attack_noise(0.0, 0.5, 2.0)
        with pytest.raises(ValueError):
            optimal_attack_noise(1.0, 0.5, 0.0)


class TestPrivateCapacity:
    def test_dead_channel(self):
        assert private_capacity(1.0, 0.0, 4.0) == 0.0

    def test_hand_value_chained_from_attack_noise(self):
        noise = optimal_attack_noise(1.0, 0.5, 2.0)
        assert private_capacity(1.0, 0.5, noise) == pytest.approx(
            0.08496250072115619, abs=1e-14
        )

    def test_private_below_classical_when_attack_noise_dominates(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            mod = rng.uniform(0.5, 4.0)
            fade = rng.uniform(0.0, 1.0)
            noise = rng.uniform(0.2, 2.0)
            attack = noise * rng.uniform(1.0, 5.0)
            assert private_capacity(mod, fade, attack) <= subchannel_capacity(
                mod, fade, noise
            ) + 1e-12

    def test_complex_form_doubles_real_form(self):
        assert private_capacity_complex(1.0, 0.5, 4.0) == pytest.approx(
            2.0 * private_capacity(1.0, 0.5, 4.0)
        )


class TestRateReport:
    def make_model(self):
        subs = (
            SubchannelParams.from_real(0.5, 0.2, eve_epr_variance=1.4),
            SubchannelParams.from_real(0.6, 0.25, eve_epr_variance=1.5),
            SubchannelParams.from_real(0.3, 0.5, eve_epr_variance=1.2),
        )
        return ChannelModel(subs, active_count=2)

    def test_totals_are_sums_over_active_subchannels(self):
        model = self.make_model()
        report = rate_report(model, mod_variance=1.0, gain_c=1.0)
        per = [
            subchannel_capacity(1.0, abs(s.transmittance) ** 2, s.noise_variance)
            for s in model.active
        ]
        assert report.capacity == pytest.approx(sum(per), abs=1e-12)
        assert len(report.subchannels) == 2

    def test_inactive_subchannels_excluded(self):
        model = self.make_model()
        wider = ChannelModel(model.subchannels, active_count=3)
        r2 = rate_report(model, 1.0)
        r3 = rate_report(wider, 1.0)
        assert r3.capacity > r2.capacity

    def test_all_rates_nonnegative(self):
        report = rate_report(self.make_model(), 1.0)
        assert report.capacity >= 0
        assert report.svd_capacity >= 0
        assert report.private_capacity >= 0
        assert report.svd_private_capacity >= 0

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", ["mod_variance", "gain_c"])
    def test_non_finite_inputs_rejected_by_name(self, name, value):
        kwargs = {"mod_variance": 1.2, "gain_c": 0.5, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            rate_report(self.make_model(), **kwargs)

    def test_overflowing_signal_is_degenerate(self):
        with pytest.raises(DegenerateRegimeError, match="bracket is nan"):
            rate_report(self.make_model(), 1e308, fades_sq=[10.0, 10.0])

    def test_attack_noise_underflow_is_named(self):
        # a huge input noise makes the bracket huge, and 1e-20 over it is 0
        sub = SubchannelParams.from_real(1e-8, 1.0, eve_epr_variance=1e290)
        with pytest.raises(ValueError) as info:
            rate_report(ChannelModel((sub,), 1), 1e-20, fades_sq=[1e-300])
        assert not isinstance(info.value, DomainError)
        assert str(info.value) == (
            "optimal-attack noise underflows to 0.0: mod_variance 1e-20 "
            "is too small for the attack bracket"
        )

    def test_total_that_overflows_is_rejected(self):
        # the boosted variance 1e308 * (1 + 1) is inf, and so is each svd cell
        sub = SubchannelParams.from_real(0.5, 1.0)
        with pytest.raises(ValueError, match="svd_capacity must be finite and >= 0, got inf") as info:
            rate_report(ChannelModel((sub,), 1, vacuum_variance=0.5), 1e308)
        assert not isinstance(info.value, DomainError)

    def test_svd_totals_dominate(self):
        report = rate_report(self.make_model(), 1.0, gain_c=0.7)
        assert report.svd_capacity > report.capacity
        assert report.svd_private_capacity > report.private_capacity

