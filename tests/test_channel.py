"""Sub-channel parameters, Eve's tap, excess noise and the channel file."""

import numpy as np
import pytest

from mcqkd.channel import (
    ChannelModel,
    SubchannelParams,
    load_channel_model,
    total_input_noise,
)
from mcqkd.errors import DomainError
from mcqkd.rates import rate_report

SQRT_HALF = 1.0 / np.sqrt(2.0)


class TestSubchannelParams:
    def test_equal_quadratures_enforced(self):
        SubchannelParams(complex(0.3, 0.3), 1.0)
        with pytest.raises(ValueError):
            SubchannelParams(complex(0.3, 0.4), 1.0)

    def test_quadrature_range(self):
        SubchannelParams(complex(0.0, 0.0), 1.0)
        SubchannelParams(complex(SQRT_HALF, SQRT_HALF), 1.0)  # |T|^2 = 1 allowed
        with pytest.raises(ValueError):
            SubchannelParams(complex(-0.1, -0.1), 1.0)
        with pytest.raises(ValueError):
            SubchannelParams(complex(0.8, 0.8), 1.0)

    def test_magnitude_squared_is_twice_real_part_squared(self):
        s = SubchannelParams.from_real(0.5, 1.0)
        assert abs(s.transmittance) ** 2 == pytest.approx(2 * 0.5**2)

    def test_noise_and_epr_variance_validation(self):
        with pytest.raises(ValueError):
            SubchannelParams.from_real(0.5, 0.0)
        with pytest.raises(ValueError):
            SubchannelParams.from_real(0.5, 1.0, eve_epr_variance=0.9)

    @pytest.mark.parametrize("transmittance", ["0.5+0.5j", np.complex64(0.5 + 0.5j)])
    def test_the_checked_complex_is_stored(self, transmittance):
        sub = SubchannelParams(transmittance, 0.2, 1.4)
        assert type(sub.transmittance) is complex
        assert sub.transmittance == complex(transmittance)
        plain = SubchannelParams(complex(transmittance), 0.2, 1.4)
        assert rate_report(ChannelModel((sub,), 1), 1.2) == rate_report(
            ChannelModel((plain,), 1), 1.2
        )

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize(
        "index, name",
        [(0, "transmittance real part"), (1, "noise_variance"), (2, "eve_epr_variance")],
    )
    def test_non_finite_values_rejected_by_name(self, index, name, value):
        args = [0.5, 1.0, 1.2]
        args[index] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SubchannelParams.from_real(*args)


@pytest.mark.parametrize(
    "re_t,eve_trans_sq",
    [
        (SQRT_HALF, 0.0),  # lossless
        (np.sqrt(0.18), 0.64),  # |T|^2 = 0.36
    ],
)
def test_eve_transmittance_values(re_t, eve_trans_sq):
    # at W = 2 the excess noise is e / (1 - e) for the tap's e = 1 - |T|^2
    sub = SubchannelParams.from_real(re_t, 1.0, 2.0)
    excess = eve_trans_sq / (1.0 - eve_trans_sq)
    assert total_input_noise(sub) - 1.0 == pytest.approx(excess, abs=1e-12)


def test_eve_plus_channel_transmittance_is_one():
    # the tap takes e = 1 - |T|^2, so at W = 2 the excess noise is e / |T|^2
    for re_t in np.linspace(0.0, SQRT_HALF, 13)[1:]:
        sub = SubchannelParams.from_real(re_t, 1.0, 2.0)
        mag_sq = abs(sub.transmittance) ** 2
        assert total_input_noise(sub) - 1.0 == pytest.approx((1.0 - mag_sq) / mag_sq, rel=1e-12)


class TestExcessNoise:
    def test_unit_epr_variance_gives_zero(self):
        for re_t in (SQRT_HALF, 0.5, 0.05):
            assert total_input_noise(SubchannelParams.from_real(re_t, 1.0, 1.0)) == 1.0

    def test_hand_values(self):
        # |T|^2 = 0.5 and 0.2, so e = 0.5 and 0.8
        assert total_input_noise(SubchannelParams.from_real(0.5, 1.0, 2.0)) == pytest.approx(2.0)
        sub = SubchannelParams.from_real(np.sqrt(0.1), 1.0, 3.0)
        assert total_input_noise(sub) == pytest.approx(9.0)

    def test_full_interception_is_singular(self):
        with pytest.raises(DomainError, match="^excess noise diverges: the eavesdropper tap "
                           "transmits everything$"):
            total_input_noise(SubchannelParams.from_real(0.0, 1.0, 2.0))

    def test_total_input_noise_adds_vacuum(self):
        sub = SubchannelParams.from_real(0.5, 1.0, 2.0)
        assert total_input_noise(sub) == pytest.approx(2.0)
        assert total_input_noise(sub, vacuum_variance=0.5) == pytest.approx(1.5)


class TestChannelModel:
    def test_active_slice(self):
        subs = tuple(SubchannelParams.from_real(0.1 * i, 1.0) for i in range(1, 5))
        model = ChannelModel(subs, active_count=2)
        assert model.active == subs[:2]

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_vacuum_variance_rejected(self, value):
        subs = (SubchannelParams.from_real(0.5, 1.0),)
        with pytest.raises(ValueError, match="vacuum_variance must be finite"):
            ChannelModel(subs, active_count=1, vacuum_variance=value)

    def test_a_numpy_integer_active_count_slices(self):
        subs = tuple(SubchannelParams.from_real(0.1 * i, 1.0) for i in range(1, 4))
        assert ChannelModel(subs, np.int64(2)).active == subs[:2]

    def test_active_count_bounds(self):
        subs = (SubchannelParams.from_real(0.5, 1.0),)
        with pytest.raises(ValueError):
            ChannelModel(subs, active_count=0)
        with pytest.raises(ValueError):
            ChannelModel(subs, active_count=2)


class TestModelFile:
    def write(self, tmp_path, text):
        p = tmp_path / "chan.txt"
        p.write_text(text)
        return p

    def test_round_trip(self, tmp_path):
        p = self.write(
            tmp_path,
            "# two sub-channels\n"
            "vacuum_variance=0.9\n"
            "active_count=1\n"
            "re_t=0.5 noise_var=0.2 eve_w=1.4\n"
            "re_t=0.6, noise_var=0.25, eve_w=1.5\n",
        )
        model = load_channel_model(p)
        assert len(model.subchannels) == 2
        assert model.active_count == 1
        assert model.vacuum_variance == 0.9
        assert model.subchannels[1].eve_epr_variance == 1.5
        assert model.subchannels[0].transmittance == complex(0.5, 0.5)

    def test_eve_w_defaults_to_one(self, tmp_path):
        p = self.write(tmp_path, "re_t=0.5 noise_var=0.2\n")
        assert load_channel_model(p).subchannels[0].eve_epr_variance == 1.0

    def test_unknown_key_rejected_with_location(self, tmp_path):
        p = self.write(tmp_path, "re_t=0.5 noise_var=0.2 bogus=1\n")
        with pytest.raises(ValueError, match=r":1:"):
            load_channel_model(p)

    def test_missing_required_key(self, tmp_path):
        p = self.write(tmp_path, "re_t=0.5\n")
        with pytest.raises(ValueError, match="noise_var"):
            load_channel_model(p)

    def test_directive_after_record_rejected(self, tmp_path):
        p = self.write(tmp_path, "re_t=0.5 noise_var=0.2\nactive_count=1\n")
        with pytest.raises(ValueError, match="precede"):
            load_channel_model(p)

    def test_empty_file_rejected(self, tmp_path):
        p = self.write(tmp_path, "# nothing here\n")
        with pytest.raises(ValueError):
            load_channel_model(p)

    def test_duplicate_key_rejected(self, tmp_path):
        p = self.write(tmp_path, "re_t=0.5 re_t=0.6 noise_var=0.2\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_channel_model(p)


SUB = SubchannelParams.from_real(0.5, 0.2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ChannelModel((), 1), ValueError,
         "a channel model needs at least one sub-channel"),
        (lambda: ChannelModel((SUB,), 1, vacuum_variance=0.0), ValueError,
         "vacuum_variance must be positive, got 0.0"),
        (lambda: ChannelModel((SUB, SUB), 1.5), ValueError,
         "active_count must be an integer, got 1.5"),
        (lambda: ChannelModel((SUB, SUB), 2.0), ValueError,
         "active_count must be an integer, got 2.0"),
        (lambda: ChannelModel((SUB,), "1"), ValueError,
         "active_count must be an integer, got '1'"),
        (lambda: total_input_noise(SUB, vacuum_variance=0.0), ValueError,
         "vacuum_variance must be positive, got 0.0"),
    ],
)
def test_single_fault_error_type_and_message(call, error, message):
    """Each input with one fault raises exactly this type and message."""
    with pytest.raises(ValueError) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
