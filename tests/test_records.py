"""The value records of the closed-form modules: immutable, equal and
hashed by value, built by keyword with their defaults, and checked when
built or replaced.  They are ``NamedTuple`` classes, so that the modules
that define them load without ``dataclasses`` (see ``test_cli.py``)."""

import pytest

from mcqkd.channel import ChannelModel, SubchannelParams
from mcqkd.manifold import ManifoldDims, OutageParams, TradeoffCurve
from mcqkd.rates import RateReport

SUB = SubchannelParams.from_real(0.5, 1.0)

# each record built twice from equal values, once from other values, and
# its field names
RECORDS = {
    "OutageParams": (lambda: OutageParams(10.0, 0.5, 2), OutageParams(10.0, 0.5, 3),
                     ("snr", "multiplex_ratio", "l")),
    "ManifoldDims": (lambda: ManifoldDims(5.0, 3.0, 8.0), ManifoldDims(3.0, 5.0, 8.0),
                     ("dim_m", "n_dim_perp", "dim_s")),
    "TradeoffCurve": (lambda: TradeoffCurve({"z_exponent": 1.0}, ((0.5, 0.5),)),
                      TradeoffCurve({"z_exponent": 2.0}, ((0.5, 1.0),)),
                      ("params", "points")),
    "RateReport": (lambda: RateReport(1.0, 2.0, 3.0, 4.0, ((1.0,) * 6,)),
                   RateReport(1.0, 2.0, 3.0, 5.0, ((1.0,) * 6,)),
                   ("capacity", "svd_capacity", "private_capacity", "svd_private_capacity",
                    "subchannels")),
    "SubchannelParams": (lambda: SubchannelParams(complex(0.5, 0.5), 1.0, 1.5),
                         SubchannelParams(complex(0.5, 0.5), 1.0, 2.5),
                         ("transmittance", "noise_variance", "eve_epr_variance")),
    "ChannelModel": (lambda: ChannelModel((SUB, SUB), 1, 0.5), ChannelModel((SUB, SUB), 2, 0.5),
                     ("subchannels", "active_count", "vacuum_variance")),
}
HASHABLE = [name for name in RECORDS if name != "TradeoffCurve"]


@pytest.mark.parametrize("make, _, fields", RECORDS.values(), ids=RECORDS)
def test_no_field_or_new_attribute_can_be_assigned(make, _, fields):
    record = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "x"
    assert record == make()


@pytest.mark.parametrize("make, other, _", RECORDS.values(), ids=RECORDS)
def test_records_compare_by_value(make, other, _):
    assert make() == make() and make() is not make()
    assert make() != other


@pytest.mark.parametrize("name", HASHABLE)
def test_records_of_hashable_values_hash_by_value(name):
    make = RECORDS[name][0]
    assert hash(make()) == hash(make())
    assert len({make(), make()}) == 1


def test_a_curve_with_its_params_dict_is_not_hashable():
    with pytest.raises(TypeError):
        hash(RECORDS["TradeoffCurve"][0]())


@pytest.mark.parametrize(
    "record, full",
    [
        (OutageParams(snr=10.0, multiplex_ratio=0.5), OutageParams(10.0, 0.5, 1)),
        (SubchannelParams(transmittance=complex(0.5, 0.5), noise_variance=1.0),
         SubchannelParams(complex(0.5, 0.5), 1.0, 1.0)),
        (ChannelModel(subchannels=(SUB,), active_count=1), ChannelModel((SUB,), 1, 1.0)),
    ],
    ids=["OutageParams.l", "SubchannelParams.eve_epr_variance", "ChannelModel.vacuum_variance"],
)
def test_keyword_construction_takes_the_defaults(record, full):
    assert record == full
    assert type(record) is type(full)


def test_a_channel_model_holds_its_subchannels_as_a_tuple():
    model = ChannelModel([SUB, SUB], active_count=2)
    assert model.subchannels == (SUB, SUB)
    assert type(model.subchannels) is tuple
    assert model.active == (SUB, SUB)
    assert hash(model) == hash(ChannelModel((SUB, SUB), 2))


def test_from_real_builds_the_equal_quadrature_record():
    sub = SubchannelParams.from_real(0.5, 0.2, eve_epr_variance=1.5)
    assert type(sub) is SubchannelParams
    assert sub == SubchannelParams(complex(0.5, 0.5), 0.2, 1.5)
    assert (sub.transmittance, sub.noise_variance, sub.eve_epr_variance) == (0.5 + 0.5j, 0.2, 1.5)



@pytest.mark.parametrize(
    "record, change, message",
    [
        (OutageParams(10.0, 0.5), {"snr": -1.0}, "snr must be positive, got -1.0"),
        (SUB, {"noise_variance": 0.0}, "noise_variance must be positive, got 0.0"),
        (ChannelModel((SUB,), 1), {"active_count": 1.5},
         "active_count must be an integer, got 1.5"),
    ],
    ids=["OutageParams", "SubchannelParams", "ChannelModel"],
)
def test_replace_runs_the_constructor_checks(record, change, message):
    with pytest.raises(ValueError) as excinfo:
        record._replace(**change)
    assert str(excinfo.value) == message
    assert record._replace() == record
