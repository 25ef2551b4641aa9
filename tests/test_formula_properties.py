"""Properties of the formula tables on generated inputs: outage falls in snr
and stays a probability, a rate never exceeds its gain-boosted counterpart,
and a tradeoff delta is a finite non-negative number.  Each input gives
these or one of the package's typed errors.  The properties themselves are
the reference; no package function is."""

import math
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mcqkd.channel import ChannelModel, SubchannelParams  # noqa: E402
from mcqkd.manifold import CURVE_KINDS, perr_rows, tradeoff_curve  # noqa: E402
from mcqkd.rates import rate_report  # noqa: E402

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)
MAX = sys.float_info.max


def spaced(values):
    """The distinct ``values`` sorted, keeping each only where it exceeds
    the last one kept by at least 1e-9 relative."""
    kept = []
    for v in sorted(set(values)):
        if not kept or v >= kept[-1] * (1.0 + 1e-9):
            kept.append(v)
    return kept


positive = st.floats(0.0, MAX, exclude_min=True)  # subnormals to the largest double
moderate = st.floats(1e-3, 1e3)


@SETTINGS
@given(
    snr=st.lists(
        st.one_of(st.just(1.0), st.floats(1.0, 1e6), st.floats(1.0, MAX)),
        min_size=1, max_size=20,
    ).map(spaced),
    ratio=st.one_of(st.sampled_from([0.0, 1.0, 1.0 - 2.0**-53]), st.floats(0.0, 1.0)),
    l_values=st.lists(st.one_of(st.integers(1, 64), st.integers(1, 10**9)), max_size=6),
)
def test_perr_cells_are_probabilities_that_fall_in_snr(snr, ratio, l_values):
    rows = perr_rows(snr, ratio, l_values)
    assert len(rows) == len(snr)
    for row in rows:
        assert len(row) == 1 + len(l_values)
        assert all(math.isfinite(cell) and 0.0 <= cell <= 1.0 for cell in row), row
    for column in zip(*rows):
        assert all(a >= b for a, b in zip(column, column[1:])), column


@st.composite
def channel_case(draw):
    """A valid channel model with a mod_variance, a gain_c and optionally
    one fade per active sub-channel, drawn from moderate values and from
    the whole positive double range."""
    value = st.one_of(moderate, positive)
    count = draw(st.integers(1, 6))
    subs = tuple(
        SubchannelParams.from_real(
            draw(st.one_of(st.floats(0.0, 1.0 / math.sqrt(2.0)), st.just(1.0 / math.sqrt(2.0)))),
            draw(value),
            draw(st.one_of(st.floats(1.0, 10.0), st.floats(1.0, MAX))),
        )
        for _ in range(count)
    )
    model = ChannelModel(subs, draw(st.integers(1, count)), draw(value))
    fades = draw(st.none() | st.lists(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, MAX)),
                                      min_size=model.active_count,
                                      max_size=model.active_count))
    return model, draw(value), draw(value), fades


@SETTINGS
@given(channel_case())
def test_no_rate_exceeds_its_boosted_counterpart(case):
    model, mod_variance, gain_c, fades = case
    try:
        report = rate_report(model, mod_variance, gain_c, fades)
    except ValueError:  # DomainError, for a diverging tap, and DegenerateRegimeError included
        return
    for _, _, capacity, svd_capacity, private, svd_private in report.subchannels:
        assert capacity <= svd_capacity and private <= svd_private
    assert report.capacity <= report.svd_capacity
    assert report.private_capacity <= report.svd_private_capacity


finite = st.floats(allow_nan=False, allow_infinity=False)


@SETTINGS
@given(
    kind=st.sampled_from(CURVE_KINDS),
    grid=st.one_of(*(st.lists(x, min_size=1, max_size=20)
                     for x in (st.floats(0.0, 1.0), st.floats(0.0, 12.0), finite))),
    z=st.one_of(st.floats(1.0, 10.0), finite),
    l=st.one_of(st.integers(1, 64), st.integers(-2, 10**400)),
    g=st.one_of(st.floats(0.0, 1.0), finite),
    k_in=st.one_of(st.integers(1, 12), st.integers(-2, 10**200)),
    k_out=st.one_of(st.integers(1, 12), st.integers(-2, 10**200)),
)
def test_tradeoff_deltas_are_finite_and_non_negative(kind, grid, z, l, g, k_in, k_out):
    try:
        curve = tradeoff_curve(kind, grid, z_exponent=z, l=l, g_scale=g, k_in=k_in, k_out=k_out)
    except ValueError:  # DomainError included
        return
    assert len(curve.points) == len(grid)
    assert all(math.isfinite(delta) and delta >= 0.0 for _, delta in curve.points), curve.points
