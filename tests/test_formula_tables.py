"""The perr, tradeoff and rates tables, checked on generated inputs against
the per-cell rule each must reproduce bit for bit: every cell computed on its
own with the scalar functions, or with the expression they used, and
compared by ``repr``."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mcqkd.channel import (  # noqa: E402
    ChannelModel, SubchannelParams, total_input_noise,
)
from mcqkd.manifold import (  # noqa: E402
    OutageParams, perr_rows, tradeoff_curve,
)
from mcqkd.rates import (  # noqa: E402
    optimal_attack_noise, private_capacity_complex, rate_report, subchannel_capacity,
)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def same(got, want):
    assert repr(got) == repr(want)


# ---------------------------------------------------------------- perr

snr_values = st.one_of(
    st.just(1.0),
    st.floats(1.0, 1e6),
    st.floats(1.0, 1e300),
    st.integers(0, 4000).map(lambda i: 10.0 ** (i * 0.01 / 10.0)),  # a dB grid
)


@SETTINGS
@given(
    snr=st.lists(snr_values, min_size=1, max_size=20),
    ratio=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    l_values=st.lists(st.integers(1, 5000), min_size=1, max_size=6),
)
def test_perr_rows_match_the_per_cell_outage_params_rule(snr, ratio, l_values):
    # the power law of each cell: snr ** -(l * (1 - ratio)), l = 1 first
    literal = [
        (s ** -(1.0 - ratio), *(s ** -(v * (1.0 - ratio)) for v in l_values)) for s in snr
    ]
    same(perr_rows(snr, ratio, l_values), literal)


@SETTINGS
@given(
    snr=st.lists(
        st.one_of(st.just(1.0), st.floats(1.0, allow_infinity=False)),
        min_size=1, max_size=20,
    ),
    ratio=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    l_values=st.lists(st.integers(1, 10**6), min_size=1, max_size=6),
)
def test_perr_cells_need_no_clamp(snr, ratio, l_values):
    """With snr >= 1 and the exponent -(l * (1 - ratio)) <= 0 every cell
    already lies in [0, 1]: it equals its clamped value, and each column
    falls as snr grows."""
    snr = sorted(snr)
    rows = perr_rows(snr, ratio, l_values)
    for s, row in zip(snr, rows):
        for l, cell in zip((1, *l_values), row):
            same(cell, min(max(s ** -(l * (1.0 - ratio)), 0.0), 1.0))
            assert 0.0 <= cell <= 1.0
    for column in zip(*rows):
        assert all(a >= b for a, b in zip(column, column[1:]))


@pytest.mark.parametrize(
    "ratio, l_values, message",
    [
        (1.5, [1], "multiplex_ratio must lie in [0, 1], got 1.5"),
        (math.nan, [1], "multiplex_ratio must lie in [0, 1], got nan"),
        (0.5, [2, 0], "l must be >= 1, got 0"),
    ],
)
def test_perr_rows_check_table_parameters_as_outage_params_does(ratio, l_values, message):
    with pytest.raises(ValueError) as params_error:
        for v in l_values:
            OutageParams(10.0, ratio, l=v)
    assert str(params_error.value) == message
    # before any snr, so a bad snr does not mask it
    with pytest.raises(ValueError) as rows_error:
        perr_rows([0.5, 10.0], ratio, l_values)
    assert str(rows_error.value) == message


@pytest.mark.parametrize("snr", [0.5, 0.0, math.nan])
def test_perr_rows_need_snr_of_at_least_one(snr):
    with pytest.raises(ValueError, match="power-law outage needs snr >= 1"):
        perr_rows([10.0, snr], 0.5, [2])


@pytest.mark.parametrize(
    "snr, l_values, message",
    [
        ([0.5, 10**400], (2,), "snr must fit a double"),
        ([10.0], (2, 10**400), "l must fit a double"),
    ],
)
def test_perr_rows_reject_integers_beyond_the_double_range(snr, l_values, message):
    # before any row, so the snr below one ahead of a huge snr does not mask it
    with pytest.raises(ValueError) as excinfo:
        perr_rows(snr, 0.5, l_values)
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == message


# ---------------------------------------------------------------- tradeoff


def interp_per_point(k_in, k_out, sigma):
    """One np.interp call per point on the two knots around sigma, at the
    exact offset sigma - i, and zero from the last knot on."""
    if sigma >= min(k_in, k_out):
        return 0.0
    i = math.floor(sigma)
    values = [float((k_in - j) * (k_out - j)) for j in (i, i + 1)]
    return float(np.interp(sigma - i, (0.0, 1.0), values))


def checked_points(curve):
    """The curve's points, each asserted to be a (sigma, delta) pair of Python
    floats with delta >= 0, as ``TradeoffCurve`` documents them."""
    assert all(
        type(p) is tuple and len(p) == 2 and type(p[0]) is type(p[1]) is float and p[1] >= 0
        for p in curve.points
    ), curve.points
    return curve.points


@st.composite
def multiaccess_case(draw):
    k_in = draw(st.one_of(st.integers(1, 12), st.integers(1, 10**7)))
    k_out = k_in + draw(st.one_of(st.integers(0, 12), st.integers(0, 10**9)))
    knot = st.integers(0, k_in + 1).map(float)
    sigma = st.one_of(
        st.floats(0.0, k_in + 1.0),
        knot,  # exactly on a knot
        knot.map(lambda x: math.nextafter(x, 0.0)),  # just below a knot
        knot.map(lambda x: math.nextafter(x, math.inf)),  # just above a knot
        st.just(1.0 - 2.0**-53),  # t = 1 - 2^-53
    )
    return k_in, k_out, draw(st.lists(sigma, min_size=1, max_size=30))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(multiaccess_case())
def test_multiaccess_curve_matches_np_interp_per_point(case):
    k_in, k_out, grid = case
    curve = tradeoff_curve("multiaccess_in_le_out", grid, k_in=k_in, k_out=k_out)
    same([d for _, d in checked_points(curve)], [interp_per_point(k_in, k_out, s) for s in grid])


@SETTINGS
@given(
    k_in=st.integers(1, 8),
    extra=st.integers(0, 8),
    grid=st.lists(st.floats(0.0, 9.0), min_size=1, max_size=30),
)
def test_small_multiaccess_curve_matches_np_interp_on_all_knots(k_in, extra, grid):
    k_out = k_in + extra
    xs = np.arange(k_in + 1, dtype=float)
    knots = [float((k_in - i) * (k_out - i)) for i in range(k_in + 1)]
    curve = tradeoff_curve("multiaccess_in_le_out", grid, k_in=k_in, k_out=k_out)
    same(
        [d for _, d in checked_points(curve)],
        [float(np.interp(s, xs, knots, right=0.0)) for s in grid],
    )


unit_grid = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30)


@SETTINGS
@given(grid=unit_grid, z=st.floats(1.0, 1e6), l=st.integers(1, 10**6), g=st.floats(0.0, 0.999))
def test_linear_curves_match_the_per_point_expressions(grid, z, l, g):
    open_grid = [s for s in grid if s > 0.0] or [1.0]
    cases = [
        ("single", open_grid, dict(z_exponent=z), lambda s: z * (1.0 - s)),
        ("multicarrier", grid, dict(z_exponent=z, l=l), lambda s: l * z * (1.0 - s)),
        ("g_scaled", grid, dict(z_exponent=z, g_scale=g), lambda s: z * (1.0 - s) * (1.0 - g)),
    ]
    for kind, points, kwargs, rule in cases:
        curve = tradeoff_curve(kind, points, **kwargs)
        same(checked_points(curve), tuple((s, rule(s)) for s in points))


@SETTINGS
@given(k_in=st.integers(1, 10**6), extra=st.integers(0, 10**6), data=st.data())
def test_complement_curve_matches_the_per_point_expression(k_in, extra, data):
    k_out = k_in + extra
    grid = data.draw(st.lists(st.floats(0.0, float(k_in)), min_size=1, max_size=30))
    curve = tradeoff_curve("orthogonal_complement", grid, k_in=k_in, k_out=k_out)
    same([d for _, d in checked_points(curve)], [(k_in - s) * (k_out - s) for s in grid])


# ---------------------------------------------------------------- rates


def report_per_row(model, mod_variance, gain_c, fades_sq):
    """Each row with the scalar functions, totals added in row order."""
    totals = [0.0] * 4
    rows = []
    for sub, fade_sq in zip(model.active, fades_sq):
        input_noise = total_input_noise(sub, model.vacuum_variance)
        noise_star = optimal_attack_noise(mod_variance, fade_sq, input_noise)
        rates = (
            subchannel_capacity(mod_variance, fade_sq, sub.noise_variance),
            subchannel_capacity(mod_variance * (1.0 + gain_c), fade_sq, sub.noise_variance),
            private_capacity_complex(mod_variance, fade_sq, noise_star),
            private_capacity_complex(mod_variance * (1.0 + gain_c), fade_sq, noise_star),
        )
        rows.append((fade_sq, noise_star, *rates))
        totals = [t + r for t, r in zip(totals, rates)]
    return totals, rows


@st.composite
def rate_case(draw):
    count = draw(st.integers(1, 8))
    subs = tuple(
        SubchannelParams.from_real(
            draw(st.floats(1e-3, 0.7)), draw(st.floats(1e-3, 10.0)), draw(st.floats(1.0, 5.0))
        )
        for _ in range(count)
    )
    model = ChannelModel(subs, draw(st.integers(1, count)), draw(st.floats(0.1, 4.0)))
    fades = draw(st.none() | st.lists(st.floats(0.0, 1.0), min_size=model.active_count,
                                      max_size=model.active_count))
    # the attack exists where mod_variance * fade_sq < 1 and the input noise
    # exceeds 1; a wider mod_variance reaches the degenerate bracket
    mod_variance = draw(st.floats(1e-6, 1.0) | st.floats(1e-6, 50.0))
    return model, mod_variance, draw(st.floats(1e-6, 10.0)), fades


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(rate_case())
def test_rate_report_matches_the_scalar_rate_functions(case):
    model, mod_variance, gain_c, fades = case
    fades_sq = fades if fades is not None else [abs(s.transmittance) ** 2 for s in model.active]
    try:
        totals, rows = report_per_row(model, mod_variance, gain_c, fades_sq)
    except ValueError as exc:  # a degenerate bracket or a diverging tap
        with pytest.raises(type(exc)) as raised:
            rate_report(model, mod_variance, gain_c, fades)
        assert str(raised.value) == str(exc)
        return
    report = rate_report(model, mod_variance, gain_c, fades)
    same(report.subchannels, tuple(rows))
    same(
        [report.capacity, report.svd_capacity, report.private_capacity, report.svd_private_capacity],
        totals,
    )
