"""The CSV cell format of every table subcommand, checked on generated rows
against the per-cell rule it must reproduce byte for byte."""

import struct

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mcqkd.cli import _table  # noqa: E402


def per_cell_table(columns, rows, precision):
    """Each cell formatted on its own: ``{:.<precision>g}`` for a float, str
    for anything else."""
    lines = [",".join(columns)]
    lines.extend(
        ",".join(
            "{:.{p}g}".format(v, p=precision) if isinstance(v, float) else str(v)
            for v in row
        )
        for row in rows
    )
    return "\n".join(lines) + "\n"


# every 64-bit pattern: subnormals, signed zeros, infinities and NaN payloads
any_double = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
CELL_KINDS = (
    any_double,
    any_double.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(),
    st.booleans(),
    st.text(max_size=8),
)
# rows whose cell types vary from row to row, and rows that share one tuple
# of cell types, as a table's rows mostly do
rows = st.one_of(
    st.lists(st.lists(st.one_of(*CELL_KINDS), max_size=6), max_size=12),
    st.lists(st.sampled_from(CELL_KINDS), min_size=1, max_size=6).flatmap(
        lambda kinds: st.lists(st.tuples(*kinds), max_size=12)
    ),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    columns=st.lists(st.text(alphabet="abcxyz_", min_size=1, max_size=5), max_size=6),
    rows=rows,
    precision=st.integers(1, 40),
)
def test_table_matches_the_per_cell_rule(columns, rows, precision):
    assert _table(columns, rows, precision) == per_cell_table(columns, rows, precision)


@pytest.mark.parametrize("precision", [1, 3, 9, 17, 30, 120, 1000])
def test_table_matches_the_per_cell_rule_at_the_edges(precision):
    values = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1.8e308, 1 / 3]
    rows = [[v, np.float64(v), i, "total", ""] for i, v in enumerate(values)]
    rows.append(("total", "", "", 1.0, np.int64(7), True))
    assert _table(("a", "b"), rows, precision) == per_cell_table(("a", "b"), rows, precision)
