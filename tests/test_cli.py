"""Command line interface: parsing, CSV layout, headers and exit codes."""

import ast
import functools
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcqkd import __version__, cli, montecarlo, singular_layer
from mcqkd.constellation import build_constellation, permute_constellation
from mcqkd.cli import _parse_grid, _to_linear, main

CHANNEL_TEXT = (
    "vacuum_variance=1\n"
    "active_count=2\n"
    "re_t=0.5 noise_var=0.2 eve_w=1.4\n"
    "re_t=0.6 noise_var=0.25 eve_w=1.5\n"
)

MATRIX_TEXT = "0.6:0,0.1:0.2\n0:0.1,0.5:0\n0.2:0,0:0.4\n"
EXCLUDED_ONE = "warning: excluding 1 zero outage estimate(s) from the slope fit"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out.splitlines()


def with_input_files(tmp_path, argv) -> list:
    """``argv`` with ``{matrix}`` and ``{channel}`` replaced by the paths of
    ``MATRIX_TEXT`` and ``CHANNEL_TEXT`` written under ``tmp_path``."""
    paths = dict(matrix=tmp_path / "m.csv", channel=tmp_path / "c.txt")
    paths["matrix"].write_text(MATRIX_TEXT)
    paths["channel"].write_text(CHANNEL_TEXT)
    return [a.format(**paths) for a in argv]


def random_matrix_text(k_out, k_in):
    """A K_out x K_in matrix file of ``repr`` cells from a generator seeded
    by the shape."""
    cells = np.random.default_rng(k_out * 1000 + k_in).normal(size=(k_out, k_in, 2)).tolist()
    return "".join(",".join(f"{re!r}:{im!r}" for re, im in row) + "\n" for row in cells)


def data_rows(lines):
    return [l for l in lines if not l.startswith("#")][1:]


def header_map(lines):
    pairs = [l[2:].split("=", 1) for l in lines if l.startswith("# ") and "=" in l]
    return dict(pairs)


class TestGridParsing:
    def test_comma_list(self):
        assert _parse_grid("1,10,100", "--grid") == [1.0, 10.0, 100.0]

    def test_range_is_end_inclusive(self):
        assert _parse_grid("0:1:0.25", "--grid") == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_range_with_uneven_step_stops_short(self):
        assert _parse_grid("1:2:0.4", "--grid") == pytest.approx([1.0, 1.4, 1.8])

    @pytest.mark.parametrize(
        "text",
        [
            "", " ", "1:2", "1:2:3:4", "2:1:0.5", "1:5:0",
            "inf,10", "10,nan", "0.5:inf:0.1", "-inf:1:0.1", "0:1:nan", "0:2:1e-6",
        ],
    )
    def test_malformed_grids_rejected(self, text):
        with pytest.raises(ValueError):
            _parse_grid(text, "--grid")

    @pytest.mark.parametrize(
        "argv, last_line",
        [
            # 0.1 + 29 * 0.1 is 3.0000000000000004, outside [0, K_in]
            (("tradeoff", "--kind", "orthogonal_complement", "--k-in", "3", "--k-out", "4",
              "--grid", "0.1:3:0.1"), "3,0"),
            # 0.1 + 3 * 0.3 is 0.9999999999999999, whose delta is 4.4e-16
            (("tradeoff", "--kind", "multicarrier", "--l", "4", "--grid", "0.1:1:0.3"), "1,0"),
        ],
        ids=["orthogonal-complement", "multicarrier"],
    )
    def test_a_range_that_reaches_stop_ends_on_it(self, capsys, argv, last_line):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out.splitlines()[-1], captured.err) == (0, last_line, "")

    def test_range_point_count_bounded(self, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 10)
        assert len(_parse_grid("1:10:1", "--grid")) == 10
        with pytest.raises(ValueError, match="more than 10 points"):
            _parse_grid("1:11:1", "--grid")

    def test_db_conversion(self):
        assert _to_linear([10.0, 20.0], "db") == pytest.approx([10.0, 100.0])
        assert _to_linear([10.0], "linear") == [10.0]


class TestHeaders:
    def test_tool_line_and_sorted_keys(self, capsys):
        code, lines = run(
            capsys, "tradeoff", "--kind", "multicarrier", "--grid", "0,0.5", "--l", "2"
        )
        assert code == 0
        assert lines[0] == f"# tool=mcqkd {__version__}"
        assert lines[1] == "# subcommand=tradeoff"
        keys = [l[2:].split("=")[0] for l in lines[2:] if l.startswith("# ")]
        assert keys == sorted(keys)

    def test_output_file_instead_of_stdout(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, lines = run(
            capsys,
            "tradeoff", "--kind", "single", "--grid", "0.5", "-o", str(target),
        )
        assert code == 0
        assert lines == []
        text = target.read_text()
        assert text.startswith("# tool=mcqkd")
        assert text.endswith("\n")


class TestTradeoff:
    def test_multicarrier_endpoints(self, capsys):
        code, lines = run(
            capsys, "tradeoff", "--kind", "multicarrier", "--grid", "0:1:0.25", "--l", "2"
        )
        assert code == 0
        rows = [r.split(",") for r in data_rows(lines)]
        assert len(rows) == 5
        assert float(rows[0][1]) == pytest.approx(2.0)
        assert float(rows[-1][1]) == pytest.approx(0.0)


class TestPerr:
    def test_table_cell_count_bounded(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 6)
        assert main(["perr", "--snr", "10,100,1000", "--multiplex", "0", "--l", "1,2"]) == 0
        capsys.readouterr()
        code = main(["perr", "--snr", "10,100,1000", "--multiplex", "0", "--l", "1,2,3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "exceed 6 table cells" in captured.err

    def test_a_million_snr_by_l_cells_refused_before_evaluation(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "perr_rows", lambda *args: pytest.fail("evaluated"))
        code = main(["perr", "--snr", "1:1000:1", "--multiplex", "0.5", "--l", "1:1001:1"])
        assert code == 2
        assert "1000 snr x 1001 l values" in capsys.readouterr().err

    def test_power_law_columns(self, capsys):
        code, lines = run(
            capsys, "perr", "--snr", "10,100", "--multiplex", "0", "--l", "1,2"
        )
        assert code == 0
        cols = data_rows(lines)
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "snr_db,p_single,p_amqd_l1,p_amqd_l2"
        first = cols[0].split(",")
        assert float(first[0]) == pytest.approx(10.0)
        assert float(first[1]) == pytest.approx(0.1)
        assert float(first[2]) == pytest.approx(0.1)
        assert float(first[3]) == pytest.approx(0.01)

    def test_db_input_matches_linear(self, capsys):
        _, linear = run(capsys, "perr", "--snr", "10,100", "--multiplex", "0.5")
        _, db = run(
            capsys, "perr", "--snr", "10,20", "--snr-unit", "db", "--multiplex", "0.5"
        )
        assert data_rows(linear) == data_rows(db)

    def test_precision_flag(self, capsys):
        _, lines = run(
            capsys, "perr", "--snr", "3", "--multiplex", "0", "--precision", "2"
        )
        cells = data_rows(lines)[0].split(",")
        assert cells[1] == "0.33"

    def test_integral_float_l_accepted(self, capsys):
        code, lines = run(capsys, "perr", "--snr", "10", "--multiplex", "0.5", "--l", "2.0,4")
        assert code == 0
        assert [l for l in lines if not l.startswith("#")][0].endswith("p_amqd_l2,p_amqd_l4")


class TestSvd:
    def test_eigenchannel_table(self, capsys, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(MATRIX_TEXT)
        code, lines = run(capsys, "svd", "--matrix", str(p))
        assert code == 0
        params = header_map(lines)
        assert params["k_in"] == "2" and params["k_out"] == "3"
        rows = data_rows(lines)
        assert len(rows) == 3
        lams = [float(r.split(",")[1]) for r in rows[:2]]
        assert lams == sorted(lams, reverse=True)
        label, err = rows[-1].split(",")
        assert label == "recon_error"
        assert float(err) < 1e-10

    def test_zero_matrix_prints_the_absolute_error(self, capsys, tmp_path):
        """A zero matrix has no norm to divide by: recon_error is the
        absolute error."""
        p = tmp_path / "m.csv"
        p.write_text("0:0,0:0\n0:0,0:0\n0:0,0:0\n")
        code, lines = run(capsys, "svd", "--matrix", str(p))
        assert (code, data_rows(lines)) == (0, ["0,0", "1,0", "recon_error,0"])

    def test_a_tall_matrix_needs_memory_of_its_own_size(self, capsys, tmp_path):
        """The thin factorisation builds no K_out x K_out array: 3,000 rows of
        one entry decompose within 8 MiB (a full 3000 x 3000 unitary alone
        takes 137 MiB)."""
        p = tmp_path / "m.csv"
        p.write_text(random_matrix_text(3000, 1))
        tracemalloc.start()
        try:
            code = main(["svd", "--matrix", str(p)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert data_rows(captured.out.splitlines())[0].startswith("0,")
        assert peak < 8 * 2**20


class TestRates:
    def test_per_channel_rows_and_total(self, capsys, tmp_path):
        p = tmp_path / "chan.txt"
        p.write_text(CHANNEL_TEXT)
        code, lines = run(
            capsys, "rates", "--channel", str(p), "--mod-variance", "1.2", "--gain-c", "0.5"
        )
        assert code == 0
        header = [l for l in lines if not l.startswith("#")][0]
        assert header.split(",")[0] == "index"
        rows = [r.split(",") for r in data_rows(lines)]
        assert len(rows) == 3
        assert rows[-1][0] == "total"
        for col in (3, 4, 5, 6):
            parts = sum(float(r[col]) for r in rows[:2])
            assert_allclose(float(rows[-1][col]), parts, rtol=1e-7)
        caps = [float(r[3]) for r in rows[:2]]
        svd_caps = [float(r[4]) for r in rows[:2]]
        assert all(s > c for s, c in zip(svd_caps, caps))

    def test_explicit_fades_override_transmittance(self, capsys, tmp_path):
        p = tmp_path / "chan.txt"
        p.write_text(CHANNEL_TEXT)
        code, lines = run(
            capsys,
            "rates", "--channel", str(p), "--mod-variance", "1.2", "--fades", "0.3,0.4",
        )
        assert code == 0
        fades = [float(r.split(",")[1]) for r in data_rows(lines)[:2]]
        assert fades == pytest.approx([0.3, 0.4])


class TestConstellation:
    def test_single_channel_listing(self, capsys):
        code, lines = run(capsys, "constellation", "--bits", "2")
        assert code == 0
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "index,re,im"
        rows = data_rows(lines)
        assert len(rows) == 4
        assert [int(r.split(",")[0]) for r in rows] == [0, 1, 2, 3]
        cells = [float(c) for r in rows for c in r.split(",")[1:]]
        points = build_constellation(2).points
        assert_allclose(cells, [v for p in points for v in (p.real, p.imag)], rtol=1e-8)

    def test_permuted_channels_share_point_set(self, capsys):
        code, lines = run(capsys, "constellation", "--bits", "2", "--l", "2", "--seed", "3")
        assert code == 0
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "subchannel,index,re,im"
        rows = [r.split(",") for r in data_rows(lines)]
        assert len(rows) == 8
        first = {(r[2], r[3]) for r in rows if r[0] == "1"}
        second = {(r[2], r[3]) for r in rows if r[0] == "2"}
        assert first == second

    def test_row_count_bounded(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 8)
        code, lines = run(capsys, "constellation", "--bits", "2", "--l", "2")
        assert code == 0 and len(data_rows(lines)) == 8
        code = main(["constellation", "--bits", "2", "--l", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "exceed 8 table rows" in captured.err

    @pytest.mark.parametrize("precision", [3, 9, 17])
    @pytest.mark.parametrize("l", [1, 3])
    @pytest.mark.parametrize("bits", ["1", "2.5", "7", "12", "16"])
    def test_bytes_match_the_per_cell_layout(self, capsys, tmp_path, bits, l, precision):
        # reference: every sub-channel's points in permuted order, each cell
        # formatted on its own with str.format
        spread = permute_constellation(build_constellation(float(bits)), l, 5)
        fmt = f"{{:.{precision}g}}"
        lines = [
            f"# tool=mcqkd {__version__}", "# subcommand=constellation",
            f"# bits={float(bits)}", f"# l={l}", "# seed=5",
        ]
        lines.append("index,re,im" if l == 1 else "subchannel,index,re,im")
        for sub in range(1, l + 1):
            for i, p in enumerate(spread.subchannel_points(sub)):
                cells = [str(i), fmt.format(p.real), fmt.format(p.imag)]
                lines.append(",".join(cells if l == 1 else [str(sub), *cells]))
        want = "\n".join(lines) + "\n"
        argv = ["constellation", "--bits", bits, "--l", str(l), "--seed", "5",
                "--precision", str(precision)]
        assert main(argv) == 0
        assert capsys.readouterr().out == want
        out = tmp_path / "c.csv"
        assert main([*argv, "-o", str(out)]) == 0
        assert out.read_bytes() == want.encode()

    def test_oversized_table_refused_before_any_permutation(self, capsys, monkeypatch):
        drawn = []
        monkeypatch.setattr(
            "mcqkd.constellation.permute_constellation", lambda *a: drawn.append(a)
        )
        code = main(["constellation", "--bits", "2", "--l", "250001"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "4 points x 250001 sub-channels exceed 1000000 table rows" in captured.err
        assert drawn == []


class TestMonteCarloCommand:
    def test_table_and_header(self, capsys):
        code, lines = run(
            capsys,
            "mc", "--mode", "mean_fade", "--snr", "5,10,20", "--trials", "2000",
            "--seed", "4",
        )
        assert code == 0
        params = header_map(lines)
        assert params["mode"] == "mean_fade"
        assert params["trials"] == "2000"
        assert params["snr"] == "5,10,20"
        assert "threads" not in params
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "snr,p_hat,ci_low,ci_high"
        assert len(body) == 5
        assert body[-1].startswith("slope,")

    def test_thread_count_never_changes_bytes(self, capsys, tmp_path):
        base = [
            "mc", "--mode", "rate", "--multiplex", "0.5", "--snr", "10,31.6,100",
            "--trials", "5000", "--seed", "12",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(base + ["--threads", "1", "-o", str(a)]) == 0
        assert main(base + ["--threads", "4", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_equivalent_to_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "mode=mean_fade\nsnr=5,10,20\ntrials=2000\nseed=4\n# comment\n"
        )
        f1, f2 = tmp_path / "flags.csv", tmp_path / "cfg.csv"
        assert main([
            "mc", "--mode", "mean_fade", "--snr", "5,10,20", "--trials", "2000",
            "--seed", "4", "-o", str(f1),
        ]) == 0
        assert main(["mc", "--config", str(cfg), "-o", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_config_setting_every_key_equals_the_flags(self, capsys, tmp_path, threads):
        settings = {
            "mode": "rate", "l": "3", "multiplex": "0.4", "snr": "10,20,30",
            "snr_unit": "db", "trials": "30000", "seed": "9", "fade_variance": "1.5",
            "threads": threads,
        }
        assert set(settings) == set(cli._MC_SETTINGS)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
        flags = [a for k, v in settings.items() for a in ("--" + k.replace("_", "-"), v)]
        f1, f2 = tmp_path / "flags.csv", tmp_path / "cfg.csv"
        assert main(["mc", *flags, "-o", str(f1)]) == 0
        assert main(["mc", "--config", str(cfg), "-o", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode=mean_fade\nsnr=5,10,20\ntrials=2000\nseed=4\n")
        code, lines = run(capsys, "mc", "--config", str(cfg), "--trials", "3000")
        assert code == 0
        assert header_map(lines)["trials"] == "3000"

    def test_db_snr_unit_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode=mean_fade\nsnr=7,10,13\nsnr_unit=db\ntrials=2000\nseed=4\n")
        code, lines = run(capsys, "mc", "--config", str(cfg))
        assert code == 0
        snr = header_map(lines)["snr"].split(",")
        assert float(snr[0]) == pytest.approx(10 ** 0.7)

    def test_help_keeps_the_threads_text(self, capsys):
        assert main(["mc", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "--threads THREADS worker threads (never changes results)" in out

    def test_rate_grid_below_the_mean_fade_probability_is_sampled(self, capsys):
        """At snr=2000 the mean-fade probability, a lower bound on this rate
        outage, is 5.6e-9; the rate outage itself is about 1e-4."""
        code, lines = run(
            capsys,
            "mc", "--mode", "rate", "--l", "16", "--multiplex", "0.75",
            "--snr", "1000,2000,4000", "--trials", "200000", "--seed", "1",
        )
        assert code == 0
        assert all(float(r.split(",")[1]) > 0 for r in data_rows(lines)[:3])

    @pytest.mark.parametrize(
        "flags, code, err",
        [
            ("--l 64 --snr 1.2,1.5,2 --trials 100000 --seed 9", 4,
             [EXCLUDED_ONE, "error: slope fit needs at least 3 nonzero points, got 2"]),
            ("--l 64 --snr 1.2,1.3,1.4,2 --trials 100000 --seed 9", 0, [EXCLUDED_ONE]),
            ("--l 64 --snr 1.2,1.2,1.2,2 --trials 100000 --seed 9", 4,
             [EXCLUDED_ONE, "error: slope undefined: every nonzero estimate is at one snr "
              "value, 1.2; increase trials"]),
            ("--l 4 --snr 50,60,70 --trials 1000 --seed 3", 4,
             ["error: no outage events in 1000 trials at any grid point; "
              "increase trials or lower the snr grid"]),
            ("--l 4 --snr 2,2,2 --trials 1000 --seed 3", 3,
             ["error: snr grid is constant; slope undefined"]),
        ],
        ids=["fit_fails", "fit_succeeds", "constant_grid", "all_zero", "constant_grid_no_zero"],
    )
    def test_zero_estimates_give_one_warning_line(self, capsys, flags, code, err):
        """A zero estimate left out of the slope fit is reported as one
        ``warning:`` line, with no Python warning text, whether or not the
        fit then succeeds.  An all-zero grid is refused before any fit, and a
        constant grid before sampling: neither prints a ``warning:`` line."""
        assert main(["mc", "--mode", "mean_fade", *flags.split()]) == code
        captured = capsys.readouterr()
        assert captured.err.splitlines() == err
        assert (captured.out == "") == (code != 0)


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "tradeoff" in capsys.readouterr().out

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--version"], 0),
            (["frobnicate"], 2),
            (["mc", "--mode", "mean_fade", "--l", "4", "--snr", "1e3,1e4,1e5"], 4),
        ],
        ids=["version", "unknown_subcommand", "refused_mc"],
    )
    def test_entry_exits_with_the_code_of_main(self, capsys, monkeypatch, argv, code):
        """The console script ``entry`` reads ``sys.argv`` and exits with the
        code ``main`` returns."""
        monkeypatch.setattr(sys, "argv", ["mcqkd", *argv])
        with pytest.raises(SystemExit) as info:
            cli.entry()
        assert info.value.code == code

    def test_missing_required_argument(self, capsys):
        assert main(["perr", "--multiplex", "0"]) == 2

    @pytest.mark.parametrize("precision", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("tradeoff", "--kind", "single", "--grid", "0.5"),
            ("perr", "--snr", "3", "--multiplex", "0"),
            ("mc", "--mode", "mean_fade", "--snr", "2,3,4", "--trials", "1000"),
            ("svd", "--matrix", "{matrix}"),
            ("rates", "--channel", "{channel}", "--mod-variance", "1.2"),
            ("constellation", "--bits", "2"),
        ],
    )
    def test_precision_below_one_exits_2(self, capsys, tmp_path, argv, precision):
        argv = with_input_files(tmp_path, argv)
        assert main([*argv, "--precision", "1"]) == 0
        capsys.readouterr()
        assert main([*argv, "--precision", precision]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--precision" in captured.err


    @pytest.mark.parametrize(
        "argv",
        [
            ("tradeoff", "--kind", "single", "--grid", "0.5"),
            ("perr", "--snr", "3", "--multiplex", "0"),
            ("mc", "--mode", "mean_fade", "--snr", "2,3,4", "--trials", "1000"),
            ("svd", "--matrix", "{matrix}"),
            ("rates", "--channel", "{channel}", "--mod-variance", "1.2"),
            ("constellation", "--bits", "2"),
        ],
    )
    def test_precision_beyond_the_format_limit_exits_2_before_any_work(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        argv = with_input_files(tmp_path, argv)
        # 2^31 - 1 is the largest precision a format string takes
        assert main([*argv, "--precision", str(2**31 - 1)]) == 0
        capsys.readouterr()
        counted = []
        monkeypatch.setattr(montecarlo, "_count_events", lambda *a: counted.append(a))
        assert main([*argv, "--precision", str(2**31)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --precision: must be an integer in [1, 2147483647]" in captured.err
        assert counted == []


BIG_K = str(10**200)  # K_in * K_out beyond the largest double
UNDECODABLE = (
    "error: {path}: 'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"
)
RATES = "rates --channel {path} --mod-variance 1.2"
RECORD = "re_t=0.5 noise_var=0.2 eve_w=1.4\n"

# (id, argv split on spaces, the text of the file at {path} or None for no
# file, exit code, last stderr line); an empty value is written --flag=
ERROR_EXITS = [
    ("precision-not-an-integer", "tradeoff --kind single --grid 0.5 --precision abc", None, 2,
     "mcqkd tradeoff: error: argument --precision: "
     "must be an integer in [1, 2147483647], got 'abc'"),
    ("config-line-without-value", "mc --config {path}", "mode=mean_fade\nsnr\n", 2,
     "error: {path}:2: expected key=value, got 'snr'"),
    ("config-key-twice", "mc --config {path}", "mode=mean_fade\nsnr=5,10,20\nseed=1\nseed=2\n", 2,
     "error: {path}:4: duplicate key 'seed'"),
    # the comment line and the blank line are skipped, and counted
    ("matrix-bad-cell-after-comment", "svd --matrix {path}", "# header\n0.5:0,0.1:0\n\n0.2:0,1:x\n",
     2, "error: {path}:4: bad entry '1:x'"),
    ("matrix-comments-only", "svd --matrix {path}", "# only a comment\n\n# another\n", 2,
     "error: {path}: no matrix rows found"),
    ("matrix-non-finite-cell", "svd --matrix {path}", "0.5:0,0.1:0\n\n0.2:0,1:nan\n", 2,
     "error: {path}:3: matrix entries must be finite, got '1:nan'"),
    ("fade-count", RATES + " --fades 0.5,0.6,0.7", CHANNEL_TEXT, 2,
     "error: expected 2 fade values, got 3"),
    ("channel-field-without-value", RATES, "re_t=0.5 noise_var\n", 2,
     "error: {path}:1: expected key=value, got 'noise_var'"),
    ("channel-unknown-directive", RATES, "bogus=1\n" + RECORD, 2,
     "error: {path}:1: unknown directive keys ['bogus']"),
    ("constellation-no-subchannel", "constellation --bits 2 --l 0", None, 2,
     "error: l must be >= 1, got 0"),
    ("constellation-negative-l", "constellation --bits 2 --l -3", None, 2,
     "error: l must be >= 1, got -3"),
    # a grid cell that is not a number is named with its flag or setting,
    # before any table-wide parameter (--z 0.5 is bad too)
    ("perr-snr-cell", "perr --snr 1,x --multiplex 0.5", None, 2,
     "error: --snr values must be numbers, got 'x'"),
    ("perr-l-cell", "perr --snr 1 --multiplex 0.5 --l 1,x", None, 2,
     "error: --l values must be numbers, got 'x'"),
    ("tradeoff-grid-cell", "tradeoff --kind single --grid 0.5,x --z 0.5", None, 2,
     "error: --grid values must be numbers, got 'x'"),
    ("tradeoff-range-cell", "tradeoff --kind single --grid 0:1:y", None, 2,
     "error: --grid values must be numbers, got 'y'"),
    ("rates-fades-cell", RATES + " --fades 1,x", CHANNEL_TEXT, 2,
     "error: --fades values must be numbers, got 'x'"),
    ("mc-snr-cell", "mc --mode rate --snr 2,3,x", None, 2,
     "error: --snr values must be numbers, got 'x'"),
    ("mc-config-snr-cell", "mc --config {path}", "mode=rate\nsnr=2,3,x\n", 2,
     "error: snr values must be numbers, got 'x'"),
    # every other grid fault is named with its flag or setting too
    ("perr-snr-not-finite", "perr --snr inf,10 --multiplex 0.6", None, 2,
     "error: --snr values must be finite, got 'inf,10'"),
    ("tradeoff-range-stop-not-finite", "tradeoff --kind single --grid 0.5:inf:0.1", None, 2,
     "error: --grid values must be finite, got '0.5:inf:0.1'"),
    ("mc-snr-nan", "mc --mode mean_fade --trials 2000 --snr nan,10,100", None, 2,
     "error: --snr values must be finite, got 'nan,10,100'"),
    ("mc-snr-inf", "mc --mode mean_fade --trials 2000 --snr 10,inf,100", None, 2,
     "error: --snr values must be finite, got '10,inf,100'"),
    ("rates-fades-bad-range", "rates --channel {path} --mod-variance 1 --fades=1:0:1", CHANNEL_TEXT,
     2, "error: --fades range '1:0:1' needs step > 0 and stop >= start"),
    ("mc-snr-range-shape", "mc --mode rate --snr 1:2", None, 2,
     "error: --snr range must be start:stop:step, got '1:2'"),
    ("mc-config-snr-range-shape", "mc --config {path}", "mode=rate\nsnr=1:2\n", 2,
     "error: snr range must be start:stop:step, got '1:2'"),
    ("perr-snr-empty", "perr --snr= --multiplex 0.5", None, 2,
     "error: --snr is an empty grid, got ''"),
    ("tradeoff-grid-too-many-points", "tradeoff --kind single --grid 0:1:1e-7", None, 2,
     "error: --grid range '0:1:1e-7' has more than 1000000 points"),
    ("perr-l-not-an-integer", "perr --snr 10 --multiplex 0.5 --l 0.5", None, 2,
     "error: --l must be an integer >= 1 in every cell, got '0.5'"),
    ("perr-l-fraction", "perr --snr 10 --multiplex 0.5 --l 2.7", None, 2,
     "error: --l must be an integer >= 1 in every cell, got '2.7'"),
    ("perr-l-fraction-second", "perr --snr 10 --multiplex 0.5 --l 1,2.5", None, 2,
     "error: --l must be an integer >= 1 in every cell, got '1,2.5'"),
    ("perr-l-zero", "perr --snr 10 --multiplex 0.5 --l 0", None, 2,
     "error: --l must be an integer >= 1 in every cell, got '0'"),
    ("perr-l-fraction-step", "perr --snr 10 --multiplex 0.5 --l 1:3:0.5", None, 2,
     "error: --l must be an integer >= 1 in every cell, got '1:3:0.5'"),
    # an empty --fades is refused, not taken for no --fades
    ("rates-fades-empty", "rates --channel {path} --mod-variance 1 --fades=", CHANNEL_TEXT, 2,
     "error: --fades is an empty grid, got ''"),
    ("rates-fades-no-cell", "rates --channel {path} --mod-variance 1 --fades ,", CHANNEL_TEXT, 2,
     "error: --fades is an empty grid, got ','"),
    # the file is written as latin-1, so "\xff" is the byte 0xff, not UTF-8
    ("channel-not-utf8", RATES, "# \xff\n", 2, UNDECODABLE),
    ("matrix-not-utf8", "svd --matrix {path}", "# \xff\n", 2, UNDECODABLE),
    ("config-not-utf8", "mc --config {path}", "# \xff\n", 2, UNDECODABLE),
    # a missing input file or output folder is an I/O error
    ("matrix-missing", "svd --matrix {path}", None, 2,
     "error: [Errno 2] No such file or directory: '{path}'"),
    ("output-folder-missing", "tradeoff --kind single --grid 0.5 -o {path}/out.csv", None, 2,
     "error: [Errno 2] No such file or directory: '{path}/out.csv'"),
    # a channel record value that is not a number is named with its key
    ("channel-re_t-not-a-number", RATES, "re_t=abc noise_var=1\n", 2,
     "error: {path}:1: re_t must be a number, got 'abc'"),
    ("channel-noise_var-not-a-number", RATES, "re_t=0.5, noise_var=x\n", 2,
     "error: {path}:1: noise_var must be a number, got 'x'"),
    ("channel-eve_w-not-a-number", RATES, "# a record\nre_t=0.5 noise_var=0.2 eve_w=1.4x\n", 2,
     "error: {path}:2: eve_w must be a number, got '1.4x'"),
    ("channel-unknown-record-key", RATES, "re_t=0.5 noise_var=0.2 bogus=1\n", 2,
     "error: {path}:1: unknown record keys ['bogus']"),
    ("channel-missing-record-key", RATES, "re_t=0.5 eve_w=1.2\n", 2,
     "error: {path}:1: missing record keys ['noise_var']"),
    ("channel-directive-after-record", RATES, "re_t=0.5 noise_var=0.2\nvacuum_variance=1\n", 2,
     "error: {path}:2: directives must precede sub-channel records"),
    # a non-finite channel file value is named with its quantity at its line
    *[(f"channel-{key}-{value}", RATES, text.format(v=value), 2,
       f"error: {{path}}:{where}, got {value}")
      for key, text, where in [
          ("re_t", "re_t={v} noise_var=0.2 eve_w=1.4\n",
           "1: transmittance real part must be finite"),
          ("noise_var", "re_t=0.5 noise_var={v} eve_w=1.4\n", "1: noise_variance must be finite"),
          ("eve_w", "re_t=0.5 noise_var=0.2 eve_w={v}\n", "1: eve_epr_variance must be finite"),
          ("second_record", "re_t=0.5 noise_var=0.2\nre_t=0.6 noise_var={v}\n",
           "2: noise_variance must be finite"),
          ("vacuum_variance", "vacuum_variance={v}\n" + RECORD,
           "1: vacuum_variance must be finite and positive"),
      ]
      for value in ("inf", "-inf", "nan")],
    # a bad directive is reported at its line, a directive given again at
    # its second line
    *[(f"channel-{key}", RATES, f"# one record\n{directive}\n{RECORD}", 2,
       f"error: {{path}}:{where}")
      for key, directive, where in [
          ("active_count-fraction", "active_count=2.5",
           "2: active_count must be an integer, got '2.5'"),
          ("active_count-zero", "active_count=0", "2: active_count must be >= 1, got 0"),
          ("active_count-above-records", "active_count=3",
           "2: active_count must lie in [1, 1], got 3"),
          ("vacuum_variance-inf", "vacuum_variance=inf",
           "2: vacuum_variance must be finite and positive, got inf"),
          ("vacuum_variance-zero", "vacuum_variance=0",
           "2: vacuum_variance must be finite and positive, got 0.0"),
          ("vacuum_variance-word", "vacuum_variance=one",
           "2: vacuum_variance must be a number, got 'one'"),
          ("active_count-twice", "active_count=1\nactive_count=1",
           "3: duplicate key 'active_count'"),
          ("vacuum_variance-twice", "vacuum_variance=1\nvacuum_variance=2",
           "3: duplicate key 'vacuum_variance'"),
      ]],
    # a whole-file fault is named with its path
    ("matrix-too-wide", "svd --matrix {path}", "1:0,2:0\n", 2,
     "error: {path}: inputs must not exceed outputs, got 2 inputs and 1 outputs"),
    # numpy's norm sums the squares unscaled: 1e200 squared overflows, and
    # the norm must reach recon_error neither as inf or nan nor as a warning
    ("matrix-norm-beyond-the-double-range-2x2", "svd --matrix {path}",
     "1e200:0,1e200:0\n1e200:0,-1e200:0\n", 2, "error: matrix Frobenius norm must fit a double"),
    ("matrix-norm-beyond-the-double-range-1x1", "svd --matrix {path}", "1e200:0\n", 2,
     "error: matrix Frobenius norm must fit a double"),
    # tradeoff parameters
    ("multicarrier-z-not-finite", "tradeoff --kind multicarrier --l 5 --z inf --grid 0:1:0.5",
     None, 2, "error: z_exponent must be finite and >= 1, got inf"),
    ("g_scaled-g-nan", "tradeoff --kind g_scaled --g nan --grid 0:1:0.5", None, 2,
     "error: g_scale must be finite, got nan"),
    ("g_scaled-g-inf", "tradeoff --kind g_scaled --g inf --grid 0:1:0.5", None, 2,
     "error: g_scale must be finite, got inf"),
    ("multiaccess-needs-dimensions", "tradeoff --kind multiaccess_in_le_out --grid 0,1", None, 2,
     "error: curve kind 'multiaccess_in_le_out' needs k_in and k_out"),
    ("multiaccess-knots-beyond-the-double-range",
     f"tradeoff --kind multiaccess_in_le_out --grid 0.5 --k-in {BIG_K} --k-out {BIG_K}", None, 2,
     "error: K_in * K_out must fit a double"),
    ("g_scaled-g-one", "tradeoff --kind g_scaled --grid 0.5 --g 1.0", None, 3,
     "error: g_scale must lie in [0, 1), got 1.0"),
    # a g out of range exits 3 before any point is checked
    ("g_scaled-g-before-one-point", "tradeoff --kind g_scaled --g 1.5 --grid=-1,0.5", None, 3,
     "error: g_scale must lie in [0, 1), got 1.5"),
    ("g_scaled-g-before-two-points", "tradeoff --kind g_scaled --g 1.5 --grid=-1,0.5,0.25", None,
     3, "error: g_scale must lie in [0, 1), got 1.5"),
    # a bad point alone keeps its domain exit
    ("single-bad-point-alone", "tradeoff --kind single --grid=0.5,0", None, 3,
     "error: multiplex_ratio must lie in (0, 1], got 0.0"),
    ("perr-bad-point-alone", "perr --snr 1,0.5 --multiplex 0.5", None, 3,
     "error: power-law outage needs snr >= 1, got 0.5"),
    # an snr below one, zero included, is checked before the snr_db column
    # takes log10 of it
    ("perr-snr-below-one", "perr --snr 0.5 --multiplex 0", None, 3,
     "error: power-law outage needs snr >= 1, got 0.5"),
    ("perr-snr-zero", "perr --snr 0 --multiplex 0.5", None, 3,
     "error: power-law outage needs snr >= 1, got 0.0"),
    ("perr-snr-db-underflow", "perr --snr-unit db --snr -4000 --multiplex 0.5", None, 3,
     "error: power-law outage needs snr >= 1, got 0.0"),
    ("perr-db-beyond-the-double-range", "perr --snr-unit db --snr 4000 --multiplex 0.5", None, 2,
     "error: snr 4000 dB exceeds the largest double"),
    ("mc-db-beyond-the-double-range", "mc --mode mean_fade --snr-unit db --snr 4000,4001,4002",
     None, 2, "error: snr 4000 dB exceeds the largest double"),
    # rates parameters
    ("mod_variance-inf", "rates --channel {path} --mod-variance inf --gain-c 0.5", CHANNEL_TEXT,
     2, "error: mod_variance must be finite, got inf"),
    ("mod_variance-nan", "rates --channel {path} --mod-variance nan --gain-c 0.5", CHANNEL_TEXT,
     2, "error: mod_variance must be finite, got nan"),
    ("gain_c-inf", RATES + " --gain-c inf", CHANNEL_TEXT, 2,
     "error: gain_c must be finite, got inf"),
    ("gain_c-nan", RATES + " --gain-c nan", CHANNEL_TEXT, 2,
     "error: gain_c must be finite, got nan"),
    # a rates parameter is reported before the count of three fades for the
    # two active sub-channels, and before a bad or missing channel file
    ("mod_variance-zero-before-fade-count",
     "rates --channel {path} --mod-variance=0 --fades 0.1,0.2,0.3", CHANNEL_TEXT, 2,
     "error: mod_variance must be positive, got 0.0"),
    ("mod_variance-negative-before-fade-count",
     "rates --channel {path} --mod-variance=-1 --fades 0.1,0.2,0.3", CHANNEL_TEXT, 2,
     "error: mod_variance must be positive, got -1.0"),
    ("gain_c-zero-before-fade-count", RATES + " --gain-c=0 --fades 0.1,0.2,0.3", CHANNEL_TEXT, 2,
     "error: gain_c must be > 0, got 0.0"),
    ("mod_variance-zero-before-bad-file", "rates --channel {path} --mod-variance=0",
     "re_t=0.9 noise_var=0.2\n", 2, "error: mod_variance must be positive, got 0.0"),
    ("mod_variance-zero-before-missing-file", "rates --channel {path} --mod-variance=0", None, 2,
     "error: mod_variance must be positive, got 0.0"),
    ("gain_c-inf-before-bad-file", RATES + " --gain-c=inf", "re_t=0.9 noise_var=0.2\n", 2,
     "error: gain_c must be finite, got inf"),
    ("gain_c-inf-before-missing-file", RATES + " --gain-c=inf", None, 2,
     "error: gain_c must be finite, got inf"),
    # rates rows
    ("degenerate-attack-noise", "rates --channel {path} --mod-variance 2",
     "re_t=0.5 noise_var=0.2\n", 3,
     "error: optimal-attack noise undefined: the inverted SNR bracket is 0 (must be > 0)"),
    ("fully-tapped-subchannel", RATES, RECORD + "re_t=0 noise_var=0.2 eve_w=1.4\n", 3,
     "error: excess noise diverges: the eavesdropper tap transmits everything"),
    # mod_variance * fade_sq overflows: the bracket is inf / inf
    ("nan-bracket", "rates --channel {path} --mod-variance 1e308 --fades 10,10", CHANNEL_TEXT, 3,
     "error: optimal-attack noise undefined: the inverted SNR bracket is nan (must be > 0)"),
    # 1e-20 over the bracket of a huge input noise underflows to 0
    ("attack-noise-underflow", "rates --channel {path} --mod-variance 1e-20 --fades 1e-300",
     "re_t=1e-8 noise_var=1.0 eve_w=1e290\n", 2,
     "error: optimal-attack noise underflows to 0.0: mod_variance 1e-20 is too small "
     "for the attack bracket"),
    # 1e300 over a bracket of 2.2e-16 overflows to inf
    ("attack-noise-overflow", "rates --channel {path} --mod-variance 1e300",
     "vacuum_variance=0.9999999999999999\nre_t=0.5 noise_var=1 eve_w=1\n", 2,
     "error: optimal-attack noise overflows to inf: mod_variance 1e+300 is too large "
     "for the attack bracket"),
    # the boosted variance 1e308 * (1 + 1) overflows, so the svd cells are inf
    ("total-overflow", "rates --channel {path} --mod-variance 1e308",
     "vacuum_variance=0.5\nre_t=0.5 noise_var=1 eve_w=1\n", 2,
     "error: svd_capacity must be finite and >= 0, got inf"),
    # constellation
    ("constellation-negative-seed-l1", "constellation --bits 1 --l 1 --seed -1", None, 2,
     "error: seed must be >= 0, got -1"),
    ("constellation-negative-seed-l2", "constellation --bits 1 --l 2 --seed -1", None, 2,
     "error: seed must be >= 0, got -1"),
    ("constellation-no-bits", "constellation --bits 0", None, 2,
     "error: secret_rate must lie in (0, 16.0], got 0.0"),
    # mc settings, from a config file at its line or from flags
    ("config-unknown-key", "mc --config {path}", "mode=mean_fade\nsnr=5,10,20\nbogus=1\n", 2,
     "error: {path}:3: unknown key 'bogus'; "
     "allowed: mode, l, multiplex, snr, snr_unit, trials, seed, fade_variance, threads"),
    ("config-l-not-an-int", "mc --config {path}", "mode=mean_fade\nsnr=5,10,20\nl=2.5\n", 2,
     "error: {path}:3: l must be of type int, got '2.5'"),
    ("config-trials-not-an-int", "mc --config {path}", "mode=mean_fade\nsnr=5,10,20\ntrials=1e6\n",
     2, "error: {path}:3: trials must be of type int, got '1e6'"),
    ("config-fade_variance-not-a-float", "mc --config {path}",
     "mode=mean_fade\nsnr=5,10,20\nfade_variance=x\n", 2,
     "error: {path}:3: fade_variance must be of type float, got 'x'"),
    ("config-mode-not-a-choice", "mc --config {path}", "snr=5,10,20\nmode=fast\n", 2,
     "error: {path}:2: mode must be mean_fade or rate, got 'fast'"),
    ("config-snr_unit-not-a-choice", "mc --config {path}", "snr=5,10,20\nsnr_unit=dB\n", 2,
     "error: {path}:2: snr_unit must be linear or db, got 'dB'"),
    ("mc-missing-mode-and-snr", "mc --trials 2000", None, 2,
     "error: missing mc settings: mode, snr"),
    ("mc-l-above-2^20", "mc --mode mean_fade --l 1048577 --snr 2,3,4", None, 2,
     "error: l must lie in [1, 1048576], got 1048577"),
    ("mc-l-zero", "mc --mode mean_fade --l 0 --snr 2,3,4", None, 2,
     "error: l must lie in [1, 1048576], got 0"),
    ("mc-trials-below-1000", "mc --mode mean_fade --snr 2,3,4 --trials 999", None, 2,
     "error: trials must be >= 1000, got 999"),
    ("mc-multiplex-above-one", "mc --mode rate --multiplex 1.5 --snr 2,3,4", None, 2,
     "error: multiplex_ratio must lie in [0, 1], got 1.5"),
    ("mc-fade-variance-zero", "mc --mode mean_fade --snr 2,3,4 --fade-variance 0", None, 2,
     "error: fade_variance must be finite and positive, got 0.0"),
    ("mc-fade-variance-inf", "mc --mode mean_fade --snr 10,31.6,100 --fade-variance inf", None, 2,
     "error: fade_variance must be finite and positive, got inf"),
    ("mc-threads-zero", "mc --mode mean_fade --snr 10,31.6,100 --threads 0", None, 2,
     "error: threads must be >= 1, got 0"),
    ("mc-threads-negative", "mc --mode mean_fade --snr 10,31.6,100 --threads -3", None, 2,
     "error: threads must be >= 1, got -3"),
    ("mc-seed-negative", "mc --mode mean_fade --snr 10,31.6,100 --seed -1", None, 2,
     "error: seed must be >= 0, got -1"),
    ("mc-refused-point", "mc --mode mean_fade --l 4 --snr 1e3,1e4,1e5 --trials 2000", None, 4,
     "error: refusing mean-fade outage at snr=1000: analytic outage probability 1.063e-11 "
     "is below 1e-08 and cannot be resolved by sampling; use the closed-form power laws for "
     "this regime"),
    # a constant grid exits 3 before anything is drawn (one event in a
    # million per point: 1000 trials would see none), but only after a bad
    # thread count and a refused point have given their own exits
    ("constant-grid-before-sampling", "mc --mode mean_fade --l 1 --snr 1e6,1e6,1e6 --trials 1000",
     None, 3, "error: snr grid is constant; slope undefined"),
    ("constant-grid-after-threads", "mc --mode mean_fade --l 4 --snr 2,2,2 --threads 0", None, 2,
     "error: threads must be >= 1, got 0"),
    ("constant-grid-after-mean-fade-refusal", "mc --mode mean_fade --l 4 --snr 1e5,1e5,1e5", None,
     4, "error: refusing mean-fade outage at snr=100000: analytic outage probability 1.067e-19 "
     "is below 1e-08 and cannot be resolved by sampling; use the closed-form power laws for "
     "this regime"),
    ("constant-grid-after-rate-refusal", "mc --mode rate --multiplex 0 --snr 2,2,2", None, 4,
     "error: refusing rate outage at snr=2: outage upper bound 0.000e+00 is below 1e-08 and "
     "cannot be resolved by sampling; use the closed-form power laws for this regime"),
]


@pytest.mark.parametrize("argv, text, code, message", [row[1:] for row in ERROR_EXITS],
                         ids=[row[0] for row in ERROR_EXITS])
def test_error_exit_writes_one_stderr_line(capsys, tmp_path, argv, text, code, message):
    """A run exits with the row's code, writes nothing to stdout, issues no
    Python warning and ends stderr with the row's line.  Only argparse prints
    lines above it: a usage block of the row's subcommand."""
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text, encoding="latin-1")
    argv = [a.format(path=path) for a in argv.split()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = main(argv)
    captured = capsys.readouterr()
    assert (got, captured.out) == (code, "")
    *usage, last = captured.err.splitlines()
    assert last == message.format(path=path)
    assert not usage or usage[0].startswith(f"usage: mcqkd {argv[0]} ")


@pytest.mark.parametrize(
    "argv, text",
    [
        (("svd", "--matrix", "{path}"), MATRIX_TEXT),
        (("rates", "--channel", "{path}", "--mod-variance", "1.2"), CHANNEL_TEXT),
        (("mc", "--config", "{path}"), "mode=mean_fade\nsnr=2,3,4\ntrials=1000\n"),
    ],
    ids=["matrix", "channel", "config"],
)
def test_an_input_file_may_start_with_a_byte_order_mark(capsys, tmp_path, argv, text):
    """A UTF-8 byte-order mark is skipped: the file gives the bytes it gives
    without one."""
    path = tmp_path / "input.txt"
    argv = [a.format(path=path) for a in argv]
    outputs = []
    for encoding in ("utf-8", "utf-8-sig"):
        path.write_text(text, encoding=encoding)
        code = main(argv)
        captured = capsys.readouterr()
        outputs.append((code, captured.out, captured.err))
    assert outputs[1] == outputs[0] and outputs[0][0] == 0


class TestTableWideParametersFirst:
    """A bad table-wide parameter exits with its own code and message whatever
    the grid holds: it is checked before any grid point, so a bad point before
    or after the first one does not change the outcome."""

    @pytest.mark.parametrize("bad_point_first", [False, True], ids=["point_last", "point_first"])
    @pytest.mark.parametrize(
        "argv, grid_flag, grid, message",
        [
            (("perr", "--multiplex", "2"), "--snr", ("1", "0.5"),
             "multiplex_ratio must lie in [0, 1], got 2.0"),
            (("tradeoff", "--kind", "single", "--z", "0.5"), "--grid", ("0.5", "0"),
             "z_exponent must be finite and >= 1, got 0.5"),
            (("tradeoff", "--kind", "multicarrier", "--z", "0.5"), "--grid", ("0.5", "-1"),
             "z_exponent must be finite and >= 1, got 0.5"),
            (("tradeoff", "--kind", "multicarrier", "--l", "0"), "--grid", ("0.5", "-1"),
             "l must be >= 1, got 0"),
            (("tradeoff", "--kind", "multicarrier", "--l", str(10**400)), "--grid", ("0.5", "-1"),
             "l * z_exponent must fit a double"),
            (("tradeoff", "--kind", "multicarrier", "--l", "10", "--z", "1e308"), "--grid",
             ("0.5", "-1"), "l * z_exponent must fit a double"),
            (("tradeoff", "--kind", "g_scaled", "--g", "nan"), "--grid", ("0.5", "-1"),
             "g_scale must be finite, got nan"),
            (("tradeoff", "--kind", "multiaccess_in_le_out", "--k-in", "0", "--k-out", "3"),
             "--grid", ("0.5", "-1"), "matrix dimensions must be >= 1, got 0 x 3"),
            (("tradeoff", "--kind", "multiaccess_in_le_out", "--k-in", "2", "--k-out", "0"),
             "--grid", ("0.5", "-1"), "multiaccess_in_le_out needs k_in <= k_out"),
            (("tradeoff", "--kind", "multiaccess_in_le_out", "--k-in", BIG_K, "--k-out", BIG_K),
             "--grid", ("0.5", "-1"), "K_in * K_out must fit a double"),
            (("tradeoff", "--kind", "multiaccess_in_le_out", "--k-in", "3", "--k-out", str(10**308)),
             "--grid", ("0.5", "-1"), "K_in * K_out must fit a double"),
            (("tradeoff", "--kind", "orthogonal_complement", "--k-in", BIG_K, "--k-out", BIG_K),
             "--grid", ("0.5", "-1"), "K_in * K_out must fit a double"),
        ],
        ids=["perr-multiplex", "single-z", "multicarrier-z", "multicarrier-l",
             "multicarrier-huge-l", "multicarrier-l-times-z", "g_scaled-g",
             "k_in", "k_out", "k_in-and-k_out", "k_out-alone", "complement-k"],
    )
    def test_exit_2_in_either_grid_order(self, capsys, argv, grid_flag, grid, message, bad_point_first):
        # a grid that starts with a negative value must be given as --grid=...
        points = grid[::-1] if bad_point_first else grid
        code = main([*argv, f"{grid_flag}={','.join(points)}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"


@functools.cache
def _fresh_run(run):
    """Exit code of ``cli.main(argv)`` for ``FRESH_RUNS[run]`` in a fresh
    interpreter, after ``build_parser`` alone for an empty argv, and the set
    of top-level packages then in ``sys.modules`` (a package counts when any
    of its submodules is loaded).  Cached, so each run launches once however
    many of its cases ask."""
    code = (
        "import sys\n"
        "from mcqkd import cli\n"
        "cli.build_parser()\n"
        "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(code, *{m.partition('.')[0] for m in sys.modules})\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    with tempfile.TemporaryDirectory() as tmp:
        args = with_input_files(Path(tmp), FRESH_RUNS[run][0])
        if args:
            args += ["-o", str(Path(tmp) / "out.csv")]
        done = subprocess.run(
            [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True,
            env=env,
        )
    code, *loaded = done.stdout.split()
    return int(code), set(loaded)


SUBCOMMAND_ARGV = {
    "build_parser": (),
    "tradeoff": ("tradeoff", "--kind", "single", "--grid", "0.5,1"),
    "perr": ("perr", "--snr", "10,100", "--multiplex", "0.5", "--l", "1,2"),
    "rates": ("rates", "--channel", "{channel}", "--mod-variance", "1.2"),
    "svd": ("svd", "--matrix", "{matrix}"),
    "constellation": ("constellation", "--bits", "2", "--l", "3"),
    "mc": ("mc", "--mode", "mean_fade", "--snr", "2,3,4", "--trials", "1000"),
}


# no run loads scipy; the refusals are where the Monte Carlo runs once called
# scipy.special.  The closed-form tables start without numpy, and their
# records are named tuples, so neither ``dataclasses`` nor the ``inspect`` it
# imports loads; the subcommands that need numpy import it in their handlers
CLOSED_FORM = {"scipy": False, "numpy": False, "dataclasses": False, "inspect": False}
NUMPY = {"scipy": False, "numpy": True}
NO_SCIPY = {"scipy": False}

# argv, exit code and whether each named package loads
FRESH_RUNS = {
    **{name: (argv, 0, NUMPY if name in ("svd", "constellation", "mc") else CLOSED_FORM)
       for name, argv in SUBCOMMAND_ARGV.items()},
    "mc_rate": (("mc", "--mode", "rate", "--l", "2", "--multiplex", "0.5",
                 "--snr", "10,30,100", "--trials", "1000"), 0, NO_SCIPY),
    "mc_mean_fade_refused": (("mc", "--mode", "mean_fade", "--l", "4",
                              "--snr", "10,1e6,20", "--trials", "1000"), 4, NO_SCIPY),
    "mc_rate_refused": (("mc", "--mode", "rate", "--l", "4", "--multiplex", "0.25",
                         "--snr", "10,1e6,20", "--trials", "1000"), 4, NO_SCIPY),
}


@pytest.mark.parametrize(
    "run, package", [(run, package) for run, row in FRESH_RUNS.items() for package in row[2]],
    ids=lambda value: value,
)
def test_import_footprint(run, package):
    """Each run, in one fresh interpreter, exits with its recorded code and
    loads the named package exactly when its row says so."""
    _, exit_code, loads = FRESH_RUNS[run]
    code, loaded = _fresh_run(run)
    assert (code, package in loaded) == (exit_code, loads[package])


def test_cli_imports_no_numpy():
    """Every handler leaves the numerics to its library module: no import in
    ``cli``, at module or at function level, names numpy."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module]
    assert [m for m in modules if m.split(".")[0] == "numpy"] == []


# an argparse error, an unknown subcommand and --version besides every subcommand
REPEATED_ARGV = {
    **{name: argv for name, argv in SUBCOMMAND_ARGV.items() if argv},
    "missing_argument": ("perr", "--multiplex", "0"),
    "unknown_subcommand": ("frobnicate",),
    "version": ("--version",),
}


@pytest.mark.parametrize("run", REPEATED_ARGV)
def test_a_repeated_call_in_one_process_repeats_its_output(capsys, tmp_path, run):
    """The parser is built once per process; the second call reuses it and
    prints the same stdout and stderr with the same exit code."""
    argv = with_input_files(tmp_path, REPEATED_ARGV[run])
    first = main(argv), capsys.readouterr()
    second = main(argv), capsys.readouterr()
    assert first == second
    assert cli.build_parser() is cli.build_parser()


def test_a_handler_rebound_after_a_run_is_the_one_called(capsys, monkeypatch):
    """``main`` looks the handler up when it runs, so the parser cached by an
    earlier call does not keep the old one."""
    argv = ["tradeoff", "--kind", "single", "--grid", "0.5"]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "_run_tradeoff", lambda args: ({"grid": args.grid}, "stand_in\n"))
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        f"# tool=mcqkd {__version__}\n# subcommand=tradeoff\n# grid=0.5\nstand_in\n"
    )


BENCH_12_RUNS = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCH_12.json").read_text()
)["byte_identity"]["runs"]


# sha256 of the ``-o`` file of each ``BENCH_12.json`` configuration at
# ``--precision 17``, where a last-bit change of any cell shows; recorded at
# 0.5.0, before the slope fit moved into ``montecarlo._assemble`` and the mc
# table into ``errors._table``
RECORDED_MC_17 = {
    "mean_fade-l1-10,31.6,100":
        "49c4a75a8513b5fcf53e66794488ea45965865b83a78d58466960d192e4b3fb5",
    "mean_fade-l3-2,4,8":
        "7707debd1a189a13226dd09c64833de32b620567bb6434d7cd7a5549275035f7",
    "mean_fade-l4-2,2.5,3,4,5,6,8,10":
        "59540fc1d425348ca78044f80d53e84f953abf1909510b68740c4201f748cb00",
    "mean_fade-l7-1.5,2,3":
        "56b0332d2c3e6faba4d5561db7ceb77fee79e54f67a67f5efe56783f292ff7a7",
    "mean_fade-l16-1.2,1.4,1.6":
        "aaad2cb8f8db5bd1a4ce55f27e8cc30d047509a7165dd0b646945a34dbd0648a",
    "mean_fade-l64-1.1,1.2,1.3":
        "fe74c86017dcd0669fedf8880be16b82bffb558a760e9bc56a34671978b766a3",
    "mean_fade-l200-1.05,1.1,1.2":
        "3305448b1f2ddd435bac63b4525123f072f9c7b0fc801e41ff98c5e993a95839",
    "mean_fade-l700-1.05,1.1,1.15":
        "af17f0544c315162fcee4c6a3fc7490aacd2d4d7c369d607fa41daf2fd1168e9",
    "mean_fade-l1000-1.02,1.05,1.1":
        "66d31786d2842754a8c9c42fb71ecc96a2c0dad7323c9dd17e416cdb322258d0",
    "mean_fade-l4096-1.01,1.02,1.03":
        "577a5a6670f9d4e7dd6e7cf08201a8ac1c2b0fa630a4992702ea42f94d737cd4",
    "rate-l1-10,31.6,100":
        "14a7620e0526867f2c4f71fd8fb98f0889687bd5d12ca550ba5461b800dc05ee",
    "rate-l2-10,100,1000":
        "e265902491c921d3760ec747278a2600b171131202435322733864098c9585dd",
    "rate-l3-10,30,100":
        "1dcc1ad235856470a6c0a5ab64151def81f3ea5c3483d2e7a0cd1eb42da83d86",
    "rate-l5-5,20,80":
        "1317e3e7142e93eb184de452b19c971992a79a91b84359f2796ee800219cd308",
    "rate-l16-10,30,100":
        "4e7165fc1fc3cf17fe00819b3caea27dd7cfd98ae21abb92c6a793ee4bbff712",
    "rate-l16-1000,2000,4000":
        "59a5419acfe4039a4e4b6290670a040ee2a12932a0b57dda04539a77c21b4ec2",
    "rate-l16-1e19,1.37e19,1e20":
        "13ff586bc27f014b268bc36beede3bb910232b7e8efbf5dccfe6572155474660",
    "rate-l16-1.5e19,1.7e19,1.84e19":
        "d5ff0f06dc29fbf96c03d9cefee3e035246d24cc989b318e51c5c581388a3abc",
    "rate-l64-10,30,100":
        "f9567b4758d31043de3dade3c0ffa705a65e60077abda7cc6e5e22c750d691c5",
    "rate-l200-10,30,100":
        "4c620eb0062d5df361d7805e0b61e7bec5a290bdc2974c9a0dcc5b26d9fd147c",
    "rate-l200-1e150,1e151,1e152":
        "8027e8ac781d80db3d678d6ef3e06a02c2e5ee8a7ec2ee5b52a53ff6b38593c3",
    "rate-l1536-1e3,1e4,1e5":
        "a4d2daf914c0870fb6e05f0f4911cc5bd406904b3d9ba5516de638bb7e5faac1",
    "rate-l4096-1e3,1e4,1e5":
        "1d31b49d3a3f78c1163265ac5b6a980c9a7ecca70b83f3cdbe8810dd97e66400",
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("precision", [9, 17])
@pytest.mark.parametrize(
    "recorded", BENCH_12_RUNS, ids=[f"{r['mode']}-l{r['l']}-{r['snr']}" for r in BENCH_12_RUNS]
)
def test_recorded_mc_bytes(tmp_path, capsys, monkeypatch, recorded, precision, threads):
    """The 23 ``mc`` configurations of ``BENCH_12.json``, run in one process
    to ``-o``, write the recorded bytes: ``BENCH_12.json``'s at the default
    9 digits and ``RECORDED_MC_17``'s at 17.  A regression pin on output
    bytes, not a correctness oracle, with the host exposure of
    ``test_montecarlo.TestDeterminismPin``."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    out = tmp_path / "mc.csv"
    code = main([
        "mc", "--mode", recorded["mode"], "--l", str(recorded["l"]),
        "--multiplex", repr(recorded["multiplex"]), "--snr", recorded["snr"],
        "--fade-variance", repr(recorded["fade_variance"]), "--trials", str(recorded["trials"]),
        "--seed", str(recorded["seed"]), "--threads", str(threads),
        "--precision", str(precision), "-o", str(out),
    ])
    key = f"{recorded['mode']}-l{recorded['l']}-{recorded['snr']}"
    expected = recorded["sha256"] if precision == 9 else RECORDED_MC_17[key]
    assert (code, capsys.readouterr().err) == (0, "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


BENCH_13_BYTES = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCH_13.json").read_text()
)["byte_identity"]
# (argv, exit code, the recorded stream, its sha256) of every recorded table run
# that reads no file: tradeoff, perr and constellation.  The missing-channel-file
# exit is left out, as its message names a path of the recording host.
RECORDED_TABLES = [
    (argv, 0, "stdout", rec["stdout_sha256"])
    for argv, rec in BENCH_13_BYTES["successful"].items() if "data/" not in argv
] + [
    (argv, rec["exit"], "stderr", rec["stderr_sha256"])
    for argv, rec in BENCH_13_BYTES["error_exits"].items() if "data/" not in argv
]


@pytest.mark.parametrize("argv, code, stream, sha256", RECORDED_TABLES,
                         ids=[r[0] for r in RECORDED_TABLES])
def test_recorded_table_bytes(capsys, argv, code, stream, sha256):
    """The 101 table configurations and 4 error exits of ``BENCH_13.json``
    that read no file keep their exit code and recorded stream, and write
    nothing to the other stream.  A regression pin on output bytes, not a
    correctness oracle."""
    got = main(argv.split())
    captured = capsys.readouterr()
    recorded, other = (
        (captured.out, captured.err) if stream == "stdout" else (captured.err, captured.out)
    )
    assert (got, hashlib.sha256(recorded.encode()).hexdigest(), other) == (code, sha256, "")


# stdout sha256 of ``svd --matrix m.csv`` on MATRIX_TEXT (3x2) and on
# ``random_matrix_text`` matrices, recorded at 0.5.0 with the full K_out x K_out
# U2; the thin factorisation prints the same bytes for these shapes
RECORDED_SVD = {
    "3x2": "57d63b525621aee6c1689d98459bba0456732cf640069462c88ac00209b0515c",
    "4x3": "d0d7667250d1df0d43e644276f4eed3b7035932681462484116c119fc9c973cd",
    "25x5": "6a36b4d3779157843942cc83299bb160645bb23aaf66ef866c8f2d717fe64d37",
    "64x64": "55033f4807f99130ab2fe140c4dc747e7c8b230ad32704504e57cea38ba8144e",
}


def run_svd_in(tmp_path, monkeypatch, capsys, text):
    """Exit code, stdout and stderr of ``svd`` on ``text`` written to
    ``m.csv``, run from its folder so that the ``matrix`` header is the same
    wherever the test runs."""
    monkeypatch.chdir(tmp_path)
    Path("m.csv").write_text(text)
    code = main(["svd", "--matrix", "m.csv"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("shape, sha256", RECORDED_SVD.items(), ids=list(RECORDED_SVD))
def test_recorded_svd_bytes(tmp_path, monkeypatch, capsys, shape, sha256):
    """Square and short matrices keep the exit code and recorded stdout of
    ``svd``.  A regression pin on output bytes, not a correctness oracle."""
    text = MATRIX_TEXT if shape == "3x2" else random_matrix_text(*map(int, shape.split("x")))
    code, out, err = run_svd_in(tmp_path, monkeypatch, capsys, text)
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, sha256, "")


@pytest.mark.skipif(singular_layer._blas_thread_calls() is None,
                    reason="numpy's BLAS exports no known thread-count call")
def test_svd_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """``svd`` of a 200 x 150 matrix, whose singular values move in their
    last digits between one and two BLAS threads, prints the same bytes in
    fresh interpreters under either ``OPENBLAS_NUM_THREADS`` setting."""
    (tmp_path / "m.csv").write_text(random_matrix_text(200, 150))
    src = str(Path(cli.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run(
            [sys.executable, "-m", "mcqkd.cli", "svd", "--matrix", "m.csv", "--precision", "17"],
            capture_output=True, text=True, check=True, env=env, cwd=tmp_path,
        )
        outs.append(done.stdout)
    assert outs[0] == outs[1]


@pytest.mark.skipif(singular_layer._blas_thread_calls() is None,
                    reason="numpy's BLAS exports no known thread-count call")
@pytest.mark.parametrize("text, code", [(MATRIX_TEXT, 0), ("1e200:0\n", 2)], ids=["ok", "fails"])
def test_svd_restores_the_blas_thread_count(tmp_path, monkeypatch, capsys, text, code):
    """The decomposition runs on one BLAS thread, and the process's count is
    restored afterwards, also when the run fails."""
    get_threads, set_threads = singular_layer._blas_thread_calls()
    seen, decompose = [], singular_layer.svd_decompose

    def spy(matrix):
        seen.append(get_threads())
        return decompose(matrix)

    monkeypatch.setattr(singular_layer, "svd_decompose", spy)
    before = get_threads()
    set_threads(2)
    try:
        # read back, as a BLAS may cap the count it accepts
        threads = get_threads()
        assert run_svd_in(tmp_path, monkeypatch, capsys, text)[0] == code
        assert get_threads() == threads
    finally:
        set_threads(before)
    assert seen == ([1] if code == 0 else [])


@pytest.fixture
def fresh_blas_lookup():
    """Clear the cached BLAS thread-call lookup before and after a test that
    changes what it finds, so that later tests see the real value."""
    singular_layer._blas_thread_calls.cache_clear()
    yield
    singular_layer._blas_thread_calls.cache_clear()


def test_svd_runs_where_the_blas_has_no_known_thread_call(
    tmp_path, monkeypatch, capsys, fresh_blas_lookup
):
    monkeypatch.setattr(singular_layer, "_BLAS_THREAD_CALLS",
                        (("mcqkd_no_get_num_threads", "mcqkd_no_set_num_threads"),))
    assert singular_layer._blas_thread_calls() is None
    code, out, err = run_svd_in(tmp_path, monkeypatch, capsys, MATRIX_TEXT)
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, RECORDED_SVD["3x2"], "")


def test_no_blas_thread_call_where_numpy_linalg_cannot_be_opened(monkeypatch, fresh_blas_lookup):
    def refuse(path):
        raise OSError(f"{path}: cannot open shared object file")

    monkeypatch.setattr(singular_layer.ctypes, "CDLL", refuse)
    assert singular_layer._blas_thread_calls() is None


def test_recorded_svd_bytes_of_a_tall_matrix(tmp_path, monkeypatch, capsys):
    """A 200 x 3 matrix keeps its recorded eigenchannel lines; its
    recon_error may move in the last digits, within 1e-14."""
    code, out, err = run_svd_in(tmp_path, monkeypatch, capsys, random_matrix_text(200, 3))
    *lines, last = data_rows(out.splitlines())
    assert (code, err, lines) == (0, "", ["0,20.1131271", "1,19.3966437", "2,18.4649289"])
    label, value = last.split(",")
    assert label == "recon_error" and float(value) <= 1e-14
