"""Command line interface: parsing, CSV layout, headers and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from numpy.testing import assert_allclose

from mcqkd import __version__, cli, montecarlo
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


def data_rows(lines):
    return [l for l in lines if not l.startswith("#")][1:]


def header_map(lines):
    pairs = [l[2:].split("=", 1) for l in lines if l.startswith("# ") and "=" in l]
    return dict(pairs)


class TestGridParsing:
    def test_comma_list(self):
        assert _parse_grid("1,10,100") == [1.0, 10.0, 100.0]

    def test_range_is_end_inclusive(self):
        assert _parse_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_range_with_uneven_step_stops_short(self):
        assert _parse_grid("1:2:0.4") == pytest.approx([1.0, 1.4, 1.8])

    @pytest.mark.parametrize(
        "text",
        [
            "", " ", "1:2", "1:2:3:4", "2:1:0.5", "1:5:0",
            "inf,10", "10,nan", "0.5:inf:0.1", "-inf:1:0.1", "0:1:nan", "0:2:1e-6",
        ],
    )
    def test_malformed_grids_rejected(self, text):
        with pytest.raises(ValueError):
            _parse_grid(text)

    def test_range_point_count_bounded(self, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 10)
        assert len(_parse_grid("1:10:1")) == 10
        with pytest.raises(ValueError, match="more than 10 points"):
            _parse_grid("1:11:1")

    @pytest.mark.parametrize(
        "argv",
        [
            ("tradeoff", "--kind", "single", "--grid", "0.5:inf:0.1"),
            ("perr", "--snr", "inf,10", "--multiplex", "0.6"),
            ("tradeoff", "--kind", "multicarrier", "--l", "5", "--z", "inf", "--grid", "0:1:0.5"),
            ("tradeoff", "--kind", "g_scaled", "--g", "nan", "--grid", "0:1:0.5"),
            ("tradeoff", "--kind", "g_scaled", "--g", "inf", "--grid", "0:1:0.5"),
        ],
    )
    def test_non_finite_grid_exits_2(self, capsys, argv):
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err

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

    def test_multiaccess_needs_dimensions(self, capsys):
        code, _ = run(capsys, "tradeoff", "--kind", "multiaccess_in_le_out", "--grid", "0,1")
        assert code == 2

    def test_g_scale_domain_error(self, capsys):
        code, _ = run(
            capsys, "tradeoff", "--kind", "g_scaled", "--grid", "0.5", "--g", "1.0"
        )
        assert code == 3

    def test_multiaccess_knots_beyond_the_double_range_exit_2(self, capsys):
        k = str(10**200)
        code = main([
            "tradeoff", "--kind", "multiaccess_in_le_out", "--grid", "0.5",
            "--k-in", k, "--k-out", k,
        ])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "fit a double" in captured.err


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

    def test_snr_below_one_is_domain_error(self, capsys):
        code, _ = run(capsys, "perr", "--snr", "0.5", "--multiplex", "0")
        assert code == 3

    @pytest.mark.parametrize(
        "snr_args",
        [("--snr", "0"), ("--snr-unit", "db", "--snr", "-4000")],
        ids=["zero", "db_underflow"],
    )
    def test_zero_snr_is_domain_error_naming_the_value(self, capsys, snr_args):
        # checked before the snr_db column takes log10 of it
        code = main(["perr", *snr_args, "--multiplex", "0.5"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "power-law outage needs snr >= 1, got 0.0" in captured.err

    def test_precision_flag(self, capsys):
        _, lines = run(
            capsys, "perr", "--snr", "3", "--multiplex", "0", "--precision", "2"
        )
        cells = data_rows(lines)[0].split(",")
        assert cells[1] == "0.33"

    @pytest.mark.parametrize("l_grid", ["2.7", "1,2.5", "0", "1:3:0.5"])
    def test_l_must_be_integers_of_at_least_one(self, capsys, l_grid):
        code = main(["perr", "--snr", "10", "--multiplex", "0.5", "--l", l_grid])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "l must be an integer" in captured.err

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

    def test_missing_file(self, capsys, tmp_path):
        code, _ = run(capsys, "svd", "--matrix", str(tmp_path / "nope.csv"))
        assert code == 2

    @pytest.mark.parametrize(
        "text", ["1e200:0,1e200:0\n1e200:0,-1e200:0\n", "1e200:0\n"], ids=["2x2", "1x1"]
    )
    def test_norm_beyond_the_double_range_exits_2(self, capsys, tmp_path, text):
        """numpy's norm sums the squares unscaled: 1e200 squared overflows,
        and the norm must not reach recon_error as inf or nan."""
        p = tmp_path / "m.csv"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["svd", "--matrix", str(p)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: matrix Frobenius norm must fit a double\n"


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

    def test_degenerate_attack_noise_maps_to_exit_3(self, capsys, tmp_path):
        p = tmp_path / "chan.txt"
        p.write_text("re_t=0.5 noise_var=0.2\n")
        code, _ = run(capsys, "rates", "--channel", str(p), "--mod-variance", "2")
        assert code == 3

    @pytest.mark.parametrize(
        "text, flags, code, message",
        [
            (  # mod_variance * fade_sq overflows: the bracket is inf / inf
                CHANNEL_TEXT, ("--mod-variance", "1e308", "--fades", "10,10"), 3,
                "optimal-attack noise undefined: the inverted SNR bracket is nan (must be > 0)",
            ),
            (  # 1e-20 over the bracket of a huge input noise underflows to 0
                "re_t=1e-8 noise_var=1.0 eve_w=1e290\n",
                ("--mod-variance", "1e-20", "--fades", "1e-300"), 2,
                "optimal-attack noise underflows to 0.0: mod_variance 1e-20 is too small "
                "for the attack bracket",
            ),
            (  # 1e300 over a bracket of 2.2e-16 overflows to inf
                "vacuum_variance=0.9999999999999999\nre_t=0.5 noise_var=1 eve_w=1\n",
                ("--mod-variance", "1e300"), 2,
                "optimal-attack noise overflows to inf: mod_variance 1e+300 is too large "
                "for the attack bracket",
            ),
            (  # the boosted variance 1e308 * (1 + 1) overflows, so the svd cells are inf
                "vacuum_variance=0.5\nre_t=0.5 noise_var=1 eve_w=1\n",
                ("--mod-variance", "1e308"), 2,
                "svd_capacity must be finite and >= 0, got inf",
            ),
        ],
        ids=["nan_bracket", "attack_noise_underflow", "attack_noise_overflow", "total_overflow"],
    )
    def test_attack_noise_outside_the_double_range(
        self, capsys, tmp_path, text, flags, code, message
    ):
        p = tmp_path / "chan.txt"
        p.write_text(text)
        got = main(["rates", "--channel", str(p), *flags])
        captured = capsys.readouterr()
        assert got == code and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flags, name",
        [
            (("--mod-variance", "inf", "--gain-c", "0.5"), "mod_variance"),
            (("--mod-variance", "nan", "--gain-c", "0.5"), "mod_variance"),
            (("--mod-variance", "1.2", "--gain-c", "inf"), "gain_c"),
            (("--mod-variance", "1.2", "--gain-c", "nan"), "gain_c"),
        ],
    )
    def test_non_finite_inputs_exit_2_naming_the_input(self, capsys, tmp_path, flags, name):
        p = tmp_path / "chan.txt"
        p.write_text(CHANNEL_TEXT)
        code = main(["rates", "--channel", str(p), *flags])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"{name} must be finite" in captured.err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "text, name",
        [
            ("re_t={v} noise_var=0.2 eve_w=1.4\n", "transmittance real part"),
            ("re_t=0.5 noise_var={v} eve_w=1.4\n", "noise_variance"),
            ("re_t=0.5 noise_var=0.2 eve_w={v}\n", "eve_epr_variance"),
            ("re_t=0.5 noise_var=0.2\nre_t=0.6 noise_var={v}\n", "noise_variance"),
            ("vacuum_variance={v}\nre_t=0.5 noise_var=0.2 eve_w=1.4\n", "vacuum_variance"),
        ],
        ids=["re_t", "noise_var", "eve_w", "second_record", "vacuum_variance"],
    )
    def test_non_finite_channel_file_values_exit_2_naming_the_input(
        self, capsys, tmp_path, text, name, value
    ):
        p = tmp_path / "chan.txt"
        p.write_text(text.format(v=value))
        code = main(["rates", "--channel", str(p), "--mod-variance", "1.2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"{name} must be finite" in captured.err
        lineno = 1 if name == "vacuum_variance" else text.count("\n")
        assert f"{p}:{lineno}:" in captured.err

    @pytest.mark.parametrize(
        "directive, message",
        [
            ("active_count=2.5", "active_count must be an integer, got '2.5'"),
            ("active_count=0", "active_count must be >= 1, got 0"),
            ("active_count=3", "active_count must lie in [1, 1], got 3"),
            ("vacuum_variance=inf", "vacuum_variance must be finite and positive, got inf"),
            ("vacuum_variance=0", "vacuum_variance must be finite and positive, got 0.0"),
            ("vacuum_variance=one", "vacuum_variance must be a number, got 'one'"),
        ],
    )
    def test_bad_channel_directive_exits_2_at_its_line(self, capsys, tmp_path, directive, message):
        p = tmp_path / "chan.txt"
        p.write_text(f"# one record\n{directive}\nre_t=0.5 noise_var=0.2 eve_w=1.4\n")
        code = main(["rates", "--channel", str(p), "--mod-variance", "1.2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {p}:2: {message}\n"


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

    @pytest.mark.parametrize("l", ["1", "2"])
    def test_negative_seed_rejected_for_every_l(self, capsys, l):
        code = main(["constellation", "--bits", "1", "--l", l, "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"

    def test_bad_bits_rejected(self, capsys):
        code, _ = run(capsys, "constellation", "--bits", "0")
        assert code == 2

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
    @pytest.mark.parametrize("bits", ["1", "2.5", "12"])
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

    def test_unknown_config_key_rejected_with_location(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode=mean_fade\nsnr=5,10,20\nbogus=1\n")
        code = main(["mc", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert ":3:" in err and "bogus" in err

    @pytest.mark.parametrize(
        "line, key",
        [("l=2.5", "l"), ("trials=1e6", "trials"), ("fade_variance=x", "fade_variance")],
    )
    def test_config_value_of_wrong_type_rejected_with_location(
        self, capsys, tmp_path, line, key
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mode=mean_fade\nsnr=5,10,20\n{line}\n")
        code = main(["mc", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"{cfg}:3: {key} must be of type" in captured.err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("mode=fast", "mode must be mean_fade or rate, got 'fast'"),
            ("snr_unit=dB", "snr_unit must be linear or db, got 'dB'"),
        ],
    )
    def test_config_value_outside_its_choices_rejected_with_location(
        self, capsys, tmp_path, line, message
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"snr=5,10,20\n{line}\n")
        code = main(["mc", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {cfg}:2: {message}\n"

    def test_help_keeps_the_threads_text(self, capsys):
        assert main(["mc", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "--threads THREADS worker threads (never changes results)" in out

    def test_missing_mode_and_snr(self, capsys):
        code = main(["mc", "--trials", "2000"])
        err = capsys.readouterr().err
        assert code == 2
        assert "mode" in err and "snr" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--snr", "nan,10,100"),
            ("--snr", "10,inf,100"),
            ("--snr", "10,31.6,100", "--fade-variance", "inf"),
            ("--snr", "10,31.6,100", "--threads", "0"),
            ("--snr", "10,31.6,100", "--threads", "-3"),
            ("--snr", "10,31.6,100", "--seed", "-1"),
        ],
    )
    def test_non_finite_or_bad_threads_exit_2(self, capsys, flags):
        code = main(["mc", "--mode", "mean_fade", "--trials", "2000", *flags])
        assert code == 2
        assert capsys.readouterr().out == ""

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
            ("--l 64 --snr 1.2,1.2,1.2,2 --trials 100000 --seed 9", 3,
             [EXCLUDED_ONE, "error: snr grid is constant; slope undefined"]),
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
        constant grid without zero estimates leaves nothing out: neither
        prints a ``warning:`` line."""
        assert main(["mc", "--mode", "mean_fade", *flags.split()]) == code
        captured = capsys.readouterr()
        assert captured.err.splitlines() == err
        assert (captured.out == "") == (code != 0)

    def test_refusal_exit_code(self, capsys):
        code = main([
            "mc", "--mode", "mean_fade", "--l", "4", "--snr", "1e3,1e4,1e5",
            "--trials", "2000",
        ])
        assert code == 4
        assert "cannot be resolved" in capsys.readouterr().err


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
        "argv",
        [
            ("perr", "--snr-unit", "db", "--snr", "4000", "--multiplex", "0.5"),
            ("mc", "--mode", "mean_fade", "--snr-unit", "db", "--snr", "4000,4001,4002"),
        ],
    )
    def test_db_value_beyond_the_double_range_exits_2(self, capsys, argv):
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: snr 4000 dB exceeds the largest double\n"

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

    @pytest.mark.parametrize("grid", ["0.5", "0.5,0.25"])
    def test_g_scale_out_of_range_exits_3_before_any_point(self, capsys, grid):
        code = main(["tradeoff", "--kind", "g_scaled", "--g", "1.5", f"--grid=-1,{grid}"])
        captured = capsys.readouterr()
        assert code == 3 and captured.err == "error: g_scale must lie in [0, 1), got 1.5\n"

    def test_a_bad_point_alone_keeps_its_domain_exit(self, capsys):
        code = main(["tradeoff", "--kind", "single", "--grid=0.5,0"])
        captured = capsys.readouterr()
        assert code == 3 and captured.err == "error: multiplex_ratio must lie in (0, 1], got 0.0\n"
        code = main(["perr", "--snr", "1,0.5", "--multiplex", "0.5"])
        captured = capsys.readouterr()
        assert code == 3 and captured.err == "error: power-law outage needs snr >= 1, got 0.5\n"


def _fresh_run(tmp_path, argv, module):
    """Exit code of ``cli.main(argv)`` in a fresh interpreter, after
    ``build_parser`` alone for an empty argv, and whether ``module`` or any
    of its submodules is then in ``sys.modules``."""
    args = with_input_files(tmp_path, argv)
    if args:
        args += ["-o", str(tmp_path / "out.csv")]
    code = (
        "import sys\n"
        "from mcqkd import cli\n"
        "cli.build_parser()\n"
        "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        f"print(code, any(m.partition('.')[0] == {module!r} for m in sys.modules))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True, env=env
    )
    return done.stdout.split()


SUBCOMMAND_ARGV = {
    "build_parser": (),
    "tradeoff": ("tradeoff", "--kind", "single", "--grid", "0.5,1"),
    "perr": ("perr", "--snr", "10,100", "--multiplex", "0.5", "--l", "1,2"),
    "rates": ("rates", "--channel", "{channel}", "--mod-variance", "1.2"),
    "svd": ("svd", "--matrix", "{matrix}"),
    "constellation": ("constellation", "--bits", "2", "--l", "3"),
    "mc": ("mc", "--mode", "mean_fade", "--snr", "2,3,4", "--trials", "1000"),
}


# the refusals are where the Monte Carlo runs once called scipy.special
SCIPY_FREE_ARGV = {
    **SUBCOMMAND_ARGV,
    "mc_rate": ("mc", "--mode", "rate", "--l", "2", "--multiplex", "0.5",
                "--snr", "10,30,100", "--trials", "1000"),
    "mc_mean_fade_refused": ("mc", "--mode", "mean_fade", "--l", "4",
                             "--snr", "10,1e6,20", "--trials", "1000"),
    "mc_rate_refused": ("mc", "--mode", "rate", "--l", "4", "--multiplex", "0.25",
                        "--snr", "10,1e6,20", "--trials", "1000"),
}


@pytest.mark.parametrize("run", SCIPY_FREE_ARGV)
def test_no_subcommand_loads_scipy(tmp_path, run):
    """The package runs on numpy alone: no subcommand, and no Monte Carlo
    run or refusal in either mode, loads scipy or any of its submodules."""
    code = "4" if run.endswith("_refused") else "0"
    assert _fresh_run(tmp_path, SCIPY_FREE_ARGV[run], "scipy") == [code, "False"]


@pytest.mark.parametrize("run", SUBCOMMAND_ARGV)
def test_only_svd_constellation_and_mc_load_numpy(tmp_path, run):
    """The closed-form tables start without numpy; the subcommands that need
    it import it in their handlers."""
    loads = run in ("svd", "constellation", "mc")
    assert _fresh_run(tmp_path, SUBCOMMAND_ARGV[run], "numpy") == ["0", str(loads)]


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


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "recorded", BENCH_12_RUNS, ids=[f"{r['mode']}-l{r['l']}-{r['snr']}" for r in BENCH_12_RUNS]
)
def test_recorded_mc_bytes(tmp_path, capsys, monkeypatch, recorded, threads):
    """The 23 ``mc`` configurations of ``BENCH_12.json``, run in one process
    to ``-o``, write the recorded bytes.  A regression pin on output bytes,
    not a correctness oracle, with the host exposure of
    ``test_montecarlo.TestDeterminismPin``."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    out = tmp_path / "mc.csv"
    code = main([
        "mc", "--mode", recorded["mode"], "--l", str(recorded["l"]),
        "--multiplex", repr(recorded["multiplex"]), "--snr", recorded["snr"],
        "--fade-variance", repr(recorded["fade_variance"]), "--trials", str(recorded["trials"]),
        "--seed", str(recorded["seed"]), "--threads", str(threads), "-o", str(out),
    ])
    assert (code, capsys.readouterr().err) == (0, "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == recorded["sha256"]
