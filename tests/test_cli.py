"""Command line interface: parsing, CSV layout, headers and exit codes."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy.testing import assert_allclose

from mcqkd import __version__, cli
from mcqkd.constellation import build_constellation
from mcqkd.cli import _parse_grid, _to_linear, main

CHANNEL_TEXT = (
    "vacuum_variance=1\n"
    "active_count=2\n"
    "re_t=0.5 noise_var=0.2 eve_w=1.4\n"
    "re_t=0.6 noise_var=0.25 eve_w=1.5\n"
)

MATRIX_TEXT = "0.6:0,0.1:0.2\n0:0.1,0.5:0\n0.2:0,0:0.4\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out.splitlines()


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
        monkeypatch.setattr(cli, "perr_amqd", lambda params: pytest.fail("evaluated"))
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

    def test_oversized_table_refused_before_any_permutation(self, capsys, monkeypatch):
        drawn = []
        monkeypatch.setattr(cli, "permute_constellation", lambda *a: drawn.append(a))
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
        (tmp_path / "m.csv").write_text(MATRIX_TEXT)
        (tmp_path / "c.txt").write_text(CHANNEL_TEXT)
        paths = dict(matrix=tmp_path / "m.csv", channel=tmp_path / "c.txt")
        argv = [a.format(**paths) for a in argv]
        assert main([*argv, "--precision", "1"]) == 0
        capsys.readouterr()
        assert main([*argv, "--precision", precision]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--precision" in captured.err


def test_cli_import_does_not_load_scipy_stats():
    code = (
        "import sys\n"
        "from mcqkd import cli\n"
        "cli.build_parser()\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    # the fresh interpreter imports the same package this test imported
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert done.stdout.strip() == "False"
