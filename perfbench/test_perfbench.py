"""Tests of the benchmark itself: seeded inputs, output checks, tracing."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import run, tracing, workloads

cli = workloads.load_cli()


def test_inputs_are_deterministic_per_seed(tmp_path):
    a = workloads.build("tables", 7, tmp_path / "a", cli)
    b = workloads.build("tables", 7, tmp_path / "b", cli)
    c = workloads.build("tables", 8, tmp_path / "c", cli)
    assert set(a.inputs) == {"channel.txt", "matrix.csv"}
    assert a.inputs == b.inputs
    assert all(a.inputs[k] != c.inputs[k] for k in a.inputs)
    assert [s.argv[:-2] for s in a.steps][:2] == [s.argv[:-2] for s in c.steps][:2]


def test_channel_file_stays_in_the_attack_domain(tmp_path):
    path = tmp_path / "channel.txt"
    workloads.write_channel_file(path, np.random.default_rng(3))
    records = [dict(kv.split("=") for kv in line.split()) for line in path.read_text().splitlines()[1:]]
    assert len(records) == workloads.SUBCHANNELS
    for rec in records:
        assert workloads.MOD_VARIANCE * 2 * float(rec["re_t"]) ** 2 < 1
        assert float(rec["eve_w"]) > 1


def _mean_fade_csv(seed, bump=0.0):
    lines = ["# tool=mcqkd 0.1.0", "# subcommand=mc", f"# l={workloads.GRID_L}",
             f"# seed={seed}", f"# trials={workloads.MC_TRIALS}", "snr,p_hat,ci_low,ci_high"]
    for i, s in enumerate(workloads.GRID_SNR):
        p = workloads.gamma_cdf(workloads.GRID_L, workloads.GRID_L / s) + (bump if i == 3 else 0.0)
        lines.append(f"{s:g},{p:.9g},{p * 0.99:.9g},{p * 1.01:.9g}")
    lines.append("slope,3.9,stderr,0.05")
    return "\n".join(lines) + "\n"


def test_mean_fade_check_rejects_a_shifted_estimate():
    assert workloads.check_mean_fade(_mean_fade_csv(5), seed=5) == {"slope_stderr": 0.05}
    with pytest.raises(workloads.CheckFailed):
        workloads.check_mean_fade(_mean_fade_csv(5, bump=0.01), seed=5)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_mean_fade(_mean_fade_csv(5), seed=6)


def test_corrupted_csv_counts_as_a_failed_op(tmp_path):
    workload = workloads.build("tables", 1, tmp_path, cli)

    def corrupting_main(argv):
        code = cli.main(argv)
        if argv[0] == "rates":
            path = argv[argv.index("-o") + 1]
            lines = open(path).read().splitlines()
            total = lines[-1].split(",")
            total[3] = repr(float(total[3]) * 1.001)
            lines[-1] = ",".join(total)
            open(path, "w").write("\n".join(lines) + "\n")
        return code

    runner = run.Runner(cli, workload)
    runner.run_op()
    assert (runner.attempted, runner.failed) == (1, 0)
    runner.cli = SimpleNamespace(main=corrupting_main)
    runner.run_op()
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "rates output" in runner.failures[0]


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    import mcqkd.cli
    import mcqkd.rates

    original = mcqkd.rates.rate_report
    workload = workloads.build("tables", 2, tmp_path, cli)
    runner = run.Runner(cli, workload)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert "mcqkd.cli.rate_report" in tracing.wrapped_names()
        assert "mcqkd.montecarlo.EmpiricalOutage.to_csv" in tracing.wrapped_names()
        runner.run_op(tracer)
    finally:
        tracer.uninstall()
    assert tracing.wrapped_names() == []
    assert mcqkd.cli.rate_report is original and mcqkd.rates.rate_report is original
    assert runner.failed == 0
    summary = tracing.summarize(tracer.spans)
    assert summary["op"]["calls"] == 1
    assert summary["rates.rate_report"]["calls"] == 1
    assert summary["cli._run_rates"]["self_s"] < summary["cli._run_rates"]["busy_s"]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "parent", 0.0, 10.0, 0, False, 0, 0),
        (2, "child", 1.0, 4.0, 1, False, 0, 0),
        (3, "child", 3.0, 6.0, 1, False, 0, 0),  # overlaps: another thread
        (4, "child", 9.0, 12.0, 1, True, 0, 0),  # clipped to the parent
    ]
    summary = tracing.summarize(spans)
    assert math.isclose(summary["parent"]["self_s"], 10.0 - 5.0 - 1.0)
    assert summary["child"]["calls"] == 3 and summary["child"]["errors"] == 1


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
