"""Benchmark of the mcqkd CLI.

    python3 perfbench/run.py --workload mc_grid --seed 1 --seconds 30 --trace 0

One closed-loop client drives ``mcqkd.cli.main(argv)`` in-process and sends
the next operation only when the previous one has returned.  Every step
writes its CSV with ``-o`` into ``.perfbench/work`` under the checkout and is
checked against an independent reference after the timed call (see
``workloads.py``).  An operation fails when a step exits nonzero, raises, or
fails its check.

``--trace 0`` measures with no wrappers installed and reports the end-to-end
metrics: set-up time (median of fresh interpreters that import ``mcqkd.cli``
and build the parser), trial points per second over the whole run, and peak
RSS.  It also prints op latency p50 and p90, which carry no bound: on a
shared 2-vCPU host the same op runs at one of two speeds (about 145 ms and
265 ms for ``tables``) for seconds at a time, so a run's percentiles jump
between the two, while the mean that sets the throughput follows the share of
slow time smoothly.  ``--trace 1`` spends half the time untraced and half
with spans around the layer functions (``tracing.py``) and reports the
per-layer metrics and the tracing overhead.  The last line of
stdout is the JSON result; the lines before it give each metric with its
sample count and the environment.  A fuller record, with the spans of a
traced run, goes to ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from perfbench import tracing, workloads  # noqa: E402

WORK = Path(".perfbench") / "work"
RESULTS = Path(".perfbench") / "results"
SETUP_LAUNCHES = 5
WARMUP_OPS = 2
SPAN_CAP = 50_000
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# name, unit, better; the bounds live in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("trial_points_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
# printed with the end-to-end metrics but too bimodal on a shared host to bound
UNBOUNDED = (
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
)
_RUN_SUBCOMMANDS = ("tradeoff", "perr", "rates", "svd", "constellation", "mc")
PER_LAYER = (
    ("montecarlo._block_fades.calls", "count", "lower"),
    ("montecarlo._block_fades.busy_ms", "ms", "lower"),
    ("montecarlo._block_fades.bytes_computed", "B", "lower"),
    ("montecarlo.fades_per_trial_point", "ratio", "lower"),
    ("montecarlo._count_events.calls", "count", "lower"),
    ("montecarlo._count_events.busy_ms", "ms", "lower"),
    ("montecarlo._count_events.self_ms", "ms", "lower"),
    ("montecarlo.thread_speedup", "ratio", "higher"),
    ("montecarlo.estimate_mean_fade_outage.self_ms", "ms", "lower"),
    ("montecarlo.estimate_rate_outage.self_ms", "ms", "lower"),
    ("montecarlo._assemble.busy_ms", "ms", "lower"),
    ("montecarlo.wilson_interval.calls", "count", "lower"),
    ("montecarlo.EmpiricalOutage.to_csv.busy_ms", "ms", "lower"),
    ("montecarlo.slope_stderr", "1", "lower"),
    ("cli.build_parser.busy_ms", "ms", "lower"),
    ("cli._emit.busy_ms", "ms", "lower"),
    *((f"cli._run_{sub}.self_ms", "ms", "lower") for sub in _RUN_SUBCOMMANDS),
    ("rates.rate_report.busy_ms", "ms", "lower"),
    ("rates.optimal_attack_noise.calls", "count", "lower"),
    ("rates.subchannel_capacity.calls", "count", "lower"),
    ("rates.private_capacity_complex.calls", "count", "lower"),
    ("channel.load_channel_model.busy_ms", "ms", "lower"),
    ("channel.total_input_noise.calls", "count", "lower"),
    ("manifold.tradeoff_curve.busy_ms", "ms", "lower"),
    ("manifold.tradeoff_multiaccess.calls", "count", "lower"),
    ("manifold.perr_single.calls", "count", "lower"),
    ("manifold.perr_amqd.calls", "count", "lower"),
    ("manifold.perr_amqd.busy_ms", "ms", "lower"),
    ("singular_layer.load_matrix_csv.busy_ms", "ms", "lower"),
    ("singular_layer.svd_decompose.busy_ms", "ms", "lower"),
    ("singular_layer.reconstruct.busy_ms", "ms", "lower"),
    ("constellation.build_constellation.busy_ms", "ms", "lower"),
    ("constellation.permute_constellation.busy_ms", "ms", "lower"),
    ("trace.untraced_op_p50_ms", "ms", "lower"),
    ("trace.traced_op_p50_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    *((f"{name}.errors", "count", "lower") for name in tracing.SPAN_NAMES),
)


class Runner:
    """Runs operations of one workload and keeps the tally."""

    def __init__(self, cli, workload: workloads.Workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.output_sha: dict = {}
        self.observed: dict = {}

    def _steps(self) -> str | None:
        for step in self.workload.steps:
            code = self.cli.main(step.argv)
            if code != 0:
                return f"{step.argv[0]} exited {code}"
        return None

    def run_op(self, tracer=None) -> float:
        """Run one operation; return its latency in seconds (checks excluded)."""
        for step in self.workload.steps:
            step.output.unlink(missing_ok=True)
        self.attempted += 1
        error = None
        start = perf_counter()
        try:
            if tracer is None:
                error = self._steps()
            else:
                with tracer.op():
                    error = self._steps()
        except Exception as exc:  # an op that raises is counted, not fatal
            error = f"raised {exc!r}"
        elapsed = perf_counter() - start
        if error is None:
            error = self._check()
        if error is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(error)
        return elapsed

    def _check(self) -> str | None:
        for step in self.workload.steps:
            try:
                text = step.output.read_text(encoding="utf-8")
                self.observed.update(step.check(text))
            except Exception as exc:  # any unreadable or wrong output fails the op
                return f"{step.argv[0]} output: {exc}"
            self.output_sha.setdefault(step.argv[0], workloads.sha256_file(step.output))
        return None

    def loop(self, seconds: float, tracer=None, on_op=None) -> list:
        latencies = []
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            latencies.append(self.run_op(tracer))
            if on_op is not None:
                on_op()
        return latencies


def measure_setup() -> list:
    """Wall time of fresh interpreters that import ``mcqkd.cli`` and build the
    parser.  The in-process import has already compiled the bytecode, as a
    user's second run would find it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(workloads.SRC), env.get("PYTHONPATH"))))
    cmd = [sys.executable, "-c", "import mcqkd.cli as c; c.build_parser(); print(c.__file__)"]
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = perf_counter()
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(perf_counter() - start)
        if Path(done.stdout.strip()).resolve().parent != (workloads.SRC / "mcqkd").resolve():
            raise ImportError(f"set-up launch imported {done.stdout.strip()}")
    return times


def _l3_bytes() -> int | None:
    path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        text = path.read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def environment(workload: workloads.Workload) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "l3_cache_bytes": _l3_bytes(),
        "inputs_sha256": workload.inputs,
    }
    block = getattr(sys.modules.get("mcqkd.montecarlo"), "_BLOCK", None)
    if workload.fade_shape and block:
        rows = min(block, workloads.MC_TRIALS)
        env["block_bytes_computed"] = rows * workload.fade_shape[1] * 8
        env["block_bytes_note"] = "computed from array sizes (rows x l x 8 B), not a measured bandwidth"
    return env


def _ms(seconds: list, q: float) -> float:
    return float(np.percentile(seconds, q)) * 1e3


def _end_to_end(args, workload, runner) -> tuple:
    setup = measure_setup()
    latencies = runner.loop(args.seconds)
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": _ms(latencies, 50),
        "op_p90_ms": _ms(latencies, 90),
        "trial_points_per_s": workload.points_per_op * len(latencies) / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    ops = f"{len(latencies)} ops"
    samples = {"setup_s": f"{len(setup)} launches", "op_p50_ms": ops, "op_p90_ms": ops,
               "trial_points_per_s": ops, "peak_rss_mb": "1 process"}
    return values, samples, {"latencies_s": latencies, "setup_launches_s": setup}, []


def _layer_value(field: str, rows: list):
    """Per traced op: mean of counts, median of times, total of errors."""
    if field == "calls":
        return statistics.fmean(r["calls"] for r in rows)
    if field == "bytes_computed":
        return statistics.fmean(r["nbytes"] for r in rows)
    if field == "busy_ms":
        return statistics.median(r["busy_s"] for r in rows) * 1e3
    if field == "self_ms":
        return statistics.median(r["self_s"] for r in rows) * 1e3
    if field == "errors":
        return sum(r["errors"] for r in rows)
    raise KeyError(field)


def _per_layer(args, workload, runner) -> tuple:
    """Half the time untraced, half traced; spans are folded into per-op
    summaries after each op, and the first ``SPAN_CAP`` are kept raw."""
    untraced = runner.loop(args.seconds / 2)
    tracer = tracing.Tracer()
    per_op: list = []
    spans: list = []

    def fold():
        per_op.append(tracing.summarize(tracer.spans))
        spans.extend(tracer.spans[: max(0, SPAN_CAP - len(spans))])
        tracer.spans.clear()

    tracer.install()
    try:
        traced = runner.loop(args.seconds / 2, tracer, on_op=fold)
    finally:
        tracer.uninstall()
    if tracing.wrapped_names():
        raise RuntimeError(f"wrappers left after the traced run: {tracing.wrapped_names()}")
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0, "size": 0, "nbytes": 0}
    values = {
        "trace.untraced_op_p50_ms": _ms(untraced, 50),
        "trace.traced_op_p50_ms": _ms(traced, 50),
        "trace.overhead_ms": _ms(traced, 50) - _ms(untraced, 50),
        "montecarlo.slope_stderr": runner.observed.get("slope_stderr", 0.0),
        "montecarlo.thread_speedup": 0.0,
        "montecarlo.fades_per_trial_point": 0.0,
    }
    if workload.serial_reference_s:
        values["montecarlo.thread_speedup"] = workload.serial_reference_s * 1e3 / _ms(untraced, 50)
    if workload.fade_shape:
        points, l = workload.fade_shape
        drawn = statistics.fmean(op.get("montecarlo._block_fades", empty)["size"] for op in per_op)
        values["montecarlo.fades_per_trial_point"] = drawn / (points * l)
    for name, _, _ in PER_LAYER:
        if name not in values:
            span, field = name.rsplit(".", 1)
            values[name] = _layer_value(field, [op.get(span, empty) for op in per_op])
    ops = f"{len(traced)} traced ops, {len(untraced)} untraced"
    samples = {name: ops for name, _, _ in PER_LAYER}
    detail = {"untraced_latencies_s": untraced, "traced_latencies_s": traced,
              "thread_speedup_serial_s": workload.serial_reference_s}
    return values, samples, detail, spans


def run(args, cli) -> dict:
    workload = workloads.build(args.workload, args.seed, WORK, cli)
    runner = Runner(cli, workload)
    env = environment(workload)
    for _ in range(WARMUP_OPS):
        runner.run_op()
    if tracing.wrapped_names():
        raise RuntimeError(f"untraced phase found wrappers: {tracing.wrapped_names()}")
    measure, spec = (_end_to_end, END_TO_END) if args.trace == 0 else (_per_layer, PER_LAYER)
    values, samples, detail, spans = measure(args, workload, runner)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
    unbounded = {name: {"value": values[name], "unit": unit}
                 for name, unit, _ in UNBOUNDED if name in values}
    if {n: workloads.sha256_file(WORK / n) for n in workload.inputs} != workload.inputs:
        runner.failures.append("an input file changed during the run")
    env["outputs_sha256"] = runner.output_sha
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": runner.failed == 0 and not runner.failures,
        "attempted": runner.attempted, "failed": runner.failed, "failures": runner.failures,
        "metrics": metrics, "unbounded": unbounded, "samples": samples,
        "environment": env, "detail": detail,
        "steps": [step.argv for step in workload.steps], "spans": spans,
    }


def _write_record(record: dict) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans")
    if spans:
        with open(RESULTS / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, error, size, nbytes in spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "error": error, "size": size,
                                     "nbytes": nbytes}) + "\n")
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    os.chdir(ROOT)
    try:
        cli = workloads.load_cli()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        record = run(args, cli)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for name, metric in record["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']} ({record['samples'][name]})")
    for name, metric in record["unbounded"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']} ({record['samples'][name]}, no bound)")
    print(f"failed_ratio = {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']} of {record['attempted']} ops)")
    for failure in record["failures"]:
        print(f"failure: {failure}")
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(f"record: {_write_record(record)}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
