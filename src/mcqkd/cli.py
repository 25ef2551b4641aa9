"""Command line front end.

Every subcommand writes CSV, either to stdout or to ``-o PATH``.  The file
starts with ``#``-prefixed comment lines recording the tool version and the
full resolved configuration, so a result file is self-describing and two runs
with identical configurations produce identical bytes.  ``--precision N``
sets the significant digits of float cells, printed as ``%.Ng`` by
``errors._table``; every other cell prints as ``str``.  N must lie in
[1, 2**31 - 1], the largest precision a format string takes; any other value
exits 2 before any work.  The Monte Carlo thread count is deliberately not
part of the recorded configuration: results are bit-identical for any thread
count.

The parser is built once per process.  Each ``_run_<subcommand>`` handler
only parses, calls its library module and formats: it returns the header
params and the CSV body, and ``main`` writes them with the one ``_emit`` call
and maps errors to exit codes.  ``cli`` itself imports no numpy.

SNR values are accepted either as linear ratios (default) or in dB with
``--snr-unit db``; they are converted once at parse time and all outputs and
headers use the linear scale (the ``perr`` table also prints a dB column).
Grids are given as comma lists (``1,10,100``) or ranges (``start:stop:step``,
end inclusive: a range that reaches ``stop`` to within 1e-9 of a step ends on
``stop`` itself); a fault in one is reported with its flag.

Start-up imports only ``errors``, ``manifold`` and ``rates``, which need
neither numpy nor ``dataclasses`` (their records are named tuples, and
``dataclasses`` would bring ``inspect``, ``ast`` and ``dis``), so
``tradeoff``, ``perr`` and ``rates`` run without either; ``_run_rates``
imports ``channel`` when it runs.  The ``mc``, ``svd`` and ``constellation``
handlers import ``montecarlo``, ``singular_layer`` and ``constellation``,
and with them numpy, when they run.  No subcommand loads scipy: the
regularised gamma P(l, x) of the mean-fade refusal and the Tricomi
U(1, 1, x) = e**x E1(x) of the rate refusal are series and continued
fractions in plain Python (see ``montecarlo``).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import __version__
from .errors import DomainError, InsufficientTrialsError, input_lines
from .errors import _csv, _format_rows, _table
from .manifold import CURVE_KINDS, perr_rows, tradeoff_curve
from .rates import SUBCHANNEL_COLUMNS, check_rate_parameters, rate_report

# every mc setting: the type a flag or config-file value is converted to, the
# default (None where the setting is required) and the allowed values (None
# for any); the flag of key ``snr_unit`` is ``--snr-unit``
_MC_SETTINGS = {
    "mode": (str, None, ("mean_fade", "rate")),
    "l": (int, 1, None),
    "multiplex": (float, 0.0, None),
    "snr": (str, None, None),
    "snr_unit": (str, "linear", ("linear", "db")),
    "trials": (int, 100000, None),
    "seed": (int, 1, None),
    "fade_variance": (float, 1.0, None),
    "threads": (int, 1, None),
}
_MAX_GRID_POINTS = 1_000_000


def _parse_grid(text: str, name: str) -> list[float]:
    """Parse ``a,b,c`` lists or ``start:stop:step`` inclusive ranges of finite
    values; a range may hold at most ``_MAX_GRID_POINTS`` points.  Every fault
    is reported with ``name``, the flag or setting."""
    text = text.strip()
    if ":" in text:
        cells = text.split(":")
        if len(cells) != 3:
            raise ValueError(f"{name} range must be start:stop:step, got {text!r}")
    else:
        cells = [p for p in text.split(",") if p.strip()]
    values = []
    for cell in cells:
        try:
            values.append(float(cell))
        except ValueError:
            raise ValueError(f"{name} values must be numbers, got {cell!r}") from None
    if not values:
        raise ValueError(f"{name} is an empty grid, got {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{name} values must be finite, got {text!r}")
    if ":" not in text:
        return values
    start, stop, step = values
    if step <= 0 or stop < start:
        raise ValueError(f"{name} range {text!r} needs step > 0 and stop >= start")
    span = (stop - start) / step
    if not span + 1e-9 < _MAX_GRID_POINTS:
        raise ValueError(f"{name} range {text!r} has more than {_MAX_GRID_POINTS} points")
    last = math.floor(span + 1e-9)
    points = [start + i * step for i in range(last + 1)]
    if span - last <= 1e-9:
        # start + last * step can miss stop by an ulp
        points[-1] = stop
    return points


_MAX_PRECISION = 2**31 - 1  # the largest precision a format string takes


def _precision(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 1 <= value <= _MAX_PRECISION:
        raise argparse.ArgumentTypeError(
            f"must be an integer in [1, {_MAX_PRECISION}], got {text!r}"
        )
    return value


def _to_linear(values: list[float], unit: str) -> list[float]:
    if unit == "linear":
        return values
    linear = []
    for v in values:
        try:
            linear.append(10.0 ** (v / 10.0))
        except OverflowError:
            raise ValueError(f"snr {v:g} dB exceeds the largest double") from None
    return linear


def _emit(output, subcommand: str, params: dict, body: str) -> None:
    """Write the ``#`` header lines followed by a finished CSV ``body``."""
    lines = [f"# tool=mcqkd {__version__}", f"# subcommand={subcommand}"]
    lines.extend(f"# {key}={params[key]}" for key in sorted(params))
    text = "\n".join(lines) + "\n" + body
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid_param(values: list[float]) -> str:
    return ("%.9g," * len(values) % tuple(values))[:-1]


def _run_tradeoff(args) -> tuple[dict, str]:
    grid = _parse_grid(args.grid, "--grid")
    curve = tradeoff_curve(
        args.kind,
        grid,
        z_exponent=args.z,
        l=args.l,
        g_scale=args.g,
        k_in=args.k_in,
        k_out=args.k_out,
    )
    params = {"kind": args.kind, "grid": _grid_param(grid)}
    params.update({k: v for k, v in curve.params.items()})
    return params, _table(("sigma", "delta"), curve.points, args.precision)


def _run_perr(args) -> tuple[dict, str]:
    snr = _to_linear(_parse_grid(args.snr, "--snr"), args.snr_unit)
    l_grid = _parse_grid(args.l, "--l")
    if not all(v >= 1 and v == int(v) for v in l_grid):
        raise ValueError(f"--l must be an integer >= 1 in every cell, got {args.l!r}")
    l_values = [int(v) for v in l_grid]
    if len(snr) * len(l_values) > _MAX_GRID_POINTS:
        raise ValueError(
            f"{len(snr)} snr x {len(l_values)} l values exceed {_MAX_GRID_POINTS} table cells"
        )
    columns = ["snr_db", "p_single"] + [f"p_amqd_l{v}" for v in l_values]
    # perr_rows checks every snr before log10, which fails on a zero snr
    # without naming it
    cells = perr_rows(snr, args.multiplex, l_values)
    rows = [(10.0 * math.log10(s), *row) for s, row in zip(snr, cells)]
    params = {
        "snr": _grid_param(snr),
        "multiplex": args.multiplex,
        "l": ",".join(str(v) for v in l_values),
    }
    return params, _table(columns, rows, args.precision)


def _read_mc_config(path) -> dict:
    out = {}
    for lineno, line in input_lines(path):
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key not in _MC_SETTINGS:
            raise ValueError(
                f"{path}:{lineno}: unknown key {key!r}; allowed: {', '.join(_MC_SETTINGS)}"
            )
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        convert, _, choices = _MC_SETTINGS[key]
        try:
            out[key] = convert(value)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: {key} must be of type {convert.__name__}, got {value!r}"
            ) from None
        if choices and out[key] not in choices:
            raise ValueError(
                f"{path}:{lineno}: {key} must be {' or '.join(choices)}, got {value!r}"
            )
    return out


def _run_mc(args) -> tuple[dict, str]:
    from .montecarlo import TrialConfig, estimate_mean_fade_outage, estimate_rate_outage

    from_file = _read_mc_config(args.config) if args.config else {}
    # a flag overrides the config file, which overrides the default
    settings = {}
    for key, (_, default, _) in _MC_SETTINGS.items():
        flag = getattr(args, key)
        settings[key] = from_file.get(key, default) if flag is None else flag
    missing = [key for key, value in settings.items() if value is None]
    if missing:
        raise ValueError(f"missing mc settings: {', '.join(missing)}")
    mode = settings["mode"]
    snr_grid = _parse_grid(settings["snr"], "snr" if args.snr is None else "--snr")
    snr = _to_linear(snr_grid, settings["snr_unit"])
    cfg = TrialConfig(
        l=settings["l"],
        multiplex_ratio=settings["multiplex"],
        snr_grid=tuple(snr),
        trials=settings["trials"],
        seed=settings["seed"],
        fade_variance=settings["fade_variance"],
    )
    estimate = estimate_mean_fade_outage if mode == "mean_fade" else estimate_rate_outage
    # zero estimates left out of the slope fit: one line, also if the fit fails
    outage = None
    try:
        outage = estimate(cfg, threads=settings["threads"])
    except InsufficientTrialsError as exc:
        outage = exc.outage
        raise
    finally:
        if outage is not None and outage.excluded:
            print(f"warning: excluding {outage.excluded} zero outage estimate(s) "
                  "from the slope fit", file=sys.stderr)
    params = {
        "mode": mode,
        "l": cfg.l,
        "multiplex": f"{cfg.multiplex_ratio:.9g}",
        "snr": _grid_param(list(cfg.snr_grid)),
        "trials": cfg.trials,
        "seed": cfg.seed,
        "fade_variance": f"{cfg.fade_variance:.9g}",
    }
    return params, outage.to_csv(args.precision)


def _run_svd(args) -> tuple[dict, str]:
    from .singular_layer import eigenchannels, load_matrix_csv

    matrix = load_matrix_csv(args.matrix)
    lambdas, rel = eigenchannels(matrix)
    rows = [*enumerate(lambdas), ("recon_error", rel)]
    params = {"matrix": args.matrix, "k_in": matrix.k_in, "k_out": matrix.k_out}
    return params, _table(("index", "eigenchannel"), rows, args.precision)


def _run_rates(args) -> tuple[dict, str]:
    from .channel import load_channel_model

    # the --fades syntax, then the table-wide parameters, then the file
    fades_sq = _parse_grid(args.fades, "--fades") if args.fades is not None else None
    check_rate_parameters(args.mod_variance, args.gain_c)
    model = load_channel_model(args.channel)
    report = rate_report(model, args.mod_variance, args.gain_c, fades_sq)
    rows = [(i, *sub) for i, sub in enumerate(report.subchannels)]
    rows.append(
        (
            "total",
            "",
            "",
            report.capacity,
            report.svd_capacity,
            report.private_capacity,
            report.svd_private_capacity,
        )
    )
    params = {
        "channel": args.channel,
        "mod_variance": args.mod_variance,
        "gain_c": args.gain_c,
        "active_count": model.active_count,
        "vacuum_variance": model.vacuum_variance,
    }
    columns = ("index", *SUBCHANNEL_COLUMNS)
    return params, _table(columns, rows, args.precision)


def _run_constellation(args) -> tuple[dict, str]:
    from .constellation import build_constellation, permute_constellation

    base = build_constellation(args.bits)
    if len(base.points) * args.l > _MAX_GRID_POINTS:
        raise ValueError(
            f"{len(base.points)} points x {args.l} sub-channels exceed "
            f"{_MAX_GRID_POINTS} table rows"
        )
    spread = permute_constellation(base, args.l, args.seed)
    # each distinct grid coordinate formatted once (a 12-bit grid has 64 for
    # its 8,192 cells), then each base point's "re,im" cells, once for every
    # sub-channel; keying by float is exact, as the grid holds no -0.0
    distinct = list({p.real for p in base.points} | {p.imag for p in base.points})
    text = dict(zip(distinct, _format_rows(((v,) for v in distinct), args.precision)))
    points = [f"{text[p.real]},{text[p.imag]}" for p in base.points]
    if args.l == 1:
        # one sub-channel: a plain listing of the base points
        columns = ("index", "re", "im")
        lines = [f"{i},{point}" for i, point in enumerate(points)]
    else:
        columns = ("subchannel", "index", "re", "im")
        lines = [f"1,{i},{point}" for i, point in enumerate(points)]
        for sub, perm in enumerate(spread.perms, start=2):
            lines.extend(f"{sub},{i},{points[j]}" for i, j in enumerate(perm))
    params = {"bits": args.bits, "l": args.l, "seed": args.seed}
    return params, _csv(columns, lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcqkd",
        description="Multicarrier CVQKD tradeoff, rate, constellation and outage tables",
    )
    parser.add_argument("--version", action="version", version=f"mcqkd {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("-o", "--output", help="output CSV path (default: stdout)")
        p.add_argument(
            "--precision", type=_precision, default=9, help="significant digits (default 9)"
        )

    p = sub.add_parser("tradeoff", help="sample a diversity-multiplexing curve")
    p.add_argument("--kind", required=True, choices=CURVE_KINDS)
    p.add_argument("--grid", required=True, help="multiplex-ratio grid")
    p.add_argument("--z", type=float, default=1.0, help="exponent scale Z (default 1)")
    p.add_argument("--l", type=int, default=1, help="active sub-channels (default 1)")
    p.add_argument("--g", type=float, default=0.0, help="interference scale (default 0)")
    p.add_argument("--k-in", type=int, help="transmitter count for multiaccess kinds")
    p.add_argument("--k-out", type=int, help="receiver count for multiaccess kinds")
    add_common(p)

    p = sub.add_parser("perr", help="outage power-law table")
    p.add_argument("--snr", required=True, help="snr grid")
    p.add_argument("--snr-unit", choices=("linear", "db"), default="linear")
    p.add_argument("--multiplex", type=float, required=True, help="multiplex ratio")
    p.add_argument("--l", default="1", help="comma list of sub-channel counts")
    add_common(p)

    p = sub.add_parser("mc", help="Monte Carlo outage estimation")
    p.add_argument("--config", help="flat key=value settings file")
    for key, (convert, _, choices) in _MC_SETTINGS.items():
        p.add_argument(
            "--" + key.replace("_", "-"), type=convert, choices=choices,
            help="worker threads (never changes results)" if key == "threads" else None,
        )
    add_common(p)

    p = sub.add_parser("svd", help="eigenchannels of a transmittance matrix")
    p.add_argument("--matrix", required=True, help="re:im CSV matrix path")
    add_common(p)

    p = sub.add_parser("rates", help="capacity and secret-key rates of a channel file")
    p.add_argument("--channel", required=True, help="channel model path")
    p.add_argument("--mod-variance", type=float, required=True)
    p.add_argument("--gain-c", type=float, default=1.0)
    p.add_argument("--fades", help="optional squared fades, one per active sub-channel")
    add_common(p)

    p = sub.add_parser("constellation", help="export a grid constellation")
    p.add_argument("--bits", type=float, required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # the handler is looked up when it runs, not stored in the parser: the
        # parser is built once per process, and a handler rebound after that
        # (by a tracer or a test) must still be the one called
        params, body = globals()[f"_run_{args.subcommand}"](args)
        _emit(args.output, args.subcommand, params, body)
    except InsufficientTrialsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
