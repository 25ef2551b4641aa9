"""Command line front end.

Every subcommand writes CSV, either to stdout or to ``-o PATH``.  The file
starts with ``#``-prefixed comment lines recording the tool version and the
full resolved configuration, so a result file is self-describing and two runs
with identical configurations produce identical bytes.  The Monte Carlo
thread count is deliberately not part of the recorded configuration: results
are bit-identical for any thread count.

SNR values are accepted either as linear ratios (default) or in dB with
``--snr-unit db``; they are converted once at parse time and all outputs and
headers use the linear scale (the ``perr`` table also prints a dB column).
Grids are given as comma lists (``1,10,100``) or ranges (``start:stop:step``,
end inclusive).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .channel import load_channel_model
from .constellation import build_constellation, permute_constellation
from .errors import DomainError, InsufficientTrialsError
from .manifold import CURVE_KINDS, OutageParams, perr_amqd, perr_single, tradeoff_curve
from .montecarlo import TrialConfig, estimate_mean_fade_outage, estimate_rate_outage
from .rates import SUBCHANNEL_COLUMNS, rate_report
from .singular_layer import load_matrix_csv, reconstruct, svd_decompose

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


def _parse_grid(text: str) -> list[float]:
    """Parse ``a,b,c`` lists or ``start:stop:step`` inclusive ranges of finite
    values; a range may hold at most ``_MAX_GRID_POINTS`` points."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected start:stop:step, got {text!r}")
        values = [float(p) for p in parts]
    else:
        values = [float(p) for p in text.split(",") if p.strip()]
    if not values:
        raise ValueError(f"empty grid {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"grid values must be finite, got {text!r}")
    if ":" not in text:
        return values
    start, stop, step = values
    if step <= 0 or stop < start:
        raise ValueError(f"bad range {text!r}: need step > 0 and stop >= start")
    span = (stop - start) / step + 1e-9
    if not span < _MAX_GRID_POINTS:
        raise ValueError(f"range {text!r} has more than {_MAX_GRID_POINTS} points")
    return [start + i * step for i in range(int(math.floor(span)) + 1)]


def _precision(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
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


def _table(columns, rows, precision: int) -> str:
    fmt = f"{{:.{precision}g}}"
    lines = [",".join(columns)]
    lines.extend(
        ",".join(fmt.format(v) if isinstance(v, float) else str(v) for v in row)
        for row in rows
    )
    return "\n".join(lines) + "\n"


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
    return ",".join(f"{v:.9g}" for v in values)


def _run_tradeoff(args) -> int:
    grid = _parse_grid(args.grid)
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
    body = _table(("sigma", "delta"), curve.points, args.precision)
    _emit(args.output, "tradeoff", params, body)
    return 0


def _run_perr(args) -> int:
    snr = _to_linear(_parse_grid(args.snr), args.snr_unit)
    l_grid = _parse_grid(args.l)
    if not all(v >= 1 and v == int(v) for v in l_grid):
        raise ValueError(f"every l must be an integer >= 1, got {args.l!r}")
    l_values = [int(v) for v in l_grid]
    if len(snr) * len(l_values) > _MAX_GRID_POINTS:
        raise ValueError(
            f"{len(snr)} snr x {len(l_values)} l values exceed {_MAX_GRID_POINTS} table cells"
        )
    columns = ["snr_db", "p_single"] + [f"p_amqd_l{v}" for v in l_values]
    rows = []
    for s in snr:
        row = [10.0 * math.log10(s), perr_single(OutageParams(s, args.multiplex))]
        row.extend(
            perr_amqd(OutageParams(s, args.multiplex, l=v)) for v in l_values
        )
        rows.append(row)
    params = {
        "snr": _grid_param(snr),
        "multiplex": args.multiplex,
        "l": ",".join(str(v) for v in l_values),
    }
    _emit(args.output, "perr", params, _table(columns, rows, args.precision))
    return 0


def _read_mc_config(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
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


def _run_mc(args) -> int:
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
    snr = _to_linear(_parse_grid(settings["snr"]), settings["snr_unit"])
    cfg = TrialConfig(
        l=settings["l"],
        multiplex_ratio=settings["multiplex"],
        snr_grid=tuple(snr),
        trials=settings["trials"],
        seed=settings["seed"],
        fade_variance=settings["fade_variance"],
    )
    threads = settings["threads"]
    if mode == "mean_fade":
        outage = estimate_mean_fade_outage(cfg, threads=threads)
    else:
        outage = estimate_rate_outage(cfg, threads=threads)
    params = {
        "mode": mode,
        "l": cfg.l,
        "multiplex": f"{cfg.multiplex_ratio:.9g}",
        "snr": _grid_param(list(cfg.snr_grid)),
        "trials": cfg.trials,
        "seed": cfg.seed,
        "fade_variance": f"{cfg.fade_variance:.9g}",
    }
    _emit(args.output, "mc", params, outage.to_csv(args.precision))
    return 0


def _run_svd(args) -> int:
    matrix = load_matrix_csv(args.matrix)
    decomp = svd_decompose(matrix)
    rebuilt = reconstruct(decomp)
    norm = float(np.linalg.norm(matrix.entries))
    err = float(np.linalg.norm(matrix.entries - rebuilt.entries))
    rel = err / norm if norm > 0 else err
    rows = [(i, lam) for i, lam in enumerate(decomp.lambdas)]
    rows.append(("recon_error", rel))
    params = {"matrix": args.matrix, "k_in": matrix.k_in, "k_out": matrix.k_out}
    body = _table(("index", "eigenchannel"), rows, args.precision)
    _emit(args.output, "svd", params, body)
    return 0


def _run_rates(args) -> int:
    model = load_channel_model(args.channel)
    fades_sq = None
    if args.fades:
        fades_sq = _parse_grid(args.fades)
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
    _emit(args.output, "rates", params, _table(columns, rows, args.precision))
    return 0


def _run_constellation(args) -> int:
    base = build_constellation(args.bits)
    if len(base.points) * args.l > _MAX_GRID_POINTS:
        raise ValueError(
            f"{len(base.points)} points x {args.l} sub-channels exceed "
            f"{_MAX_GRID_POINTS} table rows"
        )
    spread = permute_constellation(base, args.l, args.seed)
    columns = ("subchannel", "index", "re", "im")
    rows = [
        (sub, i, p.real, p.imag)
        for sub in range(1, spread.subchannel_count + 1)
        for i, p in enumerate(spread.subchannel_points(sub))
    ]
    if args.l == 1:
        # one sub-channel: a plain listing of the base points
        columns, rows = columns[1:], [row[1:] for row in rows]
    params = {"bits": args.bits, "l": args.l, "seed": args.seed}
    _emit(args.output, "constellation", params, _table(columns, rows, args.precision))
    return 0


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
    p.set_defaults(handler=_run_tradeoff)

    p = sub.add_parser("perr", help="outage power-law table")
    p.add_argument("--snr", required=True, help="snr grid")
    p.add_argument("--snr-unit", choices=("linear", "db"), default="linear")
    p.add_argument("--multiplex", type=float, required=True, help="multiplex ratio")
    p.add_argument("--l", default="1", help="comma list of sub-channel counts")
    add_common(p)
    p.set_defaults(handler=_run_perr)

    p = sub.add_parser("mc", help="Monte Carlo outage estimation")
    p.add_argument("--config", help="flat key=value settings file")
    for key, (convert, _, choices) in _MC_SETTINGS.items():
        p.add_argument(
            "--" + key.replace("_", "-"), type=convert, choices=choices,
            help="worker threads (never changes results)" if key == "threads" else None,
        )
    add_common(p)
    p.set_defaults(handler=_run_mc)

    p = sub.add_parser("svd", help="eigenchannels of a transmittance matrix")
    p.add_argument("--matrix", required=True, help="re:im CSV matrix path")
    add_common(p)
    p.set_defaults(handler=_run_svd)

    p = sub.add_parser("rates", help="capacity and secret-key rates of a channel file")
    p.add_argument("--channel", required=True, help="channel model path")
    p.add_argument("--mod-variance", type=float, required=True)
    p.add_argument("--gain-c", type=float, default=1.0)
    p.add_argument("--fades", help="optional squared fades, one per active sub-channel")
    add_common(p)
    p.set_defaults(handler=_run_rates)

    p = sub.add_parser("constellation", help="export a grid constellation")
    p.add_argument("--bits", type=float, required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(handler=_run_constellation)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except InsufficientTrialsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
