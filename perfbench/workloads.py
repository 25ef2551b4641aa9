"""Benchmark workloads: seeded inputs, the CLI arguments of one operation and
independent checks of every output.

Each workload is a list of steps; one operation runs every step in order
through ``mcqkd.cli.main``.  A step writes its CSV with ``-o`` and is checked
afterwards against a reference that shares no code path with the program:
the closed-form Gamma(l) series instead of ``scipy.special.gammainc``,
``eigvalsh`` of F F^H instead of the SVD, and the power laws and
piecewise-linear knots written out by hand.

Workloads (why each one is here):

* ``mc_grid`` -- mean-fade outage on an 8-point grid, single thread.  Every
  grid point redraws its own fades, so fade generation dominates; it is also
  the plain single-thread baseline of the Monte Carlo engine.
* ``mc_rate_wide`` -- rate outage at l=16 on 3 points with 2 threads: the only
  thread-pool path, with 8 MiB blocks and the per-snr ``log2`` event kernel.
* ``tables`` -- the five closed-form subcommands in a fixed order.  No Monte
  Carlo work; the time goes to scalar formula loops, parsers, BLAS and CSV
  formatting.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("mc_grid", "mc_rate_wide", "tables")

MC_TRIALS = 524288
GRID_SNR = (2, 2.5, 3, 4, 5, 6, 8, 10)
GRID_L = 4
WIDE_SNR = (10, 30, 100)
WIDE_L = 16
WIDE_MULTIPLEX = 0.75
MAX_ABS_Z = 5.0

SUBCHANNELS = 1000
MOD_VARIANCE = 1.2
GAIN_C = 0.5
MATRIX_DIM = 64
PERR_MULTIPLEX = 0.6
PERR_L = (1, 2, 4, 8, 16)
PERR_POINTS = 2001  # 0:40:0.02 dB
TRADEOFF_POINTS = 4001  # 0:2:0.0005
CONSTELLATION_BITS = 12
CONSTELLATION_L = 4


class CheckFailed(Exception):
    """An output disagrees with its independent reference."""


@dataclass
class Step:
    argv: list
    output: Path
    check: Callable[[str], dict]


@dataclass
class Workload:
    """One benchmark workload, ready to run.

    ``points_per_op`` is the work of one operation: trials x grid points for
    the Monte Carlo workloads, table rows written for ``tables``.
    ``fade_shape`` is (trials x grid points, l) where fades are drawn.
    """

    name: str
    steps: list
    points_per_op: int
    inputs: dict = field(default_factory=dict)
    fade_shape: tuple | None = None
    serial_reference_s: float | None = None


def load_cli():
    """Import ``mcqkd.cli`` from this checkout's ``src``, never another copy."""
    package = SRC / "mcqkd"
    if not (package / "__init__.py").is_file():
        raise FileNotFoundError(f"program source not found at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mcqkd.cli

    if Path(mcqkd.cli.__file__).resolve().parent != package.resolve():
        raise ImportError(f"mcqkd imported from {mcqkd.cli.__file__}, not {package}")
    return mcqkd.cli


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------- inputs


def write_channel_file(path, rng: np.random.Generator, count: int = SUBCHANNELS):
    """Write ``count`` sub-channels that all lie in the attack domain and
    return their re_t values as written.

    The optimal attack exists iff mod_variance * 2 * re_t^2 < 1 and eve_w > 1;
    re_t <= 0.6 keeps the first below 0.87 at mod_variance 1.2.
    """
    cols = (
        rng.uniform(0.05, 0.6, count),
        rng.uniform(0.2, 2.0, count),
        rng.uniform(1.05, 2.0, count),
    )
    cols = tuple(np.array([float(f"{v:.6f}") for v in c]) for c in cols)
    re_t, _, eve_w = cols
    if not (np.all(MOD_VARIANCE * 2.0 * re_t**2 < 1.0) and np.all(eve_w > 1.0)):
        raise ValueError("generated sub-channel outside the attack domain")
    lines = ["vacuum_variance=1"]
    lines += [f"re_t={a:.6f} noise_var={b:.6f} eve_w={c:.6f}" for a, b, c in zip(*cols)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return re_t


def write_matrix_file(path, rng: np.random.Generator, dim: int = MATRIX_DIM) -> np.ndarray:
    """Write a dim x dim complex Gaussian matrix as ``re:im`` CSV (exact
    round-trip through ``repr``) and return it."""
    m = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(
        2.0 * dim
    )
    lines = [",".join(f"{float(z.real)!r}:{float(z.imag)!r}" for z in row) for row in m]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return m


# ---------------------------------------------------------------- references


def gamma_cdf(l: int, x: float) -> float:
    """P(Gamma(l, 1) <= x) for integer l by the series
    1 - exp(-x) * sum_{k<l} x^k / k!."""
    term, partial = 1.0, 0.0
    for k in range(l):
        partial += term
        term *= x / (k + 1)
    return 1.0 - math.exp(-x) * partial


def _parse_csv(text: str, subcommand: str):
    lines = text.splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    if not header or not header[0].startswith("# tool=mcqkd "):
        raise CheckFailed("missing tool header")
    params = dict(ln[2:].split("=", 1) for ln in header[1:])
    if params.get("subcommand") != subcommand:
        raise CheckFailed(f"expected subcommand={subcommand}, got {params.get('subcommand')}")
    if not body:
        raise CheckFailed("no column line")
    return params, body[0].split(","), [ln.split(",") for ln in body[1:]]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(got, want, rtol: float, atol: float = 0.0) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(want)) <= atol + rtol * np.abs(want)))


def _mc_points(text: str, *, l: int, snr, seed: int):
    params, cols, rows = _parse_csv(text, "mc")
    _expect(cols == ["snr", "p_hat", "ci_low", "ci_high"], f"bad columns {cols}")
    _expect(params.get("l") == str(l), "l not recorded")
    _expect(params.get("trials") == str(MC_TRIALS), "trials not recorded")
    _expect(params.get("seed") == str(seed), "seed not recorded")
    _expect(len(rows) == len(snr) + 1, f"expected {len(snr)} points, got {len(rows) - 1}")
    table = np.array(rows[:-1], dtype=float)
    trailer = rows[-1]
    _expect(len(trailer) == 4 and trailer[0] == "slope" and trailer[2] == "stderr", "bad trailer")
    _expect(_close(table[:, 0], snr, 1e-8), "snr grid differs")
    p, lo, hi = table[:, 1], table[:, 2], table[:, 3]
    _expect(bool(np.all((lo <= p) & (p <= hi))), "p_hat outside its interval")
    return p, hi, {"slope_stderr": float(trailer[3])}


def check_mean_fade(text: str, *, seed: int) -> dict:
    """|z| <= 5 against P(l, l/snr) at every grid point."""
    p, _, obs = _mc_points(text, l=GRID_L, snr=GRID_SNR, seed=seed)
    for s, p_hat in zip(GRID_SNR, p):
        ref = gamma_cdf(GRID_L, GRID_L / s)
        z = (p_hat - ref) / math.sqrt(ref * (1.0 - ref) / MC_TRIALS)
        _expect(abs(z) <= MAX_ABS_Z, f"snr={s}: p_hat={p_hat} vs {ref} (z={z:.2f})")
    return obs


def check_rate(text: str, *, seed: int, reference: str | None) -> dict:
    """ci_high at or above the Jensen lower bound P(l, l(2^R-1)/snr), and the
    bytes equal to the single-thread reference when one is given."""
    _, hi, obs = _mc_points(text, l=WIDE_L, snr=WIDE_SNR, seed=seed)
    for s, upper in zip(WIDE_SNR, hi):
        rate = WIDE_MULTIPLEX * math.log2(s)
        bound = gamma_cdf(WIDE_L, WIDE_L * (2.0**rate - 1.0) / s)
        _expect(upper >= bound, f"snr={s}: ci_high={upper} below Jensen bound {bound}")
    _expect(reference is None or text == reference, "CSV differs from the --threads 1 reference")
    return obs


def check_tradeoff(text: str) -> dict:
    _, cols, rows = _parse_csv(text, "tradeoff")
    _expect(cols == ["sigma", "delta"], f"bad columns {cols}")
    _expect(len(rows) == TRADEOFF_POINTS, f"expected {TRADEOFF_POINTS} rows, got {len(rows)}")
    sigma, delta = np.array(rows, dtype=float).T
    # knots (i, (2-i)(4-i)) at i = 0, 1, 2, linear between, zero beyond
    ref = np.where(sigma <= 1.0, 8.0 - 5.0 * sigma, np.maximum(3.0 - 3.0 * (sigma - 1.0), 0.0))
    _expect(_close(delta, ref, 1e-8, 1e-12), "delta off the piecewise-linear reference")
    for knot, value in ((0.0, 8.0), (1.0, 3.0), (2.0, 0.0)):
        hit = np.abs(sigma - knot) < 1e-12
        _expect(bool(hit.any()) and bool(np.all(delta[hit] == value)), f"knot {knot} is not {value}")
    return {}


def check_perr(text: str) -> dict:
    """Every column equals min(1, snr^(-l(1-r))) on the 0:40:0.02 dB grid."""
    _, cols, rows = _parse_csv(text, "perr")
    want_cols = ["snr_db", "p_single"] + [f"p_amqd_l{v}" for v in PERR_L]
    _expect(cols == want_cols, f"bad columns {cols}")
    _expect(len(rows) == PERR_POINTS, f"expected {PERR_POINTS} rows, got {len(rows)}")
    table = np.array(rows, dtype=float)
    db = np.array([i * 0.02 for i in range(PERR_POINTS)])
    snr = 10.0 ** (db / 10.0)
    _expect(_close(table[:, 0], db, 1e-8, 1e-9), "snr_db column differs")
    for col, l in enumerate((1,) + PERR_L, start=1):
        ref = np.minimum(1.0, snr ** (-l * (1.0 - PERR_MULTIPLEX)))
        _expect(_close(table[:, col], ref, 2e-8), f"column {cols[col]} differs from the power law")
    return {}


def check_rates(text: str, *, re_t: np.ndarray) -> dict:
    """fade_sq = 2 re_t^2 per row, and the total row is the sum of the rows."""
    _, cols, rows = _parse_csv(text, "rates")
    want_cols = ["index", "fade_sq", "attack_noise", "capacity", "svd_capacity", "private", "svd_private"]
    _expect(cols == want_cols, f"bad columns {cols}")
    _expect(len(rows) == re_t.size + 1, f"expected {re_t.size} sub-channels")
    total = rows[-1]
    _expect(total[:3] == ["total", "", ""], "missing total row")
    table = np.array(rows[:-1], dtype=float)
    _expect(bool(np.all(table[:, 0] == np.arange(re_t.size))), "indices out of order")
    _expect(_close(table[:, 1], 2.0 * re_t**2, 1e-8), "fade_sq differs from 2 re_t^2")
    sums = table[:, 3:].sum(axis=0)
    _expect(_close(np.array(total[3:], dtype=float), sums, 1e-8), "total row differs from the sum")
    return {}


def check_svd(text: str, *, matrix: np.ndarray) -> dict:
    """recon_error <= 1e-10 and eigenchannels = sqrt(eigvalsh(F F^H))."""
    _, cols, rows = _parse_csv(text, "svd")
    _expect(cols == ["index", "eigenchannel"], f"bad columns {cols}")
    dim = min(matrix.shape)
    _expect(len(rows) == dim + 1 and rows[-1][0] == "recon_error", "bad row layout")
    _expect(float(rows[-1][1]) <= 1e-10, f"recon_error {rows[-1][1]} above 1e-10")
    lam = np.array([float(r[1]) for r in rows[:-1]])
    ref = np.sqrt(np.clip(np.linalg.eigvalsh(matrix @ matrix.conj().T), 0.0, None))[::-1]
    _expect(_close(lam, ref, 1e-8, 1e-8 * ref[0]), "eigenchannels differ from eigvalsh")
    return {}


def check_constellation(text: str) -> dict:
    """Every spread sub-channel is a permutation of the base points."""
    _, cols, rows = _parse_csv(text, "constellation")
    _expect(cols == ["subchannel", "index", "re", "im"], f"bad columns {cols}")
    n = 2**CONSTELLATION_BITS
    _expect(len(rows) == n * CONSTELLATION_L, f"expected {n * CONSTELLATION_L} rows")
    by_sub: dict = {}
    for sub, _, re_part, im_part in rows:
        by_sub.setdefault(sub, []).append((re_part, im_part))
    base = sorted(by_sub.get("1", []))
    _expect(len(base) == n and len(set(base)) == n, "base points not distinct")
    for sub in range(2, CONSTELLATION_L + 1):
        _expect(sorted(by_sub.get(str(sub), [])) == base, f"sub-channel {sub} is not a permutation")
    return {}


# ---------------------------------------------------------------- workloads


def _step(workdir: Path, name: str, argv: list, check) -> Step:
    out = workdir / f"{name}.csv"
    return Step([*argv, "-o", str(out)], out, check)


def _mc_argv(mode: str, l: int, snr, threads: int, seed: int, extra=()) -> list:
    return [
        "mc", "--mode", mode, "--l", str(l), *extra,
        "--snr", ",".join(f"{s:g}" for s in snr),
        "--trials", str(MC_TRIALS), "--threads", str(threads), "--seed", str(seed),
    ]


def build(name: str, seed: int, workdir: Path, cli) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed`` under ``workdir``
    and return its steps.  ``mc_rate_wide`` also makes its ``--threads 1``
    reference here, timed once, outside any measurement."""
    rng = np.random.default_rng(seed)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "mc_grid":
        mc_seed = int(rng.integers(1, 2**31))
        argv = _mc_argv("mean_fade", GRID_L, GRID_SNR, 1, mc_seed)
        step = _step(workdir, name, argv, lambda text: check_mean_fade(text, seed=mc_seed))
        points = MC_TRIALS * len(GRID_SNR)
        return Workload(name, [step], points, fade_shape=(points, GRID_L))
    if name == "mc_rate_wide":
        mc_seed = int(rng.integers(1, 2**31))
        extra = ("--multiplex", str(WIDE_MULTIPLEX))
        serial = _step(workdir, "serial", _mc_argv("rate", WIDE_L, WIDE_SNR, 1, mc_seed, extra), None)
        start = perf_counter()
        code = cli.main(serial.argv)
        serial_s = perf_counter() - start
        if code != 0:
            raise CheckFailed(f"--threads 1 reference exited {code}")
        reference = serial.output.read_text(encoding="utf-8")
        check_rate(reference, seed=mc_seed, reference=None)
        argv = _mc_argv("rate", WIDE_L, WIDE_SNR, 2, mc_seed, extra)
        step = _step(workdir, name, argv, lambda text: check_rate(text, seed=mc_seed, reference=reference))
        points = MC_TRIALS * len(WIDE_SNR)
        return Workload(name, [step], points, fade_shape=(points, WIDE_L), serial_reference_s=serial_s)
    if name == "tables":
        channel = workdir / "channel.txt"
        matrix_path = workdir / "matrix.csv"
        re_t = write_channel_file(channel, rng)
        matrix = write_matrix_file(matrix_path, rng)
        constellation_seed = int(rng.integers(0, 2**31))
        steps = [
            _step(workdir, "tradeoff", ["tradeoff", "--kind", "multiaccess_in_le_out",
                                        "--k-in", "2", "--k-out", "4", "--grid", "0:2:0.0005"],
                  check_tradeoff),
            _step(workdir, "perr", ["perr", "--snr", "0:40:0.02", "--snr-unit", "db",
                                    "--multiplex", str(PERR_MULTIPLEX), "--l", ",".join(map(str, PERR_L))],
                  check_perr),
            _step(workdir, "rates", ["rates", "--channel", str(channel), "--mod-variance",
                                     str(MOD_VARIANCE), "--gain-c", str(GAIN_C)],
                  lambda text: check_rates(text, re_t=re_t)),
            _step(workdir, "svd", ["svd", "--matrix", str(matrix_path)],
                  lambda text: check_svd(text, matrix=matrix)),
            _step(workdir, "constellation", ["constellation", "--bits", str(CONSTELLATION_BITS),
                                             "--l", str(CONSTELLATION_L), "--seed", str(constellation_seed)],
                  check_constellation),
        ]
        rows = TRADEOFF_POINTS + PERR_POINTS + (SUBCHANNELS + 1) + (MATRIX_DIM + 1)
        rows += 2**CONSTELLATION_BITS * CONSTELLATION_L
        inputs = {p.name: sha256_file(p) for p in (channel, matrix_path)}
        return Workload(name, steps, rows, inputs=inputs)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
