"""Monte Carlo estimation of fading-outage probabilities and diversity slopes.

Randomness contract (0.4.0): the values of trial t are a pure function of
(seed, t), shared by every SNR grid point.  Trials are generated in
fixed-size blocks of at most 65536 trials and 2**20 values; block b of a run
draws from an SFC64 generator seeded by
``SeedSequence(entropy=seed, spawn_key=(b,))``, so every (seed, block) pair
has its own stream and no generator state passes between blocks.  Trial t
takes the next l values of its block's stream.  Seeds are the non-negative
integers, without bound.  Each block is drawn once, row chunk by row chunk
into one buffer of about 512 KiB; a stream drawn in pieces gives the same
values as one drawn whole, so the chunk size is invisible.  Every grid point
counts its events from that one draw.  With W worker threads, worker w
counts blocks w, w + W, w + 2W, ... into buffers of its own, allocated for
the call, and the caller sums the W integer count vectors.  Estimates are
therefore bit-identical no matter how many worker threads partition the
blocks, and the count at one grid point does not depend on which other
points are in the grid.

Two outage events are supported over l i.i.d. exponential squared fades
|F_i|^2 with mean v = ``fade_variance``:

  * mean-fade outage:  (1/l) * sum_i |F_i|^2 < 1/snr
    (analytically the regularised gamma P(l, l/(snr*v)))
  * rate outage:       sum_i log2(1 + |F_i|^2 * snr) < l * rate(snr)
    with the threshold rate(snr) = multiplex_ratio * log2(snr)

The two modes draw different streams.  Rate mode draws ziggurat
exponentials, |F_i|^2 = v * E_i, as in 0.3.0.  Mean-fade mode draws
uniforms U_i in [0, 1) and defines |F_i|^2 = -v * ln U_i (a zero uniform is
an infinite fade), so the event is -sum_i ln U_i < l/(snr*v), decided as
prod_i U_i > exp(-l/(snr*v)) with no log per fade.  Where that floor is no
normal double (l/(snr*v) above about 708) the product may underflow, and the
log-sum itself decides.  The product and log-sum forms round differently, so
they can disagree only on a trial whose sum lies within rounding of the
threshold.

Both events reduce over the l values of a trial on a transposed copy of
each row chunk, an (l, rows) array, so that the sums and products run
across rows instead of along short rows.  The rate event is compared as a
product, prod_i (1 + |F_i|^2 * snr) < 2**(l * rate), with no log2 per
fade, wherever 2**(l * rate) is a finite double (l * rate < 1024); a
product that overflows to inf is then rightly not an event.  Grid points
with l * rate >= 1024 are decided by the log-sum itself.  For l >= 8 the
rate log-sum also adds the l terms in a different order than the first
0.2.0 kernels (one after another instead of numpy's pairwise row sum), so a
trial whose summed rate lies within rounding of its threshold can count
differently.

Configurations whose outage probability is below 1e-8 at some grid point,
zero included, are refused up front: no affordable number of trials could
resolve them, and the power-law formulas cover that regime analytically.
Mean-fade mode refuses on the exact P(l, l/(snr*v)).  Rate mode refuses on
an upper bound on its outage, the Chernoff bound at theta = 1, so that it
refuses only points that sampling truly cannot resolve; a zero rate is an
impossible event.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import special

from .errors import DegenerateInputError, InsufficientTrialsError

_BLOCK = 1 << 16
_MAX_BLOCK_VALUES = 1 << 20
_CHUNK_VALUES = 1 << 16
_MIN_ANALYTIC_P = 1e-8


@dataclass(frozen=True)
class TrialConfig:
    """One Monte Carlo run: l faded sub-channels sampled ``trials`` times at
    every SNR grid point."""

    l: int
    multiplex_ratio: float
    snr_grid: tuple
    trials: int
    seed: int
    fade_variance: float = 1.0

    def __post_init__(self):
        if not 1 <= self.l <= _MAX_BLOCK_VALUES:
            raise ValueError(f"l must lie in [1, {_MAX_BLOCK_VALUES}], got {self.l}")
        if not 0.0 <= self.multiplex_ratio <= 1.0:
            raise ValueError(
                f"multiplex_ratio must lie in [0, 1], got {self.multiplex_ratio}"
            )
        grid = tuple(float(s) for s in self.snr_grid)
        if len(grid) < 3:
            raise ValueError(f"snr_grid needs at least 3 points, got {len(grid)}")
        if not all(math.isfinite(s) and s > 1.0 for s in grid):
            raise ValueError("every snr grid value must be finite and exceed 1")
        if self.trials < 1000:
            raise ValueError(f"trials must be >= 1000, got {self.trials}")
        if not (math.isfinite(self.fade_variance) and self.fade_variance > 0):
            raise ValueError(
                f"fade_variance must be finite and positive, got {self.fade_variance}"
            )
        seed = int(self.seed)
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        object.__setattr__(self, "snr_grid", grid)
        object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class EmpiricalOutage:
    """Per-grid-point outage estimates with Wilson confidence bounds and the
    fitted diversity exponent (positive for decaying outage)."""

    snr_grid: tuple
    p_hat: tuple
    ci_low: tuple
    ci_high: tuple
    slope: float
    slope_stderr: float
    successes: tuple
    trials: int

    def __post_init__(self):
        for name in ("snr_grid", "p_hat", "ci_low", "ci_high", "successes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for lo, p, hi in zip(self.ci_low, self.p_hat, self.ci_high):
            if not 0.0 <= lo <= p <= hi <= 1.0:
                raise ValueError(
                    f"confidence bounds must satisfy 0 <= {lo} <= {p} <= {hi} <= 1"
                )

    def to_csv(self, precision: int = 9) -> str:
        """CSV rows ``snr,p_hat,ci_low,ci_high`` plus a slope/stderr trailer."""
        if precision < 1:
            raise ValueError(f"precision must be >= 1, got {precision}")
        fmt = f"{{:.{precision}g}}"
        lines = ["snr,p_hat,ci_low,ci_high"]
        for snr, p, lo, hi in zip(self.snr_grid, self.p_hat, self.ci_low, self.ci_high):
            lines.append(",".join(fmt.format(v) for v in (snr, p, lo, hi)))
        lines.append(f"slope,{fmt.format(self.slope)},stderr,{fmt.format(self.slope_stderr)}")
        return "\n".join(lines) + "\n"


class SlopeFit(NamedTuple):
    slope: float
    stderr: float


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    z = float(special.ndtri(0.5 + confidence / 2.0))
    n = float(trials)
    p = successes / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    # The bound is exactly 0 (or 1) at the boundary counts; rounding in the
    # centre/half cancellation must not leak a tiny residue past p_hat.
    lower = 0.0 if successes == 0 else max(centre - half, 0.0)
    upper = 1.0 if successes == trials else min(centre + half, 1.0)
    return lower, upper


def fit_diversity_slope(snr_grid, p_hats) -> SlopeFit:
    """Least-squares slope of log2(p_hat) against log2(snr) with its standard
    error.  Zero estimates are excluded with a warning; fewer than three
    surviving points, or a constant snr grid, make the fit impossible."""
    grid = np.asarray(snr_grid, dtype=float)
    p = np.asarray(p_hats, dtype=float)
    if grid.shape != p.shape or grid.ndim != 1:
        raise ValueError("snr_grid and p_hats must be equal-length vectors")
    if np.any(grid <= 0) or np.any(p < 0) or np.any(p > 1):
        raise ValueError("snr values must be positive and p_hats probabilities")
    keep = p > 0
    if not np.all(keep):
        warnings.warn(
            f"excluding {int(np.count_nonzero(~keep))} zero outage estimate(s) from the "
            "slope fit",
            stacklevel=2,
        )
    grid, p = grid[keep], p[keep]
    if grid.size < 3:
        raise InsufficientTrialsError(
            f"slope fit needs at least 3 nonzero points, got {grid.size}"
        )
    x = np.log2(grid)
    y = np.log2(p)
    if np.ptp(x) == 0.0:
        raise DegenerateInputError("snr grid is constant; slope undefined")
    xc = x - x.mean()
    slope = float(np.sum(xc * y) / np.sum(xc * xc))
    resid = y - (y.mean() + slope * xc)
    dof = x.size - 2
    if dof > 0:
        stderr = float(np.sqrt(np.sum(resid**2) / dof / np.sum(xc * xc)))
    else:
        stderr = 0.0
    return SlopeFit(slope, stderr)


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    """The SFC64 generator of block ``block_index`` in a run seeded ``seed``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.SFC64(ss))


def _block_fades(
    rng: np.random.Generator, draw: Callable[[np.random.Generator, np.ndarray], None],
    out: np.ndarray,
) -> np.ndarray:
    """Fill ``out`` (rows x l) with the next values of a block's stream ``rng``,
    as ``draw(rng, out)`` makes them, and return it.  Every chunk of both
    modes is drawn through here, so one wrapper sees every draw."""
    draw(rng, out)
    return out


def _count_events(
    cfg: TrialConfig,
    draw: Callable[[np.random.Generator, np.ndarray], None],
    events: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    threads: int,
) -> list[int]:
    """Per grid point, the number of trials in which the event occurs.

    ``draw(rng, out)`` fills a C-contiguous (rows, l) array with the next
    values of a block's stream, one row per trial.  ``events(cols, work,
    row)`` maps a chunk of them, copied to a C-contiguous (l, rows) array
    ``cols``, to a vector of event counts, one per grid point; ``work``
    (shaped like ``cols``) and ``row`` (one value per row) are scratch.  Each
    block is drawn once, in row chunks.  With W workers, worker w counts
    blocks w, w + W, ... into its own buffers and the W count vectors are
    summed.  At most ``os.cpu_count()`` workers run."""
    # the block size keys the streams; wide trials shrink the block to at
    # most _MAX_BLOCK_VALUES values, and TrialConfig bounds l by the same
    rows = min(_BLOCK, _MAX_BLOCK_VALUES // cfg.l)
    n_blocks = -(-cfg.trials // rows)
    # a block is drawn and counted in row chunks of about 512 KiB, which stay
    # in cache from the draw through every grid point
    chunk = max(1, _CHUNK_VALUES // cfg.l)
    workers = min(threads, os.cpu_count() or 1, n_blocks)

    def count_blocks(first: int) -> np.ndarray:
        drawn = np.empty(cfg.l * chunk)
        cols = np.empty(cfg.l * chunk)
        row = np.empty(chunk)
        counts = np.zeros(len(cfg.snr_grid), dtype=np.int64)
        for block_index in range(first, n_blocks, workers):
            rng = _block_rng(cfg.seed, block_index)
            count = min(rows, cfg.trials - block_index * rows)
            for lo in range(0, count, chunk):
                n = min(chunk, count - lo)
                part = _block_fades(rng, draw, drawn[: n * cfg.l].reshape(n, cfg.l))
                # a C-contiguous (l, rows) copy, so that reductions over l run
                # across rows instead of along short rows; the drawn chunk is
                # then spent and serves as scratch
                part_cols = cols[: part.size].reshape(cfg.l, n)
                np.copyto(part_cols, part.T)
                counts += events(part_cols, drawn[: part.size].reshape(cfg.l, n), row[:n])
        return counts

    if workers == 1:
        total = count_blocks(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            total = sum(pool.map(count_blocks, range(workers)))
    return [int(c) for c in total]


def _refuse_rare(cfg: TrialConfig, probabilities: list[float], what: str) -> None:
    """Refuse the grid if the outage probability of some point is below
    _MIN_ANALYTIC_P, zero and NaN included; ``probabilities`` holds one value
    per point."""
    for snr, analytic in zip(cfg.snr_grid, probabilities):
        if not analytic >= _MIN_ANALYTIC_P:
            raise InsufficientTrialsError(
                f"refusing {what} at snr={snr:g}: analytic outage probability "
                f"{analytic:.3e} is below {_MIN_ANALYTIC_P:g} and cannot be resolved "
                "by sampling; use the closed-form power laws for this regime"
            )


def _assemble(cfg: TrialConfig, successes: list[int]) -> EmpiricalOutage:
    p_hat = [s / cfg.trials for s in successes]
    bounds = [wilson_interval(s, cfg.trials) for s in successes]
    ci_low = [b[0] for b in bounds]
    ci_high = [b[1] for b in bounds]

    def build(slope: float, stderr: float) -> EmpiricalOutage:
        return EmpiricalOutage(
            cfg.snr_grid, p_hat, ci_low, ci_high, slope, stderr,
            tuple(successes), cfg.trials,
        )

    if all(s == 0 for s in successes):
        raise InsufficientTrialsError(
            f"no outage events in {cfg.trials} trials at any grid point; "
            "increase trials or lower the snr grid",
            outage=build(math.nan, math.nan),
        )
    try:
        fit = fit_diversity_slope(cfg.snr_grid, p_hat)
    except InsufficientTrialsError as exc:
        raise InsufficientTrialsError(str(exc), outage=build(math.nan, math.nan)) from None
    return build(-fit.slope, fit.stderr)


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


def _count_above(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per bound, how many ``values`` exceed it.  Only values above the
    lowest bound can count anywhere; sorting just those lets one searchsorted
    serve every bound.  ``compress`` selects them faster than a boolean
    index does."""
    above = np.sort(np.compress(values > bounds.min(), values))
    return above.size - np.searchsorted(above, bounds, side="right")


def estimate_mean_fade_outage(cfg: TrialConfig, threads: int = 1) -> EmpiricalOutage:
    """Estimate Pr[(1/l) * sum |F_i|^2 < 1/snr] over the SNR grid and fit the
    diversity slope of the estimates.  At most ``os.cpu_count()`` worker
    threads are used, whatever ``threads`` asks for."""
    _check_threads(threads)
    limits = np.array([cfg.l / (snr * cfg.fade_variance) for snr in cfg.snr_grid])
    _refuse_rare(cfg, special.gammainc(cfg.l, limits).tolist(), "mean-fade outage")
    # With F_i = -v ln U_i a trial is an outage where -sum_i ln U_i < limit,
    # that is where prod_i U_i > exp(-limit).  Where that floor is no normal
    # double the product may underflow, and the log-sum decides.  math.exp
    # rounds the same on every machine; numpy's SIMD exp need not.
    floors = np.array([math.exp(-limit) for limit in limits.tolist()])
    by_product = floors >= np.finfo(float).tiny
    product_at, log_at = np.flatnonzero(by_product), np.flatnonzero(~by_product)
    product_floors, log_bounds = floors[product_at], -limits[log_at]

    def events(cols: np.ndarray, work: np.ndarray, row: np.ndarray) -> np.ndarray:
        counts = np.empty(len(cfg.snr_grid), dtype=np.int64)
        if product_at.size:
            np.multiply.reduce(cols, axis=0, out=row)
            counts[product_at] = _count_above(row, product_floors)
        if log_at.size:
            # a zero uniform is an infinite fade: its log-sum is -inf, no event
            with np.errstate(divide="ignore"):
                np.log(cols, out=work)
            np.add.reduce(work, axis=0, out=row)
            counts[log_at] = _count_above(row, log_bounds)
        return counts

    def draw(rng: np.random.Generator, out: np.ndarray) -> None:
        rng.random(out=out)

    return _assemble(cfg, _count_events(cfg, draw, events, threads))


def _pow2(x: float) -> float:
    """2**x, or inf where it exceeds the largest double (x >= 1024)."""
    return 2.0**x if x < 1024 else math.inf


def _rate_outage_bound(cfg: TrialConfig) -> list[float]:
    """Per grid point, the Chernoff bound at theta = 1 on the rate outage
    Pr[prod_i (1 + a E_i) < 2**(l * rate)], a = snr * v, E_i ~ Exp(1):
    2**(l * rate) * E[1/(1 + a E)]**l, with E[1/(1 + a E)] = U(1, 1, 1/a)/a
    and U(1, 1, x) = e**x * E1(x) Tricomi's confluent hypergeometric
    function.  It is formed in log2 and capped at 1; a zero rate gives 0."""
    with np.errstate(over="ignore"):
        a = np.asarray(cfg.snr_grid) * cfg.fade_variance
    # E[1/(1 + a E)] falls as a grows, so a capped a still bounds from above;
    # below a = 1e-300 the mean is 1 to double precision
    a = np.clip(a, 1e-300, 1e300)
    rates = cfg.multiplex_ratio * np.log2(cfg.snr_grid)
    log2_bound = cfg.l * (rates + np.log2(special.hyperu(1.0, 1.0, 1.0 / a) / a))
    return np.where(rates > 0, np.exp2(np.minimum(log2_bound, 0.0)), 0.0).tolist()


def estimate_rate_outage(cfg: TrialConfig, threads: int = 1) -> EmpiricalOutage:
    """Estimate Pr[sum_i log2(1 + |F_i|^2 * snr) < l * rate] over the SNR grid,
    where rate = multiplex_ratio * log2(snr), and fit the diversity slope of
    the estimates.  Threads are capped as in
    :func:`estimate_mean_fade_outage`."""
    _check_threads(threads)
    _refuse_rare(cfg, _rate_outage_bound(cfg), "rate outage")
    rates = [cfg.multiplex_ratio * math.log2(snr) for snr in cfg.snr_grid]
    targets = [cfg.l * rate for rate in rates]
    # where 2**target is no finite double, the log-sum decides
    bounds = [_pow2(target) for target in targets]

    def events(cols: np.ndarray, work: np.ndarray, row: np.ndarray) -> list[int]:
        counts = []
        for snr, target, bound in zip(cfg.snr_grid, targets, bounds):
            np.multiply(cols, snr, out=work)
            work += 1.0
            if bound < math.inf:
                # a product that overflows to inf is rightly not below the bound
                with np.errstate(over="ignore"):
                    np.multiply.reduce(work, axis=0, out=row)
                counts.append(np.count_nonzero(row < bound))
            else:
                np.log2(work, out=work)
                np.add.reduce(work, axis=0, out=row)
                counts.append(np.count_nonzero(row < target))
        return counts

    def draw(rng: np.random.Generator, out: np.ndarray) -> None:
        rng.standard_exponential(out=out)
        out *= cfg.fade_variance

    return _assemble(cfg, _count_events(cfg, draw, events, threads))
