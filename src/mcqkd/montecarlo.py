"""Monte Carlo estimation of fading-outage probabilities and diversity slopes.

Randomness contract (0.5.0): both modes draw one stream of uniforms, and the
values of trial t are a pure function of (seed, t), shared by every SNR grid
point.  Trials are generated in blocks of min(65536, 2**20 // l) trials;
block b of a run draws from an SFC64 generator seeded by
``SeedSequence(entropy=seed, spawn_key=(b,))``, so every (seed, block) pair
has its own stream.  Seeds are the non-negative integers, without bound.
Each block is drawn in chunks of n = max(1, 65536 // l) trials, the last one
ragged; a chunk takes the next l * n ``rng.random`` uniforms U in [0, 1) of
its block's stream, in C order, into an (l, n) array, so fade i of the
chunk's trial j is value i * n + j.  That layout is part of the contract,
as the block size is, and every event reduces over a trial's l fades
across the chunk.  Every grid point counts its events from that one draw.
With W worker threads, worker w counts blocks w, w + W, w + 2W, ... into
buffers of its own and the caller sums the W integer count vectors.  Counts
are therefore bit-identical no matter how many worker threads partition the
blocks, and the count at one grid point does not depend on which other
points are in the grid.

Two outage events are supported over l i.i.d. exponential squared fades
|F_i|^2 = -v ln U_i with mean v = ``fade_variance``; a zero uniform is an
infinite fade and never an event:

  * mean-fade outage:  (1/l) * sum_i |F_i|^2 < 1/snr
    (analytically the regularised gamma P(l, l/(snr*v)))
  * rate outage:       sum_i log2(1 + |F_i|^2 * snr) < l * rate(snr)
    with the threshold rate(snr) = multiplex_ratio * log2(snr)

Mean-fade mode decides -sum_i ln U_i < l/(snr*v) as
prod_i U_i > exp(-l/(snr*v)), with no log per fade, wherever that floor is
a normal double (l/(snr*v) below about 708); elsewhere the log-sum decides.
Rate mode takes ln U in place once per chunk for every grid point.  With
a = snr * v its event is prod_i (1/a - ln U_i) < (2**rate / a)**l: one
subtraction pass and one product per point, wherever the bound is a normal
double and no partial product can leave the normal range; elsewhere the
log-sum decides.  The two forms round differently, so they can disagree
only on a trial within rounding of its threshold.  So can two CPUs: on an
AVX-512 host numpy's float64 log differs from ``math.log`` by one ulp on
7,032 of the 2,000,000 uniforms of seed 2014, block 0.  Thread-count
invariance stays exact.

Configurations whose outage probability is below 1e-8 at some grid point,
zero included, are refused up front: no affordable number of trials could
resolve them, and the power-law formulas cover that regime analytically.
Mean-fade mode refuses on the exact P(l, l/(snr*v)).  Rate mode refuses on
an upper bound on its outage, the Chernoff bound at theta = 1, so that it
refuses only points that sampling truly cannot resolve; a zero rate is an
impossible event.

The diversity slope is the least-squares slope of log2 p_hat against
log2 snr over the grid points with at least one event, fitted in
``_assemble``; ``EmpiricalOutage.excluded`` counts the zero estimates left
out.  A constant grid (one value of log2 snr) is refused before sampling.
Every failure after sampling (no events, fewer than three fitted points, or
all of them at one snr value) is an ``InsufficientTrialsError`` that carries
the partial result, with a NaN slope, as its ``outage``.

Both refusals, and the Wilson z, are plain Python, so no run loads scipy.
The regularised gamma P(l, x) is the series of Abramowitz & Stegun 6.5.29
for x < l + 1 and otherwise 1 - Q(l, x), with Q the continued fraction of
A&S 6.5.31; each takes O(sqrt(l)) terms, and its prefactor
x**l e**-x / l! is formed without cancellation.  The rate bound's
U(1, 1, x) = e**x E1(x) is the series of A&S 5.1.11 for x < 1 and
otherwise the same continued fraction at l = 0, since E1(x) = Gamma(0, x)
(A&S 5.1.22); it runs by the modified Lentz method.  The default Wilson z
is the correctly rounded 97.5% normal quantile.
"""

from __future__ import annotations

import math
import operator
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DomainError, InsufficientTrialsError, _table

_BLOCK = 1 << 16
_MAX_BLOCK_VALUES = 1 << 20
_CHUNK_VALUES = 1 << 16
_MIN_ANALYTIC_P = 1e-8
# -ln U is at most -ln(2**-53) = 36.74 for a nonzero uniform of rng.random
_MAX_FADE = 36.8
# the 97.5% quantile of the standard normal, correctly rounded
_Z95 = 1.959963984540054
_EULER_GAMMA = 0.5772156649015329
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
# Stirling's series of ln Gamma(a + 1) - (a + 1/2) ln a + a - ln(2 pi)/2 in
# powers of 1/a: the coefficients of 1/a, 1/a**3, ..., 1/a**11
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
# the modified Lentz method restarts a vanishing denominator at _TINY; its
# continued fraction converges in O(sqrt(l)) terms, far below _MAX_TERMS
_TINY = 1e-300
_MAX_TERMS = 1 << 16


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
        # stored as plain ints; a float is refused, not truncated
        for name in ("l", "trials", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "snr_grid", grid)


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
    excluded: int = 0  # zero estimates left out of the slope fit

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
        rows = [*zip(self.snr_grid, self.p_hat, self.ci_low, self.ci_high),
                ("slope", self.slope, "stderr", self.slope_stderr)]
        return _table(("snr", "p_hat", "ci_low", "ci_high"), rows, precision)


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, ``z`` standard
    deviations wide on each side (95% by default)."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")
    if not (math.isfinite(z) and z > 0.0):
        raise ValueError(f"z must be finite and positive, got {z}")
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


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    """The SFC64 generator of block ``block_index`` in a run seeded ``seed``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.SFC64(ss))


def _block_fades(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out``, a C-contiguous (l, n) chunk, with the next l * n uniforms
    of a block's stream ``rng`` in C order and return it; column j holds the
    uniforms of the chunk's trial j.  Every chunk of both modes is drawn
    here, so one wrapper sees every draw."""
    rng.random(out=out)
    return out


def _count_events(
    cfg: TrialConfig,
    events: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    threads: int,
) -> list[int]:
    """Per grid point, the number of trials in which the event occurs.

    ``events(uniforms, work, row)`` maps one chunk of n trials, the (l, n)
    uniforms of :func:`_block_fades`, to a vector of event counts, one per
    grid point; it may overwrite ``uniforms``, and ``work`` (shaped like
    ``uniforms``) and ``row`` (n values) are scratch.  With W workers,
    worker w counts blocks w, w + W, ... into its own buffers and the W
    count vectors are summed.  At most ``os.cpu_count()`` workers run."""
    # the block size keys the streams; wide trials shrink the block to at
    # most _MAX_BLOCK_VALUES values, and TrialConfig bounds l by the same
    rows = min(_BLOCK, _MAX_BLOCK_VALUES // cfg.l)
    n_blocks = -(-cfg.trials // rows)
    # the chunk size fixes which values each trial takes; a chunk of about
    # 512 KiB stays in cache from the draw through every grid point
    chunk = max(1, _CHUNK_VALUES // cfg.l)
    workers = min(threads, os.cpu_count() or 1, n_blocks)

    def count_blocks(first: int) -> np.ndarray:
        drawn = np.empty(cfg.l * chunk)
        work = np.empty(cfg.l * chunk)
        row = np.empty(chunk)
        counts = np.zeros(len(cfg.snr_grid), dtype=np.int64)
        for block_index in range(first, n_blocks, workers):
            rng = _block_rng(cfg.seed, block_index)
            count = min(rows, cfg.trials - block_index * rows)
            for lo in range(0, count, chunk):
                n = min(chunk, count - lo)
                uniforms = _block_fades(rng, drawn[: cfg.l * n].reshape(cfg.l, n))
                counts += events(uniforms, work[: cfg.l * n].reshape(cfg.l, n), row[:n])
        return counts

    if workers == 1:
        total = count_blocks(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            total = sum(pool.map(count_blocks, range(workers)))
    return [int(c) for c in total]


def _log_poisson_weight(a: float, x: float) -> float:
    """ln(x**a e**-x / Gamma(a + 1)) for a, x > 0, as a ln(x/a) - (x - a)
    - ln(2 pi a)/2 - mu(a), so that no large terms cancel: ln(x/a) is a
    log1p near x = a, and mu(a) is Stirling's series from a = 16."""
    if x >= 0.5 * a:
        ratio = math.log1p((x - a) / a)
    else:
        # x / a rounds by half an ulp at most, unless a subnormal x underflows
        ratio = math.log(x / a) if x / a > 0.0 else math.log(x) - math.log(a)
    if a < 16.0:
        mu = math.lgamma(a + 1.0) - (a + 0.5) * math.log(a) + a - _HALF_LN_2PI
    else:
        mu = 0.0
        for c in reversed(_STIRLING):
            mu = mu / (a * a) + c
        mu /= a
    return a * ratio - (x - a) - 0.5 * math.log(a) - _HALF_LN_2PI - mu


def _gamma_fraction(s: float, x: float) -> float:
    """Gamma(s, x) e**x / x**s for x >= max(s + 1, 1): the continued fraction
    1 / (x + 1 - s - 1 (1 - s) / (x + 3 - s - 2 (2 - s) / ...)) of A&S 6.5.31
    by the modified Lentz method.  At s = 0 it is e**x E1(x), A&S 5.1.22."""
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = h = 1.0 / b
    for i in range(1, _MAX_TERMS):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= _TINY else _TINY)
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        h *= c * d
        if abs(c * d - 1.0) <= sys.float_info.epsilon:
            break
    return h


def _gamma_p(a: float, x: float) -> float:
    """The regularised lower incomplete gamma P(a, x) for a > 0, x >= 0: the
    series of A&S 6.5.29 where x < a + 1, elsewhere 1 - Q(a, x) with Q by
    :func:`_gamma_fraction`."""
    if x == math.inf:
        return 1.0
    if not x > 0.0:
        return 0.0
    if x < a + 1.0:
        # sum_n x**n / ((a + 1) ... (a + n)); every ratio x / (a + n) is below 1
        term = total = 1.0
        n = a
        while term > total * sys.float_info.epsilon:
            n += 1.0
            term *= x / n
            total += term
        return total * math.exp(_log_poisson_weight(a, x))
    return 1.0 - a * _gamma_fraction(a, x) * math.exp(_log_poisson_weight(a, x))


def _exp_e1(x: float) -> float:
    """e**x E1(x), Tricomi's U(1, 1, x), for x > 0: the series of A&S 5.1.11
    where x < 1, elsewhere the continued fraction of Gamma(0, x) = E1(x)."""
    if x < 1.0:
        # E1(x) = -gamma - ln x - sum_k (-x)**k / (k k!); the terms past k = 19
        # are below 1e-19, and E1(x) above 0.2
        term, total = 1.0, 0.0
        for k in range(1, 20):
            term *= -x / k
            total += term / k
        return math.exp(x) * (-_EULER_GAMMA - math.log(x) - total)
    return _gamma_fraction(0.0, x)


def _assemble(cfg: TrialConfig, successes: list[int]) -> EmpiricalOutage:
    p_hat = [s / cfg.trials for s in successes]
    ci_low, ci_high = zip(*(wilson_interval(s, cfg.trials) for s in successes))
    grid = [snr for snr, s in zip(cfg.snr_grid, successes) if s]
    # an all-zero grid is refused before any fit, so nothing is left out
    excluded = len(successes) - len(grid) if grid else 0
    partial = EmpiricalOutage(
        cfg.snr_grid, p_hat, ci_low, ci_high, math.nan, math.nan,
        tuple(successes), cfg.trials, excluded,
    )
    if not grid:
        raise InsufficientTrialsError(
            f"no outage events in {cfg.trials} trials at any grid point; "
            "increase trials or lower the snr grid",
            outage=partial,
        )
    if len(grid) < 3:
        raise InsufficientTrialsError(
            f"slope fit needs at least 3 nonzero points, got {len(grid)}", outage=partial
        )
    # least squares of log2 p_hat on log2 snr over the positive estimates
    x = np.log2(grid)
    y = np.log2([p for p in p_hat if p])
    if np.ptp(x) == 0.0:  # the grid is not constant: _estimate refuses that
        raise InsufficientTrialsError("slope undefined: every nonzero estimate is at one snr "
                                      f"value, {grid[0]:g}; increase trials", outage=partial)
    xc = x - x.mean()
    slope = float(np.sum(xc * y) / np.sum(xc * xc))
    resid = y - (y.mean() + slope * xc)
    # at least 3 points remain, so the residuals have x.size - 2 >= 1 dof
    stderr = float(np.sqrt(np.sum(resid**2) / (x.size - 2) / np.sum(xc * xc)))
    return replace(partial, slope=-slope, slope_stderr=stderr)


def _count_above(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per bound, how many ``values`` exceed it.  Only values above the
    lowest bound can count anywhere; sorting just those lets one searchsorted
    serve every bound.  ``compress`` selects them faster than a boolean
    index does."""
    above = np.sort(np.compress(values > bounds.min(), values))
    return above.size - np.searchsorted(above, bounds, side="right")


def _estimate(cfg: TrialConfig, threads: int, probabilities: list[float], what: str,
              measure: str, events: Callable) -> EmpiricalOutage:
    """Check ``threads``, refuse the grid if the outage probability of some
    point is below _MIN_ANALYTIC_P (zero and NaN included) or if the grid is
    constant, then count the ``events`` kernel of :func:`_count_events` and
    assemble the estimates.
    ``probabilities`` holds one value per point, and ``measure`` names what
    it is (the probability itself or an upper bound on it)."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    for snr, analytic in zip(cfg.snr_grid, probabilities):
        if not analytic >= _MIN_ANALYTIC_P:
            raise InsufficientTrialsError(
                f"refusing {what} at snr={snr:g}: {measure} "
                f"{analytic:.3e} is below {_MIN_ANALYTIC_P:g} and cannot be resolved "
                "by sampling; use the closed-form power laws for this regime"
            )
    if np.ptp(np.log2(cfg.snr_grid)) == 0.0:
        raise DomainError("snr grid is constant; slope undefined")
    return _assemble(cfg, _count_events(cfg, events, threads))


def estimate_mean_fade_outage(cfg: TrialConfig, threads: int = 1) -> EmpiricalOutage:
    """Estimate Pr[(1/l) * sum |F_i|^2 < 1/snr] over the SNR grid and fit the
    diversity slope of the estimates.  At most ``os.cpu_count()`` worker
    threads are used, whatever ``threads`` asks for."""
    limits = [cfg.l / (snr * cfg.fade_variance) for snr in cfg.snr_grid]
    # With F_i = -v ln U_i a trial is an outage where -sum_i ln U_i < limit,
    # that is where prod_i U_i > exp(-limit).  Where that floor is no normal
    # double the product may underflow, and the log-sum decides.  math.exp
    # rounds the same on every machine; numpy's SIMD exp need not.
    floors = np.array([math.exp(-limit) for limit in limits])
    by_product = floors >= sys.float_info.min
    product_at, log_at = np.flatnonzero(by_product), np.flatnonzero(~by_product)
    product_floors, log_bounds = floors[product_at], np.negative(limits)[log_at]

    def events(uniforms: np.ndarray, work: np.ndarray, row: np.ndarray) -> np.ndarray:
        counts = np.empty(len(cfg.snr_grid), dtype=np.int64)
        if product_at.size:
            np.multiply.reduce(uniforms, axis=0, out=row)
            counts[product_at] = _count_above(row, product_floors)
        if log_at.size:
            # a zero uniform is an infinite fade: its log-sum is -inf, no event
            with np.errstate(divide="ignore"):
                np.log(uniforms, out=uniforms)
            np.add.reduce(uniforms, axis=0, out=row)
            counts[log_at] = _count_above(row, log_bounds)
        return counts

    return _estimate(cfg, threads, [_gamma_p(cfg.l, x) for x in limits], "mean-fade outage",
                     "analytic outage probability", events)


def _product_bound(l: int, rate: float, a: float) -> float | None:
    """(2**rate / a)**l, which prod_i (1/a - ln U_i) stays below exactly in a
    rate outage; None where the log-sum must decide instead, because that
    bound is no normal double or a partial product could leave the normal
    range (one binade is spared at each end for rounding)."""
    inv = 1.0 / a
    # every factor lies in [1/a, 1/a + _MAX_FADE] or is inf
    exponents = (l * math.log2(min(inv, 1.0)) if inv > 0.0 else -math.inf,
                 l * math.log2(inv + _MAX_FADE), l * (rate - math.log2(a)))
    if all(-1021 < e < 1023 for e in exponents):
        return (2.0**rate / a) ** l
    return None


def _rate_outage_bound(l: int, rate: float, a: float) -> float:
    """The Chernoff bound at theta = 1 on the rate outage
    Pr[prod_i (1 + a E_i) < 2**(l * rate)], a = snr * v, E_i ~ Exp(1):
    2**(l * rate) * E[1/(1 + a E)]**l, with E[1/(1 + a E)] = U(1, 1, 1/a)/a
    and U(1, 1, x) = e**x * E1(x) Tricomi's confluent hypergeometric
    function.  It is formed in log2 and capped at 1; a zero rate gives 0."""
    if not rate > 0.0:
        return 0.0
    # E[1/(1 + a E)] falls as a grows, so a capped a still bounds from above;
    # below a = 1e-300 the mean is 1 to double precision
    a = min(max(a, 1e-300), 1e300)
    return 2.0 ** min(l * (rate + math.log2(_exp_e1(1.0 / a) / a)), 0.0)


def estimate_rate_outage(cfg: TrialConfig, threads: int = 1) -> EmpiricalOutage:
    """Estimate Pr[sum_i log2(1 + |F_i|^2 * snr) < l * rate] over the SNR grid,
    where rate = multiplex_ratio * log2(snr), and fit the diversity slope of
    the estimates.  Threads are capped as in
    :func:`estimate_mean_fade_outage`."""
    # a = snr * v and the rate of each point, shared by the refusal, the
    # product bound and the log-sum target
    setups = [(snr * cfg.fade_variance, cfg.multiplex_ratio * math.log2(snr))
              for snr in cfg.snr_grid]
    points = [(a, _product_bound(cfg.l, rate, a), cfg.l * rate) for a, rate in setups]

    def events(uniforms: np.ndarray, work: np.ndarray, row: np.ndarray) -> list[int]:
        # ln U once per fade for every point; a zero uniform gives -inf, an
        # infinite fade and never an event
        with np.errstate(divide="ignore"):
            logs = np.log(uniforms, out=uniforms)
        counts = []
        for a, bound, target in points:
            if bound is not None:
                np.subtract(1.0 / a, logs, out=work)
                np.multiply.reduce(work, axis=0, out=row)
                counts.append(np.count_nonzero(row < bound))
            else:
                # sum_i log2(1 + a E_i) < l * rate with E_i = -ln U_i
                np.multiply(logs, -a, out=work)
                work += 1.0
                np.log2(work, out=work)
                np.add.reduce(work, axis=0, out=row)
                counts.append(np.count_nonzero(row < target))
        return counts

    return _estimate(cfg, threads, [_rate_outage_bound(cfg.l, rate, a) for a, rate in setups],
                     "rate outage", "outage upper bound", events)
