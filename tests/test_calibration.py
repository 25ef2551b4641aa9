"""Many-seed calibration gate: the law of the counts, not one draw.

Each configuration runs once per seed of ``SEEDS``, ``TRIALS`` trials a
run, so every run spans two 65,536-trial blocks.  Per grid point, with K
seeds, n trials a run and the exact outage p:

  * the pooled z of the summed counts S, (S - K n p) / sqrt(K n p (1 - p)),
    has |z| <= 5.  A bias shows here: dropping 1 trial in 512 moves it by
    about 6 at p = 0.14;
  * the dispersion, the sample variance of the K counts over n p (1 - p),
    is at most 1.285, the 99.99% point of chi^2 with K - 1 = 399 degrees of
    freedom over 399.  Trials that are not independent show here, such as
    two blocks that share one stream, while every mean stays unbiased.

The seeds were fixed before the first run.  A failure is investigated in
the engine; the gate is never re-seeded and its bounds are never loosened.
"""

import functools
import math

import numpy as np
import pytest

from mcqkd import montecarlo
from mcqkd.montecarlo import TrialConfig, estimate_mean_fade_outage, estimate_rate_outage

from oracles import gamma_cdf_series, rate_outage_l2_quad

SEEDS = range(7000, 7400)
TRIALS = 131_072
MAX_Z = 5.0
MAX_DISPERSION = 1.285


CONFIGS = {
    "mean_fade-l4": (estimate_mean_fade_outage, 4, 0.0, (2.0, 3.0, 5.0),
                     lambda snr: gamma_cdf_series(4, 4.0 / snr)),
    "rate-l2": (estimate_rate_outage, 2, 0.5, (10.0, 100.0, 1000.0),
                lambda snr: rate_outage_l2_quad(snr, 0.5)),
}


@functools.cache
def _counts(config):
    """The success counts of ``CONFIGS[config]``, one row per seed.  Cached,
    so each configuration runs its seeds once for all of its points."""
    estimate, l, ratio, grid, _ = CONFIGS[config]
    return np.array([
        estimate(TrialConfig(l=l, multiplex_ratio=ratio, snr_grid=grid, trials=TRIALS,
                             seed=seed)).successes
        for seed in SEEDS
    ])


@pytest.mark.parametrize(
    "config, point",
    [(config, point) for config, row in CONFIGS.items() for point in range(len(row[3]))],
    ids=[f"{config}-snr{snr:g}" for config, row in CONFIGS.items() for snr in row[3]],
)
def test_counts_follow_the_binomial_law(config, point):
    assert TRIALS == 2 * montecarlo._BLOCK
    *_, grid, reference = CONFIGS[config]
    column = _counts(config)[:, point]
    p = reference(grid[point])
    variance = TRIALS * p * (1.0 - p)
    z = (column.sum() - len(SEEDS) * TRIALS * p) / math.sqrt(len(SEEDS) * variance)
    dispersion = column.var(ddof=1) / variance
    assert abs(z) <= MAX_Z and dispersion <= MAX_DISPERSION, (float(z), float(dispersion))
