"""Acceptance gate: ten end-to-end checks, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  Each check
prints its verdict before asserting, so a red criterion still reports itself.
"""

import math

import numpy as np
from scipy import special

from mcqkd.cli import main
from mcqkd.constellation import build_constellation, permute_constellation
from mcqkd.errors import DegenerateRegimeError
from mcqkd.manifold import (
    OutageParams,
    manifold_dims,
    perr_amqd,
    perr_exponential_outage,
    perr_single,
    tradeoff_multiaccess,
)
from mcqkd.montecarlo import (
    TrialConfig,
    estimate_mean_fade_outage,
    estimate_rate_outage,
    wilson_interval,
)
from mcqkd.rates import optimal_attack_noise, private_capacity
from mcqkd.singular_layer import TransmittanceMatrix, reconstruct, svd_decompose
from oracles import min_distance_exhaustive


def verdict(number: int, label: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}")
    return ok


class TestAcceptance:
    def test_01_outage_power_laws(self):
        single = perr_single(OutageParams(10.0, 0.6))
        l5 = perr_amqd(OutageParams(10.0, 0.6, l=5))
        l10 = perr_amqd(OutageParams(10.0, 0.6, l=10))
        ok = (
            abs(single - 10.0**-0.4) <= 1e-9
            and abs(l5 - 1e-2) <= 1e-9
            and abs(l10 - 1e-4) <= 1e-9
        )
        assert verdict(1, "outage power laws at snr=10, multiplex 0.6", ok)

    def test_02_multiaccess_knots(self):
        le_curve = [tradeoffs == expected for tradeoffs, expected in (
            (tradeoff_multiaccess(2, 4, 0.0), 8.0),
            (tradeoff_multiaccess(2, 4, 1.0), 3.0),
            (tradeoff_multiaccess(2, 4, 2.0), 0.0),
        )]
        gt_curve = [
            tradeoff_multiaccess(4, 2, 0.0) == 4.0,
            tradeoff_multiaccess(4, 2, 2.0) == 0.0,
        ]
        ok = all(le_curve) and all(gt_curve)
        assert verdict(2, "multiaccess tradeoff knots", ok)

    def test_03_dimension_identity(self):
        ok = True
        for k_out in range(1, 9):
            for k_in in range(1, k_out + 1):
                for ratio in np.arange(0.0, k_in + 0.125, 0.25):
                    dims = manifold_dims(k_in, k_out, float(ratio))
                    if dims.dim_m + dims.n_dim_perp != float(k_in * k_out):
                        ok = False
        assert verdict(3, "manifold dimension identity", ok)

    def test_04_monte_carlo_calibration(self):
        ok = True
        for l, seed in ((1, 101), (2, 202)):
            cfg = TrialConfig(
                l=l, multiplex_ratio=0.0, snr_grid=(10.0, 31.6, 100.0),
                trials=1_000_000, seed=seed,
            )
            out = estimate_mean_fade_outage(cfg, threads=4)
            for snr, successes in zip(out.snr_grid, out.successes):
                lo, hi = wilson_interval(successes, out.trials, z=3.0)
                analytic = float(special.gammainc(l, l / snr))
                if not lo <= analytic <= hi:
                    ok = False
        assert verdict(4, "mean-fade calibration within 3-sigma Wilson", ok)

    def test_05_diversity_slope_recovery(self):
        results = []
        for l, seed in ((1, 101), (2, 202)):
            cfg = TrialConfig(
                l=l, multiplex_ratio=0.0, snr_grid=(10.0, 31.6, 100.0),
                trials=1_000_000, seed=seed,
            )
            slope = estimate_mean_fade_outage(cfg, threads=4).slope
            target = float(l)
            results.append(abs(slope - target) <= 0.15 * target)
        cfg = TrialConfig(
            l=2, multiplex_ratio=0.5, snr_grid=(1e4, 1e5, 1e6),
            trials=20_000_000, seed=21,
        )
        slope = estimate_rate_outage(cfg, threads=4).slope
        results.append(abs(slope - 1.0) <= 0.15)
        assert verdict(5, "diversity slopes within 15 percent", all(results))

    def test_06_svd_properties(self):
        rng = np.random.default_rng(1234)
        ok = True
        for _ in range(100):
            k_out = int(rng.integers(1, 9))
            k_in = int(rng.integers(1, k_out + 1))
            entries = (
                rng.normal(size=(k_out, k_in)) + 1j * rng.normal(size=(k_out, k_in))
            ) / math.sqrt(k_out * k_in)
            matrix = TransmittanceMatrix(entries)
            decomp = svd_decompose(matrix)
            rebuilt = reconstruct(decomp).entries
            rel = np.linalg.norm(entries - rebuilt) / np.linalg.norm(entries)
            if rel >= 1e-10:
                ok = False
            gram = entries.conj().T @ entries
            oracle = np.sort(np.linalg.eigvalsh(gram))[::-1]
            squared = np.array(decomp.lambdas) ** 2
            if np.max(np.abs(squared - oracle)) >= 1e-10:
                ok = False
        assert verdict(6, "eigenchannel reconstruction and spectrum", ok)

    def test_07_constellation_law(self):
        ok = True
        for bits in range(1, 9):
            c = build_constellation(float(bits))
            if abs(min_distance_exhaustive(c.points) ** 2 * 2.0**bits - 1.0) > 1e-9:
                ok = False
        base = build_constellation(2.0)
        spread = permute_constellation(base, 4, seed=9)
        ref = np.sort(np.abs(np.subtract.outer(base.points, base.points)), axis=None)
        for sub in range(1, spread.subchannel_count + 1):
            pts = np.array(spread.subchannel_points(sub))
            dists = np.sort(np.abs(np.subtract.outer(pts, pts)), axis=None)
            if not np.array_equal(dists, ref):
                ok = False
        assert verdict(7, "constellation spacing law and permutation stats", ok)

    def test_08_outage_forms_coincide(self):
        """Linear and exponential outage forms at high snr and low rate.

        The relative gap behaves like (2**rate - 1)/(2*snr), which crosses
        1e-4 inside the stated domain: at snr=1e4 and rate=2 it is 1.50007e-4.
        The check is asserted as stated and is expected to fail there; see the
        numerical note in the README.
        """
        worst = 0.0
        for snr in (1e4, 10**4.5, 1e5, 10**5.5, 1e6):
            for rate in (0.5, 1.0, 1.5, 2.0):
                q_form, exp_form = perr_exponential_outage(rate, snr)
                gap = abs(q_form - exp_form) / exp_form
                worst = max(worst, gap)
        ok = worst <= 1e-4
        assert verdict(8, f"outage form gap {worst:.6g} <= 1e-4", ok)

    def test_09_attack_noise_worked_values(self):
        noise = optimal_attack_noise(1.0, 0.5, 2.0)
        rate = private_capacity(1.0, 0.5, noise)
        ok = abs(noise - 4.0) <= 1e-12 and abs(rate - 0.08496250072115619) <= 1e-12
        try:
            optimal_attack_noise(2.0, 0.5, 1.0)
            ok = False
        except DegenerateRegimeError:
            pass
        try:
            optimal_attack_noise(2.0, 1.0, 1.0)
            ok = False
        except DegenerateRegimeError:
            pass
        assert verdict(9, "optimal attack noise and private rate", ok)

    def test_10_cli_determinism(self, tmp_path):
        argv = [
            "mc", "--mode", "mean_fade", "--snr", "10,31.6,100",
            "--trials", "50000", "--seed", "77",
        ]
        paths = [tmp_path / "t1.csv", tmp_path / "t4.csv"]
        for path, threads in zip(paths, ("1", "4")):
            code = main(argv + ["--threads", threads, "-o", str(path)])
            assert code == 0
        ok = paths[0].read_bytes() == paths[1].read_bytes()
        assert verdict(10, "thread count never changes output bytes", ok)
