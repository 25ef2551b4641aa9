"""Benchmark of the mcqkd CLI: seeded workloads, output checks and tracing.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``run.py`` for what it measures.
"""
