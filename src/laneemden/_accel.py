"""Kernel backend flag: every kernel in this package is plain numpy."""

# Read by the benchmark probe (perfbench/worker.py), which records it per run.
USING_NUMBA = False
