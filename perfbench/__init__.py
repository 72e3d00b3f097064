"""Benchmark of the perpca package: timed workloads and an external layer tracer.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.
"""
