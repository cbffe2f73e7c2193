"""Benchmark of the harforge pipeline: workloads, tracing, statistics and the
metric spec behind BENCHMARK.json. Run it with ``python3 bench/run.py``."""
