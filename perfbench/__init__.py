"""Benchmark package: workloads, tracing and the ``run.py`` entry point."""
