"""Benchmark harness for qphelm: workloads, closed-loop runner and tracing.

Modules import numpy at load time, except :mod:`qpbench.record`, which
``run.py`` loads first to pin the BLAS thread pools.
"""
