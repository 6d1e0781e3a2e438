"""Benchmark of the serving stack and the photonic engine.

``python3 perfbench/run.py --help`` describes the command; ``bench``
measures, ``workloads`` defines the four workloads, ``layers`` the
traced layers and per-layer metrics, ``tracing`` the span wrappers.
"""
