"""Benchmark of the gpu-compat program (see README.md)."""
