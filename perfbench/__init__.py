"""Benchmark harness for the meanfield-hmc CLI; see README.md."""
