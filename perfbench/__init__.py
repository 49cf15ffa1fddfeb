"""Benchmark for the pd3f_ray extraction engine. Run ``python3 perfbench/run.py
--help``; the workloads, metrics and known defects are described in
``perfbench/NOTES.md``."""
