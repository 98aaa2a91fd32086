"""Benchmark harness for emovote; entry point ``perfbench/run.py``."""
