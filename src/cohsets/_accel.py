"""Kept only for perfbench/child.py, which reads NUMBA_ENABLED on every run."""

NUMBA_ENABLED = False
