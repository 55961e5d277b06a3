"""Tests of the benchmark itself (run: PYTHONPATH=src python -m pytest
bench/tests).  They sit outside tier-1, whose testpaths is ``tests``."""
