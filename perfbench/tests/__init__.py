"""The benchmark's own tests: ``python3 -m pytest perfbench/tests``."""
