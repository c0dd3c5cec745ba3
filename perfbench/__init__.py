"""The repo benchmark; run ``python3 perfbench/run.py`` (see README.md)."""
