"""The serving benchmark: ``python3 perfbench/run.py --help``."""
