"""The repository benchmark: seeded simulator workloads measured end to end
and layer by layer.  Run it with ``python3 perfbench/run.py --help``."""
