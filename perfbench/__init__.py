"""The repository benchmark: cold XML export, the 512-plan sweep and
read/write serving, each with a traced per-layer run.  Entry point:
``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.
"""
