"""CDC benchmark: backfill, tail and serve workloads over the replay engine.

Run ``python3 perfbench/run.py --workload <backfill|tail|serve> --seed N
--seconds S --trace 0|1`` from the repository root; see METHODOLOGY.md.
"""
