"""The repository's benchmark: the annotation service under open-loop
HTTP load and whole-catalog campaign passes.

Run it as ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see README.md.
"""
