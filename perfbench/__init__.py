"""The repository benchmark: workloads, correctness checks and tracing.

Run ``python3 perfbench/run.py --describe`` for the workloads and
metrics; see ``perfbench/README.md``.
"""
