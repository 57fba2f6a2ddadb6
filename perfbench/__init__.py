"""The repository's benchmark: four workloads, end-to-end and per-layer
metrics, and a traced layer breakdown.  Run ``perfbench/run.py``."""
