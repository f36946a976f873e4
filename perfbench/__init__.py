"""Repository benchmark: named workloads, end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --help`` from the repository root; the
metrics, workloads and layer map are described in ``perfbench/README.md``.
"""
