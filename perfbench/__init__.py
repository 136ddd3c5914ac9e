"""Capture-to-label benchmark of the Iustitia engine.

Run one measurement with ``python3 perfbench/run.py --workload gateway
--seed 1 --seconds 10 --trace 0`` from the repository root; the last line
of standard output is the JSON result. ``python3 perfbench/selftest.py``
runs every workload at a tiny scale through the same code and checks the
benchmark's own contract. ``BENCHMARK.json`` defines the workloads and
metrics; ``perfbench/README.md`` maps each layer metric to the end-to-end
metric and workload it should move.
"""
