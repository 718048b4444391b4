"""Wall-clock end-to-end benchmark: five workloads, real clocks, layers timed from outside.

Run with ``PYTHONPATH=src python -m benchmarks.e2e --seed 12``; see
``README.md`` in this directory for the workload and metric catalogue.
"""
