"""Host-time benchmark of the poabcast simulator kit.

Run it as ``python3 perfbench/run.py --workload <name>``; see
``perfbench/README.md`` for the workloads, the metrics and the layer map.
"""
