"""Two-clock benchmark of the simulated GPU MIP stack.

Run one workload with ``python3 perfbench/run.py --workload lp-burst``
from the repository root (``--workload all`` runs every workload, each
in its own process).  See ``perfbench/README.md`` for the workloads and
the metric catalogue.
"""
