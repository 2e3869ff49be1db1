"""Mixed integer programming: branch-and-cut — the paper's subject.

- :mod:`repro.mip.problem` — `MIPProblem` (paper Eq. 1).
- :mod:`repro.mip.tree` — the branch-and-bound tree with the node tags
  of Figure 1 (active / feasible / infeasible / pruned / branched).
- :mod:`repro.mip.snapshot` — consistent snapshots and restart (§2.1).
- :mod:`repro.mip.branching` — most-fractional / pseudocost / strong.
- :mod:`repro.mip.node_selection` — best-first / depth-first / hybrid /
  GPU-locality-aware ordering (§5.3).
- :mod:`repro.mip.cuts` — Gomory mixed-integer and knapsack cover cuts
  with a cut pool (§5.2).
- :mod:`repro.mip.portfolio` — the batched primal-heuristic portfolio
  (rounding, diving, feasibility jump, fix-and-propagate, LNS).
- :mod:`repro.mip.solver` — the one branch-and-cut driver, parameterized
  by an execution engine so the paper's strategies can meter every LP
  solve, transfer and kernel; each search round pops the engine's
  ``round_width`` open nodes (1 for the serial strategies).
- :mod:`repro.mip.ivm` — the Integer-Vector-Matrix tree representation
  of Gmys et al. for permutation problems (§2.3).
- :mod:`repro.mip.probing` — root probing / implication tables (§3.3).
- :mod:`repro.mip.colgen` — Gilmore–Gomory column generation (§3.3).
- :mod:`repro.mip.checkpoint` — JSON snapshot persistence (§2.3, UG).
- :mod:`repro.mip.batch_solver` — batched-node B&B (§5.5 end-to-end):
  the same driver at round width ``batch_size``, with a round evaluator
  that solves each round's node LPs as one lockstep device batch.
"""

from repro.mip.problem import MIPProblem
from repro.mip.result import MIPResult, MIPStatus
from repro.mip.batch_solver import BatchedNodeSolver, BatchedSolverOptions
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.mip.tree import BBTree, NodeTag

__all__ = [
    "MIPProblem",
    "MIPResult",
    "MIPStatus",
    "BranchAndBoundSolver",
    "SolverOptions",
    "BatchedNodeSolver",
    "BatchedSolverOptions",
    "BBTree",
    "NodeTag",
]
