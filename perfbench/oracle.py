"""Reference answers from SciPy's HiGHS, computed outside the timed phase.

The library maximises ``cᵀx``; HiGHS minimises, so every reference
solves ``min -cᵀx`` and negates the optimum back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from repro.mip.problem import MIPProblem

#: Objective agreement: |ours - reference| <= ABS_TOL + REL_TOL * |reference|.
REL_TOL = 1e-6
ABS_TOL = 1e-6

_HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


@dataclass(frozen=True)
class Reference:
    status: str
    objective: float


def reference(problem) -> Reference:
    """HiGHS's status and (maximisation) optimum for one problem."""
    bounds_lb = np.zeros(problem.n) if problem.lb is None else problem.lb
    bounds_ub = np.full(problem.n, np.inf) if problem.ub is None else problem.ub
    if isinstance(problem, MIPProblem):
        constraints = []
        if problem.a_ub is not None:
            constraints.append(LinearConstraint(problem.a_ub, -np.inf, problem.b_ub))
        if problem.a_eq is not None:
            constraints.append(LinearConstraint(problem.a_eq, problem.b_eq, problem.b_eq))
        res = milp(
            -problem.c,
            constraints=constraints,
            integrality=problem.integer.astype(int),
            bounds=Bounds(bounds_lb, bounds_ub),
        )
    else:
        res = linprog(
            -problem.c,
            A_ub=problem.a_ub,
            b_ub=problem.b_ub,
            A_eq=problem.a_eq,
            b_eq=problem.b_eq,
            bounds=np.column_stack([bounds_lb, bounds_ub]),
            method="highs",
        )
    status = _HIGHS_STATUS.get(res.status, f"highs-{res.status}")
    objective = -float(res.fun) if status == "optimal" else float("nan")
    return Reference(status, objective)


class Oracle:
    """References for a run's distinct inputs, keyed by input identity."""

    def __init__(self):
        self._refs: Dict[int, Reference] = {}

    def prepare(self, problems) -> int:
        """Solve every distinct problem once; returns how many were new."""
        new = 0
        for problem in problems:
            if id(problem) not in self._refs:
                self._refs[id(problem)] = reference(problem)
                new += 1
        return new

    def __getitem__(self, problem) -> Reference:
        return self._refs[id(problem)]


def mismatch(status: str, objective: float, ref: Reference) -> Optional[str]:
    """Why an answer disagrees with its reference, or None when it agrees."""
    if status != ref.status:
        return f"status {status!r} != reference {ref.status!r}"
    if status != "optimal":
        return None
    if not np.isfinite(objective):
        return f"objective {objective!r} is not finite"
    if abs(objective - ref.objective) > ABS_TOL + REL_TOL * abs(ref.objective):
        return f"objective {objective!r} != reference {ref.objective!r}"
    return None
