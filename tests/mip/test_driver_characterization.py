"""Characterization of the branch-and-bound drivers.

Each configuration below is pinned to the values the search produced
before the serial and batched-node searches shared one loop: status,
nodes, LP iterations, warm/cold counts, rounds, simulated seconds,
incumbent history and best bound exactly; ``x`` and the objective to
1e-9, and the incumbent is certified in exact arithmetic.
"""

import numpy as np
import pytest

from repro.api import SolveOptions, solve
from repro.check import certify_mip_solution
from repro.device.gpu import Device
from repro.device.spec import V100
from repro.guard.budget import DeadlineBudget, GuardContext, TickingClock, guarding
from repro.mip.batch_solver import BatchedNodeSolver, BatchedSolverOptions
from repro.mip.solver import BranchAndBoundSolver, SolverOptions
from repro.problems.knapsack import generate_knapsack
from repro.strategies.cpu_orchestrated import CpuOrchestratedEngine
from repro.strategies.gpu_only import GpuOnlyEngine


def knapsack_20_strong():
    """E13's instance."""
    return generate_knapsack(20, seed=2, correlation="strong")


def deadline_knapsack():
    return generate_knapsack(20, seed=11, correlation="strong")


def ticking_guard(polls: int) -> GuardContext:
    return GuardContext(
        budgets=[DeadlineBudget(float(polls), clock=TickingClock(), label="tick")]
    )


def serial(problem, engine=None, **options):
    solver = BranchAndBoundSolver(problem, SolverOptions(**options), engine=engine)
    result = solver.solve()
    return result, solver.engine.elapsed_seconds, None


def batched(problem, **options):
    solver = BatchedNodeSolver(problem, BatchedSolverOptions(**options))
    result = solver.solve()
    return result, solver.device.clock.now, solver.rounds


def via_api(problem, options):
    report = solve(problem, options)
    return report.result, report.makespan_seconds, None


def deadline(run, polls=60):
    with guarding(ticking_guard(polls)):
        return run()


CONFIGS = {
    "serial/host": lambda: serial(knapsack_20_strong()),
    "serial/gpu_only": lambda: serial(knapsack_20_strong(), GpuOnlyEngine()),
    "serial/cpu_orchestrated": lambda: serial(
        knapsack_20_strong(), CpuOrchestratedEngine()
    ),
    "batched/simplex/1": lambda: batched(knapsack_20_strong(), batch_size=1),
    "batched/simplex/4": lambda: batched(knapsack_20_strong(), batch_size=4),
    "batched/simplex/16": lambda: batched(knapsack_20_strong(), batch_size=16),
    "batched/simplex/64": lambda: batched(knapsack_20_strong(), batch_size=64),
    "batched/pdhg/8": lambda: batched(
        generate_knapsack(12, seed=7), batch_size=8, lp_engine="pdhg"
    ),
    "heuristic_first/serial": lambda: via_api(
        knapsack_20_strong(),
        SolveOptions(strategy="gpu_only", mode="heuristic_first"),
    ),
    "heuristic_first/batched": lambda: via_api(
        knapsack_20_strong(),
        SolveOptions(device=Device(V100), mip_node_batch=16, mode="heuristic_first"),
    ),
    "node_limit/serial": lambda: serial(knapsack_20_strong(), node_limit=8),
    "node_limit/batched": lambda: batched(
        knapsack_20_strong(), batch_size=4, node_limit=8
    ),
    "deadline/serial": lambda: deadline(lambda: serial(deadline_knapsack())),
    "deadline/batched": lambda: deadline(
        lambda: batched(deadline_knapsack(), batch_size=4)
    ),
}

PROBLEMS = {
    "batched/pdhg/8": lambda: generate_knapsack(12, seed=7),
    "deadline/serial": deadline_knapsack,
    "deadline/batched": deadline_knapsack,
}


def observe(name):
    """The pinned fields of one configuration's run."""
    result, sim_seconds, rounds = CONFIGS[name]()
    stats = result.stats
    return {
        "status": result.status.value,
        "nodes": stats.nodes_processed,
        "lp_iterations": stats.lp_iterations,
        "warm_starts": stats.warm_starts,
        "cold_starts": stats.cold_starts,
        "rounds": rounds,
        "sim_seconds": float(sim_seconds),
        "incumbent_history": [(int(k), float(v)) for k, v in stats.incumbent_history],
        "best_bound": float(result.best_bound),
        "objective": float(result.objective),
        "x": None if result.x is None else [float(v) for v in result.x],
    }


PINNED = {
    "batched/pdhg/8": {
        "status": "optimal",
        "nodes": 31,
        "lp_iterations": 12800,
        "warm_starts": 0,
        "cold_starts": 0,
        "rounds": 6,
        "sim_seconds": 0.06091677861539729,
        "incumbent_history": [(24, 445.0)],
        "best_bound": 445.0,
        "objective": 445.0,
        "x": [0.9999999999999999, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0],
    },
    "batched/simplex/1": {
        "status": "optimal",
        "nodes": 195,
        "lp_iterations": 665,
        "warm_starts": 194,
        "cold_starts": 1,
        "rounds": 195,
        "sim_seconds": 0.028253439202797364,
        "incumbent_history": [(14, 592.0), (26, 599.0), (50, 605.0), (58, 607.0), (70, 609.0), (90, 613.0), (96, 614.0), (100, 615.0), (116, 617.0)],
        "best_bound": 617.0,
        "objective": 617.0,
        "x": [0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 8.326672684688674e-16, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0],
    },
    "batched/simplex/16": {
        "status": "optimal",
        "nodes": 195,
        "lp_iterations": 665,
        "warm_starts": 194,
        "cold_starts": 1,
        "rounds": 18,
        "sim_seconds": 0.0058083939832168,
        "incumbent_history": [(48, 592.0), (64, 599.0), (68, 607.0), (74, 609.0), (90, 614.0), (114, 615.0), (130, 617.0)],
        "best_bound": 617.0,
        "objective": 617.0,
        "x": [0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 8.326672684688674e-16, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0],
    },
    "batched/simplex/4": {
        "status": "optimal",
        "nodes": 195,
        "lp_iterations": 665,
        "warm_starts": 194,
        "cold_starts": 1,
        "rounds": 50,
        "sim_seconds": 0.013643575902097978,
        "incumbent_history": [(20, 592.0), (28, 599.0), (50, 605.0), (58, 607.0), (70, 609.0), (90, 613.0), (96, 614.0), (100, 615.0), (116, 617.0)],
        "best_bound": 617.0,
        "objective": 617.0,
        "x": [0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 8.326672684688674e-16, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0],
    },
    "batched/simplex/64": {
        "status": "optimal",
        "nodes": 325,
        "lp_iterations": 1051,
        "warm_starts": 324,
        "cold_starts": 1,
        "rounds": 16,
        "sim_seconds": 0.004946315851748251,
        "incumbent_history": [(64, 592.0), (128, 599.0), (132, 607.0), (138, 609.0), (144, 614.0), (200, 615.0), (258, 617.0)],
        "best_bound": 617.0,
        "objective": 617.0,
        "x": [0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0],
    },
    "deadline/batched": {
        "status": "time_limit",
        "nodes": 47,
        "lp_iterations": 152,
        "warm_starts": 46,
        "cold_starts": 1,
        "rounds": 13,
        "sim_seconds": 0.003690907946853126,
        "incumbent_history": [(20, 634.0)],
        "best_bound": 640.0,
        "objective": 634.0,
        "x": [1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    },
    "deadline/serial": {
        "status": "time_limit",
        "nodes": 30,
        "lp_iterations": 98,
        "warm_starts": 29,
        "cold_starts": 1,
        "rounds": None,
        "sim_seconds": 0.0,
        "incumbent_history": [(1, 634.0)],
        "best_bound": 640.3220338983051,
        "objective": 634.0,
        "x": [1.0, 1.0, -0.0, 1.0, 1.0, 1.0, -0.0, 1.0, 1.0, 1.0, 1.0, -0.0, 1.0, 1.0, 1.0, 1.0, -0.0, -0.0, -0.0, 1.0],
    },
    "heuristic_first/batched": {
        "status": "optimal",
        "nodes": 195,
        "lp_iterations": 888,
        "warm_starts": 194,
        "cold_starts": 1,
        "rounds": None,
        "sim_seconds": 0.009735183217715717,
        "incumbent_history": [(0, 615.0), (130, 617.0)],
        "best_bound": 617.0,
        "objective": 617.0,
        "x": [0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 8.326672684688674e-16, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0],
    },
    "heuristic_first/serial": {
        "status": "optimal",
        "nodes": 195,
        "lp_iterations": 888,
        "warm_starts": 194,
        "cold_starts": 1,
        "rounds": None,
        "sim_seconds": 0.07077841189099841,
        "incumbent_history": [(0, 615.0), (75, 617.0)],
        "best_bound": 617.0,
        "objective": 617.0,
        "x": [-0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -0.0, -0.0, -0.0, 1.0, -0.0, 1.0, -0.0, 1.0, 1.0, 1.0],
    },
    "node_limit/batched": {
        "status": "node_limit",
        "nodes": 11,
        "lp_iterations": 43,
        "warm_starts": 10,
        "cold_starts": 1,
        "rounds": 4,
        "sim_seconds": 0.0013199280475524472,
        "incumbent_history": [],
        "best_bound": 621.1325301204819,
        "objective": float("nan"),
        "x": None,
    },
    "node_limit/serial": {
        "status": "node_limit",
        "nodes": 8,
        "lp_iterations": 36,
        "warm_starts": 7,
        "cold_starts": 1,
        "rounds": None,
        "sim_seconds": 0.0,
        "incumbent_history": [(1, 592.0), (3, 599.0), (5, 607.0)],
        "best_bound": 621.1325301204819,
        "objective": 607.0,
        "x": [-0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -0.0, -0.0, -0.0, 1.0, -0.0, 1.0, 1.0, 1.0, 1.0, -0.0],
    },
    "serial/cpu_orchestrated": {
        "status": "optimal",
        "nodes": 195,
        "lp_iterations": 665,
        "warm_starts": 194,
        "cold_starts": 1,
        "rounds": None,
        "sim_seconds": 0.0648977426565025,
        "incumbent_history": [(1, 592.0), (3, 599.0), (5, 607.0), (9, 609.0), (11, 614.0), (43, 615.0), (75, 617.0)],
        "best_bound": 617.0,
        "objective": 617.0,
        "x": [-0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -0.0, -0.0, -0.0, 1.0, -0.0, 1.0, -0.0, 1.0, 1.0, 1.0],
    },
    "serial/gpu_only": {
        "status": "optimal",
        "nodes": 195,
        "lp_iterations": 665,
        "warm_starts": 194,
        "cold_starts": 1,
        "rounds": None,
        "sim_seconds": 0.06685162265650091,
        "incumbent_history": [(1, 592.0), (3, 599.0), (5, 607.0), (9, 609.0), (11, 614.0), (43, 615.0), (75, 617.0)],
        "best_bound": 617.0,
        "objective": 617.0,
        "x": [-0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -0.0, -0.0, -0.0, 1.0, -0.0, 1.0, -0.0, 1.0, 1.0, 1.0],
    },
    "serial/host": {
        "status": "optimal",
        "nodes": 195,
        "lp_iterations": 665,
        "warm_starts": 194,
        "cold_starts": 1,
        "rounds": None,
        "sim_seconds": 0.0,
        "incumbent_history": [(1, 592.0), (3, 599.0), (5, 607.0), (9, 609.0), (11, 614.0), (43, 615.0), (75, 617.0)],
        "best_bound": 617.0,
        "objective": 617.0,
        "x": [-0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -0.0, -0.0, -0.0, 1.0, -0.0, 1.0, -0.0, 1.0, 1.0, 1.0],
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_configuration_is_pinned(name):
    seen = observe(name)
    pinned = PINNED[name]
    approx = ("objective", "x")
    assert {k: v for k, v in seen.items() if k not in approx} == {
        k: v for k, v in pinned.items() if k not in approx
    }
    if pinned["x"] is None:
        assert seen["x"] is None
        assert np.isnan(seen["objective"]) and np.isnan(pinned["objective"])
        return
    assert seen["objective"] == pytest.approx(pinned["objective"], abs=1e-9)
    np.testing.assert_allclose(seen["x"], pinned["x"], rtol=0, atol=1e-9)
    problem = PROBLEMS.get(name, knapsack_20_strong)()
    report = certify_mip_solution(
        problem,
        np.asarray(seen["x"]),
        objective=seen["objective"],
        best_bound=seen["best_bound"] if np.isfinite(seen["best_bound"]) else None,
    )
    assert report.ok, report
