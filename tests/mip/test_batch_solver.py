"""Batched-node branch-and-bound tests (§5.5 end-to-end)."""

import numpy as np
import pytest

from repro.errors import NumericalInstabilityError
from repro.lp.result import LPResult, LPStatus
from repro.mip.batch_solver import (
    BatchedNodeSolver,
    BatchedRoundEngine,
    BatchedSolverOptions,
)
from repro.mip.problem import MIPProblem
from repro.mip.result import MIPStatus
from repro.mip.solver import BranchAndBoundSolver, ExecutionEngine, SolverOptions
from repro.mip.tree import NodeTag
from repro.problems.knapsack import generate_knapsack, knapsack_dp_optimal
from repro.problems.multiknapsack import generate_multiknapsack
from repro.problems.random_mip import generate_random_mip
from repro.strategies.cpu_orchestrated import CpuOrchestratedEngine


class TestCorrectness:
    @pytest.mark.parametrize("batch_size", [1, 4, 16])
    def test_same_optimum_as_serial(self, batch_size):
        p = generate_knapsack(16, seed=4)
        expected, _ = knapsack_dp_optimal(p)
        res = BatchedNodeSolver(
            p, BatchedSolverOptions(batch_size=batch_size)
        ).solve()
        assert res.status is MIPStatus.OPTIMAL
        assert res.objective == pytest.approx(expected)
        assert p.is_feasible(res.x)

    def test_infeasible(self):
        p = MIPProblem(
            c=[1.0],
            integer=np.array([True]),
            a_ub=[[1.0], [-1.0]],
            b_ub=[0.7, -0.5],
            ub=[1.0],
        )
        res = BatchedNodeSolver(p).solve()
        assert res.status is MIPStatus.INFEASIBLE

    def test_node_limit(self):
        p = generate_knapsack(24, seed=1, correlation="strong")
        res = BatchedNodeSolver(
            p, BatchedSolverOptions(batch_size=4, node_limit=8)
        ).solve()
        assert res.status is MIPStatus.NODE_LIMIT

    def test_mixed_integer(self):
        p = generate_random_mip(8, 5, seed=3, integer_fraction=0.5, bound=4.0)
        serial = BranchAndBoundSolver(p, SolverOptions()).solve()
        batched = BatchedNodeSolver(p, BatchedSolverOptions(batch_size=8)).solve()
        assert batched.objective == pytest.approx(serial.objective, abs=1e-6)


class TestBatchingEconomics:
    def test_batched_kernel_stream(self):
        p = generate_knapsack(16, seed=4)
        solver = BatchedNodeSolver(p, BatchedSolverOptions(batch_size=8))
        solver.solve()
        assert solver.device.kernel_count("batched_getrf") == solver.rounds
        assert solver.rounds < solver.stats.nodes_processed

    def test_faster_than_serial_per_node_launches(self):
        """The §5.5 claim end-to-end: batched node rounds beat one small
        kernel stream per node on the same search."""
        p = generate_knapsack(18, seed=6)
        serial_engine = CpuOrchestratedEngine()
        serial = BranchAndBoundSolver(p, SolverOptions(), engine=serial_engine)
        serial_result = serial.solve()

        batched = BatchedNodeSolver(p, BatchedSolverOptions(batch_size=16))
        batched_result = batched.solve()

        assert batched_result.objective == pytest.approx(serial_result.objective)
        serial_rate = serial_result.stats.nodes_processed / serial_engine.elapsed_seconds
        batched_rate = batched_result.stats.nodes_processed / batched.device.clock.now
        assert batched_rate > 2 * serial_rate

    def test_larger_batches_fewer_rounds(self):
        p = generate_knapsack(18, seed=6)
        small = BatchedNodeSolver(p, BatchedSolverOptions(batch_size=2))
        small.solve()
        large = BatchedNodeSolver(p, BatchedSolverOptions(batch_size=32))
        large.solve()
        assert large.rounds < small.rounds


EQUIVALENCE_CORPUS = [
    ("knapsack-16", lambda: generate_knapsack(16, seed=4)),
    ("knapsack-18", lambda: generate_knapsack(18, seed=6)),
    ("knapsack-20-strong", lambda: generate_knapsack(20, seed=2, correlation="strong")),
    ("multiknapsack-12x3", lambda: generate_multiknapsack(12, 3, seed=1)),
    ("multiknapsack-14x4", lambda: generate_multiknapsack(14, 4, seed=5)),
]


class TestOneDriver:
    """The batched front is the serial loop at round width ``batch_size``."""

    @pytest.mark.parametrize(
        "build", [b for _, b in EQUIVALENCE_CORPUS], ids=[n for n, _ in EQUIVALENCE_CORPUS]
    )
    def test_width_one_is_the_serial_search(self, build):
        p = build()
        batched = BatchedNodeSolver(p, BatchedSolverOptions(batch_size=1)).solve()
        serial = BranchAndBoundSolver(
            p, SolverOptions(branching="most_fractional", use_rounding_heuristic=False)
        ).solve()

        def fields(res):
            s = res.stats
            return (
                res.status, s.nodes_processed, s.lp_iterations, s.warm_starts,
                s.cold_starts, s.warm_pivots, s.cold_pivots, s.incumbent_history,
                res.best_bound, res.objective,
            )

        assert fields(batched) == fields(serial)
        assert batched.x.tobytes() == serial.x.tobytes()

    def test_stopping_member_stays_open_and_the_round_finishes(self):
        """A stop in mid-round: the stopping node stays OPEN, later
        members of the same round are still acted on, then the search
        stops."""

        class StopFirstChild(ExecutionEngine):
            round_width = 2

            def solve_round(self, members):
                super().solve_round(members)
                if members[0].node_id == 1:
                    members[0].result = LPResult(status=LPStatus.TIME_LIMIT)

        p = generate_knapsack(16, seed=4)
        res = BranchAndBoundSolver(
            p,
            SolverOptions(keep_tree=True, use_rounding_heuristic=False),
            engine=StopFirstChild(),
        ).solve()
        assert res.status is MIPStatus.TIME_LIMIT
        assert res.stats.nodes_processed == 3
        assert res.tree.node(1).tag is NodeTag.ACTIVE
        assert res.tree.node(2).tag is not NodeTag.ACTIVE
        assert res.best_bound >= res.tree.node(1).inherited_bound

    def test_numerical_without_incumbent_raises(self, monkeypatch):
        """Post-ladder NUMERICAL with no incumbent raises on every width,
        so api callers can degrade to another strategy."""
        monkeypatch.setattr(
            BatchedRoundEngine,
            "solve_relaxation",
            lambda self, sf, warm_basis=None, probe=False: LPResult(
                status=LPStatus.NUMERICAL
            ),
        )
        monkeypatch.setattr(
            BranchAndBoundSolver, "_escalate_node", lambda self, sf, first, node_id: first
        )
        solver = BatchedNodeSolver(generate_knapsack(8, seed=1), BatchedSolverOptions(batch_size=4))
        with pytest.raises(NumericalInstabilityError):
            solver.solve()

    def test_escalation_pivots_count_in_lp_iterations_not_in_round_charge(
        self, monkeypatch
    ):
        """The ladder runs in the driver after the round: its pivots add
        to ``lp_iterations`` but not to the round's lockstep charge."""
        stalled = LPResult(status=LPStatus.ITERATION_LIMIT, iterations=7)
        monkeypatch.setattr(
            BatchedRoundEngine,
            "solve_relaxation",
            lambda self, sf, warm_basis=None, probe=False: stalled,
        )
        climbs = []
        escalate = BranchAndBoundSolver._escalate_node

        def recording(self, sf, first, node_id):
            climbs.append(escalate(self, sf, first, node_id))
            return climbs[-1]

        monkeypatch.setattr(BranchAndBoundSolver, "_escalate_node", recording)
        solver = BatchedNodeSolver(
            generate_knapsack(12, seed=3), BatchedSolverOptions(batch_size=4, node_limit=1)
        )
        res = solver.solve()
        assert res.stats.escalations == 1
        assert climbs[0].status is LPStatus.OPTIMAL
        assert res.stats.lp_iterations == 7 + climbs[0].iterations
        assert solver.device.kernel_count("batched_gemm") == 7
