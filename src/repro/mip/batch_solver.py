"""Batched-node branch-and-bound: §5.5 applied to the search itself.

"For relatively small MIP problem sizes … it is conceivable (and
potentially more efficient) to solve multiple nodes at a time" — the
search here is the ordinary :class:`~repro.mip.solver.BranchAndBoundSolver`
loop at round width ``batch_size``: each round pops up to that many open
nodes, and :class:`BatchedRoundEngine` solves all their LP relaxations
together, charging the device one *batched* kernel sequence per round
(the MAGMA-style batch routine of §4.3) instead of one small kernel
stream per node.

Numerics stay exact (each node's LP is solved precisely); only the cost
model reflects the batching.  Search results match the serial solver's
optimum; the explored node count may differ slightly because a whole
round is launched before its results can prune each other — the real
trade-off a batched B&B accepts.

With ``lp_engine="pdhg"`` the round instead advances all live node LPs
in one lockstep first-order batch (:mod:`repro.lp.pdhg_batch`) — two
fused GEMMs per sweep for the whole frontier.  Bounds are then
tolerance-padded (:meth:`repro.lp.pdhg.PDHGResult.upper_bound`) so
pruning stays safe, and any member short of eps-KKT OPTIMAL re-solves
through the exact simplex path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.device import kernels as K
from repro.device.gpu import Device
from repro.device.spec import V100, DeviceSpec
from repro.errors import ReproError
from repro.lp.pdhg import PDHGOptions
from repro.lp.pdhg_batch import batch_compatible, solve_lp_pdhg_batch_on_device
from repro.lp.result import LPResult, LPStatus
from repro.lp.simplex import SimplexOptions
from repro.mip.portfolio import PortfolioOptions
from repro.mip.problem import MIPProblem
from repro.mip.result import MIPResult
from repro.mip.solver import (
    BranchAndBoundSolver,
    ExecutionEngine,
    RoundMember,
    SolverOptions,
)


@dataclass
class BatchedSolverOptions:
    """Configuration for the batched-node driver."""

    batch_size: int = 16
    node_limit: int = 200_000
    mip_gap: float = 1e-6
    simplex: SimplexOptions = None
    warm_start: bool = True
    #: Node relaxation engine: "simplex" (exact, batched kernel charge)
    #: or "pdhg" (lockstep batched first-order sweeps — the whole round
    #: is two fused GEMMs per iteration; non-OPTIMAL members fall back
    #: to exact simplex so statuses stay vertex-grade).
    lp_engine: str = "simplex"
    pdhg: PDHGOptions = None
    #: Run the batched primal-heuristic portfolio
    #: (:mod:`repro.mip.portfolio`) on the device before the first
    #: round; its best certified incumbent pre-prunes the frontier.
    portfolio: Optional[PortfolioOptions] = None

    def __post_init__(self):
        if self.simplex is None:
            self.simplex = SimplexOptions()
        if self.pdhg is None:
            self.pdhg = PDHGOptions()
        if self.batch_size < 1:
            raise ReproError(
                f"batch_size must be at least 1, got {self.batch_size!r}"
            )
        if self.node_limit <= 0:
            raise ReproError(
                f"node_limit must be positive, got {self.node_limit!r}"
            )
        if not self.mip_gap >= 0:
            raise ReproError(
                f"mip_gap must be non-negative, got {self.mip_gap!r}"
            )
        if self.lp_engine not in ("simplex", "pdhg"):
            raise ReproError(
                f"lp_engine must be 'simplex' or 'pdhg', got {self.lp_engine!r}"
            )


class BatchedRoundEngine(ExecutionEngine):
    """Round evaluator: up to ``batch_size`` node LPs per device round."""

    def __init__(self, device: Device, options: BatchedSolverOptions):
        # node_lp stays "simplex": members the round leaves to exact
        # solves take the inherited warm/cold path.
        super().__init__(options.simplex, pdhg_options=options.pdhg)
        self.device = device
        self.round_width = options.batch_size
        self.lp_engine = options.lp_engine
        #: Device rounds launched (one per search round with live nodes).
        self.rounds = 0

    def begin_search(self, problem: MIPProblem, sf_root) -> None:
        if self.device.spec.is_accelerator:
            self.device.upload(sf_root.a)  # resident matrix, once

    def end_search(self) -> None:
        self.device.synchronize()

    @property
    def elapsed_seconds(self) -> float:
        return self.device.clock.now

    def _charge_round(self, k: int, m: int, n: int, iterations: int) -> None:
        """One batched kernel sequence for k node LPs in lockstep."""
        self.device._charge(K.batched_getrf_kernel(k, m), None)
        for _ in range(max(1, iterations)):
            self.device._charge(K.batched_trsv_kernel(k, m), None)
            self.device._charge(K.batched_trsv_kernel(k, m), None)
            self.device._charge(K.batched_gemm_kernel(k, 1, n, m), None)

    def solve_round(self, members: List[RoundMember]) -> None:
        self.rounds += 1
        if self.lp_engine == "pdhg":
            members = self._solve_round_pdhg(members)
        if members:
            # Exact per-member solves, charged as one lockstep round.
            super().solve_round(members)
            sf = members[-1].sf
            iterations = max(member.result.iterations for member in members)
            self._charge_round(len(members), sf.m, sf.n, iterations)

    def _solve_round_pdhg(self, members: List[RoundMember]) -> List[RoundMember]:
        """One lockstep batched-PDHG round; returns the members left for simplex.

        Sibling node LPs differ only in variable bounds, so the batch is
        (in practice always) shape-compatible and shares K — the whole
        round's matvecs fuse into two GEMMs per sweep.  Members that end
        anywhere short of eps-KKT OPTIMAL re-solve through the exact
        simplex path, keeping every status vertex-grade.
        """
        lps = [member.node_lp for member in members]
        if not batch_compatible(lps):
            return members
        batch = solve_lp_pdhg_batch_on_device(lps, self.device, options=self.pdhg_options)
        self.device.metrics.inc("pdhg.batch_rounds")
        fallback: List[RoundMember] = []
        for i, member in enumerate(members):
            if batch.statuses[i] is not LPStatus.OPTIMAL:
                fallback.append(member)
                continue
            self.device.metrics.inc("pdhg.node_solves")
            member.result = LPResult(
                status=LPStatus.OPTIMAL,
                objective=float(batch.bounds[i]),
                x=batch.x[i],
                iterations=int(batch.member_iterations[i]),
            )
        if fallback:
            self.device.metrics.inc("pdhg.fallbacks", len(fallback))
        return fallback


class BatchedNodeSolver(BranchAndBoundSolver):
    """Branch-and-bound evaluating up to K node LPs per device round."""

    def __init__(
        self,
        problem: MIPProblem,
        options: Optional[BatchedSolverOptions] = None,
        spec: DeviceSpec = V100,
        device: Optional[Device] = None,
    ):
        options = options or BatchedSolverOptions()
        # Callers (e.g. the serving layer's worker pool) may supply the
        # device so several solves share one clock and metrics stream.
        self.device = device if device is not None else Device(spec)
        # The batched search's fixed rules: most-fractional branching,
        # best-first selection, no rounding heuristic, no cuts.
        search = SolverOptions(
            branching="most_fractional",
            use_rounding_heuristic=False,
            node_limit=options.node_limit,
            mip_gap=options.mip_gap,
            simplex=options.simplex,
            warm_start=options.warm_start,
            portfolio=options.portfolio,
        )
        super().__init__(
            problem, search, engine=BatchedRoundEngine(self.device, options)
        )

    @property
    def rounds(self) -> int:
        """Device rounds the search launched."""
        return self.engine.rounds

    def solve(self) -> MIPResult:
        """Run the batched search to completion or the node limit."""
        return self._solve()
