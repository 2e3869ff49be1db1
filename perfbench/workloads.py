"""Seeded inputs for the three workloads, and the loops that replay them.

Every input is made from the ``--seed`` argument alone, and the program
under test receives only the generated problems.  The load comes from one
process with one thread.

- ``lp-burst``: open loop on the simulated clock.  A 4-shard cluster
  (hash router, S2 SLO admission) gets Pareto-burst arrivals of distinct,
  shape-diverse knapsack LP relaxations, so nearly every request is a cold
  lockstep solve.  The same stream is replayed at a fixed ladder of
  offered rates that brackets the 4-shard knee.
- ``lp-repeat``: the same cluster at one rate below the knee, fed a
  Zipf-hot set of LP structures: exact repeats, small rhs-only
  perturbations (parametric range hits) and larger rhs+objective
  perturbations (warm dual-simplex re-solves).
- ``mip-tree``: closed loop, one caller, no think time.  A corpus of MIPs
  goes through ``repro.api.solve`` with the serial metered driver, the
  batched-node driver and ``heuristic_first``; one instance also goes
  through ``solve_distributed`` with 4 simulated workers.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import api
from repro.api import SolveOptions
from repro.cluster.admission import PRIORITY_CLASSES
from repro.cluster.bench import S2_SLO
from repro.cluster.service import ClusterService
from repro.device.gpu import Device
from repro.device.spec import V100
from repro.errors import ServiceSaturated
from repro.lp.problem import LinearProgram
from repro.mip.problem import MIPProblem
from repro.problems import (
    generate_knapsack,
    generate_multiknapsack,
    generate_set_cover,
)
from repro.serve.batching import BatchingPolicy
from repro.serve.request import fingerprint
from repro.strategies import distributed

WORKLOADS = ("lp-burst", "lp-repeat", "mip-tree")

#: Cluster shape shared by both stream workloads (the S2 settings).
SHARDS = 4
WORKERS_PER_SHARD = 2
MAX_BATCH = 8
MAX_WAIT = 2e-5
MAX_QUEUE = 4096
#: Latency limit for goodput and capacity: the S2 SLO's p99 target.
SLO_SECONDS = S2_SLO.p99_target

#: Pareto tail index of the interarrival gaps: heavy-tailed bursts with
#: finite variance.
PARETO_ALPHA = 2.5
#: Every block of this many gaps is rescaled to mean 1, so a seed changes
#: the burst pattern but not the load offered in any window.
SCHEDULE_BLOCK = 8
PRIORITY_MIX = (0.2, 0.5, 0.3)

BURST_REQUESTS = 320
#: Offered requests per simulated second.  The 4-shard cluster stops
#: meeting the S2 SLO without shedding (its knee) between about 1,000/s
#: and 1,500/s, depending on the burst pattern.
BURST_RATES = (750.0, 1000.0, 1250.0, 1500.0, 2000.0)
#: Rung below the knee whose latencies are reported and which the timed
#: phase replays; SLO shedding, which starts at random near the knee,
#: would otherwise decide the numbers.
BURST_REFERENCE_RATE = 750.0

REPEAT_STRUCTURES = 150
REPEAT_REQUESTS = 600
REPEAT_RATE = 800.0
ZIPF_S = 1.1
#: Shares of exact repeats, rhs-only and rhs+objective perturbations
#: among requests for an already-seen structure.
REPEAT_MIX = (0.35, 0.35, 0.3)

#: The fixed mip-tree corpus: (family, size, generator seed).  The run
#: seed does not pick instances: it permutes their columns, rescales
#: rows and objective by powers of two (exact in floating point) and
#: shuffles the call order.  B&B trees of random instances vary several
#: fold in size, so drawing fresh instances per seed would measure the
#: draw, not the program.
MIP_CORPUS = (
    ("sck", 10, 0), ("sck", 11, 1), ("sck", 10, 2),
    ("mkp", 10, 0), ("mkp", 9, 1), ("mkp", 10, 2),
    ("sc", 16, 0), ("sc", 18, 1), ("sc", 16, 2),
)
MIP_DRIVERS = ("serial", "batched", "heuristic_first")
MIP_NODE_BATCH = 16
DISTRIBUTED_INSTANCE = ("sck", 9, 0)
DISTRIBUTED_WORKERS = 4


def make_cluster() -> ClusterService:
    """The 4-shard cluster both stream workloads run against."""
    return ClusterService(
        groups=SHARDS,
        router="hash",
        num_workers=WORKERS_PER_SHARD,
        policy=BatchingPolicy(
            max_batch_size=MAX_BATCH, max_wait=MAX_WAIT, max_queue_depth=MAX_QUEUE
        ),
        slo=S2_SLO,
    )


# -- inputs ---------------------------------------------------------------------


@dataclass(frozen=True)
class StreamRequest:
    """One open-loop request; due at ``due_unit / rate`` simulated seconds."""

    due_unit: float
    problem: LinearProgram
    priority: str
    kind: str


@dataclass(frozen=True)
class StreamWorkload:
    name: str
    requests: Tuple[StreamRequest, ...]
    rates: Tuple[float, ...]
    reference_rate: float


@dataclass(frozen=True)
class MipCall:
    """One closed-loop call: a corpus instance through one driver."""

    label: str
    driver: str
    problem: MIPProblem


@dataclass(frozen=True)
class MipWorkload:
    name: str
    calls: Tuple[MipCall, ...]


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _burst_schedule(rng: np.random.Generator, n: int) -> np.ndarray:
    """Pareto (Lomax) arrival offsets at unit mean rate, block by block."""
    gaps = rng.pareto(PARETO_ALPHA, size=n)
    for start in range(0, n, SCHEDULE_BLOCK):
        block = gaps[start:start + SCHEDULE_BLOCK]
        block *= block.size / block.sum()
    return np.cumsum(gaps)


def _priorities(rng: np.random.Generator, n: int) -> List[str]:
    picks = rng.choice(len(PRIORITY_CLASSES), size=n, p=list(PRIORITY_MIX))
    return [PRIORITY_CLASSES[int(p)] for p in picks]


def lp_burst(seed: int) -> StreamWorkload:
    rng = _rng(seed, "lp-burst")
    due = _burst_schedule(rng, BURST_REQUESTS)
    priorities = _priorities(rng, BURST_REQUESTS)
    requests = tuple(
        StreamRequest(
            due_unit=float(due[i]),
            problem=generate_knapsack(40 + i % 32, seed=_draw_seed(rng)).relaxation(),
            priority=priorities[i],
            kind="cold",
        )
        for i in range(BURST_REQUESTS)
    )
    return StreamWorkload("lp-burst", requests, BURST_RATES, BURST_REFERENCE_RATE)


def lp_repeat(seed: int) -> StreamWorkload:
    rng = _rng(seed, "lp-repeat")
    # Sizes follow popularity rank, so the hottest structures have the
    # same shapes on every seed; otherwise the seed would decide how large
    # the ~20% of requests on the top structure are.
    bases = [
        generate_knapsack(20 + rank % 24, seed=_draw_seed(rng)).relaxation()
        for rank in range(REPEAT_STRUCTURES)
    ]
    weights = 1.0 / np.arange(1, REPEAT_STRUCTURES + 1, dtype=float) ** ZIPF_S
    ranks = rng.choice(REPEAT_STRUCTURES, size=REPEAT_REQUESTS, p=weights / weights.sum())
    due = _burst_schedule(rng, REPEAT_REQUESTS)
    priorities = _priorities(rng, REPEAT_REQUESTS)
    seen = set()
    requests = []
    for i, rank in enumerate(ranks):
        base = bases[int(rank)]
        if int(rank) not in seen:
            seen.add(int(rank))
            kind, problem = "cold", base
        else:
            kind = ("repeat", "rhs", "rhs+obj")[int(rng.choice(3, p=REPEAT_MIX))]
            if kind == "repeat":
                problem = base
            elif kind == "rhs":
                problem = LinearProgram(
                    c=base.c, a_ub=base.a_ub,
                    b_ub=base.b_ub * (1.0 + rng.uniform(-2e-3, 2e-3)),
                    lb=base.lb, ub=base.ub,
                )
            else:
                problem = LinearProgram(
                    c=base.c * (1.0 + rng.uniform(-5e-3, 5e-3, size=base.n)),
                    a_ub=base.a_ub,
                    b_ub=base.b_ub * (1.0 + rng.uniform(-0.1, 0.1)),
                    lb=base.lb, ub=base.ub,
                )
        requests.append(StreamRequest(float(due[i]), problem, priorities[i], kind))
    return StreamWorkload("lp-repeat", tuple(requests), (REPEAT_RATE,), REPEAT_RATE)


def _mip_instance(family: str, size: int, seed: int) -> MIPProblem:
    if family == "sck":
        return generate_knapsack(size, seed=seed, correlation="strong")
    if family == "mkp":
        return generate_multiknapsack(size, 3, seed=seed)
    return generate_set_cover(size, size + 4, density=0.2, seed=seed)


def _present(problem: MIPProblem, rng: np.random.Generator) -> MIPProblem:
    """An equivalent copy: columns permuted, rows and objective scaled by 2^k."""
    perm = rng.permutation(problem.n)
    row_scale = 2.0 ** rng.integers(-2, 3, size=problem.a_ub.shape[0])
    obj_scale = 2.0 ** int(rng.integers(-2, 3))
    return MIPProblem(
        c=problem.c[perm] * obj_scale,
        integer=problem.integer[perm],
        a_ub=problem.a_ub[:, perm] * row_scale[:, None],
        b_ub=problem.b_ub * row_scale,
        lb=problem.lb[perm],
        ub=problem.ub[perm],
        name=problem.name,
    )


def mip_tree(seed: int) -> MipWorkload:
    rng = _rng(seed, "mip-tree")
    calls = []
    for family, size, instance_seed in MIP_CORPUS:
        problem = _present(_mip_instance(family, size, instance_seed), rng)
        for driver in MIP_DRIVERS:
            calls.append(MipCall(f"{family}{size}.{instance_seed}/{driver}", driver, problem))
    order = rng.permutation(len(calls))
    calls = [calls[int(i)] for i in order]
    family, size, instance_seed = DISTRIBUTED_INSTANCE
    problem = _present(_mip_instance(family, size, instance_seed), rng)
    calls.append(MipCall(f"{family}{size}.{instance_seed}/distributed", "distributed", problem))
    return MipWorkload("mip-tree", tuple(calls))


def make_inputs(workload: str, seed: int):
    """The workload's inputs for ``seed`` (same seed, same bytes)."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    generators = {"lp-burst": lp_burst, "lp-repeat": lp_repeat, "mip-tree": mip_tree}
    if workload not in generators:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return generators[workload](seed)


def input_digest(inputs) -> str:
    """SHA-256 over every generated input, schedule and label."""
    digest = hashlib.sha256(inputs.name.encode())
    if isinstance(inputs, StreamWorkload):
        digest.update(np.asarray(inputs.rates, dtype=float).tobytes())
        for req in inputs.requests:
            digest.update(struct.pack("<d", req.due_unit))
            digest.update(f"{req.priority}/{req.kind}".encode())
            digest.update(fingerprint(req.problem).encode())
    else:
        for call in inputs.calls:
            digest.update(f"{call.label}/{call.driver}".encode())
            digest.update(fingerprint(call.problem).encode())
    return digest.hexdigest()


# -- outcomes -------------------------------------------------------------------


@dataclass(frozen=True)
class Answer:
    """What the program answered for one input.

    ``status`` is the solver status for answered requests, else the
    serving outcome (``shed``, ``timeout``, ``failed``, ``rejected``).
    ``sim`` holds every simulated output field, for the digest.
    """

    index: int
    status: str
    objective: float
    sim: Tuple


def sim_digest(answers: Sequence[Answer], extra: Sequence[float] = ()) -> str:
    """SHA-256 over every simulated output field, bit for bit."""
    digest = hashlib.sha256()
    for a in answers:
        digest.update(f"{a.index}:{a.status};".encode())
        for field in (a.objective,) + tuple(a.sim):
            if isinstance(field, np.ndarray):
                digest.update(field.tobytes())
            elif isinstance(field, float):
                digest.update(struct.pack("<d", field))
            else:
                digest.update(repr(field).encode())
    digest.update(np.asarray(extra, dtype=np.float64).tobytes())
    return digest.hexdigest()


@dataclass
class RungRun:
    """One replay of a stream at one offered rate."""

    rate: float
    cluster: Optional[ClusterService]
    answers: List[Answer]
    latencies: np.ndarray  # due -> completion, answered-OK requests only
    host_s: float
    late_s: float
    makespan: float

    def count(self, *statuses: str) -> int:
        return sum(1 for a in self.answers if a.status in statuses)


def replay_stream(
    workload: StreamWorkload,
    rate: float,
    clock: Callable[[], float],
    on_request: Optional[Callable[[int], None]] = None,
) -> RungRun:
    """Submit every request at its due time on the simulated clock.

    Each request is stamped with its due time, so the generator is never
    late by construction; ``late_s`` re-checks that the cluster clock had
    not passed a request's due time when it was submitted.
    ``on_request(i)`` runs before request ``i`` (and with ``-1`` before
    the final drain) so a tracer can tag spans with the request id.
    """
    due = [req.due_unit / rate for req in workload.requests]
    start = clock()
    cluster = make_cluster()
    late = 0.0
    rejected = []
    for i, req in enumerate(workload.requests):
        late = max(late, cluster.now - due[i])
        if on_request is not None:
            on_request(i)
        try:
            cluster.submit(req.problem, at=due[i], priority=req.priority)
        except ServiceSaturated:
            rejected.append(i)
    if on_request is not None:
        on_request(-1)
    responses = cluster.drain()
    host = clock() - start

    answers = [Answer(i, "rejected", float("nan"), ()) for i in rejected]
    latencies = []
    for r in responses:
        i = r.request_id
        status = r.solver_status if r.ok else r.outcome.value
        answers.append(
            Answer(
                i,
                status,
                float(r.objective),
                (
                    r.x if r.x is not None else None,
                    float(r.best_bound), float(r.gap),
                    float(r.dispatch_time), float(r.start_time),
                    float(r.completion_time), r.cached, r.coalesced, r.warm,
                    r.batch_size, r.worker, r.retries,
                ),
            )
        )
        if r.ok:
            latencies.append(r.completion_time - due[i])
    answers.sort(key=lambda a: a.index)
    last_answer = max((r.completion_time for r in responses), default=0.0)
    return RungRun(
        rate=rate,
        cluster=cluster,
        answers=answers,
        latencies=np.asarray(latencies, dtype=float),
        host_s=host,
        late_s=late,
        makespan=max(float(cluster.makespan), float(last_answer)),
    )


@dataclass
class CallRun:
    """One closed-loop MIP call."""

    call: MipCall
    answer: Answer
    host_s: float
    sim_s: float
    nodes: int


def run_call(index: int, call: MipCall, clock: Callable[[], float]) -> CallRun:
    """Solve one corpus call the way its driver says.

    Entry points are looked up on their modules at call time, so the
    traced run's wrappers see these calls.
    """
    start = clock()
    if call.driver == "distributed":
        result = distributed.solve_distributed(call.problem, num_workers=DISTRIBUTED_WORKERS)
        host = clock() - start
        status = "optimal" if np.isfinite(result.objective) else "failed"
        answer = Answer(
            index, status, float(result.objective),
            (
                float(result.makespan_seconds), result.nodes_evaluated,
                tuple(result.per_worker), result.messages, result.comm_bytes,
            ),
        )
        return CallRun(call, answer, host, float(result.makespan_seconds),
                       int(result.nodes_evaluated))
    if call.driver == "serial":
        options = SolveOptions(strategy="gpu_only")
    elif call.driver == "batched":
        options = SolveOptions(device=Device(V100), mip_node_batch=MIP_NODE_BATCH)
    else:
        options = SolveOptions(strategy="gpu_only", mode="heuristic_first")
    report = api.solve(call.problem, options)
    host = clock() - start
    answer = Answer(
        index, report.status, float(report.objective),
        (
            report.x, float(report.best_bound), float(report.gap),
            report.nodes, report.lp_iterations, float(report.makespan_seconds),
        ),
    )
    return CallRun(call, answer, host, float(report.makespan_seconds), int(report.nodes))


def run_corpus(
    workload: MipWorkload,
    clock: Callable[[], float],
    on_request: Optional[Callable[[int], None]] = None,
) -> List[CallRun]:
    runs = []
    for i, call in enumerate(workload.calls):
        if on_request is not None:
            on_request(i)
        runs.append(run_call(i, call, clock))
    return runs


def summarize_kinds(workload: StreamWorkload) -> Dict[str, int]:
    return dict(Counter(req.kind for req in workload.requests))
