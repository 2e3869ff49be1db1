"""The layer boundaries the traced run wraps, and the per-layer metrics.

Span names follow the repository's modules: ``cluster`` → ``serve`` →
``api`` → ``mip`` → ``lp`` → ``la`` → ``device``, beside ``check``,
``comm`` and ``obs``.  Counts come from hooks at the same boundaries or
from the program's own counters on the objects the pass built.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from perfbench.tracing import Boundary, LayerTime, SpanStore


def _count_members_and_pivots(store: SpanStore, args, kwargs, result) -> None:
    lps = args[0] if args else kwargs["lps"]
    store.add("lp.batch_simplex.members", len(lps))
    store.add("lp.batch_simplex.pivots", result.iterations)


def _pivots(counter: str):
    def hook(store: SpanStore, args, kwargs, result) -> None:
        store.add(counter, result.iterations)

    return hook


def _warm_fallback(store: SpanStore, args, kwargs, result) -> None:
    if result is None or result.audit_failed:
        store.add("lp.warm.cold_fallbacks")


def _certify_failure(store: SpanStore, args, kwargs, result) -> None:
    if not result.ok:
        store.add("check.certify.failures")


def _charge(store: SpanStore, args, kwargs, result) -> None:
    cost = args[1] if len(args) > 1 else kwargs["cost"]
    store.add("device.flops_computed", cost.flops)
    store.add("device.bytes_computed", cost.bytes_moved)
    store.add("device.sim_busy_s", result)


def _tree(store: SpanStore, args, kwargs, result) -> None:
    stats = result.stats
    store.add("mip.nodes", stats.nodes_processed)
    store.add("mip.warm_starts", stats.warm_starts)
    store.add("mip.cold_starts", stats.cold_starts)


def _distributed(store: SpanStore, args, kwargs, result) -> None:
    store.add("mip.nodes", result.nodes_evaluated)
    store.add("comm.messages", result.messages)
    store.add("comm.bytes", result.comm_bytes)


def _portfolio(store: SpanStore, args, kwargs, result) -> None:
    store.add("mip.portfolio.incumbents", len(result.incumbents))


BOUNDARIES: List[Boundary] = [
    Boundary("cluster.submit", "repro.cluster.service:ClusterService.submit"),
    Boundary("cluster.route", "repro.cluster.router:routing_key"),
    Boundary("cluster.route", "repro.cluster.router:ConsistentHashRouter.route"),
    Boundary("cluster.route", "repro.cluster.router:LeastLoadedRouter.route"),
    Boundary("cluster.admission", "repro.cluster.admission:SLOAdmission.admit"),
    Boundary("cluster.admission", "repro.cluster.admission:SLOAdmission.observe"),
    Boundary("serve.dispatch", "repro.serve.scheduler:WorkerPool.dispatch"),
    Boundary("serve.fingerprint", "repro.serve.request:fingerprint"),
    Boundary("serve.fingerprint", "repro.serve.parametric:structure_fingerprint"),
    Boundary("serve.parametric", "repro.serve.parametric:ParametricCache.try_answer"),
    Boundary("serve.parametric", "repro.serve.parametric:ParametricCache.seed"),
    Boundary("api.solve", "repro.api:solve"),
    Boundary("mip.serial", "repro.mip.solver:BranchAndBoundSolver.solve", _tree),
    Boundary("mip.batched", "repro.mip.batch_solver:BatchedNodeSolver.solve", _tree),
    Boundary("mip.distributed", "repro.strategies.distributed:solve_distributed", _distributed),
    Boundary("mip.portfolio", "repro.mip.portfolio:run_portfolio", _portfolio),
    Boundary("comm.supervisor", "repro.comm.supervisor:run_supervisor_worker"),
    Boundary("lp.batch_simplex", "repro.lp.batch_simplex:solve_lp_batch", _count_members_and_pivots),
    Boundary("lp.dual_simplex", "repro.lp.dual_simplex:dual_simplex_resolve", _pivots("lp.dual_simplex.pivots")),
    Boundary("lp.simplex", "repro.lp.simplex:solve_standard_form", _pivots("lp.simplex.pivots")),
    Boundary("lp.warm", "repro.lp.warm:warm_resolve", _warm_fallback),
    Boundary("lp.sensitivity", "repro.lp.sensitivity:analyze"),
    Boundary("lp.standard_form", "repro.lp.problem:LinearProgram.to_standard_form"),
    Boundary("la.lu_factor", "repro.la.dense:lu_factor"),
    Boundary("la.lu_solve", "repro.la.dense:lu_solve"),
    Boundary("device.charge", "repro.device.gpu:Device._charge", _charge),
    Boundary("check.certify", "repro.check.certificates:certify_lp_result", _certify_failure),
    Boundary("check.certify", "repro.check.certificates:certify_mip_solution", _certify_failure),
    Boundary("check.certify", "repro.check.certificates:certify_mip_result", _certify_failure),
    Boundary("obs.metrics", "repro.metrics:Metrics.inc"),
    Boundary("obs.metrics", "repro.metrics:Metrics.add_time"),
    Boundary("obs.metrics", "repro.metrics:Metrics.observe"),
]

#: (metric, span, field): field is "calls", "self" or "inclusive".
SPAN_METRICS = (
    ("cluster.submit.self_s", "cluster.submit", "self"),
    ("cluster.route.host_s", "cluster.route", "self"),
    ("cluster.admission.host_s", "cluster.admission", "self"),
    ("serve.dispatch.calls", "serve.dispatch", "calls"),
    ("serve.dispatch.self_s", "serve.dispatch", "self"),
    ("serve.fingerprint.host_s", "serve.fingerprint", "self"),
    ("serve.parametric.host_s", "serve.parametric", "self"),
    ("api.solve.self_s", "api.solve", "self"),
    ("mip.serial.host_s", "mip.serial", "inclusive"),
    ("mip.batched.host_s", "mip.batched", "inclusive"),
    ("mip.distributed.host_s", "mip.distributed", "inclusive"),
    ("mip.portfolio.host_s", "mip.portfolio", "self"),
    ("comm.supervisor.self_s", "comm.supervisor", "self"),
    ("lp.batch_simplex.calls", "lp.batch_simplex", "calls"),
    ("lp.batch_simplex.self_s", "lp.batch_simplex", "self"),
    ("lp.dual_simplex.self_s", "lp.dual_simplex", "self"),
    ("lp.simplex.self_s", "lp.simplex", "self"),
    ("lp.warm.self_s", "lp.warm", "self"),
    ("lp.sensitivity.host_s", "lp.sensitivity", "self"),
    ("lp.standard_form.host_s", "lp.standard_form", "self"),
    ("la.lu_factor.calls", "la.lu_factor", "calls"),
    ("la.lu_factor.host_s", "la.lu_factor", "self"),
    ("la.lu_solve.calls", "la.lu_solve", "calls"),
    ("la.lu_solve.host_s", "la.lu_solve", "self"),
    ("device.charge.calls", "device.charge", "calls"),
    ("device.charge.host_s", "device.charge", "self"),
    ("check.certify.calls", "check.certify", "calls"),
    ("check.certify.host_s", "check.certify", "self"),
    ("obs.metrics.calls", "obs.metrics", "calls"),
    ("obs.metrics.host_s", "obs.metrics", "self"),
)

#: Counters the hooks add, reported as they are.
HOOK_COUNTS = (
    "lp.batch_simplex.members",
    "lp.batch_simplex.pivots",
    "lp.dual_simplex.pivots",
    "lp.simplex.pivots",
    "lp.warm.cold_fallbacks",
    "check.certify.failures",
    "device.sim_busy_s",
    "device.flops_computed",
    "device.bytes_computed",
    "mip.nodes",
    "mip.portfolio.incumbents",
    "comm.messages",
    "comm.bytes",
)

#: Cluster-tier simulated p99s, read with ``ClusterService.percentile``.
CLUSTER_TIERS = ("queue_wait", "batch", "solve", "router")


def span_metrics(times: Dict[str, LayerTime]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for metric, span, field in SPAN_METRICS:
        t = times.get(span, LayerTime(0, 0.0, 0.0))
        out[metric] = {"calls": t.calls, "self": t.self_s, "inclusive": t.inclusive_s}[field]
    return out


def hook_metrics(store: SpanStore) -> Dict[str, float]:
    out = {name: store.counts.get(name, 0) for name in HOOK_COUNTS}
    warm = store.counts.get("mip.warm_starts", 0)
    cold = store.counts.get("mip.cold_starts", 0)
    out["mip.warm_ratio"] = warm / (warm + cold) if warm + cold else 0.0
    return out


def tree_metrics(span: Dict[str, float], hooks: Dict[str, float]) -> Dict[str, float]:
    drivers = sum(span[f"mip.{d}.host_s"] for d in ("serial", "batched", "distributed"))
    nodes = hooks["mip.nodes"]
    return {"mip.host_ms_per_node": 1e3 * drivers / nodes if nodes else 0.0}


def cluster_metrics(clusters: Sequence, reference) -> Dict[str, float]:
    """Serve and cluster counters summed over every cluster of one pass.

    ``reference`` is the cluster whose simulated tier percentiles are
    reported (``None`` when the workload bypasses the cluster tier).
    """
    hits = misses = coalesced = members = batches = 0
    ranged = warm = param_miss = audit = 0
    lookups = cache_hits = remote = spills = affinity = shed = 0
    for cluster in clusters:
        # Serve counters live on each group's SolveService, which the
        # cluster exposes only through its private group table.
        for svc in cluster._groups.values():
            m = svc.metrics
            hits += m.count("serve.cache.hits")
            misses += m.count("serve.cache.misses")
            coalesced += m.count("serve.coalesced")
            members += m.count("serve.batch_members")
            batches += m.count("serve.batches")
            p = svc.parametric
            ranged += p.range_hits
            warm += p.warm_hits
            param_miss += p.misses
            audit += p.audit_failures
        stats = cluster.cache.stats()
        cache_hits += stats["local_hits"] + stats["remote_hits"]
        lookups += stats["local_hits"] + stats["remote_hits"] + stats["misses"]
        remote += stats["remote_hits"]
        spills += getattr(cluster.router, "spills", 0)
        affinity += cluster.metrics.count("cluster.affinity_hits")
        shed += cluster.metrics.count("cluster.shed")
    useful = ranged + warm
    out = {
        "serve.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.coalesced": coalesced,
        "serve.batch_members.mean": members / batches if batches else 0.0,
        "serve.parametric.range_hits": ranged,
        "serve.parametric.warm_hits": warm,
        "serve.parametric.useful_ratio": useful / (useful + param_miss) if useful + param_miss else 0.0,
        "serve.parametric.audit_failures": audit,
        "cluster.cache.hit_ratio": cache_hits / lookups if lookups else 0.0,
        "cluster.cache.remote_hits": remote,
        "cluster.router.spills": spills,
        "cluster.router.affinity_hits": affinity,
        "cluster.admission.shed": shed,
    }
    for tier in CLUSTER_TIERS:
        value = 0.0
        if reference is not None:
            value = float(reference.percentile(f"cluster.{tier}", 99.0))
        out[f"cluster.{tier}.sim_p99_s"] = value if np.isfinite(value) else 0.0
    return out
