"""One benchmark run of one workload: set up, check, measure, report.

End-to-end metrics come from untraced replays; ``--trace 1`` follows
each untraced timed unit with a traced one and reports the per-layer
breakdown plus the tracing overhead (traced minus untraced host seconds
per unit).  Every replay uses identical inputs, so simulated outputs must
repeat bit for bit; answers are checked against HiGHS.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import layers, workloads as W
from perfbench.oracle import Oracle, mismatch
from perfbench.tracing import SpanStore, assert_untraced, layer_times, traced, write_spans

CLOCK = time.perf_counter
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
#: Requests of the stream replayed once before timing (lazy imports).
WARMUP_REQUESTS = 24

#: End-to-end metrics of the result line: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "req_per_host_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_latency_p50_s": "s",
    "sim_latency_tail_s": "s",
}
#: Printed on every workload but kept out of the result line: below the
#: knee goodput is pinned to the offered rate (it can read the same on
#: every seed), and above it SLO shedding decides it at random.
REPORT_ONLY = {"sim_goodput_rps": "1/s"}

#: Per-layer metrics in the result line of a traced run: name -> unit.
#: Host times are listed only for layers every workload passes through;
#: a bypassed layer's time would read 0.0 on every run.  The full
#: breakdown, with the host times of every layer, is printed above the
#: result line and written to ``.perfbench_out/layers-*.json``.
PER_LAYER = {
    "lp.batch_simplex.calls": "count",
    "lp.batch_simplex.members": "count",
    "lp.batch_simplex.pivots": "count",
    "lp.dual_simplex.pivots": "count",
    "lp.simplex.pivots": "count",
    "lp.warm.cold_fallbacks": "count",
    "lp.standard_form.host_s": "s",
    "la.lu_solve.calls": "count",
    "la.lu_factor.calls": "count",
    "serve.dispatch.calls": "count",
    "serve.batch_members.mean": "ratio",
    "serve.parametric.range_hits": "count",
    "serve.parametric.warm_hits": "count",
    "check.certify.calls": "count",
    "mip.nodes": "count",
    "mip.warm_ratio": "ratio",
    "mip.portfolio.incumbents": "count",
    "comm.messages": "count",
    "device.charge.calls": "count",
    "device.charge.host_s": "s",
    "device.sim_busy_s": "s",
    "device.flops_computed": "flop",
    "device.bytes_computed": "B",
    "obs.metrics.calls": "count",
    "obs.metrics.host_s": "s",
    "trace.overhead_s": "s",
}


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it."""
    if n <= 10:
        return 50.0
    return min(99.9, math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0)


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else float("nan")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine() -> Dict[str, object]:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", ""),
    }


# -- setup ---------------------------------------------------------------------


def measure_setup(workload: str, run_py: Path) -> float:
    """Median set-up seconds over fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(run_py), "--setup-probe", workload],
            check=True, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


# -- passes --------------------------------------------------------------------


@dataclass
class Pass:
    """One replay: every rung of ``rates`` (streams) or the whole corpus."""

    host_s: float
    answers: List[W.Answer]
    #: Simulated-output digest per unit ("rate=<r>" per rung, or "corpus").
    digests: Dict[str, str]
    rungs: List[W.RungRun] = field(default_factory=list)
    calls: List[W.CallRun] = field(default_factory=list)
    store: Optional[SpanStore] = None

    @property
    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.digests, sort_keys=True).encode()).hexdigest()

    def rung(self, rate: float) -> W.RungRun:
        return next(r for r in self.rungs if r.rate == rate)


def run_pass(inputs, rates=None, store: Optional[SpanStore] = None) -> Pass:
    """Replay the inputs once; ``rates`` defaults to the timed rung only."""
    on_request = None
    if store is not None:
        def on_request(i: int) -> None:
            store.op_id = i

    if isinstance(inputs, W.StreamWorkload):
        rungs = []
        for rate in rates or (inputs.reference_rate,):
            rungs.append(W.replay_stream(inputs, rate, CLOCK, on_request))
            if store is None:
                # Only the traced run reads the cluster's own counters;
                # freeing it keeps peak memory to one cluster at a time.
                rungs[-1].cluster = None
                gc.collect()
        return Pass(
            sum(r.host_s for r in rungs),
            [a for r in rungs for a in r.answers],
            {f"rate={r.rate:g}": W.sim_digest(r.answers, [r.makespan]) for r in rungs},
            rungs=rungs,
            store=store,
        )
    calls = W.run_corpus(inputs, CLOCK, on_request)
    answers = [c.answer for c in calls]
    return Pass(sum(c.host_s for c in calls), answers, {"corpus": W.sim_digest(answers)},
                calls=calls, store=store)


def timed_sample(inputs, p: Pass) -> Tuple[int, float]:
    """(requests answered, host seconds) of the timed unit inside a pass."""
    if isinstance(inputs, W.StreamWorkload):
        rung = p.rung(inputs.reference_rate)
        return len(rung.answers), rung.host_s
    return len(p.answers), p.host_s


def warm_up(inputs) -> None:
    """Run a small prefix once so lazy imports land before timing."""
    if isinstance(inputs, W.StreamWorkload):
        prefix = W.StreamWorkload(
            inputs.name, inputs.requests[:WARMUP_REQUESTS], inputs.rates[:1],
            inputs.reference_rate,
        )
        W.replay_stream(prefix, prefix.rates[0], CLOCK)
    else:
        W.run_call(0, inputs.calls[0], CLOCK)


def input_problems(inputs) -> List:
    if isinstance(inputs, W.StreamWorkload):
        return [r.problem for r in inputs.requests]
    return [c.problem for c in inputs.calls]


# -- checking ------------------------------------------------------------------


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    shed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def failed_share(self) -> float:
        return (self.failed + self.shed) / self.attempted if self.attempted else 0.0


def check_pass(inputs, p: Pass, oracle: Oracle) -> Check:
    """Compare every answer of one pass with its HiGHS reference."""
    problems = input_problems(inputs)
    check = Check()
    for a in p.answers:
        check.attempted += 1
        if a.status == "shed":
            check.shed += 1
            continue
        problem = problems[a.index]
        why = mismatch(a.status, a.objective, oracle[problem])
        if why is not None:
            check.failed += 1
            if len(check.problems) < 5:
                check.problems.append(f"input {a.index}: {why}")
    return check


# -- end-to-end metrics --------------------------------------------------------


@dataclass
class RungRow:
    rate: float
    ok: int
    shed: int
    failed: int
    p50: float
    p99: float
    goodput: float
    backlog: float
    meets: bool


def rung_row(workload: W.StreamWorkload, rung: W.RungRun) -> RungRow:
    lat = rung.latencies
    good = int(np.sum(lat <= W.SLO_SECONDS))
    backlog = rung.makespan - workload.requests[-1].due_unit / rung.rate
    shed = rung.count("shed")
    failed = rung.count("rejected", "timeout", "failed", "partial")
    p99 = percentile(lat, 99.0)
    meets = shed == 0 and failed == 0 and p99 <= W.SLO_SECONDS and backlog <= W.SLO_SECONDS
    return RungRow(rung.rate, len(lat), shed, failed, percentile(lat, 50.0), p99,
                   good / rung.makespan, backlog, meets)


def sim_metrics(inputs, p: Pass) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Simulated end-to-end metrics of the sim phase, plus report extras.

    Streams report the reference rung: latencies of answered-OK requests
    and good answers (OK within the SLO) per simulated second.
    ``mip-tree`` uses per-solve makespans, and its goodput is optimal
    solves per simulated second of the closed loop.
    """
    extras: Dict[str, object] = {}
    if isinstance(inputs, W.StreamWorkload):
        ref = p.rung(inputs.reference_rate)
        lat = ref.latencies
        goodput = int(np.sum(lat <= W.SLO_SECONDS)) / ref.makespan
        extras["rungs"] = [rung_row(inputs, r) for r in p.rungs]
        extras["late_s"] = max(r.late_s for r in p.rungs)
        if len(p.rungs) > 1:
            meeting = [r.rate for r in extras["rungs"] if r.meets]
            extras["sim_capacity_rps"] = max(meeting) if meeting else 0.0
    else:
        lat = np.array([c.sim_s for c in p.calls])
        ok = sum(1 for c in p.calls if c.answer.status == "optimal")
        goodput = ok / float(lat.sum())
    q = tail_percentile(lat.size)
    extras["tail"] = (q, lat.size)
    return {
        "sim_latency_p50_s": percentile(lat, 50.0),
        "sim_latency_tail_s": percentile(lat, q),
        "sim_goodput_rps": goodput,
    }, extras


# -- per-layer metrics ---------------------------------------------------------


def per_layer(inputs, p: Pass) -> Dict[str, float]:
    span = layers.span_metrics(layer_times(p.store))
    hooks = layers.hook_metrics(p.store)
    out = {**span, **hooks, **layers.tree_metrics(span, hooks)}
    clusters = [r.cluster for r in p.rungs]
    out.update(layers.cluster_metrics(clusters, clusters[0] if clusters else None))
    return out


def unit_of(metric: str) -> str:
    known = {**END_TO_END, **REPORT_ONLY, **PER_LAYER}
    if metric in known:
        return known[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio") or metric.endswith(".mean"):
        return "ratio"
    if metric.endswith("ms_per_node"):
        return "ms"
    return "count"


# -- the run -------------------------------------------------------------------


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    lines: List[str]

    def result_line(self, names: Dict[str, str]) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in names.items()
            },
        })


def run(workload: str, seed: int, seconds: float, trace: bool, run_py: Path,
        out_dir: Path) -> RunResult:
    """Set up, run the sim phase, then the timed phase for ``seconds``.

    The sim phase replays everything once (the whole rate ladder for
    ``lp-burst``); its answers are checked and give the simulated metrics.
    The timed phase repeats the timed unit (the reference rung, the
    ``lp-repeat`` stream or the ``mip-tree`` corpus) until ``seconds``
    pass; the sim phase's own timed unit is its first sample.  With
    ``trace`` every untraced unit is followed by a traced one.
    """
    setup_s = measure_setup(workload, run_py)
    inputs = W.make_inputs(workload, seed)
    oracle = Oracle()
    distinct = oracle.prepare(input_problems(inputs))
    warm_up(inputs)

    boundaries = layers.BOUNDARIES
    assert_untraced(boundaries)
    start = CLOCK()
    sim_pass = run_pass(inputs, rates=getattr(inputs, "rates", None))
    check = check_pass(inputs, sim_pass, oracle)
    sim, extras = sim_metrics(inputs, sim_pass)
    # Only numbers are kept from later units, so memory does not grow
    # with the number of units a run fits in.
    samples = [timed_sample(inputs, sim_pass)]
    call_host_s = [c.host_s for c in sim_pass.calls]
    mismatched = 0
    traced_layers: List[Dict[str, float]] = []
    traced_host: List[float] = []
    spans_written = 0
    stem = f"{workload}-seed{seed}"
    while True:
        if trace:
            store = SpanStore(CLOCK)
            with traced(boundaries, store):
                p = run_pass(inputs, store=store)
            assert_untraced(boundaries)
            if not traced_layers:
                traced_check = check_pass(inputs, p, oracle)
                check.failed += traced_check.failed
                check.problems += traced_check.problems
                out_dir.mkdir(parents=True, exist_ok=True)
                write_spans(store, out_dir / f"spans-{stem}.json.gz")
                spans_written = len(store)
            traced_layers.append(per_layer(inputs, p))
            traced_host.append(timed_sample(inputs, p)[1])
            mismatched += sum(sim_pass.digests[k] != d for k, d in p.digests.items())
            del p, store
            gc.collect()
        if CLOCK() - start >= seconds:
            break
        p = run_pass(inputs)
        samples.append(timed_sample(inputs, p))
        call_host_s += [c.host_s for c in p.calls]
        mismatched += sum(sim_pass.digests[k] != d for k, d in p.digests.items())
        del p
        gc.collect()
    assert_untraced(boundaries)

    deterministic = mismatched == 0
    on_time = extras.get("late_s", 0.0) <= 0.0
    correct = check.failed == 0 and deterministic and on_time
    metrics: Dict[str, float] = {
        "setup_s": setup_s,
        "req_per_host_s": statistics.median(n / host for n, host in samples),
        **sim,
    }

    lines = [
        f"workload {workload}  seed {seed}  timed units {len(samples)}"
        + (f" + {len(traced_layers)} traced" if trace else "")
        + f"  machine {json.dumps(machine(), sort_keys=True)}",
        f"inputs {len(input_problems(inputs))} ({distinct} distinct, each checked against "
        f"HiGHS)  input_digest {W.input_digest(inputs)}",
        f"sim_digest {sim_pass.digest}  ("
        + ("every replay identical" if deterministic else "REPLAYS DIFFER") + ")",
    ]
    if isinstance(inputs, W.StreamWorkload):
        lines.append(f"kinds {json.dumps(W.summarize_kinds(inputs), sort_keys=True)}  "
                     f"generator lateness {extras['late_s']:g} s")
        lines.append("  rate_rps    ok  shed  fail  p50_s       p99_s       goodput_rps  backlog_s   meets_slo")
        for r in extras["rungs"]:
            lines.append(
                f"  {r.rate:8.0f} {r.ok:5d} {r.shed:5d} {r.failed:5d}  {r.p50:.4e}  {r.p99:.4e}"
                f"  {r.goodput:11.2f}  {r.backlog:.4e}  {r.meets}"
            )
        if "sim_capacity_rps" in extras:
            lines.append(f"sim_capacity_rps {extras['sim_capacity_rps']:g} 1/s (sim; highest "
                         f"rate with p99 <= {W.SLO_SECONDS:g} s, nothing shed, no backlog)")
    else:
        host_ms = 1e3 * np.array(call_host_s)
        q = tail_percentile(host_ms.size)
        lines.append(f"solve_host_ms_p50 {percentile(host_ms, 50.0):.6g} ms (host; "
                     f"{host_ms.size} calls)")
        lines.append(f"solve_host_ms_tail {percentile(host_ms, q):.6g} ms (host; p{q:g} "
                     f"of {host_ms.size} calls)")
    lines.append(f"failed_share {check.failed_share:.6g} ({check.failed} failed or wrong, "
                 f"{check.shed} shed, of {check.attempted} attempted)")
    lines += [f"  WRONG {why}" for why in check.problems]

    if trace:
        # Counts and simulated values repeat exactly in every unit; host
        # seconds are the median over the traced units.
        layer = dict(traced_layers[0])
        for name in layer:
            if unit_of(name) == "s" and not name.startswith("device.sim") and "sim_p99" not in name:
                layer[name] = statistics.median(m[name] for m in traced_layers)
        untraced_host = statistics.median(host for _, host in samples)
        traced_median = statistics.median(traced_host)
        layer["trace.overhead_s"] = traced_median - untraced_host
        metrics.update(layer)
        with open(out_dir / f"layers-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({k: [v, unit_of(k)] for k, v in layer.items()}, fh, indent=1,
                      sort_keys=True)
        lines.append(f"tracing overhead {layer['trace.overhead_s']:.4f} s per timed unit "
                     f"(traced {traced_median:.4f} s, untraced {untraced_host:.4f} s); "
                     f"{spans_written} spans in {out_dir.name}/spans-{stem}.json.gz")
        for name in sorted(layer):
            lines.append(f"  {name:34s} {layer[name]:.6g} {unit_of(name)}")

    metrics["peak_rss_mb"] = peak_rss_mb()
    q, n = extras["tail"]
    lines.append(f"sim_latency_tail_s is p{q:g} of {n} samples")
    for name, unit in {**END_TO_END, **REPORT_ONLY}.items():
        clock = "sim" if name.startswith("sim_") else "host"
        lines.append(f"{name} {metrics[name]:.6g} {unit} ({clock})")
    if not on_time:
        lines.append("ERROR: the open-loop generator ran late")
    if not deterministic:
        lines.append("ERROR: simulated outputs differ between replays of the same inputs")
    return RunResult(correct, check.attempted, check.failed, metrics, lines)
