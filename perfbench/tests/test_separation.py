"""Layer-separation self-check: a slowed layer shows only where it is used.

A fixed delay is added after every call of one layer boundary, through
the traced-run wrapper.  The workload that runs the layer must lose more
than the benchmark's ``req_per_host_s`` bound; the workload that
bypasses it must not call the layer at all and must stay within it.
This stands in for a deliberately slowed build failing the gate.
"""

import json
import statistics
import time

import pytest

from perfbench import measure, workloads as W
from perfbench.tests.conftest import ROOT
from perfbench.tracing import Boundary, SpanStore, traced

BOUND = next(
    m["bound"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if m["name"] == "req_per_host_s"
)
REPEATS = 3


def _small(workload: str):
    inputs = W.make_inputs(workload, 11)
    if workload == "lp-burst":
        return W.StreamWorkload(inputs.name, inputs.requests[:64], (750.0,), 750.0)
    if workload == "lp-repeat":
        return W.StreamWorkload(inputs.name, inputs.requests[:160], (800.0,), 800.0)
    calls = tuple(c for c in inputs.calls if c.label.startswith("sck10.0/"))
    return W.MipWorkload(inputs.name, calls)


def _busy_wait(seconds: float):
    def hook(store, args, kwargs, result):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    return hook


def _rate(inputs, target=None, delay=0.0):
    """Median requests per host second, and calls into the delayed layer."""
    rates, calls = [], 0
    for _ in range(REPEATS):
        store = SpanStore(time.perf_counter)
        boundaries = [] if target is None else [Boundary("delayed", target, _busy_wait(delay))]
        with traced(boundaries, store):
            p = measure.run_pass(inputs)
        n, host = measure.timed_sample(inputs, p)
        rates.append(n / host)
        calls = len(store)
    return statistics.median(rates), calls


CASES = [
    ("repro.la.dense:lu_solve", 3e-4, "mip-tree", "lp-burst"),
    ("repro.lp.batch_simplex:solve_lp_batch", 1e-2, "lp-burst", "mip-tree"),
    ("repro.check.certificates:certify_lp_result", 1e-2, "lp-repeat", "lp-burst"),
]


@pytest.mark.parametrize("target,delay,predicted,bypassing", CASES)
def test_slowed_layer_moves_only_the_workload_that_uses_it(
    target, delay, predicted, bypassing
):
    inputs = _small(predicted)
    measure.warm_up(inputs)
    base, _ = _rate(inputs)
    slowed, calls = _rate(inputs, target, delay)
    assert calls > 0
    assert slowed < base * (1.0 - BOUND), (base, slowed)

    inputs = _small(bypassing)
    measure.warm_up(inputs)
    base, _ = _rate(inputs)
    slowed, calls = _rate(inputs, target, delay)
    assert calls == 0
    assert slowed > base * (1.0 - BOUND), (base, slowed)
