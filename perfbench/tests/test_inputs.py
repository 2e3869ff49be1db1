"""Seeded inputs: same seed, same bytes; open-loop stamps equal the schedule."""

import time

import numpy as np
import pytest

from perfbench import workloads as W


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    a = W.input_digest(W.make_inputs(workload, 7))
    b = W.input_digest(W.make_inputs(workload, 7))
    assert a == b


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_different_seed_gives_different_inputs(workload):
    a = W.input_digest(W.make_inputs(workload, 7))
    b = W.input_digest(W.make_inputs(workload, 8))
    assert a != b


def test_burst_requests_are_distinct_and_shape_diverse():
    inputs = W.make_inputs("lp-burst", 3)
    keys = {W.fingerprint(r.problem) for r in inputs.requests}
    assert len(keys) == len(inputs.requests)
    assert len({r.problem.n for r in inputs.requests}) == 32


def test_repeat_stream_mixes_all_kinds():
    kinds = W.summarize_kinds(W.make_inputs("lp-repeat", 3))
    assert set(kinds) == {"cold", "repeat", "rhs", "rhs+obj"}
    assert kinds["cold"] <= W.REPEAT_STRUCTURES


def test_schedule_offers_the_nominal_rate_on_every_seed():
    for seed in (0, 1, 2):
        inputs = W.make_inputs("lp-burst", seed)
        last = inputs.requests[-1].due_unit
        assert last == pytest.approx(len(inputs.requests))
        blocks = np.diff(np.concatenate([[0.0], [r.due_unit for r in inputs.requests]]))
        assert blocks[:W.SCHEDULE_BLOCK].sum() == pytest.approx(W.SCHEDULE_BLOCK)


def test_mip_corpus_is_equivalent_across_seeds():
    """A seed permutes and rescales the fixed corpus; optima scale exactly."""
    from perfbench.oracle import reference

    a = {c.label: c.problem for c in W.make_inputs("mip-tree", 1).calls}
    b = {c.label: c.problem for c in W.make_inputs("mip-tree", 2).calls}
    assert a.keys() == b.keys()
    label = next(k for k in a if k.startswith("sck"))
    ra, rb = reference(a[label]), reference(b[label])
    ratio = ra.objective / rb.objective
    assert np.log2(ratio) == pytest.approx(round(np.log2(ratio)))


def test_open_loop_stamps_equal_the_schedule(monkeypatch):
    inputs = W.make_inputs("lp-burst", 5)
    prefix = W.StreamWorkload(inputs.name, inputs.requests[:40], (1800.0,), 1800.0)
    stamps = []
    make = W.make_cluster

    def recording_cluster():
        cluster = make()
        submit = cluster.submit

        def stamped(problem, at=None, **kwargs):
            stamps.append(at)
            return submit(problem, at=at, **kwargs)

        cluster.submit = stamped
        return cluster

    monkeypatch.setattr(W, "make_cluster", recording_cluster)
    rung = W.replay_stream(prefix, 1800.0, time.perf_counter)
    assert stamps == [r.due_unit / 1800.0 for r in prefix.requests]
    assert rung.late_s <= 0.0
    assert [a.index for a in rung.answers] == list(range(40))
