"""Span store, self-time arithmetic and wrapper installation."""

import time

import pytest

from perfbench import layers
from perfbench.tracing import (
    MARK,
    Boundary,
    SpanStore,
    assert_untraced,
    layer_times,
    traced,
)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_of_nested_spans():
    # a [0, 10] contains b [1, 4] (which contains c [2, 3]) and b [5, 9].
    store = SpanStore(FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    a, b, c = (store.intern(n) for n in "abc")
    ia = store.open(a)
    ib = store.open(b)
    ic = store.open(c)
    store.close(ic)
    store.close(ib)
    ib2 = store.open(b)
    store.close(ib2)
    store.close(ia)
    times = layer_times(store)
    assert times["a"].inclusive_s == 10 and times["a"].self_s == 10 - 3 - 4
    assert times["b"].calls == 2
    assert times["b"].inclusive_s == 7 and times["b"].self_s == 2 + 4
    assert times["c"].self_s == 1
    assert store.parent == [-1, 0, 1, 0]


def test_recursion_counts_inclusive_time_once():
    store = SpanStore(FakeClock([0, 1, 3, 6]))
    a = store.intern("a")
    outer = store.open(a)
    inner = store.open(a)
    store.close(inner)
    store.close(outer)
    times = layer_times(store)
    assert times["a"].inclusive_s == 6
    assert times["a"].self_s == 6


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import repro.la.dense as dense
    import repro.la.updates as updates

    original = dense.lu_solve
    assert updates.lu_solve is original
    store = SpanStore(time.perf_counter)
    boundary = [Boundary("la.lu_solve", "repro.la.dense:lu_solve")]
    with traced(boundary, store):
        assert hasattr(dense.lu_solve, MARK)
        assert updates.lu_solve is dense.lu_solve
        import numpy as np

        factors = dense.lu_factor(np.eye(3) * 2.0)
        updates.lu_solve(factors, np.ones(3))
    assert dense.lu_solve is original and updates.lu_solve is original
    assert assert_untraced(layers.BOUNDARIES) > 0
    assert layer_times(store)["la.lu_solve"].calls == 1


def test_method_boundaries_wrap_the_class_attribute():
    from repro.metrics import Metrics

    original = Metrics.__dict__["inc"]
    store = SpanStore(time.perf_counter)
    with traced([Boundary("obs.metrics", "repro.metrics:Metrics.inc")], store):
        Metrics().inc("x")
    assert Metrics.__dict__["inc"] is original
    assert layer_times(store)["obs.metrics"].calls == 1


def test_leftover_wrapper_is_detected():
    import repro.la.updates as updates

    store = SpanStore(time.perf_counter)
    original = updates.lu_solve
    with traced([Boundary("la.lu_solve", "repro.la.dense:lu_solve")], store):
        leaked = updates.lu_solve
    updates.lu_solve = leaked
    try:
        with pytest.raises(RuntimeError):
            assert_untraced(layers.BOUNDARIES)
    finally:
        updates.lu_solve = original
    assert_untraced(layers.BOUNDARIES)


def test_every_boundary_resolves():
    for boundary in layers.BOUNDARIES:
        owner, attr = boundary.owner_and_attr()
        assert callable(getattr(owner, attr)), boundary.target
