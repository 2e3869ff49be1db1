"""The HiGHS oracle agrees with the library and rejects wrong answers."""

import time

from perfbench import measure, workloads as W
from perfbench.oracle import Oracle, mismatch, reference
from repro.api import solve
from repro.problems import generate_knapsack, generate_set_cover, knapsack_dp_optimal


def test_reference_uses_the_maximisation_convention():
    problem = generate_knapsack(12, seed=4)
    best, _ = knapsack_dp_optimal(problem)
    assert reference(problem).objective == best
    cover = generate_set_cover(10, 14, seed=2)
    assert reference(cover).objective < 0  # maximise negated cost


def test_library_answers_agree_with_reference():
    lp = generate_knapsack(30, seed=5).relaxation()
    report = solve(lp)
    assert mismatch(report.status, report.objective, reference(lp)) is None


def test_perturbed_objective_is_rejected():
    lp = generate_knapsack(30, seed=5).relaxation()
    ref = reference(lp)
    assert mismatch("optimal", ref.objective * (1 + 1e-4), ref) is not None
    assert mismatch("infeasible", float("nan"), ref) is not None


def test_check_pass_counts_a_wrong_answer():
    inputs = W.make_inputs("mip-tree", 1)
    inputs = W.MipWorkload(inputs.name, inputs.calls[:2])
    oracle = Oracle()
    oracle.prepare(measure.input_problems(inputs))
    p = measure.run_pass(inputs)
    assert measure.check_pass(inputs, p, oracle).failed == 0
    a = p.answers[0]
    p.answers[0] = W.Answer(a.index, a.status, a.objective + 1.0, a.sim)
    check = measure.check_pass(inputs, p, oracle)
    assert check.failed == 1 and check.attempted == 2
