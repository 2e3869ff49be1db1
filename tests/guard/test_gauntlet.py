"""The pathological corpus must pass the guard gauntlet end to end."""

import pytest

from repro.guard.gauntlet import run_gauntlet
from repro.problems.pathological import case_by_name, pathological_corpus


class TestCorpus:
    def test_names_are_unique_and_stable(self):
        names = [case.name for case in pathological_corpus()]
        assert len(names) == len(set(names))
        assert names == [case.name for case in pathological_corpus()]

    def test_case_by_name(self):
        case = case_by_name("nan-objective")
        assert case.expect == "reject"
        with pytest.raises(KeyError):
            case_by_name("no-such-case")

    def test_every_expectation_kind_is_covered(self):
        kinds = {case.expect for case in pathological_corpus()}
        assert kinds == {"reject", "repair", "infeasible", "solve", "anytime"}


class TestGauntlet:
    def test_full_corpus_passes(self):
        report = run_gauntlet(deadline=30.0)
        failures = [run for run in report.runs if not run.ok]
        assert report.ok, "; ".join(
            f"{run.case}: {run.outcome} ({run.detail})" for run in failures
        )
        assert len(report.runs) == len(pathological_corpus())

    def test_anytime_case_stops_after_the_root_lp(self):
        # A poll budget, not wall time: the root LP always finishes and
        # the next node always hits the deadline.
        (run,) = run_gauntlet(cases=[case_by_name("mip-deadline")]).runs
        assert run.outcome == "time_limit"
        assert run.ok, run.detail

    def test_no_uncaught_exceptions(self):
        report = run_gauntlet(deadline=30.0)
        escaped = [run for run in report.runs if run.detail.startswith("UNCAUGHT")]
        assert not escaped

    def test_report_round_trips_to_dict(self):
        report = run_gauntlet(cases=[case_by_name("empty-row")])
        (run,) = report.runs
        data = run.to_dict()
        assert data["case"] == "empty-row"
        assert data["ok"] is True
