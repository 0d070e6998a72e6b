import pytest

from convlab.verify import SUITES, run_suite, run_suites


def test_suite_registry_names():
    assert len(SUITES) == 20
    assert all(isinstance(k, str) and k for k in SUITES)


def test_all_suites_pass():
    outcomes = run_suites(list(SUITES))
    assert [o.suite for o in outcomes] == list(SUITES)
    failing = [(o.suite, i.description) for o in outcomes
               for i in o.instances if not i.passed]
    assert failing == []
    assert all(o.passed and o.instances for o in outcomes)


def test_single_suite_and_serialization():
    outcome = run_suite("prop-kkk")
    assert outcome.passed
    d = outcome.to_dict()
    assert d["suite"] == "prop-kkk" and d["passed"] is True
    assert len(d["instances"]) == len(outcome.instances)


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nope")

