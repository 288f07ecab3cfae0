import os

import pytest
from hypothesis import settings

import dnem.model
import dnem.response
from dnem.curves import AggregateResponseCurve
from dnem.model import Member

# HYPOTHESIS_PROFILE=ci draws the same examples on every run and keeps no
# example database, so a failure seen in CI repeats locally
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

ACCEPTANCE_RESULTS = []


@pytest.fixture
def outcomes_built(monkeypatch):
    """Counts the ``MemberOutcome`` objects built while the test runs."""
    built = []
    original = dnem.response.MemberOutcome

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(dnem.response, "MemberOutcome", counting)
    return built


@pytest.fixture
def members_built(monkeypatch):
    """Counts the ``Member`` objects built while the test runs."""
    built = []
    original = Member.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Member, "__init__", counting)
    return built


@pytest.fixture
def curves_built(monkeypatch):
    """Counts the ``AggregateResponseCurve`` objects built while the test runs."""
    built = []
    original = AggregateResponseCurve.__init__

    def counting(self, devices):
        built.append(self)
        original(self, devices)

    monkeypatch.setattr(AggregateResponseCurve, "__init__", counting)
    return built


@pytest.fixture
def validations(monkeypatch):
    """The scenarios that ``validate_scenario`` checks while the test runs."""
    checked = []
    original = dnem.model.validate_scenario

    def counting(scenario):
        checked.append(scenario)
        return original(scenario)

    monkeypatch.setattr(dnem.model, "validate_scenario", counting)
    return checked


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.fspath.basename == "test_acceptance.py":
        status = "PASS" if report.passed else "FAIL"
        ACCEPTANCE_RESULTS.append(f"{status}  {item.name}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
