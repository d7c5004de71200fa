import pytest

from cylbif import SpaceForm, ground_state, run_bifurcation
from cylbif.verify import DEFAULT_CASES

CASES = DEFAULT_CASES

# filled by tests/test_acceptance.py, printed at the end of the run
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def ground_states():
    return {(n, k): ground_state(SpaceForm(n, k)) for n, k in CASES}


@pytest.fixture(scope="session")
def bifurcation_reports(ground_states):
    return {
        (n, k): run_bifurcation(ground_states[(n, k)], SpaceForm(n, k))
        for n, k in CASES
    }


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
