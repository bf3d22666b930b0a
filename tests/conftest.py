import numpy as np
import oracle
import pytest

from mdsat import formula as fm

_ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True, scope="session")
def _pinned_memory_budget():
    """Pin MDSAT_MEM_BYTES to 1 GiB, so that no test depends on the host's
    RAM; a test that needs another budget sets its own."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("MDSAT_MEM_BYTES", str(1 << 30))
        yield


@pytest.fixture
def enumerated(monkeypatch):
    """The formulas that mdsat.formula.solution_indices enumerates during the
    test, in call order.  Build the formulas inside the test: one shared with
    other tests may arrive with its solutions already cached."""
    calls = []
    enumerate_solutions = fm.solution_indices

    def counting_solution_indices(g):
        calls.append(g)
        return enumerate_solutions(g)

    monkeypatch.setattr(fm, "solution_indices", counting_solution_indices)
    return calls


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        line = f"[ACCEPTANCE] {name}: {report.outcome.upper()}"
        _ACCEPTANCE_LINES.append(line)
        print("\n" + line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def satisfiable_instances(count, n_lo, n_hi, m_factor, k=3, seed=0, min_solutions=1):
    """Deterministic list of random satisfiable k-SAT instances."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        m = max(1, round(m_factor * n))
        out.append(oracle.random_satisfiable(rng, n, m, k, min_solutions=min_solutions))
    return out


@pytest.fixture(scope="session")
def small_instances():
    """Satisfiable 3-SAT instances with n in 4..8 for dense-path tests."""
    return satisfiable_instances(12, 4, 8, 2.0, seed=20240901)
