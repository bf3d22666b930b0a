"""The memory budget: every large allocation is checked against
MDSAT_MEM_BYTES before it is made, and a refusal allocates nothing large."""

import functools
import math
import os
import tracemalloc

import numpy as np
import pytest

from mdsat import cli
from mdsat import encoding as enc
from mdsat import formula as fm
from mdsat import solver as sv
from mdsat import spectral as sp
from mdsat import statevec as svec
from mdsat.config import CapExceeded, check_alloc

THETA = 0.4 * math.pi
REFUSAL_BUDGET = 16 << 20


@functools.cache
def _formula(kind, n, m, seed, k=3):
    return fm.generate(kind, n, m, k, seed)


def _rk16():
    """random_ksat 16/30 seed 1: 1,002 solutions, a ground-space basis of
    about 1 GiB."""
    f = _formula("random_ksat", 16, 30, 1)
    assert f.solutions.size == 1002
    return f


def _pu(n, m):
    return _formula("planted_unique", n, m, 1)


# (what the refusal names, the call); each call needs far more than its
# budget, REFUSAL_BUDGET unless BUDGETS names another, and its inputs are
# built before memory is traced.
REFUSALS = {
    "brute-force enumeration": lambda: (fm.solution_indices, _formula("random_ksat", 24, 10, 1)),
    "plus state": lambda: (svec.plus_state, 24),
    "product state": lambda: (enc.product_state, [np.array([0.6, 0.8])] * 24),
    "readout distribution": lambda: (svec.basis_cdf, np.ones(1 << 22)),
    "state preparation": lambda: (
        sv.allpass_trajectory, _formula("random_ksat", 26, 20, 1),
        sv.PrepConfig(theta=THETA, mu_source="user", mu=0.5), 1,
    ),
    "ground-space basis": lambda: (enc.ground_space_basis, _rk16(), THETA),
    "ground-space projector": lambda: (enc.ground_space_projector, _pu(12, 52), THETA),
    "Lanczos basis and ground-space basis": lambda: (sp.convergence_rate, _rk16(), THETA),
    "assembled mu operator": lambda: (
        sp.convergence_rate, _pu(sp._ASSEMBLE_MAX_N, round(4.3 * sp._ASSEMBLE_MAX_N)), THETA,
    ),
    "dense check product": lambda: (svec.product_operator, _pu(12, 52), THETA),
    "dense projector": lambda: (enc.dense_projector, enc.clause_projectors(_pu(12, 52), THETA)[0]),
    "dense Hamiltonian": lambda: (enc.hamiltonian_matrix, _pu(12, 52), THETA),
    "spectral gap": lambda: (sp.spectral_gap, _pu(12, 52), THETA),
    "uniform gap": lambda: (sp.uniform_gap, _pu(11, 47), THETA),
    "Friedrichs angle and speed bound": lambda: (sp.friedrichs_speed_slack, _pu(12, 52), THETA),
}
# The assembled operator at the largest n that assembles it, 24 * 4^n bytes
# (1.5 MiB at n = 8), fits in REFUSAL_BUDGET.
BUDGETS = {"assembled mu operator": 1 << 20}


def _assert_refused(monkeypatch, what, budget, fn, *args):
    monkeypatch.setenv("MDSAT_MEM_BYTES", str(budget))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=f"^{what} needs \\d+ bytes; .* is {budget}$"):
            fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


@pytest.mark.parametrize("what", list(REFUSALS))
def test_refused_before_anything_large_is_allocated(what, monkeypatch):
    fn, *args = REFUSALS[what]()
    _assert_refused(monkeypatch, what, BUDGETS.get(what, REFUSAL_BUDGET), fn, *args)


def test_state_preparation_counts_its_pass_probabilities(monkeypatch):
    # The state of planted_unique 6/26 fits in a few KiB, but 10^9 cycles of
    # its 27 measurements need 32 bytes each for the pass probabilities.
    cfg = sv.PrepConfig(theta=0.1, mu_source="user", mu=0.5)
    _assert_refused(monkeypatch, "state preparation", REFUSAL_BUDGET,
                    sv.allpass_trajectory, _pu(6, 26), cfg, 10**9)


def test_budget_is_read_at_each_check(monkeypatch):
    monkeypatch.setenv("MDSAT_MEM_BYTES", "1000")
    check_alloc(1000, "x")
    with pytest.raises(CapExceeded, match="x needs 1001 bytes; the MDSAT_MEM_BYTES budget is 1000"):
        check_alloc(1001, "x")
    monkeypatch.setenv("MDSAT_MEM_BYTES", "1001")
    check_alloc(1001, "x")


def test_default_budget_is_physical_memory(monkeypatch):
    monkeypatch.delenv("MDSAT_MEM_BYTES")
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    check_alloc(physical, "x")
    with pytest.raises(CapExceeded, match=f"budget is {physical}$"):
        check_alloc(physical + 1, "x")


def test_malformed_budget(monkeypatch, tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(_pu(4, 10).to_dimacs())
    monkeypatch.setenv("MDSAT_MEM_BYTES", "abc")
    with pytest.raises(ValueError, match="MDSAT_MEM_BYTES must be an integer, got 'abc'"):
        check_alloc(1, "x")
    assert cli.main(["solve", str(cnf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: MDSAT_MEM_BYTES must be an integer") and "Traceback" not in err
    # building a perfect hash family allocates nothing the budget guards
    assert cli.main(["phf", "4", "2", "--out", str(tmp_path / "phf.txt")]) == 0
    assert "verified=true" in capsys.readouterr().out


def test_solve_refuses_the_ground_space_basis(monkeypatch, tmp_path, capsys):
    cnf = tmp_path / "rk16.cnf"
    cnf.write_text(_rk16().to_dimacs())
    monkeypatch.setenv("MDSAT_MEM_BYTES", str(256 << 20))
    tracemalloc.start()
    try:
        assert cli.main(["solve", str(cnf), "--theta-fraction", "0.8"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Lanczos basis and ground-space basis needs ")
    assert peak < 16 << 20


@pytest.mark.parametrize("plan", ["sequential", "layered"])
@pytest.mark.parametrize("k", [1, 3])
def test_state_preparation_peak_fits_its_check(plan, k, monkeypatch):
    # one-literal clauses give the kernel its largest temporaries (two
    # half-state slices), and a layered plan applies several checks per step
    f = _formula("random_ksat", 14, 30, 1, k)
    cfg = sv.PrepConfig(theta=THETA, mu_source="user", mu=0.5, plan=plan)
    checked = []

    def recording_check_alloc(nbytes, what):
        checked.append(nbytes)
        check_alloc(nbytes, what)

    monkeypatch.setattr(sv, "check_alloc", recording_check_alloc)
    tracemalloc.start()
    try:
        sv.allpass_trajectory(f, cfg, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(checked) == 1 and peak <= checked[0]
