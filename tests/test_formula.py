import hashlib

import numpy as np
import paper_checks as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdsat import formula as fm
from mdsat.config import CapExceeded
from mdsat.formula import UNSAT, Clause, Formula, Literal


def _formula(n, *clauses, k=3):
    return fm.formula_from_dimacs_codes(n, clauses, k=k)


class TestParseDimacs:
    def test_basic(self):
        f = fm.parse_dimacs("p cnf 2 1\n1 -2 0")
        assert f.n == 2 and f.m == 1
        assert f.clauses[0] == Clause((Literal(1, False), Literal(2, True)))

    def test_three_literal_clause(self):
        f = fm.parse_dimacs("p cnf 6 1\n1 4 -6 0")
        assert f.clauses[0].variables() == (1, 4, 6)
        assert [l.negated for l in f.clauses[0].literals] == [False, False, True]

    def test_tautology_rejected(self):
        with pytest.raises(fm.TautologyError):
            fm.parse_dimacs("p cnf 1 1\n1 -1 0")

    def test_duplicate_literals_merged(self):
        f = fm.parse_dimacs("p cnf 2 1\n1 1 -2 0")
        assert f.clauses[0].width == 2

    def test_comments_and_multiline_clauses(self):
        f = fm.parse_dimacs("c header\np cnf 3 1\n1 2\n3 0\n")
        assert f.clauses[0].width == 3

    def test_errors(self):
        with pytest.raises(fm.DimacsError):
            fm.parse_dimacs("p cnf x 1\n1 0")
        with pytest.raises(fm.DimacsError):
            fm.parse_dimacs("p cnf 2 1\n3 0")  # literal beyond n
        with pytest.raises(fm.DimacsError):
            fm.parse_dimacs("p cnf 2 2\n1 0")  # clause count mismatch
        with pytest.raises(fm.DimacsError):
            fm.parse_dimacs("1 2 0")  # missing header
        with pytest.raises(fm.DimacsError):
            fm.parse_dimacs("p cnf 2 1\n1 2")  # unterminated clause

    def test_roundtrip(self):
        f = fm.parse_dimacs("p cnf 4 2\n1 -2 4 0\n-3 0\n")
        assert fm.parse_dimacs(f.to_dimacs()) == f

    def test_bytes_accepted(self):
        f = fm.parse_dimacs(b"p cnf 1 1\n1 0")
        assert f.n == 1


class TestEvaluate:
    def test_single_clause(self):
        f = _formula(2, [1, -2])
        assert fm.evaluate(f, "10") is True
        assert fm.evaluate(f, "01") is False

    def test_two_clause_enumeration(self):
        f = _formula(2, [1, 2], [-1, 2])
        # brute enumeration of all four assignments
        truth = {a: fm.evaluate(f, a) for a in pc.all_assignments(2)}
        assert truth == {"00": False, "01": True, "10": False, "11": True}

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fm.evaluate(_formula(2, [1]), "101")


class TestPropagate:
    def test_satisfied_clause_discarded(self):
        f = _formula(6, [1, 4, -6])
        g = fm.propagate(f, 1, True)
        assert g is not UNSAT and g.m == 0 and g.n == 5

    def test_literal_deleted(self):
        f = _formula(6, [1, 4, -6])
        g = fm.propagate(f, 1, False)
        assert g.m == 1
        # variables above 1 shift down by one: (b4 v ~b6) -> (b3 v ~b5)
        assert g.clauses[0] == Clause((Literal(3, False), Literal(5, True)))

    def test_empty_clause_is_unsat(self):
        f = _formula(1, [1])
        assert fm.propagate(f, 1, False) is UNSAT

    def test_consistency_with_evaluate(self):
        rng = np.random.default_rng(5)
        f = fm.random_satisfiable(rng, 5, 8, 3)
        for var in (1, 3, 5):
            for value in (False, True):
                g = fm.propagate(f, var, value)
                for a in pc.all_assignments(5):
                    if (a[var - 1] == "1") != value:
                        continue
                    reduced = a[: var - 1] + a[var:]
                    expected = fm.evaluate(f, a)
                    got = False if g is UNSAT else fm.evaluate(g, reduced)
                    assert got == expected


class TestBruteForce:
    def test_small_formulas(self):
        assert fm.brute_force_solutions(_formula(1, [1])) == {"1"}
        assert fm.brute_force_solutions(_formula(2, [1, 2], [-1, 2])) == {"01", "11"}
        assert fm.brute_force_solutions(_formula(1, [1], [-1])) == set()

    def test_matches_evaluate_filter(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            f = fm.generate("random_ksat", n, int(rng.integers(1, 3 * n)), min(3, n), int(rng.integers(2**32)))
            expected = {a for a in pc.all_assignments(n) if fm.evaluate(f, a)}
            assert fm.brute_force_solutions(f) == expected
            assert fm.solution_indices(f).dtype == np.int64

    def test_cap(self, monkeypatch):
        with pytest.raises(CapExceeded):
            fm.brute_force_solutions(_formula(30, [1]))
        # int32 enumeration: refused before anything is allocated
        monkeypatch.setattr(fm, "BRUTE_CAP", 40)
        with pytest.raises(CapExceeded, match="cap is 31"):
            fm.solution_indices(_formula(32, [1]))


class TestUnate:
    def test_polarity_detection(self):
        assert pc.is_unate(_formula(3, [1, 2], [2, -3]))
        assert not pc.is_unate(_formula(2, [1], [-1, 2]))
        assert pc.is_unate(Formula(n=2, clauses=(), k=3))  # vacuous

    def test_greedy_assignment_satisfies(self):
        for seed in range(8):
            f = fm.generate("unate", 7, 12, 3, seed)
            assert pc.is_unate(f)
            assert fm.evaluate(f, pc.unate_greedy_assignment(f))


class TestGenerate:
    def test_determinism(self):
        a = fm.generate("random_ksat", 10, 42, 3, seed=99)
        b = fm.generate("random_ksat", 10, 42, 3, seed=99)
        assert a == b and a.m == 42 and a.n == 10

    def test_random_ksat_shape(self):
        f = fm.generate("random_ksat", 8, 20, 3, seed=1)
        assert all(c.width == 3 for c in f.clauses)
        assert all(len(set(c.variables())) == 3 for c in f.clauses)

    def test_unate_unique(self):
        f = fm.generate("unate_unique", 5, seed=3)
        assert f.m == 5 and f.k == 1
        assert all(c.width == 1 for c in f.clauses)
        assert fm.count_solutions(f) == 1

    def test_planted_unique(self):
        f = fm.generate("planted_unique", 6, 18, 3, seed=2)
        assert fm.count_solutions(f) == 1

    def test_planted_unique_pinned(self):
        # each of these adds clauses that kill spurious solutions
        for n, m, seed, digest in (
            (7, 30, 0, "357dda1d033de8a5"),
            (12, 52, 3, "6896a2ce46eaea32"),
            (17, 73, 100, "9ca909c1e0a3b79f"),
        ):
            text = fm.generate("planted_unique", n, m, 3, seed).to_dimacs()
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, (n, m, seed)

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            fm.generate("random_ksat", 4, 4, 3, seed=-1)
        with pytest.raises(ValueError):
            fm.generate("random_ksat", 4, 4, 3, seed=2**64)


@st.composite
def formulas(draw, max_n=6, max_m=8):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    clauses = []
    for _ in range(m):
        width = draw(st.integers(1, min(3, n)))
        variables = draw(st.permutations(range(1, n + 1)))[:width]
        signs = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        lits = tuple(sorted(Literal(v, s) for v, s in zip(variables, signs)))
        clauses.append(Clause(lits))
    return Formula(n=n, clauses=tuple(clauses), k=3)


@settings(max_examples=60, deadline=None)
@given(formulas(), st.data())
def test_propagate_evaluate_property(f, data):
    var = data.draw(st.integers(1, f.n))
    value = data.draw(st.booleans())
    g = fm.propagate(f, var, value)
    for a in pc.all_assignments(f.n):
        if (a[var - 1] == "1") != value:
            continue
        reduced = a[: var - 1] + a[var:]
        expected = fm.evaluate(f, a)
        got = False if g is UNSAT else fm.evaluate(g, reduced)
        assert got == expected


@settings(max_examples=60, deadline=None)
@given(formulas())
def test_brute_force_property(f):
    assert fm.brute_force_solutions(f) == {
        a for a in pc.all_assignments(f.n) if fm.evaluate(f, a)
    }
