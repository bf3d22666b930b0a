import itertools

import numpy as np
import oracle
import paper_checks as pc
import pytest

from mdsat import encoding as enc
from mdsat import formula as fm
from mdsat.formula import Clause, Formula, Literal

THETAS = [0.05 * np.pi, 0.2 * np.pi, 0.35 * np.pi, 0.5 * np.pi]


class TestSingleQubitStates:
    @pytest.mark.parametrize("theta", THETAS)
    def test_overlap_table(self, theta):
        t, tb, tp, tbp = enc.single_qubit_states(theta)
        c, s = np.cos(theta), np.sin(theta)
        assert abs(t @ tp) < 1e-14
        assert abs(tb @ tbp) < 1e-14
        assert abs(t @ tb - c) < 1e-14
        assert abs(tp @ tbp - c) < 1e-14
        assert abs(t @ tbp - s) < 1e-14
        # |theta_perp> carries the raw R_Y sign, so this overlap is -sin.
        assert abs(abs(tb @ tp) - s) < 1e-14

    def test_orthogonal_limit(self):
        t, tb, tp, tbp = enc.single_qubit_states(np.pi / 2)
        assert np.array_equal(t, [0, 1])
        assert np.array_equal(tb, [1, 0])
        assert np.array_equal(tp, [-1, 0])
        assert np.array_equal(tbp, [0, 1])

    @pytest.mark.parametrize("theta", THETAS)
    def test_normalized(self, theta):
        for v in enc.single_qubit_states(theta):
            assert abs(v @ v - 1.0) < 1e-14

    def test_angle_domain(self):
        for bad in (0.0, -0.1, np.pi / 2 + 1e-9):
            with pytest.raises(ValueError):
                enc.check_angle(bad)


class TestClauseProjector:
    def test_factor_rule(self):
        clause = Clause((Literal(1, False), Literal(4, False), Literal(6, True)))
        theta = 0.3 * np.pi
        proj = enc.clause_projector(clause, theta, 6)
        _, _, perp, bar_perp = enc.single_qubit_states(theta)
        assert proj.support == (1, 4, 6)
        assert np.allclose(proj.factors[0], perp)
        assert np.allclose(proj.factors[1], perp)
        assert np.allclose(proj.factors[2], bar_perp)
        assert enc.clause_compat_string(clause, 6) == "0II0I1"

    def test_pi_half_projects_forbidden_pattern(self):
        clause = Clause((Literal(1, False), Literal(4, False), Literal(6, True)))
        proj = enc.clause_projector(clause, np.pi / 2, 6)
        dense = enc.dense_projector(proj)
        # diagonal indicator of the forbidden pattern 0@1, 0@4, 1@6 (global
        # state signs cancel in the projector)
        indicator = np.array(
            [
                1.0 if (a[0] == "0" and a[3] == "0" and a[5] == "1") else 0.0
                for a in pc.all_assignments(6)
            ]
        )
        assert np.abs(dense - np.diag(indicator)).max() < 1e-12

    @pytest.mark.parametrize("theta", THETAS[:-1])
    def test_violating_expectation_is_sin_2k(self, theta):
        clause = Clause((Literal(1, False), Literal(2, False), Literal(3, True)))
        proj = enc.clause_projector(clause, theta, 3)
        for a in pc.all_assignments(3):
            state = enc.theta_string_state(a, theta)
            w = oracle.fail_weight(state, proj)
            if clause.satisfied_by(a):
                assert w < 1e-24
            else:
                assert abs(w - np.sin(theta) ** 6) < 1e-12


class TestSparseFrame:
    # variable 1: two positive, one negative; 2: one each (tie); 3: negative
    # only; 4: nowhere
    f = fm.formula_from_dimacs_codes(4, [[1, 2, -3], [1, -2], [-1, -3]])

    @pytest.mark.parametrize("theta", THETAS[:-1])
    def test_bases_and_factors(self, theta):
        t, tb, tp, tbp = enc.single_qubit_states(theta)
        bases, projs = enc.sparse_frame(self.f, theta)
        assert np.array_equal(bases[0], [tp, t])
        assert np.array_equal(bases[1], [tp, t])  # a tie picks positive
        assert np.array_equal(bases[2], [tbp, tb])
        assert bases[3] is None
        for b in bases[:3]:
            assert np.abs(b @ b.T - np.eye(2)).max() < 1e-15
        computational = enc.clause_projectors(self.f, theta)
        for proj, comp, clause in zip(projs, computational, self.f.clauses):
            assert proj.support == comp.support
            for lit, u, v in zip(clause.literals, proj.factors, comp.factors):
                b = bases[lit.var - 1]
                if lit.negated == (lit.var == 3):  # majority sign
                    assert np.array_equal(u, [1.0, 0.0])
                    assert np.abs(b @ v - u).max() < 1e-15
                else:
                    assert np.array_equal(u, b @ v)
                    assert abs(u[0] - np.cos(theta)) < 1e-15
                    assert abs(abs(u[1]) - np.sin(theta)) < 1e-15

    @pytest.mark.parametrize("theta", THETAS[:-1])
    def test_projectors_are_the_rotated_projectors(self, theta):
        bases, projs = enc.sparse_frame(self.f, theta)
        frame = np.array([[1.0]])
        for b in bases:
            frame = np.kron(frame, np.eye(2) if b is None else b)
        for proj, comp in zip(projs, enc.clause_projectors(self.f, theta)):
            rotated = frame @ oracle.kron_projector(comp) @ frame.T
            assert np.abs(oracle.kron_projector(proj) - rotated).max() < 1e-14

    def test_identity_at_pi_half(self):
        bases, projs = enc.sparse_frame(self.f, np.pi / 2)
        assert bases == (None,) * 4
        for proj, comp in zip(projs, enc.clause_projectors(self.f, np.pi / 2)):
            assert all(np.array_equal(u, v) for u, v in zip(proj.factors, comp.factors))


class TestThetaStringState:
    @pytest.mark.parametrize("theta", THETAS)
    def test_overlap_with_plus(self, theta):
        rng = np.random.default_rng(1)
        for n in (1, 3, 6):
            plus = np.full(1 << n, 2.0 ** (-n / 2))
            for _ in range(5):
                a = "".join(rng.choice(["0", "1"], size=n))
                state = enc.theta_string_state(a, theta)
                assert abs(abs(state @ plus) - np.cos(theta / 2) ** n) < 1e-12

    @pytest.mark.parametrize("theta", THETAS)
    def test_gram_identity(self, theta):
        n = 5
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = "".join(rng.choice(["0", "1"], size=n))
            y = "".join(rng.choice(["0", "1"], size=n))
            sx = enc.theta_string_state(x, theta)
            sy = enc.theta_string_state(y, theta)
            d = pc.hamming_distance(x, y)
            assert abs(sx @ sy - np.cos(theta) ** d) < 1e-12

    def test_pi_half_is_basis_state(self):
        state = enc.theta_string_state("011", np.pi / 2)
        expected = np.zeros(8)
        expected[int("011", 2)] = 1.0
        assert np.array_equal(state, expected)

    def test_plus_state_decomposition(self):
        # |+>^n = (2(1+cos))^(-n/2) * sum_x |Theta_x>
        theta, n = 0.3 * np.pi, 4
        total = sum(
            enc.theta_string_state(a, theta) for a in pc.all_assignments(n)
        )
        total *= (2 * (1 + np.cos(theta))) ** (-n / 2)
        assert np.allclose(total, np.full(16, 0.25), atol=1e-12)


class TestHamiltonian:
    def test_single_clause_spectrum(self):
        f = fm.formula_from_dimacs_codes(3, [[1, 2, -3]])
        h = enc.hamiltonian_matrix(f, 0.25 * np.pi)
        eigs = np.sort(np.linalg.eigvalsh(h))
        assert np.allclose(eigs[:-1], 0.0, atol=1e-12)
        assert abs(eigs[-1] - 1.0) < 1e-12

    def test_empty_formula(self):
        f = Formula(n=3, clauses=(), k=3)
        assert np.allclose(enc.hamiltonian_matrix(f, 0.4), 0.0)

    @pytest.mark.parametrize("theta", THETAS)
    def test_kernel_dimension_is_d_sol(self, theta, small_instances):
        for f in small_instances[:6]:
            h = enc.hamiltonian_matrix(f, theta)
            eigs = np.linalg.eigvalsh(h)
            d = fm.count_solutions(f)
            assert eigs[d - 1] < 1e-10
            assert (eigs[:d] > -1e-10).all()
            if d < eigs.size:
                assert eigs[d] > 1e-10

    def test_annihilates_exactly_solutions(self):
        f = fm.random_satisfiable(np.random.default_rng(3), 5, 10, 3)
        theta = 0.35 * np.pi
        h = enc.hamiltonian_matrix(f, theta)
        for a in pc.all_assignments(5):
            state = enc.theta_string_state(a, theta)
            energy = state @ h @ state
            if fm.evaluate(f, a):
                assert energy < 1e-12
            else:
                assert energy > 1e-12


class TestGroundSpaceProjector:
    def test_projector_axioms(self, small_instances):
        theta = 0.3 * np.pi
        for f in small_instances[:5]:
            p = enc.ground_space_projector(f, theta)
            assert np.abs(p @ p - p).max() < 1e-10
            assert np.abs(p - p.T).max() < 1e-10
            assert abs(np.trace(p) - fm.count_solutions(f)) < 1e-8

    def test_unique_solution_rank_one(self):
        f = fm.generate("planted_unique", 5, 15, 3, seed=4)
        theta = 0.4 * np.pi
        p = enc.ground_space_projector(f, theta)
        s = next(iter(fm.brute_force_solutions(f)))
        state = enc.theta_string_state(s, theta)
        assert np.abs(p - np.outer(state, state)).max() < 1e-10

    def test_pi_half_diagonal_indicator(self):
        f = fm.random_satisfiable(np.random.default_rng(8), 4, 6, 3)
        p = enc.ground_space_projector(f, np.pi / 2)
        diag = np.zeros(16)
        for s in fm.brute_force_solutions(f):
            diag[int(s, 2)] = 1.0
        assert np.abs(p - np.diag(diag)).max() < 1e-10

    def test_unsatisfiable_raises(self):
        f = fm.formula_from_dimacs_codes(1, [[1], [-1]])
        with pytest.raises(enc.Unsatisfiable):
            enc.ground_space_projector(f, 0.3)

    def test_commutes_with_check_product(self, small_instances):
        from mdsat.statevec import product_operator

        theta = 0.3 * np.pi
        for f in small_instances[:4]:
            t = product_operator(f, theta)
            p = enc.ground_space_projector(f, theta)
            assert np.abs(t @ p - p @ t).max() < 1e-10
