import itertools
import math

import numpy as np
import oracle
import paper_checks as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdsat import encoding as enc
from mdsat import formula as fm
from mdsat import phf
from mdsat import statevec as svec


class TestDensityAlgorithm:
    def test_three_columns_two_symbols(self):
        rows = phf.density_algorithm(3, 2)
        # Pigeonhole forces at least two rows; the greedy guarantee allows
        # at most floor(c_2 ln 3) + 1 = 2.
        assert rows.shape[0] == 2
        assert phf.verify_phf(rows, 3, 2)

    def test_square_case_single_row(self):
        for k in (2, 3, 4):
            rows = phf.density_algorithm(k, k)
            assert rows.shape[0] == 1
            assert sorted(rows[0]) == list(range(1, k + 1))

    def test_bound_example_10_3(self):
        c3 = 1.0 / math.log(27 / 21)
        assert abs(c3 * math.log(math.comb(10, 3)) - 19.05) < 0.01
        rows = phf.density_algorithm(10, 3)
        assert rows.shape[0] <= 19
        assert phf.verify_phf(rows, 10, 3)

    def test_row_guarantee_grid(self):
        for k in (2, 3):
            c_k = 1.0 / math.log(k**k / (k**k - math.factorial(k)))
            for n in range(k, 13):
                rows = phf.density_algorithm(n, k)
                assert phf.verify_phf(rows, n, k), (n, k)
                assert rows.shape[0] <= phf.density_row_bound(n, k), (n, k)
                if n >= 3:
                    assert rows.shape[0] <= k * c_k * math.log(n), (n, k)

    # Ties are decided on float scores; exact rational scores give other
    # families for these two (11 rows instead of 10 at n = 16), so a rewrite
    # of the scoring must keep these rows or say that the layers move.
    PINNED = {
        14: ["12312312312312", "12331223112331", "12323131212323", "12312333121231",
             "12133232231122", "12123312123331", "11122332231233", "11112213312321",
             "11111211231331"],
        16: ["1231231231231231", "1232313121232313", "1233122311233122", "1231321322113232",
             "1223331112323331", "1223332223131112", "1112313212133222", "1111212113333121",
             "1111112111321233", "1111111111123213"],
    }

    @pytest.mark.parametrize("n", sorted(PINNED))
    def test_pinned_k3_families(self, n):
        rows = phf.density_algorithm(n, 3)
        assert ["".join(map(str, row)) for row in rows] == self.PINNED[n]
        assert phf.verify_phf(rows, n, 3)

    def test_symbols_in_range(self):
        rows = phf.density_algorithm(8, 3)
        assert rows.min() >= 1 and rows.max() <= 3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            phf.density_algorithm(3, 1)
        with pytest.raises(ValueError):
            phf.density_algorithm(2, 3)
        with pytest.raises(phf.PhfBudgetExceeded):
            phf.density_algorithm(200, 3)  # C(200, 3) = 1,313,400


class TestVerifyPhf:
    def test_constant_row_fails_for_k2(self):
        assert not phf.verify_phf(np.array([[1, 1]]), 2, 2)

    def test_injective_row_square(self):
        assert phf.verify_phf(np.array([[1, 2, 3]]), 3, 3)

    def test_density_output_verified(self):
        rows = phf.density_algorithm(9, 2)
        assert phf.verify_phf(rows, 9, 2)


class TestTextRoundtrip:
    def test_save_load(self):
        rows = phf.density_algorithm(7, 3)
        again = pc.load_phf(phf.save_phf(rows))
        assert (rows == again).all()

    def test_malformed(self):
        with pytest.raises(ValueError):
            pc.load_phf("1 2\n1\n")


def _pair_degree(n, a, b):
    """g of the two-clause formula (a, b): 0 iff the two checks commute."""
    return phf.noncommuting_degree(fm.Formula(n=n, clauses=(a, b), k=3))


@st.composite
def _clause(draw, n, pattern=None):
    """A clause of width 1-3 on n variables; with ``pattern`` (an n-bit int),
    one whose forbidden assignment agrees with it on the support."""
    width = draw(st.integers(1, min(3, n)))
    variables = sorted(draw(st.permutations(range(1, n + 1)))[:width])
    if pattern is None:
        signs = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    else:
        signs = [bool(pattern >> (n - v) & 1) for v in variables]
    return fm.Clause(tuple(fm.Literal(v, s) for v, s in zip(variables, signs)))


@st.composite
def _formula(draw):
    n = draw(st.integers(1, 5))
    clauses = draw(st.lists(_clause(n), min_size=2, max_size=6))
    return fm.Formula(n=n, clauses=tuple(clauses), k=3)


class TestCompatible:
    """Commutation read from the (mask, forbidden) pairs of clause_mask."""

    def test_wildcard_matching(self):
        # forbidden assignments 11I0, 1I00 and 1I01 over four variables
        a, b, c = (
            fm.Clause.from_dimacs(codes) for codes in ([-1, -2, 4], [-1, 3, 4], [-1, 3, -4])
        )
        assert fm.clause_mask(a, 4) == (0b1101, 0b1100)
        assert fm.clause_mask(b, 4) == (0b1011, 0b1000)
        assert fm.clause_mask(c, 4) == (0b1011, 0b1001)
        # a and b agree on the shared variables 1 and 4; a and c differ on 4
        assert _pair_degree(4, a, b) == 0
        assert _pair_degree(4, a, c) == 1

    def test_reflexive(self):
        # a clause commutes with itself
        for codes in ([1, -3], [2], [-1, -2, -3]):
            c = fm.Clause.from_dimacs(codes)
            assert _pair_degree(3, c, c) == 0

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_shared_binary_witness_implies_mutual(self, data):
        # two clauses whose forbidden assignments agree with the same full
        # pattern on their supports commute (the layer-grouping soundness fact)
        n = data.draw(st.integers(1, 8))
        pattern = data.draw(st.integers(0, (1 << n) - 1))
        a = data.draw(_clause(n, pattern))
        b = data.draw(_clause(n, pattern))
        for c in (a, b):
            mask, forbidden = fm.clause_mask(c, n)
            assert (pattern ^ forbidden) & mask == 0
        assert _pair_degree(n, a, b) == 0

    @settings(max_examples=60, deadline=None)
    @given(_formula(), st.floats(0.05 * np.pi, 0.45 * np.pi))
    def test_structural_commute_matches_dense(self, f, theta):
        projs = enc.clause_projectors(f, theta)
        dense = [oracle.kron_projector(p) for p in projs]
        degree = [0] * f.m
        for i, j in itertools.combinations(range(f.m), 2):
            numerically = oracle.commutator_norm(dense[i], dense[j]) < 1e-12
            # structural commutation is sufficient; at generic angles it is
            # also necessary
            structurally = _pair_degree(f.n, f.clauses[i], f.clauses[j]) == 0
            assert structurally == numerically
            degree[i] += not numerically
            degree[j] += not numerically
        assert phf.noncommuting_degree(f) == max(degree)


class TestBuildLayers:
    theta = 0.3 * np.pi

    def _random_formula(self, seed, n=7, m=14, k=3):
        return fm.generate("random_ksat", n, m, k, seed)

    def test_every_clause_in_exactly_one_layer(self):
        for seed in range(5):
            f = self._random_formula(seed)
            layers = phf.build_layers(f, self.theta)
            assigned = sorted(ci for layer in layers for ci in layer.members)
            assert assigned == list(range(f.m))

    def test_members_compatible_with_pattern(self):
        f = self._random_formula(11)
        for layer in phf.build_layers(f, self.theta):
            assert 0 <= layer.pattern < 1 << f.n
            for ci in layer.members:
                # the member's forbidden assignment agrees with the pattern on
                # its support
                mask, forbidden = fm.clause_mask(f.clauses[ci], f.n)
                assert (layer.pattern ^ forbidden) & mask == 0

    def test_intra_layer_commutation_dense(self):
        f = self._random_formula(3, n=6, m=12)
        projs = enc.clause_projectors(f, self.theta)
        dense = [oracle.kron_projector(p) for p in projs]
        for layer in phf.build_layers(f, self.theta):
            for i, j in itertools.combinations(layer.members, 2):
                assert oracle.commutator_norm(dense[i], dense[j]) < 1e-12

    def test_single_clause_single_layer(self):
        f = fm.formula_from_dimacs_codes(5, [[1, -3, 4]])
        layers = phf.build_layers(f, self.theta)
        assert len(layers) == 1 and layers[0].members == (0,)

    def test_layer_count_bounds(self):
        for seed in range(4):
            f = self._random_formula(seed, n=9, m=27)
            layers = phf.build_layers(f, self.theta)
            rows = phf.density_algorithm(9, 3)
            assert len(layers) <= 2**3 * rows.shape[0]
            assert len(layers) <= pc.layer_count_bound(9, 3)

    def test_mixed_width_clauses(self):
        f = fm.formula_from_dimacs_codes(6, [[1], [2, -3], [4, 5, -6]], k=3)
        layers = phf.build_layers(f, self.theta)
        assigned = sorted(ci for layer in layers for ci in layer.members)
        assert assigned == [0, 1, 2]

    def test_single_literal_formula(self):
        f = fm.generate("unate_unique", 6, seed=5)
        layers = phf.build_layers(f, self.theta)
        assert sorted(ci for l in layers for ci in l.members) == list(range(6))
        assert len(layers) <= 2
        assert phf.candidate_patterns(6, 1) == [0, (1 << 6) - 1]

    def test_empty_formula(self):
        assert phf.build_layers(fm.Formula(n=3, clauses=(), k=3), self.theta) == []


class TestLayerMeasurement:
    theta = 0.35 * np.pi

    def test_singleton_layer_matches_clause_check(self):
        f = fm.formula_from_dimacs_codes(4, [[1, 2, -4]])
        projs = enc.clause_projectors(f, self.theta)
        layer = phf.Layer(pattern=0b0001, members=(0,))
        psi = svec.plus_state(4)
        p_pass, pass_state, fail_state = oracle.layer_check_probabilities(psi, layer, projs)
        p_fail_direct, p_pass_direct = oracle.clause_check_probabilities(psi, projs[0])
        assert abs(p_pass - p_pass_direct) < 1e-12
        assert np.abs(pass_state - oracle.apply_pass(psi, projs[0])).max() < 1e-12
        assert np.abs(fail_state - oracle.apply_fail(psi, projs[0])).max() < 1e-12

    def test_order_invariance(self):
        f = fm.generate("random_ksat", 6, 12, 3, seed=9)
        projs = enc.clause_projectors(f, self.theta)
        layers = [l for l in phf.build_layers(f, self.theta) if len(l.members) >= 2]
        rng = np.random.default_rng(0)
        psi = svec.plus_state(6)
        for layer in layers:
            perm = tuple(rng.permutation(layer.members))
            p1, s1, _ = oracle.layer_check_probabilities(psi, layer, projs)
            p2, s2, _ = oracle.layer_check_probabilities(
                psi, phf.Layer(layer.pattern, perm), projs
            )
            assert abs(p1 - p2) < 1e-12
            assert np.abs(s1 - s2).max() < 1e-12

    def test_ground_state_passes(self):
        f = oracle.random_satisfiable(np.random.default_rng(4), 5, 10, 3)
        s = next(iter(fm.brute_force_solutions(f)))
        psi = enc.theta_string_state(s, self.theta)
        projs = enc.clause_projectors(f, self.theta)
        for layer in phf.build_layers(f, self.theta):
            p_pass, _, _ = oracle.layer_check_probabilities(psi, layer, projs)
            assert abs(p_pass - 1.0) < 1e-12


class TestNoncommutingDegree:
    def test_unate_is_zero(self):
        f = fm.generate("unate", 6, 10, 3, seed=2)
        assert phf.noncommuting_degree(f) == 0

    def test_opposite_polarities_conflict(self):
        f = fm.formula_from_dimacs_codes(2, [[1], [-1, 2]])
        assert phf.noncommuting_degree(f) == 1
