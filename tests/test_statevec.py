import tracemalloc
from functools import reduce

import numpy as np
import oracle
import paper_checks as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdsat import encoding as enc
from mdsat import formula as fm
from mdsat import statevec as svec
from mdsat.formula import Clause, Literal


def _proj(codes, theta, n):
    return enc.clause_projector(Clause.from_dimacs(codes), theta, n)


class TestPlusState:
    def test_amplitudes(self):
        assert np.allclose(svec.plus_state(1), [1 / np.sqrt(2)] * 2)
        psi = svec.plus_state(6)
        assert abs(psi @ psi - 1.0) < 1e-14

    def test_rotated_decomposition_weight(self):
        theta, n = 0.3 * np.pi, 5
        psi = svec.plus_state(n)
        for a in ("00000", "10101", "11111"):
            state = enc.theta_string_state(a, theta)
            assert abs(abs(state @ psi) - np.cos(theta / 2) ** n) < 1e-12


class TestClauseCheck:
    def test_uniform_state_three_local(self):
        psi = svec.plus_state(3)
        p_fail, p_pass = oracle.clause_check_probabilities(psi, _proj([1, 2, 3], np.pi / 2, 3))
        assert abs(p_fail - 1 / 8) < 1e-12 and abs(p_pass - 7 / 8) < 1e-12

    def test_ground_state_always_passes(self):
        theta = 0.35 * np.pi
        f = oracle.random_satisfiable(np.random.default_rng(0), 5, 9, 3)
        s = next(iter(fm.brute_force_solutions(f)))
        psi = enc.theta_string_state(s, theta)
        for c in f.clauses:
            p_fail, p_pass = oracle.clause_check_probabilities(
                psi, enc.clause_projector(c, theta, f.n)
            )
            assert p_fail < 1e-12 and abs(p_pass - 1.0) < 1e-12

    def test_violating_state_fails_sin_2k(self):
        theta = 0.25 * np.pi
        proj = _proj([1, 2, 3], theta, 4)
        psi = enc.theta_string_state("0001", theta)  # violates (b1 v b2 v b3)
        p_fail, _ = oracle.clause_check_probabilities(psi, proj)
        assert abs(p_fail - np.sin(theta) ** 6) < 1e-12


class TestBranchStates:
    theta = 0.3 * np.pi

    def test_pass_leaves_kernel_states_unchanged(self):
        proj = _proj([1, 2], self.theta, 3)
        psi = enc.theta_string_state("110", self.theta)  # satisfies (b1 v b2)
        assert np.abs(oracle.apply_pass(psi, proj) - psi).max() < 1e-12

    def test_fail_lands_in_image(self):
        proj = _proj([1, 2], self.theta, 3)
        psi = svec.plus_state(3)
        failed = oracle.apply_fail(psi, proj)
        assert np.abs(oracle.apply_projector(failed, proj) - failed).max() < 1e-12

    def test_pass_norm_consistency(self):
        proj = _proj([-1, 2, 3], self.theta, 4)
        psi = svec.plus_state(4)
        p_fail, p_pass = oracle.clause_check_probabilities(psi, proj)
        unnorm = svec.apply_check_unnormalized(psi, proj)
        assert abs(unnorm @ unnorm - p_pass) < 1e-12

    def test_zero_probability_branch_raises(self):
        proj = _proj([1], np.pi / 2, 1)
        psi = np.array([0.0, 1.0])  # satisfies (b1): fail branch impossible
        with pytest.raises(ZeroDivisionError):
            oracle.apply_fail(psi, proj)


class TestZExpectation:
    @pytest.mark.parametrize("theta", [0.1 * np.pi, 0.3 * np.pi, np.pi / 2])
    def test_rotated_product_states(self, theta):
        psi = enc.theta_string_state("10", theta)
        assert abs(pc.z_expectation(psi, 1) - np.sin(theta)) < 1e-12
        assert abs(pc.z_expectation(psi, 2) + np.sin(theta)) < 1e-12

    def test_plus_state_is_zero(self):
        psi = svec.plus_state(4)
        for q in range(1, 5):
            assert abs(pc.z_expectation(psi, q)) < 1e-12


class TestProductOperator:
    def test_pi_half_equals_ground_projector(self, small_instances):
        for f in small_instances[:5]:
            t = svec.product_operator(f, np.pi / 2)
            p = enc.ground_space_projector(f, np.pi / 2)
            assert np.abs(t - p).max() < 1e-10

    def test_fixes_ground_space(self, small_instances):
        theta = 0.3 * np.pi
        for f in small_instances[:4]:
            t = svec.product_operator(f, theta)
            p = enc.ground_space_projector(f, theta)
            assert np.abs(t @ p - p).max() < 1e-10

    def test_contraction(self, small_instances):
        theta = 0.4 * np.pi
        for f in small_instances[:4]:
            t = svec.product_operator(f, theta)
            assert np.linalg.norm(t, 2) <= 1.0 + 1e-12

    def test_order_matters_generally(self):
        # sanity: reversing a non-commuting product changes the operator
        f = fm.formula_from_dimacs_codes(2, [[1, 2], [-1, 2]])
        theta = 0.3 * np.pi
        t_fwd = svec.product_operator(f, theta, order=[0, 1])
        t_rev = svec.product_operator(f, theta, order=[1, 0])
        assert np.abs(t_fwd - t_rev).max() > 1e-6


class TestDeterministicPassSequence:
    def test_fidelity_monotone(self, small_instances):
        theta = 0.35 * np.pi
        for f in small_instances[:5]:
            projs = enc.clause_projectors(f, theta)
            p_gs = enc.ground_space_projector(f, theta)
            psi = svec.plus_state(f.n)
            fid = np.linalg.norm(p_gs @ psi)
            for _ in range(8):
                for pr in projs:
                    psi = oracle.apply_pass(psi, pr)
                new_fid = np.linalg.norm(p_gs @ psi)
                assert new_fid >= fid - 1e-12
                fid = new_fid

    def test_success_floor_r50(self, small_instances):
        theta = 0.3 * np.pi
        for f in small_instances[:4]:
            projs = enc.clause_projectors(f, theta)
            floor = ((1 + np.cos(theta)) / 2) ** f.n
            psi = svec.plus_state(f.n)
            cumulative = 1.0
            for _ in range(50):
                for pr in projs:
                    out = svec.apply_check_unnormalized(psi, pr)
                    p = out @ out
                    cumulative *= p
                    psi = out / np.sqrt(p)
                assert cumulative >= floor - 1e-12


class TestProbOne:
    def test_matches_reshape_sum_on_every_qubit(self):
        rng = np.random.default_rng(11)
        for n in range(1, 11):
            psi = rng.standard_normal(1 << n)
            psi /= np.linalg.norm(psi)
            for q in range(1, n + 1):
                slab = psi.reshape((2,) * n)[(slice(None),) * (q - 1) + (1,)]
                assert abs(svec.prob_one(psi, q) - np.sum(slab * slab)) <= 1e-14


class TestKernelZeroPatterns:
    @pytest.mark.parametrize(
        "codes, n", [([1], 1), ([-2], 4), ([1, -3, 5], 6), ([-1, 4, -7], 7), ([2, 3], 5)]
    )
    def test_pi_half_zeroes_exactly_the_forbidden_slice(self, codes, n):
        clause = Clause.from_dimacs(codes)
        proj = enc.clause_projector(clause, np.pi / 2, n)
        psi = np.random.default_rng(len(codes) + n).standard_normal(1 << n)
        out = psi.copy()
        svec.apply_check_inplace(out, proj)
        forbidden = np.ones(1 << n, dtype=bool)
        for lit in clause.literals:
            bit = (np.arange(1 << n) >> (n - lit.var)) & 1
            forbidden &= bit == (1 if lit.negated else 0)
        assert np.all(out[forbidden] == 0.0)
        assert np.array_equal(out[~forbidden], psi[~forbidden])

    def test_no_zero_factor_entry_below_pi_half(self):
        # Every support pattern is visited below pi/2, so the arithmetic there
        # is the full-pattern kernel's.
        for theta in np.linspace(0.0, np.pi / 2, 1001)[1:-1]:
            proj = _proj([1, -2, 3], theta, 3)
            assert all(np.all(u != 0.0) for u in proj.factors)


class TestSampling:
    def test_branch_frequencies_match_probabilities(self):
        theta = 0.45 * np.pi
        proj = _proj([1, 2, 3], theta, 4)
        psi = svec.plus_state(4)
        p_fail, _ = oracle.clause_check_probabilities(psi, proj)
        rng = np.random.default_rng(123)
        shots = 10_000
        fails = sum(not oracle.check_clause(psi, proj, rng).passed for _ in range(shots))
        sigma = np.sqrt(p_fail * (1 - p_fail) / shots)
        assert abs(fails / shots - p_fail) <= 4 * sigma

    def test_sample_basis_distribution(self):
        psi = enc.theta_string_state("01", 0.4 * np.pi)
        rng = np.random.default_rng(7)
        draws = svec.sample_basis(svec.basis_cdf(psi), rng, 20_000)
        freq = np.bincount(draws, minlength=4) / 20_000
        expected = psi * psi
        assert np.abs(freq - expected).max() < 0.02

    def test_sample_basis_matches_generator_choice(self):
        # draws from one cached CDF equal rng.choice's, one call at a time
        # and in bulk, and leave the generator in the same state
        for seed, n in ((1, 3), (2, 7), (3, 10)):
            psi = np.random.default_rng(seed).standard_normal(1 << n)
            psi[::3] = 0.0  # zero-probability outcomes are never drawn
            psi *= 1.7  # the readout normalizes the state itself
            p = psi * psi
            cdf = svec.basis_cdf(psi)
            for size in (1, 500):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(50):
                    got = svec.sample_basis(cdf, ours, size)
                    want = theirs.choice(psi.shape[0], size=size, p=p / p.sum())
                    assert np.array_equal(got, want)
                assert ours.bit_generator.state == theirs.bit_generator.state
                assert not np.any(psi[svec.sample_basis(cdf, ours, 2000)] == 0.0)

    @pytest.mark.parametrize("n", [5, 12, 18])
    def test_basis_cdf_in_place_within_its_check(self, n, monkeypatch):
        # the CDF is built in the one array of p, bit for bit the CDF of
        # (p / total).cumsum() / its last entry; 64 KiB covers Python objects
        psi = np.random.default_rng(n).standard_normal(1 << n)
        p = psi * psi
        want = (p / p.sum()).cumsum()
        want /= want[-1]
        reserved = []
        monkeypatch.setattr(svec, "check_alloc", lambda nbytes, what: reserved.append(nbytes))
        tracemalloc.start()
        try:
            got = svec.basis_cdf(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert reserved == [8 << n] and peak <= reserved[0] + (64 << 10)

    def test_basis_cdf_rejects_degenerate_state(self):
        for bad in (np.zeros(4), np.array([np.nan, 1.0, 0.0, 0.0]), np.full(4, 1e300)):
            with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
                svec.basis_cdf(bad)


@st.composite
def _formula_case(draw, thetas=st.floats(0.05, np.pi / 2)):
    """(formula, theta, order, seed): 1-3 clauses of width 1-3 on n <= 10
    qubits, each clause on qubit 1 or qubit n, checks in a random order."""
    n = draw(st.integers(1, 10))
    clauses = []
    for _ in range(draw(st.integers(1, 3))):
        support = {draw(st.sampled_from([1, n]))} | draw(
            st.sets(st.integers(1, n), max_size=2)
        )
        clauses.append([v if draw(st.booleans()) else -v for v in sorted(support)])
    f = fm.formula_from_dimacs_codes(n, clauses)
    order = draw(st.permutations(range(f.m)))
    theta = draw(thetas)
    return f, theta, order, draw(st.integers(0, 2**32 - 1))


def _check_against_kron_oracle(case):
    f, theta, order, seed = case
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(1 << f.n)
    batch = rng.standard_normal((1 << f.n, int(rng.integers(1, 5))))
    projs = enc.clause_projectors(f, theta)
    expected = np.eye(1 << f.n)
    for i in order:
        dense = oracle.kron_projector(projs[i])
        check = np.eye(1 << f.n) - dense
        before = psi.copy()
        out = svec.apply_check_unnormalized(psi, projs[i])
        assert np.array_equal(psi, before)
        assert np.abs(out - check @ psi).max() <= 1e-13
        out = batch.copy()
        svec.apply_check_inplace(out, projs[i])
        assert np.abs(out - check @ batch).max() <= 1e-13
        assert np.abs(enc.dense_projector(projs[i]) - dense).max() <= 1e-13
        expected = check @ expected
    t = svec.product_operator(f, theta, order=order)
    assert np.abs(t - expected).max() <= 1e-12


class TestKernelMatchesKronOracle:
    @settings(max_examples=60, deadline=None)
    @given(_formula_case())
    def test_vectors_batches_and_products(self, case):
        _check_against_kron_oracle(case)

    @settings(max_examples=30, deadline=None)
    @given(_formula_case(thetas=st.just(np.pi / 2)))
    def test_exact_right_angle(self, case):
        """At exactly pi/2 the kernel skips the zero-amplitude patterns."""
        _check_against_kron_oracle(case)


_BASIS_FACTORS = ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0])


@st.composite
def _mixed_sparsity_case(draw):
    """(projector, seed): a rank-1 projector on 1-4 qubits of n <= 10 whose
    factors mix exact basis vectors with generic unit 2-vectors; with two or
    more factors, the first is a basis vector and the last is generic."""
    n = draw(st.integers(1, 10))
    support = sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=min(n, 4))))
    sparse = draw(st.lists(st.booleans(), min_size=len(support), max_size=len(support)))
    if len(support) > 1:
        sparse[0], sparse[-1] = True, False
    factors = []
    for is_basis in sparse:
        if is_basis:
            factors.append(np.array(draw(st.sampled_from(_BASIS_FACTORS))))
        else:
            phi = draw(st.floats(0.0, 2 * np.pi))
            factors.append(np.array([np.cos(phi), np.sin(phi)]))
    proj = enc.ClauseProjector(n=n, support=tuple(support), factors=tuple(factors))
    return proj, draw(st.integers(0, 2**32 - 1))


class TestKernelMixedSparsity:
    @settings(max_examples=60, deadline=None)
    @given(_mixed_sparsity_case())
    def test_matches_kron_oracle(self, case):
        """Basis-vector factors make the kernel skip some support patterns
        and visit the others (the sparse frame's partial skip)."""
        proj, seed = case
        rng = np.random.default_rng(seed)
        check = np.eye(1 << proj.n) - oracle.kron_projector(proj)
        psi = rng.standard_normal(1 << proj.n)
        batch = rng.standard_normal((1 << proj.n, int(rng.integers(1, 5))))
        for x in (psi, batch):
            out = x.copy()
            svec.apply_check_inplace(out, proj)
            assert np.abs(out - check @ x).max() <= 1e-13


class TestFrameHelpers:
    def test_product_state_matches_kron(self):
        rng = np.random.default_rng(5)
        for n in range(0, 9):
            factors = [rng.standard_normal(2) for _ in range(n)]
            expected = reduce(np.kron, factors, np.array([1.0]))
            assert np.abs(enc.product_state(factors) - expected).max() <= 1e-15

    def test_rotate_qubits_matches_kron(self):
        rng = np.random.default_rng(6)
        for n in range(1, 9):
            qubits = rng.choice(np.arange(1, n + 1), size=int(rng.integers(0, n + 1)), replace=False)
            gates = {int(q): rng.standard_normal((2, 2)) for q in qubits}
            dense = reduce(np.kron, [gates.get(q, np.eye(2)) for q in range(1, n + 1)], np.eye(1))
            psi = rng.standard_normal(1 << n)
            out = psi.copy()
            svec.rotate_qubits_inplace(out, gates)
            assert np.abs(out - dense @ psi).max() <= 1e-13


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal bytes: unlike ``np.array_equal``, -0.0 != 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _kernel_and_reference(x: np.ndarray, proj) -> tuple[np.ndarray, np.ndarray]:
    """(apply_check_inplace, apply_check_reference) applied to copies of x."""
    got, want = x.copy(), x.copy()
    svec.apply_check_inplace(got, proj)
    oracle.apply_check_reference(want, proj)
    return got, want


class TestKernelMatchesReference:
    """The compiled patterns and the zeroing branch change no bit: the kernel
    matches the per-call reference exactly, on states and on batches."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("theta", [np.pi / 2, 0.1 * np.pi, 0.25 * np.pi, 0.3 * np.pi, 0.45 * np.pi])
    def test_sparse_frame_and_computational_projectors(self, k, theta):
        f = fm.generate("random_ksat", 9, 30, k, 1)
        _, frame_projs = enc.sparse_frame(f, theta)
        # one pattern (the zeroing branch), two, and, from k = 2, four
        expected = {1} if theta == np.pi / 2 else {1, 2, 4} if k > 1 else {1, 2}
        assert expected <= {len(p.patterns) for p in frame_projs}
        rng = np.random.default_rng(k)
        for proj in frame_projs + enc.clause_projectors(f, theta):
            for x in (rng.standard_normal(1 << f.n), rng.standard_normal((1 << f.n, 3))):
                assert _same_bits(*_kernel_and_reference(x, proj))

    @settings(max_examples=60, deadline=None)
    @given(_mixed_sparsity_case())
    def test_mixed_sparsity(self, case):
        """Basis factors of either sign, so single patterns of amplitude +1
        and -1, beside generic factors."""
        proj, seed = case
        rng = np.random.default_rng(seed)
        for x in (rng.standard_normal(1 << proj.n), rng.standard_normal((1 << proj.n, 2))):
            assert _same_bits(*_kernel_and_reference(x, proj))

    def test_zeroing_branch_writes_positive_zeros(self):
        # the reference's x - (+-1)(+-1)x is +0.0 for every finite x, -0.0
        # included; (not x1 or x2) forbids x1 = 1, x2 = 0: indices 4 and 5
        proj = _proj([-1, 2], np.pi / 2, 3)
        for forbidden in ([-0.0, 0.0], [np.finfo(float).max, -5e-324]):
            psi = np.array([-0.0, 0.0, 1.5, -2.5, *forbidden, -7.0, 1e-300])
            got, want = _kernel_and_reference(psi, proj)
            assert _same_bits(got, want) and _same_bits(got[4:6], np.zeros(2))
            assert _same_bits(np.delete(got, [4, 5]), np.delete(psi, [4, 5]))

    def test_single_pattern_off_one_is_not_zeroed(self):
        # a factor of norm 1 - 2^-53 leaves one pattern whose amplitude is
        # not exactly +-1, so w and the subtraction leave a residue
        proj = enc.ClauseProjector(n=2, support=(1,), factors=(np.array([0.0, 1.0 - 2.0**-53]),))
        got, want = _kernel_and_reference(np.array([1.0, 2.0, 3.0, 4.0]), proj)
        assert _same_bits(got, want) and np.all(got[2:] != 0.0)

    def test_unnormalized_out(self):
        proj = _proj([1, -3], 0.3 * np.pi, 4)
        psi = np.random.default_rng(3).standard_normal(16)
        _, want = _kernel_and_reference(psi, proj)
        before = psi.copy()
        fresh = svec.apply_check_unnormalized(psi, proj)
        assert _same_bits(fresh, want) and _same_bits(psi, before)
        other = np.empty_like(psi)
        assert svec.apply_check_unnormalized(psi, proj, out=other) is other
        assert _same_bits(other, want) and _same_bits(psi, before)
        assert svec.apply_check_unnormalized(psi, proj, out=psi) is psi
        assert _same_bits(psi, want)


class TestKernelLoopOrder:
    """Pattern slices whose contiguous runs are 2 or 4 amplitudes long are
    iterated along a long axis (the compiled ``loop_order``) on 1-D states,
    with the same bits as the reference."""

    @pytest.mark.parametrize("n", [12, 13, 14])
    @pytest.mark.parametrize("theta", [0.25 * np.pi, 0.4 * np.pi])
    def test_reordered_checks_match_reference(self, n, theta):
        f = fm.generate("random_ksat", n, 40, 3, n)
        _, frame_projs = enc.sparse_frame(f, theta)
        computational_projs = enc.clause_projectors(f, theta)
        for projs in (frame_projs, computational_projs):
            assert any(p.loop_order is not None for p in projs)
        rng = np.random.default_rng(n)
        for proj in frame_projs + computational_projs:
            for x in (rng.standard_normal(1 << n), rng.standard_normal((1 << n, 3))):
                assert _same_bits(*_kernel_and_reference(x, proj))

    def test_compiled_only_for_short_runs_with_a_long_axis(self):
        generic = (np.array([0.6, 0.8]), np.array([0.8, -0.6]))
        basis = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        cases = {  # (n, support): loop_order of the generic and of the basis factors
            (14, (1, 13)): ((0, 2, 1), None),  # runs of 2, the middle axis has 2^11 entries
            (14, (1, 12)): ((0, 2, 1), None),  # runs of 4
            (14, (6, 12)): ((0, 2, 1), None),  # two long axes: the one of smaller stride
            (14, (1, 14)): (None, None),  # runs of 1
            (14, (1, 11)): (None, None),  # runs of 8
            (8, (4, 7)): (None, None),  # runs of 2, no other axis of 16 or more
        }
        rng = np.random.default_rng(0)
        for (n, support), (want_generic, want_basis) in cases.items():
            for factors, want in ((generic, want_generic), (basis, want_basis)):
                proj = enc.ClauseProjector(n=n, support=support, factors=factors)
                assert proj.loop_order == want, (support, factors)
                assert _same_bits(*_kernel_and_reference(rng.standard_normal(1 << n), proj))
