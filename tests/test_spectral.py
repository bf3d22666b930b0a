import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import oracle
import paper_checks as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdsat import encoding as enc
from mdsat import formula as fm
from mdsat import phf
from mdsat import spectral as sp
from mdsat import statevec as svec
from mdsat.config import CapExceeded

# The values the spectral-report benchmark checks mdsat against.
SPECTRAL_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench/reference/spectral.json"


class TestSpectralGap:
    def test_single_clause_gap_one(self):
        f = fm.formula_from_dimacs_codes(3, [[1, -2, 3]])
        for theta in (0.2 * np.pi, 0.45 * np.pi):
            assert abs(sp.spectral_gap(f, theta) - 1.0) < 1e-12

    def test_unsatisfiable_raises(self):
        f = fm.formula_from_dimacs_codes(1, [[1], [-1]])
        with pytest.raises(enc.Unsatisfiable):
            sp.spectral_gap(f, 0.3)

    def test_lower_bound_random_instances(self, small_instances):
        for f in small_instances[:6]:
            for theta in (0.25 * np.pi, 0.4 * np.pi):
                gap = sp.spectral_gap(f, theta)
                bound = sp.gap_lower_bound(theta, f.n, f.max_width())
                assert gap - bound >= -1e-9

    def test_no_clauses_raises(self):
        f = fm.formula_from_dimacs_codes(3, [])
        with pytest.raises(ValueError, match="no nonzero eigenvalue"):
            sp.spectral_gap(f, 0.3)

    def test_kernel_above_ground_tolerance_raises(self):
        # Pinned at dimension 2, the kernel's top eigenvalue is 1.
        with pytest.raises(AssertionError, match="not frustration-free"):
            sp._gap_above_kernel(np.diag([0.0, 1.0, 2.0]), 2)

    def test_unate_pi_half_gap_at_least_one(self):
        for seed in range(4):
            f = fm.generate("unate", 6, 9, 3, seed)
            if f.solutions.size == 0:
                continue
            assert sp.spectral_gap(f, np.pi / 2) >= 1.0 - 1e-10


class TestUniformGap:
    def test_single_clause(self):
        f = fm.formula_from_dimacs_codes(3, [[1, 2, -3]])
        est = sp.uniform_gap(f, 0.3 * np.pi)
        assert est.exact and abs(est.value - 1.0) < 1e-12

    def test_at_most_full_gap(self, small_instances):
        # The full clause set is one of the subsets, and its summed Hamiltonian
        # is hamiltonian_matrix bit for bit, so the exact minimum needs no
        # tolerance.  At 0.01pi and 0.02pi the gaps lie below 1e-9.
        cases = [(f, 0.35 * np.pi) for f in small_instances[:3] if f.m <= 12]
        tiny_gaps = fm.generate("random_ksat", 7, 10, 3, seed=2)
        cases += [(tiny_gaps, 0.01 * np.pi), (tiny_gaps, 0.02 * np.pi)]
        for f, theta in cases:
            est = sp.uniform_gap(f, theta)
            assert est.exact and est.value <= sp.spectral_gap(f, theta)

    def test_propagated_hamiltonians_respect_uniform_gap(self):
        theta = 0.3 * np.pi
        rng = np.random.default_rng(15)
        f = oracle.random_satisfiable(rng, 5, 7, 3)
        uni = sp.uniform_gap(f, theta).value
        cur = f
        while cur.n > 1 and cur.m > 0:
            sols = fm.brute_force_solutions(cur)
            pick = next(iter(sols))
            value = pick[0] == "1"
            nxt = fm.propagate(cur, 1, value)
            assert nxt is not None
            cur = nxt
            if cur.m == 0:
                break
            assert sp.spectral_gap(cur, theta) >= uni - 1e-9

    def test_sampled_estimate_flagged(self):
        rng = np.random.default_rng(3)
        f = oracle.random_satisfiable(rng, 5, 14, 3)
        est = sp.uniform_gap(f, 0.3 * np.pi)
        assert not est.exact and est.value > 0


class TestConvergenceRate:
    # The first two run on both routes: the per-vector route's frame is the
    # identity at pi/2, and unate checks commute in any frame.
    def test_pi_half_is_zero(self, small_instances, monkeypatch):
        for assemble_max_n in (sp._ASSEMBLE_MAX_N, 0):
            monkeypatch.setattr(sp, "_ASSEMBLE_MAX_N", assemble_max_n)
            for f in small_instances[:4]:
                assert sp.convergence_rate(f, np.pi / 2) < 1e-12

    def test_unate_is_zero(self, monkeypatch):
        f = fm.generate("unate", 6, 10, 3, seed=1)
        assert f.solutions.size > 0
        for assemble_max_n in (sp._ASSEMBLE_MAX_N, 0):
            monkeypatch.setattr(sp, "_ASSEMBLE_MAX_N", assemble_max_n)
            assert sp.convergence_rate(f, 0.3 * np.pi) < 1e-12

    def test_strictly_contractive(self, small_instances):
        theta = 0.25 * np.pi
        for f in small_instances[:6]:
            mu = sp.convergence_rate(f, theta)
            assert 0.0 <= mu < 1.0

    def test_power_inequality(self, small_instances):
        theta = 0.3 * np.pi
        for f in small_instances[:3]:
            mu = sp.convergence_rate(f, theta)
            t = svec.product_operator(f, theta)
            p_gs = enc.ground_space_projector(f, theta)
            power = np.eye(t.shape[0])
            for r in range(1, 11):
                power = t @ power
                assert np.linalg.norm(power - p_gs, 2) <= mu**r + 1e-9


    @pytest.mark.parametrize("m", [1, 2])
    def test_assembled_peak_within_its_phases(self, m):
        # The ground-space projector is built while this function holds
        # nothing of its own, then the product and its scratch beside it:
        # the peak is the larger of the projector's own and 24 * 4^n.
        # random_ksat 8/1 and 8/2 seed 1 have 224 and 192 solutions.
        f = fm.generate("random_ksat", sp._ASSEMBLE_MAX_N, m, 3, seed=1)
        assert f.n <= sp._ASSEMBLE_MAX_N
        theta = 0.4 * np.pi
        tracemalloc.start()
        try:
            enc.ground_space_projector(f, theta)
            projector_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            sp.convergence_rate(f, theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(projector_peak, 24 << 2 * f.n) + (64 << 10)


# Below this both sides read mu as zero: Lanczos resolves mu^2 to 1e-13, and
# the oracle's P_GS, a QR of non-orthogonal solution states, carries rounding
# of up to ~1e-10 near 0.1 pi with hundreds of solutions, which the oracle
# reports as mu.
_MU_VANISHES = 1e-6


@st.composite
def _mu_case(draw):
    """(formula, theta): a random satisfiable 3-SAT formula on 3..9 qubits
    with 1..4.3n clauses, and an angle in (0.1 pi, 0.45 pi)."""
    n = draw(st.integers(3, 9))
    m = draw(st.integers(1, round(4.3 * n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = draw(
        st.floats(0.1 * np.pi, 0.45 * np.pi, exclude_min=True, exclude_max=True)
    )
    return oracle.random_satisfiable(rng, n, m, 3), theta


def _clustered_case():
    """Spectral reference pool seed 37 at 0.1 pi, where sigma_1 - sigma_2 of
    prod C - P_GS is 1.1e-5, with its recorded mu."""
    ref = json.loads(SPECTRAL_REFERENCE.read_text(encoding="utf-8"))
    entry = next(e for e in ref["instances"] if e["seed"] == 37)
    row = next(r for r in entry["rows"] if abs(r["theta"] - 0.1 * np.pi) < 1e-12)
    return fm.generate("planted_unique", ref["n"], ref["m"], 3, 37), row["theta"], row["mu"]


def _count_matvecs(monkeypatch):
    """A one-element list that counts the matvecs of every later
    :func:`mdsat.spectral._lanczos_max` call."""
    calls = [0]
    lanczos_max = sp._lanczos_max

    def counted(matvec, dim):
        def matvec_counted(v):
            calls[0] += 1
            return matvec(v)

        return lanczos_max(matvec_counted, dim)

    monkeypatch.setattr(sp, "_lanczos_max", counted)
    return calls


class TestConvergenceRateMatchesDenseOracle:
    @pytest.mark.parametrize(
        "assemble_max_n", [sp._ASSEMBLE_MAX_N, 0], ids=["assembled", "per_vector"]
    )
    @settings(max_examples=20, deadline=None)
    @given(case=_mu_case())
    def test_random_formulas_both_orders(self, assemble_max_n, case):
        f, theta = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sp, "_ASSEMBLE_MAX_N", assemble_max_n)
            for order in (None, phf.layered_order(phf.build_layers(f))):
                mu = sp.convergence_rate(f, theta, order)
                expected = oracle.dense_convergence_rate(f, theta, order)
                if expected < _MU_VANISHES:
                    assert mu < _MU_VANISHES
                else:
                    assert abs(mu - expected) <= 1e-12

    def test_n11_per_vector(self):
        f = fm.generate("planted_unique", 11, 47, 3, 1)
        assert f.n > sp._ASSEMBLE_MAX_N
        theta = 0.4 * np.pi
        mu = sp.convergence_rate(f, theta)
        assert abs(mu - oracle.dense_convergence_rate(f, theta)) <= 1e-12

    @pytest.mark.parametrize("assemble_max_n", [sp._ASSEMBLE_MAX_N, 0])
    def test_clustered_top_matches_reference(self, monkeypatch, assemble_max_n):
        monkeypatch.setattr(sp, "_ASSEMBLE_MAX_N", assemble_max_n)
        f, theta, mu = _clustered_case()
        assert abs(sp.convergence_rate(f, theta) - mu) <= 1e-10

    def test_unconverged_raises(self, monkeypatch):
        monkeypatch.setattr(sp, "_LANCZOS_MAX_RESTARTS", 1)
        f, theta, _ = _clustered_case()
        with pytest.raises(np.linalg.LinAlgError):
            sp.convergence_rate(f, theta)

    @pytest.mark.parametrize("assemble_max_n", [sp._ASSEMBLE_MAX_N, 0])
    def test_clustered_top_restarts(self, monkeypatch, assemble_max_n):
        # the thick restart is exercised: one basis is too few for the cluster
        monkeypatch.setattr(sp, "_ASSEMBLE_MAX_N", assemble_max_n)
        calls = _count_matvecs(monkeypatch)
        f, theta, _ = _clustered_case()
        sp.convergence_rate(f, theta)
        assert calls[0] > sp._LANCZOS_BASIS

    @pytest.mark.parametrize("gap, tol", [(0.3, 1e-15), (1e-6, 1e-12)])
    def test_stops_on_a_known_gap(self, monkeypatch, gap, tol):
        # a top eigenvalue 1 with the rest of the spectrum spread over
        # [0, 1 - gap]; a wide gap stops inside the first basis
        d = np.append(np.linspace(0.0, 1.0 - gap, 1023), 1.0)
        calls = _count_matvecs(monkeypatch)
        assert abs(sp._lanczos_max(lambda v: d * v, d.size) - 1.0) <= tol
        if gap == 0.3:
            assert calls[0] < sp._LANCZOS_BASIS

    def test_zero_operator_gives_zero(self):
        assert sp._lanczos_max(np.zeros_like, 64) == 0.0

    def test_per_vector_route_checks_budget(self, monkeypatch):
        # one solution: five vectors while Q is built, plus the Lanczos basis,
        # the Ritz vectors of a restart and three work vectors
        f = fm.generate("planted_unique", 11, 47, 3, 1)
        need = (5 + sp._LANCZOS_BASIS + sp._LANCZOS_KEEP + 3) * 8 << 11
        monkeypatch.setenv("MDSAT_MEM_BYTES", str(need - 1))
        with pytest.raises(CapExceeded, match=f"Lanczos basis .* needs {need} bytes"):
            sp.convergence_rate(f, 0.4 * np.pi)
        monkeypatch.setenv("MDSAT_MEM_BYTES", str(need))
        assert 0.0 < sp.convergence_rate(f, 0.4 * np.pi) < 1.0


def _dl_qub(f, theta):
    """The report fields the detectability-lemma/union-bound tests read."""
    return sp.spectral_report(f, theta, with_uniform=False, with_friedrichs=False)


class TestDlQub:
    def test_slacks_nonnegative(self, small_instances):
        for f in small_instances[:6]:
            for theta in (0.1 * np.pi, 0.25 * np.pi, 0.4 * np.pi, 0.5 * np.pi):
                res = _dl_qub(f, theta)
                assert res.dl_slack >= -1e-9
                assert res.qub_slack >= -1e-9

    def test_pi_half_vacuous_qub(self, small_instances):
        f = small_instances[0]
        res = _dl_qub(f, np.pi / 2)
        assert res.mu < 1e-12
        assert res.qub_slack >= -1e-9

    def test_dl_chain_inequality(self, small_instances):
        # 1/sqrt(x+1) <= 1 - x/4 on the detectability lemma's domain x <= 1
        for f in small_instances[:6]:
            res = _dl_qub(f, 0.3 * np.pi)
            if res.g == 0:
                continue
            x = res.gap / res.g**2
            if x <= 1.0:
                assert 1.0 / math.sqrt(x + 1.0) <= 1.0 - x / 4.0 + 1e-12


class TestFriedrichs:
    def test_two_lines_in_plane(self):
        for alpha in (0.2, 0.7, 1.2, np.pi / 2):
            b1 = np.array([[1.0], [0.0]])
            b2 = np.array([[np.cos(alpha)], [np.sin(alpha)]])
            c = oracle.friedrichs_angle([b1, b2], 2)
            assert abs(c - abs(np.cos(alpha))) < 1e-12

    def test_orthogonal_subspaces(self):
        b1 = np.array([[1.0], [0.0], [0.0]])
        b2 = np.array([[0.0], [1.0], [0.0]])
        b3 = np.array([[0.0], [0.0], [1.0]])
        assert oracle.friedrichs_angle([b1, b2, b3], 3) < 1e-12

    def test_summed_dimension_above_ambient_matches_block_gram(self):
        # three 3-dimensional subspaces of R^6 (summed dimension 9 > 6), one
        # of them with an empty partner block
        rng = np.random.default_rng(7)
        bases = [np.linalg.qr(rng.standard_normal((6, 3)))[0] for _ in range(3)]
        for blocks in (bases, bases + [np.zeros((6, 0))]):
            b = np.column_stack(blocks)
            lam_max = np.linalg.eigvalsh(b.T @ b)[-1]
            expected = min(1.0, max(0.0, (lam_max - 1.0) / (len(blocks) - 1)))
            assert 0.0 < expected < 1.0
            assert abs(oracle.friedrichs_angle(blocks, 6) - expected) <= 1e-12

    def test_trivial_blocks_give_zero(self):
        empty = np.zeros((4, 0))
        assert oracle.friedrichs_angle([empty, empty], 4) == 0.0

    def test_needs_two_subspaces(self):
        with pytest.raises(ValueError):
            oracle.friedrichs_angle([np.eye(2)], 2)

    def test_projector_sum_matches_block_gram(self, small_instances):
        checked = 0
        for f in small_instances:
            for theta in (0.1 * np.pi, 0.25 * np.pi, 0.4 * np.pi):
                layers = phf.build_layers(f, theta)
                if len(layers) < 2:
                    continue
                bases, _, _ = sp.layer_image_subspaces(f, theta, layers)
                expected = oracle.friedrichs_angle(bases, 1 << f.n)
                _, c, _ = sp.friedrichs_speed_slack(f, theta)
                assert abs(c - expected) <= 1e-12
                checked += 1
        assert checked > 0

    def test_speed_bound_on_layer_images(self):
        rng = np.random.default_rng(44)
        checked = 0
        while checked < 5:
            f = oracle.random_satisfiable(rng, 5, 9, 3)
            slack, c, ell = sp.friedrichs_speed_slack(f, 0.3 * np.pi)
            if ell < 2:
                continue
            assert 0.0 <= c < 1.0
            assert slack >= -1e-9
            checked += 1


class TestMonotoneUpdate:
    def test_random_propagations(self, small_instances):
        theta = 0.35 * np.pi
        rng = np.random.default_rng(5)
        for f in small_instances[:5]:
            var = int(rng.integers(1, f.n + 1))
            value = bool(rng.integers(0, 2))
            assert pc.monotone_update_check(f, theta, var, value)

    def test_single_literal_deletion_psd(self):
        f = fm.formula_from_dimacs_codes(2, [[1, 2]])
        assert pc.monotone_update_check(f, 0.3 * np.pi, 1, False)

    def test_absent_variable_keeps_hamiltonian(self):
        f = fm.formula_from_dimacs_codes(3, [[2, 3]])
        assert pc.monotone_update_check(f, 0.3 * np.pi, 1, True)


class TestAvgOverlapIdentity:
    def test_n1_two_terms(self):
        res = pc.avg_overlap_identity(1, 0.3 * np.pi, samples=10)
        assert abs(res.binomial_sum - (1 + np.cos(0.3 * np.pi)) / 2) < 1e-14

    def test_pi_half_only_zero_distance(self):
        res = pc.avg_overlap_identity(12, np.pi / 2, samples=10)
        assert abs(res.binomial_sum - 2.0**-12) < 1e-14

    def test_closed_form_n10(self):
        res = pc.avg_overlap_identity(10, np.pi / 3, samples=10)
        assert abs(res.binomial_sum - 0.75**10) < 1e-12

    def test_monte_carlo_within_3_sigma(self):
        res = pc.avg_overlap_identity(
            8, 0.3 * np.pi, samples=20_000, rng=np.random.default_rng(2)
        )
        assert abs(res.monte_carlo - res.analytic) <= 3 * res.monte_carlo_stderr


class TestSpectralReport:
    def test_report_fields_and_json(self):
        f = oracle.random_satisfiable(np.random.default_rng(1), 5, 8, 3)
        rep = sp.spectral_report(f, 0.3 * np.pi)
        assert rep.d_sol == f.solutions.size
        assert rep.gap_bound_slack >= -1e-9
        assert rep.dl_slack >= -1e-9 and rep.qub_slack >= -1e-9
        assert rep.uniform_gap is not None and rep.uniform_gap_exact

    def test_single_layer_has_no_friedrichs_angle(self):
        f = fm.parse_dimacs("p cnf 3 1\n1 0\n")
        assert sp.friedrichs_speed_slack(f, 0.4 * np.pi) == (None, None, 1)
        rep = sp.spectral_report(f, 0.4 * np.pi)
        assert rep.layer_count == 1
        assert rep.friedrichs_c is None and rep.speed_bound_slack is None

    def test_unsatisfiable_raises(self):
        f = fm.formula_from_dimacs_codes(1, [[1], [-1]])
        with pytest.raises(enc.Unsatisfiable):
            sp.spectral_report(f, 0.3)

    def test_one_enumeration_across_angles(self, enumerated):
        # d_sol, the gap's kernel, the uniform gap's check and P_GS of mu all
        # read the one solution set of f, at every angle
        f = fm.generate("random_ksat", 5, 8, 3, seed=1)  # 7 solutions
        for theta in (0.25 * np.pi, 0.4 * np.pi, 0.5 * np.pi):
            sp.spectral_report(f, theta)
        assert len(enumerated) == 1 and enumerated[0] is f
