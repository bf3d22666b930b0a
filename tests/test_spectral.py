import math

import numpy as np
import pytest

from mdsat import encoding as enc
from mdsat import formula as fm
from mdsat import spectral as sp
from mdsat import statevec as svec
from mdsat.formula import UNSAT


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

    def test_unate_pi_half_gap_at_least_one(self):
        for seed in range(4):
            f = fm.generate("unate", 6, 9, 3, seed)
            if fm.count_solutions(f) == 0:
                continue
            assert sp.spectral_gap(f, np.pi / 2) >= 1.0 - 1e-10


class TestUniformGap:
    def test_single_clause(self):
        f = fm.formula_from_dimacs_codes(3, [[1, 2, -3]])
        est = sp.uniform_gap(f, 0.3 * np.pi)
        assert est.exact and abs(est.value - 1.0) < 1e-12

    def test_at_most_full_gap(self, small_instances):
        theta = 0.35 * np.pi
        for f in small_instances[:3]:
            if f.m > 12:
                continue
            est = sp.uniform_gap(f, theta)
            assert est.value <= sp.spectral_gap(f, theta) + 1e-9

    def test_propagated_hamiltonians_respect_uniform_gap(self):
        theta = 0.3 * np.pi
        rng = np.random.default_rng(15)
        f = fm.random_satisfiable(rng, 5, 7, 3)
        uni = sp.uniform_gap(f, theta).value
        cur = f
        while cur.n > 1 and cur.m > 0:
            sols = fm.brute_force_solutions(cur)
            pick = next(iter(sols))
            value = pick[0] == "1"
            nxt = fm.propagate(cur, 1, value)
            assert nxt is not UNSAT
            cur = nxt
            if cur.m == 0:
                break
            assert sp.spectral_gap(cur, theta) >= uni - 1e-9

    def test_sampled_estimate_flagged(self):
        rng = np.random.default_rng(3)
        f = fm.random_satisfiable(rng, 5, 14, 3)
        est = sp.uniform_gap(f, 0.3 * np.pi)
        assert not est.exact and est.value > 0


class TestConvergenceRate:
    def test_pi_half_is_zero(self, small_instances):
        for f in small_instances[:4]:
            assert sp.convergence_rate(f, np.pi / 2) < 1e-12

    def test_unate_is_zero(self):
        f = fm.generate("unate", 6, 10, 3, seed=1)
        if fm.count_solutions(f) > 0:
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


class TestDlQub:
    def test_slacks_nonnegative(self, small_instances):
        for f in small_instances[:6]:
            for theta in (0.1 * np.pi, 0.25 * np.pi, 0.4 * np.pi, 0.5 * np.pi):
                res = sp.check_dl_qub(f, theta)
                assert res.dl_slack >= -1e-9
                assert res.qub_slack >= -1e-9

    def test_pi_half_vacuous_qub(self, small_instances):
        f = small_instances[0]
        res = sp.check_dl_qub(f, np.pi / 2)
        assert res.mu < 1e-12
        assert res.qub_slack >= -1e-9

    def test_dl_chain_inequality(self, small_instances):
        # 1/sqrt(x+1) <= 1 - x/4 on the detectability lemma's domain x <= 1
        for f in small_instances[:6]:
            res = sp.check_dl_qub(f, 0.3 * np.pi)
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
            c = sp.friedrichs_angle([b1, b2], 2)
            assert abs(c - abs(np.cos(alpha))) < 1e-12

    def test_orthogonal_subspaces(self):
        b1 = np.array([[1.0], [0.0], [0.0]])
        b2 = np.array([[0.0], [1.0], [0.0]])
        b3 = np.array([[0.0], [0.0], [1.0]])
        assert sp.friedrichs_angle([b1, b2, b3], 3) < 1e-12

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
            assert abs(sp.friedrichs_angle(blocks, 6) - expected) <= 1e-12

    def test_trivial_blocks_give_zero(self):
        empty = np.zeros((4, 0))
        assert sp.friedrichs_angle([empty, empty], 4) == 0.0

    def test_needs_two_subspaces(self):
        with pytest.raises(ValueError):
            sp.friedrichs_angle([np.eye(2)], 2)

    def test_speed_bound_on_layer_images(self):
        rng = np.random.default_rng(44)
        checked = 0
        while checked < 5:
            f = fm.random_satisfiable(rng, 5, 9, 3)
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
            assert sp.monotone_update_check(f, theta, var, value)

    def test_single_literal_deletion_psd(self):
        f = fm.formula_from_dimacs_codes(2, [[1, 2]])
        assert sp.monotone_update_check(f, 0.3 * np.pi, 1, False)

    def test_absent_variable_keeps_hamiltonian(self):
        f = fm.formula_from_dimacs_codes(3, [[2, 3]])
        assert sp.monotone_update_check(f, 0.3 * np.pi, 1, True)


class TestAvgOverlapIdentity:
    def test_n1_two_terms(self):
        res = sp.avg_overlap_identity(1, 0.3 * np.pi, samples=10)
        assert abs(res.binomial_sum - (1 + np.cos(0.3 * np.pi)) / 2) < 1e-14

    def test_pi_half_only_zero_distance(self):
        res = sp.avg_overlap_identity(12, np.pi / 2, samples=10)
        assert abs(res.binomial_sum - 2.0**-12) < 1e-14

    def test_closed_form_n10(self):
        res = sp.avg_overlap_identity(10, np.pi / 3, samples=10)
        assert abs(res.binomial_sum - 0.75**10) < 1e-12

    def test_monte_carlo_within_3_sigma(self):
        res = sp.avg_overlap_identity(
            8, 0.3 * np.pi, samples=20_000, rng=np.random.default_rng(2)
        )
        assert abs(res.monte_carlo - res.analytic) <= 3 * res.monte_carlo_stderr


class TestSpectralReport:
    def test_report_fields_and_json(self):
        f = fm.random_satisfiable(np.random.default_rng(1), 5, 8, 3)
        rep = sp.spectral_report(f, 0.3 * np.pi)
        assert rep.d_sol == fm.count_solutions(f)
        assert rep.gap_bound_slack >= -1e-9
        assert rep.dl_slack >= -1e-9 and rep.qub_slack >= -1e-9
        assert rep.uniform_gap is not None and rep.uniform_gap_exact
        data = rep.to_json()
        assert '"schema": "mdsat-spectral/1"' in data

    def test_unsatisfiable_raises(self):
        f = fm.formula_from_dimacs_codes(1, [[1], [-1]])
        with pytest.raises(enc.Unsatisfiable):
            sp.spectral_report(f, 0.3)
