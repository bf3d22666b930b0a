import math
import time

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from mdsat import encoding as enc
from mdsat import formula as fm
from mdsat import solver as sv
from mdsat import spectral as sp
from mdsat import statevec as svec
from mdsat.phf import build_layers


class TestCyclesRequired:
    def test_commuting_needs_one_cycle(self):
        assert sv.cycles_required(np.pi / 2, 8, 0.01, 0.0) == 1

    def test_worked_example(self):
        # ceil((ln 100 + 8 ln(1/cos(pi/8))) / ln 2) = 8
        assert sv.cycles_required(np.pi / 4, 8, 0.01, 0.5) == 8

    def test_monotone_in_epsilon(self):
        values = [sv.cycles_required(0.3 * np.pi, 6, e, 0.7) for e in (0.2, 0.1, 0.01, 0.001)]
        assert values == sorted(values)

    def test_domain(self):
        with pytest.raises(ValueError):
            sv.cycles_required(0.3, 4, 0.1, 1.0)
        with pytest.raises(ValueError):
            sv.cycles_required(0.3, 4, 1.5, 0.5)


class TestSchedule:
    def test_endpoints(self):
        s = sv.Schedule(theta_init=0.47 * np.pi / 2, c_q=10)
        assert sv.schedule_angle(s, 0) == pytest.approx(0.47 * np.pi / 2, abs=1e-15)
        assert sv.schedule_angle(s, 10) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_midpoint(self):
        t0 = 0.47 * np.pi / 2
        s = sv.Schedule(theta_init=t0, c_q=8)
        expected = t0 + (np.pi / 2 - t0) / 8
        assert sv.schedule_angle(s, 4) == pytest.approx(expected, abs=1e-15)

    def test_range_checked(self):
        s = sv.Schedule(theta_init=0.4, c_q=5)
        with pytest.raises(ValueError):
            sv.schedule_angle(s, 6)


class TestResolveMu:
    def test_dl_bound_upper_bounds_convergence_rate(self):
        # mu <= 1 - gap / (4 g^2) (detectability lemma); g = 0 gives 0
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            f = fm.random_satisfiable(rng, n, int(rng.integers(1, 4 * n)), min(3, n))
            for theta in (0.2 * np.pi, 0.3 * np.pi, 0.4 * np.pi, 0.45 * np.pi):
                cfg = sv.PrepConfig(theta=theta, mu_source="dl_bound")
                assert sv.resolve_mu(f, cfg) >= sp.convergence_rate(f, theta) - 1e-12


class TestPrepareState:
    def test_pi_half_success_probability_exact(self, small_instances):
        for f in small_instances[:6]:
            prep = sv.Preparer(
                sv.PrepConfig(theta=np.pi / 2, mode="deterministic"),
                np.random.default_rng(0),
            )
            res = prep.prepare(f, 0.01)
            assert res.r_star == 1
            expected = fm.count_solutions(f) / 2**f.n
            assert abs(res.success_probability - expected) < 1e-12

    def test_unate_one_cycle_full_fidelity(self):
        f = fm.generate("unate", 6, 10, 3, seed=6)
        theta = 0.3 * np.pi
        prep = sv.Preparer(
            sv.PrepConfig(theta=theta, mode="deterministic"), np.random.default_rng(0)
        )
        res = prep.prepare(f, 0.01)
        assert res.r_star == 1
        p_gs = enc.ground_space_projector(f, theta)
        assert np.linalg.norm(p_gs @ res.state) > 1 - 1e-10

    def test_success_floor(self, small_instances):
        theta = 0.35 * np.pi
        for f in small_instances[:4]:
            prep = sv.Preparer(
                sv.PrepConfig(theta=theta, mode="deterministic"), np.random.default_rng(0)
            )
            res = prep.prepare(f, 0.01)
            assert res.success_probability >= sv.success_probability_floor(theta, f.n)

    def test_cycle_bound_guarantee(self, small_instances):
        for f in small_instances[:4]:
            theta = 0.4 * np.pi
            mu = sp.convergence_rate(f, theta)
            for eps in (0.1, 0.01):
                cfg = sv.PrepConfig(theta=theta, mode="deterministic")
                res = sv.Preparer(cfg, np.random.default_rng(0)).prepare(f, eps)
                p_gs = enc.ground_space_projector(f, theta)
                assert np.linalg.norm(p_gs @ res.state) >= 1 - eps
                assert res.r_star == sv.cycles_required(theta, f.n, eps, mu)

    def test_trace_distance_within_sqrt_two_epsilon(self, small_instances):
        # fidelity >= 1 - eps puts the prepared state within sqrt(2 eps) trace
        # distance of its best ground-space approximation
        theta = 0.4 * np.pi
        for f in small_instances[:4]:
            for eps in (0.1, 0.01):
                cfg = sv.PrepConfig(theta=theta, mode="deterministic")
                res = sv.Preparer(cfg, np.random.default_rng(0)).prepare(f, eps)
                p_gs = enc.ground_space_projector(f, theta)
                fid = np.linalg.norm(p_gs @ res.state)
                trace_dist = math.sqrt(max(0.0, 1.0 - fid**2))
                assert trace_dist <= math.sqrt(2 * eps) + 1e-12

    def test_monte_carlo_counts_are_deterministic_per_seed(self):
        f = fm.random_satisfiable(np.random.default_rng(1), 5, 10, 3)
        cfg = sv.PrepConfig(theta=0.4 * np.pi, mode="monte_carlo")
        a = sv.Preparer(cfg, np.random.default_rng(42)).prepare(f, 0.01)
        b = sv.Preparer(cfg, np.random.default_rng(42)).prepare(f, 0.01)
        assert (a.restarts, a.measurements) == (b.restarts, b.measurements)

    def test_monte_carlo_matches_naive_simulation(self):
        """The naive check-by-check simulation succeeds with the trajectory's
        success probability, and its first-failure positions and restart
        counts follow the law the multinomial sampler draws from."""
        rng = np.random.default_rng(2024)
        f = fm.random_satisfiable(rng, 4, 6, 3)
        theta, eps = 0.45 * np.pi, 0.25
        mu = sp.convergence_rate(f, theta)
        r_star = sv.cycles_required(theta, f.n, eps, mu)
        projs = enc.clause_projectors(f, theta)
        cfg = sv.PrepConfig(theta=theta, mode="deterministic")
        traj = sv.Preparer(cfg, rng).trajectory(f, eps)[0]
        assert traj.cycles == r_star
        p_exact = traj.success_probability

        # The exact first-failure law, walked check by check in the oracle.
        psi, reach, law = svec.plus_state(f.n), 1.0, []
        for pos in range(traj.length):
            p_fail, p_pass = oracle.clause_check_probabilities(psi, projs[pos % f.m])
            law.append(reach * p_fail)
            reach *= p_pass
            psi = oracle.apply_pass(psi, projs[pos % f.m])
        assert abs(reach - p_exact) <= 1e-12
        assert np.abs(traj.failure_pmf - np.array(law) / sum(law)).max() <= 1e-12

        attempts = 10_000
        successes = 0
        naive_fails = np.zeros(traj.length, dtype=np.int64)
        sim_rng = np.random.default_rng(77)
        for _ in range(attempts):
            psi = svec.plus_state(f.n)
            for pos in range(traj.length):
                outcome = oracle.check_clause(psi, projs[pos % f.m], sim_rng)
                if not outcome.passed:
                    naive_fails[pos] += 1
                    break
                psi = outcome.post_state
            else:
                successes += 1
        sigma = math.sqrt(p_exact * (1 - p_exact) / attempts)
        assert abs(successes / attempts - p_exact) <= 4 * sigma

        # The sampler's trace positions, over enough preparations for more
        # than 10^4 failed attempts.
        preparations = 20_000
        sample_rng, trace_rng = np.random.default_rng(78), np.random.default_rng(79)
        sampled_fails = np.zeros(traj.length, dtype=np.int64)
        restarts = np.zeros(preparations)
        for i in range(preparations):
            r, cost, positions = sv._sample_restart_costs(
                traj, sample_rng, 10**6, sv.MeasurementCounter(), trace_rng
            )
            positions = np.asarray(positions, dtype=np.int64)
            assert positions.size == r and cost == int(np.sum(positions + 1))
            np.add.at(sampled_fails, positions, 1)
            restarts[i] = r
        assert sampled_fails.sum() > 10**4
        mean = (1 - p_exact) / p_exact
        assert abs(restarts.mean() - mean) <= 4 * math.sqrt(mean / p_exact / preparations)

        # Two-sample chi-square on the first-failure histograms; positions
        # with fewer than 20 failures in all are pooled into one bin.
        table = np.vstack([naive_fails, sampled_fails])
        dense = table.sum(axis=0) >= 20
        table = np.column_stack([table[:, dense], table[:, ~dense].sum(axis=1)])
        table = table[:, table.sum(axis=0) > 0]
        assert chi2_contingency(table).pvalue > 1e-3

    def test_layered_and_sequential_agree_in_layer_order(self, small_instances):
        from mdsat.phf import build_layers, layered_order

        theta = 0.3 * np.pi
        for f in small_instances[:4]:
            order = layered_order(build_layers(f, theta))
            lay = sv.allpass_trajectory(
                f, sv.PrepConfig(theta=theta, plan="layered", mode="deterministic"), 3
            )
            seq_state = svec.plus_state(f.n)
            projs = enc.clause_projectors(f, theta)
            cum = 1.0
            for _ in range(3):
                for ci in order:
                    out = svec.apply_check_unnormalized(seq_state, projs[ci])
                    p = out @ out
                    cum *= p
                    seq_state = out / np.sqrt(p)
            assert np.abs(lay.final_state - seq_state).max() < 1e-10
            assert abs(lay.success_probability - cum) < 1e-10

    def test_prepare_state_wrapper_and_trace(self, tmp_path):
        f = fm.random_satisfiable(np.random.default_rng(1), 4, 7, 3)
        cfg = sv.PrepConfig(theta=0.4 * np.pi, mode="monte_carlo")
        path = tmp_path / "trace.csv"
        with open(path, "w", newline="") as fh:
            tracer = sv.TraceWriter(fh)
            res = sv.Preparer(cfg, np.random.default_rng(6), trace=tracer).prepare(f, 0.01)
        lines = path.read_text().splitlines()
        assert lines[0] == "preparation,attempt,cycle,check,outcome,probability"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == res.measurements
        assert sum(1 for r in rows if r[4] == "fail") == res.restarts
        # the successful attempt passes every check of every cycle
        final = [r for r in rows if int(r[1]) == res.restarts]
        assert len(final) == res.r_star * f.m
        assert all(r[4] == "pass" for r in final)
        # ordering the traced failures draws nothing from the run's generator
        untraced = sv.Preparer(cfg, np.random.default_rng(6)).prepare(f, 0.01)
        assert (untraced.restarts, untraced.measurements) == (
            res.restarts, res.measurements
        )

    def test_restarts_exhausted_on_unsat(self):
        f = fm.formula_from_dimacs_codes(1, [[1], [-1]])
        cfg = sv.PrepConfig(
            theta=np.pi / 2, mode="monte_carlo", max_restarts=50,
            mu_source="user", mu=0.0,
        )
        with pytest.raises(sv.RestartsExhausted):
            sv.Preparer(cfg, np.random.default_rng(0)).prepare(f, 0.01)

    def test_unobservable_success_fails_fast(self):
        # p_s = 0: the allowance of 10^12 restarts is drawn and charged at once
        f = fm.formula_from_dimacs_codes(1, [[1], [-1]])
        cfg = sv.PrepConfig(
            theta=np.pi / 2, mode="monte_carlo", max_restarts=10**12,
            mu_source="user", mu=0.0,
        )
        start = time.perf_counter()
        with pytest.raises(sv.RestartsExhausted):
            sv.Preparer(cfg, np.random.default_rng(0)).prepare(f, 0.01)
        assert time.perf_counter() - start < 1.0
        counter = sv.MeasurementCounter(10**6)
        with pytest.raises(sv.BudgetExhausted):
            sv.Preparer(cfg, np.random.default_rng(0), counter).prepare(f, 0.01)
        assert counter.used == 10**6


def _angles(cfg, cycles):
    if cfg.is_scheduled:
        return [sv.schedule_angle(cfg.theta, c) for c in range(cycles)]
    return [cfg.theta] * cycles


def _steps(f, plan):
    if plan == "layered":
        return [list(layer.members) for layer in build_layers(f)]
    return [[i] for i in range(f.m)]


def _kron_trajectory(f, cfg, cycles):
    """(pass probabilities, final state) of the all-pass evolution from dense
    checks I - P, with P the Kronecker-chain projectors of the oracle."""
    psi, probs = svec.plus_state(f.n), []
    for angle in _angles(cfg, cycles):
        eye = np.eye(1 << f.n)
        checks = [eye - oracle.kron_projector(p) for p in enc.clause_projectors(f, angle)]
        for step in _steps(f, cfg.plan):
            out = psi
            for ci in step:
                out = checks[ci] @ out
            probs.append(out @ out)
            psi = out / np.sqrt(probs[-1])
    return np.array(probs), psi


def _computational_trajectory(f, cfg, cycles):
    """The same evolution through the check kernel on computational-basis
    projectors, with the trajectory's own arithmetic."""
    psi, probs = svec.plus_state(f.n), []
    for angle in _angles(cfg, cycles):
        projs = enc.clause_projectors(f, angle)
        for step in _steps(f, cfg.plan):
            out = psi
            for ci in step:
                out = svec.apply_check_unnormalized(out, projs[ci])
            p = float(np.dot(out, out))
            probs.append(min(p, 1.0))
            psi = np.divide(out, math.sqrt(p), out=out)
    return np.array(probs), psi


@st.composite
def _trajectory_case(draw):
    """(formula, config, cycles): a random satisfiable formula on n <= 9, an
    angle in (0.05 pi, 0.5 pi) or exactly pi/2, either plan, and either that
    fixed angle or a cubic schedule starting from it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 9))
    f = fm.random_satisfiable(rng, n, draw(st.integers(1, 3 * n)), min(3, n))
    theta = draw(
        st.one_of(
            st.just(np.pi / 2),
            st.floats(0.05 * np.pi, 0.5 * np.pi, exclude_min=True, exclude_max=True),
        )
    )
    plan = draw(st.sampled_from(["sequential", "layered"]))
    cycles = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return f, sv.PrepConfig(theta=sv.Schedule(c_q=cycles, theta_init=theta), plan=plan), cycles + 1
    return f, sv.PrepConfig(theta=theta, plan=plan), cycles


class TestTrajectoryMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(_trajectory_case())
    def test_sparse_frame_trajectory(self, case):
        f, cfg, cycles = case
        traj = sv.allpass_trajectory(f, cfg, cycles)
        probs, final = _kron_trajectory(f, cfg, cycles)
        assert np.abs(traj.step_pass_probs - probs).max() <= 1e-12
        assert np.abs(traj.final_state - final).max() <= 1e-12
        if all(angle == np.pi / 2 for angle in _angles(cfg, cycles)):
            probs, final = _computational_trajectory(f, cfg, cycles)
            assert np.array_equal(traj.step_pass_probs, probs)
            assert np.array_equal(traj.final_state, final)


class TestTrajectoryNumerics:
    f = fm.formula_from_dimacs_codes(3, [[1, 2], [-2, 3], [1, -3]])
    cfg = sv.PrepConfig(theta=0.4 * np.pi)

    @pytest.mark.filterwarnings("ignore:overflow encountered in dot")
    @pytest.mark.parametrize("scale", [1e-160, 1e300, np.nan])
    def test_unusable_pass_probability_raises(self, monkeypatch, scale):
        # 1e-160 leaves a pass probability near 1e-320: positive but
        # subnormal, too small to renormalize by; 1e300 overflows it
        check = sv.apply_check_unnormalized
        monkeypatch.setattr(sv, "apply_check_unnormalized", lambda psi, p: check(psi, p) * scale)
        with pytest.raises(FloatingPointError, match="pass probability"):
            sv.allpass_trajectory(self.f, self.cfg, 2)

    def test_final_norm_drift_raises(self, monkeypatch):
        rotate = sv.rotate_qubits_inplace

        def drifting_rotate(psi, gates):
            rotate(psi, gates)
            psi *= 1.0 + 1e-9

        monkeypatch.setattr(sv, "rotate_qubits_inplace", drifting_rotate)
        with pytest.raises(FloatingPointError, match="norm"):
            sv.allpass_trajectory(self.f, self.cfg, 2)


class TestReadoutUnique:
    def test_parameter_formulas(self):
        eps, copies = sv.unique_readout_parameters(np.pi / 2, 4, 0.1)
        assert copies == 11  # ceil(2 ln 40 / ln 2)
        assert abs(eps - (1 - 1 / math.sqrt(2)) ** 2 / 8) < 1e-12
        eps2, _ = sv.unique_readout_parameters(0.3 * np.pi, 4, 0.1)
        assert abs(eps2 - (1 - 1 / math.sqrt(2)) ** 2 / 8 * math.sin(0.3 * np.pi) ** 2) < 1e-12

    def test_recovers_planted_solution(self):
        f = fm.generate("planted_unique", 7, 28, 3, seed=10)
        planted = next(iter(fm.brute_force_solutions(f)))
        theta = 0.4 * np.pi
        hits = 0
        for trial in range(20):
            rng = np.random.default_rng([trial, 5])
            prep = sv.Preparer(sv.PrepConfig(theta=theta, mode="deterministic"), rng)
            try:
                a = sv.readout_unique(f, theta, 0.1, rng, preparer=prep)
            except sv.ReadoutFailed:
                continue
            assert a == planted
            hits += 1
        assert hits >= 18  # failure rate must stay near delta


class _HighUniforms:
    """A generator whose uniform draws all return 0.999999."""

    def __init__(self, rng):
        self._rng = rng

    def random(self, *args, **kwargs):
        return 0.999999

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _assert_every_readout_fails(monkeypatch, f, theta, **solve_args):
    """solve() with every uniform draw at 0.999999 fails all 64 readouts on a
    fix that leaves no solution."""
    make_rng = np.random.default_rng
    monkeypatch.setattr(
        sv.np.random, "default_rng", lambda seed: _HighUniforms(make_rng(seed))
    )
    report = sv.solve(f, theta, seed=0, **solve_args)
    assert report.status == "UNSAT" and report.readout_attempts == 64
    assert len(report.notes) == 64
    assert all("no satisfying assignment" in note for note in report.notes)


class TestReadoutMultiple:
    def test_parameter_formulas(self):
        eps, shots = sv.multiple_readout_parameters(np.pi / 2, 4, 0.1)
        assert shots == 36  # ceil(8 ln 80)
        assert abs(eps - 1 / 8) < 1e-12

    def test_unique_instance_agrees_with_majority_readout(self):
        f = fm.generate("planted_unique", 6, 20, 3, seed=12)
        planted = next(iter(fm.brute_force_solutions(f)))
        theta = 0.45 * np.pi
        rng = np.random.default_rng(3)
        prep = sv.Preparer(sv.PrepConfig(theta=theta, mode="deterministic"), rng)
        a = sv.readout_multiple(f, theta, 0.1, rng, preparer=prep)
        assert a == planted

    def test_multi_solution_membership(self):
        f = fm.formula_from_dimacs_codes(2, [[1, 2]])
        theta = 0.4 * np.pi
        seen = set()
        for trial in range(12):
            rng = np.random.default_rng(trial)
            prep = sv.Preparer(sv.PrepConfig(theta=theta, mode="deterministic"), rng)
            a = sv.readout_multiple(f, theta, 0.1, rng, preparer=prep)
            assert a in {"01", "10", "11"}
            seen.add(a)
        assert seen  # at least one solution produced

    def test_fix_leaving_no_solution_is_a_failed_readout(self, monkeypatch):
        # Every shot reads -1, so variable 1 is fixed FALSE.  The planted
        # solution starts with 1, and fixing it wrong empties no clause but
        # leaves no solution, which the readout detects itself.
        f = fm.generate("planted_unique", 6, 26, 3, seed=0)
        assert next(iter(fm.brute_force_solutions(f)))[0] == "1"
        theta = 0.4 * np.pi
        rng = _HighUniforms(np.random.default_rng(0))
        prep = sv.Preparer(sv.PrepConfig(theta=theta, mode="deterministic"), rng)
        with pytest.raises(sv.ReadoutFailed, match="no satisfying assignment"):
            sv.readout_multiple(f, theta, 0.1, rng, preparer=prep)
        _assert_every_readout_fails(monkeypatch, f, theta)

    def test_fix_leaving_no_solution_fails_under_user_mu(self, monkeypatch):
        # a user mu enumerates no solutions, so only the readout can tell
        f = fm.generate("planted_unique", 6, 26, 3, seed=0)
        _assert_every_readout_fails(monkeypatch, f, 0.4 * np.pi, mu_source="user", mu=0.6)

    def test_zero_occurrence_variable_fixed_false(self):
        f = fm.formula_from_dimacs_codes(3, [[2, 3]])  # variable 1 unused
        rng = np.random.default_rng(0)
        prep = sv.Preparer(sv.PrepConfig(theta=0.4 * np.pi, mode="deterministic"), rng)
        a = sv.readout_multiple(f, 0.4 * np.pi, 0.1, rng, preparer=prep)
        assert a[0] == "0" and fm.evaluate(f, a)


class TestSolve:
    def test_satisfiable_random(self):
        f = fm.random_satisfiable(np.random.default_rng(31), 8, 24, 3)
        report = sv.solve(f, 0.45 * np.pi, delta=0.1, seed=11)
        assert report.status == "SAT" and report.verified
        assert fm.evaluate(f, report.assignment)
        assert report.measurements > 0

    def test_unsatisfiable_budget_verdict(self):
        f = fm.formula_from_dimacs_codes(1, [[1], [-1]])
        report = sv.solve(f, np.pi / 2, seed=0)
        assert report.status == "UNSAT" and report.assignment is None

    def test_seed_determinism(self):
        f = fm.random_satisfiable(np.random.default_rng(8), 6, 14, 3)
        r1 = sv.solve(f, 0.4 * np.pi, seed=123)
        r2 = sv.solve(f, 0.4 * np.pi, seed=123)
        assert r1.to_json(include_timing=False) == r2.to_json(include_timing=False)

    def test_unique_readout_mode(self):
        f = fm.generate("planted_unique", 6, 20, 3, seed=14)
        planted = next(iter(fm.brute_force_solutions(f)))
        report = sv.solve(f, 0.4 * np.pi, readout="unique", seed=2)
        assert report.status == "SAT" and report.assignment == planted

    def test_schedule_mode(self):
        f = fm.random_satisfiable(np.random.default_rng(40), 5, 10, 3)
        schedule = sv.Schedule(theta_init=0.47 * np.pi / 2, c_q=12)
        report = sv.solve(f, schedule, seed=9)
        assert report.status == "SAT"
        assert report.schedule == {"kind": "cubic", "theta_init": 0.47 * np.pi / 2, "c_q": 12}

    def test_dl_bound_mu_source(self):
        f = fm.generate("planted_unique", 4, 10, 2, seed=0)
        theta = 0.45 * np.pi
        mu = sv.resolve_mu(f, sv.PrepConfig(theta=theta, mu_source="dl_bound"))
        assert mu >= sp.convergence_rate(f, theta)
        for readout, params in (
            ("unique", sv.unique_readout_parameters),
            ("multiple", sv.multiple_readout_parameters),
        ):
            report = sv.solve(f, theta, readout=readout, mu_source="dl_bound", seed=1)
            assert report.status == "SAT" and fm.evaluate(f, report.assignment)
            assert report.mu_source == "dl_bound" and report.mu == mu
            eps = params(theta, f.n, 0.1)[0]
            assert report.cycles_per_attempt == sv.cycles_required(theta, f.n, eps, mu)

    def test_budget_spent_on_a_readout_shot_counts_its_preparation(self):
        # At pi/2 a deterministic preparation is one cycle of f.m checks; the
        # budget lets the first preparation complete, and its readout shot of
        # f.n measurements exhausts it.
        f = fm.generate("planted_unique", 6, 20, 3, seed=14)
        report = sv.solve(
            f, np.pi / 2, readout="unique", mode="deterministic", budget=f.m + 1, seed=0
        )
        assert report.status == "UNSAT" and report.measurements == f.m + 1
        assert report.preparations == 1 and report.restarts == 0
        assert report.cycles_per_attempt == 1

    def test_layered_plan(self):
        f = fm.random_satisfiable(np.random.default_rng(50), 6, 12, 3)
        report = sv.solve(f, 0.4 * np.pi, plan="layered", seed=4)
        assert report.status == "SAT" and fm.evaluate(f, report.assignment)

    def test_layers_built_once_per_trajectory(self, monkeypatch):
        # the grouping is structural, so a schedule whose every cycle has
        # its own angle still plans the layered steps once
        calls = []
        build_layers = sv.build_layers

        def counting_build_layers(*args):
            calls.append(args)
            return build_layers(*args)

        monkeypatch.setattr(sv, "build_layers", counting_build_layers)
        f = fm.generate("planted_unique", 6, 20, 3, seed=14)
        report = sv.solve(f, sv.Schedule(c_q=8), plan="layered", readout="unique", seed=0)
        assert report.status == "SAT"
        assert len(calls) == 1


class TestTheoryBounds:
    def test_unrotated_expression(self):
        tb = sv.theory_bounds(np.pi / 2, 8, 30, 0.1, q=1, mu=0.0, d_sol=1)
        assert tb.unrotated_cost == pytest.approx(30 * math.log(10) * 2**8)
        tb4 = sv.theory_bounds(np.pi / 2, 8, 30, 0.1, q=1, mu=0.0, d_sol=4)
        assert tb4.unrotated_cost == pytest.approx(tb.unrotated_cost / 4)

    def test_amplitude_amplification_halves_exponent(self):
        theta = 0.3 * np.pi
        t1 = sv.theory_bounds(theta, 10, 30, 0.1, q=1, mu=0.5)
        t2 = sv.theory_bounds(theta, 10, 30, 0.1, q=2, mu=0.5)
        factor = (2 / (1 + math.cos(theta))) ** (10 / 2)
        assert t1.prep_cost / t2.prep_cost == pytest.approx(factor)

    def test_unate_schedule_polynomial(self):
        # cos(theta) = 1 - 2/n keeps the amplification factor bounded by e,
        # so the bound grows polynomially (close to n ln^2 n).
        costs = []
        for n in (8, 16, 32, 64):
            theta = math.acos(1 - 2 / n)
            tb = sv.theory_bounds(theta, n, n, 0.1, q=1, mu=0.0, readout="multiple")
            costs.append(tb.total_cost)
        for a, b, n in zip(costs, costs[1:], (8, 16, 32)):
            poly_ref = (2 * n / n) ** 3 * (math.log(2 * n) / math.log(n)) ** 2
            assert b / a < 8 * poly_ref  # far below any exponential doubling

    def test_gap_route(self):
        tb = sv.theory_bounds(0.4 * np.pi, 6, 12, 0.1, uniform_gap=0.2, g=3)
        assert tb.ln_inv_mu == pytest.approx(0.2 / 36)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sv.theory_bounds(0.4, 6, 10, 0.1, q=3, mu=0.5)
        with pytest.raises(ValueError):
            sv.theory_bounds(0.4, 6, 10, 0.1)  # neither mu nor gap
        with pytest.raises(ValueError):
            sv.theory_bounds(0.4, 6, 10, 0.1, uniform_gap=0.1)  # missing g
