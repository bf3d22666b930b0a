import csv
import io
import itertools
import math
import time
import tracemalloc

import numpy as np
import oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from mdsat import encoding as enc
from mdsat import formula as fm
from mdsat import solver as sv
from mdsat import spectral as sp
from mdsat import statevec as svec
from mdsat.config import CapExceeded
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


class TestPrepConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu": 0.5},
            {"mu_source": "dl_bound", "mu": 0.5},
            {"mu_source": "user"},
            {"mu_source": "user", "mu": 1.0},
            {"mu_source": "user", "mu": -0.1},
        ],
        ids=["empirical-with-mu", "dl-bound-with-mu", "user-without-mu", "user-mu-1", "user-mu-neg"],
    )
    def test_mu_given_exactly_with_user_source(self, kwargs):
        # a mu the run would not use must not set the default budget either
        with pytest.raises(ValueError, match="mu"):
            sv.PrepConfig(theta=0.4 * np.pi, **kwargs)
        with pytest.raises(ValueError, match="mu"):
            sv.solve(fm.formula_from_dimacs_codes(2, [[1, 2]]), 0.4 * np.pi, **kwargs)


class TestResolveMu:
    def test_dl_bound_upper_bounds_convergence_rate(self):
        # mu <= 1 - gap / (4 g^2) (detectability lemma); g = 0 gives 0
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            f = oracle.random_satisfiable(rng, n, int(rng.integers(1, 4 * n)), min(3, n))
            for theta in (0.2 * np.pi, 0.3 * np.pi, 0.4 * np.pi, 0.45 * np.pi):
                cfg = sv.PrepConfig(theta=theta, mu_source="dl_bound")
                assert sv.resolve_mu(f, cfg) >= sp.convergence_rate(f, theta) - 1e-12

    @pytest.mark.parametrize("plan", ["sequential", "layered"])
    def test_mu_multiplies_the_trajectory_steps(self, plan, monkeypatch):
        # the cycle bound needs the contraction of the cycle the trajectory
        # applies: its steps, flattened, are mu's check order
        f = fm.generate("planted_unique", 6, 26, 3, 1)
        orders = []
        convergence_rate = sp.convergence_rate

        def recording_convergence_rate(f, theta, order=None):
            orders.append(order)
            return convergence_rate(f, theta, order=order)

        monkeypatch.setattr(sp, "convergence_rate", recording_convergence_rate)
        sv.resolve_mu(f, sv.PrepConfig(theta=0.4 * np.pi, plan=plan))
        steps = sv._plan_steps(f, plan)
        assert orders == [[ci for step in steps for ci in step]]
        assert (len(steps) < f.m) == (plan == "layered")


class TestPrepareState:
    def test_pi_half_success_probability_exact(self, small_instances):
        for f in small_instances[:6]:
            prep = sv.Preparer(sv.PrepConfig(theta=np.pi / 2), np.random.default_rng(0))
            traj = prep.trajectory(f, 0.01)
            assert traj.cycles == 1
            expected = f.solutions.size / 2**f.n
            assert abs(traj.success_probability - expected) < 1e-12

    def test_unate_one_cycle_full_fidelity(self):
        f = fm.generate("unate", 6, 10, 3, seed=6)
        theta = 0.3 * np.pi
        prep = sv.Preparer(sv.PrepConfig(theta=theta), np.random.default_rng(0))
        traj = prep.trajectory(f, 0.01)
        assert traj.cycles == 1
        p_gs = enc.ground_space_projector(f, theta)
        assert np.linalg.norm(p_gs @ traj.final_state) > 1 - 1e-10

    def test_success_floor(self, small_instances):
        theta = 0.35 * np.pi
        for f in small_instances[:4]:
            prep = sv.Preparer(sv.PrepConfig(theta=theta), np.random.default_rng(0))
            traj = prep.trajectory(f, 0.01)
            assert traj.success_probability >= sv.success_probability_floor(theta, f.n)

    def test_cycle_bound_guarantee(self, small_instances):
        for f in small_instances[:4]:
            theta = 0.4 * np.pi
            mu = sp.convergence_rate(f, theta)
            for eps in (0.1, 0.01):
                cfg = sv.PrepConfig(theta=theta)
                traj = sv.Preparer(cfg, np.random.default_rng(0)).trajectory(f, eps)
                p_gs = enc.ground_space_projector(f, theta)
                assert np.linalg.norm(p_gs @ traj.final_state) >= 1 - eps
                assert traj.cycles == sv.cycles_required(theta, f.n, eps, mu)

    def test_trace_distance_within_sqrt_two_epsilon(self, small_instances):
        # fidelity >= 1 - eps puts the prepared state within sqrt(2 eps) trace
        # distance of its best ground-space approximation
        theta = 0.4 * np.pi
        for f in small_instances[:4]:
            for eps in (0.1, 0.01):
                cfg = sv.PrepConfig(theta=theta)
                traj = sv.Preparer(cfg, np.random.default_rng(0)).trajectory(f, eps)
                p_gs = enc.ground_space_projector(f, theta)
                fid = np.linalg.norm(p_gs @ traj.final_state)
                trace_dist = math.sqrt(max(0.0, 1.0 - fid**2))
                assert trace_dist <= math.sqrt(2 * eps) + 1e-12

    def test_monte_carlo_counts_are_deterministic_per_seed(self):
        f = oracle.random_satisfiable(np.random.default_rng(1), 5, 10, 3)
        cfg = sv.PrepConfig(theta=0.4 * np.pi)
        a = sv.Preparer(cfg, np.random.default_rng(42))
        b = sv.Preparer(cfg, np.random.default_rng(42))
        for prep in (a, b):
            prep.prepare(prep.trajectory(f, 0.01))
        assert (a.restarts, a.used) == (b.restarts, b.used)

    def test_monte_carlo_matches_naive_simulation(self):
        """The naive check-by-check simulation succeeds with the trajectory's
        success probability, and its first-failure positions and restart
        counts follow the law the multinomial sampler draws from."""
        rng = np.random.default_rng(2024)
        f = oracle.random_satisfiable(rng, 4, 6, 3)
        theta, eps = 0.45 * np.pi, 0.25
        mu = sp.convergence_rate(f, theta)
        r_star = sv.cycles_required(theta, f.n, eps, mu)
        projs = enc.clause_projectors(f, theta)
        cfg = sv.PrepConfig(theta=theta)
        traj = sv.Preparer(cfg, rng).trajectory(f, eps)
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

        # The sampler's failure counts, over enough preparations for more
        # than 10^4 failed attempts.
        preparations = 20_000
        sample_rng = np.random.default_rng(78)
        sampled_fails = np.zeros(traj.length, dtype=np.int64)
        restarts = np.zeros(preparations)
        for i in range(preparations):
            r, counts, cost = sv._sample_restart_costs(traj, sample_rng, None)
            assert counts.sum() == r and cost == int(counts @ np.arange(1, traj.length + 1))
            sampled_fails += counts
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
                f, sv.PrepConfig(theta=theta, plan="layered"), 3
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
        f = oracle.random_satisfiable(np.random.default_rng(1), 4, 7, 3)
        cfg = sv.PrepConfig(theta=0.4 * np.pi)
        path = tmp_path / "trace.csv"
        with open(path, "w", newline="") as fh:
            traced = sv.Preparer(cfg, np.random.default_rng(6), trace=sv.TraceWriter(fh))
            traced.prepare(traced.trajectory(f, 0.01))
        lines = path.read_text().splitlines()
        assert lines[0] == "preparation,attempt,cycle,check,outcome,probability"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == traced.used
        assert sum(1 for r in rows if r[4] == "fail") == traced.restarts
        # the successful attempt passes every check of every cycle
        final = [r for r in rows if int(r[1]) == traced.restarts]
        assert len(final) == traced.trajectory(f, 0.01).cycles * f.m
        assert all(r[4] == "pass" for r in final)
        # ordering the traced failures draws nothing from the run's generator
        untraced = sv.Preparer(cfg, np.random.default_rng(6))
        untraced.prepare(untraced.trajectory(f, 0.01))
        assert (untraced.restarts, untraced.used) == (
            traced.restarts, traced.used
        )

    def test_budget_exhausted_on_unsat(self):
        f = fm.formula_from_dimacs_codes(1, [[1], [-1]])
        cfg = sv.PrepConfig(theta=np.pi / 2, mu_source="user", mu=0.0)
        preparer = sv.Preparer(cfg, np.random.default_rng(0), budget=50)
        with pytest.raises(sv.BudgetExhausted):
            preparer.prepare(preparer.trajectory(f, 0.01))
        assert (preparer.used, preparer.preparations) == (50, 0)

    def test_unobservable_success_fails_fast(self):
        # p_s = 0: a budget's worth of 10^12 failed attempts is drawn and
        # charged at once
        f = fm.formula_from_dimacs_codes(1, [[1], [-1]])
        cfg = sv.PrepConfig(theta=np.pi / 2, mu_source="user", mu=0.0)
        start = time.perf_counter()
        preparer = sv.Preparer(cfg, np.random.default_rng(0), budget=10**12)
        with pytest.raises(sv.BudgetExhausted):
            preparer.prepare(preparer.trajectory(f, 0.01))
        assert time.perf_counter() - start < 1.0
        assert (preparer.used, preparer.preparations) == (10**12, 0)
        # with no budget nothing bounds the attempts: it raises before any draw
        unbounded = sv.Preparer(cfg, np.random.default_rng(0))
        state = unbounded.rng.bit_generator.state
        with pytest.raises(sv.BudgetExhausted):
            unbounded.prepare(unbounded.trajectory(f, 0.01))
        assert unbounded.rng.bit_generator.state == state and unbounded.used == 0

    def test_preparation_cut_short_by_the_budget_is_not_traced(self):
        # the budget pays for the first preparation and ends the second: the
        # trace stops after the first, and tracing drew nothing from the
        # run's generator
        f = fm.generate("planted_unique", 6, 20, 3, seed=14)
        cfg = sv.PrepConfig(theta=np.pi / 2)
        first = sv.Preparer(cfg, np.random.default_rng(5))
        first.prepare(first.trajectory(f, 0.01))
        fh = io.StringIO()
        traced = sv.Preparer(cfg, np.random.default_rng(5), first.used + 1, sv.TraceWriter(fh))
        untraced = sv.Preparer(cfg, np.random.default_rng(5), first.used + 1)
        for preparer in (traced, untraced):
            preparer.prepare(preparer.trajectory(f, 0.01))
            with pytest.raises(sv.BudgetExhausted):
                preparer.prepare(preparer.trajectory(f, 0.01))
            assert (preparer.used, preparer.preparations) == (first.used + 1, 1)
        rows = list(csv.reader(io.StringIO(fh.getvalue())))[1:]
        assert len(rows) == first.used and {row[0] for row in rows} == {"0"}
        assert traced.rng.bit_generator.state == untraced.rng.bit_generator.state

    def test_trace_positions_refused_over_the_memory_budget(self, monkeypatch):
        # the failure positions of a traced preparation are checked before
        # they are drawn; the trajectory is built under the default budget
        f = fm.generate("planted_unique", 6, 20, 3, seed=14)
        cfg = sv.PrepConfig(theta=np.pi / 2)
        preparer = sv.Preparer(cfg, np.random.default_rng(0), trace=sv.TraceWriter(io.StringIO()))
        preparer.trajectory(f, 0.01)
        monkeypatch.setenv("MDSAT_MEM_BYTES", "64")
        with pytest.raises(CapExceeded, match="trace failure positions"):
            preparer.prepare(preparer.trajectory(f, 0.01))


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
    projectors, with the trajectory's own arithmetic: p is the ratio of the
    squared norms after and before a step, and the state is renormalized at
    the end of each cycle, or as soon as its squared norm falls below
    sqrt(tiny)."""
    psi, probs = svec.plus_state(f.n), []
    for angle in _angles(cfg, cycles):
        projs = enc.clause_projectors(f, angle)
        norm2 = 1.0
        for step in _steps(f, cfg.plan):
            for ci in step:
                psi = svec.apply_check_unnormalized(psi, projs[ci])
            after = float(np.dot(psi, psi))
            probs.append(min(after / norm2, 1.0))
            norm2 = after
            if norm2 < sv._SQRT_TINY:
                psi, norm2 = psi / math.sqrt(norm2), 1.0
        psi = psi / math.sqrt(norm2)
    return np.array(probs), psi


@st.composite
def _trajectory_case(draw):
    """(formula, config, cycles): a random satisfiable formula on n <= 9, an
    angle in (0.05 pi, 0.5 pi) or exactly pi/2, either plan, and either that
    fixed angle or a cubic schedule starting from it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 9))
    f = oracle.random_satisfiable(rng, n, draw(st.integers(1, 3 * n)), min(3, n))
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


def _survivor_reference(f, plan, cycles):
    """(pass probabilities, final state) of the all-pass evolution at
    theta = pi/2 from exact counts: p_j = |S_j|/|S_(j-1)|, correctly rounded
    from Python ints, with S_j the assignments that satisfy the clauses of
    the first j steps (by the oracle on that prefix; 0 once a count is 0),
    and the final state indicator(S)/sqrt(|S|), None when S is empty."""
    counts, done = [1 << f.n], set()
    for step in _steps(f, plan) * cycles:
        done.update(step)
        prefix = fm.Formula(n=f.n, clauses=tuple(f.clauses[i] for i in sorted(done)), k=f.k)
        sols = oracle.solution_indices_reference(prefix)
        counts.append(sols.size)
    probs = [after / before if before else 0.0 for before, after in zip(counts, counts[1:])]
    if counts[-1] == 0:
        return np.array(probs), None
    final = np.zeros(1 << f.n)
    final[sols if counts[1:] else np.arange(1 << f.n)] = 1.0 / math.sqrt(counts[-1])
    return np.array(probs), final


def _ulps(a, b):
    """Largest distance between two float arrays in units of the last place
    of the larger magnitude."""
    return float((np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))).max(initial=0.0))


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
            # A fixed pi/2 counts survivors and must equal the exact counts
            # bit for bit; a schedule runs the checks and must equal their
            # arithmetic.  Each route is within 4 ulp of the other reference.
            exact = _survivor_reference(f, cfg.plan, cycles)
            checks = _computational_trajectory(f, cfg, cycles)
            same, near = (checks, exact) if cfg.is_scheduled else (exact, checks)
            assert np.array_equal(traj.step_pass_probs, same[0])
            assert np.array_equal(traj.final_state, same[1])
            assert _ulps(traj.step_pass_probs, near[0]) <= 4
            assert _ulps(traj.final_state, near[1]) <= 4


@st.composite
def _unrotated_case(draw):
    """(formula, plan, cycles): random 3-SAT (fewer literals below n = 3) on
    n <= 10, satisfiable or drawn by random_ksat with up to 5n clauses, so
    often unsatisfiable, either plan and 1 to 4 cycles."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 5 * n))
    if draw(st.booleans()):
        f = oracle.random_satisfiable(rng, n, m, min(3, n))
    else:
        f = fm.generate("random_ksat", n, m, min(3, n), seed=int(rng.integers(2**32)))
    return f, draw(st.sampled_from(["sequential", "layered"])), draw(st.integers(1, 4))


class TestUnrotatedSurvivorTrajectory:
    """At a fixed theta = pi/2 the trajectory counts survivors: its pass
    probabilities are the exact count ratios, it dies where the checks die,
    and its final state reads out as the state the checks produce."""

    @settings(max_examples=80, deadline=None)
    @given(_unrotated_case())
    # 214 solutions of 512: the CDFs differ by 6.0e-15 while the states
    # differ by 1.4e-17
    @example(
        (
            fm.formula_from_dimacs_codes(
                9, [[2, -3, 5], [1, 6, 8], [-2, 4, 6], [-1, -2, 3], [2, 6, -7], [3, -4, -5], [-1, 3, -5]]
            ),
            "layered",
            1,
        )
    )
    def test_matches_counts_and_checks(self, case):
        f, plan, cycles = case
        traj = sv.allpass_trajectory(f, sv.PrepConfig(theta=np.pi / 2, plan=plan), cycles)
        probs, final = _survivor_reference(f, plan, cycles)
        assert np.array_equal(traj.step_pass_probs, probs)
        # the state-vector route runs for a schedule, here one fixed at pi/2
        schedule = sv.Schedule(c_q=4, theta_init=np.pi / 2)
        checked = sv.allpass_trajectory(f, sv.PrepConfig(theta=schedule, plan=plan), cycles)
        assert np.array_equal(traj.step_pass_probs == 0.0, checked.step_pass_probs == 0.0)
        d_sol = f.solutions.size
        expected = d_sol / 2**f.n
        assert abs(traj.success_probability - expected) <= 1e-14 * expected
        if d_sol == 0:
            assert traj.final_state is None and checked.final_state is None
            return
        _, state = _computational_trajectory(f, sv.PrepConfig(theta=np.pi / 2, plan=plan), cycles)
        delta = np.abs(traj.final_state - state).max()
        assert delta <= 1e-15
        # Both states have the same d = d_sol nonzero amplitudes (checks at
        # pi/2 zero the others exactly), and zeros add exactly.  With u the
        # unit roundoff, basis_cdf's c_i = fl(S_i / S_d), S_i the in-order
        # partial sums of fl(fl(psi_j^2) / total): each term carries 2u (the
        # total is a common factor that S_i / S_d cancels), so S_i / S_d
        # carries 4u; each partial sum carries (d - 1)u, numerator and
        # denominator; the division u.  To first order each CDF is within
        # (2d + 3)u of its own state's exact CDF, so the two are within
        # 2(2d + 3)u of each other's.  The exact CDFs of two unit states
        # differ by at most 4 sqrt(d) delta: a partial sum of squares moves
        # by at most 2 sqrt(d) delta (Cauchy-Schwarz), numerator and total
        # alike.
        u = np.finfo(float).eps / 2
        cdf_bound = 2 * (2 * d_sol + 3) * u + 4 * math.sqrt(d_sol) * delta
        assert np.abs(svec.basis_cdf(traj.final_state) - svec.basis_cdf(state)).max() <= cdf_bound
        for q in range(1, f.n + 1):
            assert abs(svec.prob_one(traj.final_state, q) - svec.prob_one(state, q)) <= 1e-15

    N = 16

    @pytest.mark.parametrize(
        "f",
        [
            fm.Formula(n=N, clauses=(), k=3),
            fm.generate("planted_unique", N, 69, 3, seed=1),
            fm.generate("random_ksat", N, 120, 3, seed=1),
        ],
        ids=["no-clauses", "planted_unique-16-69", "random_ksat-16-120"],
    )
    @pytest.mark.parametrize("plan", ["sequential", "layered"])
    def test_peak_within_reserved_bytes(self, f, plan, monkeypatch):
        # the counting arrays, then the state beside the survivors, stay
        # within what the route reserves, beside the 8 of the 32 bytes per
        # measurement that the pass probabilities hold; 64 KiB covers
        # Python objects
        reserved = []
        monkeypatch.setattr(sv, "check_alloc", lambda nbytes, what: reserved.append(nbytes))
        cfg = sv.PrepConfig(theta=np.pi / 2, plan=plan)
        tracemalloc.start()
        try:
            traj = sv.allpass_trajectory(f, cfg, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state = (12 << self.N) + (64 << 10)
        assert reserved == [state + 32 * traj.length]
        assert peak <= state + 8 * traj.length + (64 << 10)


def _longdouble_trajectory(f, cfg, cycles):
    """(pass probabilities, final state) of the all-pass evolution from the
    oracle's Kronecker-chain checks I - P, in np.longdouble, renormalized
    after every step."""
    ld = np.longdouble
    psi, probs = np.full(1 << f.n, 1 / np.sqrt(ld(1 << f.n))), []
    for angle in _angles(cfg, cycles):
        projs = enc.clause_projectors(f, angle)
        for step in _steps(f, cfg.plan):
            for ci in step:
                psi = psi - oracle.kron_projector(projs[ci], ld) @ psi
            probs.append(psi @ psi)
            psi = psi / np.sqrt(probs[-1])
    return np.array(probs), psi


def _longdouble_errors(f, cfg, cycles):
    """(max |dp|, max relative error of 1 - p over the steps whose 1 - p is
    at least 1e-9, max |d psi_final|, min p) of ``allpass_trajectory``
    against :func:`_longdouble_trajectory`."""
    traj = sv.allpass_trajectory(f, cfg, cycles)
    exact, final = _longdouble_trajectory(f, cfg, cycles)
    probs = traj.step_pass_probs.astype(np.longdouble)
    fail = 1 - exact
    resolved = fail >= 1e-9
    rel = np.abs((1 - probs)[resolved] - fail[resolved]) / fail[resolved]
    return (
        float(np.abs(probs - exact).max()),
        float(rel.max(initial=0.0)),
        float(np.abs(traj.final_state - final).max()),
        float(exact.min()),
    )


_LONGDOUBLE_FORMULAS = {
    "pu8": lambda: fm.generate("planted_unique", 8, 34, 3, seed=1),
    "pu10": lambda: fm.generate("planted_unique", 10, 43, 3, seed=1),
    # the checks of x1 and not x1 overlap by cos(theta), so at 0.49 pi one
    # follows the other with p near cos(theta)^2 = 9.9e-4
    "small-p": lambda: fm.formula_from_dimacs_codes(
        4, [[1], [-1], [2, 3], [-2, 4], [1, -3, 4], [-1, -4]]
    ),
}
_LONGDOUBLE_CASES = [
    *[("pu8", theta, plan, 3) for theta in (0.1, 0.25, 0.4, 0.5) for plan in ("sequential", "layered")],
    ("pu8", "cubic", "sequential", 4),
    ("pu10", 0.4, "layered", 1),
    *[("small-p", 0.49, plan, 3) for plan in ("sequential", "layered")],
]


class TestTrajectoryMatchesLongdouble:
    """The float64 trajectory against the dense checks in np.longdouble: p to
    1e-12 absolute, 1 - p to 1e-6 relative wherever it is at least 1e-9, and
    the final state to 1e-12."""

    @pytest.mark.parametrize("name, theta, plan, cycles", _LONGDOUBLE_CASES)
    def test_pass_probabilities(self, name, theta, plan, cycles):
        if theta == "cubic":
            theta = sv.Schedule(c_q=cycles - 1, theta_init=0.25 * np.pi)
        else:
            theta *= np.pi
        f = _LONGDOUBLE_FORMULAS[name]()
        dp, rel, dpsi, min_p = _longdouble_errors(f, sv.PrepConfig(theta=theta, plan=plan), cycles)
        assert dp <= 1e-12 and rel <= 1e-6 and dpsi <= 1e-12
        assert name != "small-p" or min_p < 1e-3


class TestTrajectoryNumerics:
    f = fm.formula_from_dimacs_codes(3, [[1, 2], [-2, 3], [1, -3]])
    cfg = sv.PrepConfig(theta=0.4 * np.pi)

    @pytest.mark.filterwarnings("ignore:overflow encountered in dot")
    @pytest.mark.parametrize("scale", [1e-160, 1e300, np.nan])
    def test_unusable_pass_probability_raises(self, monkeypatch, scale):
        # 1e-160 leaves a pass probability near 1e-320: positive but
        # subnormal, too small to renormalize by; 1e300 overflows it
        check = sv.apply_check_unnormalized
        monkeypatch.setattr(
            sv, "apply_check_unnormalized", lambda psi, p, out=None: check(psi, p, out=out) * scale
        )
        with pytest.raises(FloatingPointError, match="pass probability"):
            sv.allpass_trajectory(self.f, self.cfg, 2)

    def test_small_norm_renormalizes_early(self, monkeypatch):
        # every check's output scaled by 1e-100 leaves a squared norm near
        # 1e-200 after each step, below sqrt(tiny): the state is divided by
        # its norm at once, and each p is 1e-200 times the unscaled one
        plain = sv.allpass_trajectory(self.f, self.cfg, 2)
        check = sv.apply_check_unnormalized
        monkeypatch.setattr(
            sv, "apply_check_unnormalized", lambda psi, p, out=None: check(psi, p, out=out) * 1e-100
        )
        scaled = sv.allpass_trajectory(self.f, self.cfg, 2)
        rel = np.abs(scaled.step_pass_probs / (plain.step_pass_probs * 1e-200) - 1.0)
        assert rel.max() <= 1e-12
        assert np.abs(scaled.final_state - plain.final_state).max() <= 1e-15

    def test_dead_trajectory_keeps_no_state(self):
        # x1 and not x1: the second check of the first cycle passes with
        # probability 0, and the state after it is zero
        f = fm.formula_from_dimacs_codes(1, [[1], [-1]])
        for plan in ("sequential", "layered"):
            traj = sv.allpass_trajectory(f, sv.PrepConfig(theta=np.pi / 2, plan=plan), 2)
            assert traj.final_state is None
            probs = traj.step_pass_probs
            assert abs(probs[0] - 0.5) < 1e-15 and probs[1:].tolist() == [0.0, 0.0, 0.0]

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
        assert math.ceil(copies) == 11  # ceil(2 ln 40 / ln 2)
        assert abs(eps - (1 - 1 / math.sqrt(2)) ** 2 / 8) < 1e-12
        eps2, _ = sv.unique_readout_parameters(0.3 * np.pi, 4, 0.1)
        assert abs(eps2 - (1 - 1 / math.sqrt(2)) ** 2 / 8 * math.sin(0.3 * np.pi) ** 2) < 1e-12

    def test_recovers_planted_solution(self):
        f = fm.generate("planted_unique", 7, 28, 3, seed=10)
        planted = next(iter(fm.brute_force_solutions(f)))
        theta = 0.4 * np.pi
        hits = 0
        for trial in range(20):
            prep = sv.Preparer(sv.PrepConfig(theta=theta), np.random.default_rng([trial, 5]))
            try:
                a = sv.readout_unique(f, 0.1, prep)
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


def _recording_preparer(lookups, prepared):
    """A Preparer that appends (formula, epsilon, trajectory) to ``lookups``
    on every trajectory lookup, and the trajectory to ``prepared`` on every
    preparation."""

    class RecordingPreparer(sv.Preparer):
        def trajectory(self, g, epsilon):
            traj = super().trajectory(g, epsilon)
            lookups.append((g, epsilon, traj))
            return traj

        def prepare(self, traj):
            prepared.append(traj)
            super().prepare(traj)

    return RecordingPreparer


def _assert_every_readout_fails(monkeypatch, f, theta, **solve_args):
    """solve() with every uniform draw at 0.999999 fails all 64 readouts on a
    fix that leaves no solution; returns its report."""
    make_rng = np.random.default_rng
    monkeypatch.setattr(
        sv.np.random, "default_rng", lambda seed: _HighUniforms(make_rng(seed))
    )
    report = sv.solve(f, theta, seed=0, **solve_args)
    assert report.status == "UNSAT" and report.readout_attempts == 64
    assert len(report.notes) == 64
    assert all("no satisfying assignment" in note for note in report.notes)
    return report


class TestReadoutMultiple:
    def test_parameter_formulas(self):
        eps, shots = sv.multiple_readout_parameters(np.pi / 2, 4, 0.1)
        assert math.ceil(shots) == 36  # ceil(8 ln 80)
        assert abs(eps - 1 / 8) < 1e-12

    def test_unique_instance_agrees_with_majority_readout(self):
        f = fm.generate("planted_unique", 6, 20, 3, seed=12)
        planted = next(iter(fm.brute_force_solutions(f)))
        theta = 0.45 * np.pi
        prep = sv.Preparer(sv.PrepConfig(theta=theta), np.random.default_rng(3))
        a = sv.readout_multiple(f, 0.1, prep)
        assert a == planted

    def test_multi_solution_membership(self):
        f = fm.formula_from_dimacs_codes(2, [[1, 2]])
        theta = 0.4 * np.pi
        seen = set()
        for trial in range(12):
            prep = sv.Preparer(sv.PrepConfig(theta=theta), np.random.default_rng(trial))
            a = sv.readout_multiple(f, 0.1, prep)
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
        prep = sv.Preparer(sv.PrepConfig(theta=theta), _HighUniforms(np.random.default_rng(0)))
        with pytest.raises(sv.ReadoutFailed, match="no satisfying assignment"):
            sv.readout_multiple(f, 0.1, prep)
        _assert_every_readout_fails(monkeypatch, f, theta)

    def test_fix_leaving_no_solution_fails_under_user_mu(self, monkeypatch):
        # a user mu enumerates no solutions, so only the readout can tell
        f = fm.generate("planted_unique", 6, 26, 3, seed=0)
        _assert_every_readout_fails(monkeypatch, f, 0.4 * np.pi, mu_source="user", mu=0.6)

    def test_fix_emptying_a_clause_leaves_no_solution(self, monkeypatch):
        # Every shot reads -1, so variable 1 is fixed FALSE, which empties
        # the unit clause x1: one more fix that leaves no solution.  The
        # default budget of this small formula pays for fewer than 64
        # attempts.
        f = fm.formula_from_dimacs_codes(3, [[1], [2, 3], [-2, -3]])
        theta = 0.4 * np.pi
        prep = sv.Preparer(sv.PrepConfig(theta=theta), _HighUniforms(np.random.default_rng(0)))
        with pytest.raises(sv.ReadoutFailed, match="variables 1..1 as fixed leave no satisfying"):
            sv.readout_multiple(f, 0.1, prep)
        _assert_every_readout_fails(monkeypatch, f, theta, budget=10**6)

    @pytest.mark.parametrize(
        "cfg",
        [
            sv.PrepConfig(theta=np.pi / 2),
            sv.PrepConfig(theta=0.4 * np.pi, mu_source="user", mu=0.6),
            sv.PrepConfig(theta=0.4 * np.pi),
        ],
        ids=["pi/2", "0.4pi", "0.4pi-empirical-mu"],
    )
    def test_one_enumeration_and_one_lookup_per_formula(self, cfg, enumerated):
        # an attempt enumerates f's solutions once, and every formula it
        # reduces to inherits its set, μ's ground space included; it fetches
        # the trajectory of each formula it prepares once, for all of that
        # formula's shots
        f = fm.generate("random_ksat", 7, 12, 3, seed=2)
        lookups, prepared = [], []
        prep = _recording_preparer(lookups, prepared)(cfg, np.random.default_rng(0))
        assert fm.evaluate(f, sv.readout_multiple(f, 0.1, prep))
        assert enumerated == [f]
        formulas = [g for g, _, _ in lookups]
        assert len(formulas) > 1 and len(set(formulas)) == len(formulas)
        shots = math.ceil(sv.multiple_readout_parameters(sv.readout_angle(cfg.theta), f.n, 0.1)[1])
        assert len(prepared) == shots * len(lookups)
        for _, _, traj in lookups:
            assert sum(1 for t in prepared if t is traj) == shots

    def test_one_enumeration_across_failed_attempts(self, monkeypatch, enumerated):
        # solve's no-solution check, mu's ground space and all 64 readout
        # attempts read the one solution set of f, in which variable 1 is TRUE
        f = fm.formula_from_dimacs_codes(3, [[1, 2, 3], [1, -2, 3], [1, 2, -3], [1, -2, -3]])
        _assert_every_readout_fails(monkeypatch, f, 0.4 * np.pi)
        assert len(enumerated) == 1 and enumerated[0] is f

    def test_trace_numbers_every_preparation(self, monkeypatch):
        # failed readouts leave every preparation complete, so the trace's
        # preparation column runs through all of them in order, with no gap;
        # every solution sets variable 1, which the readout fixes FALSE
        f = fm.formula_from_dimacs_codes(3, [[1, 2, 3], [1, -2, 3], [1, 2, -3], [1, -2, -3]])
        trace = io.StringIO()
        report = _assert_every_readout_fails(monkeypatch, f, 0.4 * np.pi, trace=trace)
        rows = list(csv.reader(io.StringIO(trace.getvalue())))[1:]
        column = [int(row[0]) for row in rows]
        assert column == sorted(column)
        assert sorted(set(column)) == list(range(report.preparations))

    def test_zero_occurrence_variable_fixed_false(self):
        f = fm.formula_from_dimacs_codes(3, [[2, 3]])  # variable 1 unused
        prep = sv.Preparer(sv.PrepConfig(theta=0.4 * np.pi), np.random.default_rng(0))
        a = sv.readout_multiple(f, 0.1, prep)
        assert a[0] == "0" and fm.evaluate(f, a)


class TestSolve:
    def test_satisfiable_random(self):
        f = oracle.random_satisfiable(np.random.default_rng(31), 8, 24, 3)
        report = sv.solve(f, 0.45 * np.pi, delta=0.1, seed=11)
        assert report.status == "SAT" and report.verified
        assert fm.evaluate(f, report.assignment)
        assert report.measurements > 0

    def test_unsatisfiable_budget_verdict(self):
        f = fm.formula_from_dimacs_codes(1, [[1], [-1]])
        report = sv.solve(f, np.pi / 2, seed=0)
        assert report.status == "UNSAT" and report.assignment is None

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_refused(self, budget):
        # a budget that cannot pay for one measurement would end a
        # satisfiable instance UNSAT without measuring anything
        f = fm.generate("planted_unique", 6, 26, 3, seed=1)
        with pytest.raises(ValueError, match="budget must be >= 1"):
            sv.solve(f, np.pi / 2, budget=budget)

    @pytest.mark.parametrize("readout, measurements", [("unique", 4896), ("multiple", 8830)])
    def test_dead_trajectory_exhausts_the_budget(self, readout, measurements):
        # neither readout reads the missing final state: the restarts of the
        # first preparation spend the whole budget first
        f = fm.formula_from_dimacs_codes(1, [[1], [-1]])
        report = sv.solve(f, np.pi / 2, readout=readout, seed=3)
        assert report.status == "UNSAT" and report.measurements == measurements == report.budget
        assert report.preparations == 0

    def test_seed_determinism(self):
        f = oracle.random_satisfiable(np.random.default_rng(8), 6, 14, 3)
        r1 = sv.solve(f, 0.4 * np.pi, seed=123)
        r2 = sv.solve(f, 0.4 * np.pi, seed=123)
        assert r1.to_json(include_timing=False) == r2.to_json(include_timing=False)

    def test_unique_readout_mode(self):
        f = fm.generate("planted_unique", 6, 20, 3, seed=14)
        planted = next(iter(fm.brute_force_solutions(f)))
        report = sv.solve(f, 0.4 * np.pi, readout="unique", seed=2)
        assert report.status == "SAT" and report.assignment == planted

    def test_schedule_mode(self):
        f = oracle.random_satisfiable(np.random.default_rng(40), 5, 10, 3)
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

    @pytest.mark.parametrize(
        "readout, f",
        [
            pytest.param("unique", fm.generate("planted_unique", 5, 20, 3, seed=3), id="unique"),
            pytest.param(
                "multiple", fm.generate("planted_unique", 5, 20, 3, seed=3), id="multiple"
            ),
            # variable 1 occurs in no clause, so the readout never prepares f
            pytest.param(
                "multiple", fm.formula_from_dimacs_codes(3, [[2, 3]]), id="multiple-var1-free"
            ),
        ],
    )
    def test_default_budget_priced_at_the_resolved_mu(self, readout, f):
        theta = 0.4 * np.pi
        report = sv.solve(f, theta, readout=readout, seed=0)
        assert report.status == "SAT" and report.mu_source == "empirical"
        tb = sv.theory_bounds(theta, f.n, f.m, 0.1, mu=report.mu, readout=readout)
        assert report.budget == max(1000, math.ceil(10 * tb.total_cost))
        assert report.cycles_per_attempt == tb.cycle_bound

    def test_dl_bound_default_budget_reaches_a_solution(self):
        # the detectability-lemma mu is 0.99939 here, so one attempt runs
        # thousands of cycles; a budget priced at mu = 0.5 (666,223
        # measurements) ran out before the readout could finish
        f = fm.generate("planted_unique", 4, 17, 3, seed=1)
        report = sv.solve(f, 0.9 * np.pi / 2, mu_source="dl_bound", seed=7)
        assert report.mu == pytest.approx(0.99939, abs=1e-5)
        assert report.status == "SAT" and fm.evaluate(f, report.assignment)

    def test_mu_refused_before_the_no_solution_fallback(self):
        # the caller's configuration is checked first, so the generic user
        # mu that the fallback substitutes does not hide a stray mu
        f = fm.formula_from_dimacs_codes(1, [[1], [-1]])
        with pytest.raises(ValueError, match="mu is only used"):
            sv.solve(f, 0.4 * np.pi, mu_source="empirical", mu=0.99)

    def test_budget_spent_on_a_readout_shot_counts_its_preparation(self):
        # P is the cost of the first preparation, its failed attempts
        # included, drawn from the run's generator as solve draws it; the
        # budget lets that preparation complete, and its readout shot of f.n
        # measurements exhausts it.
        f = fm.generate("planted_unique", 6, 20, 3, seed=14)
        first = sv.Preparer(sv.PrepConfig(theta=np.pi / 2), np.random.default_rng(0))
        first.prepare(first.trajectory(f, sv.unique_readout_parameters(np.pi / 2, f.n, 0.1)[0]))
        spent = first.used
        report = sv.solve(f, np.pi / 2, readout="unique", budget=spent + 1, seed=0)
        assert report.status == "UNSAT" and report.measurements == spent + 1
        assert report.preparations == 1 and report.restarts == first.restarts
        assert report.cycles_per_attempt == 1

    def test_layered_plan(self):
        f = oracle.random_satisfiable(np.random.default_rng(50), 6, 12, 3)
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
        # at theta = pi/2 and mu = 0 one cycle suffices and the floor is
        # 2^-n, so the preparation cost is m ln(1/delta) 2^n
        tb = sv.theory_bounds(np.pi / 2, 8, 30, 0.1, mu=0.0)
        assert tb.cycle_bound == 1
        assert tb.prep_cost == pytest.approx(30 * math.log(10) * 2**8)

    def test_unate_schedule_polynomial(self):
        # cos(theta) = 1 - 2/n keeps the amplification factor bounded by e,
        # so the bound grows polynomially (close to n ln^2 n).
        costs = []
        for n in (8, 16, 32, 64):
            theta = math.acos(1 - 2 / n)
            tb = sv.theory_bounds(theta, n, n, 0.1, mu=0.0, readout="multiple")
            costs.append(tb.total_cost)
        for a, b, n in zip(costs, costs[1:], (8, 16, 32)):
            poly_ref = (2 * n / n) ** 3 * (math.log(2 * n) / math.log(n)) ** 2
            assert b / a < 8 * poly_ref  # far below any exponential doubling

    def test_bound_agrees_with_the_cost_formulas(self):
        params = {"unique": sv.unique_readout_parameters, "multiple": sv.multiple_readout_parameters}
        thetas = (0.1 * np.pi, 0.25 * np.pi, 0.4 * np.pi, 0.47 * np.pi / 2, np.pi / 2)
        grid = itertools.product(thetas, (4, 9, 16, 31), (0.1, 0.01), (0.0, 0.3, 0.6, 0.99), params)
        for theta, n, delta, mu, readout in grid:
            m = 4 * n
            tb = sv.theory_bounds(theta, n, m, delta, mu=mu, readout=readout)
            assert tb.cycle_bound == sv.cycles_required(theta, n, tb.epsilon, mu)
            eps, count = params[readout](theta, n, delta)
            assert (tb.epsilon, math.ceil(tb.readout_cost)) == (eps, math.ceil(count))
            floor = sv.success_probability_floor(theta, n)
            expected = m * tb.cycle_bound * math.log(1 / delta)
            assert tb.prep_cost * floor == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("readout", ["unique", "multiple"])
    def test_readout_spends_what_the_bound_counts(self, readout, monkeypatch):
        # each readout attempt fetches f's trajectory once, at tolerance
        # epsilon and the bound's cycle count, and prepares it
        # ceil(readout_cost) times (the multiple readout: for its first
        # variable)
        f = fm.generate("planted_unique", 5, 20, 3, seed=3)
        theta, delta, mu = 0.4 * np.pi, 0.1, 0.6
        lookups, prepared = [], []
        monkeypatch.setattr(sv, "Preparer", _recording_preparer(lookups, prepared))
        report = sv.solve(f, theta, delta, readout=readout, mu_source="user", mu=mu, seed=1)
        assert report.status == "SAT"
        tb = sv.theory_bounds(theta, f.n, f.m, delta, mu=mu, readout=readout)
        of_f = [(eps, traj) for g, eps, traj in lookups if g == f]
        assert [eps for eps, _ in of_f] == [tb.epsilon] * report.readout_attempts
        assert {traj.cycles for _, traj in of_f} == {tb.cycle_bound}
        count = sum(1 for traj in prepared if traj is of_f[0][1])
        assert count == math.ceil(tb.readout_cost) * report.readout_attempts
        assert (report.mu, report.cycles_per_attempt) == (mu, tb.cycle_bound)

    def test_gap_route(self):
        # the paper's worst case, ln(1/mu) >= gap / (4 g^2), is priced as
        # mu = exp(-gap / (4 g^2)): cycle_bound is the gap-route ceiling
        theta, n, delta, gap, g = 0.4 * np.pi, 6, 0.1, 0.2, 3
        tb = sv.theory_bounds(theta, n, 12, delta, mu=math.exp(-gap / (4 * g**2)))
        assert tb.ln_inv_mu == pytest.approx(0.2 / 36)
        target = math.log(1 / (tb.epsilon * math.cos(theta / 2) ** n))
        assert tb.cycle_bound == math.ceil(target / (gap / (4 * g**2)))

    @pytest.mark.parametrize("readout", ["unique", "multiple"])
    def test_no_variables_refused(self, readout):
        # the readout parameters take log(n / delta)
        with pytest.raises(ValueError, match="n = 0"):
            sv.theory_bounds(0.4 * np.pi, 0, 1, 0.1, mu=0.0, readout=readout)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="convergence rate"):
            sv.theory_bounds(0.4, 6, 10, 0.1, mu=1.0)
