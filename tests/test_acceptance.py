"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one pass/fail line through the conftest hook.  Shared sweeps
(criteria 4 and 5 run over the same 100-instance grid) are session fixtures.
"""

import math
import time

import numpy as np
import oracle
import paper_checks as pc
import pytest
from scipy import stats

from mdsat import encoding as enc
from mdsat import formula as fm
from mdsat import phf
from mdsat import solver as sv
from mdsat import spectral as sp
from mdsat import statevec as svec

THETA_GRID_10 = [0.05 * np.pi * i for i in range(1, 11)]  # 0.05pi .. 0.5pi
DL_THETAS = [0.1 * np.pi, 0.25 * np.pi, 0.4 * np.pi, 0.5 * np.pi]


def _random_bits(rng, n):
    return "".join(rng.choice(["0", "1"], size=n))


# --- criteria 1 and 2: rotated-state overlap and Gram identities ----------


def test_c01_overlap_identity():
    """|<Theta_x|+^n>| = cos^n(theta/2) to 1e-12; n in 1..10, 20 x per n."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for n in range(1, 11):
        plus = svec.plus_state(n)
        for theta in THETA_GRID_10:
            for _ in range(20):
                x = _random_bits(rng, n)
                state = enc.theta_string_state(x, theta)
                assert abs(abs(state @ plus) - np.cos(theta / 2) ** n) <= 1e-12
    assert time.perf_counter() - start < 5.0


def test_c02_gram_identity():
    """<Theta_x|Theta_y> = cos^D(theta) to 1e-12 on the same grid."""
    rng = np.random.default_rng(202)
    for n in range(1, 11):
        for theta in THETA_GRID_10:
            for _ in range(20):
                x, y = _random_bits(rng, n), _random_bits(rng, n)
                sx = enc.theta_string_state(x, theta)
                sy = enc.theta_string_state(y, theta)
                d = pc.hamming_distance(x, y)
                assert abs(sx @ sy - np.cos(theta) ** d) <= 1e-12


# --- criterion 3: unrotated per-attempt success probability ----------------


def test_c03_unrotated_exactness():
    """theta=pi/2 all-pass success probability equals d_sol/2^n to 1e-10
    for 50 random satisfiable 3-SAT instances, n <= 12."""
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for i in range(50):
        n = 4 + i % 9  # 4..12
        f = oracle.random_satisfiable(rng, n, round(2.5 * n), 3)
        prep = sv.Preparer(sv.PrepConfig(theta=np.pi / 2), np.random.default_rng(0))
        traj = prep.trajectory(f, 0.01)
        assert traj.cycles == 1
        assert abs(traj.success_probability - f.solutions.size / 2**n) <= 1e-10
    assert time.perf_counter() - start < 60.0


# --- criteria 4 and 5: gap lower bound and DL/QUB sandwich -----------------


@pytest.fixture(scope="session")
def dl_sweep():
    """100 random satisfiable instances (n <= 8, k = 3) swept over 4 angles:
    (instance, theta, report) with the report's gap, mu, g and DL/QUB slacks."""
    rng = np.random.default_rng(404)
    results = []
    start = time.perf_counter()
    for i in range(100):
        n = 4 + i % 5  # 4..8
        f = oracle.random_satisfiable(rng, n, round(2.5 * n), 3)
        for theta in DL_THETAS:
            res = sp.spectral_report(f, theta, with_uniform=False, with_friedrichs=False)
            results.append((f, theta, res))
    return results, time.perf_counter() - start


def test_c04_gap_lower_bound(dl_sweep):
    """Exact gap >= sin^(2k) * ((1-cos)/(1+cos))^n with slack >= -1e-9."""
    results, elapsed = dl_sweep
    assert elapsed < 600.0
    for f, theta, res in results:
        bound = sp.gap_lower_bound(theta, f.n, f.max_width())
        assert res.gap - bound >= -1e-9


def test_c05_dl_qub_sandwich(dl_sweep):
    """1 - 4 gap <= mu_emp <= 1/sqrt(gap/g^2 + 1), slack >= -1e-9."""
    results, _ = dl_sweep
    for _, _, res in results:
        assert res.dl_slack >= -1e-9
        assert res.qub_slack >= -1e-9


# --- criterion 6: cycle bound end to end ------------------------------------


def test_c06_cycle_bound_end_to_end():
    """With mu = mu_emp, r* cycles give ||P_GS psi_out|| >= 1 - eps."""
    rng = np.random.default_rng(606)
    for i in range(8):
        n = 4 + i % 5
        f = oracle.random_satisfiable(rng, n, 2 * n, 3)
        for theta in (0.3 * np.pi, 0.45 * np.pi):
            mu = sp.convergence_rate(f, theta)
            p_gs = enc.ground_space_projector(f, theta)
            for eps in (0.1, 0.01):
                cfg = sv.PrepConfig(theta=theta)
                traj = sv.Preparer(cfg, np.random.default_rng(0)).trajectory(f, eps)
                assert traj.cycles == sv.cycles_required(theta, f.n, eps, mu)
                assert np.linalg.norm(p_gs @ traj.final_state) >= 1 - eps


# --- criterion 7: success probability floor ---------------------------------


def test_c07_success_probability_floor():
    """||(prod C)^r |+>||^2 >= ((1+cos)/2)^n for all r <= 50, 50 instances."""
    rng = np.random.default_rng(707)
    for i in range(50):
        n = 4 + i % 5
        theta = THETA_GRID_10[i % 10]
        f = oracle.random_satisfiable(rng, n, 2 * n, 3)
        floor = sv.success_probability_floor(theta, n)
        projs = enc.clause_projectors(f, theta)
        psi = svec.plus_state(n)
        cumulative = 1.0
        for _ in range(50):
            for proj in projs:
                out = svec.apply_check_unnormalized(psi, proj)
                p = float(out @ out)
                cumulative *= p
                psi = out / math.sqrt(p)
            assert cumulative >= floor - 1e-12


# --- criterion 8: perfect hash family correctness and size ------------------


def test_c08_phf_correctness_and_size():
    """verify_phf on the full grid; row guarantee; layer-count bounds.

    The greedy argument proves N <= floor(c_k ln C(n,k)) + 1 (the bare real
    bound c_k ln C(n,k) is impossible at n=k and (n,k)=(3,2), where it falls
    below the pigeonhole minimum); the (10, 3) family must additionally stay
    within 19 rows, the numeric value of c_3 ln C(10,3).
    """
    rng = np.random.default_rng(808)
    for k in (2, 3):
        for n in range(k, 13):
            rows = phf.density_algorithm(n, k)
            assert phf.verify_phf(rows, n, k), (n, k)
            assert rows.shape[0] <= phf.density_row_bound(n, k), (n, k)
            if n >= 3:
                f = fm.generate("random_ksat", n, 3 * n, k, int(rng.integers(2**32)))
                layers = phf.build_layers(f)
                assert len(layers) <= 2**k * rows.shape[0], (n, k)
                assert len(layers) <= pc.layer_count_bound(n, k), (n, k)
    assert phf.density_algorithm(10, 3).shape[0] <= 19


# --- criterion 9: layer soundness -------------------------------------------


def test_c09_layer_soundness():
    """Intra-layer commutators <= 1e-12; layered and sequential preparation
    (same composite check order) agree to 1e-10."""
    rng = np.random.default_rng(909)
    for i in range(6):
        n = 5 + i % 4  # 5..8
        f = oracle.random_satisfiable(rng, n, 2 * n, 3)
        theta = 0.35 * np.pi
        layers = phf.build_layers(f, theta)
        dense = [oracle.kron_projector(p) for p in enc.clause_projectors(f, theta)]
        for layer in layers:
            for a in range(len(layer.members)):
                for b in range(a + 1, len(layer.members)):
                    i1, i2 = layer.members[a], layer.members[b]
                    assert oracle.commutator_norm(dense[i1], dense[i2]) <= 1e-12
        cycles = 3
        layered = sv.allpass_trajectory(
            f, sv.PrepConfig(theta=theta, plan="layered"), cycles
        )
        order = phf.layered_order(layers)
        projs = enc.clause_projectors(f, theta)
        psi = svec.plus_state(n)
        cum = 1.0
        for _ in range(cycles):
            for ci in order:
                out = svec.apply_check_unnormalized(psi, projs[ci])
                p = float(out @ out)
                cum *= p
                psi = out / math.sqrt(p)
        assert np.abs(layered.final_state - psi).max() <= 1e-10
        assert abs(layered.success_probability - cum) <= 1e-10


# --- criteria 10 and 11: readout guarantees ----------------------------------


def _binomially_consistent(failures: int, trials: int, delta: float) -> bool:
    """True unless the observed failures refute rate <= delta at 95%."""
    return stats.binomtest(failures, trials, delta, alternative="greater").pvalue >= 0.05


def test_c10_unique_readout_guarantee():
    """200 trials, planted-unique n=8, theta=0.4pi, delta=0.1: empirical
    failure rate consistent with <= 0.1; R and eps match the formulas."""
    start = time.perf_counter()
    theta, delta, n = 0.4 * np.pi, 0.1, 8
    eps, copies = sv.unique_readout_parameters(theta, n, delta)
    assert abs(eps - (1 - 1 / math.sqrt(2)) ** 2 / 8 * math.sin(theta) ** 2) <= 1e-15
    assert copies == 2 * math.log(n / delta) / math.log(2 / (1 + math.cos(theta) ** 2))
    failures = 0
    trials = 0
    for inst in range(4):
        f = fm.generate("planted_unique", n, 34, 3, seed=1000 + inst)
        planted = next(iter(fm.brute_force_solutions(f)))
        preparer = sv.Preparer(sv.PrepConfig(theta=theta), np.random.default_rng([10, inst]))
        for _ in range(50):
            trials += 1
            try:
                got = sv.readout_unique(f, delta, preparer)
                if got != planted:
                    failures += 1
            except sv.ReadoutFailed:
                failures += 1
    assert trials == 200
    assert _binomially_consistent(failures, trials, delta)
    assert time.perf_counter() - start < 900.0


def test_c11_multiple_readout_guarantee():
    """Same protocol on d_sol >= 2 instances: every returned assignment
    satisfies the formula; failure rate consistent with <= delta."""
    theta, delta, n = 0.4 * np.pi, 0.1, 8
    rng_gen = np.random.default_rng(1111)
    failures = 0
    trials = 0
    for inst in range(4):
        f = oracle.random_satisfiable(rng_gen, n, 20, 3, min_solutions=2)
        preparer = sv.Preparer(sv.PrepConfig(theta=theta), np.random.default_rng([11, inst]))
        for _ in range(50):
            trials += 1
            try:
                got = sv.readout_multiple(f, delta, preparer)
                assert fm.evaluate(f, got)
            except sv.ReadoutFailed:
                failures += 1
    assert trials == 200
    assert _binomially_consistent(failures, trials, delta)


# --- criterion 12: uniform-gap monotonicity ----------------------------------


def test_c12_uniform_gap_monotonicity():
    """Along random satisfiability-preserving propagation trajectories, every
    propagated Hamiltonian keeps gap >= uniform gap - 1e-9."""
    rng = np.random.default_rng(1212)
    theta = 0.3 * np.pi
    for i in range(20):
        n = 5 + i % 2
        m = 6 + i % 3  # m <= 8
        f = oracle.random_satisfiable(rng, n, m, 3)
        uni = sp.uniform_gap(f, theta).value
        cur = f
        while cur.n > 0 and cur.m > 0:
            sols = fm.brute_force_solutions(cur)
            template = list(sols)[int(rng.integers(len(sols)))]
            var = int(rng.integers(1, cur.n + 1))
            value = template[var - 1] == "1"
            nxt = fm.propagate(cur, var, value)
            assert nxt is not None
            cur = nxt
            if cur.m == 0 or cur.n == 0:
                break
            assert sp.spectral_gap(cur, theta) >= uni - 1e-9


# --- criterion 13: unate separation experiment -------------------------------


def _unate_mean_measurements(n, theta, trials=5):
    counts = []
    for seed in range(trials):
        f = fm.generate("unate_unique", n, seed=9000 + 31 * n + seed)
        report = sv.solve(
            f,
            theta,
            delta=0.1,
            readout="unique",
            seed=seed,
            mu_source="user",
            mu=0.0,  # all checks commute on unate instances
        )
        assert report.status == "SAT"
        counts.append(report.measurements)
    return float(np.mean(counts))


def test_c13_unate_separation():
    """Scheduled angle cos(theta) = 1 - 2/n scales polynomially (log-log
    slope <= 2.5) while theta = pi/2 scales exponentially (base >= 1.8)."""
    start = time.perf_counter()
    ns = np.arange(4, 15)
    scheduled = [
        _unate_mean_measurements(n, math.acos(1 - 2 / n)) for n in ns
    ]
    unrotated = [_unate_mean_measurements(n, np.pi / 2) for n in ns]
    loglog_slope = np.polyfit(np.log(ns), np.log(scheduled), 1)[0]
    exp_slope = np.polyfit(ns, np.log(unrotated), 1)[0]
    assert loglog_slope <= 2.5, f"scheduled slope {loglog_slope:.3f}"
    assert math.exp(exp_slope) >= 1.8, f"unrotated base {math.exp(exp_slope):.3f}"
    assert time.perf_counter() - start < 1800.0


# --- criterion 14: average-case overlap identity ------------------------------


def test_c14_average_case_identity():
    """Binomial sum equals ((1+cos)/2)^n to 1e-12 up to n = 30; Monte Carlo
    pair sampling lands within 3 sigma."""
    for n in (1, 2, 5, 10, 17, 24, 30):
        for theta in DL_THETAS:
            res = pc.avg_overlap_identity(n, theta, samples=10)
            assert abs(res.binomial_sum - res.analytic) <= 1e-12
    res = pc.avg_overlap_identity(
        10, 0.3 * np.pi, samples=40_000, rng=np.random.default_rng(14)
    )
    assert abs(res.monte_carlo - res.analytic) <= 3 * res.monte_carlo_stderr


# --- criterion 15: Friedrichs machinery ---------------------------------------


def test_c15_friedrichs_machinery():
    """Two-line example reproduces |cos alpha| to 1e-12; the layered speed
    bound holds with slack >= -1e-9 for 20 instances, n <= 6, r <= 10."""
    for alpha in np.linspace(0.05, np.pi / 2, 12):
        b1 = np.array([[1.0], [0.0]])
        b2 = np.array([[np.cos(alpha)], [np.sin(alpha)]])
        assert abs(oracle.friedrichs_angle([b1, b2], 2) - abs(np.cos(alpha))) <= 1e-12
    rng = np.random.default_rng(1515)
    checked = 0
    while checked < 20:
        n = 5 + int(rng.integers(0, 2))
        f = oracle.random_satisfiable(rng, n, 2 * n, 3)
        slack, c, ell = sp.friedrichs_speed_slack(f, 0.3 * np.pi)
        if ell < 2:
            continue
        assert slack >= -1e-9
        checked += 1
