"""The measurement-driven solver: state preparation, readout, orchestration.

State preparation drives |+>^n toward the ground space by clause checks,
restarting from scratch whenever a check fails.  Conditioned on passing, the
state after j checks is a fixed vector, so the whole preparation is simulated
exactly from the all-pass trajectory: per-step pass probabilities are
precomputed once, and the restart count follows a geometric law in the
cumulative pass probability.  The trajectory runs in the per-qubit sparse
frame of :func:`mdsat.encoding.sparse_frame`, where the check kernel skips
most support patterns, and is rotated back to the computational basis
before anything reads its final state.  The failed attempts end at i.i.d.
positions drawn from the first-failure distribution of the trajectory, so one
multinomial draw gives how many attempts failed at each position, and with
it their exact measurement cost, in time independent of the restart count.
A CSV trace needs the failures in order: it gets a uniformly random
permutation of the drawn positions, which has the same law as drawing them
one by one, taken from a generator spawned for the trace so that tracing
leaves the run's own random stream untouched.  This is
distribution-identical to sampling every check one by one and keeps
measurement counting exact at desk scale.

Both readouts, majority vote for a unique solution and variable-by-variable
fixing for any number of solutions, prepare a state and measure it.  One
:class:`Preparer` per run owns the accounting: it spends every preparation
and readout measurement through one counter, counts the completed
preparations and their restarts, and records the convergence-rate input and
cycle count it resolved for each formula, which :func:`solve` reports.  Each
readout passes its own tolerance to every preparation and decides its own
failure events.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import TextIO

import numpy as np

from . import spectral
from .config import check_alloc
from .encoding import _frame_change, check_angle, product_state, sparse_frame
from .formula import UNSAT, Formula, count_solutions, evaluate, propagate
from .phf import build_layers, layered_order, noncommuting_degree
from .statevec import (
    apply_check_unnormalized,
    basis_cdf,
    plus_state,
    prob_one,
    rotate_qubits_inplace,
    sample_basis,
)

_MU_ZERO = 1e-12
_MIN_GEOMETRIC_P = 1e-12
_MAX_READOUT_ATTEMPTS = 64
_TINY = np.finfo(float).tiny  # smallest pass probability renormalized
_NORM_DRIFT = 1e-10  # tolerated distance of a trajectory's final norm from 1


class RestartsExhausted(RuntimeError):
    """State preparation never survived a full run of cycles."""


class BudgetExhausted(RuntimeError):
    """The measurement budget ran out (probable UNSAT)."""


class ReadoutFailed(RuntimeError):
    """A readout produced an inconsistent or non-satisfying assignment."""


class MeasurementCounter:
    """Tallies projective measurements against an optional budget."""

    def __init__(self, budget: int | None = None):
        self.used = 0
        self.budget = budget

    def spend(self, count: int) -> None:
        self.used += int(count)
        if self.budget is not None and self.used > self.budget:
            self.used = self.budget  # the run halts the moment the budget is hit
            raise BudgetExhausted(f"measurement budget {self.budget} exhausted")


@dataclass(frozen=True)
class Schedule:
    """Cubic ramp of the rotation angle over cycles c = 0..c_q, starting
    exactly at theta_init and ending exactly at pi/2."""

    c_q: int
    theta_init: float = 0.47 * math.pi / 2

    def __post_init__(self):
        check_angle(self.theta_init)
        if self.c_q < 1:
            raise ValueError("cubic schedule needs a target cycle count >= 1")


def schedule_angle(s: Schedule, c: int | float) -> float:
    if not 0 <= c <= s.c_q:
        raise ValueError(f"cycle {c} outside schedule range 0..{s.c_q}")
    return s.theta_init + (math.pi / 2 - s.theta_init) * (c / s.c_q) ** 3


@dataclass(frozen=True)
class PrepConfig:
    """How to run the state preparation routine."""

    theta: float | Schedule
    mu_source: str = "empirical"  # empirical | dl_bound | user
    mu: float | None = None
    max_restarts: int = 1_000_000
    mode: str = "monte_carlo"  # monte_carlo | deterministic
    plan: str = "sequential"  # sequential | layered

    def __post_init__(self):
        if self.max_restarts < 1:
            raise ValueError("max_restarts must be >= 1")
        if self.mu_source not in ("empirical", "dl_bound", "user"):
            raise ValueError(f"unknown mu_source {self.mu_source!r}")
        if self.mode not in ("monte_carlo", "deterministic"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.plan not in ("sequential", "layered"):
            raise ValueError(f"unknown plan {self.plan!r}")
        if not self.is_scheduled:
            check_angle(self.theta)

    @property
    def is_scheduled(self) -> bool:
        return isinstance(self.theta, Schedule)

    def fixed_theta(self) -> float:
        if self.is_scheduled:
            raise ValueError("config uses an evolving angle")
        return self.theta


def cycles_required(theta: float, n: int, epsilon: float, mu: float) -> int:
    """Cycle count guaranteeing ||P_GS psi_out|| >= 1 - epsilon when ``mu``
    upper-bounds the true convergence rate."""
    check_angle(theta)
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0.0 <= mu < 1.0:
        raise ValueError(f"convergence rate must lie in [0, 1), got {mu}")
    if mu <= _MU_ZERO:
        return 1
    target = math.log(1.0 / (epsilon * math.cos(theta / 2) ** n))
    return max(1, math.ceil(target / math.log(1.0 / mu)))


def resolve_mu(f: Formula, cfg: PrepConfig) -> float:
    """Convergence-rate input for the cycle bound, per the configured policy."""
    if cfg.mu_source == "user":
        if cfg.mu is None:
            raise ValueError("mu_source='user' requires an explicit mu")
        if not 0.0 <= cfg.mu < 1.0:
            raise ValueError("mu must lie in [0, 1)")
        return cfg.mu
    theta = cfg.fixed_theta()
    if cfg.mu_source == "empirical":
        # Commuting checks make the product equal the ground-space projector,
        # so mu vanishes with no dense computation: unate supports commute at
        # every angle, and at theta = pi/2 the perpendicular states become
        # orthogonal basis states.
        if abs(theta - math.pi / 2) < 1e-12 or noncommuting_degree(f) == 0:
            return 0.0
        order = layered_order(build_layers(f, theta)) if cfg.plan == "layered" else None
        mu = spectral.convergence_rate(f, theta, order=order)
        return 0.0 if mu <= _MU_ZERO else min(mu, 1.0 - 1e-15)
    gap = spectral.spectral_gap(f, theta)
    g = noncommuting_degree(f)
    return 0.0 if g == 0 else max(0.0, 1.0 - gap / (4.0 * g**2))


@dataclass
class Trajectory:
    """All-pass evolution of one preparation attempt."""

    final_state: np.ndarray
    step_pass_probs: np.ndarray  # one entry per measurement
    steps_per_cycle: int
    cycles: int

    @property
    def length(self) -> int:
        return self.step_pass_probs.size

    @property
    def success_probability(self) -> float:
        return float(np.prod(self.step_pass_probs))

    @cached_property
    def failure_pmf(self) -> np.ndarray | None:
        """Law of the failing position of a failed attempt: P(pass the first
        j checks, fail check j) normalized; None when no attempt can fail."""
        probs = self.step_pass_probs
        prefix = np.concatenate(([1.0], np.cumprod(probs)[:-1]))
        fail = prefix * (1.0 - probs)
        total = fail.sum()
        return fail / total if total > 0 else None


def _plan_steps(f: Formula, plan: str) -> list[list[int]]:
    if plan == "layered":
        return [list(layer.members) for layer in build_layers(f)]
    return [[i] for i in range(f.m)]


def allpass_trajectory(f: Formula, cfg: PrepConfig, cycles: int) -> Trajectory:
    """Evolve |+>^n through ``cycles`` all-pass cycles, recording the pass
    probability of every measurement.  Once a pass probability hits exactly
    zero the remaining entries are zero and the state stops evolving.  The
    measurement steps are planned once: the layer grouping does not depend on
    the angle.

    The state evolves in the sparse frame of :func:`sparse_frame`, built once
    per angle, where most clause-projector factors are exact basis vectors
    and the check kernel skips their zero patterns.  It starts as the product
    of B_q|+>, turns by B_q(new) B_q(old)^T on each qubit when the angle
    changes, and is rotated back to the computational basis at the end; pass
    probabilities do not depend on the frame.  At theta = pi/2 every frame is
    the identity and nothing is rotated.

    A pass probability that is not finite, or positive but below the
    smallest normal float, raises FloatingPointError instead of being
    renormalized, as does a final state whose norm is off 1 by more than
    1e-10.
    """
    check_alloc(32 << f.n, "state preparation")  # the state, 2 copies, scratch
    probs: list[float] = []
    steps = _plan_steps(f, cfg.plan)
    dead = False
    angles = (
        [schedule_angle(cfg.theta, c) for c in range(cycles)]
        if cfg.is_scheduled
        else [cfg.fixed_theta()] * cycles
    )
    last_angle = angles[0] if angles else math.pi / 2
    bases, projs = sparse_frame(f, last_angle)
    if all(b is None for b in bases):
        psi = plus_state(f.n)
    else:
        plus = plus_state(1)
        psi = product_state([plus if b is None else b @ plus for b in bases])
    for angle in angles:
        if angle != last_angle:
            new_bases, projs = sparse_frame(f, angle)
            rotate_qubits_inplace(psi, _frame_change(bases, new_bases))
            bases, last_angle = new_bases, angle
        for step in steps:
            if dead:
                probs.append(0.0)
                continue
            out = psi
            for ci in step:
                out = apply_check_unnormalized(out, projs[ci])
            p = float(np.dot(out, out))
            if not math.isfinite(p) or 0.0 < p < _TINY:
                raise FloatingPointError(
                    f"pass probability {p!r} at measurement {len(probs)} cannot be renormalized"
                )
            probs.append(min(p, 1.0))
            if p == 0.0:
                dead = True
                continue
            psi = np.divide(out, math.sqrt(p), out=out)  # out is a fresh array
    rotate_qubits_inplace(psi, _frame_change(bases, (None,) * f.n))
    norm = math.sqrt(float(np.dot(psi, psi)))
    if not abs(norm - 1.0) <= _NORM_DRIFT:
        raise FloatingPointError(f"final state has norm {norm!r}, not 1")
    return Trajectory(
        final_state=psi,
        step_pass_probs=np.array(probs),
        steps_per_cycle=len(steps),
        cycles=cycles,
    )


@dataclass
class PrepResult:
    state: np.ndarray
    success_probability: float
    r_star: int
    restarts: int
    measurements: int


class TraceWriter:
    """Streams one CSV row per performed clause/layer measurement.

    Sequential plans use the clause index as the check id, layered plans the
    layer index.  Only completed preparations are logged; a run cut short by
    the budget or the restart allowance ends the trace at the previous
    preparation.
    """

    COLUMNS = ("preparation", "attempt", "cycle", "check", "outcome", "probability")

    def __init__(self, fh):
        self._writer = csv.writer(fh)
        self._writer.writerow(self.COLUMNS)
        self.preparation = -1

    def next_preparation(self) -> None:
        self.preparation += 1

    def emit_attempt(self, traj: "Trajectory", attempt: int, fail_pos: int | None) -> None:
        spc = max(traj.steps_per_cycle, 1)
        end = traj.length if fail_pos is None else fail_pos + 1
        for pos in range(end):
            p_pass = float(traj.step_pass_probs[pos])
            failed = fail_pos is not None and pos == fail_pos
            self._writer.writerow(
                [
                    self.preparation,
                    attempt,
                    pos // spc,
                    pos % spc,
                    "fail" if failed else "pass",
                    f"{(1.0 - p_pass) if failed else p_pass:.17g}",
                ]
            )


def _sample_restart_costs(
    traj: Trajectory,
    rng: np.random.Generator,
    max_restarts: int,
    counter: MeasurementCounter,
    trace_rng: np.random.Generator | None,
):
    """Sample the number of failed attempts and their measurement cost.

    Returns (restarts, measurements, fail_positions); the positions, in
    attempt order, are drawn only when ``trace_rng`` is given and are None
    otherwise.  Raises RestartsExhausted or BudgetExhausted with the cost
    already counted.
    """
    length = traj.length
    if length == 0:
        return 0, 0, []
    p_s = traj.success_probability
    if p_s >= _MIN_GEOMETRIC_P:
        restarts = int(rng.geometric(p_s)) - 1
    else:
        restarts = max_restarts  # success is unobservable at desk scale
    n_fail = min(restarts, max_restarts)
    pmf = traj.failure_pmf
    if n_fail and pmf is not None:
        counts = rng.multinomial(n_fail, pmf)
    else:
        counts = np.zeros(length, dtype=np.int64)
    # Python integers: n_fail * length can exceed int64.  The failing
    # measurement at position j is the (j+1)-th of its attempt.
    measurements = sum(c * (pos + 1) for pos, c in enumerate(counts.tolist()))
    counter.spend(measurements)
    if restarts >= max_restarts:
        raise RestartsExhausted(
            f"no successful preparation within {max_restarts} restarts"
        )
    if trace_rng is None:
        return restarts, measurements, None
    # Only a successful preparation is traced, and its trace lists every
    # failure anyway, so the positions cost no more memory than the trace.
    positions = trace_rng.permutation(np.repeat(np.arange(length), counts))
    return restarts, measurements, positions


class Preparer:
    """Prepares ground-space approximations and keeps a run's accounting.

    One instance serves every preparation of a solve run: the convergence-rate
    input and the trajectory are computed once per distinct formula (and
    cycle count) and reused, Monte Carlo restart counts are sampled fresh on
    every call, and every measurement is spent through ``counter``, which the
    readouts share for their shots.  ``preparations`` and ``restarts`` count
    the completed preparations and their failed attempts; ``resolved`` maps
    each formula to the (mu, cycles) of its latest fixed-angle preparation.
    """

    def __init__(
        self,
        cfg: PrepConfig,
        rng: np.random.Generator,
        counter: MeasurementCounter | None = None,
        trace: TraceWriter | None = None,
    ):
        self.cfg = cfg
        self.rng = rng
        self.counter = MeasurementCounter() if counter is None else counter
        self.trace = trace
        self.preparations = 0
        self.restarts = 0
        self.resolved: dict[Formula, tuple[float, int]] = {}
        # Orders the failures of a traced preparation; a stream of its own
        # keeps a traced run's draws identical to an untraced one's.
        self._trace_rng = rng.spawn(1)[0] if trace is not None else None
        self._trajectories: dict[tuple[Formula, int], Trajectory] = {}

    def trajectory(self, f: Formula, epsilon: float) -> tuple[Trajectory, int]:
        """The all-pass trajectory that prepares ``f`` to tolerance ``epsilon``
        and its cycle count; a schedule fixes the cycle count and ignores
        ``epsilon``."""
        if self.cfg.is_scheduled:
            cycles = self.cfg.theta.c_q + 1
        else:
            mu = self.resolved[f][0] if f in self.resolved else resolve_mu(f, self.cfg)
            cycles = cycles_required(self.cfg.theta, f.n, epsilon, mu)
            self.resolved[f] = (mu, cycles)
        key = (f, cycles)
        if key not in self._trajectories:
            self._trajectories[key] = allpass_trajectory(f, self.cfg, cycles)
        return self._trajectories[key], cycles

    def prepare(self, f: Formula, epsilon: float) -> PrepResult:
        traj, cycles = self.trajectory(f, epsilon)
        if self.trace is not None:
            self.trace.next_preparation()
        if self.cfg.mode == "deterministic":
            restarts, spent, positions = 0, 0, []
        else:
            restarts, spent, positions = _sample_restart_costs(
                traj, self.rng, self.cfg.max_restarts, self.counter, self._trace_rng
            )
        self.counter.spend(traj.length)
        self.preparations += 1
        self.restarts += restarts
        if self.trace is not None:
            for attempt, pos in enumerate(positions):
                self.trace.emit_attempt(traj, attempt, int(pos))
            self.trace.emit_attempt(traj, restarts, None)
        return PrepResult(
            state=traj.final_state,
            success_probability=traj.success_probability,
            r_star=cycles,
            restarts=restarts,
            measurements=spent + traj.length,
        )


def unique_readout_parameters(theta: float, n: int, delta: float) -> tuple[float, int]:
    """(epsilon, copies) for the majority-vote readout of a unique solution."""
    check_angle(theta)
    eps = (1.0 - 1.0 / math.sqrt(2.0)) ** 2 / 8.0 * math.sin(theta) ** 2
    copies = math.ceil(
        2.0 * math.log(n / delta) / math.log(2.0 / (1.0 + math.cos(theta) ** 2))
    )
    return eps, max(1, copies)


def multiple_readout_parameters(theta: float, n: int, delta: float) -> tuple[float, int]:
    """(epsilon, shots-per-variable) for the variable-by-variable readout."""
    check_angle(theta)
    s2 = math.sin(theta) ** 2
    eps = s2 / 8.0
    shots = math.ceil(8.0 * math.log(2.0 * n / delta) / s2)
    return eps, max(1, shots)


def readout_unique(
    f: Formula,
    theta: float,
    delta: float,
    rng: np.random.Generator,
    preparer: Preparer,
) -> str:
    """Majority-vote readout; requires the caller's promise of a unique
    solution.  Each copy is one preparation and one full basis readout, drawn
    from a CDF built once per call.  The returned assignment is verified
    against the formula."""
    eps, copies = unique_readout_parameters(theta, f.n, delta)
    # Every copy prepares the same cached trajectory, so its final state and
    # readout distribution are the same for all of them.
    cdf = basis_cdf(preparer.trajectory(f, eps)[0].final_state)
    votes = np.zeros(f.n, dtype=np.int64)
    for _ in range(copies):
        preparer.prepare(f, eps)
        preparer.counter.spend(f.n)
        index = int(sample_basis(cdf, rng, 1)[0])
        bits = np.array([(index >> (f.n - q)) & 1 for q in range(1, f.n + 1)])
        votes += 2 * bits - 1  # outcome +1 on |1>, -1 on |0>
    assignment = "".join("1" if v > 0 else "0" for v in votes)  # tie -> FALSE
    if not evaluate(f, assignment):
        raise ReadoutFailed("majority vote produced a non-satisfying assignment")
    return assignment


def readout_multiple(
    f: Formula,
    theta: float,
    delta: float,
    rng: np.random.Generator,
    preparer: Preparer,
) -> str:
    """Variable-by-variable readout for instances with any number of
    solutions.  Fixes each variable from a Z estimate on the current first
    qubit, propagates, and re-encodes the shrunken formula.  A wrong fix is
    the readout's failure event, which the readout detects itself whatever
    the convergence-rate source: the propagation hits an empty clause, or the
    shrunken formula has no satisfying assignment left to prepare (checked by
    brute force before it is prepared)."""
    eps, shots = multiple_readout_parameters(theta, f.n, delta)
    sin_t = math.sin(theta)
    bits: list[str] = []
    cur = f
    for _ in range(f.n):
        occurs = any(l.var == 1 for c in cur.clauses for l in c.literals)
        if not occurs:
            # Unconstrained variable: fixed FALSE by convention, no shots.
            nxt = propagate(cur, 1, False)
            assert nxt is not UNSAT
            bits.append("0")
            cur = nxt
            continue
        # Every shot prepares the same cached trajectory, so its final state
        # and readout probability are the same for all of them.
        p1 = prob_one(preparer.trajectory(cur, eps)[0].final_state, 1)
        total = 0
        for _ in range(shots):
            preparer.prepare(cur, eps)
            preparer.counter.spend(1)
            total += 1 if rng.random() < p1 else -1
        p_hat = total / shots
        value = abs(p_hat + sin_t) > abs(p_hat - sin_t)  # TRUE iff -sin ruled out
        nxt = propagate(cur, 1, value)
        if nxt is UNSAT:
            raise ReadoutFailed(
                f"fixing variable {len(bits) + 1} to {value} emptied a clause"
            )
        if count_solutions(nxt) == 0:
            raise ReadoutFailed(
                f"variables 1..{len(bits) + 1} as fixed leave no satisfying assignment"
            )
        bits.append("1" if value else "0")
        cur = nxt
    assignment = "".join(bits)
    if not evaluate(f, assignment):
        raise ReadoutFailed("assembled assignment does not satisfy the formula")
    return assignment


@dataclass
class BoundReport:
    """Numeric evaluation of the runtime guarantees (bounds, not predictions)."""

    theta: float
    n: int
    m: int
    delta: float
    readout: str
    mu: float | None
    ln_inv_mu: float
    epsilon: float
    cycle_bound: int
    prep_cost: float
    readout_cost: float
    total_cost: float
    unrotated_cost: float


def theory_bounds(
    theta: float,
    n: int,
    m: int,
    delta: float,
    mu: float | None = None,
    uniform_gap: float | None = None,
    g: int | None = None,
    d_sol: int = 1,
    readout: str = "multiple",
) -> BoundReport:
    """Evaluate the preparation/readout cost bounds with constants as stated.

    ``mu`` or (``uniform_gap``, ``g``) selects how ln(1/mu) is bounded; the
    gap route uses ln(1/mu) >= gap / (4 g^2).
    """
    check_angle(theta)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if readout not in ("unique", "multiple"):
        raise ValueError(f"unknown readout {readout!r}")
    if mu is not None:
        if not 0.0 <= mu < 1.0:
            raise ValueError("mu must lie in [0, 1)")
        ln_inv_mu = math.inf if mu <= _MU_ZERO else math.log(1.0 / mu)
    elif uniform_gap is not None:
        if g is None or g < 0:
            raise ValueError("the gap route needs the non-commutation degree g")
        if uniform_gap <= 0:
            raise ValueError("uniform gap must be positive")
        ln_inv_mu = math.inf if g == 0 else uniform_gap / (4.0 * g**2)
    else:
        raise ValueError("supply mu or uniform_gap")
    if readout == "unique":
        epsilon, _ = unique_readout_parameters(theta, n, delta)
        readout_cost = 2.0 * math.log(n / delta) / math.log(
            2.0 / (1.0 + math.cos(theta) ** 2)
        )
    else:
        epsilon, _ = multiple_readout_parameters(theta, n, delta)
        readout_cost = 8.0 * math.log(2.0 * n / delta) / math.sin(theta) ** 2
    if math.isinf(ln_inv_mu):
        cycle_bound = 1
    else:
        cycle_bound = max(
            1,
            math.ceil(
                (math.log(1.0 / epsilon) + n * math.log(1.0 / math.cos(theta / 2)))
                / ln_inv_mu
            ),
        )
    amplification = (2.0 / (1.0 + math.cos(theta))) ** n
    prep_cost = m * cycle_bound * math.log(1.0 / delta) * amplification
    unrotated = m * math.log(1.0 / delta) * (2.0**n / d_sol)
    return BoundReport(
        theta=theta,
        n=n,
        m=m,
        delta=delta,
        readout=readout,
        mu=mu,
        ln_inv_mu=ln_inv_mu,
        epsilon=epsilon,
        cycle_bound=cycle_bound,
        prep_cost=prep_cost,
        readout_cost=readout_cost,
        total_cost=prep_cost * readout_cost,
        unrotated_cost=unrotated,
    )


def success_probability_floor(theta: float, n: int) -> float:
    """((1 + cos theta)/2)^n, the all-cycles success probability floor."""
    return ((1.0 + math.cos(theta)) / 2.0) ** n


@dataclass
class RunReport:
    """Outcome of one solve run."""

    status: str  # SAT | UNSAT
    assignment: str | None
    n: int
    m: int
    k: int
    theta: float | None
    schedule: dict | None
    delta: float
    readout: str
    mode: str
    plan: str
    mu: float | None
    mu_source: str
    cycles_per_attempt: int | None
    restarts: int
    preparations: int
    readout_attempts: int
    measurements: int
    budget: int | None
    seed: int | None
    verified: bool
    wall_time_s: float
    notes: list[str] = field(default_factory=list)

    def to_json(self, include_timing: bool = True) -> str:
        data = {"schema": "mdsat-report/1", **asdict(self)}
        if not include_timing:
            data.pop("wall_time_s")
        return json.dumps(data, indent=2)


def solve(
    f: Formula,
    theta: float | Schedule,
    delta: float = 0.1,
    readout: str = "multiple",
    seed: int = 0,
    mode: str = "monte_carlo",
    plan: str = "sequential",
    mu_source: str = "empirical",
    mu: float | None = None,
    budget: int | None = None,
    trace: TextIO | None = None,
) -> RunReport:
    """Run preparation plus readout until a verified assignment or exhaustion.

    The UNSAT verdict is emitted when the measurement budget (default: ten
    times the theory estimate with a generic convergence rate) or the restart
    allowance (ten times the inverse success-probability floor) runs out, or
    when 64 readout attempts fail, before any readout verifies.
    ``trace``, an open text stream, receives a CSV log of every preparation
    measurement; the caller opens and closes it.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if readout not in ("unique", "multiple"):
        raise ValueError(f"unknown readout {readout!r}")
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    # a schedule ends at pi/2, where its states are read out
    theta_ro = math.pi / 2 if isinstance(theta, Schedule) else theta
    floor = success_probability_floor(theta_ro, f.n)
    max_restarts = max(
        1_000_000, math.ceil(10.0 * math.log(1.0 / delta) / max(floor, 1e-15))
    )
    cfg = PrepConfig(
        theta=theta,
        mu_source=mu_source,
        mu=mu,
        max_restarts=max_restarts,
        mode=mode,
        plan=plan,
    )
    if budget is None:
        est = theory_bounds(
            theta_ro, f.n, max(f.m, 1), delta, mu=mu if mu is not None else 0.5,
            readout=readout,
        )
        budget = max(1000, math.ceil(10.0 * est.total_cost))
    notes: list[str] = []

    effective_cfg = cfg
    if not cfg.is_scheduled and cfg.mu_source != "user" and count_solutions(f) == 0:
        # No ground space to measure a convergence rate against; fall back to
        # a generic user rate so the run can exhaust its budget honestly.
        effective_cfg = replace(cfg, mu_source="user", mu=0.5)
        notes.append("mu fallback: no satisfying assignment found by oracle")

    tracer = TraceWriter(trace) if trace is not None else None
    preparer = Preparer(effective_cfg, rng, MeasurementCounter(budget), tracer)
    readout_fn = readout_unique if readout == "unique" else readout_multiple
    assignment = None
    attempts = 0
    try:
        while attempts < _MAX_READOUT_ATTEMPTS:
            attempts += 1
            try:
                assignment = readout_fn(f, theta_ro, delta, rng, preparer=preparer)
                break
            except ReadoutFailed as exc:
                notes.append(f"readout attempt {attempts} failed: {exc}")
                continue
    except (RestartsExhausted, BudgetExhausted) as exc:
        notes.append(str(exc))
    # f is prepared at the readout's tolerance only, so its entry holds the
    # cycle count of every attempt
    mu_used, cycles = preparer.resolved.get(f, (None, None))
    verified = assignment is not None and evaluate(f, assignment)
    return RunReport(
        status="SAT" if verified else "UNSAT",
        assignment=assignment if verified else None,
        n=f.n,
        m=f.m,
        k=f.k,
        theta=None if cfg.is_scheduled else cfg.fixed_theta(),
        schedule=(
            {"kind": "cubic", "theta_init": cfg.theta.theta_init, "c_q": cfg.theta.c_q}
            if cfg.is_scheduled
            else None
        ),
        delta=delta,
        readout=readout,
        mode=mode,
        plan=plan,
        mu=mu_used,
        mu_source=effective_cfg.mu_source,
        cycles_per_attempt=cycles,
        restarts=preparer.restarts,
        preparations=preparer.preparations,
        readout_attempts=attempts,
        measurements=preparer.counter.used,
        budget=budget,
        seed=seed,
        verified=verified,
        wall_time_s=time.perf_counter() - start,
        notes=notes,
    )
