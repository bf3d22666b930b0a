"""The measurement-driven solver: state preparation, readout, orchestration.

State preparation drives |+>^n toward the ground space by clause checks,
restarting from scratch whenever a check fails.  Conditioned on passing, the
state after j checks is a fixed vector, so the whole preparation is simulated
exactly from the all-pass trajectory: per-step pass probabilities are
precomputed once, and the restart count follows a geometric law in the
cumulative pass probability.  The trajectory runs in the per-qubit sparse
frame of :func:`mdsat.encoding.sparse_frame`, where the check kernel skips
most support patterns, and is rotated back to the computational basis
before anything reads its final state.  At a fixed theta = pi/2, the
unrotated baseline, every check projects onto the assignments that satisfy
its clause, so the trajectory is counted instead of evolved: each pass
probability is the correctly rounded ratio of two survivor counts, the
survivors compacted step by step as :func:`mdsat.formula.solution_indices`
compacts them, and the final state, uniform over the solutions, is built
once; its peak is at most 12 bytes per amplitude against the 16 of the
checks.  The failed attempts end at i.i.d. positions drawn from the
first-failure distribution of the trajectory, so one multinomial draw gives
how many attempts failed at each position, and with it their exact
measurement cost, in time independent of the restart count.
No more failed attempts are drawn than the measurement budget has left, the
one rule that ends a run: a preparation it cannot pay for ends the run.
A CSV trace needs the failures in order: it gets a uniformly random
permutation of the drawn positions, which has the same law as drawing them
one by one, taken from a generator spawned for the trace so that tracing
leaves the run's own random stream untouched.  This is
distribution-identical to sampling every check one by one and keeps
measurement counting exact at desk scale.

Both readouts, majority vote for a unique solution and variable-by-variable
fixing for any number of solutions, prepare a state and measure it.  One
:class:`Preparer` per run owns its configuration, its one generator (the
readouts draw from it too) and its accounting: it spends every preparation
and readout measurement against the run's budget, counts the completed
preparations and their restarts, and resolves each formula's
convergence-rate input once, which :func:`solve` reports.  Each readout
fetches a formula's trajectory at its own tolerance once, prepares every
copy or shot from it, and decides its own failure events.
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
from .formula import (
    Formula,
    _survivors,
    assignment_from_index,
    evaluate,
    propagate,
)
from .phf import build_layers, noncommuting_degree
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
# A trajectory raises on a positive pass probability or squared norm below
# _TINY, the smallest normal float, and renormalizes at once when its squared
# norm falls below _SQRT_TINY, so that no amplitude that matters goes
# subnormal before the end of the cycle.
_TINY = np.finfo(float).tiny
_SQRT_TINY = math.sqrt(_TINY)
_NORM_DRIFT = 1e-10  # tolerated distance of a trajectory's final norm from 1
_GENERIC_MU = 0.5  # for a schedule's default budget and formulas with no ground space


class BudgetExhausted(RuntimeError):
    """The measurement budget ran out (probable UNSAT)."""


class ReadoutFailed(RuntimeError):
    """A readout produced an inconsistent or non-satisfying assignment."""


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
    mu: float | None = None  # given with mu_source="user" only
    plan: str = "sequential"  # sequential | layered

    def __post_init__(self):
        if self.mu_source not in ("empirical", "dl_bound", "user"):
            raise ValueError(f"unknown mu_source {self.mu_source!r}")
        if self.mu_source != "user" and self.mu is not None:
            raise ValueError(f"mu is only used with mu_source='user', not {self.mu_source!r}")
        if self.mu_source == "user" and not (self.mu is not None and 0.0 <= self.mu < 1.0):
            raise ValueError(f"mu_source='user' needs a mu in [0, 1), got {self.mu}")
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


def readout_angle(theta: float | Schedule) -> float:
    """The angle at which a preparation's final state is read out: the fixed
    angle, or pi/2, where a schedule ends."""
    return math.pi / 2 if isinstance(theta, Schedule) else theta


def cycles_required(theta: float, n: int, epsilon: float, mu: float) -> int:
    """Cycle count guaranteeing ||P_GS psi_out|| >= 1 - epsilon when ``mu``
    upper-bounds the true convergence rate: ceil(ln(1/(epsilon cos^n(theta/2)))
    / ln(1/mu)), at least 1, and 1 at mu = 0."""
    check_angle(theta)
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    ln_inv_mu = _ln_inv_mu(mu)
    if math.isinf(ln_inv_mu):
        return 1
    target = math.log(1.0 / (epsilon * math.cos(theta / 2) ** n))
    return max(1, math.ceil(target / ln_inv_mu))


def _ln_inv_mu(mu: float) -> float:
    """ln(1/mu) for a convergence rate in [0, 1); infinite at mu = 0."""
    if not 0.0 <= mu < 1.0:
        raise ValueError(f"convergence rate must lie in [0, 1), got {mu}")
    return math.inf if mu <= _MU_ZERO else math.log(1.0 / mu)


def resolve_mu(f: Formula, cfg: PrepConfig) -> float:
    """Convergence-rate input for the cycle bound, per the configured policy:
    the user's mu, the empirical mu, or under ``dl_bound`` 1 - gap/(4 g^2)
    from the spectral gap and the non-commutation degree g (0 when g = 0).
    The last is not the detectability-lemma bound 1/sqrt(1 + gap/g^2) that
    :func:`mdsat.spectral.spectral_report`'s ``dl_slack`` reads, an upper
    bound on the true mu: it lies at or above that bound only while
    gap/g^2 <= 1.438."""
    if cfg.mu_source == "user":
        return cfg.mu
    theta = cfg.fixed_theta()
    if cfg.mu_source == "empirical":
        # Commuting checks make the product equal the ground-space projector,
        # so mu vanishes with no dense computation: unate supports commute at
        # every angle, and at theta = pi/2 the perpendicular states become
        # orthogonal basis states.
        if theta == math.pi / 2 or noncommuting_degree(f) == 0:
            return 0.0
        # mu of the cycle the trajectory applies: its steps, flattened
        order = [ci for step in _plan_steps(f, cfg.plan) for ci in step]
        mu = spectral.convergence_rate(f, theta, order=order)
        return 0.0 if mu <= _MU_ZERO else min(mu, 1.0 - 1e-15)
    gap = spectral.spectral_gap(f, theta)
    g = noncommuting_degree(f)
    return 0.0 if g == 0 else max(0.0, 1.0 - gap / (4.0 * g**2))


@dataclass
class Trajectory:
    """All-pass evolution of one preparation attempt.

    ``final_state`` is None for a dead trajectory, one with a pass
    probability of exactly 0: no attempt can pass it, so there is no
    prepared state to read out.
    """

    final_state: np.ndarray | None
    step_pass_probs: np.ndarray  # one entry per measurement
    steps_per_cycle: int
    cycles: int

    @property
    def length(self) -> int:
        return self.step_pass_probs.size

    @cached_property
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
    probability of every measurement.  The L = len(steps) * cycles pass
    probabilities are one float64 array, allocated once as zeros; both walks
    below write each probability into it in place and return the final
    state, or None at the first pass probability of exactly zero, where they
    stop.  The entries after it stay 0 and the trajectory is dead: its
    ``final_state`` is None.  The measurement steps are planned once: the
    layer grouping does not depend on the angle.

    At a fixed theta = pi/2 every check is the projector onto the
    assignments that satisfy its clause, so the state after j steps is the
    uniform superposition over S_j, the assignments that satisfy every
    clause checked so far, and p_j = |S_j|/|S_{j-1}|.  That route counts
    instead of evolving: it compacts int32 candidates step by step, a
    layered step after all of its members, records each p as the correctly
    rounded ratio of two survivor counts, and builds the final state once,
    as the indicator of the survivors over sqrt of their count.  It is the
    same dense state, with the same pass probabilities, that the checks
    below produce, there up to the rounding of their squared norms.  Its
    peak is 10 bytes per assignment while counting (candidates, a masked
    copy, two bool arrays), then the state beside the int32 survivors, at
    most 12 and a 64 KiB cast buffer; its indices limit it to n <= 31.

    Every other run applies the checks in place on one state buffer, through
    ``apply_check_unnormalized(psi, proj, out=psi)``, so a step allocates no
    state vector.  The state is left unnormalized within a cycle: each step
    takes its squared norm by one dot product and records p as the ratio of
    that norm to the one before the step.  The state is divided by its norm
    in place once, at the end of each cycle, and earlier only when its
    squared norm falls below sqrt of the smallest normal float.

    The state evolves in the sparse frame of :func:`sparse_frame`, built once
    per angle, where most clause-projector factors are exact basis vectors
    and the check kernel skips their zero patterns.  It starts as the product
    of B_q|+>, turns by B_q(new) B_q(old)^T on each qubit when the angle
    changes, and is rotated back to the computational basis at the end; pass
    probabilities do not depend on the frame.  A schedule that reaches
    theta = pi/2 stays on this route, where that frame is the identity.

    A trajectory is refused before anything large is allocated unless its
    walk's state peak and 32 bytes per measurement fit the memory budget: the
    array's 8, and the 24 that :attr:`Trajectory.failure_pmf` takes at its
    peak when the first preparation builds it, of which it keeps 8; restart
    sampling later takes 16 beside them.

    A pass probability that is not finite, or a step that leaves a pass
    probability or squared norm positive but below the smallest normal float,
    raises FloatingPointError instead of being renormalized, as does the
    final state of a live trajectory whose norm is off 1 by more than 1e-10.
    """
    steps = _plan_steps(f, cfg.plan)
    length = len(steps) * cycles
    counted = not cfg.is_scheduled and cfg.theta == math.pi / 2
    # Counting holds 10 bytes per assignment, then 8 for the state beside at
    # most 4 for the survivors, and a 64 KiB buffer that casts them to intp
    # for the scatter.  The checks hold the state and the kernel's two
    # half-state temporaries (w and its scratch, at k = 1) or the frame
    # rotation's two half-state buffers; numpy's ufunc iteration buffers
    # (64 KiB per strided operand) and the plan add at most 181 KiB by
    # tracemalloc at n = 8..18, which 256 KiB covers.
    state_bytes = (12 << f.n) + (64 << 10) if counted else (16 << f.n) + (256 << 10)
    check_alloc(state_bytes + 32 * length, "state preparation")
    probs = np.zeros(length)
    if counted:
        psi = _survivor_walk(f, steps, cycles, probs)
    else:
        psi = _check_walk(f, cfg, steps, cycles, probs)
    return Trajectory(
        final_state=psi,
        step_pass_probs=probs,
        steps_per_cycle=len(steps),
        cycles=cycles,
    )


def _survivor_walk(
    f: Formula, steps: list[list[int]], cycles: int, probs: np.ndarray
) -> np.ndarray | None:
    """The theta = pi/2 walk of :func:`allpass_trajectory`, from survivor
    counts: writes the pass probabilities into ``probs`` up to the first
    zero and returns the final state, None after a zero."""
    clause_steps = [[f.clauses[i] for i in step] for step in steps]
    survivors = _survivors(f.n, (step for _ in range(cycles) for step in clause_steps))
    cand = next(survivors)
    for j, after in enumerate(survivors):
        probs[j] = after.size / cand.size
        cand = after
    if not cand.size:
        return None
    psi = np.zeros(1 << f.n)
    psi[cand] = 1.0 / math.sqrt(cand.size)
    return psi


def _check_walk(
    f: Formula, cfg: PrepConfig, steps: list[list[int]], cycles: int, probs: np.ndarray
) -> np.ndarray | None:
    """The checked walk of :func:`allpass_trajectory` in the sparse frame:
    writes the pass probabilities into ``probs`` up to the first zero and
    returns the final state, None after a zero."""
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
    for c, angle in enumerate(angles):
        if angle != last_angle:
            new_bases, projs = sparse_frame(f, angle)
            rotate_qubits_inplace(psi, _frame_change(bases, new_bases))
            bases, last_angle = new_bases, angle
        norm2 = 1.0  # squared norm of psi
        for j, step in enumerate(steps, c * len(steps)):
            for ci in step:
                psi = apply_check_unnormalized(psi, projs[ci], out=psi)
            after = float(np.dot(psi, psi))
            p = after / norm2
            if not math.isfinite(p) or 0.0 < min(p, after) < _TINY:
                raise FloatingPointError(
                    f"pass probability {p!r} (squared norm {after!r}) at measurement "
                    f"{j} cannot be renormalized"
                )
            probs[j] = min(p, 1.0)
            if p == 0.0:
                return None
            norm2 = after
            if norm2 < _SQRT_TINY:
                np.divide(psi, math.sqrt(norm2), out=psi)
                norm2 = 1.0
        np.divide(psi, math.sqrt(norm2), out=psi)
    rotate_qubits_inplace(psi, _frame_change(bases, (None,) * f.n))
    norm = math.sqrt(float(np.dot(psi, psi)))
    if not abs(norm - 1.0) <= _NORM_DRIFT:
        raise FloatingPointError(f"final state has norm {norm!r}, not 1")
    return psi


class TraceWriter:
    """Streams one CSV row per performed clause/layer measurement.

    Sequential plans use the clause index as the check id, layered plans the
    layer index.  Only completed preparations are logged, each under the
    index the :class:`Preparer` gives it, so a run cut short by the budget
    ends the trace at the previous preparation.
    """

    COLUMNS = ("preparation", "attempt", "cycle", "check", "outcome", "probability")

    def __init__(self, fh):
        self._writer = csv.writer(fh)
        self._writer.writerow(self.COLUMNS)

    def emit_attempt(
        self, traj: Trajectory, preparation: int, attempt: int, fail_pos: int | None
    ) -> None:
        spc = max(traj.steps_per_cycle, 1)
        end = traj.length if fail_pos is None else fail_pos + 1
        for pos in range(end):
            p_pass = float(traj.step_pass_probs[pos])
            failed = fail_pos is not None and pos == fail_pos
            self._writer.writerow(
                [
                    preparation,
                    attempt,
                    pos // spc,
                    pos % spc,
                    "fail" if failed else "pass",
                    f"{(1.0 - p_pass) if failed else p_pass:.17g}",
                ]
            )


def _sample_restart_costs(
    traj: Trajectory, rng: np.random.Generator, left: int | None
) -> tuple[int, np.ndarray, int]:
    """Sample the failed attempts that precede a successful one.

    Returns (restarts, counts, cost): ``counts[j]`` failed attempts ended at
    measurement j, and ``cost`` is their measurements.  Every failed attempt
    costs at least one measurement, so at most ``left``, the budget that is
    left (None: no budget), are drawn: a run could never pay for more.  A
    success probability below 1e-12 is unobservable, so every attempt the
    budget can pay for is taken to fail; with no budget, BudgetExhausted is
    raised before anything is drawn.
    """
    length = traj.length
    if length == 0:
        return 0, np.zeros(0, dtype=np.int64), 0
    p_s = traj.success_probability
    if p_s >= _MIN_GEOMETRIC_P:
        restarts = int(rng.geometric(p_s)) - 1
    elif left is None:
        raise BudgetExhausted(f"success probability {p_s:.3g} is unobservable, with no budget")
    else:
        restarts = left
    n_fail = restarts if left is None else min(restarts, left)
    pmf = traj.failure_pmf
    if n_fail and pmf is not None:
        counts = rng.multinomial(n_fail, pmf)
    else:
        counts = np.zeros(length, dtype=np.int64)
    # Python integers: n_fail * length can exceed int64.  The failing
    # measurement at position j is the (j+1)-th of its attempt.
    cost = sum(c * (pos + 1) for pos, c in enumerate(counts.tolist()))
    return restarts, counts, cost


class Preparer:
    """Prepares ground-space approximations and keeps a run's state.

    One instance serves every preparation of a solve run; its ``cfg`` and
    ``rng`` are the run's only configuration and generator.  The
    convergence-rate input (:meth:`mu`) and the trajectory are computed once
    per distinct formula (and cycle count) and reused, Monte Carlo restart
    counts are sampled fresh on every call, and every measurement, the
    readouts' shots included, is counted by :meth:`spend` in ``used``
    against ``budget`` (None: no limit), the only rule that ends a run.
    ``preparations`` and ``restarts`` count the completed preparations,
    which the trace is numbered by, and their failed attempts.
    """

    def __init__(
        self,
        cfg: PrepConfig,
        rng: np.random.Generator,
        budget: int | None = None,
        trace: TraceWriter | None = None,
    ):
        self.cfg = cfg
        self.rng = rng
        self.budget = budget
        self.used = 0
        self.trace = trace
        self.preparations = 0
        self.restarts = 0
        self._mus: dict[Formula, float] = {}
        # Orders the failures of a traced preparation; a stream of its own
        # keeps a traced run's draws identical to an untraced one's.
        self._trace_rng = rng.spawn(1)[0] if trace is not None else None
        self._trajectories: dict[tuple[Formula, int], Trajectory] = {}

    def spend(self, count: int) -> None:
        """Count measurements; past the budget, raise BudgetExhausted."""
        self.used += int(count)
        if self.budget is not None and self.used > self.budget:
            self.used = self.budget  # the run halts the moment the budget is hit
            raise BudgetExhausted(f"measurement budget {self.budget} exhausted")

    def mu(self, f: Formula) -> float:
        """The convergence-rate input for ``f``, resolved once per formula."""
        if f not in self._mus:
            self._mus[f] = resolve_mu(f, self.cfg)
        return self._mus[f]

    def trajectory(self, f: Formula, epsilon: float) -> Trajectory:
        """The all-pass trajectory that prepares ``f`` to tolerance
        ``epsilon``; a schedule fixes its cycle count and ignores
        ``epsilon``."""
        if self.cfg.is_scheduled:
            cycles = self.cfg.theta.c_q + 1
        else:
            cycles = cycles_required(self.cfg.theta, f.n, epsilon, self.mu(f))
        key = (f, cycles)
        if key not in self._trajectories:
            self._trajectories[key] = allpass_trajectory(f, self.cfg, cycles)
        return self._trajectories[key]

    def prepare(self, traj: Trajectory) -> None:
        """Spend and count one preparation along ``traj``, a formula's
        :meth:`trajectory`, whose final state is the prepared state: its
        sampled failed attempts, then the successful one.  A preparation the
        budget cannot pay for raises BudgetExhausted, with the budget spent,
        and is neither counted nor traced."""
        left = None if self.budget is None else self.budget - self.used
        restarts, counts, cost = _sample_restart_costs(traj, self.rng, left)
        self.spend(cost + traj.length)
        if self.trace is not None:
            # The failures in attempt order: the positions, repeated and
            # permuted, are two int64 arrays of one entry per failure.
            check_alloc(16 * restarts + 8 * traj.length, "trace failure positions")
            positions = self._trace_rng.permutation(np.repeat(np.arange(traj.length), counts))
            for attempt, pos in enumerate(positions):
                self.trace.emit_attempt(traj, self.preparations, attempt, int(pos))
            self.trace.emit_attempt(traj, self.preparations, restarts, None)
        self.preparations += 1
        self.restarts += restarts


def unique_readout_parameters(theta: float, n: int, delta: float) -> tuple[float, float]:
    """(epsilon, copies) for the majority-vote readout of a unique solution;
    the copy count is not rounded.  Raises ValueError for n < 1."""
    check_angle(theta)
    if n < 1:
        raise ValueError(f"readout needs n >= 1 variables, got n = {n}")
    eps = (1.0 - 1.0 / math.sqrt(2.0)) ** 2 / 8.0 * math.sin(theta) ** 2
    return eps, 2.0 * math.log(n / delta) / math.log(2.0 / (1.0 + math.cos(theta) ** 2))


def multiple_readout_parameters(theta: float, n: int, delta: float) -> tuple[float, float]:
    """(epsilon, shots-per-variable) for the variable-by-variable readout;
    the shot count is not rounded.  Raises ValueError for n < 1."""
    check_angle(theta)
    if n < 1:
        raise ValueError(f"readout needs n >= 1 variables, got n = {n}")
    s2 = math.sin(theta) ** 2
    return s2 / 8.0, 8.0 * math.log(2.0 * n / delta) / s2


def readout_unique(f: Formula, delta: float, preparer: Preparer) -> str:
    """Majority-vote readout at the preparer's readout angle; requires the
    caller's promise of a unique solution.  Each copy is one preparation of
    the formula's trajectory, fetched once, and one full basis readout of its
    final state, drawn from the preparer's generator through a CDF built once
    per call and read as an assignment string by
    :func:`mdsat.formula.assignment_from_index`.  The returned assignment is
    verified against the formula."""
    theta = readout_angle(preparer.cfg.theta)
    eps, copies = unique_readout_parameters(theta, f.n, delta)
    # A dead trajectory has no final state, and its first preparation raises
    # before any copy is read.
    traj = preparer.trajectory(f, eps)
    cdf = None if traj.final_state is None else basis_cdf(traj.final_state)
    votes = np.zeros(f.n, dtype=np.int64)
    for _ in range(math.ceil(copies)):
        preparer.prepare(traj)
        preparer.spend(f.n)
        outcome = assignment_from_index(int(sample_basis(cdf, preparer.rng, 1)[0]), f.n)
        votes += [1 if bit == "1" else -1 for bit in outcome]  # +1 on |1>, -1 on |0>
    assignment = "".join("1" if v > 0 else "0" for v in votes)  # tie -> FALSE
    if not evaluate(f, assignment):
        raise ReadoutFailed("majority vote produced a non-satisfying assignment")
    return assignment


def readout_multiple(f: Formula, delta: float, preparer: Preparer) -> str:
    """Variable-by-variable readout, at the preparer's readout angle, for
    instances with any number of solutions.  Fixes each variable from a Z
    estimate on the current first qubit, propagates, and re-encodes the
    shrunken formula.  The shots of one variable all prepare the current
    formula's trajectory, fetched once, and draw from the preparer's
    generator.  A wrong fix is the readout's failure event, which the
    readout detects itself whatever the convergence-rate source: the
    variables fixed so far leave no satisfying assignment, as they do when
    a fix empties a clause.  Reduced formulas inherit their solution sets
    from ``f``'s, read before the first fix: neither check nor μ enumerates."""
    theta = readout_angle(preparer.cfg.theta)
    eps, shots = multiple_readout_parameters(theta, f.n, delta)
    shots = math.ceil(shots)
    sin_t = math.sin(theta)
    f.solutions  # enumerated once, for every attempt
    bits: list[str] = []
    cur = f
    for _ in range(f.n):
        if not any(l.var == 1 for c in cur.clauses for l in c.literals):
            # Unconstrained variable: fixed FALSE by convention, no shots.
            bits.append("0")
            cur = propagate(cur, 1, False)
            continue
        # A dead trajectory has no final state, and its first preparation
        # raises.
        traj = preparer.trajectory(cur, eps)
        p1 = None if traj.final_state is None else prob_one(traj.final_state, 1)
        total = 0
        for _ in range(shots):
            preparer.prepare(traj)
            preparer.spend(1)
            total += 1 if preparer.rng.random() < p1 else -1
        p_hat = total / shots
        value = abs(p_hat + sin_t) > abs(p_hat - sin_t)  # TRUE iff -sin ruled out
        cur = propagate(cur, 1, value)
        if cur is None or cur.solutions.size == 0:
            raise ReadoutFailed(
                f"variables 1..{len(bits) + 1} as fixed leave no satisfying assignment"
            )
        bits.append("1" if value else "0")
    assignment = "".join(bits)
    if not evaluate(f, assignment):
        raise ReadoutFailed("assembled assignment does not satisfy the formula")
    return assignment


@dataclass
class BoundReport:
    """Numeric evaluation of the runtime guarantees (bounds, not predictions)."""

    ln_inv_mu: float
    epsilon: float
    cycle_bound: int
    prep_cost: float
    readout_cost: float
    total_cost: float


def theory_bounds(
    theta: float,
    n: int,
    m: int,
    delta: float,
    mu: float,
    readout: str = "multiple",
) -> BoundReport:
    """Evaluate the preparation/readout cost bounds with constants as stated,
    at the convergence rate ``mu``.

    Every factor comes from a function the run calls: the readout
    parameters, the cycle bound of :func:`cycles_required` and
    :func:`success_probability_floor`.  The paper's worst case bounds
    ln(1/mu) below by gap / (4 g^2), from the uniform gap and the
    non-commutation degree g; that bound is
    ``theory_bounds(..., mu=math.exp(-gap / (4 * g**2)))`` to rounding, and
    the one at mu = 0 when g = 0.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if readout not in ("unique", "multiple"):
        raise ValueError(f"unknown readout {readout!r}")
    parameters = unique_readout_parameters if readout == "unique" else multiple_readout_parameters
    epsilon, readout_cost = parameters(theta, n, delta)
    cycle_bound = cycles_required(theta, n, epsilon, mu)
    amplification = 1.0 / success_probability_floor(theta, n)
    prep_cost = m * cycle_bound * math.log(1.0 / delta) * amplification
    return BoundReport(
        ln_inv_mu=_ln_inv_mu(mu),
        epsilon=epsilon,
        cycle_bound=cycle_bound,
        prep_cost=prep_cost,
        readout_cost=readout_cost,
        total_cost=prep_cost * readout_cost,
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
        data = {"schema": "mdsat-report/2", **asdict(self)}
        if not include_timing:
            data.pop("wall_time_s")
        return json.dumps(data, indent=2)


def solve(
    f: Formula,
    theta: float | Schedule,
    delta: float = 0.1,
    readout: str = "multiple",
    seed: int = 0,
    plan: str = "sequential",
    mu_source: str = "empirical",
    mu: float | None = None,
    budget: int | None = None,
    trace: TextIO | None = None,
) -> RunReport:
    """Run preparation plus readout until a verified assignment or exhaustion.

    The UNSAT verdict is emitted when the measurement budget runs out, or
    when 64 readout attempts fail, before any readout verifies.  The budget
    is at least 1; by default it is ten times :func:`theory_bounds` at the
    convergence rate the run resolves for ``f`` (the user's mu, or a generic
    0.5 under a schedule and for a formula with no satisfying assignment),
    and at least 1000.  At a fixed angle the report gives that mu and the
    cycle count of one attempt at the readout's tolerance whenever the run
    resolved it, which it always has under the default budget; a run with
    its own budget resolves no mu for ``f`` when the multiple readout finds
    variable 1 in no clause, and its report gives None for both.
    ``trace``, an open text stream, receives a CSV log of every preparation
    measurement; the caller opens and closes it.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if budget is not None and budget < 1:
        raise ValueError("budget must be >= 1")
    if readout not in ("unique", "multiple"):
        raise ValueError(f"unknown readout {readout!r}")
    start = time.perf_counter()
    theta_ro = readout_angle(theta)
    cfg = PrepConfig(theta=theta, mu_source=mu_source, mu=mu, plan=plan)
    notes: list[str] = []
    if not cfg.is_scheduled and cfg.mu_source != "user" and f.solutions.size == 0:
        # No ground space to measure a convergence rate against; fall back to
        # a generic user rate so the run can exhaust its budget honestly.
        cfg = replace(cfg, mu_source="user", mu=_GENERIC_MU)
        notes.append("mu fallback: no satisfying assignment found by oracle")

    tracer = TraceWriter(trace) if trace is not None else None
    preparer = Preparer(cfg, np.random.default_rng(seed), budget, tracer)
    if budget is None:
        # Priced at the mu the run prepares f with, resolved here once and
        # reused by the readout; a schedule has no one angle to resolve a mu
        # at, so unless the caller gives one it is priced at the generic mu.
        generic = cfg.is_scheduled and cfg.mu_source != "user"
        est = theory_bounds(
            theta_ro, f.n, max(f.m, 1), delta,
            mu=_GENERIC_MU if generic else preparer.mu(f), readout=readout,
        )
        budget = preparer.budget = max(1000, math.ceil(10.0 * est.total_cost))
    readout_fn = readout_unique if readout == "unique" else readout_multiple
    assignment = None
    attempts = 0
    try:
        while attempts < _MAX_READOUT_ATTEMPTS:
            attempts += 1
            try:
                assignment = readout_fn(f, delta, preparer)
                break
            except ReadoutFailed as exc:
                notes.append(f"readout attempt {attempts} failed: {exc}")
                continue
    except BudgetExhausted as exc:
        notes.append(str(exc))
    # f is prepared at the readout's tolerance only, so this is the cycle
    # count of every attempt; a mu is never resolved for the report alone
    mu_used = None if cfg.is_scheduled else preparer._mus.get(f)
    cycles = None
    if mu_used is not None:
        params = unique_readout_parameters if readout == "unique" else multiple_readout_parameters
        cycles = cycles_required(theta_ro, f.n, params(theta_ro, f.n, delta)[0], mu_used)
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
        plan=plan,
        mu=mu_used,
        mu_source=cfg.mu_source,
        cycles_per_attempt=cycles,
        restarts=preparer.restarts,
        preparations=preparer.preparations,
        readout_attempts=attempts,
        measurements=preparer.used,
        budget=budget,
        seed=seed,
        verified=verified,
        wall_time_s=time.perf_counter() - start,
        notes=notes,
    )
