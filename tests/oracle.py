"""Slow reference implementations that the tests compare mdsat against.

``kron_projector`` builds a clause projector as an explicit Kronecker chain,
independently of the factorized check kernel.  ``friedrichs_angle`` takes the
generalized Friedrichs angle from orthonormal subspace bases (the block-Gram
route), independently of the projector-sum route of
``mdsat.spectral.friedrichs_speed_slack``.  ``dense_convergence_rate`` takes
mu from a dense SVD of the check product minus the ground-space projector,
both built here (the product by ``apply_check_reference``, the projector
from an SVD basis of the rotated solution states), independently of the
assembled operators and the Lanczos eigensolver of
``mdsat.spectral.convergence_rate``.  ``apply_check_reference`` is the check
kernel without its compiled patterns, its loop order or its zeroing branch:
it enumerates the support patterns on every call, iterates the slices in
memory order and always computes w and subtracts, so
``mdsat.statevec.apply_check_inplace`` must match it bit for bit.
``solution_indices_reference`` tests every clause against all 2^n
assignments, one clause at a time, with no compaction or early exit, so
``mdsat.formula.solution_indices`` must return the same array.
``random_satisfiable`` rejection-samples the random satisfiable instances
the tests draw.  The rest is the naive
per-measurement simulator: one projective clause (or layer) check at a time,
with explicit branch probabilities and renormalized post-measurement states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from mdsat.encoding import ClauseProjector, clause_projectors, theta_string_state
from mdsat.formula import (
    _MAX_ATTEMPTS,
    Formula,
    GenerationError,
    _random_clause,
    assignment_from_index,
    clause_mask,
)
from mdsat.phf import Layer
from mdsat.statevec import apply_check_unnormalized

_RENORM_DRIFT = 1e-9


def kron_projector(proj: ClauseProjector, dtype=np.float64) -> np.ndarray:
    """The 2^n x 2^n projector |u><u| (x) I as an explicit Kronecker chain,
    built in ``dtype`` from the projector's float64 factors."""
    factor_at = {q: np.asarray(u, dtype) for q, u in zip(proj.support, proj.factors)}
    blocks = [
        np.outer(factor_at[q], factor_at[q]) if q in factor_at else np.eye(2, dtype=dtype)
        for q in range(1, proj.n + 1)
    ]
    return reduce(np.kron, blocks, np.ones((1, 1), dtype))


def apply_check_reference(psi: np.ndarray, proj: ClauseProjector) -> None:
    """psi <- (I - |u><u|) psi for a C-contiguous ``psi`` of shape (2^n, *batch):
    w = sum_b u_b psi_b over the support patterns b with u_b != 0.0, then
    psi_b -= u_b w, with the patterns and the view rebuilt on every call."""
    shape, prev = [], 0
    for q in proj.support:
        shape += [1 << (q - 1 - prev), 2]
        prev = q
    t = psi.reshape(shape + [1 << (proj.n - prev), *psi.shape[1:]])
    slices, amps = [], []
    for bits in itertools.product((0, 1), repeat=proj.width):
        a = math.prod(u[b] for u, b in zip(proj.factors, bits))
        if a != 0.0:
            slices.append(t[tuple(x for b in bits for x in (slice(None), b))])
            amps.append(a)
    w = amps[0] * slices[0]
    tmp = np.empty_like(w)
    for a, s in zip(amps[1:], slices[1:]):
        w += np.multiply(s, a, out=tmp)
    for a, s in zip(amps, slices):
        s -= np.multiply(w, a, out=tmp)


def solution_indices_reference(f: Formula) -> np.ndarray:
    """Sorted int64 indices of the assignments that violate no clause."""
    idx = np.arange(1 << f.n, dtype=np.int32)
    ok = np.ones(idx.shape, dtype=bool)
    tmp = np.empty_like(idx)
    for c in f.clauses:
        mask, forbidden = clause_mask(c, f.n)
        np.bitwise_and(idx, mask, out=tmp)
        ok &= tmp != forbidden
    return np.flatnonzero(ok)


def random_satisfiable(
    rng: np.random.Generator,
    n: int,
    m: int,
    k: int = 3,
    min_solutions: int = 1,
) -> Formula:
    """Rejection-sample a random k-SAT instance with at least
    ``min_solutions`` satisfying assignments (oracle-checked)."""
    for _ in range(_MAX_ATTEMPTS):
        clauses = tuple(_random_clause(rng, n, k) for _ in range(m))
        f = Formula(n=n, clauses=clauses, k=k)
        if f.solutions.size >= min_solutions:
            return f
    raise GenerationError(f"no satisfiable instance found (n={n}, m={m}, k={k})")


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a @ b - b @ a, 2))


def friedrichs_angle(subspace_bases, ambient_dim: int) -> float:
    """Generalized Friedrichs angle from the block Gram matrix.

    ``subspace_bases``: one orthonormal-column matrix per subspace, spanning
    M_i intersect M-perp.  For ell subspaces the angle equals
    (lambda_max(G) - 1)/(ell - 1), clamped to [0, 1]; it is 0 when every
    block is trivial.  G = B^T B, with B the bases side by side, has the
    nonzero spectrum of B B^T, whose order is ``ambient_dim`` rather than
    the summed subspace dimension, so lambda_max is taken from B B^T.
    """
    ell = len(subspace_bases)
    if ell < 2:
        raise ValueError("need at least two subspaces")
    blocks = [np.asarray(b).reshape(ambient_dim, -1) for b in subspace_bases]
    nonempty = [b for b in blocks if b.shape[1] > 0]
    if not nonempty:
        return 0.0
    b = np.column_stack(nonempty)
    lam_max = float(np.linalg.eigvalsh(b @ b.T)[-1])
    return min(1.0, max(0.0, (lam_max - 1.0) / (ell - 1)))


def dense_convergence_rate(f, theta: float, order=None) -> float:
    """mu = ||prod C_i - P_GS||_2 by a dense SVD.  The product applies
    ``apply_check_reference`` to the identity, ``order[0]`` first; P_GS is
    U U^T for the left singular vectors U of the rotated solution states of
    ``solution_indices_reference`` side by side."""
    projs = clause_projectors(f, theta)
    t = np.eye(1 << f.n)
    for i in range(f.m) if order is None else order:
        apply_check_reference(t, projs[i])
    states = [
        theta_string_state(assignment_from_index(int(s), f.n), theta)
        for s in solution_indices_reference(f)
    ]
    u = np.linalg.svd(np.column_stack(states), full_matrices=False)[0]
    return float(np.linalg.norm(t - u @ u.T, 2))


def apply_projector(psi: np.ndarray, proj: ClauseProjector) -> np.ndarray:
    """P|psi> (unnormalized)."""
    return psi - apply_check_unnormalized(psi, proj)


def fail_weight(psi: np.ndarray, proj: ClauseProjector) -> float:
    """||P psi||^2."""
    failed = apply_projector(psi, proj)
    return float(np.dot(failed, failed))


def clause_check_probabilities(psi: np.ndarray, proj: ClauseProjector):
    """(p_fail, p_pass) of the clause check on a normalized state."""
    p_fail = min(fail_weight(psi, proj), 1.0)
    return p_fail, 1.0 - p_fail


def apply_pass(psi: np.ndarray, proj: ClauseProjector) -> np.ndarray:
    """Post-measurement state of the passed branch, renormalized."""
    out = apply_check_unnormalized(psi, proj)
    p_pass = float(np.dot(out, out))
    if p_pass <= 1e-15:
        raise ZeroDivisionError("pass branch has zero probability")
    if abs(p_pass - 1.0) > _RENORM_DRIFT:
        out = out / np.sqrt(p_pass)
    return out


def apply_fail(psi: np.ndarray, proj: ClauseProjector) -> np.ndarray:
    """Post-measurement state of the failed branch, renormalized."""
    out = apply_projector(psi, proj)
    p_fail = float(np.dot(out, out))
    if p_fail <= 1e-15:
        raise ZeroDivisionError("fail branch has zero probability")
    return out / np.sqrt(p_fail)


@dataclass(frozen=True)
class MeasurementOutcome:
    passed: bool
    probability: float
    post_state: np.ndarray


def check_clause(
    psi: np.ndarray, proj: ClauseProjector, rng: np.random.Generator
) -> MeasurementOutcome:
    """Sample one projective clause check {C, P} on a normalized state."""
    p_fail, p_pass = clause_check_probabilities(psi, proj)
    if rng.random() < p_fail:
        return MeasurementOutcome(False, p_fail, apply_fail(psi, proj))
    return MeasurementOutcome(True, p_pass, apply_pass(psi, proj))


def layer_check_probabilities(psi: np.ndarray, layer: Layer, projectors):
    """Two-outcome layer measurement {prod C_i, I - prod C_i}.

    Returns (p_pass, pass_state, fail_state); a zero-probability branch's
    state is None.  The pass branch applies the member checks in any order
    (they commute).
    """
    passed = psi
    for ci in layer.members:
        passed = apply_check_unnormalized(passed, projectors[ci])
    p_pass = float(np.dot(passed, passed))
    failed = psi - passed
    p_fail = float(np.dot(failed, failed))
    pass_state = passed / np.sqrt(p_pass) if p_pass > 1e-15 else None
    fail_state = failed / np.sqrt(p_fail) if p_fail > 1e-15 else None
    return min(p_pass, 1.0), pass_state, fail_state
