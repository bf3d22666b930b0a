"""Slow reference implementations that the tests compare mdsat against.

``kron_projector`` builds a clause projector as an explicit Kronecker chain,
independently of the factorized check kernel.  ``friedrichs_angle`` takes the
generalized Friedrichs angle from orthonormal subspace bases (the block-Gram
route), independently of the projector-sum route of
``mdsat.spectral.friedrichs_speed_slack``.  The rest is the naive
per-measurement simulator: one projective clause (or layer) check at a time,
with explicit branch probabilities and renormalized post-measurement states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from mdsat.encoding import ClauseProjector
from mdsat.phf import Layer
from mdsat.statevec import apply_check_unnormalized

_RENORM_DRIFT = 1e-9


def kron_projector(proj: ClauseProjector) -> np.ndarray:
    """The 2^n x 2^n projector |u><u| (x) I as an explicit Kronecker chain."""
    factor_at = dict(zip(proj.support, proj.factors))
    blocks = [
        np.outer(factor_at[q], factor_at[q]) if q in factor_at else np.eye(2)
        for q in range(1, proj.n + 1)
    ]
    return reduce(np.kron, blocks, np.array([[1.0]]))


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
