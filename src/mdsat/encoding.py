"""Rotated encoding of CNF into projectors and frustration-free Hamiltonians.

TRUE maps to |theta> = R_Y(+theta)|+> and FALSE to |theta_bar> = R_Y(-theta)|+>
for a rotation angle theta in (0, pi/2]; at theta = pi/2 this is the standard
computational-basis encoding.  Each clause becomes a rank-1 projector onto the
product of perpendicular states at its support: a positive literal contributes
|theta_perp>, a negative literal |theta_bar_perp>.  This rule reproduces, at
theta = pi/2, the projector onto the clause's unique forbidden basis pattern.

All amplitudes are real; states carry the sign the R_Y formula gives, with no
re-phasing (|theta_perp> is -|0> at theta = pi/2, which is irrelevant to the
projectors).  At theta = pi/2 the states are the exact basis vectors (the
formula leaves ~1e-16 where 0 belongs), so the check kernel sees exact zero
amplitudes there.  Below pi/2 :func:`sparse_frame` gives each qubit an
orthogonal 2x2 frame that maps the perpendicular state of its majority
literal sign to exactly |0>, so the factors of those literals are exact basis
vectors too; the solver's trajectory runs in that frame.  Dense projectors
and Hamiltonians are built by applying the factorized check kernel of
:mod:`mdsat.statevec` to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DENSE_CAP, STATE_CAP, check_cap
from .formula import Clause, Formula, solution_indices


class Unsatisfiable(ValueError):
    """Raised when an operation requires a satisfiable formula."""


def check_angle(theta: float) -> float:
    if not 0.0 < theta <= np.pi / 2:
        raise ValueError(f"rotation angle must lie in (0, pi/2], got {theta}")
    return float(theta)


def ry(angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -s], [s, c]])


_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def single_qubit_states(theta: float):
    """(|theta>, |theta_bar>, |theta_perp>, |theta_bar_perp>).

    Pairwise overlaps: <theta|theta_perp> = <theta_bar|theta_bar_perp> = 0,
    <theta|theta_bar> = <theta_perp|theta_bar_perp> = cos(theta),
    <theta|theta_bar_perp> = <theta_bar|theta_perp> = sin(theta).
    Exact basis vectors at theta = pi/2: (|1>, |0>, -|0>, |1>).
    """
    check_angle(theta)
    if theta == np.pi / 2:
        return tuple(np.array(v) for v in ([0.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]))
    return (
        ry(theta) @ _PLUS,
        ry(-theta) @ _PLUS,
        ry(np.pi + theta) @ _PLUS,
        ry(np.pi - theta) @ _PLUS,
    )


@dataclass(frozen=True, eq=False)
class ClauseProjector:
    """Rank-1 projector |u><u| on ``support`` tensored with identity."""

    n: int
    support: tuple[int, ...]  # 1-based qubit indices, strictly increasing
    factors: tuple[np.ndarray, ...]  # one unit 2-vector per support qubit

    @property
    def width(self) -> int:
        return len(self.support)


def clause_compat_string(clause: Clause, n: int) -> str:
    """The clause's length-n compatibility string over {0,1,I}: the forbidden
    assignment bit on the support ('0' for a positive literal, '1' for a
    negative one), 'I' elsewhere.  Two clause projectors commute iff their
    compatibility strings are compatible (:func:`mdsat.phf.compatible`)."""
    chars = ["I"] * n
    for lit in clause.literals:
        if lit.var > n:
            raise ValueError(f"literal variable {lit.var} beyond n={n}")
        chars[lit.var - 1] = "1" if lit.negated else "0"
    return "".join(chars)


def clause_projector(clause: Clause, theta: float, n: int) -> ClauseProjector:
    _, _, perp, bar_perp = single_qubit_states(theta)
    return ClauseProjector(
        n=n,
        support=clause.variables(),
        factors=tuple(bar_perp if lit.negated else perp for lit in clause.literals),
    )


def clause_projectors(f: Formula, theta: float) -> tuple[ClauseProjector, ...]:
    return tuple(clause_projector(c, theta, f.n) for c in f.clauses)


def sparse_frame(f: Formula, theta: float):
    """(bases, projectors): a per-qubit orthogonal frame and ``f``'s clause
    projectors written in it.

    ``bases[q - 1]`` is the 2x2 matrix B_q with rows (<a_perp|, <a|), where a
    is |theta> or |theta_bar> for the literal sign that occurs most often on
    variable q (a tie picks positive), or None for the identity: for a
    variable that occurs nowhere, and for every variable at theta = pi/2,
    where the projectors are those of :func:`clause_projectors`.  A state psi
    reads (x)_q B_q psi in the frame, and a check C reads B C B^T, so every
    pass probability is the same in both.  A majority-sign literal's factor
    is exactly (1, 0), set here rather than computed, so the check kernel
    skips every support pattern with a 1 on its qubit; a minority literal's
    is B_q |s_perp> = (cos theta, +-sin theta).
    """
    check_angle(theta)
    if theta == np.pi / 2:
        return (None,) * f.n, clause_projectors(f, theta)
    up, down, perp, bar_perp = single_qubit_states(theta)
    counts = np.zeros((f.n, 2), dtype=np.int64)  # (positive, negative) occurrences
    for clause in f.clauses:
        for lit in clause.literals:
            counts[lit.var - 1, int(lit.negated)] += 1
    negated = counts[:, 1] > counts[:, 0]
    bases = tuple(
        None if not c.any() else np.array([bar_perp, down] if neg else [perp, up])
        for c, neg in zip(counts, negated)
    )
    majority = np.array([1.0, 0.0])

    def factor(lit):
        if lit.negated == negated[lit.var - 1]:
            return majority
        return bases[lit.var - 1] @ (bar_perp if lit.negated else perp)

    projs = tuple(
        ClauseProjector(f.n, c.variables(), tuple(factor(lit) for lit in c.literals))
        for c in f.clauses
    )
    return bases, projs


def theta_string_state(assignment: str, theta: float) -> np.ndarray:
    """Rotated product state encoding ``assignment``; length 2^n, unit norm."""
    up, down, _, _ = single_qubit_states(theta)
    check_cap(len(assignment), STATE_CAP, "rotated product state")
    state = np.array([1.0])
    for bit in assignment:
        state = np.kron(state, up if bit == "1" else down)
    return state


def dense_projector(proj: ClauseProjector) -> np.ndarray:
    """The 2^n x 2^n matrix of a clause projector, I - C(I)."""
    from .statevec import apply_check_inplace  # statevec imports this module

    check_cap(proj.n, DENSE_CAP, "dense projector")
    c = np.eye(1 << proj.n)
    apply_check_inplace(c, proj)
    return np.eye(1 << proj.n) - c


def hamiltonian_matrix(f: Formula, theta: float) -> np.ndarray:
    """Dense H(theta) = sum of clause projectors; symmetric PSD; its kernel is
    spanned by the rotated solution states."""
    check_cap(f.n, DENSE_CAP, "dense Hamiltonian")
    check_angle(theta)
    dim = 1 << f.n
    h = np.zeros((dim, dim))
    for proj in clause_projectors(f, theta):
        h += dense_projector(proj)
    return h


def ground_space_basis(f: Formula, theta: float) -> np.ndarray:
    """Orthonormal basis Q (2^n x d_sol) of the span of the rotated solution
    states: the QR factor of the states side by side.

    Its width equals the number of satisfying assignments (the rotation
    preserves the ground-space dimension for theta in (0, pi/2])."""
    check_angle(theta)
    sols = solution_indices(f)
    if sols.size == 0:
        raise Unsatisfiable("formula has no satisfying assignment")
    cols = np.column_stack(
        [theta_string_state(format(int(s), f"0{f.n}b"), theta) for s in sols]
    )
    q, _ = np.linalg.qr(cols)
    return q


def ground_space_projector(f: Formula, theta: float) -> np.ndarray:
    """Dense orthogonal projector Q Q^T onto the span of the rotated solution
    states (:func:`ground_space_basis`)."""
    check_cap(f.n, DENSE_CAP, "ground-space projector")
    q = ground_space_basis(f, theta)
    return q @ q.T
