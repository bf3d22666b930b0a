"""Rotated encoding of CNF into projectors and frustration-free Hamiltonians.

TRUE maps to |theta> = R_Y(+theta)|+> and FALSE to |theta_bar> = R_Y(-theta)|+>
for a rotation angle theta in (0, pi/2]; at theta = pi/2 this is the standard
computational-basis encoding.  Each clause becomes a rank-1 projector onto the
product of perpendicular states at its support: a positive literal contributes
|theta_perp>, a negative literal |theta_bar_perp>.  This rule reproduces, at
theta = pi/2, the projector onto the clause's unique forbidden basis pattern,
the assignment that :func:`mdsat.formula.clause_mask` writes as bits.  Which
projectors commute depends on those assignments alone and is decided in
:mod:`mdsat.phf`, not here.

All amplitudes are real; states carry the sign the R_Y formula gives, with no
re-phasing (|theta_perp> is -|0> at theta = pi/2, which is irrelevant to the
projectors).  At theta = pi/2 the states are the exact basis vectors (the
formula leaves ~1e-16 where 0 belongs), so the check kernel sees exact zero
amplitudes there.  Below pi/2 :func:`sparse_frame` gives each qubit an
orthogonal 2x2 frame that maps the perpendicular state of its majority
literal sign to exactly |0>, so the factors of those literals are exact basis
vectors too; the solver's trajectory and the per-vector convergence rate of
:mod:`mdsat.spectral` run in that frame, entered through :func:`_frame_change`.
Every product state is built by :func:`product_state`.  The factorized
clause-check kernel :func:`apply_check_inplace` sits beside the compiled
:class:`ClauseProjector` format it reads; dense projectors and Hamiltonians
are that kernel applied to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import check_alloc
from .formula import Clause, Formula, assignment_from_index


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
    """Rank-1 projector |u><u| on ``support`` tensored with identity.

    ``view_shape``, ``patterns`` and ``loop_order`` are compiled once, at
    construction, for their one reader, the check kernel
    :func:`apply_check_inplace`.  A state of length 2^n reshaped to
    ``view_shape`` (any batch axes appended) gives each support qubit its own
    length-2 axis.  ``patterns`` lists, in lexicographic order of the support
    bits b, the index of the slice psi_b in that view and the amplitude
    u_b = prod_q u_q[b_q] of every pattern with u_b != 0.0.

    A pattern slice of a 1-D state has k + 1 free axes, the last one its
    contiguous run of D = 2^(n - support[-1]) amplitudes; numpy runs one
    inner loop per run.  ``loop_order`` is the permutation of those axes
    that moves the long axis (at least 16 entries) of smallest stride to the
    end, so that the inner loop runs along it instead.  It is set only for
    checks with more than one pattern whose runs are short (D = 2 or 4) and
    that have such an axis; otherwise it is None.  Runs of 1 are merged by
    numpy into one strided axis already, and runs of 8 or more measured
    slower reordered.
    """

    n: int
    support: tuple[int, ...]  # 1-based qubit indices, strictly increasing
    factors: tuple[np.ndarray, ...]  # one unit 2-vector per support qubit
    view_shape: tuple[int, ...] = field(init=False, repr=False)
    patterns: tuple[tuple[tuple, float], ...] = field(init=False, repr=False)
    loop_order: tuple[int, ...] | None = field(init=False, repr=False)

    def __post_init__(self):
        shape, prev = [], 0
        for q in self.support:
            shape += [1 << (q - 1 - prev), 2]
            prev = q
        shape.append(1 << (self.n - prev))
        patterns = []
        k = len(self.support)
        for code in range(1 << k):  # the first support bit is the most significant
            bits = [(code >> (k - 1 - j)) & 1 for j in range(k)]
            a = 1.0
            for u, b in zip(self.factors, bits):
                a *= float(u[b])
            if a != 0.0:
                patterns.append((tuple(x for b in bits for x in (slice(None), b)), a))
        free = shape[::2]  # the axes of a pattern slice; the last is its run
        loop_order = None
        if len(patterns) > 1 and free[-1] in (2, 4):
            long = [j for j, size in enumerate(free[:-1]) if size >= 16]
            if long:
                inner = long[-1]  # axes further right have smaller strides
                loop_order = tuple(j for j in range(len(free)) if j != inner) + (inner,)
        object.__setattr__(self, "view_shape", tuple(shape))
        object.__setattr__(self, "patterns", tuple(patterns))
        object.__setattr__(self, "loop_order", loop_order)

    @property
    def width(self) -> int:
        return len(self.support)


def apply_check_inplace(psi: np.ndarray, proj: ClauseProjector) -> None:
    """psi <- (I - |u><u|) psi for a C-contiguous ``psi`` of shape (2^n, *batch).

    ``psi`` is viewed in the projector's compiled ``view_shape``, which
    splits it into 2^k support slices psi_b (views), and only the compiled
    ``patterns`` are visited: those with u_b != 0.0, since the others add
    nothing to w and are left unchanged.  With u_b the amplitude of |u> on
    the support pattern b, w = sum_b u_b psi_b and then psi_b -= u_b w.  A
    check with one pattern and u_b = +-1 sets its slice to 0.0, which is bit
    for bit what w and the subtraction give on a finite state; this covers
    every check at theta = pi/2, and in the sparse frame every clause whose
    literals all have their variable's majority sign.  Below pi/2 no
    amplitude of a computational-basis projector is zero and every pattern is
    visited; in the sparse frame every majority-sign literal halves the
    patterns.

    On a 1-D state the slices are transposed by the compiled ``loop_order``
    when it is set, and every ufunc iterates them in that C order, with w
    and its scratch contiguous in it, so the inner loops run along a long
    axis rather than along runs of 2 or 4.  Each element sees the same
    operations in the same order, so the result is the same bit for bit.
    A batch ends in long contiguous axes already and keeps the memory order.
    """
    t = psi.reshape(proj.view_shape + psi.shape[1:])
    patterns = proj.patterns
    if len(patterns) == 1 and abs(patterns[0][1]) == 1.0:
        t[patterns[0][0]] = 0.0
        return
    slices = [t[i] for i, _ in patterns]
    if psi.ndim == 1 and proj.loop_order is not None:
        slices = [s.transpose(proj.loop_order) for s in slices]
    amps = [a for _, a in patterns]
    w = np.multiply(amps[0], slices[0], order="C")
    tmp = np.empty_like(w)
    for a, s in zip(amps[1:], slices[1:]):
        w += np.multiply(s, a, out=tmp, order="C")
    for a, s in zip(amps, slices):
        np.subtract(s, np.multiply(w, a, out=tmp, order="C"), out=s, order="C")


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


def _frame_change(old, new) -> dict[int, np.ndarray]:
    """Per-qubit rotations B_q(new) B_q(old)^T between two frames of
    :func:`sparse_frame`, ``(None,) * n`` being the computational basis,
    leaving out the qubits that are the identity in both."""
    eye = np.eye(2)
    return {
        q: (eye if b_new is None else b_new) @ (eye if b_old is None else b_old).T
        for q, (b_old, b_new) in enumerate(zip(old, new), start=1)
        if b_old is not None or b_new is not None
    }


def product_state(factors) -> np.ndarray:
    """The product of the single-qubit states ``factors`` (qubit 1 first),
    built in place in the one array it returns."""
    n = len(factors)
    check_alloc(8 << n, "product state")
    psi = np.empty(1 << n)
    psi[0] = 1.0
    size = 1
    for v in reversed(factors):  # each qubit lands on the next higher bit
        np.multiply(psi[:size], v[1], out=psi[size : 2 * size])
        psi[:size] *= v[0]
        size *= 2
    return psi


def theta_string_state(assignment: str, theta: float) -> np.ndarray:
    """Rotated product state encoding ``assignment``; length 2^n, unit norm."""
    up, down, _, _ = single_qubit_states(theta)
    return product_state([up if bit == "1" else down for bit in assignment])


def dense_projector(proj: ClauseProjector) -> np.ndarray:
    """The 2^n x 2^n matrix of a clause projector, I - C(I)."""
    check_alloc(16 << 2 * proj.n, "dense projector")  # C(I) and I
    c = np.eye(1 << proj.n)
    apply_check_inplace(c, proj)
    return np.subtract(np.eye(1 << proj.n), c, out=c)


def hamiltonian_matrix(f: Formula, theta: float) -> np.ndarray:
    """Dense H(theta) = sum of clause projectors; symmetric PSD; its kernel is
    spanned by the rotated solution states."""
    check_alloc(24 << 2 * f.n, "dense Hamiltonian")  # the sum and one dense_projector
    check_angle(theta)
    dim = 1 << f.n
    h = np.zeros((dim, dim))
    for proj in clause_projectors(f, theta):
        h += dense_projector(proj)
    return h


def ground_space_basis(f: Formula, theta: float) -> np.ndarray:
    """Orthonormal basis Q (2^n x d_sol) of the span of the rotated solution
    states: the QR factor of the states side by side.

    Its width equals the number of satisfying assignments, read from
    :attr:`Formula.solutions` (the rotation preserves the ground-space
    dimension for theta in (0, pi/2])."""
    check_angle(theta)
    sols = f.solutions
    if sols.size == 0:
        raise Unsatisfiable("formula has no satisfying assignment")
    check_alloc(sols.size * 40 << f.n, "ground-space basis")  # states, QR copies, Q
    cols = np.column_stack(
        [theta_string_state(assignment_from_index(int(s), f.n), theta) for s in sols]
    )
    q, _ = np.linalg.qr(cols)
    return q


def ground_space_projector(f: Formula, theta: float) -> np.ndarray:
    """Dense orthogonal projector Q Q^T onto the span of the rotated solution
    states (:func:`ground_space_basis`), formed while Q is held."""
    check_alloc((5 * f.solutions.size + (1 << f.n)) * 8 << f.n, "ground-space projector")
    q = ground_space_basis(f, theta)
    return q @ q.T
