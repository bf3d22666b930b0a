"""Exact spectral analysis of the clause checks.

Computes, each one way, the Hamiltonian gap, the uniform gap over clause
subsets, the empirical convergence rate mu of the check product, the
structural non-commutation degree g and the generalized Friedrichs angle c of
the layer images; :func:`spectral_report` gathers them with the slack of every
inequality that ties them together: the detectability lemma (upper) and the
quantum union bound (lower) on mu, the closed-form gap lower bound, and the
alternating-projections speed bound.

Every gap, of H or of a clause subset's Hamiltonian, is the first eigenvalue
above a kernel whose dimension is that clause set's solution count.

The gaps and c diagonalize dense 2^n x 2^n matrices, so they stop where the
memory budget of :mod:`mdsat.config` does.  mu is the top singular value of
the check product off the ground space, from a thick-restart Lanczos
eigensolver that only needs products with vectors and stops at the first step
whose top Ritz value has converged, by its residual or by the Kato-Temple
estimate residual^2 / Ritz gap: above n = _ASSEMBLE_MAX_N it applies the
check kernel to one vector at a time in the solver's sparse frame, holding
vectors only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import check_alloc
from .encoding import (
    Unsatisfiable,
    _frame_change,
    apply_check_inplace,
    check_angle,
    clause_projectors,
    dense_projector,
    ground_space_basis,
    ground_space_projector,
    hamiltonian_matrix,
    sparse_frame,
)
from .formula import Formula, violation_rows
from .phf import Layer, build_layers, layered_order, noncommuting_degree
from .statevec import product_operator, rotate_qubits_inplace

_GROUND_TOL = 1e-10
_UNIFORM_EXACT_M = 12  # largest clause count whose 2^m - 1 subsets are all solved
_UNIFORM_SAMPLES = 512
_SPEED_R_MAX = 10
# Largest n whose mu operator is assembled densely; up to it the per-vector
# route is bound by Python overhead.  One mu at theta = 0.4 pi on a 2-vCPU
# host (seed 1, best of 5), assembled against per vector:
#   planted_unique 8/34, d = 1:     8.2 ms against 14.3 ms
#   random_ksat 8/9, d = 74:        8.0 ms against 10.9 ms
#   planted_unique 9/39, d = 1:    27.9 ms against 23.9 ms
#   random_ksat 9/10, d = 130:     22.7 ms against 18.5 ms
#   planted_unique 10/43, d = 1:  128.7 ms against 23.6 ms
_ASSEMBLE_MAX_N = 8
_LANCZOS_BASIS = 30  # Krylov vectors per restart
_LANCZOS_KEEP = 10  # Ritz vectors kept across a restart
_LANCZOS_TOL = 1e-13  # residual of the top Ritz pair; the operator has norm <= 1
_LANCZOS_GAP_TOL = 1e-16  # residual^2 / Ritz gap, the estimated eigenvalue error
_LANCZOS_MAX_RESTARTS = 200


def _gap_above_kernel(h: np.ndarray, d: int) -> float:
    """Smallest eigenvalue of the frustration-free clause-set Hamiltonian h
    above its kernel, whose dimension d is the clause set's solution count,
    so the gap is read off as the next eigenvalue rather than thresholded."""
    eigs = np.linalg.eigvalsh(h)
    if eigs[d - 1] > _GROUND_TOL:
        raise AssertionError(f"ground energy {eigs[d - 1]:.3e} not frustration-free")
    if d == eigs.size:
        raise ValueError("Hamiltonian has no nonzero eigenvalue (no clauses)")
    return float(eigs[d])


def spectral_gap(f: Formula, theta: float) -> float:
    """Smallest nonzero eigenvalue of H(theta); its kernel dimension is the
    brute-force solution count."""
    check_angle(theta)
    d_sol = f.solutions.size
    if d_sol == 0:
        raise Unsatisfiable("no zero-energy state: formula is unsatisfiable")
    check_alloc(24 << 2 * f.n, "spectral gap")  # as hamiltonian_matrix
    return _gap_above_kernel(hamiltonian_matrix(f, theta), d_sol)


def gap_lower_bound(theta: float, n: int, k: int) -> float:
    """sin^(2k)(theta) * ((1-cos theta)/(1+cos theta))^n."""
    c = math.cos(theta)
    return math.sin(theta) ** (2 * k) * ((1 - c) / (1 + c)) ** n


@dataclass(frozen=True)
class UniformGapEstimate:
    value: float
    exact: bool


def uniform_gap(f: Formula, theta: float) -> UniformGapEstimate:
    """Minimum gap over all nonempty clause subsets, each read above a kernel
    pinned by the subset's solution count (from clause violation rows).

    Exact up to 12 clauses (2^m - 1 diagonalizations); beyond that the
    minimum over 512 random subsets, drawn from ``default_rng(0)`` so the
    estimate is reproducible, is returned and flagged non-exact.  The sampled
    minimum can only overestimate the true uniform gap.
    """
    check_angle(theta)
    if f.m == 0:
        raise ValueError("uniform gap undefined for an empty clause list")
    if f.solutions.size == 0:
        raise Unsatisfiable("uniform gap requires a satisfiable formula")
    # m projectors, a sum, its copy; violation rows twice, indices, a temporary
    check_alloc(((f.m + 2) * 8 << 2 * f.n) + ((2 * f.m + 16) << f.n), "uniform gap")
    dense = [dense_projector(p) for p in clause_projectors(f, theta)]
    violates = violation_rows(f)
    exact = f.m <= _UNIFORM_EXACT_M
    if exact:
        subsets = [s for r in range(1, f.m + 1) for s in itertools.combinations(range(f.m), r)]
    else:
        rng = np.random.default_rng(0)
        subsets = [
            rng.choice(f.m, size=int(rng.integers(1, f.m + 1)), replace=False)
            for _ in range(_UNIFORM_SAMPLES)
        ]
    best = math.inf
    for subset in subsets:
        d = (1 << f.n) - int(np.count_nonzero(violates[list(subset)].any(axis=0)))
        best = min(best, _gap_above_kernel(sum(dense[i] for i in subset), d))
    return UniformGapEstimate(value=best, exact=exact)


def _lanczos_max(matvec, dim: int) -> float:
    """Largest eigenvalue of the symmetric PSD operator ``matvec`` on R^dim,
    of norm at most 1, by thick-restart Lanczos with full reorthogonalization.

    Each restart keeps the _LANCZOS_KEEP largest Ritz vectors of a
    _LANCZOS_BASIS-vector Krylov basis (Wu & Simon, SIAM J. Matrix Anal.
    Appl. 22, 2000), so a near-degenerate top of the spectrum converges as a
    cluster.  The start vector is drawn from PCG64(0).

    After every step the top Ritz pair (rho_1, residual r) is tested, and
    rho_1 is returned once r <= _LANCZOS_TOL or, with a second Ritz value
    rho_2, once r^2 / (rho_1 - rho_2) <= _LANCZOS_GAP_TOL.  The second test
    is the Kato-Temple bound (Parlett, The Symmetric Eigenvalue Problem, SIAM
    1998) with the Ritz gap rho_1 - rho_2 standing in for the true gap to
    the rest of the spectrum, so it is an estimate of the eigenvalue's error,
    not a bound; a near-degenerate top has a small Ritz gap and so asks for
    a smaller residual.  A breakdown (an invariant subspace, r = 0) returns
    the exact Ritz value, so the zero operator gives 0.0.  Raises LinAlgError
    after _LANCZOS_MAX_RESTARTS restarts.
    """
    size = min(_LANCZOS_BASIS, dim)
    basis = np.empty((size + 1, dim))
    start = np.random.Generator(np.random.PCG64(0)).standard_normal(dim)
    basis[0] = start / np.linalg.norm(start)
    t = np.zeros((size, size))
    kept = 0
    for _ in range(_LANCZOS_MAX_RESTARTS):
        for j in range(kept, size):
            w = matvec(basis[j])
            for _pass in range(2):  # twice is enough (Kahan-Parlett)
                h = basis[: j + 1] @ w
                w -= h @ basis[: j + 1]
                t[j, j] += h[j]
            beta = float(np.linalg.norm(w))
            ritz, s = np.linalg.eigh(t[: j + 1, : j + 1])
            residual = abs(beta * s[-1, -1])
            if residual <= _LANCZOS_TOL or (
                j > 0 and residual**2 <= _LANCZOS_GAP_TOL * (ritz[-1] - ritz[-2])
            ):
                return float(ritz[-1])
            basis[j + 1] = w / beta
            if j + 1 < size:
                t[j, j + 1] = t[j + 1, j] = beta
        kept = min(_LANCZOS_KEEP, size - 1)
        basis[:kept] = s[:, -kept:].T @ basis[:size]
        basis[kept] = basis[size]
        t[:] = 0.0
        t[:kept, :kept] = np.diag(ritz[-kept:])
        t[kept, :kept] = t[:kept, kept] = beta * s[-1, -kept:]
    raise np.linalg.LinAlgError(
        f"Lanczos did not converge in {_LANCZOS_MAX_RESTARTS} restarts"
    )


def convergence_rate(f: Formula, theta: float, order=None) -> float:
    """mu = ||prod C_i - P_GS||_2, the contraction rate off the ground space.

    Satisfies ||(prod C)^r - P_GS|| <= mu^r for every r, since the product
    commutes with P_GS and fixes it.  With Q an orthonormal basis of the
    ground space, prod C - P_GS = A = prod C (I - Q Q^T), and mu is the square
    root of lambda_max(A^T A) from :func:`_lanczos_max`.  Up to n =
    _ASSEMBLE_MAX_N, A is assembled densely (the check kernel applied to the
    identity; three 2^n x 2^n matrices); above it, A applies the checks to one
    vector at a time (A^T: the checks in reverse order, then I - Q Q^T), and
    building Q (five vectors per solution of the formula's one enumerated
    set, :attr:`Formula.solutions`), then the Lanczos basis and a restart's
    Ritz vectors are the peak.  That route runs in the sparse frame
    of :func:`mdsat.encoding.sparse_frame`, with Q rotated into it in place;
    the frame is orthogonal, so mu is the same in both.

    lambda_max is accepted once the top Ritz pair's residual is at most
    _LANCZOS_TOL or its estimated error, residual^2 over the Ritz gap, is at
    most _LANCZOS_GAP_TOL (||A|| <= 1).  The Ritz gap is at most mu^2, so
    near mu = 0 the residual test decides, and a mu below about
    sqrt(_LANCZOS_TOL) ~ 3e-7 is only known to lie below it.
    """
    if f.n <= _ASSEMBLE_MAX_N:
        check_alloc(24 << 2 * f.n, "assembled mu operator")
        # The projector first, so that nothing of this function is held
        # while its QR runs; then the product and its kernel scratch beside
        # it, the difference taken in place.
        g = ground_space_projector(f, theta)
        a = product_operator(f, theta, order)
        np.subtract(a, g, out=a)
        del g

        def normal_matvec(v: np.ndarray) -> np.ndarray:
            return a.T @ (a @ v)

    else:
        vectors = 5 * f.solutions.size + _LANCZOS_BASIS + _LANCZOS_KEEP + 3
        check_alloc(vectors * 8 << f.n, "Lanczos basis and ground-space basis")
        bases, projs = sparse_frame(f, theta)
        q = ground_space_basis(f, theta)
        rotate_qubits_inplace(q, _frame_change((None,) * f.n, bases))
        checks = [projs[i] for i in (range(f.m) if order is None else order)]

        def normal_matvec(v: np.ndarray) -> np.ndarray:
            u = v - q @ (q.T @ v)
            for proj in checks:
                apply_check_inplace(u, proj)
            for proj in reversed(checks):
                apply_check_inplace(u, proj)
            return u - q @ (q.T @ u)

    # A rounding-level Rayleigh quotient of the PSD operator can come out < 0.
    return math.sqrt(max(0.0, _lanczos_max(normal_matvec, 1 << f.n)))


def _projector_range_basis(p: np.ndarray) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(p)
    return eigvecs[:, eigvals > 0.5]


def layer_image_subspaces(f: Formula, theta: float, layers: list[Layer]):
    """Bases of M_i intersect M-perp for the layer images M_i = im(prod C)
    and M the ground space; returns (bases, layer_product_operators, P_GS).

    :func:`friedrichs_speed_slack` reads c off the layer projectors without
    these bases; the only caller is ``perfbench/record_reference.py``, which
    sizes the block Gram matrix from them.
    """
    p_gs = ground_space_projector(f, theta)
    bases = []
    ops = []
    for layer in layers:
        q = product_operator(f, theta, order=layer.members)
        ops.append(q)
        # Members commute, so q is the orthogonal projector onto the layer
        # image; q - P_GS projects onto the part outside the ground space.
        bases.append(_projector_range_basis(q - p_gs))
    return bases, ops, p_gs


def speed_of_convergence_bound(c: float, ell: int, r: int) -> float:
    """(1 - ((1-c)/(4 ell))^2)^(r/2)."""
    base = 1.0 - ((1.0 - c) / (4.0 * ell)) ** 2
    return base ** (r / 2.0)


def friedrichs_speed_slack(f: Formula, theta: float):
    """Minimum slack of the speed-of-convergence bound over r = 1..10 for
    the layered cycle operator; returns (slack, c, ell), with slack and c
    None below two layers, where the Friedrichs angle is undefined.

    c is the generalized Friedrichs angle of the layer images M_i relative to
    the ground space M: with B the orthonormal bases of M_i intersect M-perp
    side by side, c = (lambda_max(B^T B) - 1)/(ell - 1), clamped to [0, 1].
    Each layer product Q_i is the projector onto M_i and P_GS <= Q_i, so
    B B^T = sum_i (Q_i - P_GS); it has the nonzero spectrum of B^T B, and one
    eigensolve of sum_i Q_i - ell P_GS gives lambda_max.
    """
    layers = build_layers(f)
    ell = len(layers)
    if ell < 2:
        return None, None, ell
    check_alloc(40 << 2 * f.n, "Friedrichs angle and speed bound")  # five matrices
    p_gs = ground_space_projector(f, theta)
    images = -ell * p_gs
    for layer in layers:
        images += product_operator(f, theta, order=layer.members)
    lam_max = float(np.linalg.eigvalsh(images)[-1])
    del images
    c = min(1.0, max(0.0, (lam_max - 1.0) / (ell - 1)))
    t = product_operator(f, theta, order=layered_order(layers))
    slack = math.inf
    power = np.eye(1 << f.n)
    for r in range(1, _SPEED_R_MAX + 1):
        power = t @ power
        lhs = float(np.linalg.norm(power - p_gs, 2))
        slack = min(slack, speed_of_convergence_bound(c, ell, r) - lhs)
    return slack, c, ell


@dataclass
class SpectralReport:
    """Every spectral quantity and inequality slack for one (instance, theta)."""

    theta: float
    n: int
    m: int
    k: int
    d_sol: int
    gap: float
    gap_lower_bound: float
    gap_bound_slack: float
    uniform_gap: float | None
    uniform_gap_exact: bool | None
    mu: float
    g: int
    dl_slack: float
    qub_slack: float
    friedrichs_c: float | None = None
    layer_count: int | None = None
    speed_bound_slack: float | None = None


def spectral_report(
    f: Formula,
    theta: float,
    with_uniform: bool = True,
    with_friedrichs: bool = True,
) -> SpectralReport:
    """Every quantity and slack for one (instance, theta); the uniform gap
    and the Friedrichs speed bound are the costly parts and can be skipped.
    A skipped value is None, as are c and the speed slack below two layers.

    dl_slack = 1/sqrt(gap/g^2 + 1) - mu (the detectability-lemma bound is 0
    when g = 0) and qub_slack = mu - (1 - 4 gap); both must be >= -1e-9.
    """
    d_sol = f.solutions.size
    if d_sol == 0:
        raise Unsatisfiable("spectral report requires a satisfiable formula")
    k_eff = f.max_width()
    gap = spectral_gap(f, theta)
    mu = convergence_rate(f, theta)
    g = noncommuting_degree(f)
    dl_upper = 0.0 if g == 0 else 1.0 / math.sqrt(gap / g**2 + 1.0)
    bound = gap_lower_bound(theta, f.n, k_eff)
    uni = None
    uni_exact = None
    if with_uniform:
        est = uniform_gap(f, theta)
        uni, uni_exact = est.value, est.exact
    speed_slack, c_val, layer_count = (
        friedrichs_speed_slack(f, theta) if with_friedrichs else (None, None, None)
    )
    return SpectralReport(
        theta=theta,
        n=f.n,
        m=f.m,
        k=f.k,
        d_sol=d_sol,
        gap=gap,
        gap_lower_bound=bound,
        gap_bound_slack=gap - bound,
        uniform_gap=uni,
        uniform_gap_exact=uni_exact,
        mu=mu,
        g=g,
        dl_slack=dl_upper - mu,
        qub_slack=mu - (1.0 - 4.0 * gap),
        friedrichs_c=c_val,
        layer_count=layer_count,
        speed_bound_slack=speed_slack,
    )
