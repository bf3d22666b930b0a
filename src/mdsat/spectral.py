"""Exact spectral analysis at small n.

Computes, each one way, the Hamiltonian gap, the uniform gap over clause
subsets, the empirical convergence rate mu of the check product, the
structural non-commutation degree g and the generalized Friedrichs angle c of
the layer images; :func:`spectral_report` gathers them with the slack of every
inequality that ties them together: the detectability lemma (upper) and the
quantum union bound (lower) on mu, the closed-form gap lower bound, and the
alternating-projections speed bound.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .encoding import (
    Unsatisfiable,
    check_angle,
    clause_projectors,
    dense_projector,
    ground_space_projector,
    hamiltonian_matrix,
)
from .formula import Formula, count_solutions
from .phf import Layer, build_layers, layered_order, noncommuting_degree
from .statevec import product_operator

_ZERO_TOL = 1e-9
_GROUND_TOL = 1e-10
_UNIFORM_EXACT_M = 12  # largest clause count whose 2^m - 1 subsets are all solved
_UNIFORM_SAMPLES = 512
_SPEED_R_MAX = 10


def spectral_gap(f: Formula, theta: float) -> float:
    """Smallest nonzero eigenvalue of H(theta).

    The kernel dimension is pinned by the brute-force solution count, so the
    gap is read off as the next eigenvalue rather than thresholded.
    """
    check_angle(theta)
    d_sol = count_solutions(f)
    if d_sol == 0:
        raise Unsatisfiable("no zero-energy state: formula is unsatisfiable")
    h = hamiltonian_matrix(f, theta)
    eigs = np.linalg.eigvalsh(h)
    if eigs[d_sol - 1] > _GROUND_TOL:
        raise AssertionError(
            f"ground energy {eigs[d_sol - 1]:.3e} not frustration-free"
        )
    if d_sol == eigs.size:
        raise ValueError("Hamiltonian has no nonzero eigenvalue (no clauses)")
    return float(eigs[d_sol])


def gap_lower_bound(theta: float, n: int, k: int) -> float:
    """sin^(2k)(theta) * ((1-cos theta)/(1+cos theta))^n."""
    c = math.cos(theta)
    return math.sin(theta) ** (2 * k) * ((1 - c) / (1 + c)) ** n


def _subset_gap(projs_dense: list[np.ndarray], subset) -> float:
    h = sum(projs_dense[i] for i in subset)
    eigs = np.linalg.eigvalsh(h)
    positive = eigs[eigs > _ZERO_TOL]
    if positive.size == 0:
        raise ValueError("subset Hamiltonian has no nonzero eigenvalue")
    return float(positive[0])


@dataclass(frozen=True)
class UniformGapEstimate:
    value: float
    exact: bool
    subsets_checked: int


def uniform_gap(f: Formula, theta: float) -> UniformGapEstimate:
    """Minimum gap over all nonempty clause subsets.

    Exact up to 12 clauses (2^m - 1 diagonalizations); beyond that the
    minimum over 512 random subsets, drawn from ``default_rng(0)`` so the
    estimate is reproducible, is returned and flagged non-exact.  The sampled
    minimum can only overestimate the true uniform gap.
    """
    check_angle(theta)
    if f.m == 0:
        raise ValueError("uniform gap undefined for an empty clause list")
    if count_solutions(f) == 0:
        raise Unsatisfiable("uniform gap requires a satisfiable formula")
    dense = [dense_projector(p) for p in clause_projectors(f, theta)]
    if f.m <= _UNIFORM_EXACT_M:
        best = math.inf
        count = 0
        for r in range(1, f.m + 1):
            for subset in itertools.combinations(range(f.m), r):
                best = min(best, _subset_gap(dense, subset))
                count += 1
        return UniformGapEstimate(value=best, exact=True, subsets_checked=count)
    rng = np.random.default_rng(0)
    best = math.inf
    for _ in range(_UNIFORM_SAMPLES):
        size = int(rng.integers(1, f.m + 1))
        subset = rng.choice(f.m, size=size, replace=False)
        best = min(best, _subset_gap(dense, subset))
    return UniformGapEstimate(value=best, exact=False, subsets_checked=_UNIFORM_SAMPLES)


def convergence_rate(f: Formula, theta: float, order=None) -> float:
    """mu = ||prod C_i - P_GS||_2, the contraction rate off the ground space.

    Satisfies ||(prod C)^r - P_GS|| <= mu^r for every r, since the product
    commutes with P_GS and fixes it.
    """
    t = product_operator(f, theta, order)
    p_gs = ground_space_projector(f, theta)
    return float(np.linalg.norm(t - p_gs, 2))


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
    the layered cycle operator; returns (slack, c, ell).

    c is the generalized Friedrichs angle of the layer images M_i relative to
    the ground space M: with B the orthonormal bases of M_i intersect M-perp
    side by side, c = (lambda_max(B^T B) - 1)/(ell - 1), clamped to [0, 1].
    Each layer product Q_i is the projector onto M_i and P_GS <= Q_i, so
    B B^T = sum_i (Q_i - P_GS); it has the nonzero spectrum of B^T B, and one
    eigensolve of sum_i Q_i - ell P_GS gives lambda_max.
    """
    layers = build_layers(f, theta)
    ell = len(layers)
    if ell < 2:
        return math.inf, 0.0, ell
    p_gs = ground_space_projector(f, theta)
    images = -ell * p_gs
    for layer in layers:
        images += product_operator(f, theta, order=layer.members)
    lam_max = float(np.linalg.eigvalsh(images)[-1])
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
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({"schema": "mdsat-spectral/1", **asdict(self)}, indent=2)


def spectral_report(
    f: Formula,
    theta: float,
    with_uniform: bool = True,
    with_friedrichs: bool = True,
) -> SpectralReport:
    """Every quantity and slack for one (instance, theta); the uniform gap
    and the Friedrichs speed bound are the costly parts and can be skipped.

    dl_slack = 1/sqrt(gap/g^2 + 1) - mu (the detectability-lemma bound is 0
    when g = 0) and qub_slack = mu - (1 - 4 gap); both must be >= -1e-9.
    """
    d_sol = count_solutions(f)
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
    notes = []
    if with_uniform:
        est = uniform_gap(f, theta)
        uni, uni_exact = est.value, est.exact
        if not est.exact:
            notes.append(f"uniform gap sampled over {est.subsets_checked} subsets")
    c_val = None
    layer_count = None
    speed_slack = None
    if with_friedrichs:
        speed_slack, c_val, layer_count = friedrichs_speed_slack(f, theta)
        if layer_count < 2:
            speed_slack, c_val = None, None
            notes.append("single layer: Friedrichs angle undefined")
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
        notes=notes,
    )
