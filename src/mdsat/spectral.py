"""Exact spectral analysis at small n.

Computes the Hamiltonian gap, the uniform gap over clause subsets, the
empirical convergence rate of the check product, the structural
non-commutation degree g, Friedrichs angles of layer images, and the slack of
every inequality tying these quantities together (detectability lemma,
quantum union bound, the closed-form gap lower bound, and the
alternating-projections speed bound).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import DENSE_CAP, check_cap
from .encoding import (
    Unsatisfiable,
    check_angle,
    clause_projector,
    clause_projectors,
    dense_projector,
    ground_space_projector,
    hamiltonian_matrix,
)
from .formula import Clause, Formula, count_solutions
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


@dataclass(frozen=True)
class DlQubSlack:
    g: int
    gap: float
    mu: float
    dl_slack: float
    qub_slack: float


def check_dl_qub(f: Formula, theta: float) -> DlQubSlack:
    """Slack of the detectability lemma (upper) and quantum union bound
    (lower) on the empirical convergence rate; both must be >= -1e-9."""
    gap = spectral_gap(f, theta)
    mu = convergence_rate(f, theta)
    g = noncommuting_degree(f)
    dl_upper = 0.0 if g == 0 else 1.0 / math.sqrt(gap / g**2 + 1.0)
    return DlQubSlack(
        g=g,
        gap=gap,
        mu=mu,
        dl_slack=dl_upper - mu,
        qub_slack=mu - (1.0 - 4.0 * gap),
    )


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


def _projector_range_basis(p: np.ndarray) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(p)
    return eigvecs[:, eigvals > 0.5]


def layer_image_subspaces(f: Formula, theta: float, layers: list[Layer]):
    """Bases of M_i intersect M-perp for the layer images M_i = im(prod C)
    and M the ground space; returns (bases, layer_product_operators, P_GS)."""
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
    the layered cycle operator; returns (slack, c, ell)."""
    layers = build_layers(f, theta)
    if len(layers) < 2:
        return math.inf, 0.0, len(layers)
    bases, _, p_gs = layer_image_subspaces(f, theta, layers)
    c = friedrichs_angle(bases, 1 << f.n)
    t = product_operator(f, theta, order=layered_order(layers))
    slack = math.inf
    power = np.eye(1 << f.n)
    for r in range(1, _SPEED_R_MAX + 1):
        power = t @ power
        lhs = float(np.linalg.norm(power - p_gs, 2))
        slack = min(slack, speed_of_convergence_bound(c, len(layers), r) - lhs)
    return slack, c, len(layers)


def _embedded_propagated_projectors(f: Formula, theta: float, var: int, value: bool):
    """Pairs (P_before, P_after) on the full n qubits for every clause that
    survives fixing var=value; the after-projector drops the killed literal
    (identity on the fixed qubit)."""
    pairs = []
    for c in f.clauses:
        lits = list(c.literals)
        on_var = [l for l in lits if l.var == var]
        if on_var and on_var[0].negated != value:
            continue  # clause satisfied, discarded on both sides
        before = dense_projector(clause_projector(c, theta, f.n))
        rest = tuple(l for l in lits if l.var != var)
        if rest:
            after = dense_projector(clause_projector(Clause(rest), theta, f.n))
        else:
            after = np.eye(1 << f.n)  # empty clause forbids everything
        pairs.append((before, after))
    return pairs


def monotone_update_check(f: Formula, theta: float, var: int, value: bool) -> bool:
    """PSD check of the per-step Hamiltonian replacement: over the surviving
    clauses, the propagated projector sum dominates the original one."""
    check_cap(f.n, DENSE_CAP, "monotone update check")
    pairs = _embedded_propagated_projectors(f, theta, var, value)
    dim = 1 << f.n
    h_before = sum((b for b, _ in pairs), np.zeros((dim, dim)))
    h_after = sum((a for _, a in pairs), np.zeros((dim, dim)))
    min_eig = float(np.linalg.eigvalsh(h_after - h_before)[0])
    return min_eig >= -_GROUND_TOL


@dataclass(frozen=True)
class OverlapIdentity:
    analytic: float
    binomial_sum: float
    monte_carlo: float
    monte_carlo_stderr: float


def avg_overlap_identity(
    n: int, theta: float, samples: int = 4096, rng: np.random.Generator | None = None
) -> OverlapIdentity:
    """Average rotated-state overlap over random assignment pairs.

    The exact binomial sum over Hamming distances equals ((1+cos theta)/2)^n;
    the Monte Carlo column estimates E[cos^D(theta)] from sampled pairs.
    """
    if n > 30:
        raise ValueError("binomial sum capped at n <= 30")
    check_angle(theta)
    c = math.cos(theta)
    analytic = ((1.0 + c) / 2.0) ** n
    binomial_sum = sum(
        math.comb(n, d) * 0.5**n * c**d for d in range(n + 1)
    )
    rng = rng or np.random.default_rng(0)
    x_bits = rng.integers(0, 2, size=(samples, n))
    y_bits = rng.integers(0, 2, size=(samples, n))
    dists = (x_bits != y_bits).sum(axis=1)
    values = np.power(c, dists)
    mc = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return OverlapIdentity(analytic, binomial_sum, mc, stderr)


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
    d_sol = count_solutions(f)
    if d_sol == 0:
        raise Unsatisfiable("spectral report requires a satisfiable formula")
    k_eff = f.max_width()
    sandwich = check_dl_qub(f, theta)
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
        gap=sandwich.gap,
        gap_lower_bound=bound,
        gap_bound_slack=sandwich.gap - bound,
        uniform_gap=uni,
        uniform_gap_exact=uni_exact,
        mu=sandwich.mu,
        g=sandwich.g,
        dl_slack=sandwich.dl_slack,
        qub_slack=sandwich.qub_slack,
        friedrichs_c=c_val,
        layer_count=layer_count,
        speed_bound_slack=speed_slack,
        notes=notes,
    )
