"""Small checks of the paper's statements that only the tests use.

Assignment helpers (unate formulas, Hamming distance, exhaustive listing),
the monotone Hamiltonian update under propagation, the average-case overlap
identity, the readout Z expectation and the perfect-hash-family text reader
and layer-count guarantee.  None of them is needed to solve or analyse an
instance, so they live beside the tests rather than in mdsat.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from mdsat.config import check_alloc
from mdsat.encoding import check_angle, clause_projector, dense_projector
from mdsat.formula import Clause, Formula
from mdsat.statevec import prob_one

_GROUND_TOL = 1e-10


# --- formulas and assignments -------------------------------------------------


def is_unate(f: Formula) -> bool:
    """True iff no variable occurs in both polarities (all checks commute)."""
    polarity: dict[int, bool] = {}
    for c in f.clauses:
        for l in c.literals:
            if polarity.setdefault(l.var, l.negated) != l.negated:
                return False
    return True


def unate_greedy_assignment(f: Formula) -> str:
    """For a unate formula: TRUE where a variable occurs positively, FALSE
    elsewhere (including variables with no occurrences)."""
    bits = ["0"] * f.n
    for c in f.clauses:
        for l in c.literals:
            if not l.negated:
                bits[l.var - 1] = "1"
    return "".join(bits)


def hamming_distance(x: str, y: str) -> int:
    if len(x) != len(y):
        raise ValueError("length mismatch")
    return sum(a != b for a, b in zip(x, y))


def all_assignments(n: int):
    """Iterate over all length-n assignment strings in index order."""
    for bits in itertools.product("01", repeat=n):
        yield "".join(bits)


# --- states and readout ---------------------------------------------------------


def z_expectation(psi: np.ndarray, qubit: int) -> float:
    """Readout expectation with outcome +1 on |1> and -1 on |0>.

    On a rotated product state this is +sin(theta) where the encoded bit is
    TRUE and -sin(theta) where it is FALSE.
    """
    return 2.0 * prob_one(psi, qubit) - 1.0


# --- propagation and the average-case identity --------------------------------


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
    check_alloc((2 * f.m + 4) * 8 << 2 * f.n, "monotone update check")  # the pairs, two sums
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


# --- perfect hash families --------------------------------------------------------


def load_phf(text: str) -> np.ndarray:
    """Read the text that :func:`mdsat.phf.save_phf` writes."""
    rows = [
        [int(tok) for tok in line.split()]
        for line in text.splitlines()
        if line.strip()
    ]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("malformed perfect-hash-family text")
    return np.array(rows, dtype=np.int64)


def layer_count_bound(n: int, k: int) -> float:
    """sqrt(k/(2 pi)) * (2e)^k * ln(n), the parallelization guarantee."""
    return math.sqrt(k / (2 * math.pi)) * (2 * math.e) ** k * math.log(n)
