"""Perfect hash families and commuting measurement layers.

A (N, n, k)-perfect hash family is an N x n array over symbols {1..k} such
that every size-k column subset has at least one row with pairwise distinct
entries.  The deterministic greedy density construction fills each new row
entry by entry, maximizing the expected number of newly separated subsets.

Layers group clause checks whose compatibility strings agree with a common
binary pattern; all checks in a layer act with identical factors on shared
qubits and therefore commute, so the whole layer is one projective
measurement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .encoding import clause_compat_string
from .formula import Formula


# Largest C(n, k) the greedy construction enumerates.
_SUBSET_BUDGET = 500_000


class PhfBudgetExceeded(ValueError):
    pass


def density_row_bound(n: int, k: int) -> int:
    """Row guarantee of the greedy construction: the smallest N with
    C(n,k) * (1 - k!/k^k)^N < 1, i.e. floor(c_k * ln C(n,k)) + 1."""
    c_k = 1.0 / math.log(k**k / (k**k - math.factorial(k)))
    return math.floor(c_k * math.log(math.comb(n, k))) + 1


def density_algorithm(n: int, k: int) -> np.ndarray:
    """Greedy density construction of an (N, n, k)-perfect hash family.

    Returns an N x n integer array over {1..k}.  Argmax ties over candidate
    symbols break toward the smallest symbol; the termination condition is
    checked after each completed row.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if math.comb(n, k) > _SUBSET_BUDGET:
        raise PhfBudgetExceeded(
            f"C({n},{k}) = {math.comb(n, k)} exceeds budget {_SUBSET_BUDGET}"
        )
    subsets = list(itertools.combinations(range(n), k))
    unseparated = np.ones(len(subsets), dtype=bool)
    # chi(I, r) = (k-s)!/k^(k-s) when the s fixed entries on I are distinct.
    chi_value = [math.factorial(k - s) / k ** (k - s) for s in range(k + 1)]
    rows: list[list[int]] = []
    max_rows = density_row_bound(n, k) + 8  # safety margin over the guarantee
    while unseparated.any():
        if len(rows) > max_rows:
            raise RuntimeError("density algorithm failed to terminate")
        row = [0] * n  # 0 means undetermined
        live = [si for si in range(len(subsets)) if unseparated[si]]
        for i in range(n):
            # Subsets not containing position i contribute the same chi to
            # every candidate symbol, so the argmax over the full cost
            # function restricts exactly to the subsets through i.
            best_x, best_score = 1, -1.0
            for x in range(1, k + 1):
                row[i] = x
                score = 0.0
                for si in live:
                    subset = subsets[si]
                    if i not in subset:
                        continue
                    fixed = [row[j] for j in subset if row[j] != 0]
                    if len(set(fixed)) == len(fixed):
                        score += chi_value[len(fixed)]
                row[i] = 0
                if score > best_score:
                    best_x, best_score = x, score
            row[i] = best_x
        for si in live:
            values = [row[j] for j in subsets[si]]
            if len(set(values)) == k:
                unseparated[si] = False
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def verify_phf(rows: np.ndarray, n: int, k: int) -> bool:
    """Exhaustive check of the array characterization."""
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError("expected an N x n array")
    if rows.shape[1] != n:
        raise ValueError(f"array has {rows.shape[1]} columns, expected {n}")
    for subset in itertools.combinations(range(n), k):
        sub = rows[:, subset]
        if not any(len(set(r)) == k for r in sub):
            return False
    return True


def save_phf(rows: np.ndarray) -> str:
    return "\n".join(" ".join(str(int(x)) for x in row) for row in rows) + "\n"


def compatible(s1: str, s2: str) -> bool:
    """True iff the strings agree wherever neither has an 'I'."""
    if len(s1) != len(s2):
        raise ValueError("length mismatch")
    return all(a == b or a == "I" or b == "I" for a, b in zip(s1, s2))


@dataclass(frozen=True)
class Layer:
    """A set of mutually commuting clause checks, one projective measurement."""

    pattern: str  # length-n binary compatibility pattern
    members: tuple[int, ...]  # clause indices


def candidate_patterns(n: int, k: int) -> list[str]:
    """The 2^k * N binary patterns induced by a perfect hash family: each hash
    function combined with each symbol-to-bit map, in construction order."""
    if k <= 1:
        # Single-literal checks on distinct variables always commute; the two
        # constant patterns cover both polarities.
        return ["0" * n, "1" * n]
    rows = density_algorithm(n, k)
    patterns = []
    for row in rows:
        for bits in itertools.product("01", repeat=k):
            patterns.append("".join(bits[sym - 1] for sym in row))
    return patterns


def build_layers(f: Formula, theta: float | None = None) -> list[Layer]:
    """Group the clause checks of ``f`` into commuting layers.

    Each clause joins the first compatible candidate pattern; empty layers
    are dropped.  A verified perfect hash family guarantees every clause a
    slot, so no clause is ever left over.  ``theta`` does not influence the
    grouping (compatibility is structural) and is accepted for symmetry with
    the other per-angle constructors.
    """
    if f.m == 0:
        return []
    width = f.max_width()
    k_eff = max(1, min(f.n, max(f.k, width)))
    if width > k_eff:
        raise ValueError(f"clause width {width} exceeds effective k {k_eff}")
    compat_strings = [clause_compat_string(c, f.n) for c in f.clauses]
    patterns = candidate_patterns(f.n, k_eff)
    members: dict[int, list[int]] = {}
    for ci, s in enumerate(compat_strings):
        for pi, pattern in enumerate(patterns):
            if compatible(s, pattern):
                members.setdefault(pi, []).append(ci)
                break
        else:
            raise RuntimeError(
                f"clause {ci} matched no pattern; perfect hash family broken"
            )
    return [
        Layer(pattern=patterns[pi], members=tuple(members[pi]))
        for pi in sorted(members)
    ]


def layered_order(layers) -> list[int]:
    """Clause order obtained by flattening the layers."""
    return [ci for layer in layers for ci in layer.members]


def noncommuting_degree(f: Formula) -> int:
    """g: the maximum number of checks any single check fails to commute with."""
    strings = [clause_compat_string(c, f.n) for c in f.clauses]
    g = 0
    for i in range(f.m):
        count = sum(
            1 for j in range(f.m) if j != i and not compatible(strings[i], strings[j])
        )
        g = max(g, count)
    return g
