"""CNF formulas: parsing, evaluation, propagation, brute force, generation.

Variables are 1-based.  Assignments are strings over {0,1} with position
``i-1`` holding the value of variable ``i`` ('1' = TRUE), so an assignment
string equals the big-endian binary expansion of its basis-state index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CapExceeded, check_alloc


class DimacsError(ValueError):
    """Malformed DIMACS input."""


class TautologyError(DimacsError):
    """A clause contains a variable in both polarities."""


class Unsat:
    """Marker returned by :func:`propagate` when a clause becomes empty."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNSAT"


UNSAT = Unsat()


@dataclass(frozen=True, order=True)
class Literal:
    var: int
    negated: bool

    def __post_init__(self):
        if self.var < 1:
            raise ValueError(f"variable index must be >= 1, got {self.var}")

    @classmethod
    def from_dimacs(cls, code: int) -> "Literal":
        if code == 0:
            raise ValueError("0 is the DIMACS clause terminator, not a literal")
        return cls(abs(code), code < 0)

    def to_dimacs(self) -> int:
        return -self.var if self.negated else self.var

    def __repr__(self):
        return f"{'~' if self.negated else ''}b{self.var}"


@dataclass(frozen=True)
class Clause:
    """Disjunction of literals over distinct variables, sorted by variable."""

    literals: tuple[Literal, ...]

    def __post_init__(self):
        if not self.literals:
            raise ValueError("empty clause")
        seen: dict[int, bool] = {}
        for lit in self.literals:
            if lit.var in seen:
                if seen[lit.var] != lit.negated:
                    raise TautologyError(f"tautological clause on variable {lit.var}")
                raise ValueError(f"duplicate literal for variable {lit.var}")
            seen[lit.var] = lit.negated
        if list(self.literals) != sorted(self.literals):
            raise ValueError("clause literals must be sorted by variable")

    @classmethod
    def from_dimacs(cls, codes) -> "Clause":
        """Build a clause from signed DIMACS codes, merging duplicate literals."""
        lits = {Literal.from_dimacs(c) for c in codes}
        vars_seen = [l.var for l in lits]
        if len(set(vars_seen)) != len(vars_seen):
            raise TautologyError(f"tautological clause: {sorted(codes)}")
        return cls(tuple(sorted(lits)))

    @property
    def width(self) -> int:
        return len(self.literals)

    def variables(self) -> tuple[int, ...]:
        return tuple(l.var for l in self.literals)

    def satisfied_by(self, bits: str) -> bool:
        return any((bits[l.var - 1] == "1") != l.negated for l in self.literals)

    def to_dimacs(self) -> str:
        return " ".join(str(l.to_dimacs()) for l in self.literals) + " 0"


@dataclass(frozen=True)
class Formula:
    """CNF instance: n variables, clause list, declared max clause width k."""

    n: int
    clauses: tuple[Clause, ...]
    k: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("variable count must be >= 0")
        for c in self.clauses:
            if c.width > self.k:
                raise ValueError(f"clause wider than declared k={self.k}: {c}")
            if any(l.var > self.n for l in c.literals):
                raise ValueError(f"literal variable beyond n={self.n}: {c}")
        # Hashed once: every Preparer cache lookup hashes the formula.  The
        # fields are ints and bools, so the value survives pickling.
        object.__setattr__(self, "_hash", hash((self.n, self.clauses, self.k)))

    def __hash__(self):
        return self._hash

    @property
    def m(self) -> int:
        return len(self.clauses)

    def max_width(self) -> int:
        return max((c.width for c in self.clauses), default=0)

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.n} {self.m}"]
        lines.extend(c.to_dimacs() for c in self.clauses)
        return "\n".join(lines) + "\n"


def formula_from_dimacs_codes(n: int, clause_codes, k: int | None = None) -> Formula:
    clauses = tuple(Clause.from_dimacs(codes) for codes in clause_codes)
    if k is None:
        k = max((c.width for c in clauses), default=0)
    return Formula(n=n, clauses=clauses, k=k)


def parse_dimacs(text: str | bytes) -> Formula:
    """Parse DIMACS CNF.  Clause count must match the header; duplicate
    literals within a clause are merged; tautological clauses are rejected."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    header = None
    tokens: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise DimacsError("multiple 'p' header lines")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed header: {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError as exc:
                raise DimacsError(f"malformed header: {line!r}") from exc
            if header[0] < 0 or header[1] < 0:
                raise DimacsError(f"negative counts in header: {line!r}")
            continue
        if header is None:
            raise DimacsError("clause data before 'p cnf' header")
        try:
            tokens.extend(int(t) for t in line.split())
        except ValueError as exc:
            raise DimacsError(f"bad token in line {line!r}") from exc
    if header is None:
        raise DimacsError("missing 'p cnf' header")
    n, m = header
    clause_codes: list[list[int]] = []
    current: list[int] = []
    for t in tokens:
        if t == 0:
            if not current:
                raise DimacsError("empty clause in input")
            clause_codes.append(current)
            current = []
        else:
            if abs(t) > n:
                raise DimacsError(f"literal {t} exceeds declared n={n}")
            current.append(t)
    if current:
        raise DimacsError("last clause not terminated by 0")
    if len(clause_codes) != m:
        raise DimacsError(f"header declares {m} clauses, found {len(clause_codes)}")
    return formula_from_dimacs_codes(n, clause_codes)


def evaluate(f: Formula, assignment: str) -> bool:
    """True iff every clause has at least one true literal under ``assignment``."""
    if len(assignment) != f.n:
        raise ValueError(f"assignment length {len(assignment)} != n={f.n}")
    return all(c.satisfied_by(assignment) for c in f.clauses)


def propagate(f: Formula, var: int, value: bool) -> Formula | Unsat:
    """Fix ``var`` to ``value`` and simplify.

    Satisfied clauses are discarded, false literals are deleted, and the
    remaining variables are renumbered (every index above ``var`` drops by
    one).  Returns the UNSAT marker if a clause loses all its literals.
    """
    if not 1 <= var <= f.n:
        raise ValueError(f"variable {var} out of range 1..{f.n}")
    new_clauses = []
    for c in f.clauses:
        lits = []
        satisfied = False
        for l in c.literals:
            if l.var == var:
                if l.negated != value:
                    satisfied = True
                    break
                continue  # false literal: delete
            new_var = l.var if l.var < var else l.var - 1
            lits.append(Literal(new_var, l.negated))
        if satisfied:
            continue
        if not lits:
            return UNSAT
        new_clauses.append(Clause(tuple(lits)))
    return Formula(n=f.n - 1, clauses=tuple(new_clauses), k=f.k)


def assignment_from_index(index: int, n: int) -> str:
    return format(index, f"0{n}b") if n else ""


def assignment_to_index(assignment: str) -> int:
    return int(assignment, 2) if assignment else 0


def clause_mask(c: Clause, n: int) -> tuple[int, int]:
    """(mask, forbidden): the clause's support and its one forbidden
    assignment as n-bit integers, so that index x violates ``c`` iff
    x & mask == forbidden.  Variable i occupies bit n-i (big-endian)."""
    mask = 0
    forbidden = 0
    for l in c.literals:
        bit = 1 << (n - l.var)
        mask |= bit
        if l.negated:  # violated when the variable is TRUE
            forbidden |= bit
    return mask, forbidden


def solution_indices(f: Formula) -> np.ndarray:
    """Sorted basis indices (int64) of all satisfying assignments (exhaustive).

    Enumerates on int32 indices, half the memory traffic of int64, so n is
    limited to 31 whatever the memory budget.
    """
    if f.n > 31:
        raise CapExceeded(f"brute-force enumeration of n={f.n}: int32 indices stop at n=31")
    check_alloc(10 << f.n, "brute-force enumeration")  # 2 int32 and 2 bool arrays
    idx = np.arange(1 << f.n, dtype=np.int32)
    ok = np.ones(idx.shape, dtype=bool)
    tmp = np.empty_like(idx)
    for c in f.clauses:
        mask, forbidden = clause_mask(c, f.n)
        np.bitwise_and(idx, mask, out=tmp)
        ok &= tmp != forbidden
    del idx, tmp
    return np.flatnonzero(ok)  # position i holds index i


def brute_force_solutions(f: Formula) -> set[str]:
    """Exact solution set; its size is the ground-space dimension d_sol."""
    return {assignment_from_index(int(i), f.n) for i in solution_indices(f)}


def count_solutions(f: Formula) -> int:
    return int(solution_indices(f).size)


# Attempt cap of the rejection loops in planted_unique and random_satisfiable.
_MAX_ATTEMPTS = 10_000


class GenerationError(RuntimeError):
    """Instance generation failed within the attempt cap."""


def _random_clause(rng: np.random.Generator, n: int, k: int) -> Clause:
    variables = rng.choice(n, size=k, replace=False) + 1
    signs = rng.integers(0, 2, size=k)
    lits = tuple(sorted(Literal(int(v), bool(s)) for v, s in zip(variables, signs)))
    return Clause(lits)


def generate(
    kind: str,
    n: int,
    m: int = 0,
    k: int = 3,
    seed: int = 0,
) -> Formula:
    """Generate a random instance; deterministic per (kind, n, m, k, seed).

    kinds:
      random_ksat    -- m clauses of k distinct variables with random signs
      planted_unique -- satisfiable with exactly one solution (checked by
                        brute force; spurious solutions are killed by extra
                        clauses satisfied by the planted assignment)
      unate          -- one fixed random polarity per variable
      unate_unique   -- one single-literal clause per variable (m=n, k=1)
    """
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    rng = np.random.default_rng(seed)
    if kind == "unate_unique":
        signs = rng.integers(0, 2, size=n)
        clauses = tuple(Clause((Literal(i + 1, bool(signs[i])),)) for i in range(n))
        return Formula(n=n, clauses=clauses, k=1)
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if kind == "random_ksat":
        clauses = tuple(_random_clause(rng, n, k) for _ in range(m))
        return Formula(n=n, clauses=clauses, k=k)
    if kind == "unate":
        polarity = rng.integers(0, 2, size=n)
        clauses = []
        for _ in range(m):
            variables = rng.choice(n, size=k, replace=False) + 1
            lits = tuple(
                sorted(Literal(int(v), bool(polarity[v - 1])) for v in variables)
            )
            clauses.append(Clause(lits))
        return Formula(n=n, clauses=tuple(clauses), k=k)
    if kind == "planted_unique":
        return _generate_planted_unique(rng, n, m, k)
    raise ValueError(f"unknown generator kind {kind!r}")


def _generate_planted_unique(rng: np.random.Generator, n: int, m: int, k: int) -> Formula:
    plant = "".join(rng.choice(["0", "1"], size=n))
    clauses: list[Clause] = []
    while len(clauses) < m:
        c = _random_clause(rng, n, k)
        if c.satisfied_by(plant):
            clauses.append(c)
    # An added clause only removes solutions: enumerate once, then filter.
    sols = solution_indices(Formula(n=n, clauses=tuple(clauses), k=k))
    plant_idx = assignment_to_index(plant)
    for _ in range(_MAX_ATTEMPTS):
        if sols.size == 1:
            assert int(sols[0]) == plant_idx
            return Formula(n=n, clauses=tuple(clauses), k=k)
        # Kill the first spurious solution with a clause the plant satisfies.
        spurious = assignment_from_index(int(sols[sols != plant_idx][0]), n)
        diff = [i + 1 for i in range(n) if spurious[i] != plant[i]]
        rest = [i + 1 for i in range(n) if spurious[i] == plant[i]]
        pick = [int(rng.choice(diff))]
        extra = min(k - 1, len(rest))
        if extra:
            pick.extend(int(v) for v in rng.choice(rest, size=extra, replace=False))
        lits = tuple(
            sorted(Literal(v, spurious[v - 1] == "1") for v in pick)
        )  # violated by `spurious`, satisfied by the plant on the diff variable
        clauses.append(Clause(lits))
        mask, forbidden = clause_mask(clauses[-1], n)
        sols = sols[(sols & mask) != forbidden]
    raise GenerationError(
        f"planted_unique(n={n}, m={m}, k={k}) not unique after {_MAX_ATTEMPTS} attempts"
    )


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
        if count_solutions(f) >= min_solutions:
            return f
    raise GenerationError(f"no satisfiable instance found (n={n}, m={m}, k={k})")
