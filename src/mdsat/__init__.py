"""Measurement-driven quantum SAT solver: simulator and analysis library.

Simulates the rotated-encoding projective-measurement SAT algorithm on dense
state vectors at desk scale and verifies its spectral and convergence
guarantees exactly at small n.
"""

from .formula import (
    UNSAT,
    Clause,
    Formula,
    Literal,
    brute_force_solutions,
    count_solutions,
    evaluate,
    generate,
    parse_dimacs,
    propagate,
)
from .solver import (
    PrepConfig,
    Preparer,
    RunReport,
    Schedule,
    cycles_required,
    readout_multiple,
    readout_unique,
    schedule_angle,
    solve,
    theory_bounds,
)

__all__ = [
    "UNSAT",
    "Clause",
    "Formula",
    "Literal",
    "PrepConfig",
    "Preparer",
    "RunReport",
    "Schedule",
    "brute_force_solutions",
    "count_solutions",
    "cycles_required",
    "evaluate",
    "generate",
    "parse_dimacs",
    "propagate",
    "readout_multiple",
    "readout_unique",
    "schedule_angle",
    "solve",
    "theory_bounds",
]

__version__ = "0.1.0"
