"""Micro-probes of the check kernel and the PHF construction, through public
functions only.

The kernel probe times one ``apply_check_unnormalized`` against one
``psi - 0.5*psi`` pass over the same state.  n=16 (512 KiB) keeps the state
in one core's 2 MiB L2; n=22 (32 MiB) is eight times the summed L2 of a
two-core machine yet stays inside a 300 MiB shared L3.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from mdsat.encoding import clause_projector
from mdsat.formula import Clause, Literal
from mdsat.phf import density_algorithm
from mdsat.statevec import apply_check_unnormalized

PROBE_CLAUSES = 20
PROBE_THETA = 0.4 * math.pi
# numpy evaluates psi - 0.5*psi as two ufuncs: 0.5*psi reads psi and writes a
# temporary, the subtraction reads psi and the temporary and writes the result.
PASS_BYTES_PER_AMPLITUDE = 5 * 8


def _best_of(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def kernel_probe(n: int, seed: int, repeats: int) -> tuple[float, float]:
    """(time per check application / time per pass, computed GB/s of a pass)
    over PROBE_CLAUSES random 3-clauses on a random unit state."""
    rng = np.random.default_rng([seed, n])
    psi = rng.standard_normal(1 << n)
    psi /= np.linalg.norm(psi)
    projs = []
    for _ in range(PROBE_CLAUSES):
        variables = rng.choice(n, size=3, replace=False) + 1
        signs = rng.integers(0, 2, size=3)
        clause = Clause(tuple(sorted(Literal(int(v), bool(s)) for v, s in zip(variables, signs))))
        projs.append(clause_projector(clause, PROBE_THETA, n))
    pass_s = _best_of(lambda: psi - 0.5 * psi, repeats * 4)
    check_s = statistics.median(_best_of(lambda p=p: apply_check_unnormalized(psi, p), repeats) for p in projs)
    gbps = PASS_BYTES_PER_AMPLITUDE * (1 << n) / pass_s / 1e9
    return check_s / pass_s, gbps


def phf_probe(repeats: int = 3) -> float:
    """Median seconds of the greedy (N, 18, 3) perfect hash family."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        density_algorithm(18, 3)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_probes(seed: int) -> dict[str, float]:
    ratio16, _ = kernel_probe(16, seed, repeats=20)
    ratio22, gbps22 = kernel_probe(22, seed, repeats=1)
    return {
        "statevec.apply_check.pass_ratio.n16": ratio16,
        "statevec.apply_check.pass_ratio.n22": ratio22,
        "statevec.pass_gbps.n22": gbps22,
        "phf.density_algorithm.n18k3.s": phf_probe(),
    }
