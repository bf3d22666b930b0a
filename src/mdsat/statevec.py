"""Dense real state-vector engine and the clause-check kernel.

States are plain float64 arrays of length 2^n with variable 1 on the most
significant bit, matching the assignment-string convention of
:mod:`mdsat.formula`.  A clause check C = I - |u><u| is applied through the
factorized rank-1 structure of its projector, in place, on any array of
shape (2^n, *batch), visiting only the support patterns on which the
projector's amplitude is nonzero (one of 2^k at theta = pi/2).  Dense
operators (check products, clause projectors, Hamiltonians) are this same
kernel applied to the identity; no Kronecker product or 2^n x 2^n matrix
product is formed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .config import DENSE_CAP, STATE_CAP, check_cap
from .encoding import ClauseProjector, clause_projectors
from .formula import Formula


def plus_state(n: int) -> np.ndarray:
    check_cap(n, STATE_CAP, "plus state")
    return np.full(1 << n, 2.0 ** (-n / 2))


def product_state(factors) -> np.ndarray:
    """The product of the single-qubit states ``factors`` (qubit 1 first),
    built in place in the one array it returns."""
    n = len(factors)
    check_cap(n, STATE_CAP, "product state")
    psi = np.empty(1 << n)
    psi[0] = 1.0
    size = 1
    for v in reversed(factors):  # each qubit lands on the next higher bit
        np.multiply(psi[:size], v[1], out=psi[size : 2 * size])
        psi[:size] *= v[0]
        size *= 2
    return psi


def rotate_qubits_inplace(psi: np.ndarray, gates: dict[int, np.ndarray]) -> None:
    """psi <- (x)_q G_q psi for a state vector ``psi``, with the real 2x2
    ``gates[q]`` on qubit q (1-based) and the identity elsewhere.  The
    temporaries live in two half-state buffers, allocated once per call and
    reused for every qubit."""
    if not gates:
        return
    x, y = np.empty(psi.size // 2), np.empty(psi.size // 2)
    for q, g in gates.items():
        t = psi.reshape(1 << (q - 1), 2, -1)
        a, b = t[:, 0], t[:, 1]
        xa, ya = x.reshape(a.shape), y.reshape(a.shape)
        np.multiply(a, g[0, 0], out=xa)
        xa += np.multiply(b, g[0, 1], out=ya)
        np.multiply(a, g[1, 0], out=ya)
        b *= g[1, 1]
        b += ya
        a[...] = xa


def apply_check_inplace(psi: np.ndarray, proj: ClauseProjector) -> None:
    """psi <- (I - |u><u|) psi for a C-contiguous ``psi`` of shape (2^n, *batch).

    Each support qubit gets its own length-2 axis, which splits ``psi`` into
    2^k support slices psi_b (views).  With u_b the amplitude of |u> on the
    support pattern b, w = sum_b u_b psi_b and then psi_b -= u_b w.  Patterns
    with u_b exactly 0.0 are skipped, since they add nothing to w and are left
    unchanged: at theta = pi/2 only the forbidden pattern remains, with
    u_b = +-1, and its slice is set to exactly zero.  Below pi/2 no amplitude
    of a computational-basis projector is zero and every pattern is visited;
    in the sparse frame every majority-sign literal halves the patterns.
    """
    shape, prev = [], 0
    for q in proj.support:
        shape += [1 << (q - 1 - prev), 2]
        prev = q
    t = psi.reshape(shape + [1 << (proj.n - prev), *psi.shape[1:]])
    slices, amps = [], []
    for bits in itertools.product((0, 1), repeat=proj.width):
        a = math.prod(u[b] for u, b in zip(proj.factors, bits))
        if a != 0.0:
            slices.append(t[tuple(x for b in bits for x in (slice(None), b))])
            amps.append(a)
    w = amps[0] * slices[0]
    tmp = np.empty_like(w)
    for a, s in zip(amps[1:], slices[1:]):
        w += np.multiply(s, a, out=tmp)
    for a, s in zip(amps, slices):
        s -= np.multiply(w, a, out=tmp)


def apply_check_unnormalized(psi: np.ndarray, proj: ClauseProjector) -> np.ndarray:
    """C|psi> = (I - P)|psi> (unnormalized) as a new array; ``psi`` is untouched."""
    out = psi.copy()
    apply_check_inplace(out, proj)
    return out


def prob_one(psi: np.ndarray, qubit: int) -> float:
    """Probability that a computational-basis readout of ``qubit`` gives 1.

    The amplitudes with the qubit set are every other block of ``psi``; for
    qubit 1 they are its contiguous second half, which ``ravel`` keeps a view.
    """
    half = psi.reshape(1 << (qubit - 1), 2, -1)[:, 1].ravel()
    return float(half @ half)


def sample_basis(psi: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """Sample ``size`` full computational-basis measurement outcomes (indices)."""
    p = psi * psi
    total = p.sum()
    return rng.choice(psi.shape[0], size=size, p=p / total)


def product_operator(f: Formula, theta: float, order=None) -> np.ndarray:
    """Dense product of clause checks, ``order[0]`` acting first.

    At theta = pi/2 all checks commute and the product equals the
    ground-space projector.
    """
    check_cap(f.n, DENSE_CAP, "dense check product")
    projs = clause_projectors(f, theta)
    t = np.eye(1 << f.n)
    for i in range(f.m) if order is None else order:
        apply_check_inplace(t, projs[i])
    return t
