"""Dense real state-vector engine.

States are plain float64 arrays of length 2^n with variable 1 on the most
significant bit, matching the assignment-string convention of
:mod:`mdsat.formula`.  Clause checks go through the in-place kernel
:func:`mdsat.encoding.apply_check_inplace`, which this module wraps with a
numpy-style ``out=`` and applies to the identity for the dense check product;
no Kronecker product or 2^n x 2^n matrix product is formed.
"""

from __future__ import annotations

import numpy as np

from .config import check_alloc
from .encoding import ClauseProjector, apply_check_inplace, clause_projector
from .formula import Formula


def plus_state(n: int) -> np.ndarray:
    check_alloc(8 << n, "plus state")
    return np.full(1 << n, 2.0 ** (-n / 2))


def rotate_qubits_inplace(psi: np.ndarray, gates: dict[int, np.ndarray]) -> None:
    """psi <- (x)_q G_q psi for a C-contiguous ``psi`` of shape (2^n, *batch),
    with the real 2x2 ``gates[q]`` on qubit q (1-based) and the identity
    elsewhere.  The temporaries live in two half-size buffers, allocated once
    per call and reused for every qubit."""
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


def apply_check_unnormalized(
    psi: np.ndarray, proj: ClauseProjector, out: np.ndarray | None = None
) -> np.ndarray:
    """C|psi> = (I - P)|psi> (unnormalized), written to ``out`` and returned.

    As in numpy, ``out`` defaults to a new array, leaving ``psi`` untouched;
    ``out=psi`` applies the check in place and allocates no state.
    """
    if out is None:
        out = psi.copy()
    elif out is not psi:
        np.copyto(out, psi)
    apply_check_inplace(out, proj)
    return out


def prob_one(psi: np.ndarray, qubit: int) -> float:
    """Probability that a computational-basis readout of ``qubit`` gives 1.

    The amplitudes with the qubit set are every other block of ``psi``; for
    qubit 1 they are its contiguous second half, which ``ravel`` keeps a view.
    """
    half = psi.reshape(1 << (qubit - 1), 2, -1)[:, 1].ravel()
    return float(half @ half)


def basis_cdf(psi: np.ndarray) -> np.ndarray:
    """Normalized cumulative distribution of a full computational-basis
    readout of ``psi``, built as ``Generator.choice`` builds it from
    p = psi^2 / |psi|^2, but in place in the one array of p: 8 bytes per
    amplitude.  A state whose squared norm is not finite and positive raises
    FloatingPointError."""
    check_alloc(8 * psi.size, "readout distribution")
    p = psi * psi
    total = p.sum()
    if not (np.isfinite(total) and total > 0.0):
        raise FloatingPointError(f"state has squared norm {total!r}")
    np.divide(p, total, out=p)
    np.cumsum(p, out=p)
    p /= p[-1]
    return p


def sample_basis(cdf: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """Sample ``size`` full computational-basis measurement outcomes (indices)
    from a :func:`basis_cdf`.  Draws the same indices, and leaves ``rng`` in
    the same state, as ``rng.choice(len(cdf), size, p=psi^2 / |psi|^2)``."""
    return cdf.searchsorted(rng.random(size), side="right")


def product_operator(f: Formula, theta: float, order=None) -> np.ndarray:
    """Dense product of clause checks, ``order[0]`` acting first.

    At theta = pi/2 all checks commute and the product equals the
    ground-space projector.  Only the projectors of the clauses in ``order``
    are built.
    """
    check_alloc(16 << 2 * f.n, "dense check product")  # and the kernel's scratch
    t = np.eye(1 << f.n)
    for i in range(f.m) if order is None else order:
        apply_check_inplace(t, clause_projector(f.clauses[i], theta, f.n))
    return t
