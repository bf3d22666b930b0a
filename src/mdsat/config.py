"""Size caps for the dense and state-vector code paths.

Everything here is a soft limit guarding against accidental exponential
blow-ups on a desk machine, not a correctness constraint.  Defaults can be
overridden through environment variables.  Each cap is checked where its
2^n-sized array is allocated.
"""

import os


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc


# Dense 2^n x 2^n operators (Hamiltonians, products of clause checks).
DENSE_CAP = _env_int("MDSAT_DENSE_CAP", 14)

# Dense state vectors of length 2^n (Monte Carlo solver path, the Lanczos
# basis of the convergence rate).
STATE_CAP = _env_int("MDSAT_STATE_CAP", 24)

# Exhaustive enumeration of all 2^n assignments.
BRUTE_CAP = _env_int("MDSAT_BRUTE_CAP", 24)


class CapExceeded(ValueError):
    """A requested problem size exceeds the configured cap."""


def check_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise CapExceeded(f"{what} requested for n={n}, cap is {cap}")
