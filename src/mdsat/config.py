"""One memory budget for the exponential code paths.

State vectors take 8 * 2^n bytes and dense operators 8 * 4^n, so how far the
simulator reaches depends on memory, not on a qubit count.  Each function
that allocates such arrays calls :func:`check_alloc` once, before it
allocates anything large, with the bytes it holds at its peak.  The budget is
``MDSAT_MEM_BYTES``, read at every check, and defaults to the physical
memory.  It guards against the kernel killing the process, not correctness.
"""

import os

_PHYSICAL_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class CapExceeded(ValueError):
    """A requested allocation exceeds the memory budget or a fixed size limit."""


def check_alloc(nbytes: int, what: str) -> None:
    raw = os.environ.get("MDSAT_MEM_BYTES", str(_PHYSICAL_BYTES))
    try:
        budget = int(raw)
    except ValueError as exc:
        raise ValueError(f"MDSAT_MEM_BYTES must be an integer, got {raw!r}") from exc
    if nbytes > budget:
        raise CapExceeded(f"{what} needs {nbytes} bytes; the MDSAT_MEM_BYTES budget is {budget}")
