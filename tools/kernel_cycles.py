#!/usr/bin/env python3
"""Time one cycle of sparse-frame clause checks, per state size.

    python3 tools/kernel_cycles.py [--n N ...] [--repeats R] [--seed S]

For each n (default 16, 17, 18 and 20) the script generates the
``planted_unique`` instance with m = round(4.3 n) clauses of width 3 and
the given seed (default 1), takes its clause projectors in the sparse frame
of ``mdsat.encoding.sparse_frame`` at theta = 0.4 pi, and applies each of
them once, in clause order and in place, to a random state: one cycle of the
all-pass trajectory.  It also times one in-place full-state pass,
``np.multiply(psi, 1.0, out=psi)``, which reads and writes the state once and
allocates nothing.  A cycle time is the best of R runs (default 5), the
pass time the best of 20 R; the state is restored from a copy, outside the
timer, before each cycle.

One line per n goes to stdout, after a header line:

    n  m  reordered  cycle_ms  pass_us  check_per_pass

``reordered`` counts the checks with a compiled ``loop_order`` and
``check_per_pass`` is the cycle time per check divided by the pass time.
mdsat is imported from the ``src/`` next to this script.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mdsat.encoding import apply_check_inplace, sparse_frame  # noqa: E402
from mdsat.formula import generate  # noqa: E402

THETA = 0.4 * math.pi
HEADER = ("n", "m", "reordered", "cycle_ms", "pass_us", "check_per_pass")


def best_of(fn, repeats: int, before=None) -> float:
    best = math.inf
    for _ in range(repeats):
        if before is not None:
            before()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(n: int, seed: int, repeats: int) -> tuple:
    f = generate("planted_unique", n, round(4.3 * n), 3, seed)
    _, projs = sparse_frame(f, THETA)
    start = np.random.default_rng([seed, n]).standard_normal(1 << n)
    psi = start.copy()

    def cycle():
        for proj in projs:
            apply_check_inplace(psi, proj)

    cycle_s = best_of(cycle, repeats, before=lambda: np.copyto(psi, start))
    pass_s = best_of(lambda: np.multiply(psi, 1.0, out=psi), repeats * 20)
    reordered = sum(p.loop_order is not None for p in projs)
    ratio = cycle_s / len(projs) / pass_s
    return n, f.m, reordered, f"{cycle_s * 1e3:.3f}", f"{pass_s * 1e6:.1f}", f"{ratio:.2f}"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, action="append", help="default: 16, 17, 18 and 20")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    print(" ".join(HEADER))
    for n in args.n or [16, 17, 18, 20]:
        print(" ".join(str(x) for x in measure(n, args.seed, args.repeats)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
