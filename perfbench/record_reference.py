#!/usr/bin/env python3
"""Record the reference answers that the spectral-report workload checks
against.

    python3 perfbench/record_reference.py

reference/spectral.json holds ``mdsat spectral`` on a pool of
SPECTRAL_INSTANCES planted_unique instances (instance seeds 0..N-1): gap, mu,
uniform_gap and friedrichs_c per angle, with a digest of each instance's
DIMACS text and the order of the largest Friedrichs Gram matrix it forms
(``gram_dim``, which sets the workload's peak memory).

Record only from a commit whose numbers are trusted: the benchmark fails any
later run that differs from them by more than TOLERANCE.  A change to the
instance generator changes the digests; the benchmark then refuses to run
until the file is recorded again.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import WORK, import_mdsat

SPECTRAL_N, SPECTRAL_M = 7, 30  # m = round(4.3 n)
SPECTRAL_INSTANCES = 48  # the pool each run draws SPECTRAL_POOL instances from
THETAS = "0.1pi,0.25pi,0.4pi,0.5pi"
TOLERANCE = 1e-10


def friedrichs_gram_dim(f, theta: float) -> int:
    """Order of the block Gram matrix that friedrichs_speed_slack eigensolves
    at ``theta``; 0 when there are fewer than two layers and no Gram is formed."""
    from mdsat.phf import build_layers
    from mdsat.spectral import layer_image_subspaces

    layers = build_layers(f, theta)
    if len(layers) < 2:
        return 0
    bases, _, _ = layer_image_subspaces(f, theta, layers)
    return sum(b.shape[1] for b in bases)


def record_spectral() -> dict:
    import mdsat.cli
    from workloads import SPECTRAL_FIELDS, read_csv_rows, spectral_instance

    ref = {"n": SPECTRAL_N, "m": SPECTRAL_M, "thetas": THETAS, "tolerance": TOLERANCE, "instances": []}
    for seed in range(SPECTRAL_INSTANCES):
        f = spectral_instance(seed, ref)
        text = f.to_dimacs()
        cnf, out = WORK / f"reference-{seed}.cnf", WORK / f"reference-{seed}.csv"
        cnf.write_text(text, encoding="utf-8")
        if mdsat.cli.main(["spectral", str(cnf), "--thetas", THETAS, "--out", str(out)]) != 0:
            raise RuntimeError(f"spectral run failed for instance seed {seed}")
        rows = []
        for row in read_csv_rows(out):
            if row["status"] != "ok":
                raise RuntimeError(f"seed {seed} theta {row['theta']}: {row['error']}")
            rows.append({"theta": float(row["theta"]),
                         **{k: float(row[k]) if row[k] else None for k in SPECTRAL_FIELDS}})
        ref["instances"].append({
            "seed": seed, "dimacs_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "gram_dim": max(friedrichs_gram_dim(f, row["theta"]) for row in rows), "rows": rows,
        })
        print(f"spectral instance seed {seed}: {len(rows)} rows", flush=True)
    return ref


def main() -> int:
    import_mdsat()
    from workloads import SPECTRAL_REFERENCE

    WORK.mkdir(parents=True, exist_ok=True)
    SPECTRAL_REFERENCE.parent.mkdir(exist_ok=True)
    SPECTRAL_REFERENCE.write_text(json.dumps(record_spectral(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {SPECTRAL_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
