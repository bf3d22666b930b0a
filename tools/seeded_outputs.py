#!/usr/bin/env python3
"""Write the seeded outputs of a fixed set of mdsat commands to a directory.

    python3 tools/seeded_outputs.py OUTDIR

Runs every command in process through ``mdsat.cli.main``, importing mdsat
from the ``src/`` next to this script, so that two checkouts can be compared
with ``diff -r OUTDIR_A OUTDIR_B``.  The set:

- four instances: planted_unique 9/39 seeds 1 and 2, random_ksat 8/30 seed 3
  and random_ksat 6/40 seed 4 (unsatisfiable);
- for each, ``solve --seed 7 --no-timing --report`` with both readouts, both
  plans and each of the VARIANTS below (96 runs);
- ``solve --theta-fraction 0.8`` with both readouts and otherwise default
  flags on planted_unique 11/47 seed 1, whose n lies above the size up to
  which mu is taken from an assembled operator;
- the same with ``--readout multiple`` on random_ksat 11/40 seed 2, which
  has 8 solutions: its mu runs in the sparse frame with a frame ground-space
  basis of width 8, and the reduced formulas of its readout fall on both
  sides of that size;
- ``solve --mu-source user --mu 0.6 --theta-fraction 0.8 --readout unique``
  with both plans on planted_unique 13/56 seed 1, a sparse-frame trajectory
  above n = 11;
- ``solve --plan layered --theta-fraction 0.8`` with both readouts on
  unate_unique 8 seed 1 (one-literal clauses: the two constant k = 1
  patterns) and on random_ksat 8/20 k = 2 seed 5 (k = 2 PHF patterns);
- one ``--trace`` run, a sweep over planted_unique n=6..9 at 0.5pi and 0.4pi
  with two trials, ``spectral`` at 0.25pi, 0.4pi and 0.5pi (the exact
  basis encoding) on planted_unique 6/26 seed 5 and on unate 6/14 seed 2
  (commuting checks, g = 0), the same ``spectral`` on planted_unique 6/26
  seed 5 under ``MDSAT_MEM_BYTES=524288`` (the gap and mu fit, the uniform
  gap is refused, so every row records the refusal), and ``phf 9 3``;
- ``solve --report missing/r.json`` on planted_unique 9/39 seed 1, whose
  report directory does not exist: the command fails with exit 2 before it
  solves, so its stdout is empty.

Every output file, stdout, stderr and exit code is written under a name
relative to OUTDIR; the commands run with OUTDIR as the working directory,
so no absolute path reaches an output.  ``--mu-source dl_bound`` is left
out: under the default budget one such run can take minutes.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import mdsat.cli  # noqa: E402

INSTANCES = {
    "pu9-s1": ["planted_unique", "9", "-m", "39", "--seed", "1"],
    "pu9-s2": ["planted_unique", "9", "-m", "39", "--seed", "2"],
    "rk8-s3": ["random_ksat", "8", "-m", "30", "--seed", "3"],
    "rk6-s4": ["random_ksat", "6", "-m", "40", "--seed", "4"],
}
VARIANTS = {
    "frac0.8": ["--theta-fraction", "0.8"],
    "frac1.0": ["--theta-fraction", "1.0"],
    "cubic8": ["--schedule", "cubic", "--cycles", "8"],
    "user-mu": ["--mu-source", "user", "--mu", "0.6"],
    "deterministic": ["--mode", "deterministic"],
    "budget3000": ["--budget", "3000"],
}


def run(name: str, argv: list[str], exit_codes: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mdsat.cli.main(argv)
    Path(f"{name}.stdout").write_text(out.getvalue(), encoding="utf-8")
    Path(f"{name}.stderr").write_text(err.getvalue(), encoding="utf-8")
    exit_codes.append(f"{name} {code}")
    print(f"{name}: exit {code}", file=sys.__stderr__, flush=True)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    codes: list[str] = []
    for inst, gen_args in INSTANCES.items():
        run(f"gen-{inst}", ["gen", *gen_args, "--out", f"{inst}.cnf"], codes)
        for readout in ("unique", "multiple"):
            for plan in ("sequential", "layered"):
                for variant, flags in VARIANTS.items():
                    name = f"solve-{inst}-{readout}-{plan}-{variant}"
                    run(name, ["solve", f"{inst}.cnf", "--seed", "7", "--no-timing",
                               "--report", f"{name}.json", "--readout", readout,
                               "--plan", plan, *flags], codes)
    run("gen-pu11-s1", ["gen", "planted_unique", "11", "-m", "47", "--seed", "1",
                        "--out", "pu11-s1.cnf"], codes)
    for readout in ("unique", "multiple"):
        name = f"solve-pu11-s1-{readout}"
        run(name, ["solve", "pu11-s1.cnf", "--seed", "7", "--no-timing", "--report",
                   f"{name}.json", "--readout", readout, "--theta-fraction", "0.8"], codes)
    run("gen-rk11-s2", ["gen", "random_ksat", "11", "-m", "40", "--seed", "2",
                        "--out", "rk11-s2.cnf"], codes)
    run("solve-rk11-s2-multiple", ["solve", "rk11-s2.cnf", "--seed", "7", "--no-timing",
                                   "--report", "solve-rk11-s2-multiple.json", "--readout",
                                   "multiple", "--theta-fraction", "0.8"], codes)
    run("gen-pu13-s1", ["gen", "planted_unique", "13", "-m", "56", "--seed", "1",
                        "--out", "pu13-s1.cnf"], codes)
    for plan in ("sequential", "layered"):
        name = f"solve-pu13-s1-{plan}"
        run(name, ["solve", "pu13-s1.cnf", "--seed", "7", "--no-timing", "--report",
                   f"{name}.json", "--mu-source", "user", "--mu", "0.6", "--theta-fraction",
                   "0.8", "--readout", "unique", "--plan", plan], codes)
    small_k = {"uu8-s1": ["unate_unique", "8", "--seed", "1"],
               "rk8k2-s5": ["random_ksat", "8", "-m", "20", "-k", "2", "--seed", "5"]}
    for inst, gen_args in small_k.items():
        run(f"gen-{inst}", ["gen", *gen_args, "--out", f"{inst}.cnf"], codes)
        for readout in ("unique", "multiple"):
            name = f"solve-{inst}-{readout}-layered"
            run(name, ["solve", f"{inst}.cnf", "--seed", "7", "--no-timing", "--report",
                       f"{name}.json", "--readout", readout, "--plan", "layered",
                       "--theta-fraction", "0.8"], codes)
    run("trace", ["solve", "pu9-s1.cnf", "--seed", "7", "--no-timing", "--report", "trace.json",
                  "--theta-fraction", "0.8", "--trace", "trace.csv"], codes)
    sweep = {"kind": "planted_unique", "n": "6..9", "m_per_n": "4.3", "thetas": "0.5pi,0.4pi",
             "trials": "2", "seed": "3", "out": "sweep.csv"}
    run("sweep", ["sweep"] + [a for k, v in sweep.items() for a in ("--set", f"{k}={v}")], codes)
    run("gen-spectral", ["gen", "planted_unique", "6", "-m", "26", "--seed", "5",
                         "--out", "spectral.cnf"], codes)
    run("spectral", ["spectral", "spectral.cnf", "--thetas", "0.25pi,0.4pi,0.5pi",
                     "--out", "spectral.csv"], codes)
    run("gen-unate", ["gen", "unate", "6", "-m", "14", "--seed", "2", "--out", "unate.cnf"],
        codes)
    run("spectral-unate", ["spectral", "unate.cnf", "--thetas", "0.25pi,0.4pi,0.5pi",
                           "--out", "spectral-unate.csv"], codes)
    with mock.patch.dict(os.environ, MDSAT_MEM_BYTES="524288"):
        run("spectral-budget", ["spectral", "spectral.cnf", "--thetas", "0.25pi,0.4pi,0.5pi",
                                "--out", "spectral-budget.csv"], codes)
    run("phf", ["phf", "9", "3", "--out", "phf.txt"], codes)
    run("solve-missing-report", ["solve", "pu9-s1.cnf", "--seed", "7", "--no-timing",
                                 "--report", "missing/r.json"], codes)
    Path("exit_codes.txt").write_text("\n".join(codes) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
