#!/usr/bin/env python3
"""Write the seeded outputs of a fixed set of mdsat commands to a directory.

    python3 tools/seeded_outputs.py OUTDIR

Runs every command in process through ``mdsat.cli.main``, importing mdsat
from the ``src/`` next to this script, so that two checkouts can be compared
with ``diff -r OUTDIR_A OUTDIR_B``.  The set:

- four instances: planted_unique 9/39 seeds 1 and 2, random_ksat 8/30 seed 3
  and random_ksat 6/40 seed 4 (unsatisfiable);
- for each, ``solve --seed 7 --no-timing --report`` with both readouts, both
  plans and each of the VARIANTS below (80 runs);
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
- ``solve --mu-source dl_bound --theta-fraction 0.9 --readout multiple`` on
  planted_unique 4/17 seed 1, whose detectability-lemma mu of about 0.9994
  sets both the cycle count and the default budget;
- ``solve --readout multiple --theta-fraction 0.8`` on a 5-variable formula
  that this script writes, in which variable 1 occurs in no clause: the
  readout never prepares the whole formula, and the report still gives the
  mu and cycle count the run resolved for it;
- three ``--trace`` runs: planted_unique 9/39 seed 1 at 0.8 and at the
  default pi/2, where the trajectory is counted rather than evolved, and
  random_ksat 6/40 seed 4 at pi/2, whose preparations all fail until the
  measurement budget is spent, so its trace holds the header alone;
- a sweep over planted_unique n=6..9 at 0.5pi and 0.4pi with two trials,
  ``spectral`` at 0.25pi, 0.4pi and 0.5pi (the exact basis encoding) on
  planted_unique 6/26 seed 5 and on unate 6/14 seed 2 (commuting checks,
  g = 0), the same ``spectral`` on planted_unique 6/26 seed 5 under
  ``MDSAT_MEM_BYTES=524288`` (the gap and mu fit, the uniform gap is
  refused, so every row records the refusal), and ``phf 9 3``;
- the first ``spectral`` run and ``phf 9 3`` once more without ``--out``,
  which pins what each prints to stdout (the spectral CSV; the family
  alone, its summary line on stderr);
- four refusals, each of which must exit 2 with empty stdout:
  ``solve --report missing/r.json`` on planted_unique 9/39 seed 1, whose
  report directory does not exist, ``solve --budget 0`` on the same
  instance, ``gen unate_unique 5 -m 7 -k 3``, a clause count and width
  that kind cannot honour, and ``solve --theta 0.1 --mu-source user --mu
  0.9999999`` on planted_unique 6/26 seed 1 under
  ``MDSAT_MEM_BYTES=1073741824``: its state takes a few KiB, but about
  6.7e7 cycles of 27 measurements need 32 bytes each for their pass
  probabilities, so the trajectory is refused before its walk starts (the
  user mu keeps the refused byte count free of Lanczos and BLAS bits, the
  fixed budget keeps the refusal on any host).
- after the refusals, ``solve --seed 0`` with ``--readout unique`` and
  ``--readout multiple`` at ``--theta-fraction 0.8`` on ``p cnf 3 0``, a
  formula with no clauses, which this script writes: every attempt has no
  measurement to fail, so a preparation draws nothing from the generator
  (at this seed the unique readout's assignment moves if it does), and the
  multiple readout fixes every variable FALSE without a shot; and
  ``solve --readout unique --seed 10`` on x2 & (x1 | x3) & (-x1 | -x3),
  also written here, whose solutions 011 and 110 tie the majority vote on
  x1 and x3 in its first two attempts (two "majority vote produced a
  non-satisfying assignment" notes) before the third reads 011.

Every output file, stdout, stderr and exit code is written under a name
relative to OUTDIR; the commands run with OUTDIR as the working directory,
so no absolute path reaches an output.

The script exits 1 when a refusal does not exit 2 or prints to stdout, or
when any other command exits 2, so that a change which makes every solve
raise fails here even though it fails the same way on every run.
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
    "budget3000": ["--budget", "3000"],
}
REFUSALS = ("solve-missing-report", "solve-budget-0", "gen-unate-unique-m7-k3",
            "solve-pu6-s1-theta0.1")


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
    run("gen-pu4-s1", ["gen", "planted_unique", "4", "-m", "17", "--seed", "1",
                       "--out", "pu4-s1.cnf"], codes)
    run("solve-pu4-s1-dl-bound", ["solve", "pu4-s1.cnf", "--seed", "7", "--no-timing",
                                  "--report", "solve-pu4-s1-dl-bound.json", "--mu-source",
                                  "dl_bound", "--theta-fraction", "0.9", "--readout", "multiple"],
        codes)
    Path("free1.cnf").write_text("p cnf 5 4\n2 3 -4 0\n-2 4 5 0\n2 3 -5 0\n-3 -4 5 0\n",
                                 encoding="utf-8")
    run("solve-free1-multiple", ["solve", "free1.cnf", "--seed", "7", "--no-timing", "--report",
                                 "solve-free1-multiple.json", "--readout", "multiple",
                                 "--theta-fraction", "0.8"], codes)
    run("trace", ["solve", "pu9-s1.cnf", "--seed", "7", "--no-timing", "--report", "trace.json",
                  "--theta-fraction", "0.8", "--trace", "trace.csv"], codes)
    run("trace-pi2", ["solve", "pu9-s1.cnf", "--seed", "7", "--no-timing", "--report",
                      "trace-pi2.json", "--trace", "trace-pi2.csv"], codes)
    run("trace-rk6-s4", ["solve", "rk6-s4.cnf", "--seed", "7", "--no-timing", "--report",
                         "trace-rk6-s4.json", "--trace", "trace-rk6-s4.csv"], codes)
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
    run("spectral-stdout", ["spectral", "spectral.cnf", "--thetas", "0.25pi,0.4pi,0.5pi"], codes)
    run("phf-stdout", ["phf", "9", "3"], codes)
    run("solve-missing-report", ["solve", "pu9-s1.cnf", "--seed", "7", "--no-timing",
                                 "--report", "missing/r.json"], codes)
    run("solve-budget-0", ["solve", "pu9-s1.cnf", "--budget", "0"], codes)
    run("gen-unate-unique-m7-k3", ["gen", "unate_unique", "5", "-m", "7", "-k", "3"], codes)
    run("gen-pu6-s1", ["gen", "planted_unique", "6", "-m", "26", "--seed", "1",
                       "--out", "pu6-s1.cnf"], codes)
    with mock.patch.dict(os.environ, MDSAT_MEM_BYTES="1073741824"):
        run("solve-pu6-s1-theta0.1", ["solve", "pu6-s1.cnf", "--theta", "0.1", "--mu-source",
                                      "user", "--mu", "0.9999999"], codes)
    Path("free3.cnf").write_text("p cnf 3 0\n", encoding="utf-8")
    for readout in ("unique", "multiple"):
        name = f"solve-free3-{readout}"
        run(name, ["solve", "free3.cnf", "--seed", "0", "--no-timing", "--report", f"{name}.json",
                   "--readout", readout, "--theta-fraction", "0.8"], codes)
    Path("two3.cnf").write_text("p cnf 3 3\n2 0\n1 3 0\n-1 -3 0\n", encoding="utf-8")
    run("solve-two3-unique", ["solve", "two3.cnf", "--seed", "10", "--no-timing", "--report",
                              "solve-two3-unique.json", "--readout", "unique"], codes)
    Path("exit_codes.txt").write_text("\n".join(codes) + "\n", encoding="utf-8")
    wrong = []
    for line in codes:
        name, code = line.rsplit(" ", 1)
        if name in REFUSALS:
            if code != "2" or Path(f"{name}.stdout").read_text(encoding="utf-8"):
                wrong.append(f"{name} should exit 2 with empty stdout, exited {code}")
        elif code == "2":
            wrong.append(f"{name} exited 2")
    for message in wrong:
        print(f"unexpected: {message}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
