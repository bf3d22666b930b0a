"""The four workloads: inputs made from the seed, the ``mdsat`` command lines
that run them, and the checks that decide whether each output is correct.

Every input is a DIMACS file or a sweep setting derived from the benchmark
seed; the program sees nothing else.  Set-up (timed as ``setup_s``) generates
the instances, writes them and loads the recorded spectral values.  Each
item's reference answer is computed after that, outside every timer: the
planted unique solution of a solve instance by brute force, or the instance a
sweep row solves, regenerated with the program's own generator.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from mdsat import brute_force_solutions, evaluate, generate

HERE = Path(__file__).resolve().parent
SPECTRAL_REFERENCE = HERE / "reference" / "spectral.json"

THETA_FRACTION = "0.8"  # theta = 0.4 pi, as a fraction of pi/2
SLACK_FLOOR = -1e-9  # every inequality slack of a spectral row stays above this
SPECTRAL_FIELDS = ("gap", "mu", "uniform_gap", "friedrichs_c")
SLACK_FIELDS = ("gap_bound_slack", "dl_slack", "qub_slack", "speed_bound_slack")
SWEEP_N, SWEEP_M_PER_N = 19, 4.3
SWEEP_POOL = 5  # sweeps per run, one sweep seed each
SPECTRAL_POOL = 6  # instances per run, drawn from the recorded reference pool
SPECTRAL_HEAVY = 4  # every run draws one of this many instances with the largest Friedrichs Gram


@dataclass
class Outcome:
    """What one command produced, reduced to counts and error messages."""

    attempted: int
    failed: int = 0
    measurements: int = 0
    preparations: int = 0
    restarts: int = 0
    errors: list[str] = field(default_factory=list)


@dataclass
class Item:
    """One ``mdsat`` command line; ``out`` is removed before it runs so that
    ``check`` never reads a stale file.  ``expect`` computes the reference
    answer that ``check`` compares against; it runs once, after set-up and
    outside its timer, and its result is kept in ``expected``."""

    run_id: str
    argv: list[str]
    out: Path
    expect: Callable[[], object]
    check: Callable[[int, str, object], Outcome]  # (exit code, stdout, expected)
    expected: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Path, int], list[list[Item]]]  # (work dir, seed) -> rounds, the pool of one pass
    trace_rounds: int  # rounds of the traced run, which runs a fixed amount of work
    solver: bool  # whether its items simulate measurements
    must_call: tuple[str, ...]  # spans the traced run has to record at least once


def unique_solution(f) -> str:
    """The only solution of a planted_unique instance, found by brute force."""
    sols = brute_force_solutions(f)
    if len(sols) != 1:
        raise RuntimeError(f"instance has {len(sols)} solutions, expected exactly one")
    return next(iter(sols))


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def read_csv_rows(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _solve_item(run_id: str, dimacs: Path, f, flags: list[str], seed: int) -> Item:
    report = dimacs.with_name(f"{run_id}.report.json")

    def check(code: int, stdout: str, solution: str) -> Outcome:
        out = Outcome(attempted=1)
        try:
            rep = json.loads(report.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            rep = {}
        out.measurements = int(rep.get("measurements") or 0)
        out.preparations = int(rep.get("preparations") or 0)
        out.restarts = int(rep.get("restarts") or 0)
        printed = stdout.split()[:1]
        if code != 0:
            out.errors.append(f"{run_id}: exit code {code}")
        elif printed != [solution] or rep.get("assignment") != solution:
            out.errors.append(f"{run_id}: printed {printed}, report {rep.get('assignment')!r}, planted {solution}")
        out.failed = 1 if out.errors else 0
        return out

    argv = ["solve", str(dimacs), "--theta-fraction", THETA_FRACTION, "--seed", str(seed), *flags,
            "--report", str(report)]
    return Item(run_id, argv, report, lambda: unique_solution(f), check)


def _solve_rounds(work: Path, seed: int, n: int, m: int, pool: int, variants: dict[str, list[str]]):
    """One round per instance: the instance solved once with each flag variant."""
    rounds = []
    for j in range(pool):
        s = seed * 100 + j
        f = generate("planted_unique", n, m, 3, s)
        path = _write(work / f"n{n}-{j}.cnf", f.to_dimacs())
        rounds.append([_solve_item(f"r{j}.{name}", path, f, flags, s) for name, flags in variants.items()])
    return rounds


def setup_solve_empirical_mu(work: Path, seed: int) -> list[list[Item]]:
    return _solve_rounds(work, seed, 10, 43, 5, {ro: ["--readout", ro] for ro in ("unique", "multiple")})


def setup_solve_fixed_mu(work: Path, seed: int) -> list[list[Item]]:
    fixed = ["--readout", "unique", "--mu-source", "user", "--mu", "0.6", "--plan"]
    return _solve_rounds(work, seed, 17, 73, 5, {plan: fixed + [plan] for plan in ("sequential", "layered")})


def sweep_instance(sweep_seed: int):
    """The instance ``mdsat sweep`` solves in its n=SWEEP_N row: the sweep
    derives the instance seed as ``seed * 1_000_003 + n``."""
    m = round(SWEEP_M_PER_N * SWEEP_N)
    return {SWEEP_N: generate("planted_unique", SWEEP_N, m, 3, sweep_seed * 1_000_003 + SWEEP_N)}


def setup_sweep_unrotated(work: Path, seed: int) -> list[list[Item]]:
    rounds = []
    for j, sweep_seed in enumerate(random.Random(seed).sample(range(10**6), SWEEP_POOL)):
        out = work / f"sweep{j}.csv"
        settings = {
            "kind": "planted_unique", "n": str(SWEEP_N), "m_per_n": str(SWEEP_M_PER_N), "thetas": "0.5pi",
            "readout": "multiple", "trials": "1", "workers": "1", "seed": str(sweep_seed), "out": str(out),
        }
        argv = ["sweep"] + [a for k, v in settings.items() for a in ("--set", f"{k}={v}")]
        expect = lambda s=sweep_seed: sweep_instance(s)  # noqa: E731
        rounds.append([Item(f"r{j}.sweep", argv, out, expect, _sweep_check(f"r{j}", out))])
    return rounds


def _sweep_check(run_id: str, path: Path):
    def check(code: int, stdout: str, expected: dict) -> Outcome:
        out = Outcome(attempted=len(expected))
        rows = {}
        if code != 0:
            out.errors.append(f"{run_id}: exit code {code}")
        else:
            try:
                rows = {int(r["n"]): r for r in read_csv_rows(path)}
            except (OSError, ValueError, KeyError) as exc:
                out.errors.append(f"{run_id}: unreadable sweep CSV: {exc}")
        for n, f in expected.items():
            row = rows.get(n)
            if row is None:
                out.failed += 1
                out.errors.append(f"{run_id}: no row for n={n}")
                continue
            out.measurements += int(row["measurements"] or 0)
            out.preparations += int(row["preparations"] or 0)
            out.restarts += int(row["restarts"] or 0)
            assignment = row["assignment"]
            if (row["status"] != "SAT" or int(row["m"]) != f.m or len(assignment) != n
                    or set(assignment) - {"0", "1"} or not evaluate(f, assignment)):
                out.failed += 1
                out.errors.append(f"{run_id}: n={n} status {row['status']}, m {row['m']} (instance has {f.m}), "
                                  f"assignment {assignment!r}; want SAT, the instance's m and an assignment that satisfies it")
        return out

    return check


def load_reference(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def spectral_instance(instance_seed: int, ref: dict):
    return generate("planted_unique", ref["n"], ref["m"], 3, instance_seed)


def setup_spectral_report(work: Path, seed: int) -> list[list[Item]]:
    ref = load_reference(SPECTRAL_REFERENCE)
    # peak_rss_mib is set by the largest Friedrichs Gram a run forms (order
    # 1085 to 1976 over the pool).  Drawing one instance of the heaviest few
    # in every run keeps that peak comparable from seed to seed.
    rng = random.Random(seed)
    by_gram = sorted(ref["instances"], key=lambda entry: -entry["gram_dim"])
    picks = [rng.choice(by_gram[:SPECTRAL_HEAVY])] + rng.sample(by_gram[SPECTRAL_HEAVY:], SPECTRAL_POOL - 1)
    rng.shuffle(picks)
    rounds = []
    for j, entry in enumerate(picks):
        text = spectral_instance(entry["seed"], ref).to_dimacs()
        if hashlib.sha256(text.encode()).hexdigest() != entry["dimacs_sha256"]:
            raise RuntimeError(
                f"instance seed {entry['seed']} no longer matches the recorded reference; "
                "re-record it with perfbench/record_reference.py"
            )
        path = _write(work / f"p{j}.cnf", text)
        out = work / f"spectral{j}.csv"
        argv = ["spectral", str(path), "--thetas", ref["thetas"], "--out", str(out)]
        check = _spectral_check(f"r{j}", out, ref["tolerance"])
        rounds.append([Item(f"r{j}.spectral", argv, out, lambda rows=entry["rows"]: rows, check)])
    return rounds


def _spectral_check(run_id: str, path: Path, tol: float):
    def check(code: int, stdout: str, expected: list[dict]) -> Outcome:
        out = Outcome(attempted=len(expected))
        rows = []
        if code != 0:
            out.errors.append(f"{run_id}: exit code {code}")
        else:
            try:
                rows = read_csv_rows(path)
            except OSError as exc:
                out.errors.append(f"{run_id}: unreadable spectral CSV: {exc}")
        for want in expected:
            got = next((r for r in rows if math.isclose(float(r["theta"]), want["theta"], rel_tol=1e-12)), None)
            problems = []
            if got is None:
                problems.append("row missing")
            else:
                if got["status"] != "ok":
                    problems.append(f"status {got['status']}: {got['error']}")
                for key in SLACK_FIELDS:
                    if got[key] and float(got[key]) < SLACK_FLOOR:
                        problems.append(f"{key} = {got[key]}")
                for key in SPECTRAL_FIELDS:
                    value = float(got[key]) if got[key] else None
                    if (value is None) != (want[key] is None) or (
                        value is not None and abs(value - want[key]) > tol
                    ):
                        problems.append(f"{key} = {got[key]}, reference {want[key]!r}")
            if problems:
                out.failed += 1
                out.errors.append(f"{run_id}: theta {want['theta']:.6g}: " + "; ".join(problems))
        return out

    return check


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-empirical-mu",
            setup_solve_empirical_mu, trace_rounds=3, solver=True,
            must_call=("solver.resolve_mu", "spectral.convergence_rate", "statevec.product_operator",
                       "encoding.ground_space_projector", "solver.allpass_trajectory", "solver.prepare",
                       "solver.readout_unique", "solver.readout_multiple", "statevec.apply_check"),
        ),
        Workload(
            "solve-fixed-mu",
            setup_solve_fixed_mu, trace_rounds=4, solver=True,
            must_call=("statevec.apply_check", "solver.allpass_trajectory", "solver.prepare",
                       "solver.readout_unique", "phf.build_layers", "statevec.sample_basis"),
        ),
        Workload(
            "sweep-unrotated",
            setup_sweep_unrotated, trace_rounds=4, solver=True,
            must_call=("solver.prepare", "solver.allpass_trajectory", "solver.readout_multiple",
                       "statevec.prob_one", "formula.propagate", "formula.solution_indices",
                       "formula.generate"),
        ),
        Workload(
            "spectral-report",
            setup_spectral_report, trace_rounds=3, solver=False,
            must_call=("spectral.spectral_gap", "spectral.uniform_gap", "spectral.friedrichs_speed_slack",
                       "spectral.convergence_rate", "encoding.hamiltonian_matrix",
                       "statevec.product_operator", "phf.build_layers"),
        ),
    )
}
