"""Command-line harness: gen | solve | sweep | spectral | phf.

All commands are deterministic given their parameters and seed; floats are
printed with 17 significant digits so reports are diffable and re-ingestible.
Sweep configs are key=value files, overridable by flags.

This is the only module that touches the file system: each command reads its
input and opens every output (``solve``'s report and ``trace=`` stream
included) before it computes, and :func:`main` is the one place where an
error becomes ``error: ...`` on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import formula as fm
from . import phf as phfmod
from . import solver as sv
from . import spectral as sp
from .encoding import Unsatisfiable

SWEEP_SCHEMA = "mdsat-sweep/1"
SPECTRAL_SCHEMA = "mdsat-spectral-sweep/1"
# SpectralReport fields of a spectral row, in column order: all but the
# instance and angle (theta, n, m, k).
SPECTRAL_FIELDS = tuple(
    fld.name for fld in fields(sp.SpectralReport) if fld.name not in {"theta", "n", "m", "k"}
)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return "" if x is None else str(x)


def _snap_right_angle(theta: float) -> float:
    """Treat inputs within 1e-4 of pi/2 (e.g. the 4-decimal 1.5708) as pi/2."""
    return math.pi / 2 if abs(theta - math.pi / 2) <= 1e-4 else theta


def _parse_theta_token(token: str):
    """Angle tokens: radians ('1.2'), multiples of pi ('0.4pi'), or 'sched'
    (the per-n unate schedule cos(theta) = 1 - 2/n)."""
    token = token.strip().lower()
    if token == "sched":
        return "sched"
    try:
        if token.endswith("pi"):
            return _snap_right_angle(float(token[:-2]) * math.pi)
        return _snap_right_angle(float(token))
    except ValueError:
        raise ValueError(f"bad angle {token!r}") from None


def _parse_theta_grid(text: str) -> list:
    tokens = [t for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValueError("empty theta grid")
    return [_parse_theta_token(t) for t in tokens]


def _resolve_theta(token, n: int) -> float:
    if token == "sched":
        if n < 3:
            raise ValueError("scheduled angle needs n >= 3")
        return math.acos(1.0 - 2.0 / n)
    return token


def _split_key_value(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise ValueError(f"not key=value: {text!r}")
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def _load_config(path: str) -> dict[str, str]:
    config: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                key, value = _split_key_value(line)
                config[key] = value
    return config


def _read_dimacs(path: str) -> fm.Formula:
    with open(path, "r", encoding="utf-8") as fh:
        return fm.parse_dimacs(fh.read())


def _create(path: str | None, default=None):
    """Open an output path for writing, or hold ``default`` when there is none."""
    if path is None:
        return contextlib.nullcontext(default)
    return open(path, "w", encoding="utf-8", newline="")


def cmd_gen(args) -> int:
    with _create(args.out, sys.stdout) as fh:
        fh.write(fm.generate(args.kind, args.n, args.m, args.k, args.seed).to_dimacs())
    return 0


def _schedule_from_args(args) -> float | sv.Schedule:
    if args.schedule == "cubic":
        c_q = 32 if args.cycles is None else args.cycles
        if args.theta_init is None:
            return sv.Schedule(c_q=c_q)
        return sv.Schedule(c_q=c_q, theta_init=_snap_right_angle(args.theta_init))
    if args.theta_init is not None or args.cycles is not None:
        raise ValueError("--theta-init and --cycles need --schedule")
    if args.theta is not None:
        return _snap_right_angle(args.theta)
    return (args.theta_fraction if args.theta_fraction is not None else 1.0) * math.pi / 2


def cmd_solve(args) -> int:
    f = _read_dimacs(args.file)
    theta = _schedule_from_args(args)
    with _create(args.report) as report_fh, _create(args.trace) as trace_fh:
        report = sv.solve(
            f,
            theta,
            delta=args.delta,
            readout=args.readout,
            seed=args.seed,
            plan=args.plan,
            mu_source=args.mu_source,
            mu=args.mu,
            budget=args.budget,
            trace=trace_fh,
        )
        print(report.assignment if report.status == "SAT" else "UNSAT")
        if report_fh is not None:
            report_fh.write(report.to_json(include_timing=not args.no_timing) + "\n")
    return 0 if report.status == "SAT" else 1


@dataclass
class SweepConfig:
    kind: str = "random_ksat"
    n_values: list[int] = field(default_factory=lambda: [6])
    m: int | None = None  # None: the kind's own clause count
    m_per_n: float = 0.0  # if set, m = round(m_per_n * n)
    k: int | None = None  # None: the kind's own clause width
    thetas: list = field(default_factory=lambda: [math.pi / 2])
    trials: int = 3
    delta: float = 0.1
    seed: int = 0
    readout: str = "multiple"
    plan: str = "sequential"
    workers: int = 1
    out: str = "sweep.csv"


def _parse_int_range(text: str) -> list[int]:
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..")
            values.extend(range(int(lo), int(hi) + 1))
        else:
            values.append(int(part))
    return values


def sweep_config_from_mapping(mapping: dict[str, str]) -> SweepConfig:
    cfg = SweepConfig()
    for key, value in mapping.items():
        if key == "n":
            cfg.n_values = _parse_int_range(value)
        elif key == "thetas":
            cfg.thetas = _parse_theta_grid(value)
        elif key in ("m", "k", "trials", "seed", "workers"):
            setattr(cfg, key, int(value))
        elif key in ("delta", "m_per_n"):
            setattr(cfg, key, float(value))
        elif key in ("kind", "readout", "plan", "out"):
            setattr(cfg, key, value)
        else:
            raise ValueError(f"unknown sweep config key {key!r}")
    if not cfg.n_values:
        raise ValueError("empty n range")
    if min(cfg.trials, cfg.workers) < 1:
        raise ValueError(f"trials and workers must be >= 1, got {cfg.trials}, {cfg.workers}")
    return cfg


def _sweep_row(task) -> dict:
    cfg, n, theta_token, trial = task
    m = cfg.m if cfg.m_per_n == 0.0 else round(cfg.m_per_n * n)
    base = {
        "kind": cfg.kind,
        "n": n,
        "m": m,
        "theta_mode": "sched" if theta_token == "sched" else "fixed",
        "theta": None,
        "trial": trial,
        "status": "error",
        "measurements": None,
        "restarts": None,
        "preparations": None,
        "assignment": "",
        "error": "",
    }
    theta = None
    try:
        instance_seed = cfg.seed * 1_000_003 + n
        f = fm.generate(cfg.kind, n, m, cfg.k, instance_seed)
        theta = _resolve_theta(theta_token, n)
        report = sv.solve(
            f,
            theta,
            delta=cfg.delta,
            readout=cfg.readout,
            seed=int(np.random.default_rng([cfg.seed, n, trial]).integers(2**63)),
            plan=cfg.plan,
        )
    except (ValueError, FloatingPointError) as exc:
        # budget refusals, bad per-row parameters and numerics failures are
        # reported, not fatal; the row keeps its angle once it is known, so
        # that it sorts among the rows of the same angle
        return {**base, "theta": theta, "error": str(exc)}
    return {
        **base,
        "m": f.m,
        "theta": theta,
        "status": report.status,
        "measurements": report.measurements,
        "restarts": report.restarts,
        "preparations": report.preparations,
        "assignment": report.assignment or "",
    }


def run_sweep(cfg: SweepConfig) -> list[dict]:
    tasks = [
        (cfg, n, theta_token, trial)
        for n in cfg.n_values
        for theta_token in cfg.thetas
        for trial in range(cfg.trials)
    ]
    workers = min(cfg.workers, len(tasks))
    if workers > 1:
        # imported here: they are a large share of the import time of a run
        # that does not start a pool
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        ctx = multiprocessing.get_context("spawn")  # fork starts every worker at once
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]
    rows.sort(key=lambda r: (r["n"], r["theta_mode"], r["theta"], r["trial"]))
    return rows


def _write_csv(fh, schema: str, rows: list[dict]) -> None:
    if not rows:
        raise ValueError("no rows to write")
    fh.write(f"# schema={schema}\n")
    writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(v) for k, v in row.items()})


def cmd_sweep(args) -> int:
    mapping = _load_config(args.config) if args.config else {}
    mapping.update(_split_key_value(override) for override in args.set or [])
    cfg = sweep_config_from_mapping(mapping)
    with _create(cfg.out) as fh:
        rows = run_sweep(cfg)
        _write_csv(fh, SWEEP_SCHEMA, rows)
    print(f"wrote {len(rows)} rows to {cfg.out}")
    return 0


def cmd_spectral(args) -> int:
    f = _read_dimacs(args.file)
    thetas = _parse_theta_grid(args.thetas)
    if "sched" in thetas:
        raise ValueError("the 'sched' angle is for sweeps only")
    with _create(args.out, sys.stdout) as fh:
        rows = []
        for theta in thetas:
            base = {"file": args.file, "n": f.n, "m": f.m, "theta": theta}
            try:
                rep = sp.spectral_report(
                    f,
                    theta,
                    with_uniform=not args.no_uniform,
                    with_friedrichs=not args.no_friedrichs,
                )
                values = {key: getattr(rep, key) for key in SPECTRAL_FIELDS}
                rows.append({**base, "status": "ok", **values, "error": ""})
            except ValueError as exc:  # Unsatisfiable included
                d_sol = 0 if isinstance(exc, Unsatisfiable) else None
                values = {**dict.fromkeys(SPECTRAL_FIELDS), "d_sol": d_sol}
                rows.append({**base, "status": "error", **values, "error": str(exc)})
        _write_csv(fh, SPECTRAL_SCHEMA, rows)
    if args.out is not None:
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_phf(args) -> int:
    with _create(args.out, sys.stdout) as fh:
        rows = phfmod.density_algorithm(args.n, args.k)
        ok = phfmod.verify_phf(rows, args.n, args.k)
        fh.write(phfmod.save_phf(rows))
    # the summary line goes to stderr when stdout carries the family
    print(f"rows={rows.shape[0]} verified={str(ok).lower()}",
          file=sys.stderr if args.out is None else sys.stdout)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdsat", description="measurement-driven SAT solver simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a DIMACS instance")
    p.add_argument("kind", choices=["random_ksat", "planted_unique", "unate", "unate_unique"])
    p.add_argument("n", type=int)
    p.add_argument("-m", type=int, default=None, help="clause count (default: the kind's own)")
    p.add_argument("-k", type=int, default=None, help="clause width (default: the kind's own)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("solve", help="solve a DIMACS instance")
    p.add_argument("file")
    angle = p.add_mutually_exclusive_group()
    angle.add_argument("--theta", type=float, default=None, help="rotation angle in radians")
    angle.add_argument(
        "--theta-fraction", type=float, default=None, help="rotation angle as a fraction of pi/2"
    )
    angle.add_argument("--schedule", choices=["cubic"], default=None)
    p.add_argument("--theta-init", type=float, default=None, help="start angle of the schedule")
    p.add_argument(
        "--cycles", type=int, default=None, help="target cycle count of the schedule (default 32)"
    )
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--readout", choices=["unique", "multiple"], default="multiple")
    p.add_argument("--plan", choices=["sequential", "layered"], default="sequential")
    p.add_argument("--mu-source", choices=["empirical", "dl_bound", "user"], default="empirical")
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None, help="write the JSON run report here")
    p.add_argument("--no-timing", action="store_true", help="omit wall time from the report")
    p.add_argument("--trace", default=None, help="CSV log of every preparation measurement")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("sweep", help="run a seeded experiment sweep to CSV")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("spectral", help="spectral report over a theta grid")
    p.add_argument("file")
    p.add_argument("--thetas", default="0.1pi,0.25pi,0.4pi,0.5pi")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.add_argument("--no-uniform", action="store_true")
    p.add_argument("--no-friedrichs", action="store_true")
    p.set_defaults(fn=cmd_spectral)

    p = sub.add_parser("phf", help="construct and verify a perfect hash family")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_phf)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    # DimacsError, CapExceeded, Unsatisfiable and LinAlgError are ValueErrors
    except (ValueError, FloatingPointError, fm.GenerationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
