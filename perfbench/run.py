#!/usr/bin/env python3
"""The mdsat benchmark (see perfbench/README.md).

One workload, end-to-end metrics (tracing off):

    python3 perfbench/run.py --workload solve-fixed-mu --seed 1 --seconds 25 --trace 0

The same workload traced, for the per-layer metrics:

    python3 perfbench/run.py --workload solve-fixed-mu --seed 1 --seconds 25 --trace 1

Every workload, both runs, one summary table:

    python3 perfbench/run.py --all --seed 1 --seconds 25

The last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
carry the run facts and human-readable detail.  Work files and span files go
to ``.bench_build/perfbench`` under the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 7
RUN_TIMEOUT_S = 180  # the --all summary's limit on one single-workload child run


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload untraced and traced")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**40:
        p.error("--seed must lie in [0, 2**40)")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not args.all and args.workload is None:
        p.error("give --workload or --all")
    return args


SRC = ROOT / "src"
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import mdsat.cli; print(time.perf_counter() - t)"
)


def import_mdsat() -> None:
    """Import the package from this checkout's ``src``."""
    if not (SRC / "mdsat" / "__init__.py").is_file():
        raise SystemExit(f"error: no mdsat sources under {SRC}; run from a full checkout")
    # BLAS stays within the CPUs this process may use unless the caller chose.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    sys.path.insert(0, str(SRC))
    import mdsat.cli  # noqa: F401  (loads every mdsat module)

    if SRC.resolve() not in Path(sys.modules["mdsat"].__file__).resolve().parents:
        raise SystemExit(f"error: mdsat was imported from {sys.modules['mdsat'].__file__}, not {SRC}")


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import mdsat (the user's cost of
    starting any mdsat command, interpreter start-up excluded)."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(src=str(SRC))],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def run_item(item, tracer=None):
    """Run one command line in this process; returns (seconds, outcome).
    The check runs after the clock stops."""
    import mdsat.cli

    item.out.unlink(missing_ok=True)
    if tracer is not None:
        tracer.run_id = item.run_id
    captured = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = mdsat.cli.main(item.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed item, not a crashed benchmark
        traceback.print_exc()
        code = 2
    seconds = time.perf_counter() - t0
    return seconds, item.check(code, captured.getvalue(), item.expected)


def run_rounds(rounds, tracer=None):
    """Closed loop over the rounds; returns (round walls, outcomes)."""
    walls, outcomes = [], []
    for items in rounds:
        wall = 0.0
        for item in items:
            dt, outcome = run_item(item, tracer)
            wall += dt
            outcomes.append(outcome)
        walls.append(wall)
    return walls, outcomes


def run_passes(rounds, seconds):
    """Whole passes over the pool: at least one, and another only while one
    more pass of the last pass's length still fits in ``seconds``.  Every run
    of a seed thus covers the same instances, however fast the program is."""
    walls, outcomes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        pass_walls, pass_outcomes = run_rounds(rounds)
        walls += pass_walls
        outcomes += pass_outcomes
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return walls, outcomes


def traced_metrics(tracer, walls, outcomes, probes: dict) -> dict[str, float]:
    t = tracer.totals()
    wall = sum(walls)
    prepares = t["solver.prepare"]["calls"]
    builds = t["solver.allpass_trajectory"]["calls"]
    measurements = sum(o.measurements for o in outcomes)
    return {
        "statevec.apply_check.s": t["statevec.apply_check"]["self_s"],
        "statevec.apply_check.calls": t["statevec.apply_check"]["calls"],
        "statevec.apply_check.pass_ratio.n16": probes["statevec.apply_check.pass_ratio.n16"],
        "statevec.apply_check.pass_ratio.n22": probes["statevec.apply_check.pass_ratio.n22"],
        "statevec.pass_gbps.n22": probes["statevec.pass_gbps.n22"],
        "statevec.product_operator.s": t["statevec.product_operator"]["self_s"],
        "statevec.prob_one.s": t["statevec.prob_one"]["self_s"],
        "statevec.sample_basis.s": t["statevec.sample_basis"]["self_s"],
        "solver.resolve_mu.s": t["solver.resolve_mu"]["self_s"],
        "solver.resolve_mu.calls": t["solver.resolve_mu"]["calls"],
        "solver.allpass_trajectory.s": t["solver.allpass_trajectory"]["self_s"],
        "solver.allpass_trajectory.calls": builds,
        "solver.prepare.s": t["solver.prepare"]["self_s"],
        "solver.prepare.calls": prepares,
        "solver.traj_cache.hit_ratio": 1.0 - builds / prepares if prepares else 0.0,
        "solver.readout.s": t["solver.readout_unique"]["self_s"] + t["solver.readout_multiple"]["self_s"],
        "solver.solve.s": t["solver.solve"]["self_s"],
        "solver.preparations": sum(o.preparations for o in outcomes),
        "solver.restarts": sum(o.restarts for o in outcomes),
        "solver.measurements": measurements,
        "solver.sim_meas_per_s": measurements / wall,
        "spectral.convergence_rate.s": t["spectral.convergence_rate"]["self_s"],
        "spectral.convergence_rate.calls": t["spectral.convergence_rate"]["calls"],
        "spectral.spectral_gap.s": t["spectral.spectral_gap"]["self_s"],
        "spectral.uniform_gap.s": t["spectral.uniform_gap"]["self_s"],
        "spectral.friedrichs_speed_slack.s": t["spectral.friedrichs_speed_slack"]["self_s"],
        "spectral.spectral_report.s": t["spectral.spectral_report"]["self_s"],
        "encoding.ground_space_projector.s": t["encoding.ground_space_projector"]["self_s"],
        "encoding.hamiltonian_matrix.s": t["encoding.hamiltonian_matrix"]["self_s"],
        "formula.solution_indices.s": t["formula.solution_indices"]["self_s"],
        "formula.solution_indices.calls": t["formula.solution_indices"]["calls"],
        "formula.propagate.s": t["formula.propagate"]["self_s"],
        "formula.generate.s": t["formula.generate"]["self_s"],
        "phf.build_layers.s": t["phf.build_layers"]["self_s"],
        "phf.noncommuting_degree.s": t["phf.noncommuting_degree"]["self_s"],
        "phf.density_algorithm.n18k3.s": probes["phf.density_algorithm.n18k3.s"],
        "cli.s": t["cli"]["self_s"],
        "trace.wall_s": wall,
    }


def split_checks(workload: str, totals: dict, wall: float) -> list[tuple[str, bool, str]]:
    """The layer split each workload was built for: (claim, holds, measured)."""
    def share(*names, key="self_s"):
        return sum(totals[n][key] for n in names) / wall

    if workload == "solve-empirical-mu":
        self_share = share("spectral.convergence_rate")
        incl_share = share("spectral.convergence_rate", key="incl_s")
        return [("convergence_rate (with its product_operator and ground_space_projector) > 50% of wall",
                 incl_share > 0.5, f"inclusive {incl_share:.1%}, self {self_share:.1%}")]
    if workload == "solve-fixed-mu":
        return [
            ("mu is never computed: convergence_rate.calls == 0",
             totals["spectral.convergence_rate"]["calls"] == 0,
             f"convergence_rate.calls {totals['spectral.convergence_rate']['calls']}, "
             f"resolve_mu.calls {totals['solver.resolve_mu']['calls']} (each returns the user mu)"),
            ("apply_check > 50% of wall", share("statevec.apply_check") > 0.5,
             f"{share('statevec.apply_check'):.1%}"),
        ]
    if workload == "sweep-unrotated":
        top = max(totals, key=lambda n: totals[n]["self_s"])
        return [("solver.prepare has the largest self time", top == "solver.prepare",
                 f"largest is {top} at {share(top):.1%}; prepare {share('solver.prepare'):.1%}")]
    pair = share("spectral.uniform_gap", "spectral.friedrichs_speed_slack")
    return [("uniform_gap + friedrichs_speed_slack > 50% of wall", pair > 0.5, f"{pair:.1%}")]


def run_one(args) -> int:
    import_mdsat()
    from facts import run_facts
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    facts = run_facts(ROOT, w.name, args.seed, args.seconds, bool(args.trace))
    print("facts " + json.dumps(facts))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        import_s = fresh_import_s()
        t0 = time.perf_counter()
        rounds = w.setup(work, args.seed)
        setup_times.append(import_s + time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)
    for items in rounds:  # reference answers for the checks, outside every timer
        for item in items:
            item.expected = item.expect()

    missing: list[str] = []
    if args.trace:
        from probes import run_probes
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            walls, outcomes = run_rounds(rounds[:w.trace_rounds], tracer=tracer)
        finally:
            tracer.uninstall()
        totals = tracer.totals()
        metrics = traced_metrics(tracer, walls, outcomes, run_probes(args.seed))
        spans_path = WORK / f"spans-{w.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path, facts)
        wall = sum(walls)
        top = sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])[:6]
        print(f"traced wall {wall:.3f} s over {len(walls)} rounds; spans in {spans_path}")
        for name, entry in top:
            print(f"top {name:34s} self {entry['self_s']:9.4f} s {entry['self_s'] / wall:7.1%} "
                  f"calls {entry['calls']}")
        for claim, holds, measured in split_checks(w.name, totals, wall):
            print(f"split {'holds' if holds else 'DIFFERS'}: {claim}: {measured}")
        missing = [name for name in w.must_call if totals[name]["calls"] == 0]
    else:
        walls, outcomes = run_passes(rounds, args.seconds)
        metrics = {
            "wall_s": statistics.median(walls),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    measurements = sum(o.measurements for o in outcomes)
    info = {"rounds": len(walls), "round_walls": walls, "setup_times": setup_times,
            "fail_frac": failed / attempted}
    if w.solver:
        info["sim_meas_per_s"] = measurements / sum(walls)
    print("info " + json.dumps(info))
    for outcome in outcomes:
        for error in outcome.errors:
            print(f"check failed: {error}", file=sys.stderr)
    if missing:
        print(f"error: traced functions recorded no calls on {w.name}: {', '.join(missing)}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(set(units) ^ set(metrics))}")
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if missing else 0


def _lines(stdout: str, prefix: str) -> list[str]:
    return [line[len(prefix):] for line in stdout.splitlines() if line.startswith(prefix)]


def run_all(args) -> int:
    """Each workload untraced, then traced, in child processes; one table."""
    import_mdsat()
    from workloads import WORKLOADS

    rows = []
    ok = True
    for name in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            try:
                done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print(f"{name} trace={trace}: no result within {RUN_TIMEOUT_S} s")
                ok = False
                continue
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit code {done.returncode}")
                ok = False
                continue
            runs[trace] = (json.loads(lines[-1]), json.loads(_lines(done.stdout, "info ")[-1]))
            if trace:
                print(f"== {name} (traced)")
                for prefix in ("traced ", "top ", "split "):
                    for line in _lines(done.stdout, prefix):
                        print(f"  {prefix}{line}")
        if 0 not in runs:
            continue
        result, info = runs[0]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        overhead = None
        if 1 in runs:
            trace_walls = runs[1][1]["round_walls"]
            k = len(trace_walls)
            if len(info["round_walls"]) >= k:
                overhead = sum(trace_walls) / sum(info["round_walls"][:k]) - 1.0
        ok &= result["correct"]
        rows.append((name, metrics, info, overhead))
    print()
    print(f"{'workload':20s} {'wall_s':>9s} {'sim_meas_per_s':>15s} {'peak_rss_mib':>13s} "
          f"{'setup_s':>8s} {'fail_frac':>9s} {'trace overhead':>15s}")
    for name, m, info, overhead in rows:
        rate = f"{info['sim_meas_per_s']:.4g}" if "sim_meas_per_s" in info else "-"
        over = f"{overhead:+.1%}" if overhead is not None else "-"
        print(f"{name:20s} {m['wall_s']:9.3f} {rate:>15s} {m['peak_rss_mib']:13.1f} "
              f"{m['setup_s']:8.3f} {info['fail_frac']:9.3g} {over:>15s}")
    print("units: wall_s s, sim_meas_per_s 1/s, peak_rss_mib MiB, setup_s s, fail_frac 1")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.all:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
