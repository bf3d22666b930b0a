#!/usr/bin/env python3
"""Time two checkouts against each other in alternating pairs of benchmark runs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --label L --pairs N \\
        [--workload W ...] [--seed S ...] [--what TEXT] [--claim WORKLOAD:METRIC]

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0``, with T the ``run_seconds`` of ``BENCHMARK.json``, started in
the checkout's own directory, so each side imports ``mdsat`` from its own
``src/`` and runs its own unmodified ``perfbench``.
For every seed and workload the script makes N pairs; the parent runs first
in even pairs and the change first in odd ones, so a drift of the host
shared by both sides does not favour either.

It writes ``BENCH_<L>.json`` in the current directory: the facts line of
the last change run, and for each seed and workload the failed and attempted counts
and, for every end-to-end metric of ``BENCHMARK.json``, each side's median,
quartiles (``statistics.quantiles``, exclusive method), interquartile range
and every run, with the change of the median and the number of pairs the
change won.  A run that exits non-zero or prints no result line stops the
script with exit code 1 and no file written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
COMMAND = "python3 perfbench/run.py --workload <name> --seed <seed> --seconds {seconds} --trace 0"
PROTOCOL = (
    "each checkout in its own directory; pairs alternate which side runs first "
    "(parent first in even pairs); one run per side per pair; metrics are the "
    "end-to-end metrics of BENCHMARK.json"
)


def parse_output(stdout: str) -> tuple[dict, dict]:
    """(facts, result) from the output of one untraced ``perfbench/run.py``:
    the line that starts with ``facts `` and the JSON object on the last line."""
    lines = stdout.strip().splitlines()
    facts = next((json.loads(l[len("facts "):]) for l in lines if l.startswith("facts ")), None)
    if facts is None or not lines[-1].startswith("{"):
        raise ValueError("no facts line or no result line in the run's output")
    return facts, json.loads(lines[-1])


def summarize(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {
        "median": round(statistics.median(runs), 5),
        "q1": round(q1, 5),
        "q3": round(q3, 5),
        "iqr": round(q3 - q1, 5),
        "runs": [round(r, 5) for r in runs],
    }


def aggregate(pairs: list[dict[str, dict]], first: list[str], better: dict[str, str]) -> dict:
    """One workload's entry from its pairs of result objects.

    ``pairs[i]`` maps "parent" and "change" to the result object of pair i,
    ``first[i]`` names the side that ran first in it, and ``better`` maps each
    end-to-end metric to "lower" or "higher"."""
    if len(pairs) < 2:
        raise ValueError("quartiles need at least 2 pairs")
    entry = {
        "pairs": len(pairs),
        "first": list(first),
        "failed": {side: [p[side]["failed"] for p in pairs] for side in SIDES},
        "attempted": {side: [p[side]["attempted"] for p in pairs] for side in SIDES},
        "metrics": {},
    }
    for name, direction in better.items():
        runs = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(runs["parent"], runs["change"]))
        medians = {side: statistics.median(runs[side]) for side in SIDES}
        entry["metrics"][name] = {
            "unit": pairs[0]["change"]["metrics"][name]["unit"],
            "parent": summarize(runs["parent"]),
            "change": summarize(runs["change"]),
            "median_change": f"{(medians['change'] / medians['parent'] - 1) * 100:+.1f}%",
            "change_better_in": f"{wins}/{len(pairs)} pairs",
        }
    return entry


def side_digests(facts_by_side: dict[str, list[dict]]) -> dict[str, dict]:
    """Per side: its commit (None for a copy that is no git repository) and
    every source digest its runs saw."""
    out = {}
    for side, facts in facts_by_side.items():
        commits = sorted({f["commit"] for f in facts}, key=str)
        out[side] = {
            "commit": commits[0] if len(commits) == 1 else commits,
            "src_sha256": sorted({f["src_sha256"] for f in facts}),
        }
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return parse_output(done.stdout)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--label", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--workload", action="append", help="default: every workload of BENCHMARK.json")
    p.add_argument("--seed", type=int, action="append", help="default: 1")
    p.add_argument("--what", default="")
    p.add_argument("--claim", help="WORKLOAD:METRIC that the change claims to improve")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = args.seed or [1]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    doc = {"label": args.label, "what": args.what,
           "command": COMMAND.format(seconds=seconds), "protocol": PROTOCOL}
    facts_by_side: dict[str, list[dict]] = {side: [] for side in SIDES}
    results = {}
    try:
        for seed in seeds:
            results[f"seed_{seed}"] = {}
            for workload in workloads:
                pairs, first = [], []
                for i in range(args.pairs):
                    order = SIDES if i % 2 == 0 else SIDES[::-1]
                    pair = {}
                    for side in order:
                        facts, pair[side] = run_once(checkouts[side], workload, seed, seconds)
                        facts_by_side[side].append(facts)
                        wall = pair[side]["metrics"]["wall_s"]["value"]
                        print(f"seed {seed} {workload} pair {i} {side}: wall_s {wall:.4f}",
                              file=sys.stderr, flush=True)
                    pairs.append(pair)
                    first.append(order[0])
                results[f"seed_{seed}"][workload] = aggregate(pairs, first, better)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc.update(side_digests(facts_by_side))
    doc["facts"] = {k: v for k, v in facts_by_side["change"][-1].items() if k != "workload"}
    if args.claim:
        workload, metric = args.claim.split(":")
        doc["claimed"] = {"workload": workload, "metric": metric, "better": better[metric]}
    doc.update(results)
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
