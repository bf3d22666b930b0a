"""The aggregation of tools/bench_pairs.py, on canned output of perfbench/run.py.
No benchmark run is started."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "peak_rss_mib": "lower", "setup_s": "lower"}


def _output(wall, rss, setup, attempted=100, failed=0, digest="abc"):
    facts = {"workload": "w", "seed": 1, "commit": None, "src_sha256": digest}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mib": {"value": rss, "unit": "MiB"},
            "setup_s": {"value": setup, "unit": "s"},
        },
    }
    return "\n".join(["facts " + json.dumps(facts), "info {}", json.dumps(result)]) + "\n"


def test_parse_output_reads_facts_and_last_line():
    facts, result = bench_pairs.parse_output(_output(0.5, 40.0, 0.1, digest="d1"))
    assert facts["src_sha256"] == "d1"
    assert result["metrics"]["wall_s"] == {"value": 0.5, "unit": "s"}
    with pytest.raises(ValueError):
        bench_pairs.parse_output("info {}\n")


def test_aggregate_canned_pairs():
    parent = [(0.30, 48.0, 0.16), (0.28, 48.5, 0.15), (0.32, 48.2, 0.17), (0.29, 48.1, 0.20)]
    change = [(0.20, 48.1, 0.15), (0.21, 48.3, 0.18), (0.33, 48.2, 0.16), (0.19, 48.0, 0.15)]
    pairs = [
        {"parent": bench_pairs.parse_output(_output(*p, attempted=90))[1],
         "change": bench_pairs.parse_output(_output(*c, attempted=120, failed=i % 2))[1]}
        for i, (p, c) in enumerate(zip(parent, change))
    ]
    first = ["parent", "change", "parent", "change"]
    entry = bench_pairs.aggregate(pairs, first, BETTER)
    assert entry["pairs"] == 4 and entry["first"] == first
    assert entry["attempted"] == {"parent": [90] * 4, "change": [120] * 4}
    assert entry["failed"] == {"parent": [0] * 4, "change": [0, 1, 0, 1]}
    wall = entry["metrics"]["wall_s"]
    assert wall["unit"] == "s"
    # exclusive quartiles of 0.28, 0.29, 0.30, 0.32: positions 1.25 and 3.75
    assert wall["parent"] == {"median": 0.295, "q1": 0.2825, "q3": 0.315, "iqr": 0.0325,
                              "runs": [0.3, 0.28, 0.32, 0.29]}
    assert wall["change"]["median"] == 0.205
    assert wall["median_change"] == "-30.5%"
    assert wall["change_better_in"] == "3/4 pairs"  # pair 2: 0.33 against 0.32
    assert entry["metrics"]["peak_rss_mib"]["change_better_in"] == "2/4 pairs"  # pair 2 ties
    assert entry["metrics"]["setup_s"]["median_change"] == "-6.1%"  # 0.155 against 0.165
    with pytest.raises(ValueError):
        bench_pairs.aggregate(pairs[:1], first[:1], BETTER)


def test_aggregate_higher_is_better():
    pairs = [{"parent": {"attempted": 1, "failed": 0, "metrics": {"rate": {"value": p, "unit": "1/s"}}},
              "change": {"attempted": 1, "failed": 0, "metrics": {"rate": {"value": c, "unit": "1/s"}}}}
             for p, c in ((10.0, 12.0), (10.0, 9.0), (11.0, 13.0))]
    entry = bench_pairs.aggregate(pairs, ["parent", "change", "parent"], {"rate": "higher"})
    assert entry["metrics"]["rate"]["change_better_in"] == "2/3 pairs"
    assert entry["metrics"]["rate"]["median_change"] == "+20.0%"


def test_aggregate_reproduces_committed_bench_file():
    committed = json.loads((ROOT / "BENCH_trajectory_renorm.json").read_text(encoding="utf-8"))
    for workload, recorded in committed["seed_1"].items():
        pairs = [
            {side: {"attempted": recorded["attempted"][side][i],
                    "failed": recorded["failed"][side][i],
                    "metrics": {name: {"value": m[side]["runs"][i], "unit": m["unit"]}
                                for name, m in recorded["metrics"].items()}}
             for side in ("parent", "change")}
            for i in range(recorded["pairs"])
        ]
        got = bench_pairs.aggregate(pairs, recorded["first"], BETTER)
        # that file's quartiles came from unrounded runs: the last digit may differ
        for name, m in recorded["metrics"].items():
            for side in ("parent", "change"):
                stats, want = got["metrics"][name].pop(side), m.pop(side)
                assert stats.pop("runs") == want.pop("runs"), (workload, name)
                assert stats == pytest.approx(want, abs=2e-5), (workload, name, side)
        assert got == recorded, workload


def test_side_digests():
    facts = {"parent": [{"commit": "c0", "src_sha256": "a"}] * 2,
             "change": [{"commit": None, "src_sha256": "b"}, {"commit": None, "src_sha256": "a"}]}
    assert bench_pairs.side_digests(facts) == {
        "parent": {"commit": "c0", "src_sha256": ["a"]},
        "change": {"commit": None, "src_sha256": ["a", "b"]},
    }
