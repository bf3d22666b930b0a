import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import paper_checks as pc
import pytest

from mdsat import cli
from mdsat import formula as fm
from mdsat import phf, solver
from mdsat import spectral as sp


def _fail_first_trajectory(monkeypatch):
    """Make the first all-pass trajectory raise the FloatingPointError of a
    numerics failure; later ones run as usual."""
    real = solver.allpass_trajectory
    calls = []

    def allpass_trajectory(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise FloatingPointError("pass probability nan is not finite")
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "allpass_trajectory", allpass_trajectory)


def run(argv):
    return cli.main(argv)


class TestGen:
    def test_writes_dimacs(self, tmp_path):
        out = tmp_path / "f.cnf"
        assert run(["gen", "random_ksat", "10", "-m", "42", "-k", "3", "--seed", "7", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.splitlines()[0] == "p cnf 10 42"
        fm.parse_dimacs(text)

    def test_unate_unique_shape(self, tmp_path):
        out = tmp_path / "u.cnf"
        run(["gen", "unate_unique", "8", "--seed", "3", "--out", str(out)])
        f = fm.parse_dimacs(out.read_text())
        assert f.m == 8 and all(c.width == 1 for c in f.clauses)

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.cnf", tmp_path / "b.cnf"
        args = ["gen", "planted_unique", "6", "-m", "18", "--seed", "5"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSolve:
    def test_satisfiable_exit_zero(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        run(["gen", "planted_unique", "6", "-m", "18", "--seed", "2", "--out", str(cnf)])
        rep = tmp_path / "r.json"
        code = run([
            "solve", str(cnf), "--theta-fraction", "0.8", "--seed", "1",
            "--report", str(rep), "--no-timing",
        ])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        data = json.loads(rep.read_text())
        assert data["status"] == "SAT" and data["assignment"] == printed
        f = fm.parse_dimacs(cnf.read_text())
        assert fm.evaluate(f, printed)
        assert "wall_time_s" not in data

    def test_unsatisfiable_exit_one(self, tmp_path, capsys):
        cnf = tmp_path / "u.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        code = run(["solve", str(cnf), "--seed", "0"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "UNSAT"

    @pytest.mark.parametrize("flags", [[], ["--readout", "unique"], ["--schedule", "cubic"]],
                             ids=["multiple", "unique", "cubic"])
    def test_no_variables_exit_two(self, flags, tmp_path, capsys):
        cnf = tmp_path / "empty.cnf"
        cnf.write_text("p cnf 0 0\n")
        assert run(["solve", str(cnf), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "n = 0" in captured.err

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 1 1\n1 -1 0\n")
        assert run(["solve", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_cap_error_exit_two(self, tmp_path, capsys):
        cnf = tmp_path / "big.cnf"
        run(["gen", "random_ksat", "30", "-m", "20", "--seed", "1", "--out", str(cnf)])
        assert run(["solve", str(cnf), "--theta-fraction", "0.8"]) == 2
        assert "MDSAT_MEM_BYTES" in capsys.readouterr().err

    def test_numerics_error_exit_two(self, tmp_path, capsys, monkeypatch):
        # a numerics failure is an error (exit 2), not an UNSAT verdict (exit 1)
        cnf = tmp_path / "f.cnf"
        run(["gen", "planted_unique", "4", "-m", "10", "--seed", "1", "--out", str(cnf)])
        _fail_first_trajectory(monkeypatch)
        assert run(["solve", str(cnf), "--theta-fraction", "0.8", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "not finite" in captured.err

    def test_bad_parameters_exit_two(self, tmp_path, capsys):
        assert run(["gen", "random_ksat", "2", "-m", "4", "-k", "3"]) == 2
        assert run(["phf", "2", "3"]) == 2
        capsys.readouterr()
        out = f"out={tmp_path / 'sweep.csv'}"
        for argv in (
            ["sweep", "--set", out, "--set", "n=5..3"],
            ["sweep", "--set", out, "--set", "trials=0"],
            ["sweep", "--set", out, "--set", "foo"],
            ["sweep", "--set", out, "--set", "mode=deterministic"],
            ["sweep", "--config", str(tmp_path / "missing.cfg")],
        ):
            assert run(argv) == 2, argv
            assert capsys.readouterr().err.startswith("error: "), argv
        assert not (tmp_path / "sweep.csv").exists()

    def test_theta_flag_equivalence(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        run(["gen", "random_ksat", "5", "-m", "10", "--seed", "9", "--out", str(cnf)])
        reports = []
        # the 4-decimal 1.5708 snaps to exactly pi/2
        for flag in (["--theta", "1.5708"], ["--theta-fraction", "1.0"]):
            rep = tmp_path / f"r{len(reports)}.json"
            run(["solve", str(cnf), *flag, "--seed", "4", "--report", str(rep), "--no-timing"])
            reports.append(rep.read_text())
        capsys.readouterr()
        assert reports[0] == reports[1]

    def test_theta_init_snaps_like_theta(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        run(["gen", "planted_unique", "6", "-m", "26", "--seed", "1", "--out", str(cnf)])
        reports = []
        for theta_init in ("1.5708", repr(math.pi / 2)):
            rep = tmp_path / f"r{len(reports)}.json"
            assert run(["solve", str(cnf), "--schedule", "cubic", "--cycles", "4",
                        "--theta-init", theta_init, "--seed", "4", "--report", str(rep),
                        "--no-timing"]) == 0
            reports.append(rep.read_text())
        capsys.readouterr()
        assert json.loads(reports[0])["schedule"]["theta_init"] == math.pi / 2
        assert reports[0] == reports[1]

    def test_trace_csv(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        run(["gen", "random_ksat", "4", "-m", "8", "--seed", "13", "--out", str(cnf)])
        trace = tmp_path / "trace.csv"
        run(["solve", str(cnf), "--theta-fraction", "0.8", "--seed", "2",
             "--trace", str(trace)])
        capsys.readouterr()
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("preparation,attempt,cycle,check,outcome")
        assert all(line.split(",")[4] in ("pass", "fail") for line in lines[1:])

    def test_report_determinism(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        run(["gen", "random_ksat", "6", "-m", "14", "--seed", "3", "--out", str(cnf)])
        outs = []
        for i in range(2):
            rep = tmp_path / f"d{i}.json"
            run(["solve", str(cnf), "--theta-fraction", "0.9", "--seed", "11",
                 "--report", str(rep), "--no-timing"])
            outs.append(rep.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]


class TestSweep:
    def _config(self, tmp_path, **overrides):
        path = tmp_path / "sweep.cfg"
        base = {
            "kind": "unate_unique",
            "n": "4..6",
            "thetas": "0.5pi,sched",
            "trials": "2",
            "delta": "0.2",
            "seed": "1",
            "readout": "unique",
            "out": str(tmp_path / "sweep.csv"),
        }
        base.update(overrides)
        path.write_text("".join(f"{k}={v}\n" for k, v in base.items()))
        return path

    def test_unate_sweep_two_columns(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        assert run(["sweep", "--config", str(cfg)]) == 0
        capsys.readouterr()
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "# schema=mdsat-sweep/1"
        rows = [dict(zip(lines[1].split(","), l.split(","))) for l in lines[2:]]
        assert len(rows) == 3 * 2 * 2  # n values x theta modes x trials
        modes = {r["theta_mode"] for r in rows}
        assert modes == {"fixed", "sched"}
        for r in rows:
            assert r["status"] == "SAT"
            f = fm.generate("unate_unique", int(r["n"]), seed=1 * 1_000_003 + int(r["n"]))
            assert fm.evaluate(f, r["assignment"])

    def test_sweep_determinism(self, tmp_path, capsys):
        outs = []
        for i in range(2):
            out = tmp_path / f"s{i}.csv"
            cfg = self._config(tmp_path, out=str(out), n="4..5", trials="1")
            run(["sweep", "--config", str(cfg)])
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_empty_theta_grid_errors(self, tmp_path, capsys):
        cfg = self._config(tmp_path, thetas="")
        assert run(["sweep", "--config", str(cfg)]) == 2
        assert "theta" in capsys.readouterr().err
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 1\n1 2 0\n")
        for thetas in ("", "abc", "sched"):
            assert run(["spectral", str(cnf), "--thetas", thetas]) == 2, thetas
            assert capsys.readouterr().err.startswith("error: "), thetas

    def test_flag_override(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        cfg = self._config(tmp_path, trials="1", thetas="0.5pi", n="4")
        assert run(["sweep", "--config", str(cfg), "--set", f"out={out}"]) == 0
        capsys.readouterr()
        assert out.exists()

    def test_cap_violation_reported_per_row(self, tmp_path, capsys):
        # n=30 enumerates 10 GiB, over the memory budget; the row reports the
        # error while the rows that fit still complete
        import csv

        cfg = self._config(tmp_path, n="4,30", trials="1", thetas="0.5pi")
        assert run(["sweep", "--config", str(cfg)]) == 0
        capsys.readouterr()
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        by_n = {int(r["n"]): r for r in rows}
        assert by_n[4]["status"] == "SAT"
        assert by_n[30]["status"] == "error" and "MDSAT_MEM_BYTES" in by_n[30]["error"]

    def test_numerics_error_reported_per_row(self, tmp_path, capsys, monkeypatch):
        # the first solve hits a numerics failure; its row reports the error
        # under its angle, and the sweep still writes every row
        import csv

        _fail_first_trajectory(monkeypatch)
        cfg = self._config(tmp_path, kind="planted_unique", n="4", m="10",
                           thetas="0.4pi", trials="2")
        assert run(["sweep", "--config", str(cfg)]) == 0
        capsys.readouterr()
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        assert [r["trial"] for r in rows] == ["0", "1"]
        assert rows[0]["status"] == "error" and "not finite" in rows[0]["error"]
        assert rows[1]["status"] == "SAT" and rows[1]["error"] == ""
        assert rows[0]["theta"] == rows[1]["theta"] != ""

    def test_pool_sized_by_tasks_and_spawned(self, tmp_path, capsys, monkeypatch):
        # A stand-in executor records how the pool is opened and runs the
        # rows in this process, so the test starts no process.
        opened = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context):
                opened.append((max_workers, mp_context.get_start_method()))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        cfg = self._config(tmp_path, n="4", thetas="0.5pi", trials="2")
        assert run(["sweep", "--config", str(cfg), "--set", "workers=500"]) == 0
        assert opened == [(2, "spawn")]  # two rows, two workers
        assert run(["sweep", "--config", str(cfg), "--set", "trials=1",
                    "--set", "workers=500"]) == 0
        assert opened == [(2, "spawn")]  # one row runs in this process
        for workers in ("0", "-3"):
            assert run(["sweep", "--config", str(cfg), "--set", f"workers={workers}"]) == 2
            assert "workers must be >= 1" in capsys.readouterr().err

    def test_worker_parallelism_deterministic(self, tmp_path, capsys):
        outs = []
        for i, workers in enumerate(("1", "2")):
            out = tmp_path / f"w{i}.csv"
            cfg = self._config(tmp_path, n="4..6", trials="2", out=str(out))
            run(["sweep", "--config", str(cfg), "--set", f"workers={workers}"])
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]


def _stdout_rows(capsys) -> list[dict]:
    """The rows of a spectral CSV printed to stdout, below its schema line."""
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# schema=mdsat-spectral-sweep/1"
    return list(csv.DictReader(lines[1:]))


class TestSpectralCmd:
    def test_csv_rows(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        run(["gen", "random_ksat", "4", "-m", "6", "--seed", "21", "--out", str(cnf)])
        f = fm.parse_dimacs(cnf.read_text())
        if f.solutions.size == 0:  # reroll would change rows; just require sat seed
            pytest.skip("seed produced UNSAT instance")
        out = tmp_path / "s.csv"
        assert run(["spectral", str(cnf), "--thetas", "0.25pi,0.5pi", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema=mdsat-spectral-sweep/1"
        assert len(lines) == 4  # schema + header + 2 theta rows

    def test_unsat_error_rows(self, tmp_path, capsys):
        cnf = tmp_path / "u.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        out = tmp_path / "s.csv"
        assert run(["spectral", str(cnf), "--thetas", "0.3pi,0.5pi", "--out", str(out)]) == 0
        capsys.readouterr()
        body = out.read_text().splitlines()[2:]
        assert len(body) == 2 and all(",error," in line for line in body)

    def test_error_row_has_ok_row_columns(self, tmp_path, capsys):
        sat, unsat = tmp_path / "s.cnf", tmp_path / "u.cnf"
        sat.write_text("p cnf 2 1\n1 2 0\n")
        unsat.write_text("p cnf 1 2\n1 0\n-1 0\n")
        rows = []
        for cnf in (sat, unsat):
            assert run(["spectral", str(cnf), "--thetas", "0.3pi", "--no-friedrichs"]) == 0
            rows.extend(_stdout_rows(capsys))
        ok, err = rows
        assert ok["status"] == "ok" and err["status"] == "error"
        assert list(err) == list(ok)
        assert err["d_sol"] == "0" and err["error"]
        # a bad angle says nothing about the solution count
        assert run(["spectral", str(sat), "--thetas", "0.7pi,0.3pi", "--no-friedrichs"]) == 0
        bad, good = _stdout_rows(capsys)
        assert bad["status"] == "error" and "angle" in bad["error"]
        assert list(bad) == list(ok) and bad["d_sol"] == ""
        assert good == ok

    def test_unate_mu_zero_column(self, tmp_path, capsys):
        cnf = tmp_path / "un.cnf"
        run(["gen", "unate", "5", "-m", "8", "--seed", "4", "--out", str(cnf)])
        assert run(["spectral", str(cnf), "--thetas", "0.3pi", "--no-friedrichs"]) == 0
        (row,) = _stdout_rows(capsys)
        assert row["status"] == "ok" and abs(float(row["mu"])) < 1e-10

    def test_stdout_rows_match_out_file(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
        argv = ["spectral", str(cnf), "--thetas", "0.3pi,0.7pi,0.5pi"]
        assert run(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "s.csv"
        assert run([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 3 rows to {out}\n"
        # the CSV rows end in \r\n, so compare lines
        assert printed.splitlines() == out.read_text().splitlines()


class TestPhfCmd:
    def test_construct_and_verify(self, tmp_path, capsys):
        out = tmp_path / "phf.txt"
        assert run(["phf", "10", "3", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "verified=true" in printed
        rows = pc.load_phf(out.read_text())
        assert rows.shape[0] <= 19 and rows.shape[1] == 10

    def test_stdout_carries_only_the_family(self, capsys):
        assert run(["phf", "5", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out == phf.save_phf(phf.density_algorithm(5, 3))
        assert captured.err == "rows=4 verified=true\n"


@pytest.mark.parametrize(
    "command", ["gen", "solve --report", "solve --trace", "sweep", "spectral", "phf"]
)
def test_unwritable_output_exits_two(command, tmp_path, capsys, monkeypatch):
    # exit 2 is an error; for solve, exit 1 would read as UNSAT.  Every
    # output is opened before the work starts, so the work never runs.
    def never(*args, **kwargs):
        raise AssertionError("the work started before the outputs were opened")

    for module, name in ((solver, "solve"), (cli, "run_sweep"), (sp, "spectral_report"),
                         (fm, "generate"), (phf, "density_algorithm")):
        monkeypatch.setattr(module, name, never)
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
    missing = str(tmp_path / "missing" / "out")
    argv = {
        "gen": ["gen", "random_ksat", "5", "-m", "10", "--out", missing],
        "solve --report": ["solve", str(cnf), "--report", missing],
        "solve --trace": ["solve", str(cnf), "--trace", missing],
        "sweep": ["sweep", "--set", "kind=unate_unique", "--set", "n=4", "--set", "trials=1",
                  "--set", f"out={missing}"],
        "spectral": ["spectral", str(cnf), "--thetas", "0.5pi", "--out", missing],
        "phf": ["phf", "4", "2", "--out", missing],
    }[command]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and missing in captured.err


@pytest.mark.parametrize(
    "argv, error",
    [
        (["solve", "{cnf}", "--delta", "0"], "delta must lie in (0, 1)"),
        (["solve", "{cnf}", "--delta", "1.5", "--budget", "100000"], "delta must lie in (0, 1)"),
        (["solve", "{cnf}", "--delta", "-1"], "delta must lie in (0, 1)"),
        (["sweep", "--set", "delta=0", "--set", "kind=unate_unique", "--set", "n=4",
          "--set", "trials=1", "--set", "out={csv}"], "delta must lie in (0, 1)"),
        (["gen", "random_ksat", "5", "-m", "-3"], "need m >= 0, got m=-3"),
        (["gen", "unate_unique", "5", "-m", "7", "-k", "3"],
         "unate_unique has m = n and k = 1, got n=5, m=7, k=3"),
        (["sweep", "--set", "kind=unate_unique", "--set", "n=4", "--set", "k=3",
          "--set", "trials=1", "--set", "out={csv}"],
         "unate_unique has m = n and k = 1, got n=4, m=None, k=3"),
        (["solve", "{cnf}", "--budget", "0"], "budget must be >= 1"),
        (["solve", "{cnf}", "--budget", "-5", "--report", "{report}"], "budget must be >= 1"),
        (["solve", "{cnf}", "--theta-fraction", "0.8", "--mu", "0.99"],
         "mu is only used with mu_source='user', not 'empirical'"),
        (["solve", "{cnf}", "--theta-init", "0.2"], "--theta-init and --cycles need --schedule"),
        (["solve", "{cnf}", "--cycles", "4"], "--theta-init and --cycles need --schedule"),
    ],
    ids=["solve-delta-0", "solve-delta-1.5", "solve-delta-neg", "sweep-delta-0", "gen-m-neg",
         "gen-unate-unique-m-k", "sweep-unate-unique-k", "solve-budget-0", "solve-budget-neg",
         "solve-mu-without-user-source", "solve-theta-init-without-schedule",
         "solve-cycles-without-schedule"],
)
def test_out_of_range_parameters_rejected(argv, error, tmp_path, capsys):
    # a sweep records the error in its row; every other command exits 2
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
    csv_path = tmp_path / "sweep.csv"
    argv = [a.format(cnf=cnf, csv=csv_path, report=tmp_path / "r.json") for a in argv]
    if argv[0] == "sweep":
        assert run(argv) == 0
        capsys.readouterr()
        (row,) = csv.DictReader(csv_path.read_text().splitlines()[1:])
        assert row["status"] == "error" and row["error"] == error
    else:
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {error}\n"


def test_unconverged_lanczos_reaches_the_user(tmp_path, capsys, monkeypatch):
    # pool seed 37 at 0.1 pi (theta fraction 0.2), n = 7: one restart is too
    # few for its clustered top singular values
    from test_spectral import _clustered_case

    monkeypatch.setattr(sp, "_LANCZOS_MAX_RESTARTS", 1)
    f, _, _ = _clustered_case()
    cnf = tmp_path / "f.cnf"
    cnf.write_text(f.to_dimacs())
    message = "Lanczos did not converge in 1 restarts"
    assert run(["solve", str(cnf), "--theta-fraction", "0.2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    out = tmp_path / "spectral.csv"
    assert run(["spectral", str(cnf), "--thetas", "0.1pi", "--no-uniform", "--no-friedrichs",
                "--out", str(out)]) == 0
    capsys.readouterr()
    (row,) = csv.DictReader(out.read_text().splitlines()[1:])
    assert row["status"] == "error" and row["error"] == message


@pytest.mark.parametrize(
    "flags",
    [
        ["--theta", "0.3", "--theta-fraction", "0.8"],
        ["--theta", "0.3", "--schedule", "cubic", "--cycles", "4"],
        ["--theta-fraction", "0.8", "--schedule", "cubic"],
        ["--mode", "deterministic"],
    ],
    ids=["theta-and-fraction", "theta-and-schedule", "fraction-and-schedule", "mode"],
)
def test_conflicting_or_unknown_solve_flags_exit_two(flags, tmp_path, capsys):
    # each angle flag alone picks the angle, so two of them conflict
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
    with pytest.raises(SystemExit) as exc:
        run(["solve", str(cnf), *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_import_loads_no_process_pool():
    # only a sweep with more than one worker starts a pool, and only the
    # tests use scipy; a fresh import is all of the set-up of some runs
    code = ("import sys, mdsat.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures', 'scipy') if m in sys.modules))")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
