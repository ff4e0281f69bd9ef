import csv
import io

import pytest

from qvarsched import bench, vqa
from qvarsched.cli import main
from qvarsched.encoder import model_from_text, encode
from qvarsched.errors import ParseError
from qvarsched.files import format_problem, parse_experiment, parse_problem
from qvarsched.problem import build_layout

from helpers import reference_problem, spy_calls

EOHL_FILE = """\
qvarsched-v1 problem
variant EOHL
process weight=2 values=2,1
process weight=1 values=3,1
process weight=1 values=2,1
node capacity=3 threshold=2
node capacity=2 threshold=1
"""

ECFL_FILE = """\
qvarsched-v1 problem
variant ECFL
# same processes, free load, cloud allowed
process weight=2 values=2,1
process weight=1 values=3,1
process weight=1 values=2,1
node capacity=3
node capacity=2
"""


def test_parse_problem_round_trip():
    problem = parse_problem(EOHL_FILE)
    assert problem == reference_problem("EOHL")
    assert parse_problem(format_problem(problem)) == problem


def test_parse_problem_errors():
    with pytest.raises(ParseError):
        parse_problem("variant EOHL\n")  # missing header
    with pytest.raises(ParseError, match="weight"):
        parse_problem(
            "qvarsched-v1 problem\nvariant EOFL\nprocess weight=-1 values=1\nnode capacity=1\n"
        )
    with pytest.raises(ParseError, match="variant"):
        parse_problem("qvarsched-v1 problem\nprocess weight=1 values=1\nnode capacity=1\n")
    with pytest.raises(ParseError, match="threshold"):
        parse_problem(
            "qvarsched-v1 problem\nvariant EOFL\nprocess weight=1 values=1\nnode capacity=1 threshold=1\n"
        )


def test_parse_experiment(tmp_path):
    text = (
        "qvarsched-v1 experiment\n"
        "problem eohl.problem\n"
        "algorithm qaoa\n"
        "reps 3\n"
        "runs 2\n"
        "seed 5\n"
        "max_iterations 40\n"
        "restarts 2\n"
    )
    spec = parse_experiment(text, tmp_path)
    assert spec.algorithm == "qaoa" and spec.reps == 3
    assert spec.problem_path == tmp_path / "eohl.problem"
    assert spec.optimizer.max_iterations == 40
    with pytest.raises(ParseError, match="algorithm"):
        parse_experiment("qvarsched-v1 experiment\nproblem x\n", tmp_path)
    with pytest.raises(ParseError, match="unknown keywords"):
        parse_experiment(
            "qvarsched-v1 experiment\nproblem x\nalgorithm a1\nbogus 1\n", tmp_path
        )


def test_cmd_encode(tmp_path, capsys):
    path = tmp_path / "eohl.problem"
    path.write_text(EOHL_FILE)
    assert main(["encode", str(path)]) == 0
    out = capsys.readouterr().out
    assert "constant 55.5" in out
    problem = reference_problem("EOHL")
    assert model_from_text(out) == encode(problem, build_layout(problem))


def test_cmd_encode_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.problem"
    path.write_text("qvarsched-v1 problem\nvariant EOFL\nprocess weight=-2 values=1\nnode capacity=1\n")
    assert main(["encode", str(path)]) == 2
    assert "weight" in capsys.readouterr().err


def test_cmd_encode_missing_file(capsys):
    assert main(["encode", "/nonexistent/x.problem"]) == 2


def test_cmd_oracle(tmp_path, capsys):
    path = tmp_path / "eohl.problem"
    path.write_text(EOHL_FILE)
    assert main(["oracle", str(path)]) == 0
    out = capsys.readouterr().out
    assert "qubits 8" in out
    assert "feasible 4" in out
    assert "best 2" in out
    assert "optimal_gain 6" in out
    assert "optimum 10100101" in out


def test_cmd_oracle_qubit_cap(tmp_path, capsys):
    path = tmp_path / "ecfl.problem"
    path.write_text(ECFL_FILE)
    assert main(["oracle", str(path), "--max-qubits", "10"]) == 3
    assert main(["oracle", str(path), "--max-qubits", "13"]) == 0


def test_cmd_oracle_infeasible(tmp_path, capsys):
    path = tmp_path / "tight.problem"
    path.write_text(
        "qvarsched-v1 problem\nvariant EOFL\nprocess weight=2 values=1\nnode capacity=1\n"
    )
    assert main(["oracle", str(path)]) == 0
    assert "infeasible_instance yes" in capsys.readouterr().out


def _solve_files(tmp_path, runs=2, algorithm="a4", extra=""):
    problem_path = tmp_path / "eohl.problem"
    problem_path.write_text(EOHL_FILE)
    spec_path = tmp_path / "exp.spec"
    spec_path.write_text(
        "qvarsched-v1 experiment\n"
        "problem eohl.problem\n"
        f"algorithm {algorithm}\n"
        f"runs {runs}\n"
        "seed 9\n"
        "max_iterations 30\n"
        "restarts 1\n" + extra
    )
    return spec_path


def test_cmd_solve_writes_csv_and_summary(tmp_path, capsys):
    spec_path = _solve_files(tmp_path)
    out = tmp_path / "results"
    assert main(["solve", str(spec_path), "--out", str(out)]) == 0
    rows = list(csv.reader(io.StringIO((tmp_path / "results.csv").read_text())))
    assert len(rows) == 3  # header + 2 runs
    summary = (tmp_path / "results.txt").read_text()
    assert "algorithm a4" in summary
    assert "qubits 8" in summary


def test_cmd_solve_qaoa_parameter_echo(tmp_path):
    spec_path = _solve_files(tmp_path, runs=1, algorithm="qaoa", extra="reps 3\n")
    out = tmp_path / "r"
    assert main(["solve", str(spec_path), "--out", str(out)]) == 0
    summary = (tmp_path / "r.txt").read_text()
    line = next(l for l in summary.splitlines() if l.startswith("best_run_parameters"))
    assert len(line.split()) == 1 + 6  # keyword + 2*reps optimized values


def test_cmd_solve_deterministic_modulo_wall_ms(tmp_path):
    spec_path = _solve_files(tmp_path)
    main(["solve", str(spec_path), "--out", str(tmp_path / "a")])
    main(["solve", str(spec_path), "--out", str(tmp_path / "b")])
    rows_a = list(csv.reader(io.StringIO((tmp_path / "a.csv").read_text())))
    rows_b = list(csv.reader(io.StringIO((tmp_path / "b.csv").read_text())))
    wall_column = rows_a[0].index("wall_ms")
    for row_a, row_b in zip(rows_a, rows_b):
        trimmed_a = [v for i, v in enumerate(row_a) if i != wall_column]
        trimmed_b = [v for i, v in enumerate(row_b) if i != wall_column]
        assert trimmed_a == trimmed_b


def test_cmd_solve_seed_override_changes_runs(tmp_path):
    spec_path = _solve_files(tmp_path)
    main(["solve", str(spec_path), "--out", str(tmp_path / "a"), "--runs", "1"])
    rows = list(csv.reader(io.StringIO((tmp_path / "a.csv").read_text())))
    assert len(rows) == 2
    main(["solve", str(spec_path), "--out", str(tmp_path / "b"), "--runs", "1", "--seed", "1"])
    rows_b = list(csv.reader(io.StringIO((tmp_path / "b.csv").read_text())))
    assert rows[1][2] != rows_b[1][2]  # different run seeds


@pytest.mark.parametrize("line", ["runs 0", "shots 0", "seed -1"])
def test_parse_experiment_rejects_out_of_range_settings(tmp_path, line):
    with pytest.raises(ParseError, match=line.split()[0]):
        parse_experiment(
            f"qvarsched-v1 experiment\nproblem x\nalgorithm a1\n{line}\n", tmp_path
        )


@pytest.mark.parametrize(
    "override", [("--runs", "0"), ("--shots", "0"), ("--seed", "-1")]
)
def test_cmd_solve_rejects_out_of_range_overrides_before_running(
    tmp_path, monkeypatch, capsys, override
):
    spec_path = _solve_files(tmp_path)
    experiments = spy_calls(monkeypatch, bench, "run_experiment")
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(spec_path), "--out", str(tmp_path / "r"), *override])
    assert exc.value.code == 2
    assert override[0] in capsys.readouterr().err
    assert experiments == []


def test_cmd_solve_bad_spec_setting_exits_2_before_running(tmp_path, monkeypatch):
    spec_path = _solve_files(tmp_path, extra="shots 0\n")
    experiments = spy_calls(monkeypatch, bench, "run_experiment")
    assert main(["solve", str(spec_path), "--out", str(tmp_path / "r")]) == 2
    assert experiments == []


def test_cmd_solve_qubit_cap_fails_before_energies(tmp_path, monkeypatch):
    spec_path = _solve_files(tmp_path)
    energies = spy_calls(monkeypatch, vqa, "diagonal_energies")
    assert main(["solve", str(spec_path), "--out", str(tmp_path / "r"), "--max-qubits", "7"]) == 3
    assert energies == []


def test_cmd_oracle_scaling_family_member(tmp_path, capsys):
    from qvarsched.bench import scaling_instance

    path = tmp_path / "echl-p4.problem"
    path.write_text(format_problem(scaling_instance(4)))
    assert main(["oracle", str(path)]) == 0
    out = capsys.readouterr().out
    assert "qubits 14" in out
    assert "infeasible_instance no" in out


def test_cmd_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--pmin",
            "3",
            "--pmax",
            "4",
            "--max-iterations",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "11"
