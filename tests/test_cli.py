import csv
import io
import shutil
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvarsched import bench, cli, files, make_problem, vqa
from qvarsched.cli import main
from qvarsched.encoder import encode, model_to_text
from qvarsched.errors import ParseError
from qvarsched.files import format_problem, parse_experiment, parse_problem
from qvarsched.problem import EOFL, build_layout
from qvarsched.simulator import DEFAULT_MAX_QUBITS, Circuit

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


@st.composite
def _problems(draw):
    variant = draw(st.sampled_from(("EOFL", "EOHL", "ECFL", "ECHL")))
    nodes = draw(st.integers(1, 4))
    values = st.lists(
        st.fractions(min_value=0, max_denominator=10**6), min_size=nodes, max_size=nodes
    )
    processes = draw(st.lists(st.tuples(st.integers(1, 10**6), values), min_size=1, max_size=6))
    capacities = draw(st.lists(st.integers(1, 10**6), min_size=nodes, max_size=nodes))
    thresholds = None
    if variant.endswith("HL"):
        thresholds = [draw(st.integers(0, capacity - 1)) for capacity in capacities]
    weights = [weight for weight, _ in processes]
    return make_problem(variant, weights, [row for _, row in processes], capacities, thresholds)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_problems())
def test_format_problem_round_trips_through_parse_problem(problem):
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


@pytest.mark.parametrize(
    "line, match",
    [
        ("node capacity=3 treshold=2", "unknown key 'treshold'"),
        ("process weight=1 value=2,1", "unknown key 'value'"),
        ("node capacity=2 threshold=1 threshold=0", "duplicate key 'threshold'"),
        ("variant EOFL", "duplicate 'variant' line"),
    ],
)
def test_parse_problem_rejects_unknown_and_repeated_keys(line, match):
    with pytest.raises(ParseError, match=match):
        parse_problem(EOHL_FILE + line + "\n")


def test_cmd_oracle_rejects_a_misspelled_key_with_exit_2(tmp_path, capsys):
    path = tmp_path / "typo.problem"
    path.write_text(EOHL_FILE.replace("threshold=2", "treshold=2"))
    assert main(["oracle", str(path)]) == 2
    assert "treshold" in capsys.readouterr().err


def _problem_dir(tmp_path):
    """tmp_path holding eohl.problem, for specs that name it."""
    (tmp_path / "eohl.problem").write_text(EOHL_FILE)
    return tmp_path


def test_parse_experiment(tmp_path):
    text = (
        "qvarsched-v1 experiment\n"
        "problem eohl.problem\n"
        "algorithm qaoa\n"
        "reps 3\n"
        "runs 2\n"
        "seed 5\n"
        "max_iterations 40\n"
        "optimizer COBYLA\n"
        "restarts 2\n"
    )
    config = parse_experiment(text, _problem_dir(tmp_path))
    assert config.algorithm == "qaoa" and config.reps == 3
    assert config.problem == reference_problem("EOHL") and config.label == "eohl"
    assert config.optimizer == vqa.OptimizerConfig(max_iterations=40, restarts=2)
    with pytest.raises(ParseError, match="algorithm"):
        parse_experiment("qvarsched-v1 experiment\nproblem eohl.problem\n", tmp_path)
    with pytest.raises(ParseError, match="unknown keywords"):
        parse_experiment(
            "qvarsched-v1 experiment\nproblem eohl.problem\nalgorithm a1\nbogus 1\n", tmp_path
        )


ROOT = Path(__file__).resolve().parents[1]


def _example(text: str, header: str) -> str:
    """The example in text that starts at the line header: its lines up to
    the next blank line or code fence."""
    lines = [line.strip() for line in text.splitlines()]
    start = lines.index(header)
    end = next(i for i in range(start, len(lines)) if lines[i] in ("", "```"))
    return "\n".join(lines[start:end]) + "\n"


@pytest.mark.parametrize(
    "text", [(ROOT / "README.md").read_text(), files.__doc__], ids=["README.md", "files.py"]
)
def test_documented_file_examples_parse(tmp_path, text):
    # Every keyword and value the docs show must be one the parsers accept.
    problem = parse_problem(_example(text, "qvarsched-v1 problem"))
    assert problem.variant.name == "EOHL"
    shutil.copy(ROOT / "problems" / "eohl.problem", tmp_path)
    config = parse_experiment(_example(text, "qvarsched-v1 experiment"), tmp_path)
    assert config.problem == reference_problem("EOHL")
    assert (config.algorithm, config.reps, config.runs, config.seed) == ("qaoa", 3, 10, 7)


def test_parse_experiment_missing_problem_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        parse_experiment("qvarsched-v1 experiment\nproblem x\nalgorithm a1\n", tmp_path)


@pytest.mark.parametrize("algorithm", vqa.ALGORITHMS)
def test_every_algorithm_name_parses_and_builds_a_circuit(tmp_path, algorithm):
    config = parse_experiment(
        f"qvarsched-v1 experiment\nproblem eohl.problem\nalgorithm {algorithm}\n",
        _problem_dir(tmp_path),
    )
    assert config.algorithm == algorithm
    circuit = vqa.build_circuit(algorithm, vqa.Instance(reference_problem("EOHL")))
    assert isinstance(circuit, Circuit)


# Values per spec keyword. The keywords set ExperimentConfig's field of the
# same name, or OptimizerConfig's; "optimizer" sets none, and cobyla is its
# one valid value. Reps other than 1 are valid for qaoa only.
_CONFIG_VALUES = {
    "reps": st.integers(1, 8),
    "mode": st.sampled_from(vqa.MODES),
    "shots": st.integers(1, 10**6),
    "runs": st.integers(1, 100),
    "seed": st.integers(0, 2**40),
}
_OPTIMIZER_VALUES = {
    "optimizer": st.just("cobyla"),
    "max_iterations": st.integers(1, 10**5),
    "tolerance": st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    "restarts": st.integers(1, 50),
}


@st.composite
def _specs(draw):
    """A spec text and the settings it gives: problem and algorithm, then a
    random subset of the other keywords in random order, names in random
    case, floats written with repr, among comments and blank lines."""

    def subset(values):
        keys = draw(st.lists(st.sampled_from(sorted(values)), unique=True))
        return {key: draw(values[key]) for key in keys}

    config = {"algorithm": draw(st.sampled_from(vqa.ALGORITHMS)), **subset(_CONFIG_VALUES)}
    optimizer = subset(_OPTIMIZER_VALUES)
    values = {"problem": "eohl.problem", **config, **optimizer}
    lines = ["qvarsched-v1 experiment"]
    for keyword in draw(st.permutations(sorted(values))):
        value = values[keyword]
        if isinstance(value, float):
            text = repr(value)
        elif isinstance(value, str) and keyword != "problem":
            flips = draw(st.lists(st.booleans(), min_size=len(value), max_size=len(value)))
            text = "".join(c.upper() if flip else c for c, flip in zip(value, flips))
        else:
            text = str(value)
        lines += draw(st.lists(st.sampled_from(("", "# note", "   # indented note"))))
        spacing = draw(st.sampled_from((" ", "   ")))
        comment = draw(st.sampled_from(("", "  # trailing")))
        lines.append(f"{keyword}{spacing}{text}{comment}")
    return "\n".join(lines) + "\n", config, optimizer


@pytest.fixture(scope="module")
def eohl_dir(tmp_path_factory):
    return _problem_dir(tmp_path_factory.mktemp("specs"))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_specs())
def test_parse_experiment_matches_the_config_built_from_the_same_values(eohl_dir, spec):
    text, config, optimizer = spec
    optimizer.pop("optimizer", None)
    if config.get("reps", 1) != 1 and config["algorithm"] != "qaoa":
        with pytest.raises(ParseError, match="reps applies to qaoa only"):
            parse_experiment(text, eohl_dir)
    else:
        # Keywords the spec leaves out take the dataclasses' own defaults here.
        expected = bench.ExperimentConfig(
            problem=reference_problem("EOHL"),
            optimizer=vqa.OptimizerConfig(**optimizer),
            label="eohl",
            **config,
        )
        assert parse_experiment(text, eohl_dir) == expected


def test_cmd_encode(tmp_path, capsys):
    path = tmp_path / "eohl.problem"
    path.write_text(EOHL_FILE)
    assert main(["encode", str(path)]) == 0
    out = capsys.readouterr().out
    assert "constant 55.5" in out
    problem = reference_problem("EOHL")
    assert out == model_to_text(encode(build_layout(problem)))


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


# Gains whose common denominator, scaled to integers, overflows int64.
WRAP_FILE = """\
qvarsched-v1 problem
variant EOFL
process weight=1 values=2147483646/2147483647
process weight=1 values=2147483628/2147483629
process weight=1 values=1
node capacity=3
"""


def test_cmd_oracle_gain_is_exact_past_int64(tmp_path, capsys):
    path = tmp_path / "wrap.problem"
    path.write_text(WRAP_FILE)
    assert main(["oracle", str(path)]) == 0
    out = capsys.readouterr().out
    assert "optimal_gain 13835057922138177613/4611685975477714963\n" in out
    assert "optimum 11100\n" in out


def _solve_files(tmp_path, runs=2, algorithm="a4", extra=""):
    spec_path = _problem_dir(tmp_path) / "exp.spec"
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


def test_cmd_solve_appends_suffixes_to_a_dotted_out(tmp_path, capsys):
    spec_path = _solve_files(tmp_path, runs=1)
    for out in ("exp-0.5", "exp-0.7"):
        assert main(["solve", str(spec_path), "--out", str(tmp_path / out)]) == 0
        assert f"{out}.csv and " in capsys.readouterr().out
    names = {path.name for path in tmp_path.iterdir()}
    assert {"exp-0.5.csv", "exp-0.5.txt", "exp-0.7.csv", "exp-0.7.txt"} <= names


def test_cmd_solve_folds_the_case_of_mode(tmp_path, monkeypatch):
    spec_path = _solve_files(tmp_path, runs=1)
    experiments = spy_calls(monkeypatch, bench, "run_experiment")
    assert main(["solve", str(spec_path), "--out", str(tmp_path / "r"), "--mode", "SAMPLED"]) == 0
    assert [config.mode for config, in experiments] == ["sampled"]


@pytest.mark.parametrize("line", ["runs 0", "shots 0", "seed -1"])
def test_parse_experiment_rejects_out_of_range_settings(tmp_path, line):
    with pytest.raises(ParseError, match=line.split()[0]):
        parse_experiment(
            f"qvarsched-v1 experiment\nproblem eohl.problem\nalgorithm a1\n{line}\n",
            _problem_dir(tmp_path),
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


@pytest.mark.parametrize(
    "line, message",
    [
        ("shots 0", "shots must be >= 1"),
        ("optimizer NELDER-MEAD", "unknown optimizer 'NELDER-MEAD', expected cobyla"),
        ("optimizer bfgs", "unknown optimizer 'bfgs', expected cobyla"),
        ("reps 3", "reps applies to qaoa only, got reps 3 for a4"),
    ],
)
def test_cmd_solve_bad_spec_setting_exits_2_before_running(
    tmp_path, monkeypatch, capsys, line, message
):
    spec_path = _solve_files(tmp_path, extra=line + "\n")
    experiments = spy_calls(monkeypatch, bench, "run_experiment")
    assert main(["solve", str(spec_path), "--out", str(tmp_path / "r")]) == 2
    assert message in capsys.readouterr().err
    assert experiments == []


@pytest.mark.parametrize("tolerance", ["nan", "inf", "1e300"])
def test_cmd_solve_tolerance_cobyla_would_reset_exits_2(tmp_path, monkeypatch, capsys, tolerance):
    spec_path = _solve_files(tmp_path, extra=f"tolerance {tolerance}\n")
    experiments = spy_calls(monkeypatch, bench, "run_experiment")
    assert main(["solve", str(spec_path), "--out", str(tmp_path / "r")]) == 2
    assert "tolerance" in capsys.readouterr().err
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


@pytest.mark.parametrize(
    "options",
    [
        ("--restarts", "0"),
        ("--max-iterations", "0"),
        ("--pmin", "0"),
        ("--pmax", "0"),
        ("--pmin", "5", "--pmax", "3"),
    ],
    ids=" ".join,
)
def test_cmd_sweep_rejects_bad_integers_before_running(monkeypatch, capsys, options):
    sweeps = spy_calls(monkeypatch, bench, "scaling_sweep")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *options])
    assert exc.value.code == 2
    assert options[-2] in capsys.readouterr().err
    assert sweeps == []


def test_cmd_sweep_rejects_an_unknown_algorithm_before_any_energies(monkeypatch, capsys):
    energies = spy_calls(monkeypatch, vqa, "diagonal_energies")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--algorithm", "a5", "--pmin", "3", "--pmax", "3"])
    assert exc.value.code == 2
    assert "--algorithm" in capsys.readouterr().err
    assert energies == []


def _sweep_keywords(monkeypatch, *options) -> dict:
    """The keywords cmd_sweep passes scaling_sweep for the given options."""
    seen = []
    monkeypatch.setattr(bench, "scaling_sweep", lambda counts, **keywords: seen.append(keywords) or [])
    assert main(["sweep", *options]) == 0
    return seen[0]


def test_cmd_sweep_passes_on_only_the_flags_given(monkeypatch, capsys):
    budget = {"optimizer": bench.SWEEP_OPTIMIZER, "max_qubits": DEFAULT_MAX_QUBITS}
    assert _sweep_keywords(monkeypatch) == budget
    assert _sweep_keywords(monkeypatch, "--restarts", "3", "--seed", "4", "--algorithm", "a1") == {
        **budget,
        "optimizer": replace(bench.SWEEP_OPTIMIZER, restarts=3),
        "seed": 4,
        "algorithm": "a1",
    }


@pytest.mark.parametrize(
    "option, keyword, value",
    [(("--variant", "eofl"), "variant", EOFL), (("--mode", "SAMPLED"), "mode", "sampled")],
    ids=["variant", "mode"],
)
def test_cmd_sweep_folds_the_case_of_names(monkeypatch, capsys, option, keyword, value):
    assert _sweep_keywords(monkeypatch, *option)[keyword] == value


@pytest.mark.parametrize("option", [("--variant", "ECXL"), ("--mode", "approx")], ids=" ".join)
def test_cmd_sweep_rejects_unknown_names_before_running(monkeypatch, capsys, option):
    sweeps = spy_calls(monkeypatch, bench, "scaling_sweep")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *option])
    assert exc.value.code == 2
    assert option[0] in capsys.readouterr().err
    assert sweeps == []


def test_cmd_sweep_checks_every_point_against_the_cap_before_running(tmp_path, monkeypatch, capsys):
    # P=3 and P=4 fit in 14 qubits, P=5 needs 17.
    optimizations = spy_calls(monkeypatch, bench, "optimize")
    options = ["--pmin", "3", "--pmax", "5", "--max-qubits", "14", "--max-iterations", "3"]
    code = main(["sweep", *options, "--restarts", "1", "--out", str(tmp_path / "sweep.csv")])
    assert code == 3
    assert "17 qubits exceeds the maximum of 14" in capsys.readouterr().err
    assert optimizations == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("command", ["oracle", "solve", "sweep"])
def test_cmd_non_positive_max_qubits_exits_2_before_running(
    tmp_path, monkeypatch, capsys, command, cap
):
    spec_path = _solve_files(tmp_path)
    inputs = {"oracle": [str(tmp_path / "eohl.problem")], "solve": [str(spec_path)], "sweep": []}
    oracles = spy_calls(monkeypatch, cli, "enumerate_solutions")
    energies = spy_calls(monkeypatch, vqa, "diagonal_energies")
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs[command], "--max-qubits", cap])
    assert exc.value.code == 2
    assert "--max-qubits" in capsys.readouterr().err
    assert oracles == [] and energies == []
