"""API shape: each fact reaches a call once, and modules meet only in
public names.

A VariableLayout and an Instance each carry their problem, so a public
function that takes both can only be handed two that disagree. The qubit cap
has one owner: the Instance checks it when it is built and keeps no copy, so
only Instance, and scaling_sweep, which builds one per point, take
max_qubits. Each input rule has one owner too: only circuits.check_algorithm
rejects an algorithm name or its reps, vqa.check_mode a mode,
errors.check_integer a non-integer (a bool included), errors.check_count
a count out of its bounds, errors.check_real a real-valued input that is no
finite real (a bool included) and problem.as_fraction a gain; seeds pass
through errors.check_seed alone, and every public integer and real field
names itself when it rejects a value. No qvarsched module imports another
one's _-prefixed names, every public function of a qvarsched module is
exported by the package or named in the code of src/ (so no test-only
helper lives there), the package exports no test-only reference, and every
qvarsched name that README.md puts in backticks resolves.
"""
import ast
import importlib
import inspect
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qvarsched
from qvarsched.bench import ExperimentConfig
from qvarsched.problem import NodeSpec, ProcessSpec
from qvarsched.simulator import Circuit, Gate, Param, run, sample
from qvarsched.vqa import Instance, Objective, OptimizerConfig, build_circuit, optimize

from helpers import reference_problem

# (carried, carrier): a function that takes the carrier reads the carried fact from it.
CARRIED = (("problem", "layout"), ("problem", "instance"))

MODULES = [f"qvarsched.{info.name}" for info in pkgutil.iter_modules(qvarsched.__path__)]


def restated_facts(module) -> list[str]:
    """The public functions defined in module that take a fact and its carrier."""
    found = []
    for name, function in inspect.getmembers(module, inspect.isfunction):
        if name.startswith("_") or function.__module__ != module.__name__:
            continue
        parameters = inspect.signature(function).parameters
        found += [
            f"{name}({carried}, {carrier})"
            for carried, carrier in CARRIED
            if carried in parameters and carrier in parameters
        ]
    return found


@pytest.mark.parametrize("name", [*MODULES, "helpers"])
def test_no_function_takes_a_fact_and_its_carrier(name):
    assert restated_facts(importlib.import_module(name)) == []


def _has_signature(member) -> bool:
    """A function, or a class other than an exception (which has none)."""
    if inspect.isclass(member):
        return not issubclass(member, BaseException)
    return inspect.isfunction(member)


def cap_takers() -> list[str]:
    """Every public function and class defined in a qvarsched module whose
    signature has max_qubits."""
    found = []
    for name in MODULES:
        module = importlib.import_module(name)
        for member_name, member in inspect.getmembers(module, _has_signature):
            if member_name.startswith("_") or member.__module__ != name:
                continue
            if "max_qubits" in inspect.signature(member).parameters:
                found.append(f"{name}.{member_name}")
    return sorted(found)


def test_only_the_instance_and_the_sweep_take_a_qubit_cap():
    assert cap_takers() == ["qvarsched.bench.scaling_sweep", "qvarsched.vqa.Instance"]


def _raises(node, scope: str):
    """(scope, raise statement) for every raise under node, scope being the
    dotted name of the function or class that holds it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _raises(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.Raise):
            yield scope, ast.unparse(child)
        yield from _raises(child, scope)


def raisers(phrase: str) -> list[str]:
    """The scope of every raise in a qvarsched module whose source has phrase."""
    found = []
    for name in MODULES:
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        found += [scope for scope, text in _raises(tree, name) if phrase in text]
    return found


@pytest.mark.parametrize("phrase", ["unknown algorithm", "reps applies to qaoa only"])
def test_only_check_algorithm_rejects_an_algorithm_name_or_reps(phrase):
    assert raisers(phrase) == ["qvarsched.circuits.check_algorithm"]


@pytest.mark.parametrize(
    "phrase, owner",
    [
        ("must be an integer", "qvarsched.errors.check_integer"),
        ("must be >= ", "qvarsched.errors.check_count"),  # reps >= 1 included
        ("unknown mode", "qvarsched.vqa.check_mode"),
        ("must be a real number", "qvarsched.errors.check_real"),
        ("must be finite", "qvarsched.errors.check_real"),
        ("must be a rational number", "qvarsched.problem.as_fraction"),
    ],
)
def test_each_input_rule_has_one_raiser(phrase, owner):
    assert raisers(phrase) == [owner]


_INPUT_CHECKS = {"check_integer", "check_count", "check_seed"}


def seed_checks() -> list[tuple[str, list[str]]]:
    """(module, the errors checks it names) for every call in a qvarsched
    module that passes the literal "seed" and names one of them."""
    found = []
    for name in MODULES:
        for node in ast.walk(ast.parse(inspect.getsource(importlib.import_module(name)))):
            if not isinstance(node, ast.Call) or not any(
                isinstance(arg, ast.Constant) and arg.value == "seed" for arg in node.args
            ):
                continue
            checks = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & _INPUT_CHECKS
            if checks:
                found.append((name, sorted(checks)))
    return found


def test_every_seed_is_checked_by_check_seed():
    # optimize, ExperimentConfig, sample and the CLI's two --seed flags.
    assert sorted(seed_checks()) == [
        ("qvarsched.bench", ["check_seed"]),
        ("qvarsched.cli", ["check_seed"]),
        ("qvarsched.cli", ["check_seed"]),
        ("qvarsched.simulator", ["check_seed"]),
        ("qvarsched.vqa", ["check_seed"]),
    ]


_INSTANCE = Instance(reference_problem("EOHL"))
_OBJECTIVE = Objective(_INSTANCE, build_circuit("a4", _INSTANCE))
_STATE = run(Circuit(1, (Gate("h", (0,)),), ()))
_ONE_RESTART = OptimizerConfig(max_iterations=20, restarts=1)

# (owner, field as its message names it, build with value, a value it
# takes, whether None is a value to reject: seeds and caps default to one).
INTEGER_FIELDS = [
    ("OptimizerConfig", "max_iterations", lambda v: OptimizerConfig(max_iterations=v), 1, False),
    ("OptimizerConfig", "restarts", lambda v: OptimizerConfig(restarts=v), 1, False),
    ("ExperimentConfig", "runs", lambda v: ExperimentConfig("a4", OptimizerConfig(), runs=v), 1, False),
    ("ExperimentConfig", "shots", lambda v: ExperimentConfig("a4", OptimizerConfig(), shots=v), 1, False),
    ("ExperimentConfig", "seed", lambda v: ExperimentConfig("a4", OptimizerConfig(), seed=v), 0, True),
    ("ExperimentConfig", "reps", lambda v: ExperimentConfig("qaoa", OptimizerConfig(), reps=v), 1, False),
    ("Objective", "shots", lambda v: Objective(_INSTANCE, _OBJECTIVE.circuit, shots=v), 1, False),
    ("optimize", "seed", lambda v: optimize(_OBJECTIVE, _ONE_RESTART, v), 0, True),
    ("sample", "shots", lambda v: sample(_STATE, v, 0), 1, False),
    ("sample", "seed", lambda v: sample(_STATE, 1, v), 0, True),
    ("Instance", "max_qubits", lambda v: Instance(reference_problem("EOHL"), v), 8, True),
    ("Gate", "operand", lambda v: Gate("x", (v,)), 0, False),
    ("Gate", "constant", lambda v: Gate("csub", (0, 1), constant=v), 1, False),
    ("Circuit", "qubit_count", lambda v: Circuit(v, (), ()), 0, False),
    ("ProcessSpec", "process weight", lambda v: ProcessSpec(v, (1,)), 1, False),
    ("NodeSpec", "node capacity", lambda v: NodeSpec(v), 1, False),
    ("NodeSpec", "node threshold", lambda v: NodeSpec(3, v), 0, False),
]


@pytest.mark.parametrize(
    "field, build, value",
    [
        pytest.param(field, build, value, id=f"{owner}.{field}={value!r}")
        for owner, field, build, _, nullable in INTEGER_FIELDS
        for value in (True, False, 1.5, "3", *([None] if nullable else []))
    ],
)
def test_every_public_integer_field_rejects_a_non_integer_by_name(field, build, value):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}") + "$"):
        build(value)


@pytest.mark.parametrize(
    "build, value",
    [pytest.param(build, value, id=f"{owner}.{field}") for owner, field, build, value, _ in INTEGER_FIELDS],
)
def test_every_public_integer_field_takes_an_int_and_a_numpy_integer(build, value):
    build(value)
    build(np.int64(value))


# (owner, field as its message names it, build with value, read the stored value back).
REAL_FIELDS = [
    ("OptimizerConfig", "tolerance", lambda v: OptimizerConfig(tolerance=v), lambda c: c.tolerance),
    ("Gate", "angle", lambda v: Gate("rx", (0,), v), lambda g: g.angle),
    ("Gate", "term scale", lambda v: Gate("cost", (0,), 0.5, terms=((v, (0,)),)), lambda g: g.terms[0][0]),
    ("Param", "scale", lambda v: Param("t", v), lambda p: p.scale),
]


@pytest.mark.parametrize(
    "field, build, value",
    [
        pytest.param(field, build, value, id=f"{owner}.{field}={value!r}")
        for owner, field, build, _ in REAL_FIELDS
        for value in (True, False, "0.5", 1j)
    ],
)
def test_every_public_real_field_rejects_a_non_real_by_name(field, build, value):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be a real number, got {value!r}") + "$"):
        build(value)


@pytest.mark.parametrize(
    "field, build, value",
    [
        pytest.param(field, build, value, id=f"{owner}.{field}={value!r}")
        for owner, field, build, _ in REAL_FIELDS
        for value in (float("nan"), float("inf"), float("-inf"))
    ],
)
def test_every_public_real_field_rejects_a_non_finite_value_as_bad_input_and_arithmetic(field, build, value):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be finite, got {value!r}") + "$") as raised:
        build(value)
    assert isinstance(raised.value, ArithmeticError)


@pytest.mark.parametrize(
    "build, read",
    [pytest.param(build, read, id=f"{owner}.{field}") for owner, field, build, read in REAL_FIELDS],
)
def test_every_public_real_field_takes_any_finite_real_and_keeps_a_float(build, read):
    for value in (1, np.float32(0.5), np.float64(0.5), Fraction(1, 2)):
        stored = read(build(value))
        assert type(stored) is float and stored == value


SRC = Path(qvarsched.__file__).parent


def _code_names(node) -> set[str]:
    """Every name and attribute read or written in node's code; a docstring
    is a constant, so the names it mentions are not among them."""
    names = (n for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))
    return {n.id if isinstance(n, ast.Name) else n.attr for n in names}


def unused_public_functions() -> list[str]:
    """Every public module-level function of a qvarsched module that the
    package does not export and no code of src/ names outside its own
    definition."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            function = getattr(importlib.import_module(f"qvarsched.{module}"), node.name)
            if getattr(qvarsched, node.name, None) is function:
                continue
            elsewhere = [other for name, other in trees.items() if name != module]
            elsewhere += [other for other in tree.body if other is not node]
            if not any(node.name in _code_names(other) for other in elsewhere):
                found.append(f"qvarsched.{module}.{node.name}")
    return found


def test_every_public_function_is_exported_or_used_in_the_library():
    assert unused_public_functions() == []


def private_imports(name: str) -> list[str]:
    """The _-prefixed names that module name imports from other qvarsched modules."""
    module = importlib.import_module(name)
    found = []
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or (node.module or "").split(".")[0] == "qvarsched":
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_another_modules_private_names(name):
    assert private_imports(name) == []


def test_the_package_exports_no_dense_matrix_reference():
    assert not hasattr(qvarsched, "dense_state")


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_names() -> list[str]:
    """Every qv.<name> and qvarsched.<module>.<name> in README.md's inline
    code spans (fenced blocks left out)."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.DOTALL)
    names = []
    for span in re.findall(r"`([^`]+)`", text):
        names += re.findall(r"\b(?:qv|qvarsched\.\w+)\.\w+", span)
    return names


def resolves(name: str) -> bool:
    owner, attribute = name.rsplit(".", 1)
    module = qvarsched if owner == "qv" else importlib.import_module(owner)
    return hasattr(module, attribute)


def test_every_qvarsched_name_in_the_readme_resolves():
    names = readme_names()
    assert names
    assert [name for name in names if not resolves(name)] == []
