"""API shape: each fact reaches a call once, and modules meet only in
public names.

A VariableLayout and an Instance each carry their problem, so a public
function that takes both can only be handed two that disagree. The qubit cap
has one owner: the Instance checks it when it is built and keeps no copy, so
only Instance, and scaling_sweep, which builds one per point, take
max_qubits. No qvarsched module imports another one's _-prefixed names, the
package exports no test-only reference, and every qvarsched name that
README.md puts in backticks resolves.
"""
import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import qvarsched

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
