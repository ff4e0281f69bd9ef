"""API shape: each fact reaches a call once.

A VariableLayout carries its problem and an Instance carries its qubit cap,
so a public function that takes both can only be handed two that disagree.
"""
import importlib
import inspect
import pkgutil

import pytest

import qvarsched

# (carried, carrier): a function that takes the carrier reads the carried fact from it.
CARRIED = (("problem", "layout"), ("max_qubits", "instance"))

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
