import re
from math import pi
from pathlib import Path

import numpy as np
import pytest

from qvarsched import (
    build_ansatz,
    build_layout,
    build_qaoa,
    check_feasible,
    decode,
    encode,
    make_problem,
    metrics,
    run,
)
from qvarsched.bench import scaling_instance
from qvarsched.circuits import ANSATZ_BUILDERS, CircuitMetrics, a1_basis_angles
from qvarsched.encoder import IsingModel
from qvarsched.oracle import enumerate_solutions
from qvarsched.files import parse_problem
from qvarsched.simulator import Circuit, Gate, Param, diagonal_energies, index_to_bits

from helpers import bits_to_index, expand_cost_gates, random_problem, reference_problem

REFERENCE_METRICS = {
    "a1": (10, 12, 4),
    "a2": (14, 20, 4),
    "a3": (14, 16, 4),
}


@pytest.mark.parametrize("kind,expected", sorted(REFERENCE_METRICS.items()))
def test_reference_metrics(kind, expected):
    problem = reference_problem("ECFL")
    layout = build_layout(problem)
    result = metrics(build_ansatz(kind, layout))
    assert (result.parameter_count, result.two_qubit_gates, result.two_qubit_depth) == expected


def test_a4_parameter_count_reference():
    problem = reference_problem("ECFL")
    layout = build_layout(problem)
    assert metrics(build_ansatz("a4", layout)).parameter_count == 6


def test_a1_zero_angles_prepare_first_options():
    problem = reference_problem("ECFL")
    layout = build_layout(problem)
    circuit = build_ansatz("a1", layout)
    state = run(circuit, np.zeros(len(circuit.parameters)))
    expected = bits_to_index("100" + "100" + "100" + "0000")
    assert abs(state.amplitudes[expected] - 1.0) < 1e-12


def _support(state, tol=1e-12):
    return np.nonzero(np.abs(state.amplitudes) > tol)[0]


@pytest.mark.parametrize("variant", ["EOHL", "EOFL", "ECHL", "ECFL"])
@pytest.mark.parametrize("kind", ["a1", "a2", "a3", "a4"])
def test_one_hot_support(variant, kind):
    problem = reference_problem(variant)
    layout = build_layout(problem)
    circuit = build_ansatz(kind, layout)
    rng = np.random.default_rng(hash((variant, kind)) % 2**32)
    for _ in range(5):
        theta = rng.uniform(0, 2 * pi, len(circuit.parameters))
        state = run(circuit, theta)
        for index in _support(state):
            bits = format(index, f"0{layout.qubit_count}b")
            assert decode(layout, bits).consistent


def test_a4_slack_consistency():
    for variant in ("EOHL", "EOFL", "ECHL", "ECFL"):
        problem = reference_problem(variant)
        layout = build_layout(problem)
        circuit = build_ansatz("a4", layout)
        rng = np.random.default_rng(17)
        theta = rng.uniform(0, 2 * pi, len(circuit.parameters))
        state = run(circuit, theta)
        for index in _support(state):
            bits = format(index, f"0{layout.qubit_count}b")
            assignment = decode(layout, bits)
            for j, node in enumerate(problem.nodes):
                register = layout.slack_qubits(j)
                slack = sum(int(bits[q]) << k for k, q in enumerate(register))
                assert slack == (node.capacity - assignment.loads[j]) % (1 << len(register))


def test_a4_all_cloud_reads_capacity():
    problem = reference_problem("ECFL")
    layout = build_layout(problem)
    circuit = build_ansatz("a4", layout)
    theta = np.full(len(circuit.parameters), pi)  # every block picks the cloud
    state = run(circuit, theta)
    support = _support(state)
    assert len(support) == 1
    bits = format(support[0], "013b")
    assert decode(layout, bits).targets == (-1, -1, -1)
    for j, node in enumerate(problem.nodes):
        register = layout.slack_qubits(j)
        slack = sum(int(bits[q]) << k for k, q in enumerate(register))
        assert slack == node.capacity


def test_a2_degenerates_without_entanglers():
    problem = make_problem("EOHL", [1], [(1,)], (2,), (1,))  # one slack qubit total
    layout = build_layout(problem)
    circuit = build_ansatz("a2", layout)
    names = [g.name for g in circuit.gates]
    assert names.count("cx") == 0
    assert names.count("ry") == 2


def test_a3_skips_single_bit_registers():
    problem = make_problem("ECHL", [1, 1], [(1, 1), (1, 1)], (4, 2), (0, 1))
    layout = build_layout(problem)
    assert len(layout.slack_qubits(0)) == 3 and len(layout.slack_qubits(1)) == 1
    circuit = build_ansatz("a3", layout)
    register1 = set(layout.slack_qubits(1))
    slack_cx = [
        g for g in circuit.gates if g.name == "cx" and set(g.qubits) & register1
    ]
    assert slack_cx == []


def test_a3_entanglers_subset_of_a2():
    problem = reference_problem("ECFL")
    layout = build_layout(problem)
    slack = {q for j in range(2) for q in layout.slack_qubits(j)}

    def slack_pairs(kind):
        circuit = build_ansatz(kind, layout)
        return {
            g.qubits for g in circuit.gates if g.name == "cx" and set(g.qubits) <= slack
        }

    assert slack_pairs("a3") <= slack_pairs("a2")


def test_parameter_count_formulas_randomized():
    rng = np.random.default_rng(5)
    for _ in range(30):
        problem = random_problem(rng)
        layout = build_layout(problem)
        p, n = problem.num_processes, problem.num_nodes
        c = 1 if problem.variant.cloud_allowed else 0
        slack_total = sum(len(layout.slack_qubits(j)) for j in range(n))
        expected = {
            "a1": p * (n - 1 + c) + slack_total,
            "a2": p * (n - 1 + c) + 2 * slack_total,
            "a3": p * (n - 1 + c) + 2 * slack_total,
            "a4": p * (n - 1 + c),
        }
        for kind, theta in expected.items():
            circuit = build_ansatz(kind, layout)
            assert len(circuit.parameters) == theta
            assert metrics(circuit).parameter_count == theta


def test_qaoa_example_structure():
    from fractions import Fraction

    model = IsingModel(
        3,
        Fraction(0),
        (Fraction(1), Fraction(0), Fraction(2)),
        {(0, 1): Fraction(-4), (1, 2): Fraction(-2)},
        Fraction(1),
    )
    circuit = build_qaoa(model, 1)
    assert [g.name for g in circuit.gates] == ["h"] * 3 + ["cost"] + ["rx"] * 3
    cost = circuit.gates[3]
    assert cost.angle == Param("g0")
    assert cost.terms == ((2.0, (0,)), (4.0, (2,)), (-8.0, (0, 1)), (-4.0, (1, 2)))
    names = [g.name for g in expand_cost_gates(circuit).gates]
    assert names.count("rz") == 2
    assert names.count("rzz") == 2
    assert circuit.parameters == ("g0", "b0")
    with pytest.raises(ValueError):
        build_qaoa(model, 0)


def test_qaoa_parameter_count_scales_with_reps():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    model = encode(layout)
    for reps in (1, 3, 5):
        assert len(build_qaoa(model, reps).parameters) == 2 * reps


def test_qaoa_zero_angles_give_uniform_state():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    model = encode(layout)
    circuit = build_qaoa(model, 2)
    state = run(circuit, np.zeros(4))
    assert np.allclose(np.abs(state.amplitudes) ** 2, 1 / 256, atol=1e-12)


def test_reachability_of_reference_optima():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    model = encode(layout)
    report = enumerate_solutions(layout)
    circuit = build_ansatz("a1", layout)
    for index in report.optimal:
        angles = a1_basis_angles(layout, index_to_bits(index, layout.qubit_count))
        state = run(circuit, angles)
        assert abs(state.amplitudes[index]) ** 2 >= 0.99
        assert abs(float(state.probabilities() @ diagonal_energies(model)) + 6.0) < 1e-9


def test_a1_basis_angles_rejects_inconsistent_strings():
    layout = build_layout(reference_problem("EOHL"))
    with pytest.raises(ValueError):
        a1_basis_angles(layout, "11000000")


def test_empty_circuit_metrics():
    assert metrics(Circuit(3, (), ())) == CircuitMetrics(0, 0, 0)


def test_a4_accounting_grows_polynomially():
    rows = []
    for processes in range(2, 9):
        problem = scaling_instance(processes)
        layout = build_layout(problem)
        m = metrics(build_ansatz("a4", layout))
        rows.append((processes, m.two_qubit_gates, m.two_qubit_depth))
    gates = [r[1] for r in rows]
    depths = [r[2] for r in rows]
    assert all(b > a for a, b in zip(gates, gates[1:]))
    assert all(b >= a for a, b in zip(depths, depths[1:]))
    # Linear in P for fixed registers: the weight cycle has period 3, so the
    # gate count must grow by the same amount every 3 processes.
    strides = {b - a for a, b in zip(gates, gates[3:])}
    assert len(strides) == 1
    # Growing registers (bigger capacities) must also grow the accounting.
    by_register = []
    for capacity in (3, 7, 15):
        problem = make_problem("ECFL", [1, 1], [(1, 1), (1, 1)], (capacity, capacity))
        layout = build_layout(problem)
        by_register.append(metrics(build_ansatz("a4", layout)).two_qubit_gates)
    assert by_register[0] < by_register[1] < by_register[2]


def test_unknown_ansatz_kind():
    # Names are exact: case is folded only where text is read.
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    for kind in ("a9", "A4", "qaoa", ["a4"]):
        with pytest.raises(ValueError, match=re.escape(f"unknown ansatz {kind!r}")):
            build_ansatz(kind, layout)


def _builder_circuits():
    """Every a1-a4 and QAOA (1 and 2 layers) circuit of problems/*.problem and
    of the scaling family at P = 3..7."""
    paths = sorted((Path(__file__).parents[1] / "problems").glob("*.problem"))
    problems = [parse_problem(path.read_text()) for path in paths]
    for problem in problems + [scaling_instance(processes) for processes in range(3, 8)]:
        layout = build_layout(problem)
        yield from (build(layout) for build in ANSATZ_BUILDERS.values())
        yield from (build_qaoa(encode(layout), reps) for reps in (1, 2))


def test_every_builder_circuit_constructs_unchanged_from_lists():
    # Construction checks and keeps a well-formed circuit as it is; operands,
    # terms, gates and parameters given as lists are kept as the same tuples.
    for circuit in _builder_circuits():
        gates = [
            Gate(g.name, list(g.qubits), g.angle, g.constant, [(s, list(q)) for s, q in g.terms])
            for g in circuit.gates
        ]
        rebuilt = Circuit(circuit.qubit_count, gates, list(circuit.parameters))
        assert rebuilt == circuit and hash(rebuilt) == hash(circuit)
