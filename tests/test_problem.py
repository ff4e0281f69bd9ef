import re
from fractions import Fraction

import numpy as np
import pytest

from qvarsched import (
    CLOUD,
    Assignment,
    NodeSpec,
    ProblemVariant,
    ProcessSpec,
    assignment_index,
    build_layout,
    check_feasible,
    decode,
    gain,
    make_problem,
    qubit_count,
    slack_bit_count,
)
from qvarsched.errors import MalformedBitstringError
from qvarsched.problem import ECFL, EOHL
from qvarsched.simulator import index_to_bits

from helpers import random_problem, reference_problem


def test_variant_names():
    assert ProblemVariant.from_name("ecfl") == ECFL
    assert EOHL.name == "EOHL" and not EOHL.cloud_allowed and EOHL.high_load
    with pytest.raises(ValueError):
        ProblemVariant.from_name("XXFL")


@pytest.mark.parametrize(
    "capacity,threshold,expected",
    [(3, 0, 2), (3, 2, 1), (1, 0, 1), (7, 0, 3), (7, 4, 2)],
)
def test_slack_bit_count(capacity, threshold, expected):
    assert slack_bit_count(NodeSpec(capacity, threshold)) == expected


@pytest.mark.parametrize(
    "variant,expected", [("EOHL", 8), ("EOFL", 10), ("ECHL", 11), ("ECFL", 13)]
)
def test_qubit_count_reference(variant, expected):
    assert qubit_count(reference_problem(variant)) == expected


def test_layout_order_eohl():
    layout = build_layout(reference_problem("EOHL"))
    # x_11 x_12 x_21 x_22 x_31 x_32, then node 0's and node 1's one slack bit.
    order = [layout.assign_qubit(i, j) for i in range(3) for j in range(2)]
    order += [q for j in range(2) for q in layout.slack_qubits(j)]
    assert order == list(range(8)) == list(range(layout.qubit_count))
    assert [layout.process_block(i) for i in range(3)] == [(0, 1), (2, 3), (4, 5)]
    assert [len(layout.slack_qubits(j)) for j in range(2)] == [1, 1]


def test_layout_order_ecfl():
    layout = build_layout(reference_problem("ECFL"))
    assert layout.qubit_count == 13
    # Per-process blocks of 3 (x_i1, x_i2, p_i), then 2 + 2 slack bits.
    assert layout.process_block(0) == (0, 1, 2)
    assert layout.process_block(2) == (6, 7, 8)
    assert layout.slack_qubits(0) == (9, 10)
    assert layout.slack_qubits(1) == (11, 12)


def test_layout_trivial_instance():
    problem = make_problem("EOFL", [1], [(1,)], (1,))
    layout = build_layout(problem)
    assert layout.qubit_count == 2
    assert layout.process_block(0) == (0,)
    assert layout.slack_qubits(0) == (1,)


def test_layout_matches_qubit_count_randomized():
    rng = np.random.default_rng(11)
    for _ in range(60):
        problem = random_problem(rng)
        layout = build_layout(problem)
        assert layout.qubit_count == qubit_count(problem)
        qubits = [q for i in range(problem.num_processes) for q in layout.process_block(i)]
        qubits += [q for j in range(problem.num_nodes) for q in layout.slack_qubits(j)]
        assert sorted(qubits) == list(range(layout.qubit_count))


def test_decode_reference_optimum():
    layout = build_layout(reference_problem("EOHL"))
    assignment = decode(layout, "10100101")
    assert assignment.targets == (0, 0, 1)
    assert assignment.loads == (3, 1)
    assert assignment.residuals == (0, 1)
    assert assignment.consistent


def test_decode_all_zero_ecfl_inconsistent():
    layout = build_layout(reference_problem("ECFL"))
    assignment = decode(layout, "0" * 13)
    assert assignment.targets == (None, None, None)
    assert not assignment.consistent
    assert assignment.loads == (0, 0)


def test_decode_each_block_kind():
    layout = build_layout(reference_problem("ECFL"))
    # Process 1 on the cloud, process 2 on node 1, process 3 inconsistent.
    bits = "001" + "100" + "110" + "0000"
    assignment = decode(layout, bits)
    assert assignment.targets == (CLOUD, 0, None)
    assert assignment.loads == (1, 0)


def test_decode_rejects_malformed():
    layout = build_layout(reference_problem("EOHL"))
    with pytest.raises(MalformedBitstringError):
        decode(layout, "1010")
    with pytest.raises(MalformedBitstringError):
        decode(layout, "1010010x")


def test_decode_encode_identity_randomized():
    rng = np.random.default_rng(7)
    for _ in range(40):
        problem = random_problem(rng)
        layout = build_layout(problem)
        options = list(range(problem.num_nodes)) + (
            [CLOUD] if problem.variant.cloud_allowed else []
        )
        targets = tuple(options[int(rng.integers(len(options)))] for _ in problem.processes)
        loads = [0] * problem.num_nodes
        for i, t in enumerate(targets):
            if t != CLOUD:
                loads[t] += problem.processes[i].weight
        residuals = tuple(n.capacity - l for n, l in zip(problem.nodes, loads))
        assignment = Assignment(targets, tuple(loads), residuals)
        bits = index_to_bits(assignment_index(layout, assignment), layout.qubit_count)
        assert decode(layout, bits) == assignment


def test_check_feasible_reference():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    assert check_feasible(layout, "10100101")
    # Process 0 sets both of its bits, so its one-hot equality fails.
    assert not check_feasible(layout, "11100000")
    assert decode(layout, "11100000").targets[0] is None


def test_check_feasible_counts_eohl():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    feasible = [
        i for i in range(256) if check_feasible(layout, format(i, "08b"))
    ]
    assert len(feasible) == 4


def test_check_feasible_rejects_a_node_violation_alone():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    # One-hot holds everywhere but node loads are wrong.
    assert decode(layout, "01010100").consistent
    assert not check_feasible(layout, "01010100")


def test_feasibility_equals_load_interval_for_pow2_registers():
    rng = np.random.default_rng(23)
    for _ in range(25):
        problem = random_problem(rng, pow2_slack=True)
        layout = build_layout(problem)
        options = list(range(problem.num_nodes)) + (
            [CLOUD] if problem.variant.cloud_allowed else []
        )
        for _ in range(20):
            targets = tuple(
                options[int(rng.integers(len(options)))] for _ in problem.processes
            )
            loads = [0] * problem.num_nodes
            for i, t in enumerate(targets):
                if t != CLOUD:
                    loads[t] += problem.processes[i].weight
            residuals = tuple(n.capacity - l for n, l in zip(problem.nodes, loads))
            assignment = Assignment(targets, tuple(loads), residuals)
            bits = index_to_bits(assignment_index(layout, assignment), layout.qubit_count)
            in_interval = all(
                node.threshold <= load <= node.capacity
                for node, load in zip(problem.nodes, loads)
            )
            assert check_feasible(layout, bits) == in_interval


def test_gain_reference_values():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    assert gain(problem, decode(layout, "10100101")) == 6
    assert gain(problem, decode(layout, "10011001")) == 5  # p1->n1, p2->n2, p3->n1
    cloud_problem = reference_problem("ECFL")
    cloud_layout = build_layout(cloud_problem)
    all_cloud = "001" + "001" + "001" + "11" + "01"
    assert gain(cloud_problem, decode(cloud_layout, all_cloud)) == 0


def test_validation_errors():
    with pytest.raises(ValueError):
        ProcessSpec(0, (1,))
    with pytest.raises(ValueError):
        ProcessSpec(1, (-1,))
    with pytest.raises(ValueError):
        NodeSpec(0)
    with pytest.raises(ValueError):
        make_problem("EOHL", [1], [(1, 1)], (3, 2), (3, 1))  # threshold >= capacity
    with pytest.raises(ValueError):
        make_problem("EOFL", [1], [(1, 1)], (3, 2), (1, 0))  # threshold under free load
    with pytest.raises(ValueError):
        make_problem("EOFL", [1], [(1,)], (3, 2))  # wrong value count


@pytest.mark.parametrize(
    "weights, capacities, thresholds, field",
    [
        ([2.5, 1, 1], (3, 2), (2, 1), "process weight"),
        ([2, 1, 1], (3.5, 2), (2, 1), "node capacity"),
        ([2, 1, 1], (3, 2), (2, "1"), "node threshold"),
    ],
)
def test_non_integer_weights_capacities_and_thresholds_are_rejected(
    weights, capacities, thresholds, field
):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        make_problem("EOHL", weights, [(2, 1), (3, 1), (2, 1)], capacities, thresholds)


def test_numpy_integers_pass_as_python_ints():
    problem = make_problem(
        "EOHL", np.array([2, 1, 1]), [(2, 1), (3, 1), (2, 1)], np.array([3, 2]), np.array([2, 1])
    )
    assert problem == reference_problem("EOHL")
    assert type(problem.processes[0].weight) is int and type(problem.nodes[0].capacity) is int


def test_a_float_gain_is_the_fraction_of_its_shortest_repr_numpy_floats_included():
    assert ProcessSpec(1, (np.float64(0.1),)).values == (Fraction(1, 10),)
    assert ProcessSpec(1, (0.1, np.float32(0.5), "0.25", "1/3")).values == (
        Fraction(1, 10), Fraction(1, 2), Fraction(1, 4), Fraction(1, 3)
    )
    halves = np.array([[2, 1], [3, 1], [2, 1]]) * 0.5
    problem = make_problem("EOHL", [2, 1, 1], halves, [3, 2], [2, 1])
    assert [p.values for p in problem.processes] == [
        (Fraction(1), Fraction(1, 2)), (Fraction(3, 2), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))
    ]


@pytest.mark.parametrize("value", [True, False, None, 1j, "1/0", "x", float("nan"), float("inf")])
def test_a_gain_that_is_no_rational_number_is_a_value_error_naming_it(value):
    message = re.escape(f"process value must be a rational number, got {value!r}") + "$"
    with pytest.raises(ValueError, match=message):
        ProcessSpec(1, (value,))
    with pytest.raises(ValueError, match=message):
        make_problem("EOFL", [1], [(value,)], [1])


def test_infeasible_instance_is_constructible():
    problem = make_problem("EOHL", [2], [(1,)], (1,), (0,))
    assert qubit_count(problem) == 2
