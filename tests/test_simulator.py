import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import cos, pi, sin
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qvarsched import build_layout, encode, run, sample, simulator, vqa
from qvarsched.bench import scaling_instance
from qvarsched.circuits import ANSATZ_BUILDERS, CircuitMetrics, metrics
from qvarsched.encoder import IsingModel
from qvarsched.errors import (
    QubitCountExceededError,
    UnboundParameterError,
)
from qvarsched.files import parse_problem
from qvarsched.oracle import dense_state, gate_unitary
from qvarsched.simulator import (
    _ROW_QUBITS,
    GATE_NAMES,
    Circuit,
    Gate,
    Param,
    StateVector,
    apply_gate,
    bits_to_index,
    diagonal_energies,
    energies_at,
    index_to_bits,
    _DenseProgram,
    _relabel,
    _SupportProgram,
)
from qvarsched.vqa import Instance, build_circuit

from helpers import (
    fused_run,
    reference_energies,
    reference_problem,
    reference_run,
    reference_sample,
    spy_calls,
)


def _random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def _random_gate(rng, n, kinds=GATE_NAMES):
    kind = rng.choice(kinds)
    qubits = rng.permutation(n)
    angle = float(rng.uniform(0, 2 * pi))
    if kind in ("x", "h"):
        return Gate(kind, (int(qubits[0]),))
    if kind in ("rx", "ry", "rz"):
        return Gate(kind, (int(qubits[0]),), angle)
    if kind == "cry":
        return Gate(kind, (int(qubits[0]), int(qubits[1])), angle)
    if kind in ("cx", "rzz"):
        return Gate(kind, (int(qubits[0]), int(qubits[1])), angle if kind == "rzz" else None)
    if kind == "mcx":
        count = int(rng.integers(1, n))
        return Gate(kind, tuple(int(q) for q in qubits[: count + 1]))
    size = int(rng.integers(1, n))
    register = tuple(int(q) for q in qubits[1 : size + 1])
    return Gate(kind, (int(qubits[0]), *register), constant=int(rng.integers(0, 2**size + 2)))


def test_bitstring_conventions():
    assert bits_to_index("100") == 4
    assert index_to_bits(4, 3) == "100"
    assert index_to_bits(1, 3) == "001"


def test_x_on_qubit0():
    circuit = Circuit(2, (Gate("x", (0,)),), ())
    state = run(circuit)
    assert np.allclose(state.amplitudes, [0, 0, 1, 0])  # |10>


def test_a1_block_amplitudes_closed_form():
    theta1, theta2 = 0.7, 2.1
    circuit = Circuit(
        3,
        (
            Gate("x", (0,)),
            Gate("cry", (0, 1), theta1),
            Gate("cry", (1, 2), theta2),
            Gate("cx", (1, 0)),
            Gate("cx", (2, 1)),
        ),
        (),
    )
    amps = run(circuit).amplitudes
    assert abs(amps[bits_to_index("100")] - cos(theta1 / 2)) < 1e-12
    assert abs(amps[bits_to_index("010")] - sin(theta1 / 2) * cos(theta2 / 2)) < 1e-12
    assert abs(amps[bits_to_index("001")] - sin(theta1 / 2) * sin(theta2 / 2)) < 1e-12
    others = [i for i in range(8) if i not in (1, 2, 4)]
    assert np.allclose(amps[others], 0)


def test_every_gate_kind_matches_dense_matrix_on_random_states():
    rng = np.random.default_rng(19)
    n = 4
    seen = set()
    for _ in range(120):
        gate = _random_gate(rng, n)
        seen.add(gate.name)
        state = _random_state(rng, n)
        fast = apply_gate(state.copy(), gate, n)
        dense = gate_unitary(gate, n) @ state
        assert np.max(np.abs(fast - dense)) < 1e-9, gate
    assert seen == {"x", "h", "rx", "ry", "rz", "cx", "cry", "rzz", "mcx", "csub"}


@pytest.mark.parametrize(
    "gate", [Gate("cz", (0, 1)), Gate("X", (0,)), Gate("ryy", (0, 1), 0.3)], ids=str
)
def test_unknown_gate_names_fail_in_every_kernel(gate):
    # No misspelled name may fall into a gate family's branch.
    state = np.zeros(4, dtype=np.complex128)
    state[0] = 1.0
    for kernel in (
        lambda: apply_gate(state, gate, 2),
        lambda: gate_unitary(gate, 2),
        lambda: run(Circuit(2, (gate,), ())),
    ):
        with pytest.raises(ValueError, match="unknown gate"):
            kernel()


def test_mcx_with_one_or_no_controls_equals_cx_or_x_bit_for_bit():
    rng = np.random.default_rng(31)
    n = 4
    for _ in range(20):
        a, b = (int(q) for q in rng.permutation(n)[:2])
        prep = tuple(Gate("ry", (q,), float(rng.uniform(0, 2 * pi))) for q in range(n))
        for special, generic in (
            (Gate("cx", (a, b)), Gate("mcx", (a, b))),
            (Gate("x", (b,)), Gate("mcx", (b,))),
        ):
            # The cry after the flip mixes the amplitudes it moved.
            tail = Gate("cry", (b, a), 0.7)
            pair = [Circuit(n, (*prep, g, tail), ()) for g in (special, generic)]
            assert isinstance(pair[1]._program, _SupportProgram)
            ran = [run(circuit).amplitudes.tobytes() for circuit in pair]
            looped = [reference_run(circuit).tobytes() for circuit in pair]
            assert ran[0] == ran[1] and looped[0] == looped[1]
            assert np.array_equal(gate_unitary(generic, n), gate_unitary(special, n))
            assert metrics(pair[0]) == metrics(pair[1])
    assert metrics(Circuit(2, (Gate("mcx", (1,)),), ())) == CircuitMetrics(0, 0, 0)


def test_norm_preserved_over_long_random_circuit():
    rng = np.random.default_rng(3)
    n = 5
    state = _random_state(rng, n)
    for _ in range(10_000):
        apply_gate(state, _random_gate(rng, n), n)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-9


def test_csub_full_permutation_table():
    m = 3
    for constant in range(0, 10):
        gate = Gate("csub", (0, 3, 2, 1), constant=constant)  # LSB is qubit 3
        for value in range(8):
            for control in (0, 1):
                bits = [0] * 4
                bits[0] = control
                bits[3], bits[2], bits[1] = value & 1, (value >> 1) & 1, (value >> 2) & 1
                index = bits_to_index("".join(map(str, bits)))
                state = np.zeros(16, dtype=complex)
                state[index] = 1.0
                apply_gate(state, gate, 4)
                target = (value - constant) % 8 if control else value
                expected_bits = [control, (target >> 2) & 1, (target >> 1) & 1, target & 1]
                expected = bits_to_index("".join(map(str, expected_bits)))
                assert state[expected] == 1.0


def test_expectation_basis_state_equals_energy():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    model = encode(layout)
    amps = np.zeros(256, dtype=complex)
    amps[bits_to_index("10100101")] = 1.0
    assert float(StateVector(8, amps).probabilities() @ diagonal_energies(model)) == -6.0


def test_expectation_uniform_state_is_constant():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    model = encode(layout)
    circuit = Circuit(8, tuple(Gate("h", (q,)) for q in range(8)), ())
    state = run(circuit)
    assert abs(float(state.probabilities() @ diagonal_energies(model)) - 55.5) < 1e-9


def test_expectation_matches_explicit_sum_random_state():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    model = encode(layout)
    rng = np.random.default_rng(8)
    state = StateVector(8, _random_state(rng, 8))
    energies = diagonal_energies(model)
    explicit = sum(
        abs(state.amplitudes[i]) ** 2 * energies[i] for i in range(256)
    )
    assert abs(float(state.probabilities() @ energies) - explicit) < 1e-9


def test_sample_basis_state():
    amps = np.zeros(4, dtype=complex)
    amps[2] = 1.0
    counts = sample(StateVector(2, amps), 100, seed=0)
    assert counts.qubit_count == 2
    assert counts.indices.tolist() == [bits_to_index("10")]
    assert counts.counts.tolist() == [100]
    assert counts.shots == 100


def test_sample_uniform_within_5_sigma():
    circuit = Circuit(2, (Gate("h", (0,)), Gate("h", (1,))), ())
    counts = sample(run(circuit), 4096, seed=12)
    sigma = (4096 * 0.25 * 0.75) ** 0.5
    assert counts.shots == 4096
    assert counts.indices.tolist() == [0, 1, 2, 3]
    for hits in counts.counts.tolist():
        assert abs(hits - 1024) < 5 * sigma


def test_sample_deterministic():
    circuit = Circuit(3, tuple(Gate("h", (q,)) for q in range(3)), ())
    state = run(circuit)

    def drawn(seed):
        counts = sample(state, 512, seed)
        return counts.indices.tobytes(), counts.counts.tobytes()

    assert drawn(5) == drawn(5)
    assert drawn(5) != drawn(6)


def test_unbound_and_excess_parameters():
    circuit = Circuit(1, (Gate("ry", (0,), Param("t0")),), ("t0",))
    with pytest.raises(UnboundParameterError):
        run(circuit)
    with pytest.raises(UnboundParameterError):
        run(circuit, [0.1, 0.2])
    with pytest.raises(UnboundParameterError, match="unknown parameters: t1, u$"):
        run(circuit, {"t0": pi, "t1": 5, "u": 0})
    state = run(circuit, {"t0": pi})
    assert abs(state.amplitudes[1] - 1.0) < 1e-12
    # Both gate kernels, called without an angle.
    gate = circuit.gates[0]
    with pytest.raises(UnboundParameterError, match="'t0'"):
        apply_gate(np.array([1.0, 0.0], dtype=np.complex128), gate, 1)
    with pytest.raises(UnboundParameterError, match="'t0'"):
        gate_unitary(gate, 1)


@pytest.mark.parametrize("algorithm", ["qaoa", "a4"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_parameter_value_raises_arithmetic_error(algorithm, bad):
    # QAOA runs as a dense program, a4 as a support program.
    circuit = build_circuit(algorithm, Instance(reference_problem("EOHL")), 1)
    for position in range(len(circuit.parameters)):
        values = [0.2] * len(circuit.parameters)
        values[position] = bad
        with pytest.raises(ArithmeticError, match="non-finite parameter values"):
            run(circuit, values)


@pytest.mark.parametrize("kind", ["rx", "rz", "ry"])
def test_a_nan_state_fails_the_norm_check(kind):
    # A literal NaN angle reaches the gates: rx and rz keep the circuit
    # dense, ry makes it a support program.
    circuit = Circuit(2, (Gate("h", (0,)), Gate(kind, (1,), float("nan"))), ())
    assert (circuit.support is None) == (kind != "ry")
    with pytest.raises(ArithmeticError, match="norm drifted to nan"):
        run(circuit)


def test_param_scale():
    circuit = Circuit(1, (Gate("ry", (0,), Param("t", 0.5)),), ("t",))
    state = run(circuit, {"t": pi})  # effective angle pi/2
    assert abs(state.amplitudes[0] - cos(pi / 4)) < 1e-12


def test_qubit_count_cap():
    circuit = Circuit(25, (), ())
    with pytest.raises(QubitCountExceededError):
        run(circuit)
    run(Circuit(4, (), ()), max_qubits=4)


_REAL_KINDS = ("x", "h", "ry", "cx", "cry", "mcx", "csub")
_PERMUTATION_KINDS = ("x", "cx", "mcx", "csub")


@st.composite
def _circuits(draw):
    """A random circuit: an optional leading x run or full or partial h
    layer, then single gates mixed with runs of permutation gates."""
    n = draw(st.integers(2, 8))
    kinds = draw(st.sampled_from((GATE_NAMES, _REAL_KINDS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = [int(q) for q in rng.permutation(n)]
    prefix = draw(st.sampled_from(("none", "x", "full h", "short h", "repeated h")))
    if prefix == "x":
        gates = [Gate("x", (int(q),)) for q in rng.integers(n, size=draw(st.integers(1, 4)))]
    elif prefix == "full h":
        gates = [Gate("h", (q,)) for q in order]
    elif prefix == "short h":
        gates = [Gate("h", (q,)) for q in order[: draw(st.integers(1, n - 1))]]
    elif prefix == "repeated h":
        # n h gates that still miss a qubit.
        gates = [Gate("h", (q,)) for q in (*order[: n - 1], order[0])]
    else:
        gates = []
    # A group of one is any gate; a longer group is a run of permutation gates.
    for size in draw(st.lists(st.integers(1, 4), min_size=1, max_size=12)):
        pool = kinds if size == 1 else _PERMUTATION_KINDS
        gates += [_random_gate(rng, n, pool) for _ in range(size)]
    return Circuit(n, tuple(gates), ())


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_circuits())
def test_run_equals_the_gate_by_gate_loop_bit_for_bit(circuit):
    state = run(circuit)
    reference = reference_run(circuit)
    if any(g.name in ("rz", "rzz") for g in circuit.gates):
        # A fused diagonal rounds differently from its gates one by one.
        assert np.max(np.abs(state.amplitudes - reference)) < 1e-12
        reference = fused_run(circuit)
    assert state.probabilities().tobytes() == (np.abs(reference) ** 2).tobytes()
    assert np.max(np.abs(state.amplitudes - dense_state(circuit, max_qubits=8))) < 1e-12


@pytest.mark.parametrize(
    "layer",
    [(0, 1, 2), (2, 0, 1), (0, 1), (0, 1, 1), (0, 0, 1, 2), (1, 2, 0, 0)],
)
def test_only_a_leading_h_on_every_qubit_folds_into_the_uniform_state(layer):
    # With ry the circuit is real and runs as a support program; rx keeps it
    # on the dense program, which does the folding.
    for rotation in ("ry", "rx"):
        gates = (*(Gate("h", (q,)) for q in layer), Gate(rotation, (1,), 0.4), Gate("cx", (1, 2)))
        circuit = Circuit(3, gates, ())
        if rotation == "rx":
            assert circuit._program.uniform == (set(layer[:3]) == {0, 1, 2})
        state = run(circuit)
        expected = np.abs(reference_run(circuit)) ** 2
        assert state.probabilities().tobytes() == expected.tobytes()
        assert np.max(np.abs(state.amplitudes - dense_state(circuit))) < 1e-12


def test_phase_gates_on_every_qubit_equal_the_fused_loop_bit_for_bit():
    # On 1 and 2 qubits the phase gates act on every qubit and still fuse;
    # the rx on every qubit (Q = 1) stays with apply_gate.
    rng = np.random.default_rng(23)
    for _ in range(50):
        a, b, c = (float(t) for t in rng.uniform(0, 2 * pi, 3))
        mix = [Gate(kind, (q,), a) for q in (0, 1) for kind in ("rx", "ry")]
        for circuit in (
            Circuit(1, (*mix[:2], Gate("rz", (0,), b), Gate("rx", (0,), c)), ()),
            Circuit(2, (*mix, Gate("rzz", (0, 1), b), Gate("rz", (1,), c), Gate("rx", (0,), c)), ()),
        ):
            state = run(circuit)
            assert state.amplitudes.tobytes() == fused_run(circuit).tobytes()
            assert np.max(np.abs(state.amplitudes - reference_run(circuit))) < 1e-12


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 10), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_relabelling_equals_apply_gate_on_an_arange(n, size, seed):
    rng = np.random.default_rng(seed)
    index = np.arange(1 << n, dtype=np.int64)
    labels, moved = index, index.copy()
    for _ in range(size):
        gate = _random_gate(rng, n, _PERMUTATION_KINDS)
        labels = _relabel(labels, gate, n)
        apply_gate(moved, gate, n)
    # moved holds at each basis index the index whose amplitude went there.
    assert np.array_equal(moved[labels], index)


@st.composite
def _support_circuits(draw):
    """A real-gate circuit from |0...0>: one-hot blocks as the ansatzes build
    them, then a few h/ry rotations mixed with csub and mcx gates."""
    n = draw(st.integers(4, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = [int(q) for q in rng.permutation(n)]
    gates, parameters = [], []
    while len(order) >= 2 and draw(st.booleans()):
        size = draw(st.integers(2, min(4, len(order))))
        block, order = order[:size], order[size:]
        gates.append(Gate("x", (block[0],)))
        for t in range(size - 1):
            name = f"t{len(parameters)}"
            parameters.append(name)
            gates.append(Gate("cry", (block[t], block[t + 1]), Param(name)))
        gates += [Gate("cx", (block[t + 1], block[t])) for t in range(size - 1)]
    extra = ["rotation"] * draw(st.integers(0, 4))
    extra += ["permutation"] * draw(st.integers(0, 4))
    for kind in rng.permutation(extra):
        if kind == "rotation":
            gates.append(_random_gate(rng, n, ("h", "ry")))
        else:
            gates.append(_random_gate(rng, n, ("csub", "mcx")))
    values = rng.uniform(0, 2 * pi, len(parameters))
    return Circuit(n, tuple(gates), tuple(parameters)), values


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_support_circuits())
def test_support_program_equals_the_gate_by_gate_loop_bit_for_bit(drawn):
    circuit, values = drawn
    assert isinstance(circuit._program, _SupportProgram)
    state = run(circuit, values)
    reference = reference_run(circuit, values)
    assert state.probabilities().tobytes() == (np.abs(reference) ** 2).tobytes()
    dense = dense_state(circuit, values, max_qubits=9)
    assert np.max(np.abs(state.amplitudes - dense)) < 1e-12


@pytest.mark.parametrize("count", range(7))
def test_real_gate_circuits_take_the_support_path_up_to_the_full_basis(count):
    # Each h on a new qubit doubles the support, up to all 2^6 basis states.
    circuit = Circuit(6, tuple(Gate("h", (q,)) for q in range(count)), ())
    assert isinstance(circuit._program, _SupportProgram)
    expected = np.abs(reference_run(circuit)) ** 2
    assert run(circuit).probabilities().tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ["rx", "rz", "rzz"])
def test_a_complex_gate_sends_the_circuit_to_the_dense_program(kind):
    qubits = (0, 1) if kind == "rzz" else (0,)
    circuit = Circuit(2, (Gate("h", (1,)), Gate(kind, qubits, 0.3)), ())
    assert isinstance(circuit._program, _DenseProgram)


@st.composite
def _dense_circuits(draw):
    """A circuit with a complex gate on 1-14 qubits, so on both sides of the
    dense program's row split, and values for its parameters g and b: an
    optional h on every qubit, then runs of rx/rz/rzz gates, some a whole rx
    layer, each maybe followed by an h, cx or ry gate, which the program
    runs on the natural layout. Each rx/rz/rzz angle is literal or scales g
    or b, so a run of phase gates splits where that choice changes, and a
    run after a whole rx layer follows rx gates on column qubits."""
    n = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex_kinds = ("rx", "rz", "rzz") if n > 1 else ("rx", "rz")
    other_kinds = ("h", "cx", "ry") if n > 1 else ("h", "ry")

    def angled(gate):
        name = ("g", "b", None)[int(rng.integers(3))]
        if name is None:
            return gate
        return replace(gate, angle=Param(name, float(rng.uniform(-3, 3))))

    gates = [Gate("h", (q,)) for q in range(n)] if draw(st.booleans()) else []
    for size in draw(st.lists(st.integers(0, 6), min_size=1, max_size=6)):
        if size == 0:
            layer = [Gate("rx", (q,), float(rng.uniform(0, 2 * pi))) for q in range(n)]
        else:
            layer = [_random_gate(rng, n, complex_kinds) for _ in range(size)]
        gates += [angled(gate) for gate in layer]
        if draw(st.booleans()):
            gates.append(_random_gate(rng, n, other_kinds))
    return Circuit(n, tuple(gates), ("g", "b")), rng.uniform(0, 2 * pi, 2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_dense_circuits())
def test_dense_program_equals_the_fused_loop_bit_for_bit(drawn):
    circuit, values = drawn
    assert isinstance(circuit._program, _DenseProgram)
    state = run(circuit, values)
    fused = fused_run(circuit, values)
    assert state.amplitudes.tobytes() == fused.tobytes()
    assert state.probabilities().tobytes() == (np.abs(fused) ** 2).tobytes()
    assert np.max(np.abs(state.amplitudes - reference_run(circuit, values))) < 1e-12
    if circuit.qubit_count <= 8:
        dense = dense_state(circuit, values, max_qubits=8)
        assert np.max(np.abs(state.amplitudes - dense)) < 1e-12


def test_each_run_of_phase_gates_with_one_parameter_is_one_diagonal():
    literal = [Gate("rz", (0,), 0.3), Gate("rzz", (0, 1), 0.5)]
    g = [Gate("rz", (1,), Param("g", 2.0)), Gate("rzz", (1, 2), Param("g", -1.0))]
    b = [Gate("rz", (2,), Param("b"))]
    cases = [
        (literal + g + b, 3),
        (g + literal + g, 3),
        (g + [Gate("rx", (0,), 0.4)] + g, 2),
        (literal + literal + g + g, 2),
    ]
    for gates, diagonals in cases:
        circuit = Circuit(3, tuple(gates), ("g", "b"))
        kernels = [kernel for kernel, _, _ in circuit._program.ops]
        assert kernels.count("diagonal") == diagonals
        values = [0.7, -1.9]
        assert run(circuit, values).amplitudes.tobytes() == fused_run(circuit, values).tobytes()


_PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def _ansatz_cases():
    for path in sorted(_PROBLEMS.glob("*.problem")):
        problem = parse_problem(path.read_text())
        for kind in sorted(ANSATZ_BUILDERS):
            yield pytest.param(problem, kind, id=f"{path.stem}-{kind}")
    for processes in range(3, 7):
        yield pytest.param(scaling_instance(processes), "a4", id=f"scaling-p{processes}-a4")


@pytest.mark.parametrize("problem, kind", _ansatz_cases())
def test_ansatz_circuits_take_the_support_path_bit_for_bit(problem, kind):
    circuit = ANSATZ_BUILDERS[kind](build_layout(problem))
    assert isinstance(circuit._program, _SupportProgram)
    values = np.random.default_rng(7).uniform(0, pi, len(circuit.parameters))
    expected = np.abs(reference_run(circuit, values)) ** 2
    assert run(circuit, values).probabilities().tobytes() == expected.tobytes()


def _qaoa_cases():
    for path in sorted(_PROBLEMS.glob("*.problem")):
        problem = parse_problem(path.read_text())
        for reps in (1, 2, 3):
            yield pytest.param(problem, reps, id=f"{path.stem}-qaoa{reps}")
    yield pytest.param(scaling_instance(4), 2, id="scaling-p4-qaoa2")


@pytest.mark.parametrize("problem, reps", _qaoa_cases())
def test_qaoa_circuits_equal_the_fused_loop_bit_for_bit(problem, reps):
    instance = Instance(problem)
    circuit = build_circuit("qaoa", instance, reps)
    kernels = [kernel for kernel, _, _ in circuit._program.ops]
    assert kernels.count("diagonal") == reps
    values = np.random.default_rng(reps).uniform(0, 2 * pi, len(circuit.parameters))
    state = run(circuit, values)
    fused = fused_run(circuit, values)
    assert state.amplitudes.tobytes() == fused.tobytes()
    expected = np.abs(fused) ** 2
    assert state.probabilities().tobytes() == expected.tobytes()
    objective = state.probabilities() @ instance.energies
    assert objective.tobytes() == (expected @ instance.energies).tobytes()
    assert np.max(np.abs(state.amplitudes - reference_run(circuit, values))) < 1e-12


def test_qaoa_phase_and_rx_gates_bypass_apply_gate(monkeypatch):
    circuit = build_circuit("qaoa", Instance(reference_problem("ECFL")), 2)
    assert {g.name for g in circuit.gates} == {"h", "rz", "rzz", "rx"}
    calls = spy_calls(monkeypatch, simulator, "apply_gate")
    run(circuit, [0.3, 1.1, 2.0, 0.7])
    assert calls == []


def test_the_dense_program_needs_two_state_buffers():
    circuit = build_circuit("qaoa", Instance(scaling_instance(5)), 1)
    assert circuit.qubit_count == 17
    values = [0.4, 1.3]
    run(circuit, values)  # compiles
    tracemalloc.start()
    try:
        run(circuit, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    state_bytes = 16 << 17
    # Beyond the two buffers: numpy's ufunc buffers and the small phase tables.
    assert 2 * state_bytes <= peak < 2.25 * state_bytes


@pytest.mark.parametrize("problem, kind", _ansatz_cases())
def test_a_support_state_scatters_its_amplitudes_when_first_read(problem, kind):
    circuit = ANSATZ_BUILDERS[kind](build_layout(problem))
    values = np.random.default_rng(5).uniform(0, pi, len(circuit.parameters))
    state = run(circuit, values)
    assert "amplitudes" not in vars(state)
    assert np.array_equal(state.amplitudes, reference_run(circuit, values))
    assert state.amplitudes.dtype == np.float64
    assert state.amplitudes is state.amplitudes


@pytest.mark.parametrize("problem, kind", _ansatz_cases())
def test_one_objective_equals_the_gate_by_gate_loop_at_each_point_bit_for_bit(problem, kind):
    instance = Instance(problem)
    circuit = build_circuit(kind, instance)
    view = instance.energy_view(circuit)
    objective = vqa.Objective(instance, circuit, "exact", 1)
    rng = np.random.default_rng(13)
    first, second = (rng.uniform(0, pi, len(circuit.parameters)) for _ in range(2))
    # The third point repeats the first: an entry left over from the second
    # evaluation in the objective's kept vector would change its value.
    points = (first, second, first)
    values = [np.float64(objective(theta, None)) for theta in points]
    for theta, value in zip(points, values):
        expected = np.float64(np.abs(reference_run(circuit, theta)) ** 2 @ view)
        assert value.tobytes() == expected.tobytes()
    assert values[2].tobytes() == values[0].tobytes()


def test_an_exact_a4_evaluation_at_20_qubits_allocates_no_full_basis_array():
    instance = Instance(scaling_instance(6))
    circuit = build_circuit("a4", instance)
    assert circuit.qubit_count == 20
    objective = vqa.Objective(instance, circuit, "exact", 1)
    theta = np.full(len(circuit.parameters), 0.7)
    objective(theta, None)  # compiles
    tracemalloc.start()
    try:
        objective(theta, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One float64 vector over the 2^20 basis states would alone take 8 MiB.
    assert peak < 2**20


@pytest.mark.parametrize("problem, kind", _ansatz_cases())
def test_the_objective_squares_the_support_to_the_dense_probabilities_bit_for_bit(problem, kind):
    instance = Instance(problem)
    circuit = build_circuit(kind, instance)
    values = np.random.default_rng(7).uniform(0, pi, len(circuit.parameters))
    state = run(circuit, values)
    assert state.support is not None
    dense = np.abs(state.amplitudes) ** 2
    probs = state.probabilities()
    assert probs.tobytes() == dense.tobytes()
    # The exact objective reads the circuit's energy view, never the full table.
    exact = vqa.Objective(instance, circuit, "exact", 1)(values, None)
    assert "energies" not in vars(instance)
    full = probs @ diagonal_energies(instance.model)
    assert np.float64(exact).tobytes() == full.tobytes()
    assert (probs @ instance.energies).tobytes() == (dense @ instance.energies).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_support_circuits(), st.booleans(), st.data())
def test_support_sampling_equals_the_dense_multinomial_bit_for_bit(drawn, last_held, data):
    circuit, values = drawn
    n, last = circuit.qubit_count, (1 << circuit.qubit_count) - 1
    support = run(circuit, values).support
    # x on the zero bits of one index moves it to 2^n - 1 and moves every
    # label by the same xor, so 2^n - 1 is held iff that index was.
    if last_held:
        chosen = data.draw(st.sampled_from(support.tolist()))
    else:
        absent = np.setdiff1d(np.arange(last + 1), support)
        assume(len(absent) > 0)
        chosen = data.draw(st.sampled_from(absent.tolist()))
    flips = tuple(Gate("x", (q,)) for q in range(n) if not chosen >> (n - 1 - q) & 1)
    state = run(Circuit(n, circuit.gates + flips, circuit.parameters), values)
    assert (state.support[-1] == last) == last_held
    shots = data.draw(st.integers(1, 10**5))
    seed = data.draw(st.integers(0, 2**32 - 1))
    counts = sample(state, shots, seed)
    expected_indices, expected_hits = reference_sample(state.amplitudes, shots, seed)
    assert counts.indices.dtype == expected_indices.dtype
    assert counts.indices.tobytes() == expected_indices.tobytes()
    assert counts.counts.tobytes() == expected_hits.tobytes()


# With a tiny last probability and 10^15 shots, the multinomial has draws
# left after its last nonzero category, and hands them to index 2^Q - 1,
# whose probability is 0.
_LEFTOVER_AMPLITUDES = (
    0.24373561805389007, 0.6243061961662504, 0.7421824047498687, 1.3198061729297087e-07
)


def test_support_sampling_keeps_the_leftover_draws_at_the_last_index():
    amplitudes = np.zeros(8)
    amplitudes[:4] = _LEFTOVER_AMPLITUDES
    state = StateVector(3, amplitudes, np.arange(4))
    expected_indices, expected_hits = reference_sample(amplitudes, 10**15, 0)
    assert expected_indices[-1] == 7 and expected_hits[-1] > 0
    counts = sample(state, 10**15, 0)
    assert counts.indices.tobytes() == expected_indices.tobytes()
    assert counts.counts.tobytes() == expected_hits.tobytes()


def test_the_sampled_objective_reads_the_true_energy_of_the_leftover_draws(monkeypatch):
    # The leftover case on the 8-qubit EOHL instance: a circuit whose support
    # is the first 4 indices, so its energy view holds energies at 0..3 and 255.
    instance = Instance(reference_problem("EOHL"))
    circuit = Circuit(8, (Gate("h", (6,)), Gate("h", (7,))), ())
    assert circuit.support.tolist() == [0, 1, 2, 3]
    amplitudes = np.zeros(256)
    amplitudes[:4] = _LEFTOVER_AMPLITUDES
    state = StateVector(8, amplitudes, np.arange(4))
    monkeypatch.setattr(vqa, "run", lambda *args, **kwargs: state)
    # The measurement seed that rng 56 draws leaves 2 draws over.
    shots, seed = 10**15, int(np.random.default_rng(56).integers(2**31))
    value = vqa.Objective(instance, circuit, "sampled", shots)((), np.random.default_rng(56))
    indices, hits = reference_sample(amplitudes, shots, seed)
    energies = diagonal_energies(instance.model)
    assert indices[-1] == 255 and hits[-1] > 0 and energies[255] != 0
    plain = sum(int(h) * energies[i] for i, h in zip(indices.tolist(), hits.tolist())) / shots
    assert value == plain


def test_compiling_the_support_program_does_no_full_basis_work():
    problem = scaling_instance(7)
    circuit = ANSATZ_BUILDERS["a4"](build_layout(problem))
    assert circuit.qubit_count == 23
    tracemalloc.start()
    try:
        program = circuit._program
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(program, _SupportProgram)
    # An array with one byte per basis state would alone take 2^23 bytes.
    assert peak < 2**23 // 16


_COEFFICIENTS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**4)),
)


@st.composite
def _ising_models(draw):
    q = draw(st.integers(0, 10))
    linear = tuple(draw(st.lists(_COEFFICIENTS, min_size=q, max_size=q)))
    pairs = [(i, j) for i in range(q) for j in range(i + 1, q)]
    # Drawn in shuffled order: the energies add the terms in dict order.
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    pairwise = {pair: draw(_COEFFICIENTS) for pair in chosen}
    return IsingModel(q, draw(_COEFFICIENTS), linear, pairwise, Fraction(1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_ising_models())
def test_energies_equal_the_per_term_sum_bit_for_bit(model):
    assert diagonal_energies(model).tobytes() == reference_energies(model).tobytes()


@st.composite
def _wide_ising_models(draw):
    """Models of up to 4 qubits more than a row of diagonal_energies holds,
    with at least one pair term on two qubits above the row, one on a qubit
    above and one inside, and one on two qubits inside."""
    q = draw(st.integers(_ROW_QUBITS + 2, _ROW_QUBITS + 4))
    top = q - _ROW_QUBITS
    linear = tuple(draw(st.lists(_COEFFICIENTS, min_size=q, max_size=q)))
    pairs = [(i, j) for i in range(q) for j in range(i + 1, q)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30))
    for inside in range(3):
        kind = [p for p in pairs if sum(i >= top for i in p) == inside]
        if not set(kind) & set(chosen):
            chosen.append(draw(st.sampled_from(kind)))
    # Drawn in shuffled order: the energies add the terms in dict order.
    pairwise = {pair: draw(_COEFFICIENTS) for pair in draw(st.permutations(chosen))}
    return IsingModel(q, draw(_COEFFICIENTS), linear, pairwise, Fraction(1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_wide_ising_models())
def test_energies_past_one_row_equal_the_per_term_sum_bit_for_bit(model):
    assert diagonal_energies(model).tobytes() == reference_energies(model).tobytes()


@pytest.mark.parametrize("models", [_ising_models(), _wide_ising_models()], ids=["narrow", "wide"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_energies_at_equal_the_table_at_the_same_indices_bit_for_bit(models, data):
    model = data.draw(models)
    last = (1 << model.qubit_count) - 1
    drawn = data.draw(st.lists(st.integers(0, last), max_size=40))
    # Unsorted, with repeats, and always both ends of the basis.
    indices = np.array(data.draw(st.permutations([0, last, *drawn, *drawn[:5]])), dtype=np.int64)
    assert energies_at(model, indices).tobytes() == diagonal_energies(model)[indices].tobytes()
