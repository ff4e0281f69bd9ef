from fractions import Fraction
from math import cos, pi, sin

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvarsched import build_layout, encode, expectation_diagonal, run, sample
from qvarsched.encoder import IsingModel
from qvarsched.errors import (
    DimensionMismatchError,
    QubitCountExceededError,
    UnboundParameterError,
)
from qvarsched.oracle import dense_state, gate_unitary
from qvarsched.simulator import (
    GATE_NAMES,
    Circuit,
    Gate,
    Param,
    StateVector,
    apply_gate,
    bits_to_index,
    circuit_to_text,
    diagonal_energies,
    index_to_bits,
)

from helpers import reference_energies, reference_problem, reference_run


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
    model = encode(problem, layout)
    amps = np.zeros(256, dtype=complex)
    amps[bits_to_index("10100101")] = 1.0
    assert expectation_diagonal(StateVector(8, amps), model) == -6.0


def test_expectation_uniform_state_is_constant():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    model = encode(problem, layout)
    circuit = Circuit(8, tuple(Gate("h", (q,)) for q in range(8)), ())
    state = run(circuit)
    assert abs(expectation_diagonal(state, model) - 55.5) < 1e-9


def test_expectation_matches_explicit_sum_random_state():
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    model = encode(problem, layout)
    rng = np.random.default_rng(8)
    state = StateVector(8, _random_state(rng, 8))
    energies = diagonal_energies(model)
    explicit = sum(
        abs(state.amplitudes[i]) ** 2 * energies[i] for i in range(256)
    )
    assert abs(expectation_diagonal(state, model) - explicit) < 1e-9


def test_expectation_dimension_mismatch():
    model = IsingModel(2, Fraction(0), (Fraction(1), Fraction(1)), {}, Fraction(1))
    state = StateVector(3, np.ones(8, dtype=complex) / np.sqrt(8))
    with pytest.raises(DimensionMismatchError):
        expectation_diagonal(state, model)


def test_sample_basis_state():
    amps = np.zeros(4, dtype=complex)
    amps[2] = 1.0
    counts = sample(StateVector(2, amps), 100, seed=0)
    assert counts.counts == {"10": 100}
    assert counts.shots == 100


def test_sample_uniform_within_5_sigma():
    circuit = Circuit(2, (Gate("h", (0,)), Gate("h", (1,))), ())
    counts = sample(run(circuit), 4096, seed=12)
    sigma = (4096 * 0.25 * 0.75) ** 0.5
    assert sum(counts.counts.values()) == 4096
    for bits in ("00", "01", "10", "11"):
        assert abs(counts.counts[bits] - 1024) < 5 * sigma


def test_sample_deterministic():
    circuit = Circuit(3, tuple(Gate("h", (q,)) for q in range(3)), ())
    state = run(circuit)
    assert sample(state, 512, seed=5) == sample(state, 512, seed=5)
    assert sample(state, 512, seed=5) != sample(state, 512, seed=6)


def test_unbound_and_excess_parameters():
    circuit = Circuit(1, (Gate("ry", (0,), Param("t0")),), ("t0",))
    with pytest.raises(UnboundParameterError):
        run(circuit)
    with pytest.raises(UnboundParameterError):
        run(circuit, [0.1, 0.2])
    state = run(circuit, {"t0": pi})
    assert abs(state.amplitudes[1] - 1.0) < 1e-12


def test_param_scale():
    circuit = Circuit(1, (Gate("ry", (0,), Param("t", 0.5)),), ("t",))
    state = run(circuit, {"t": pi})  # effective angle pi/2
    assert abs(state.amplitudes[0] - cos(pi / 4)) < 1e-12


def test_qubit_count_cap():
    circuit = Circuit(25, (), ())
    with pytest.raises(QubitCountExceededError):
        run(circuit)
    run(Circuit(4, (), ()), max_qubits=4)


def test_circuit_text_dump():
    circuit = Circuit(
        2,
        (Gate("x", (0,)), Gate("cry", (0, 1), Param("t0")), Gate("csub", (0, 1), constant=1)),
        ("t0",),
    )
    text = circuit_to_text(circuit)
    assert text.splitlines() == [
        "circuit qubits=2 params=t0",
        "x 0",
        "cry 0,1 t0",
        "csub 0,1 -1",
    ]


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
    assert state.probabilities().tobytes() == (np.abs(reference) ** 2).tobytes()
    assert np.max(np.abs(state.amplitudes - dense_state(circuit, max_qubits=8))) < 1e-12


@pytest.mark.parametrize(
    "layer",
    [(0, 1, 2), (2, 0, 1), (0, 1), (0, 1, 1), (0, 0, 1, 2), (1, 2, 0, 0)],
)
def test_only_a_leading_h_on_every_qubit_folds_into_the_uniform_state(layer):
    gates = (*(Gate("h", (q,)) for q in layer), Gate("ry", (1,), 0.4), Gate("cx", (1, 2)))
    circuit = Circuit(3, gates, ())
    state = run(circuit)
    assert state.probabilities().tobytes() == (np.abs(reference_run(circuit)) ** 2).tobytes()
    assert np.max(np.abs(state.amplitudes - dense_state(circuit))) < 1e-12


def test_phase_gates_on_every_qubit_equal_the_gate_by_gate_loop_bit_for_bit():
    # apply_gate multiplies single elements here, which rounds differently
    # from a broadcast multiply once both parts of an amplitude are nonzero.
    rng = np.random.default_rng(23)
    for _ in range(50):
        a, b, c = (float(t) for t in rng.uniform(0, 2 * pi, 3))
        mix = [Gate(kind, (q,), a) for q in (0, 1) for kind in ("rx", "ry")]
        for circuit in (
            Circuit(1, (*mix[:2], Gate("rz", (0,), b), Gate("rx", (0,), c)), ()),
            Circuit(2, (*mix, Gate("rzz", (0, 1), b), Gate("rx", (0,), c)), ()),
        ):
            expected = np.abs(reference_run(circuit)) ** 2
            assert run(circuit).probabilities().tobytes() == expected.tobytes()


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
