import hashlib
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import cos, pi, sin
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qvarsched import build_layout, encode, run, sample, simulator, vqa
from qvarsched.bench import scaling_instance
from qvarsched.circuits import ANSATZ_BUILDERS, CircuitMetrics, metrics
from qvarsched.encoder import IsingModel
from qvarsched.errors import UnboundParameterError
from qvarsched.files import parse_problem
from qvarsched.simulator import (
    _ROW_QUBITS,
    GATE_NAMES,
    Circuit,
    Gate,
    Param,
    StateVector,
    apply_gate,
    diagonal_energies,
    energies_at,
    index_to_bits,
    _DenseProgram,
    _relabel,
    _SupportProgram,
)
from qvarsched.vqa import Instance, build_circuit

from helpers import (
    bits_to_index,
    dense_state,
    expand_cost_gates,
    fused_run,
    gate_unitary,
    reference_energies,
    reference_problem,
    reference_run,
    reference_sample,
    spy_calls,
)


def _random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def _random_terms(rng, n):
    """1-6 cost-gate terms (scale, qubits) on one or two of n qubits, about a
    quarter of them with scale 0."""
    terms = []
    for _ in range(int(rng.integers(1, 7))):
        qubits = rng.permutation(n)[: int(rng.integers(1, min(n, 2) + 1))]
        scale = 0.0 if rng.random() < 0.25 else float(rng.uniform(-3, 3))
        terms.append((scale, tuple(sorted(int(q) for q in qubits))))
    return tuple(terms)


def _random_gate(rng, n, kinds=GATE_NAMES):
    kind = rng.choice(kinds)
    qubits = rng.permutation(n)
    angle = float(rng.uniform(0, 2 * pi))
    if kind == "cost":
        return Gate(kind, tuple(range(n)), angle, terms=_random_terms(rng, n))
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
    assert seen == set(GATE_NAMES)


@pytest.mark.parametrize(
    "name, qubits, angle", [("cz", (0, 1), None), ("X", (0,), None), ("ryy", (0, 1), 0.3)], ids=["cz", "X", "ryy"]
)
def test_unknown_gate_names_fail_in_every_kernel(name, qubits, angle):
    # No misspelled name may fall into a gate family's branch: construction
    # rejects it, so no kernel can meet it. The reference keeps its own check,
    # shown on an unchecked stand-in for the gate.
    with pytest.raises(ValueError, match=re.escape(f"unknown gate {name!r} on {qubits}") + "$"):
        Gate(name, qubits, angle)
    with pytest.raises(ValueError, match="unknown gate"):
        gate_unitary(SimpleNamespace(name=name, qubits=qubits, angle=angle), 2)


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
    # shots has the bounds of check_count: past a C long numpy would overflow.
    for shots, message in (
        (0, "shots must be >= 1"),
        (2**63, f"shots must be <= {2**63 - 1}, got {2**63}"),
        (2.5, "shots must be an integer, got 2.5"),
    ):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            sample(StateVector(2, amps), shots, seed=0)


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


@pytest.mark.parametrize("angle", [Param("t"), 10.0], ids=["param", "literal"])
def test_a_nan_state_fails_the_norm_check(angle):
    # Every angle and scale is finite, but 10 times the term scale 1e308
    # overflows to an infinite phase, whose exp is NaN. Only a cost gate
    # multiplies a scale by an angle in the 2^Q work.
    cost = Gate("cost", (0, 1), angle, terms=((1e308, (1,)),))
    parameters = ("t",) if isinstance(angle, Param) else ()
    circuit = Circuit(2, (Gate("h", (0,)), cost), parameters)
    with pytest.warns(RuntimeWarning), pytest.raises(ArithmeticError, match="norm drifted to nan"):
        run(circuit, [10.0] if parameters else None)


def _angled_circuits(kind, angle):
    """2-qubit circuits with one kind gate at angle, with the program each
    runs as: a dense one, and for ry and cry also a support one."""
    qubits = (0, 1) if kind in ("cry", "rzz", "cost") else (1,)
    gate = Gate(kind, qubits, angle, terms=((0.5, qubits),) if kind == "cost" else ())
    parameters = (angle.name,) if isinstance(angle, Param) else ()
    # The trailing rz keeps ry and cry dense.
    gates = (Gate("h", (0,)), Gate("h", (1,)), gate, Gate("rz", (0,), 0.2))
    circuits = [(Circuit(2, gates, parameters), _DenseProgram)]
    if kind in ("ry", "cry"):
        circuits.append((Circuit(2, (Gate("h", (0,)), gate), parameters), _SupportProgram))
    return circuits


_ANGLED_KINDS = ["rx", "ry", "cry", "rz", "rzz", "cost"]


@pytest.mark.parametrize("kind", _ANGLED_KINDS)
@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_a_non_finite_literal_angle_raises_arithmetic_error(kind, bad):
    for circuit, program in _angled_circuits(kind, 0.3):
        assert isinstance(circuit._program, program)
    qubits = (0, 1) if kind in ("cry", "rzz", "cost") else (1,)
    message = f"gate {kind!r} on {qubits}: non-finite literal angle {bad}"
    with pytest.raises(ArithmeticError, match=re.escape(message) + "$"):
        _angled_circuits(kind, bad)


@pytest.mark.parametrize("kind", _ANGLED_KINDS)
@pytest.mark.parametrize(
    "scale, value",
    [(1e308, 10.0), (-1e308, 10.0), (float("nan"), 0.3), (float("inf"), 0.3), (float("-inf"), 0.0)],
)
def test_a_non_finite_resolved_angle_raises_before_the_program_runs(monkeypatch, kind, scale, value):
    def execute(*args):
        raise AssertionError("the program ran")

    for circuit, program in _angled_circuits(kind, Param("t", scale)):
        monkeypatch.setattr(program, "execute", execute)
        with pytest.raises(ArithmeticError, match=re.escape(f"non-finite resolved angles: {kind}({scale} * t = ")):
            run(circuit, [value])


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_a_non_finite_cost_term_scale_raises_arithmetic_error(bad):
    message = f"gate 'cost' on (0, 1): non-finite term scales [({bad}, (0, 1))]"
    with pytest.raises(ArithmeticError, match=re.escape(message) + "$"):
        Gate("cost", (0, 1), Param("g"), terms=((0.5, (0,)), (bad, (0, 1))))


@pytest.mark.parametrize("kind", _ANGLED_KINDS)
def test_a_gate_that_takes_an_angle_but_has_none_raises_before_any_gate(kind):
    # Raised where the gate is built, so no circuit, and no program, holds it.
    qubits = (0, 1) if kind in ("cry", "rzz", "cost") else (1,)
    with pytest.raises(ValueError, match=re.escape(f"gate {kind!r} on {qubits}: angle is missing") + "$"):
        _angled_circuits(kind, None)


def test_an_rx_without_an_angle_raises_on_one_qubit_and_in_a_mixer():
    # Neither apply_gate (Q = 1) nor a mixer op can meet one: it fails where it is built.
    with pytest.raises(ValueError, match=re.escape("gate 'rx' on (0,): angle is missing") + "$"):
        Circuit(1, (Gate("rx", (0,)),), ())
    with pytest.raises(ValueError, match=re.escape("gate 'rx' on (1,): angle is missing") + "$"):
        Circuit(3, (Gate("h", (0,)), Gate("rx", (1,)), Gate("rx", (2,), 0.4), Gate("rx", (0,))), ())


_FIXED_KINDS = ("x", "h", "rx", "ry", "rz", "cx", "cry", "rzz")


def _others(*kinds):
    return tuple(kind for kind in GATE_NAMES if kind not in kinds)


def _changed(fields, qubit_count, **changes):
    return {**fields, **changes}, qubit_count


# Each defect: the kinds it applies to, and a change of (gate fields, Q, draw)
# to the fields and Q of a circuit with that defect; fields that are no dict
# are the circuit's entry itself.
_DEFECTS = {
    "a qubit >= Q": (GATE_NAMES, lambda f, q, draw: (f, max(f["qubits"]))),
    "a negative qubit": (GATE_NAMES, lambda f, q, draw: _changed(
        f, q, qubits=(-draw(st.integers(1, 3)), *f["qubits"][1:]))),
    "a repeated operand": (GATE_NAMES, lambda f, q, draw: _changed(f, q, qubits=(*f["qubits"], f["qubits"][0]))),
    "an extra operand": (_FIXED_KINDS, lambda f, q, draw: _changed(f, q + 1, qubits=(*f["qubits"], q))),
    "too few operands": (GATE_NAMES, lambda f, q, draw: _changed(
        f, q, qubits=f["qubits"][: (2 if f["name"] in ("cx", "cry", "rzz", "csub") else 1) - 1])),
    "an unknown name": (GATE_NAMES, lambda f, q, draw: _changed(
        f, q, name=draw(st.text(max_size=4).filter(lambda name: name not in GATE_NAMES)))),
    "a wrong-case name": (GATE_NAMES, lambda f, q, draw: _changed(f, q, name=f["name"].upper())),
    "a name that is no str": (GATE_NAMES, lambda f, q, draw: _changed(f, q, name=[f["name"]])),
    "an entry that is no Gate": (GATE_NAMES, lambda f, q, draw: ((f["name"], f["qubits"]), q)),
    "a missing angle": (_ANGLED_KINDS, lambda f, q, draw: _changed(f, q, angle=None)),
    "an extra angle": (_others(*_ANGLED_KINDS), lambda f, q, draw: _changed(
        f, q, angle=draw(st.floats(-4, 4) | st.just(Param("t"))))),
    "csub without a constant": (("csub",), lambda f, q, draw: _changed(f, q, constant=None)),
    "csub with a float constant": (("csub",), lambda f, q, draw: _changed(f, q, constant=float(f["constant"]))),
    "a constant on another kind": (_others("csub"), lambda f, q, draw: _changed(
        f, q, constant=draw(st.integers(-3, 9)))),
    "terms on another kind": (_others("cost"), lambda f, q, draw: _changed(
        f, q, terms=((1.0, f["qubits"][:1]),))),
    "a 3-qubit term": (("cost",), lambda f, q, draw: _changed(f, q, terms=(*f["terms"], (1.0, f["qubits"][:3])))),
    "a term off the gate": (("cost",), lambda f, q, draw: _changed(f, q + 1, terms=(*f["terms"], (1.0, (q,))))),
    "a float operand": (GATE_NAMES, lambda f, q, draw: _changed(
        f, q, qubits=(float(f["qubits"][0]), *f["qubits"][1:]))),
    "a negative qubit_count": (GATE_NAMES, lambda f, q, draw: (f, -draw(st.integers(1, 3)))),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_malformed_gate_or_circuit_is_rejected_where_it_is_built(data):
    # A well-formed gate with one defect: its Gate or its Circuit raises, so
    # no kernel and no metrics can meet it.
    defect = data.draw(st.sampled_from(sorted(_DEFECTS)), label="defect")
    kinds, change = _DEFECTS[defect]
    q = data.draw(st.integers(3, 5), label="Q")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    gate = _random_gate(rng, q, kinds=(data.draw(st.sampled_from(kinds), label="kind"),))
    fields = {name: getattr(gate, name) for name in ("name", "qubits", "angle", "constant", "terms")}
    assert Circuit(q, (Gate(**fields),), ()).gates == (gate,)
    fields, qubit_count = change(fields, q, data.draw)
    with pytest.raises(ValueError):
        Circuit(qubit_count, (Gate(**fields) if isinstance(fields, dict) else fields,), ())


def test_a_circuit_names_the_gate_index_of_a_bad_qubit_or_param():
    with pytest.raises(ValueError, match=re.escape("gate 1 (cx on (0, 2)) acts on a qubit >= 2") + "$"):
        Circuit(2, (Gate("x", (0,)), Gate("cx", (0, 2))), ())
    with pytest.raises(ValueError, match=re.escape("gate 1 (ry on (0,)): 'u' is not a parameter") + "$"):
        Circuit(1, (Gate("ry", (0,), Param("t")), Gate("ry", (0,), Param("u"))), ("t",))
    with pytest.raises(ValueError, match=re.escape("parameter names repeat in ('t', 't')") + "$"):
        Circuit(1, (Gate("ry", (0,), Param("t")),), ("t", "t"))


def test_param_scale():
    circuit = Circuit(1, (Gate("ry", (0,), Param("t", 0.5)),), ("t",))
    state = run(circuit, {"t": pi})  # effective angle pi/2
    assert abs(state.amplitudes[0] - cos(pi / 4)) < 1e-12


def test_a_40_qubit_support_circuit_runs_on_its_slots_alone():
    # x, h, cx and cry make a support program, which holds its three slots,
    # not 2^40 amplitudes: run checks no width, and the state is never scattered.
    gates = (Gate("x", (0,)), Gate("h", (1,)), Gate("cx", (0, 39)), Gate("cry", (1, 20), Param("t")))
    circuit = Circuit(40, gates, ("t",))
    tracemalloc.start()
    try:
        state = run(circuit, [0.6])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    low, high = bits_to_index("10" + "0" * 37 + "1"), bits_to_index("11" + "0" * 37 + "1")
    assert state.support.tolist() == [low, high, high | 1 << 19]
    expected = np.array([1.0, cos(0.3), sin(0.3)]) / np.sqrt(2)
    assert np.allclose(state.held, expected, rtol=0, atol=1e-15)


_HAND_KINDS = tuple(kind for kind in GATE_NAMES if kind != "cost")
_REAL_KINDS = ("x", "h", "ry", "cx", "cry", "mcx", "csub")
_PERMUTATION_KINDS = ("x", "cx", "mcx", "csub")


@st.composite
def _circuits(draw):
    """A random circuit of every gate kind but cost: an optional leading x
    run or full or partial h layer, then single gates mixed with runs of
    permutation gates."""
    n = draw(st.integers(2, 8))
    kinds = draw(st.sampled_from((_HAND_KINDS, _REAL_KINDS)))
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


def test_phase_and_cost_gates_on_every_qubit_equal_their_loops_bit_for_bit():
    # On 1 and 2 qubits the phase gates, and the cost gate made of them, act
    # on every qubit, where apply_gate multiplies single elements; the rx on
    # every qubit (Q = 1) stays with apply_gate.
    rng = np.random.default_rng(23)
    for _ in range(50):
        a, b, c = (float(t) for t in rng.uniform(0, 2 * pi, 3))
        mix = [Gate(kind, (q,), a) for q in (0, 1) for kind in ("rx", "ry")]
        for n, phases in ((1, [Gate("rz", (0,), b)]), (2, [Gate("rzz", (0, 1), b), Gate("rz", (1,), c)])):
            head, tail = mix[: 2 * n], Gate("rx", (0,), c)
            circuit = Circuit(n, (*head, *phases, tail), ())
            assert run(circuit).amplitudes.tobytes() == reference_run(circuit).tobytes()
            cost = Gate("cost", tuple(range(n)), 1.0, terms=tuple((g.angle, g.qubits) for g in phases))
            layer = Circuit(n, (*head, cost, tail), ())
            state = run(layer)
            assert state.amplitudes.tobytes() == fused_run(expand_cost_gates(layer)).tobytes()
            assert np.max(np.abs(state.amplitudes - reference_run(layer))) < 1e-12


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


@pytest.mark.parametrize("kind", ["rx", "rz", "rzz", "cost"])
def test_a_complex_gate_sends_the_circuit_to_the_dense_program(kind):
    qubits = (0, 1) if kind in ("rzz", "cost") else (0,)
    gate = Gate(kind, qubits, 0.3, terms=((1.0, (0,)),) if kind == "cost" else ())
    circuit = Circuit(2, (Gate("h", (1,)), gate), ())
    assert isinstance(circuit._program, _DenseProgram)


@st.composite
def _dense_circuits(draw):
    """A circuit with a hand-built complex gate on 1-14 qubits and values for
    its parameters g and b: an optional h on every qubit, then runs of
    rx/rz/rzz gates, some a whole rx layer, each maybe followed by an h, cx
    or ry gate, which the program runs through apply_gate. Each rx/rz/rzz
    angle is literal or scales g or b."""
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
def test_dense_program_equals_the_gate_by_gate_loop_bit_for_bit(drawn):
    circuit, values = drawn
    assert isinstance(circuit._program, _DenseProgram)
    state = run(circuit, values)
    reference = reference_run(circuit, values)
    assert state.amplitudes.tobytes() == reference.tobytes()
    if circuit.qubit_count <= 8:
        dense = dense_state(circuit, values, max_qubits=8)
        assert np.max(np.abs(state.amplitudes - dense)) < 1e-12


@st.composite
def _cost_circuits(draw):
    """Cost gates on 1-14 qubits and values for their parameters g and b: an
    optional h on every qubit, then cost gates with 1-6 terms, each followed,
    as a QAOA mixer follows it, by an rx layer or one h, cx, ry or rx gate.
    Each cost angle is literal or scales g or b by 1 or a random scale."""
    n = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    other_kinds = ("h", "cx", "ry", "rx") if n > 1 else ("h", "ry", "rx")
    gates = [Gate("h", (q,)) for q in range(n)] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(1, 4))):
        name = ("g", "b", None)[int(rng.integers(3))]
        if name is None:
            angle = float(rng.uniform(0, 2 * pi))
        else:
            angle = Param(name, float(rng.uniform(-3, 3)) if draw(st.booleans()) else 1.0)
        gates.append(Gate("cost", tuple(range(n)), angle, terms=_random_terms(rng, n)))
        if draw(st.booleans()):
            gates += [Gate("rx", (q,), float(rng.uniform(0, 2 * pi))) for q in range(n)]
        else:
            gates.append(_random_gate(rng, n, other_kinds))
    return Circuit(n, tuple(gates), ("g", "b")), rng.uniform(0, 2 * pi, 2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_cost_circuits())
def test_a_cost_gate_equals_the_fused_loop_of_its_phase_gates_bit_for_bit(drawn):
    circuit, values = drawn
    assert isinstance(circuit._program, _DenseProgram)
    state = run(circuit, values)
    expanded = expand_cost_gates(circuit)
    assert state.amplitudes.tobytes() == fused_run(expanded, values).tobytes()
    # A cost gate rounds differently from its phase gates one by one.
    for reference in (reference_run(circuit, values), reference_run(expanded, values)):
        assert np.max(np.abs(state.amplitudes - reference)) < 1e-12
    if circuit.qubit_count <= 8:
        dense = dense_state(circuit, values, max_qubits=8)
        assert np.max(np.abs(state.amplitudes - dense)) < 1e-12
    assert metrics(circuit) == metrics(expanded)


def test_each_cost_gate_is_one_diagonal_and_each_phase_gate_one_apply_gate():
    literal = [Gate("rz", (0,), 0.3), Gate("rzz", (0, 1), 0.5)]
    terms = ((2.0, (1,)), (-1.0, (1, 2)))
    g = Gate("cost", (0, 1, 2), Param("g"), terms=terms)
    b = Gate("cost", (0, 1, 2), Param("b", 0.5), terms=terms)
    gates = (*literal, g, b, g, *literal, Gate("rx", (0,), 0.4), g)
    circuit = Circuit(3, gates, ("g", "b"))
    ops = circuit._program.ops
    kernels = ["gate", "gate", "diagonal", "diagonal", "diagonal", "gate", "gate", "mixer", "diagonal"]
    assert [kernel for kernel, _, _, _ in ops] == kernels
    assert [gate for _, gate, _, _ in ops] == list(gates)
    assert [position for _, _, position, _ in ops] == list(range(len(gates)))
    # The cost gates at one angle scale share one (levels, inverse); b's
    # scale 0.5 is in its levels.
    diagonals = [data for kernel, _, _, data in ops if kernel == "diagonal"]
    assert diagonals[0] is diagonals[2] is diagonals[3] is not diagonals[1]
    values = [0.7, -1.9]
    assert np.max(np.abs(run(circuit, values).amplitudes - reference_run(circuit, values))) < 1e-12


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
    yield pytest.param(scaling_instance(5), 1, id="scaling-p5-qaoa1")


def _rz_rzz_qaoa(model, reps):
    """The QAOA circuit as rz and rzz gates: RZ(2 g coeff) per nonzero linear
    term and RZZ(2 g coeff) per pair term in ascending pair order, then RX(2 b)
    on every qubit."""
    n = model.qubit_count
    gates = [Gate("h", (q,)) for q in range(n)]
    for r in range(reps):
        g = f"g{r}"
        gates += [Gate("rz", (i,), Param(g, 2.0 * float(c))) for i, c in enumerate(model.linear) if c]
        gates += [Gate("rzz", pair, Param(g, 2.0 * float(c))) for pair, c in sorted(model.pairwise.items())]
        gates += [Gate("rx", (q,), Param(f"b{r}", 2.0)) for q in range(n)]
    return tuple(gates)


@pytest.mark.parametrize("problem, reps", _qaoa_cases())
def test_qaoa_circuits_equal_the_fused_loop_bit_for_bit(problem, reps):
    instance = Instance(problem)
    circuit = build_circuit("qaoa", instance, reps)
    ops = circuit._program.ops
    # Each layer is one diagonal and one mixer op over every qubit; the
    # leading h on every qubit is folded into the uniform state.
    n = circuit.qubit_count
    assert [kernel for kernel, _, _, _ in ops] == ["diagonal", "mixer"] * reps
    assert [position for _, _, position, _ in ops] == [n + k * (n + 1) + i for k in range(reps) for i in (0, 1)]
    assert [len(data) for kernel, _, _, data in ops if kernel == "mixer"] == [n] * reps
    # Expanded, the cost gates are the rz/rzz layers QAOA was built from
    # before the cost gate, so fused_run of the expansion gives those bytes,
    # and the accounting charges the same gates.
    expanded = expand_cost_gates(circuit)
    assert expanded.gates == _rz_rzz_qaoa(instance.model, reps)
    assert metrics(circuit) == metrics(expanded)
    values = np.random.default_rng(reps).uniform(0, 2 * pi, len(circuit.parameters))
    state = run(circuit, values)
    fused = fused_run(expanded, values)
    assert state.amplitudes.tobytes() == fused.tobytes()
    expected = np.abs(fused) ** 2
    assert state.probabilities().tobytes() == expected.tobytes()
    objective = state.probabilities() @ instance.energies
    assert objective.tobytes() == (expected @ instance.energies).tobytes()
    assert np.max(np.abs(state.amplitudes - reference_run(circuit, values))) < 1e-12


def test_qaoa_cost_and_rx_gates_bypass_apply_gate(monkeypatch):
    circuit = build_circuit("qaoa", Instance(reference_problem("ECFL")), 2)
    assert {g.name for g in circuit.gates} == {"h", "cost", "rx"}
    calls = spy_calls(monkeypatch, simulator, "apply_gate")
    run(circuit, [0.3, 1.1, 2.0, 0.7])
    assert calls == []


def test_apply_gate_and_metrics_construct_no_gate_for_a_cost_gate(monkeypatch):
    # Both read a cost gate's terms; neither builds its phase_gates.
    circuit = build_circuit("qaoa", Instance(reference_problem("ECFL")), 2)
    built = spy_calls(monkeypatch, Gate, "__post_init__")
    reference_run(circuit, [0.3, 1.1, 2.0, 0.7])
    metrics(circuit)
    assert built == []


@pytest.mark.parametrize("uniform", [False, True], ids=["zero", "uniform"])
@pytest.mark.parametrize("n", [*range(2, 15), 17])
def test_rx_runs_on_every_qubit_equal_the_gate_by_gate_loop_bit_for_bit(n, uniform):
    # From |0...0> each rx layer leaves a product state whose amplitudes
    # have an exact real or imaginary zero, with a sign the loop also gives;
    # a literal 0 has m01 = -0j.
    layers = (
        [Gate("rx", (q,), Param("b")) for q in range(n)],
        [Gate("rx", (q,), Param("b", -2.0)) for q in reversed(range(n))],
        [Gate("rx", (q,), 0.0) for q in range(n)],
    )
    prefix = [Gate("h", (q,)) for q in range(n)] if uniform else []
    circuit = Circuit(n, (*prefix, *(g for layer in layers for g in layer)), ("b",))
    ops = circuit._program.ops
    assert [kernel for kernel, _, _, _ in ops] == ["mixer"] * 3
    shapes = [[(1 << g.qubits[0], 2, 1 << (n - 1 - g.qubits[0])) for g in layer] for layer in layers]
    assert [list(data) for _, _, _, data in ops] == shapes
    for value in np.random.default_rng(n).uniform(-2 * pi, 2 * pi, 3):
        state = run(circuit, [value])
        assert state.amplitudes.tobytes() == reference_run(circuit, [value]).tobytes()


@pytest.mark.parametrize("n", [3, 8, 13])
def test_rx_gates_at_other_angles_split_into_separate_mixer_ops(n):
    b = Param("b")
    angles = [b, b, Param("b", 2.0), Param("c"), 0.3, 0.3, b, 0.0, -0.0, b]
    gates = (Gate("h", (0,)), *(Gate("rx", (k % n,), a) for k, a in enumerate(angles)))
    circuit = Circuit(n, gates, ("b", "c"))
    ops = circuit._program.ops
    assert [kernel for kernel, _, _, _ in ops] == ["gate"] + ["mixer"] * 8
    assert [position for _, _, position, _ in ops] == [0, 1, 3, 4, 5, 7, 8, 9, 10]
    assert [len(data) for kernel, _, _, data in ops if kernel == "mixer"] == [2, 1, 1, 2, 1, 1, 1, 1]
    values = np.random.default_rng(n).uniform(-2 * pi, 2 * pi, 2)
    assert run(circuit, values).amplitudes.tobytes() == reference_run(circuit, values).tobytes()


# The first 16 hex digits of the sha256 of run(...).amplitudes.tobytes() at
# default_rng(reps).uniform(0, 2 pi) per parameter, recorded with each rx
# run as its own butterfly, numpy 2.4.6 on x86-64.
_QAOA_AMPLITUDE_HASHES = {
    ("ecfl", 1): "fe764d7686063730",
    ("ecfl", 2): "1d79077f4baa6960",
    ("ecfl", 3): "fb305a00794aac72",
    ("echl", 1): "7deca94258224be5",
    ("echl", 2): "c13b6391a896d6e9",
    ("echl", 3): "019646b736c059ef",
    ("eofl", 1): "678278689a690395",
    ("eofl", 2): "be93a4bb8bee753a",
    ("eofl", 3): "41e6d51c99f4426c",
    ("eohl", 1): "130422971c6220e1",
    ("eohl", 2): "ec202a73dbc0a0c4",
    ("eohl", 3): "5a8128e1719b069b",
    ("scaling-p4", 1): "4c032510700aeb29",
    ("scaling-p5", 1): "916711bb2d9b6789",
    ("scaling-p6", 1): "0854b065fd751aa3",
    ("scaling-p7", 1): "cca8ce9ee7b9ad12",
}


@pytest.mark.skipif(np.__version__ != "2.4.6", reason="hashes recorded with numpy 2.4.6")
@pytest.mark.parametrize("name, reps", sorted(_QAOA_AMPLITUDE_HASHES))
def test_qaoa_amplitudes_keep_their_recorded_bytes(name, reps):
    if name.startswith("scaling-p"):
        problem = scaling_instance(int(name.removeprefix("scaling-p")))
    else:
        problem = parse_problem((_PROBLEMS / f"{name}.problem").read_text())
    circuit = build_circuit("qaoa", Instance(problem), reps)
    values = np.random.default_rng(reps).uniform(0, 2 * pi, len(circuit.parameters))
    digest = hashlib.sha256(run(circuit, values).amplitudes.tobytes()).hexdigest()
    assert digest[:16] == _QAOA_AMPLITUDE_HASHES[name, reps]


def _mixed_dense_circuit():
    """A dense circuit with literal and parameter angles, gates without an
    angle and a cost gate."""
    terms = ((1.5, (0,)), (-0.5, (1, 2)))
    gates = (
        Gate("x", (0,)),
        Gate("h", (1,)),
        Gate("rz", (0,), 0.3),
        Gate("cx", (0, 2)),
        Gate("rzz", (1, 2), Param("a", 2.0)),
        Gate("cost", (0, 1, 2), 0.7, terms=terms),
        Gate("rx", (1,), Param("b")),
        Gate("ry", (2,), Param("a", -0.5)),
        Gate("csub", (0, 1, 2), constant=1),
    )
    return Circuit(3, gates, ("a", "b"))


@pytest.mark.parametrize(
    "circuit",
    [
        build_circuit("qaoa", Instance(reference_problem("ECFL")), 2),
        build_circuit("a4", Instance(reference_problem("EOHL"))),
        _mixed_dense_circuit(),
    ],
    ids=["ecfl-qaoa2", "eohl-a4", "mixed-dense"],
)
def test_run_resolves_each_angle_once(monkeypatch, circuit):
    values = np.linspace(0.3, 1.7, len(circuit.parameters))
    calls = spy_calls(monkeypatch, simulator, "_resolve_angle")
    for _ in range(2):
        calls.clear()
        run(circuit, values)
        assert [gate for gate, _ in calls] == [g for g in circuit.gates if g.angle is not None]


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


def _reference_sample_moved(amplitudes: np.ndarray, shots: int, seed: int):
    """reference_sample with the hits on p = 0 indices moved to the last
    index with p > 0."""
    probs = np.abs(amplitudes) ** 2
    indices, hits = reference_sample(amplitudes, shots, seed)
    held = probs[indices] > 0
    moved = int(hits[~held].sum())
    indices, hits = indices[held], hits[held]
    last = np.flatnonzero(probs)[-1]
    if moved and indices[-1] == last:
        hits[-1] += moved
    elif moved:
        indices, hits = np.append(indices, last), np.append(hits, moved)
    return indices, hits


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
    expected_indices, expected_hits = _reference_sample_moved(state.amplitudes, shots, seed)
    # The same draws from the support state and from its dense vector.
    for source in (state, StateVector(n, state.amplitudes)):
        counts = sample(source, shots, seed)
        assert counts.indices.dtype == expected_indices.dtype
        assert counts.indices.tobytes() == expected_indices.tobytes()
        assert counts.counts.tobytes() == expected_hits.tobytes()
        assert (state.probabilities()[counts.indices] > 0).all()


# With a tiny last probability and 10^15 shots, the multinomial has draws
# left after its last category, which one over all 2^Q indices hands to
# index 2^Q - 1, of probability 0.
_LEFTOVER_AMPLITUDES = (
    0.24373561805389007, 0.6243061961662504, 0.7421824047498687, 1.3198061729297087e-07
)


def test_support_sampling_keeps_the_leftover_draws_at_the_last_index():
    amplitudes = np.zeros(8)
    amplitudes[:4] = _LEFTOVER_AMPLITUDES
    reference_indices, reference_hits = reference_sample(amplitudes, 10**15, 0)
    assert reference_indices[-1] == 7 and reference_hits[-1] > 0
    expected_indices, expected_hits = _reference_sample_moved(amplitudes, 10**15, 0)
    assert expected_indices.tolist() == [0, 1, 2, 3] and expected_hits[-1] == 21
    # Index 3, the last with p > 0, takes the leftover draws, dense or support.
    for state in (StateVector(3, amplitudes), StateVector(3, amplitudes[:4], np.arange(4))):
        counts = sample(state, 10**15, 0)
        assert counts.indices.tobytes() == expected_indices.tobytes()
        assert counts.counts.tobytes() == expected_hits.tobytes()


def test_the_sampled_objective_reads_the_true_energy_of_the_leftover_draws(monkeypatch):
    # The leftover case on the 8-qubit EOHL instance: a circuit whose support
    # is the first 4 indices, so its energy view holds energies at 0..3 only.
    instance = Instance(reference_problem("EOHL"))
    circuit = Circuit(8, (Gate("h", (6,)), Gate("h", (7,))), ())
    assert circuit.support.tolist() == [0, 1, 2, 3]
    state = StateVector(8, np.array(_LEFTOVER_AMPLITUDES), np.arange(4))
    monkeypatch.setattr(vqa, "run", lambda *args, **kwargs: state)
    # The measurement seed that rng 56 draws leaves 2 draws over, which a
    # multinomial over all 256 indices hands to index 255.
    shots, seed = 10**15, int(np.random.default_rng(56).integers(2**31))
    assert reference_sample(state.amplitudes, shots, seed)[0][-1] == 255
    value = vqa.Objective(instance, circuit, "sampled", shots)((), np.random.default_rng(56))
    counts = sample(state, shots, seed)
    energies = diagonal_energies(instance.model)
    assert 255 not in counts.indices and energies[255] != 0
    pairs = zip(counts.indices.tolist(), counts.counts.tolist())
    plain = sum(int(h) * energies[i] for i, h in pairs) / shots
    assert value == plain


@pytest.mark.parametrize("problem, kind", _ansatz_cases())
def test_a_support_energy_view_is_nonzero_only_on_the_support(problem, kind):
    instance = Instance(problem)
    circuit = build_circuit(kind, instance)
    view = instance.energy_view(circuit)
    assert np.isin(np.flatnonzero(view), circuit.support).all()
    expected = diagonal_energies(instance.model)[circuit.support]
    assert view[circuit.support].tobytes() == expected.tobytes()


def test_a_state_rejects_amplitudes_of_the_wrong_length():
    with pytest.raises(ValueError, match="3 amplitudes for 4 basis states"):
        StateVector(2, np.zeros(3))
    with pytest.raises(ValueError, match="8 amplitudes for 4 basis states"):
        StateVector(3, np.zeros(8), np.arange(4))


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
