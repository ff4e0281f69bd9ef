"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 8-10 exercise full hybrid runs; the suite takes 43-49 s on a
2-core host, 32-36 s of that in criterion 9.
"""
import time
from dataclasses import replace
from math import cos, pi, sin

import numpy as np
import pytest

from qvarsched import (
    OptimizerConfig,
    build_ansatz,
    build_layout,
    build_qaoa,
    decode,
    encode,
    metrics,
    run,
    run_qaoa,
    run_vqe,
    score,
)
from qvarsched.bench import SWEEP_CONFIG, scaling_sweep, sweep_csv
from qvarsched.circuits import CircuitMetrics
from qvarsched.encoder import IsingModel
from qvarsched.oracle import enumerate_solutions
from qvarsched.simulator import Circuit, Gate, diagonal_energies

from helpers import (
    GOLDEN_CONSTANT,
    GOLDEN_LINEAR,
    GOLDEN_PAIRS,
    REFERENCE_COUNTS,
    bits_to_index,
    dense_state,
    feasible_mask,
    random_problem,
    reference_problem,
)


def _report(number: int, text: str):
    print(f"PASS  criterion {number:2d}: {text}")


def test_criterion_01_golden_hamiltonian():
    started = time.perf_counter()
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    model = encode(layout)
    assert model.constant == GOLDEN_CONSTANT
    assert model.linear == GOLDEN_LINEAR
    assert model.pairwise == GOLDEN_PAIRS
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, f"golden Hamiltonian exact (rational, zero tolerance) in {elapsed:.3f}s")


def test_criterion_02_table_2_reproduction():
    started = time.perf_counter()
    for variant, (q, best, feasible, total) in REFERENCE_COUNTS.items():
        problem = reference_problem(variant)
        layout = build_layout(problem)
        report = enumerate_solutions(layout)
        assert layout.qubit_count == q, variant
        assert report.best_count == best, variant
        assert report.feasible_count == feasible, variant
        assert report.total == total, variant
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(2, f"solution counts (Q, best, feasible, total) for all variants in {elapsed:.3f}s")


def test_criterion_03_circuit_accounting():
    started = time.perf_counter()
    problem = reference_problem("ECFL")
    layout = build_layout(problem)
    expected = {"a1": (10, 12, 4), "a2": (14, 20, 4), "a3": (14, 16, 4)}
    for kind, values in expected.items():
        assert metrics(build_ansatz(kind, layout)) == CircuitMetrics(*values), kind
    # a4 parameter count follows the N - 1 + c substitution: P(N - 1 + c) = 6.
    assert metrics(build_ansatz("a4", layout)).parameter_count == 6
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(3, f"ansatz parameter/gate/depth accounting in {elapsed:.3f}s")


def test_criterion_04_a1_amplitude_law():
    rng = np.random.default_rng(404)
    for _ in range(100):
        theta1, theta2 = rng.uniform(0, 2 * pi, 2)
        block = Circuit(
            3,
            (
                Gate("x", (0,)),
                Gate("cry", (0, 1), float(theta1)),
                Gate("cry", (1, 2), float(theta2)),
                Gate("cx", (1, 0)),
                Gate("cx", (2, 1)),
            ),
            (),
        )
        amps = run(block).amplitudes
        assert abs(amps[bits_to_index("100")] - cos(theta1 / 2)) < 1e-9
        assert abs(amps[bits_to_index("010")] - sin(theta1 / 2) * cos(theta2 / 2)) < 1e-9
        assert abs(amps[bits_to_index("001")] - sin(theta1 / 2) * sin(theta2 / 2)) < 1e-9
    _report(4, "first-block amplitudes match the closed form for 100 random angles")


def test_criterion_05_structural_support():
    rng = np.random.default_rng(505)
    for variant in REFERENCE_COUNTS:
        problem = reference_problem(variant)
        layout = build_layout(problem)
        assert layout.qubit_count <= 14
        for kind in ("a1", "a2", "a3", "a4"):
            circuit = build_ansatz(kind, layout)
            for _ in range(20):
                theta = rng.uniform(0, 2 * pi, len(circuit.parameters))
                state = run(circuit, theta)
                support = np.nonzero(np.abs(state.amplitudes) > 1e-12)[0]
                for index in support:
                    bits = format(index, f"0{layout.qubit_count}b")
                    assignment = decode(layout, bits)
                    assert assignment.consistent, (variant, kind, bits)
                    if kind == "a4":
                        for j, node in enumerate(problem.nodes):
                            register = layout.slack_qubits(j)
                            slack = sum(
                                int(bits[qb]) << k for k, qb in enumerate(register)
                            )
                            expected = (node.capacity - assignment.loads[j]) % (
                                1 << len(register)
                            )
                            assert slack == expected, (variant, bits)
    _report(5, "a1-a4 support is one-hot consistent; a4 also slack consistent (20 vectors each)")


def _random_checked_gate(rng, n):
    kind = str(
        rng.choice(["x", "h", "rx", "ry", "rz", "cx", "cry", "rzz", "mcx", "csub"])
    )
    qubits = [int(q) for q in rng.permutation(n)]
    angle = float(rng.uniform(0, 2 * pi))
    if kind in ("x", "h"):
        return Gate(kind, (qubits[0],))
    if kind in ("rx", "ry", "rz"):
        return Gate(kind, (qubits[0],), angle)
    if kind == "cry":
        return Gate(kind, (qubits[0], qubits[1]), angle)
    if kind == "cx":
        return Gate(kind, (qubits[0], qubits[1]))
    if kind == "rzz":
        return Gate(kind, (qubits[0], qubits[1]), angle)
    if kind == "mcx":
        count = int(rng.integers(1, n))
        return Gate(kind, tuple(qubits[: count + 1]))
    size = int(rng.integers(1, n))
    return Gate(
        kind,
        (qubits[0], *qubits[1 : size + 1]),
        constant=int(rng.integers(0, 2**size + 1)),
    )


def test_criterion_06_dense_oracle_equivalence():
    rng = np.random.default_rng(606)
    covered = set()
    for _ in range(50):
        n = int(rng.integers(2, 5))
        gates = tuple(_random_checked_gate(rng, n) for _ in range(int(rng.integers(4, 12))))
        covered.update(g.name for g in gates)
        circuit = Circuit(n, gates, ())
        deviation = np.max(np.abs(dense_state(circuit) - run(circuit).amplitudes))
        assert deviation < 1e-9
    assert covered == {"x", "h", "rx", "ry", "rz", "cx", "cry", "rzz", "mcx", "csub"}

    from fractions import Fraction

    model = IsingModel(
        3,
        Fraction(0),
        (Fraction(1), Fraction(0), Fraction(2)),
        {(0, 1): Fraction(-4), (1, 2): Fraction(-2)},
        Fraction(1),
    )
    circuit = build_qaoa(model, 1)
    for _ in range(20):
        binding = {"g0": float(rng.uniform(0, 2 * pi)), "b0": float(rng.uniform(0, 2 * pi))}
        deviation = np.max(np.abs(dense_state(circuit, binding) - run(circuit, binding).amplitudes))
        assert deviation < 1e-9
    _report(6, "simulator matches dense-matrix evolution (50 circuits + 20 QAOA points)")


def test_criterion_07_penalty_separation():
    rng = np.random.default_rng(707)
    for _ in range(25):
        problem = random_problem(rng, max_qubits=14)
        layout = build_layout(problem)
        model = encode(layout)
        energies = diagonal_energies(model)
        report = enumerate_solutions(layout)
        mask = feasible_mask(report)
        if mask.any():
            assert energies[mask].max() <= 0
        if (~mask).any():
            assert energies[~mask].min() >= 1
        if not report.infeasible_instance:
            argmin = set(np.nonzero(energies == energies.min())[0].tolist())
            assert argmin == report.optimal
    _report(7, "penalty separation and argmin = oracle optima on 25 random instances")


def test_criterion_08_vqe_quality():
    started = time.perf_counter()
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    oracle_report = enumerate_solutions(layout)
    config = OptimizerConfig(seed=3, restarts=10, max_iterations=400)
    a4 = run_vqe(problem, "a4", config)
    a4_metrics = score(a4.counts, oracle_report)
    assert a4_metrics.p_feas >= 0.9
    assert a4_metrics.p_best >= 0.3
    a1 = run_vqe(problem, "a1", config)
    a1_metrics = score(a1.counts, oracle_report)
    assert a1_metrics.p_feas >= 0.5
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(
        8,
        "vqe quality: a4 P_feas="
        f"{a4_metrics.p_feas:.3f} P_best={a4_metrics.p_best:.3f}, "
        f"a1 P_feas={a1_metrics.p_feas:.3f} in {elapsed:.1f}s",
    )


def test_criterion_09_qaoa_vs_vqe_ordering():
    started = time.perf_counter()
    problem = reference_problem("EOHL")
    layout = build_layout(problem)
    oracle_report = enumerate_solutions(layout)

    def median_p_best(algorithm, reps=None):
        values = []
        for seed in range(20):
            config = OptimizerConfig(seed=seed, restarts=1, max_iterations=200)
            if algorithm == "qaoa":
                result = run_qaoa(problem, reps, config)
            else:
                result = run_vqe(problem, algorithm, config)
            values.append(score(result.counts, oracle_report).p_best)
        return float(np.median(values))

    vqe_median = median_p_best("a1")
    qaoa_medians = {reps: median_p_best("qaoa", reps) for reps in (1, 3, 5)}
    for reps, value in qaoa_medians.items():
        assert vqe_median > value, (vqe_median, reps, value)
    elapsed = time.perf_counter() - started
    assert elapsed < 900.0
    _report(
        9,
        f"median P_best vqe-a1={vqe_median:.3f} beats qaoa "
        + " ".join(f"r{reps}={value:.3f}" for reps, value in qaoa_medians.items())
        + f" in {elapsed:.0f}s",
    )


def test_criterion_10_scaling_substitute(tmp_path):
    # Stated explicitly: the hardware wall-time trends, the noisy-simulation
    # bars (device noise model) and the error-mitigated results are NOT
    # reproducible at desk scale; the substitute below measures the exact
    # simulator's wall time growing exponentially with the qubit count.
    print(
        "NOTE  criterion 10: hardware timing trends, device-noise simulation "
        "and error-mitigated bars are out of scope; substituting the "
        "simulator wall-time sweep."
    )
    optimizer = OptimizerConfig(restarts=1, max_iterations=3)
    points = scaling_sweep(range(3, 8), replace(SWEEP_CONFIG, optimizer=optimizer, runs=1, seed=10))
    qubits = [p.qubit_count for p in points]
    assert qubits == [11, 14, 17, 20, 23]
    times = [p.sim_seconds for p in points]
    growth = (times[-1] / times[0]) ** (1.0 / (qubits[-1] - qubits[0]))
    assert growth >= 1.5, (times, growth)
    csv_text = sweep_csv(points)
    out = tmp_path / "scaling.csv"
    out.write_text(csv_text)
    assert len(csv_text.strip().splitlines()) == 6
    _report(
        10,
        f"simulator wall time grows x{growth:.2f} per added qubit over Q=11..23 "
        f"(CSV written, {len(points)} rows)",
    )
