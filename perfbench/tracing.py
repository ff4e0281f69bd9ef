"""In-memory span tracer and the patch points that wrap qvarsched's layers.

The library is not edited. Each wrapper replaces the name a calling module
looks up (``qvarsched.vqa.run``, ``qvarsched.bench.diagonal_energies``,
``qvarsched.simulator.apply_gate``, ...), so calls made through that name
are timed and every other caller is untouched. A span is recorded per call
(name, start, end, parent span, run id); per-gate calls are only aggregated,
since a run makes hundreds of thousands of them.
"""
from __future__ import annotations

import json
import statistics
import warnings
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# Gate kinds the ansatz and QAOA circuits use, in the order they are reported.
GATE_KINDS = ("x", "h", "rx", "ry", "rz", "cx", "cry", "rzz", "csub")

OP_SPAN = "op"
_GATE_PREFIX = "simulator.gate."


class Tracer:
    """Spans and counts for one benchmark child, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(list)
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 1

    def call(self, name: str, fn, args=(), kwargs=None, keep: bool = True):
        """Run fn inside a span called name; keep=False aggregates only."""
        frame = [self._next_id, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            self._stack.pop()
            span_id, start, child_s = frame
            duration = end - start
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[2] += duration
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - child_s
            if keep:
                self.durations[name].append(duration)
                self.spans.append(
                    (span_id, name, start, end, parent[0] if parent else 0)
                )

    def write(self, path: Path):
        """Write every kept span as one JSON object per line."""
        with path.open("w") as out:
            for span_id, name, start, end, parent in self.spans:
                out.write(
                    json.dumps(
                        {"run": self.run_id, "id": span_id, "parent": parent,
                         "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )


class Patches:
    """Replaces module attributes with traced wrappers and restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, after=None):
        original = getattr(owner, attr)
        tracer = self.tracer

        def traced(*args, **kwargs):
            result = tracer.call(name, original, args, kwargs)
            if after is not None:
                after(result, args)
            return result

        self.replace(owner, attr, traced)

    def replace(self, owner, attr: str, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def install(tracer: Tracer) -> Patches:
    """Wrap the public functions of every qvarsched module at their call sites."""
    from qvarsched import bench, cli, simulator, vqa

    patches = Patches(tracer)
    counts = tracer.counts

    # files: parse_* are looked up by cli.
    patches.wrap(cli, "parse_problem", "files.parse_problem")
    patches.wrap(cli, "parse_experiment", "files.parse_experiment")

    # problem: check_feasible is looked up by bench.score.
    patches.wrap(bench, "check_feasible", "problem.check_feasible")

    # encoder, circuits, oracle, simulator entry points, wherever looked up.
    def built(circuit, _args):
        counts["circuits.gates"] += len(circuit.gates)
        for gate in circuit.gates:
            counts[f"circuits.gates.{gate.name}"] += 1

    def ran(state, args):
        circuit = args[0]
        counts["simulator.run.bytes_computed"] += (
            len(circuit.gates) * (1 << circuit.qubit_count) * 16 * 2
        )

    def sampled(result, args):
        counts["simulator.sample.distinct"] += len(result.counts)
        counts["simulator.sample.shots"] += result.shots

    for module in (vqa, bench, cli):
        patches.wrap(module, "encode", "encoder.encode")
    for module in (vqa, bench):
        patches.wrap(module, "build_ansatz", "circuits.build", built)
        patches.wrap(module, "build_qaoa", "circuits.build", built)
        patches.wrap(module, "diagonal_energies", "simulator.diagonal_energies")
        patches.wrap(module, "run", "simulator.run", ran)
    patches.wrap(vqa, "sample", "simulator.sample", sampled)
    for module in (bench, cli):
        patches.wrap(module, "enumerate_solutions", "oracle.enumerate_solutions")

    original_probabilities = simulator.StateVector.probabilities

    def probabilities(state):
        return tracer.call("simulator.probabilities", original_probabilities, (state,))

    patches.replace(simulator.StateVector, "probabilities", probabilities)

    original_apply_gate = simulator.apply_gate

    def apply_gate(amplitudes, gate, qubit_count, angle=None):
        return tracer.call(
            _GATE_PREFIX + gate.name,
            original_apply_gate,
            (amplitudes, gate, qubit_count, angle),
            keep=False,
        )

    patches.replace(simulator, "apply_gate", apply_gate)

    # vqa: run_* are looked up by bench; minimize by vqa._optimize_circuit.
    def finished(result, _args):
        counts["vqa.iterations"] += result.iterations

    patches.wrap(bench, "run_vqe", "vqa.run_vqe", finished)
    patches.wrap(bench, "run_qaoa", "vqa.run_qaoa", finished)

    original_minimize = vqa.minimize

    def minimize(objective, dim, config):
        def traced_objective(theta):
            return tracer.call("vqa.objective", objective, (theta,))

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = tracer.call(
                "vqa.minimize", original_minimize, (traced_objective, dim, config)
            )
        counts["vqa.optimizer.warnings"] += sum(
            issubclass(w.category, UserWarning) for w in caught
        )
        return result

    patches.replace(vqa, "minimize", minimize)

    # bench: score is looked up by run_experiment; the rest through the module.
    patches.wrap(bench, "score", "bench.score")
    patches.wrap(bench, "run_experiment", "bench.run_experiment")
    patches.wrap(bench, "scaling_sweep", "bench.scaling_sweep")

    # cli: the benchmark calls cli.main through the module.
    patches.wrap(cli, "main", "cli.main")
    return patches


def per_layer_metrics(tracer: Tracer, passes: int) -> dict:
    """The per-layer metrics of BENCHMARK.json, per pass, except trace.overhead_s."""
    calls, total, own, counts = tracer.calls, tracer.total_s, tracer.self_s, tracer.counts
    wall = total[OP_SPAN] / passes

    def per_pass(value):
        return value / passes

    def ratio(a, b):
        return a / b if b else 0.0

    def share(seconds):
        return ratio(seconds, total[OP_SPAN])

    def p50_ms(name):
        values = tracer.durations[name]
        return statistics.median(values) * 1e3 if values else 0.0

    instances = calls["bench.run_experiment"]
    gate_s = sum(s for name, s in total.items() if name.startswith(_GATE_PREFIX))
    builds = calls["circuits.build"]
    m: dict[str, tuple[float, str]] = {}
    m["files.parse.calls"] = (
        per_pass(calls["files.parse_problem"] + calls["files.parse_experiment"]),
        "count",
    )
    m["files.parse.share"] = (
        share(total["files.parse_problem"] + total["files.parse_experiment"]),
        "fraction",
    )
    for name in (
        "problem.check_feasible",
        "encoder.encode",
        "circuits.build",
        "simulator.diagonal_energies",
        "simulator.run",
        "simulator.sample",
        "oracle.enumerate_solutions",
        "bench.score",
    ):
        m[f"{name}.calls"] = (per_pass(calls[name]), "count")
        m[f"{name}.s"] = (per_pass(total[name]), "s")
    m["encoder.encode.calls_per_instance"] = (ratio(calls["encoder.encode"], instances), "ratio")
    m["simulator.diagonal_energies.calls_per_instance"] = (
        ratio(calls["simulator.diagonal_energies"], instances),
        "ratio",
    )
    for kind in GATE_KINDS:
        m[f"circuits.gates.{kind}"] = (ratio(counts[f"circuits.gates.{kind}"], builds), "count")
    m["simulator.run.ms_p50"] = (p50_ms("simulator.run"), "ms")
    m["simulator.run.bytes_computed"] = (per_pass(counts["simulator.run.bytes_computed"]), "B")
    m["simulator.probabilities.s"] = (per_pass(total["simulator.probabilities"]), "s")
    m["simulator.gate.s"] = (per_pass(gate_s), "s")
    for kind in GATE_KINDS:
        name = _GATE_PREFIX + kind
        m[f"{name}.calls"] = (per_pass(calls[name]), "count")
        m[f"{name}.share"] = (ratio(total[name], gate_s), "fraction")
    m["simulator.sample.distinct_per_shot"] = (
        ratio(counts["simulator.sample.distinct"], counts["simulator.sample.shots"]),
        "ratio",
    )
    m["vqa.minimize.calls"] = (per_pass(calls["vqa.minimize"]), "count")
    m["vqa.evals"] = (per_pass(calls["vqa.objective"]), "count")
    m["vqa.eval.ms_p50"] = (p50_ms("vqa.objective"), "ms")
    m["vqa.objective.self_s"] = (per_pass(own["vqa.objective"]), "s")
    m["vqa.optimizer.self_s"] = (per_pass(own["vqa.minimize"]), "s")
    m["vqa.best_restart_eval_share"] = (
        ratio(counts["vqa.iterations"], calls["vqa.objective"]),
        "ratio",
    )
    m["vqa.optimizer.warnings"] = (per_pass(counts["vqa.optimizer.warnings"]), "count")
    probe_s = total["bench.scaling_sweep"] - _inside(
        tracer, "bench.run_experiment", "bench.scaling_sweep"
    )
    m["bench.sweep_probe.share"] = (share(probe_s), "fraction")
    m["cli.main.self_s"] = (per_pass(own["cli.main"]), "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.uncovered_s"] = (per_pass(own[OP_SPAN]), "s")
    m["trace.passes"] = (passes, "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def _inside(tracer: Tracer, name: str, ancestor: str) -> float:
    """Total duration of kept spans called name that run under ancestor."""
    by_id = {span[0]: span for span in tracer.spans}
    total = 0.0
    for span_id, span_name, start, end, parent in tracer.spans:
        if span_name != name:
            continue
        while parent and by_id[parent][1] != ancestor:
            parent = by_id[parent][4]
        if parent:
            total += end - start
    return total
