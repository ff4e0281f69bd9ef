"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from qvarsched import bench, cli, simulator, vqa  # noqa: E402


def _prepare(workload: workloads.Workload, item: workloads.Item, work: Path):
    if workload.problem:
        shutil.copyfile(workloads.ROOT / "problems" / workload.problem, work / workload.problem)
    for name, text in item.inputs.items():
        (work / name).write_text(text)


def _run(item: workloads.Item) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(item.argv))


def _first_items():
    # The first sweep item is the smallest process count, so this stays fast.
    for workload in workloads.WORKLOADS.values():
        item = workload.items[0]
        yield pytest.param(workload, item, id=f"{workload.name}/{item.key}")


@pytest.mark.filterwarnings("ignore:COBYLA")
@pytest.mark.parametrize("workload,item", list(_first_items()))
def test_item_output_matches_reference(workload, item, tmp_path, monkeypatch):
    _prepare(workload, item, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert _run(item) == 0
    expected = workloads.reference_path(workload, item).read_text()
    assert workloads.item_output(tmp_path, item) == expected


def test_normalize_strips_only_wall_clock_fields():
    csv_text = "instance,p_best,wall_ms\neohl,1.000000,12.5\n"
    assert workloads.normalize("x.csv", csv_text) == "instance,p_best\neohl,1.000000\n"
    changed = csv_text.replace("1.000000", "0.500000")
    assert workloads.normalize("x.csv", changed) != workloads.normalize("x.csv", csv_text)
    sweep = "processes,sim_seconds,mean_p_best,mean_wall_ms\n3,0.1,0.2,0.3\n"
    assert workloads.normalize("s.csv", sweep) == "processes,mean_p_best\n3,0.2\n"
    summary = "runs 2\nmean_wall_ms 10.000\nbest_run_seed 7\n"
    assert workloads.normalize("x.txt", summary) == "runs 2\nbest_run_seed 7\n"


def test_self_times_and_uncovered_add_up_to_traced_wall(tmp_path, monkeypatch):
    workload = workloads.WORKLOADS["solve-eohl-a4"]
    item = workload.items[0]
    _prepare(workload, item, tmp_path)
    sweep = workloads.WORKLOADS["sweep-echl-a4"].items[0]
    monkeypatch.chdir(tmp_path)

    tracer = tracing.Tracer("test")
    patches = tracing.install(tracer)
    try:
        for op in (item, sweep):
            assert tracer.call(tracing.OP_SPAN, _run, (op,)) == 0
    finally:
        patches.restore()

    wall = tracer.total_s[tracing.OP_SPAN]
    covered = sum(s for name, s in tracer.self_s.items() if name != tracing.OP_SPAN)
    uncovered = tracer.self_s[tracing.OP_SPAN]
    assert covered + uncovered == pytest.approx(wall, rel=1e-9)
    metrics = tracing.per_layer_metrics(tracer, passes=1)
    assert metrics["trace.wall_s"]["value"] == pytest.approx(wall)
    assert metrics["trace.uncovered_s"]["value"] == pytest.approx(uncovered)
    assert metrics["bench.sweep_probe.share"]["value"] > 0
    assert metrics["vqa.optimizer.warnings"]["value"] >= 1
    assert metrics["vqa.evals"]["value"] > 0
    # Every traced span closed inside an op span.
    roots = [s for s in tracer.spans if s[4] == 0]
    assert {s[1] for s in roots} == {tracing.OP_SPAN}


def test_restore_puts_the_library_back():
    originals = (vqa.run, vqa.minimize, bench.score, simulator.apply_gate, cli.main,
                 simulator.StateVector.probabilities)
    patches = tracing.install(tracing.Tracer("test"))
    assert vqa.run is not originals[0]
    patches.restore()
    assert (vqa.run, vqa.minimize, bench.score, simulator.apply_gate, cli.main,
            simulator.StateVector.probabilities) == originals


def test_kernels_use_known_parts_and_grow_with_the_item():
    for workload in workloads.WORKLOADS.values():
        assert workload.kernel and set(workload.kernel) <= set(calibration.PARTS)
    assert set(calibration.SETUP_KERNEL) <= set(calibration.PARTS)
    assert calibration.reps_after(("large",), 0.1) == 1
    assert calibration.reps_after(("large",), 7.0) > calibration.reps_after(("python",), 7.0) > 1
    assert calibration.host_factor(("python",)) > 0


def test_benchmark_json_names_match_the_code():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = tracing.per_layer_metrics(tracing.Tracer("empty"), passes=1)
    per_layer["trace.overhead_s"] = {"value": 0.0, "unit": "s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: entry["unit"] for name, entry in per_layer.items()
    }
