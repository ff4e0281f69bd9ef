"""The benchmark's workloads: their items, generated inputs and output checks.

A workload is a fixed pool of items. One item is one ``qvarsched`` command
run in process through ``cli.main``; one pass runs every item once. The
benchmark seed sets the order of the items in a pass, so every seed does the
same work and every item's output has a reference recorded by ``record.py``
under ``reference/<workload>/<item>.txt``.
"""
from __future__ import annotations

import csv
import io
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = BENCH_DIR / "_work"

# Output fields that hold wall-clock time; the only ones not byte-compared.
WALL_CLOCK_COLUMNS = ("wall_ms", "mean_wall_ms", "sim_seconds")
WALL_CLOCK_LINES = ("mean_wall_ms ",)


@dataclass(frozen=True)
class Item:
    key: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    inputs: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple[Item, ...]
    problem: str | None
    state_qubits: int
    # The calibration parts that do the kind of work this workload does.
    kernel: tuple[str, ...]

    def work_dir(self) -> Path:
        return WORK_DIR / self.name


def _spec(problem: str, seed: int, lines: tuple[str, ...]) -> str:
    body = "\n".join(("qvarsched-v1 experiment", f"problem {problem}", *lines, f"seed {seed}"))
    return body + "\n"


# problems/eohl-a4.spec with runs 1 and restarts 1 instead of 10 and 10, so
# that one item takes 0.1 to 0.7 s and a run repeats every item several
# times; the median over many short repetitions is what keeps wall_s steady.
_SOLVE_SETTINGS = (
    "algorithm a4",
    "optimizer cobyla",
    "max_iterations 400",
    "restarts 1",
    "mode exact",
    "shots 4096",
    "runs 1",
)
# QAOA reps 2 on problems/ecfl.problem with one restart: about 0.7 s an item.
_SAMPLED_SETTINGS = (
    "algorithm qaoa",
    "reps 2",
    "optimizer cobyla",
    "max_iterations 1000",
    "restarts 1",
    "mode sampled",
    "shots 4096",
    "runs 1",
)


def _solve_items(prefix: str, problem: str, settings, seeds) -> tuple[Item, ...]:
    items = []
    for seed in seeds:
        key = f"{prefix}-{seed}"
        items.append(
            Item(
                key=key,
                argv=("solve", f"{key}.spec", "--out", key),
                outputs=(f"{key}.csv", f"{key}.txt"),
                inputs={f"{key}.spec": _spec(problem, seed, settings)},
            )
        )
    return tuple(items)


def _sweep_items(processes, seed: int) -> tuple[Item, ...]:
    # Criterion 10's settings, one process count per item.
    items = []
    for p in processes:
        key = f"p{p}-seed{seed}"
        argv = (
            "sweep", "--variant", "ECHL", "--algorithm", "a4",
            "--pmin", str(p), "--pmax", str(p), "--max-iterations", "3",
            "--restarts", "1", "--runs", "1", "--seed", str(seed),
            "--out", f"{key}.csv",
        )
        items.append(Item(key=key, argv=argv, outputs=(f"{key}.csv",)))
    return tuple(items)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve-eohl-a4",
            items=_solve_items("eohl-a4", "eohl.problem", _SOLVE_SETTINGS, range(1, 9)),
            problem="eohl.problem",
            state_qubits=8,
            kernel=("python", "small"),
        ),
        Workload(
            name="sweep-echl-a4",
            items=_sweep_items(range(3, 7), 10),
            problem=None,
            state_qubits=20,
            kernel=("large",),
        ),
        Workload(
            name="sampled-ecfl-qaoa",
            items=_solve_items("ecfl-qaoa2", "ecfl.problem", _SAMPLED_SETTINGS, range(1, 9)),
            problem="ecfl.problem",
            state_qubits=13,
            kernel=("python", "small", "large"),
        ),
    )
}


def pass_order(workload: Workload, seed: int) -> list[Item]:
    """The workload's items in the order the seed gives them."""
    items = list(workload.items)
    random.Random(seed).shuffle(items)
    return items


def generate_inputs(workload: Workload):
    """Write the workload's input files into a fresh work directory."""
    work = workload.work_dir()
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    if workload.problem:
        shutil.copyfile(ROOT / "problems" / workload.problem, work / workload.problem)
    for item in workload.items:
        for name, text in item.inputs.items():
            (work / name).write_text(text)


def normalize(name: str, text: str) -> str:
    """Output text with its wall-clock fields removed."""
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            return ""
        keep = [i for i, col in enumerate(rows[0]) if col not in WALL_CLOCK_COLUMNS]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        for row in rows:
            writer.writerow([row[i] for i in keep if i < len(row)])
        return buffer.getvalue()
    return "".join(
        line for line in text.splitlines(keepends=True)
        if not line.startswith(WALL_CLOCK_LINES)
    )


def item_output(work: Path, item: Item) -> str:
    """The item's deterministic output: every output file, normalized."""
    parts = []
    for name in item.outputs:
        parts.append(f"== {name}\n")
        parts.append(normalize(name, (work / name).read_text()))
    return "".join(parts)


def reference_path(workload: Workload, item: Item) -> Path:
    return REFERENCE_DIR / workload.name / f"{item.key}.txt"


def quality(work: Path, item: Item) -> list[tuple[float, float]]:
    """(p_best, p_feas) for each run or sweep point in the item's CSV."""
    rows = csv.DictReader(io.StringIO((work / item.outputs[0]).read_text()))
    pairs = []
    for row in rows:
        if "p_best" in row:
            pairs.append((float(row["p_best"]), float(row["p_feas"])))
        else:
            pairs.append((float(row["mean_p_best"]), float(row["mean_p_feas"])))
    return pairs
