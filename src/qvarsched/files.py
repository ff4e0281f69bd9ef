"""Text formats for problems and experiment specs.

Both formats are line-oriented with a versioned header; '#' starts a comment
and blank lines are ignored.

Problem file::

    qvarsched-v1 problem
    variant EOHL
    process weight=2 values=2,1
    process weight=1 values=3,1
    process weight=1 values=2,1
    node capacity=3 threshold=2
    node capacity=2 threshold=1

Experiment file::

    qvarsched-v1 experiment
    problem eohl.problem          # path, relative to the spec file
    algorithm a4                  # one of vqa.ALGORITHMS
    reps 3                        # qaoa only
    optimizer cobyla              # cobyla|nelder-mead
    max_iterations 1000
    tolerance 1e-4
    restarts 10
    mode exact                    # exact|sampled
    shots 4096
    runs 10
    seed 7
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError
from .problem import (
    AssignmentProblem,
    NodeSpec,
    ProblemVariant,
    ProcessSpec,
    as_fraction,
)
from .vqa import ALGORITHMS, OptimizerConfig

PROBLEM_HEADER = ("qvarsched-v1", "problem")
EXPERIMENT_HEADER = ("qvarsched-v1", "experiment")


def _content_lines(text: str) -> list[tuple[int, str]]:
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((number, stripped))
    return lines


def _check_header(lines: list[tuple[int, str]], expected: tuple[str, str]):
    if not lines:
        raise ParseError("empty file")
    number, line = lines[0]
    if tuple(line.split()) != expected:
        raise ParseError(f"expected header {' '.join(expected)!r}, got {line!r}", number)


def _fields(line: str, number: int, keys: tuple[str, ...]) -> dict[str, str]:
    out = {}
    for token in line.split():
        if "=" not in token:
            raise ParseError(f"expected key=value, got {token!r}", number)
        key, value = token.split("=", 1)
        if key not in keys:
            raise ParseError(f"unknown key {key!r}, expected one of {', '.join(keys)}", number)
        if key in out:
            raise ParseError(f"duplicate key {key!r}", number)
        out[key] = value
    return out


def parse_problem(text: str) -> AssignmentProblem:
    lines = _content_lines(text)
    _check_header(lines, PROBLEM_HEADER)
    variant: ProblemVariant | None = None
    processes: list[ProcessSpec] = []
    nodes: list[NodeSpec] = []
    for number, line in lines[1:]:
        keyword, _, rest = line.partition(" ")
        try:
            if keyword == "variant":
                if variant is not None:
                    raise ParseError("duplicate 'variant' line", number)
                variant = ProblemVariant.from_name(rest.strip())
            elif keyword == "process":
                fields = _fields(rest, number, ("weight", "values"))
                values = tuple(as_fraction(v) for v in fields["values"].split(","))
                processes.append(ProcessSpec(int(fields["weight"]), values))
            elif keyword == "node":
                fields = _fields(rest, number, ("capacity", "threshold"))
                nodes.append(
                    NodeSpec(int(fields["capacity"]), int(fields.get("threshold", "0")))
                )
            else:
                raise ParseError(f"unknown keyword {keyword!r}", number)
        except ParseError:
            raise
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(str(exc), number)
    if variant is None:
        raise ParseError("missing 'variant' line")
    try:
        return AssignmentProblem(variant, tuple(processes), tuple(nodes))
    except ValueError as exc:
        raise ParseError(str(exc))


def format_problem(problem: AssignmentProblem) -> str:
    lines = ["qvarsched-v1 problem", f"variant {problem.variant.name}"]
    for proc in problem.processes:
        values = ",".join(str(v) for v in proc.values)
        lines.append(f"process weight={proc.weight} values={values}")
    for node in problem.nodes:
        lines.append(f"node capacity={node.capacity} threshold={node.threshold}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExperimentSpec:
    problem_path: Path
    algorithm: str
    reps: int
    optimizer: OptimizerConfig
    mode: str
    shots: int
    runs: int
    seed: int


def parse_experiment(text: str, base_dir: Path) -> ExperimentSpec:
    lines = _content_lines(text)
    _check_header(lines, EXPERIMENT_HEADER)
    settings: dict[str, str] = {}
    for number, line in lines[1:]:
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if not rest:
            raise ParseError(f"keyword {keyword!r} needs a value", number)
        if keyword in settings:
            raise ParseError(f"duplicate keyword {keyword!r}", number)
        settings[keyword] = rest

    def take(key: str, default: str | None = None) -> str:
        if key in settings:
            return settings.pop(key)
        if default is None:
            raise ParseError(f"missing required keyword {key!r}")
        return default

    try:
        problem_path = base_dir / take("problem")
        algorithm = take("algorithm").lower()
        if algorithm not in ALGORITHMS:
            raise ParseError(f"unknown algorithm {algorithm!r}")
        reps = int(take("reps", "1"))
        optimizer = OptimizerConfig(
            method=take("optimizer", "cobyla").lower(),
            max_iterations=int(take("max_iterations", "1000")),
            tolerance=float(take("tolerance", "1e-4")),
            restarts=int(take("restarts", "10")),
        )
        mode = take("mode", "exact").lower()
        if mode not in ("exact", "sampled"):
            raise ParseError(f"mode must be exact or sampled, got {mode!r}")
        spec = ExperimentSpec(
            problem_path=problem_path,
            algorithm=algorithm,
            reps=reps,
            optimizer=optimizer,
            mode=mode,
            shots=int(take("shots", "4096")),
            runs=int(take("runs", "1")),
            seed=int(take("seed", "0")),
        )
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc))
    if settings:
        raise ParseError(f"unknown keywords: {', '.join(sorted(settings))}")
    if spec.runs < 1:
        raise ParseError("runs must be >= 1")
    if spec.shots < 1:
        raise ParseError("shots must be >= 1")
    if spec.seed < 0:
        raise ParseError("seed must be >= 0")
    if spec.reps < 1:
        raise ParseError("reps must be >= 1")
    return spec
