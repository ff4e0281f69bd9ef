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
    problem eohl.problem          # path, relative to the spec file; required
    algorithm qaoa                # one of circuits.ALGORITHMS; required
    reps 3                        # qaoa layers; a1-a4 take only 1
    optimizer cobyla              # the only method; any case
    max_iterations 1000
    tolerance 1e-4
    restarts 10
    mode exact                    # one of vqa.MODES
    shots 4096
    runs 10
    seed 7

Only problem and algorithm are required. parse_experiment returns the
problem the spec names and the bench.ExperimentConfig that says how to run
it; a keyword left out takes the default of the ExperimentConfig or
vqa.OptimizerConfig field it sets. The optimizer keyword sets no field:
cobyla, vqa.minimize's only method, is its one valid value.
"""
from __future__ import annotations

from pathlib import Path

from .bench import ExperimentConfig
from .errors import ParseError
from .problem import AssignmentProblem, NodeSpec, ProblemVariant, ProcessSpec
from .vqa import OptimizerConfig

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
                processes.append(ProcessSpec(int(fields["weight"]), fields["values"].split(",")))
            elif keyword == "node":
                fields = _fields(rest, number, ("capacity", "threshold"))
                nodes.append(
                    NodeSpec(int(fields["capacity"]), int(fields.get("threshold", "0")))
                )
            else:
                raise ParseError(f"unknown keyword {keyword!r}", number)
        except ParseError:
            raise
        except (KeyError, ValueError) as exc:
            raise ParseError(str(exc), number)
    if variant is None:
        raise ParseError("missing 'variant' line")
    try:
        return AssignmentProblem(variant, tuple(processes), tuple(nodes))
    except ValueError as exc:
        raise ParseError(str(exc))


# How each experiment keyword's text is read; the keyword is the field it
# sets. ExperimentConfig and OptimizerConfig own every default and valid range.
_CONFIG_KEYWORDS = {
    "algorithm": str.lower,
    "reps": int,
    "mode": str.lower,
    "shots": int,
    "runs": int,
    "seed": int,
}
_OPTIMIZER_KEYWORDS = {"max_iterations": int, "tolerance": float, "restarts": int}


def read_text(path: str | Path) -> str:
    """A file's text; a file that cannot be read is a ParseError."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")


def _read_fields(settings: dict[str, str], keywords: dict) -> dict:
    """The fields the spec sets, read from the keywords it gives."""
    return {key: read(settings[key]) for key, read in keywords.items() if key in settings}


def parse_experiment(text: str, base_dir: Path) -> tuple[AssignmentProblem, ExperimentConfig]:
    """The problem a spec names and the config it gives. The problem file,
    relative to base_dir, is read and parsed here, and its stem labels the
    experiment."""
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
    unknown = settings.keys() - {"problem", "optimizer", *_CONFIG_KEYWORDS, *_OPTIMIZER_KEYWORDS}
    if unknown:
        raise ParseError(f"unknown keywords: {', '.join(sorted(unknown))}")
    if settings.get("optimizer", "cobyla").lower() != "cobyla":
        raise ParseError(f"unknown optimizer {settings['optimizer']!r}, expected cobyla")
    for keyword in ("problem", "algorithm"):
        if keyword not in settings:
            raise ParseError(f"missing required keyword {keyword!r}")
    problem_path = base_dir / settings["problem"]
    problem = parse_problem(read_text(problem_path))
    try:
        return problem, ExperimentConfig(
            optimizer=OptimizerConfig(**_read_fields(settings, _OPTIMIZER_KEYWORDS)),
            label=problem_path.stem,
            **_read_fields(settings, _CONFIG_KEYWORDS),
        )
    except ValueError as exc:
        raise ParseError(str(exc))
