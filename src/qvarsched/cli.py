"""Command-line entry point.

Commands:
  encode   print the Ising term list for a problem file
  oracle   print exact optima and feasibility counts
  solve    run an experiment spec, write results CSV and a summary
  sweep    run the synthetic scaling family and write its CSV

Exit codes: 0 success, 2 parse error, 3 capability exceeded, 4 runtime
failure, out of memory included (one line, "error: out of memory: ...").
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import bench
from .encoder import encode, format_fraction, model_to_text
from .errors import ParseError, QubitCountExceededError, QvarschedError
from .errors import check_count, check_qubit_count, check_seed
from .files import parse_experiment, parse_problem, read_text
from .oracle import enumerate_solutions
from .problem import VARIANTS, build_layout
from .simulator import index_to_bits
from .vqa import ALGORITHMS, DEFAULT_MAX_QUBITS, MODES, Instance


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named flags that were given; argparse leaves the others None."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _write_output(text: str, out: str | Path | None):
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    else:
        sys.stdout.write(text)


def cmd_encode(args: argparse.Namespace) -> int:
    problem = parse_problem(read_text(args.problem))
    model = encode(build_layout(problem))
    _write_output(model_to_text(model), args.out)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    problem = parse_problem(read_text(args.problem))
    layout = build_layout(problem)
    # Not through an Instance: the walk sums exact Fractions and needs no float64 bound.
    check_qubit_count(layout.qubit_count, args.max_qubits)
    report = enumerate_solutions(layout)
    lines = [
        f"variant {problem.variant.name}",
        f"qubits {layout.qubit_count}",
        f"total {report.total}",
        f"feasible {report.feasible_count}",
        f"best {report.best_count}",
        f"infeasible_instance {'yes' if report.infeasible_instance else 'no'}",
    ]
    if report.optimal_gain is not None:
        lines.append(f"optimal_gain {format_fraction(report.optimal_gain)}")
        for index in sorted(report.optimal):
            lines.append(f"optimum {index_to_bits(index, layout.qubit_count)}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _summary_text(report: bench.ExperimentReport, spec_mode: str, shots: int) -> str:
    lines = [
        "qvarsched-v1 summary",
        f"instance {report.label}",
        f"algorithm {report.algorithm}",
        f"qubits {report.qubit_count}",
        f"mode {spec_mode}",
        f"shots {shots}",
        f"runs {len(report.runs)}",
        f"oracle_best {report.oracle.best_count}",
        f"oracle_feasible {report.oracle.feasible_count}",
    ]
    for field in ("p_best", "p_feas", "c_best", "c_feas", "iterations"):
        lines.append(
            f"mean_{field} {report.mean[field]:.6f} std {report.std[field]:.6f}"
        )
    lines.append(f"mean_wall_ms {report.mean['wall_time'] * 1e3:.3f}")
    best = max(report.runs, key=lambda r: r.metrics.p_best)
    lines.append(f"best_run_seed {best.seed}")
    lines.append(f"best_run_p_best {best.metrics.p_best:.6f}")
    lines.append(
        "best_run_parameters "
        + " ".join(f"{value:.10g}" for value in best.parameters)
    )
    return "\n".join(lines) + "\n"


def cmd_solve(args: argparse.Namespace) -> int:
    problem, config = parse_experiment(read_text(args.spec), Path(args.spec).parent)
    config = replace(config, **_given(args, "mode", "shots", "runs", "seed"))
    report = bench.run_experiment(Instance(problem, args.max_qubits), config)
    out = Path(args.out)
    # Appended, not swapped in: --out exp-0.5 must not write exp-0.csv.
    csv_path, summary_path = (out.with_name(out.name + suffix) for suffix in (".csv", ".txt"))
    _write_output(bench.report_csv(report), csv_path)
    _write_output(_summary_text(report, config.mode, config.shots), summary_path)
    print(f"wrote {csv_path} and {summary_path}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = bench.SWEEP_CONFIG
    optimizer = replace(config.optimizer, **_given(args, "max_iterations", "restarts"))
    config = replace(
        config, optimizer=optimizer, **_given(args, "algorithm", "mode", "shots", "runs", "seed")
    )
    variant = {} if args.variant is None else {"variant": VARIANTS[args.variant]}
    points = bench.scaling_sweep(
        range(args.pmin, args.pmax + 1), config=config, max_qubits=args.max_qubits, **variant
    )
    _write_output(bench.sweep_csv(points), args.out)
    return 0


def _checked(check, name: str, *bounds):
    """argparse type: the integer in text, which check(name, value, *bounds)
    must accept; int's ValueError is argparse's "invalid integer value", and
    check's message is argparse's error (exit 2)."""

    def integer(text: str) -> int:
        value = int(text)
        try:
            return check(name, value, *bounds)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return integer


_MAX_QUBITS = _checked(check_count, "max_qubits", 1, None)


def _out_path(directory_ok: bool = False):
    """argparse type for --out: a file name, not an existing directory unless
    directory_ok, under no existing file."""

    def path(text: str) -> str:
        if Path(text).name in ("", ".."):
            raise argparse.ArgumentTypeError(f"{text!r} has no file name")
        if not directory_ok and Path(text).is_dir():
            raise argparse.ArgumentTypeError(f"{text!r} is a directory")
        if parent := next((p for p in Path(text).parents if p.exists() and not p.is_dir()), None):
            raise argparse.ArgumentTypeError(f"{str(parent)!r} is not a directory")
        return text

    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvarsched",
        description="Variational quantum solver for Edge/Cloud process assignment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    encode_p = sub.add_parser("encode", help="dump the Ising model of a problem file")
    encode_p.add_argument("problem")
    encode_p.add_argument("--out", type=_out_path())
    encode_p.set_defaults(func=cmd_encode)

    oracle_p = sub.add_parser("oracle", help="exact optima and feasibility counts")
    oracle_p.add_argument("problem")
    oracle_p.add_argument("--out", type=_out_path())
    oracle_p.add_argument("--max-qubits", type=_MAX_QUBITS, default=DEFAULT_MAX_QUBITS)
    oracle_p.set_defaults(func=cmd_oracle)

    solve_p = sub.add_parser("solve", help="run an experiment spec file")
    solve_p.add_argument("spec")
    solve_p.add_argument("--out", type=_out_path(directory_ok=True), default="results")
    solve_p.add_argument("--seed", type=_checked(check_seed, "seed"))
    solve_p.add_argument("--runs", type=_checked(check_count, "runs"))
    solve_p.add_argument("--shots", type=_checked(check_count, "shots"))
    solve_p.add_argument("--mode", type=str.lower, choices=MODES)
    solve_p.add_argument("--max-qubits", type=_MAX_QUBITS, default=DEFAULT_MAX_QUBITS)
    solve_p.set_defaults(func=cmd_solve)

    sweep_p = sub.add_parser("sweep", help="scaling sweep over the synthetic family")
    # Flags left out take scaling_sweep's and SWEEP_CONFIG's defaults.
    sweep_p.add_argument("--variant", type=str.upper, choices=VARIANTS)
    sweep_p.add_argument("--algorithm", type=str.lower, choices=ALGORITHMS)
    sweep_p.add_argument("--pmin", type=_checked(check_count, "pmin", 1, None), default=3)
    sweep_p.add_argument("--pmax", type=_checked(check_count, "pmax", 1, None), default=7)
    sweep_p.add_argument("--max-iterations", type=_checked(check_count, "max_iterations"))
    sweep_p.add_argument("--restarts", type=_checked(check_count, "restarts"))
    sweep_p.add_argument("--seed", type=_checked(check_seed, "seed"))
    sweep_p.add_argument("--runs", type=_checked(check_count, "runs"))
    sweep_p.add_argument("--shots", type=_checked(check_count, "shots"))
    sweep_p.add_argument("--mode", type=str.lower, choices=MODES)
    sweep_p.add_argument("--max-qubits", type=_MAX_QUBITS, default=DEFAULT_MAX_QUBITS)
    sweep_p.add_argument("--out", type=_out_path())
    sweep_p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and args.pmax < args.pmin:
        parser.error(f"--pmax {args.pmax} is below --pmin {args.pmin}")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QubitCountExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (QvarschedError, OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
