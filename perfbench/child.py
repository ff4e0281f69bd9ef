"""One measured workload run in a fresh interpreter; started by run.py.

Prints ``ready`` once the package is imported and the inputs are parsed,
then ``host <factor>``, the set-up kernel's host factor at that moment. It
then runs the workload's items in the seed's order until the time budget is
spent (always at least one whole pass), with the calibration kernel timed
between items, checks each output against its reference, and writes a JSON
result file.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import traceback
import warnings
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import calibration
import tracing
import workloads


def _parse_inputs(workload: workloads.Workload, work: Path):
    from qvarsched.files import parse_experiment, parse_problem

    if workload.problem:
        parse_problem((work / workload.problem).read_text())
    for item in workload.items:
        for name in item.inputs:
            parse_experiment((work / name).read_text(), work)


def _run_item(cli, item: workloads.Item) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(item.argv))


def run_items(workload, order, seconds: float, tracer=None) -> dict:
    """Run items until the budget is spent; per-item times and checks."""
    from qvarsched import cli

    work = workload.work_dir()
    references = {
        item.key: workloads.reference_path(workload, item).read_text() for item in order
    }
    n = len(order)
    times: defaultdict = defaultdict(list)
    scaled: defaultdict = defaultdict(list)
    factors = [calibration.host_factor(workload.kernel)]
    quality: dict[str, list[tuple[float, float]]] = {}
    failed = 0
    i = 0
    start = perf_counter()
    while True:
        item = order[i % n]
        if i >= n:
            elapsed = perf_counter() - start
            if tracer is not None:
                # Traced runs do whole passes; stop if another would overrun.
                if i % n == 0 and elapsed * (1 + n / i) > seconds:
                    break
            elif elapsed + times[item.key][-1] > seconds:
                break
        i += 1
        for name in item.outputs:
            (work / name).unlink(missing_ok=True)
        began = perf_counter()
        try:
            if tracer is None:
                code = _run_item(cli, item)
            else:
                code = tracer.call(tracing.OP_SPAN, _run_item, (cli, item))
        except Exception:  # one failed item must not stop the run
            traceback.print_exc(file=sys.stderr)
            code = None
        took = perf_counter() - began
        times[item.key].append(took)
        reps = calibration.reps_after(workload.kernel, took)
        factors.append(calibration.host_factor(workload.kernel, reps))
        # Divided by the mean of the host factors just before and just after.
        scaled[item.key].append(took * 2 / (factors[-2] + factors[-1]))
        try:
            ok = code == 0 and workloads.item_output(work, item) == references[item.key]
        except OSError:
            ok = False
        if not ok:
            failed += 1
            print(f"item {item.key} failed (exit {code})", file=sys.stderr)
            continue
        quality.setdefault(item.key, workloads.quality(work, item))
    pairs = [pair for key in sorted(quality) for pair in quality[key]]
    return {
        "attempted": i,
        "failed": failed,
        "passes": i // n,
        # Per item the median of its scaled times; see README, "Noise".
        "wall_s": sum(statistics.median(t) for t in scaled.values()),
        "unscaled_wall_s": sum(statistics.median(t) for t in times.values()),
        "host_factor": statistics.median(factors),
        # Mean pass time; what a traced run reports as trace.wall_s.
        "mean_pass_s": sum(statistics.fmean(t) for t in times.values()),
        "item_s": {key: t for key, t in sorted(times.items())},
        "scaled_item_s": {key: t for key, t in sorted(scaled.items())},
        "p_best_mean": statistics.fmean(p for p, _ in pairs) if pairs else 0.0,
        "p_feas_mean": statistics.fmean(f for _, f in pairs) if pairs else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result")
    args = parser.parse_args()

    import qvarsched  # noqa: F401  (the import is part of set-up time)

    workload = workloads.WORKLOADS[args.workload]
    order = workloads.pass_order(workload, args.seed)
    _parse_inputs(workload, workload.work_dir())
    print("ready", flush=True)
    print(f"host {calibration.settled_host_factor(calibration.SETUP_KERNEL)!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = patches = None
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}")
        patches = tracing.install(tracer)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = run_items(workload, order, args.seconds, tracer)
        finally:
            if patches is not None:
                patches.restore()
    result["warnings"] = len(caught)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["per_layer"] = tracing.per_layer_metrics(tracer, result["passes"])
        tracer.write(workload.work_dir() / "trace.jsonl")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
