"""qvarsched benchmark: one workload, measured end to end or traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload solve-eohl-a4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every measurement runs in a fresh interpreter (``child.py``) with the
package imported from ``src/``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the workload once untraced and once traced, for half the
time each, and reports the per-layer metrics. The last line of output is one
JSON object; the lines before it give each metric with its unit. See
``perfbench/README.md`` for the metrics and workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads

# Set-up is measured in this many dedicated interpreters, half before and
# half after the measured child, plus once in the measured child; each is
# divided by the host factor its interpreter reports, and the median is
# reported.
SETUP_PROBES = 4
# The load comes from one process; capping the native thread pools keeps the
# numbers steady on a shared machine. Applied to the child processes only.
THREAD_CAP = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "p_best_mean": ("fraction", "higher"),
    "p_feas_mean": ("fraction", "higher"),
}


class ChildError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(workloads.ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(THREAD_CAP)
    return env


def _run_child(workload: workloads.Workload, extra: list[str], timeout: float):
    """Start child.py; returns (scaled seconds until it was ready, its result or None)."""
    work = workload.work_dir()
    result_path = work / "result.json"
    if result_path.exists():
        result_path.unlink()
    argv = [sys.executable, str(workloads.BENCH_DIR / "child.py"),
            "--workload", workload.name, "--result", str(result_path), *extra]
    started = perf_counter()
    proc = subprocess.Popen(argv, cwd=work, env=_child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = perf_counter() - started
        host_line = proc.stdout.readline().split()
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError(f"{workload.name}: child ran longer than {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise ChildError(f"{workload.name}: child exited with code {proc.returncode}")
    if len(host_line) != 2 or host_line[0] != "host":
        raise ChildError(f"{workload.name}: child did not report its host factor")
    setup_s /= float(host_line[1])
    if "--setup-only" in extra:
        return setup_s, None
    if not result_path.exists():
        raise ChildError(f"{workload.name}: child wrote no result")
    return setup_s, json.loads(result_path.read_text())


def machine_record(workload: workloads.Workload) -> dict:
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_caps": {var: THREAD_CAP for var in THREAD_VARS},
        "state_bytes": 16 << workload.state_qubits,
    }


def measure(workload: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns the result object."""
    workloads.generate_inputs(workload)
    base = ["--seed", str(seed)]
    timeout = seconds + 90
    if not trace:
        def probe():
            return _run_child(workload, base + ["--setup-only"], timeout)[0]

        setups = [probe() for _ in range(SETUP_PROBES // 2)]
        setup_s, result = _run_child(workload, base + ["--seconds", str(seconds)], timeout)
        setups += [setup_s] + [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        values = {
            "wall_s": result["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "p_best_mean": result["p_best_mean"],
            "p_feas_mean": result["p_feas_mean"],
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]}
                   for name in END_TO_END}
        attempted, failed = result["attempted"], result["failed"]
        print(f"{workload.name}  unscaled: wall_s = {result['unscaled_wall_s']:.6g} s,"
              f" host factor = {result['host_factor']:.6g}"
              f" (kernel {'+'.join(workload.kernel)})")
    else:
        half = seconds / 2
        _, plain = _run_child(workload, base + ["--seconds", str(half)], timeout)
        _, traced = _run_child(workload, base + ["--seconds", str(half), "--trace"], timeout)
        metrics = traced["per_layer"]
        metrics["trace.overhead_s"] = {
            "value": metrics["trace.wall_s"]["value"] - plain["mean_pass_s"],
            "unit": "s",
        }
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _print_metrics(name: str, result: dict):
    for metric, entry in result["metrics"].items():
        print(f"{name}  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"{name}  failed_frac = {result['failed'] / result['attempted']:.6g} fraction"
          f" ({result['failed']} of {result['attempted']} items)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (workloads.ROOT / "src" / "qvarsched" / "__init__.py").is_file():
        print(f"error: no qvarsched package under {workloads.ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            workload = workloads.WORKLOADS[name]
            results[name] = measure(workload, args.seed, args.seconds, bool(args.trace))
            record = machine_record(workload)
            (workload.work_dir() / "run_record.json").write_text(json.dumps(record, indent=2))
            print(f"{name}  run_record {json.dumps(record)}")
            _print_metrics(name, results[name])
    except (ChildError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
