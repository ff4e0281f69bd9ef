"""Record the reference outputs that the benchmark compares against.

Run once on the commit whose outputs are the reference, from the repository
root::

    python3 perfbench/record.py [workload ...]

Each item of each named workload (default: all) runs once through
``cli.main``; its outputs, with the wall-clock fields removed, are written to
``perfbench/reference/<workload>/<item>.txt``. Recording again on a commit
that keeps the outputs byte-identical leaves these files unchanged.
"""
from __future__ import annotations

import contextlib
import io
import os
import sys

import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))


def record(workload: workloads.Workload):
    from qvarsched import cli

    workloads.generate_inputs(workload)
    work = workload.work_dir()
    target = workloads.REFERENCE_DIR / workload.name
    target.mkdir(parents=True, exist_ok=True)
    previous = os.getcwd()
    os.chdir(work)
    try:
        for item in workload.items:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(list(item.argv))
            if code != 0:
                raise SystemExit(f"{workload.name} {item.key}: exit {code}")
            workloads.reference_path(workload, item).write_text(
                workloads.item_output(work, item)
            )
            print(f"recorded {workload.name} {item.key}")
    finally:
        os.chdir(previous)


def main(names: list[str]) -> int:
    for name in names or sorted(workloads.WORKLOADS):
        record(workloads.WORKLOADS[name])
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
