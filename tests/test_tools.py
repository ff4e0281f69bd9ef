"""tools/src_lines.py runs, lists every src/qvarsched module, and its totals
are the sums of its module rows."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_src_lines_prints_every_module_and_totals_that_are_their_sums():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_lines.py")], capture_output=True, text=True, check=True
    ).stdout
    header, *rows, total = [line.split() for line in out.splitlines()]
    assert header == ["module", "lines", "code"]
    assert [name for name, _, _ in rows] == sorted(p.name for p in (ROOT / "src" / "qvarsched").glob("*.py"))
    lines, code = ([int(row[k]) for row in rows] for k in (1, 2))
    assert all(0 < c <= n for n, c in zip(lines, code))
    assert total == ["total", str(sum(lines)), str(sum(code))]
