"""Start-up cost: scipy is loaded by the first optimize, and by nothing before it."""
import os
import subprocess
import sys
from pathlib import Path

from qvarsched.encoder import encode, model_to_text
from qvarsched.problem import build_layout

from helpers import reference_problem

ROOT = Path(__file__).resolve().parents[1]

# Run in a fresh interpreter: argv[1] holds the reference problems, argv[2]
# is a scratch directory.
_SCRIPT = '''
import contextlib
import io
import sys
from pathlib import Path

import qvarsched, qvarsched.cli, qvarsched.files
from qvarsched.cli import main

problems, scratch = Path(sys.argv[1]), Path(sys.argv[2])
(scratch / "typo.problem").write_text(
    (problems / "eohl.problem").read_text().replace("threshold=2", "treshold=2")
)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert main(["encode", str(problems / "eohl.problem")]) == 0
    assert main(["oracle", str(problems / "eohl.problem")]) == 0
    assert main(["encode", str(scratch / "typo.problem")]) == 2
    assert main(["oracle", str(problems / "ecfl.problem"), "--max-qubits", "10"]) == 3
    try:
        main(["--help"])
    except SystemExit as done:
        assert done.code == 0
assert "scipy" not in sys.modules, "scipy loaded before any optimize"

(scratch / "eohl.problem").write_text((problems / "eohl.problem").read_text())
(scratch / "one.spec").write_text(
    "qvarsched-v1 experiment\\nproblem eohl.problem\\nalgorithm a4\\n"
    "max_iterations 20\\nrestarts 1\\nruns 1\\n"
)
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["solve", str(scratch / "one.spec"), "--out", str(scratch / "r")]) == 0
assert "scipy" in sys.modules, "solve ran without loading scipy"
'''


def _python(*args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_only_the_first_optimize_loads_scipy(tmp_path):
    done = _python("-c", _SCRIPT, str(ROOT / "problems"), str(tmp_path), cwd=tmp_path)
    assert done.returncode == 0, done.stderr


def test_python_m_qvarsched_encodes_without_scipy(tmp_path):
    done = _python(
        "-X", "importtime", "-m", "qvarsched", "encode", str(ROOT / "problems" / "eohl.problem"),
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == model_to_text(encode(build_layout(reference_problem("EOHL"))))
    # -X importtime lists every module the process imported on stderr.
    assert "| qvarsched.cli" in done.stderr
    assert "scipy" not in done.stderr
