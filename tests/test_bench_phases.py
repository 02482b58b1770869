"""The benchmark's phase spans name functions that exist.

``perfbench/tracer.py`` splits wall time into set-up and training by wrapping
the functions named in its ``PHASES``. A renamed ``train.run``,
``data.load_dataset`` or CLI command would leave its phase unwrapped, and the
benchmark would read 0 for it without failing. The tracer rebinds package
attributes for good, so it is installed in a child process.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import PHASES, Tracer
tracer = Tracer(only=PHASES).install()
print(json.dumps({"phases": sorted(PHASES), "wrapped": sorted(tracer.wrapped)}))
"""


def test_every_phase_span_is_wrapped():
    out = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        check=True,
    )
    doc = json.loads(out.stdout)
    assert doc["phases"], "PHASES is empty"
    missing = sorted(set(doc["phases"]) - set(doc["wrapped"]))
    assert doc["wrapped"] == doc["phases"], f"phase spans that wrap nothing: {missing}"
