"""The package's import footprint: the modules a process pays for by using it."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Trains every scheme for one epoch, then prints the loaded modules of the
# solver packages that the package must not pull in.
SCRIPT = """
import sys
import fairprop, fairprop.cli
from fairprop import train

for scheme in train.SCHEMES:
    cfg = train.RunConfig.from_dict({
        "dataset": {"synth": {"n": 50, "mean_degree": 4.0, "feat_dim": 6, "seed": 0}},
        "scheme": scheme, "num_layers": 2, "hidden": [8], "epochs": 1, "seeds": [0],
    })
    train.run(cfg, save=False)
print(sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.sparse.linalg"))))
"""


def test_no_scheme_loads_a_scipy_solver_package():
    # scipy.linalg brings its own LAPACK beside numpy's: about 8 MiB resident
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
