"""The serving process imports no SciPy.

Only the offline optima (``lp_upper_bound``, the LP oracle) solve with
``scipy.optimize.linprog``, and they import it when called.  A fresh
interpreter imports the server, the engines, the schedulers and the
model, and must not have loaded ``scipy``; the lazy import must still
solve.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import repro.serving.server, repro.engine, repro.scheduling, repro.model.seq2seq
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded[:3]
from repro.scheduling import exact_opt, lp_upper_bound
from repro.types import Request
requests = [Request(request_id=i, length=n, deadline=1.0) for i, n in enumerate([3, 4, 5])]
print(lp_upper_bound(requests, [0.0], 1, 8), exact_opt(requests, [0.0], 1, 8))
"""


def test_serving_imports_leave_scipy_out():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    lp, opt = map(float, run.stdout.split())
    assert lp >= opt > 0
