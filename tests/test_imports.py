"""No run imports scipy.

Importing ``scipy.linalg`` costs a process about 0.3 s and 26 MB of RSS
(2-vCPU x86_64 host).  The scalar models never needed it, and the field
models' tridiagonal solves are a numpy port of LAPACK ``dgtsv``
(``spatial.solve_banded``), so no model imports it.  The check runs in a
fresh interpreter, because the test process has imported scipy long before
(the tests keep it as an oracle).
"""
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = """
import json, sys
from mvavg import study
from mvavg.cli import main

linear, cubic, porous, out = sys.argv[1:]
codes = [main(["rate-study", "--config", linear, "--out", out]),
         main(["simulate", "--config", linear, "--epsilon", "0.1", "--out", out]),
         main(["probe", "--model", "linear-benchmark", "--samples", "50", "--out", out]),
         main(["average", "--config", cubic, "--epsilon", "0.1", "--out", out])]
study.load_config(porous)
codes += [main(["rate-study", "--config", porous, "--out", out]),
          main(["probe", "--model", "porous-media-1d", "--samples", "20", "--out", out])]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules
                                                  if m.split(".")[0] == "scipy"),
                  "pool": "concurrent.futures.process" in sys.modules}))
"""


def test_no_run_imports_scipy(tmp_path):
    configs = {
        "linear": {"model": "linear-benchmark", "n_particles": 8, "t_end": 0.1,
                   "epsilon_grid": [0.1, 0.05, 0.02], "replications": 2, "seed": 5},
        "cubic": {"model": "mvsde-cubic", "n_particles": 8, "t_end": 0.1,
                  "averaged_mode": "hmm", "seed": 5,
                  "hmm": {"replicas": 1, "horizon": 0.5, "burn_in": 0.2, "h_frozen": 0.02}},
        "porous": {"model": "porous-media-1d", "model_params": {"n_interior": 7},
                   "n_particles": 8, "t_end": 0.1, "epsilon_grid": [0.1, 0.05, 0.02],
                   "replications": 2, "seed": 5},
    }
    paths = []
    for name, cfg in configs.items():
        paths.append(str(tmp_path / f"{name}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(cfg, fh)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *paths, str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    # a tiny rate study's verdict may fail (4); every run completes
    codes = seen["codes"]
    assert codes[0] in (0, 4) and codes[1:4] == [0, 0, 0]
    assert codes[4] in (0, 4) and codes[5] == 0
    assert seen["scipy"] == []
    assert not seen["pool"]       # one worker: no process pool
