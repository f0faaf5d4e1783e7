"""SHA-256 digests of the program's outputs, for a byte comparison of two checkouts.

    python scripts/output_digests.py CHECKOUT > digests.json

Runs the ``mvavg`` command line of CHECKOUT (its ``src`` first on the
module path), each run in its own temporary directory:

  * ``rate-study`` on the linear-exact, cubic-hmm and porous-spde benchmark
    workloads (the configs of CHECKOUT's ``ratebench/workloads.py``, at their
    default seeds) with 1 and with 2 workers;
  * small runs of ``simulate``, ``average`` (closed form, cubic HMM on the
    fbar lattice, linear HMM on a node table), ``aux``, ``freeze`` (with its
    defaults, with every flag, and with a refused flag) and ``probe``;
  * two ``rate-study`` runs refused for an ``hmm`` value: cubic in HMM mode,
    linear in exact mode.

Prints one JSON object and nothing else: per run, its exit code and the
SHA-256 of its stdout, its stderr and each file it wrote.  Two checkouts
give the same bytes when ``diff`` finds their objects equal.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

# name: (subcommand and its flags, study config)
RUNS = {
    "simulate-linear": (["simulate", "--epsilon", "0.05"],
                        dict(model="linear-benchmark", t_end=0.1, seed=3)),
    "simulate-porous": (["simulate", "--epsilon", "0.05"],
                        dict(model="porous-media-1d", model_params={"n_interior": 7},
                             t_end=0.02, seed=3)),
    "average-linear-exact": (["average", "--epsilon", "0.05"],
                             dict(model="linear-benchmark", t_end=0.1, seed=5)),
    "average-cubic-hmm": (["average", "--epsilon", "0.05"],
                          dict(model="mvsde-cubic", t_end=0.05, seed=5, averaged_mode="hmm",
                               hmm={"replicas": 2, "horizon": 0.5, "burn_in": 0.2,
                                    "h_frozen": 0.02})),
    "average-linear-hmm": (["average", "--epsilon", "0.05"],
                           dict(model="linear-benchmark", t_end=0.05, seed=5,
                                averaged_mode="hmm",
                                hmm={"replicas": 2, "horizon": 0.5, "burn_in": 0.2,
                                     "h_frozen": 0.02})),
    "aux-linear": (["aux", "--epsilon", "0.05"],
                   dict(model="linear-benchmark", t_end=0.1, seed=7, replications=2)),
    "aux-porous": (["aux", "--epsilon", "0.05"],
                   dict(model="porous-media-1d", model_params={"n_interior": 7},
                        t_end=0.02, seed=7, replications=2)),
    "freeze-cubic-defaults": (["freeze", "--x", "1.0"], dict(model="mvsde-cubic", seed=9)),
    "freeze-porous": (["freeze", "--x", ",".join(["0.1"] * 5), "--mu-m2", "0.5",
                       "--burn-in", "1", "--horizon", "2", "--h", "0.01", "--replicas", "2"],
                      dict(model="porous-media-1d", model_params={"n_interior": 5}, seed=8)),
    "freeze-bad-replicas": (["freeze", "--x", "1.0", "--replicas", "0"],
                            dict(model="mvsde-cubic", seed=9)),
    "probe-cubic": (["probe", "--samples", "500"], dict(model="mvsde-cubic", seed=4)),
    # hmm keys are checked in either averaged mode
    "rate-study-cubic-hmm-bad-h-frozen": (["rate-study"],
                                          dict(model="mvsde-cubic", averaged_mode="hmm",
                                               hmm={"h_frozen": 0})),
    "rate-study-linear-exact-bad-replicas": (["rate-study"],
                                             dict(model="linear-benchmark", averaged_mode="exact",
                                                  hmm={"replicas": 0})),
}
SMALL = dict(n_particles=4, record_points=10)
STUDY_WORKLOADS = ("linear-exact", "cubic-hmm", "porous-spde")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(checkout: str, workdir: str, args: list, config: dict) -> dict:
    """One CLI run of ``checkout`` in ``workdir``: its exit code and digests."""
    os.makedirs(workdir)
    with open(os.path.join(workdir, "config.json"), "w") as fh:
        json.dump(config, fh)
    env = {k: v for k, v in os.environ.items() if k != "MVAVG_SEED"}
    env["PYTHONPATH"] = os.path.join(os.path.abspath(checkout), "src")
    proc = subprocess.run([sys.executable, "-m", "mvavg.cli", args[0], "--config", "config.json",
                           "--out", "out", *args[1:]],
                          cwd=workdir, env=env, capture_output=True, check=False)
    out = {"exit": proc.returncode, "stdout": _sha(proc.stdout), "stderr": _sha(proc.stderr)}
    out_dir = os.path.join(workdir, "out")
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = _sha(fh.read())
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checkout = argv[0]
    spec = importlib.util.spec_from_file_location(
        "_workloads", os.path.join(checkout, "ratebench", "workloads.py"))
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclass
    spec.loader.exec_module(workloads)
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in STUDY_WORKLOADS:
            w = workloads.WORKLOADS[name]
            for workers in (1, 2):
                key = f"rate-study/{name}/workers={workers}"
                digests[key] = run(checkout, os.path.join(tmp, key), ["rate-study"],
                                   w.config(w.default_seed, workers))
        for name, (args, config) in RUNS.items():
            digests[name] = run(checkout, os.path.join(tmp, name), args, {**SMALL, **config})
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
