"""One timed rate study in a fresh process; started by run.py, not by hand.

    python3 sample.py CONFIG RESULT T_SPAWN [--setup-only] [--trace SPANS] [--probe]

Does what ``mvavg rate-study --config CONFIG`` does (load and validate the
config, which builds the model; run the study; write the report) and writes
the timings to RESULT as JSON.  T_SPAWN is the parent's ``time.monotonic()``
just before it started this process; the monotonic clock is shared by all
processes of the machine, so ``setup_s`` includes interpreter start-up and
the imports.  With ``--trace`` the mvavg entry points are wrapped by
:class:`spans.Tracer` and the spans are saved to SPANS.

With ``--probe`` a SIGALRM handler times a fixed piece of interpreter and
numpy work (:func:`probe`, about 0.5 ms) every ``PROBE_PERIOD_S`` from the
start of :func:`main` to the end of the study, and RESULT gets the mean of
those times as ``probe_s``, and of those taken during set-up as
``setup_probe_s``: the speed the host gave this process while it ran, which
run.py divides out of the timings.  The mean, not the median,
because the study's time is the sum over its run of the host's slowness.
"""
import glob
import json
import multiprocessing.util
import os
import resource
import signal
import sys
import time

import numpy as np

PROBE_PERIOD_S = 0.04
_PROBE_ARRAY = np.linspace(0.0, 1.0, 512)
_PROBE_RNG = np.random.Generator(np.random.Philox(3))
_PROBE_MATRIX = 2.5 * np.eye(31) - np.eye(31, k=1) - np.eye(31, k=-1)
_PROBE_RHS = np.ones((31, 200))
_probe_times: list[float] = []


def probe(signum=None, frame=None):
    """Time a fixed mix of bytecode, small-array arithmetic, Philox normals
    and a small LAPACK solve, the kinds of work the rate studies are made of.
    The solve is numpy's, not scipy's: importing scipy here would hide a
    program change that stops importing it during set-up."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(600):
        acc += i * 0.5
    x = _PROBE_ARRAY
    for _ in range(10):
        x = x * 0.999 + 0.5
    _PROBE_RNG.standard_normal(2000)
    np.linalg.solve(_PROBE_MATRIX, _PROBE_RHS)
    _probe_times.append(time.perf_counter() - t0)


class _PoolProbes:
    """Probing in the study's pool workers.  They are forked from this
    process and keep the SIGALRM handler but not the timer; multiprocessing
    calls :meth:`after_fork` in each one, which restarts the timer and saves
    the worker's probe times to ``<prefix>.<pid>`` when the worker exits."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        multiprocessing.util.register_after_fork(self, _PoolProbes.after_fork)

    def after_fork(self):
        _probe_times.clear()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        multiprocessing.util.Finalize(None, self.save, exitpriority=100)

    def save(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        with open(f"{self.prefix}.{os.getpid()}", "w") as fh:
            json.dump(_probe_times, fh)

    def collect(self) -> list[float]:
        times = []
        for path in glob.glob(glob.escape(self.prefix) + ".*"):
            with open(path) as fh:
                times += json.load(fh)
        return times


def main(argv):
    config_path, result_path, t_spawn = argv[0], argv[1], float(argv[2])
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    pool_probes = None
    if "--probe" in argv:
        signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        pool_probes = _PoolProbes(result_path + ".probes")

    from mvavg import study

    tracer = None
    if spans_path:
        from spans import Tracer
        tracer = Tracer().install()
    cfg = study.load_config(config_path)
    setup_s = time.monotonic() - t_spawn
    setup_probes = len(_probe_times)
    result = {"setup_s": setup_s, "mvavg": os.path.dirname(study.__file__)}
    if not setup_only:
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.span("study"):
                report = study.run_rate_study(cfg)
                study.write_report(report, cfg.out_dir)
        else:
            report = study.run_rate_study(cfg)
            study.write_report(report, cfg.out_dir)
        study_s = time.perf_counter() - t0
        steps = sum(cfg.params_for(e).n_steps for e in cfg.epsilon_grid) * cfg.replications
        me = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        result.update({
            "study_s": study_s,
            # one full and one averaged micro step per coupled step
            "particle_steps": 2 * steps * cfg.n_particles,
            "coupled_steps": steps,
            "failures": [list(map(str, f)) for f in report.failures],
            # ru_maxrss is in KiB on Linux: this process plus its largest child
            "peak_rss_mb": (me.ru_maxrss + kids.ru_maxrss) / 1024.0,
        })
    signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
    if pool_probes is not None:
        worker_times = pool_probes.collect()
        result["probes"] = len(_probe_times) + len(worker_times)
        result["probe_s"] = float(np.mean(_probe_times + worker_times))
        result["setup_probe_s"] = float(np.mean(_probe_times[:setup_probes or None]))
    if tracer is not None:
        tracer.uninstall()
        tracer.write(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
