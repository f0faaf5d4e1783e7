"""Rate-study benchmark for mvavg.

Run from the root of a checkout:

    python3 ratebench/run.py --workload linear-exact --seed 90125 --seconds 30 --trace 0
    python3 ratebench/run.py --workload all --seconds 30 --out ratebench/baseline.json
    python3 ratebench/run.py --record-reference

A run times one workload (see workloads.py): it repeats the rate study, each
time in a fresh Python process with BLAS threads pinned to 1, until
``--seconds`` are used up (at least three studies), and reports medians:

    study_s               load-to-report wall time: run_rate_study + write_report
    particle_steps_per_s  N x coupled micro steps (full + averaged), over study_s
    cpu_s                 CPU time of the study process and its pool workers
    setup_s               process start to a validated config (imports, config
                          load, validation, model build); also sampled by
                          set-up-only processes, at least five per run
    peak_rss_mb           peak RSS of the study process plus its largest child
    failed_frac           failed replication jobs over attempted ones; also the
                          ``failed``/``attempted`` fields of the result line

The times are host-speed normalised.  The speed a shared host gives a
process drifts by up to 2x over seconds to minutes, and it moves the time of
interpreter and numpy work alike.  So every study process, and each of its
pool workers, times a fixed piece of such work every 40 ms while it runs
(``sample.probe``, about 0.5 ms, about 1% of the run), and ``study_s``,
``cpu_s`` and ``setup_s`` of each process are scaled by ``PROBE_REF_S`` over
the mean of its probe times (for ``setup_s``, of those taken during set-up):
they read as seconds on a host where the probe takes ``PROBE_REF_S``.  The
wall-clock figures are printed beside them as ``*_wall`` and kept in the
detail line.  The probe runs no program code, so a change to the program
moves the normalised times as it moves the wall times.  What it cannot tell
apart is a change that slows the probe as well, for example more pool
workers than cores (the probe then waits for a core too) or a much larger
working set (the probe then finds its data out of cache more often): that
part of the cost is divided out.

Every study's report is checked against the recorded reference
(reference.py); all reports of one run must be byte-identical, and the two
linear workloads also run the study once at the other worker count, which
must give the same bytes.  A job fails when it raises or when its grid row
is outside the reference tolerance; a failed check of the whole report (the
verdict, monotonicity, the bytes) fails every job of the study.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced studies (all with one worker) and prints the per-layer metrics
(spans.py); ``trace.overhead_frac`` is the median over those pairs of the
traced over the plain ``study_s``, minus 1.  Every metric is printed with its
unit, then a ``machine`` line and a ``detail`` line with the samples and
checks; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs every workload both ways in fresh processes at the
default seeds and writes the detail lines with the machine description to
``--out``.  ``--record-reference`` rewrites reference/*.json from the program
at hand.

Work files go to ``.bench_build/ratebench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "ratebench"

import reference  # noqa: E402  (this directory is sys.path[0])
import spans  # noqa: E402
from workloads import WORKER_INVARIANT, WORKLOADS, pool_workers  # noqa: E402

MIN_STUDIES = 3          # per untraced run
MIN_TRACED = 3           # of each kind, plain and traced, per traced run
MIN_SETUPS = 5           # setup_s samples per untraced run
RUN_LIMIT_S = 170.0      # a run ends within this, whatever --seconds says
PROBE_REF_S = 5.0e-4     # the probe time the normalised times refer to
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
REFERENCE_SEEDS = 12     # seeds per reference, the default seed first

END_TO_END = {
    "study_s": "s", "particle_steps_per_s": "steps/s", "cpu_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "noise.normals": "count", "noise.normals.frozen": "count", "noise.self_s": "s",
    "noise.ns_per_normal": "ns",
    "integrate.micro_steps": "count", "integrate.self_s": "s", "integrate.us_per_step": "us",
    "averaging.micro_steps": "count", "averaging.self_s": "s",
    "averaging.frozen_particle_steps": "count",
    "spatial.banded_solves": "count", "spatial.banded_solve_s": "s",
    "models.empirical_view_s": "s", "models.exact_fbar_s": "s",
    "models.coeff_calls": "count", "models.coeff_s": "s",
    "study.jobs": "count", "study.failed_jobs": "count", "study.job_s_p50": "s",
    "study.job_s_max": "s", "study.report_write_s": "s", "study.self_s": "s",
    "cli.config_s": "s", "trace.study_s": "s", "trace.overhead_frac": "fraction",
}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MVAVG_SEED"}
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(cfg: dict, sdir: Path, timeout: float, trace: bool = False,
              setup_only: bool = False, probe: bool = False) -> dict:
    """Run sample.py once in a fresh process; return its timings."""
    sdir.mkdir(parents=True)
    cfg = dict(cfg, out_dir=str(sdir / "out"))
    cfg_path, result_path = sdir / "config.json", sdir / "result.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    argv = [sys.executable, str(HERE / "sample.py"), str(cfg_path), str(result_path)]
    extra = (["--setup-only"] if setup_only else []) + (
        ["--trace", str(sdir / "spans.npz")] if trace else []) + (
        ["--probe"] if probe else [])
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(argv + [repr(t_spawn)] + extra, env=child_env(), cwd=sdir,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the study and its pool workers
        proc.communicate()
        raise ChildFailed(f"study did not finish within {timeout:.0f} s")
    wall = time.monotonic() - t_spawn
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise ChildFailed(f"exit code {proc.returncode}: {err.decode()[-2000:]}")
    result = json.loads(result_path.read_text())
    if Path(result["mvavg"]).resolve() != (SRC / "mvavg").resolve():
        raise ChildFailed(f"imported mvavg from {result['mvavg']}, not {SRC / 'mvavg'}")
    result["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    result["wall_s"] = wall
    result["out_dir"] = cfg["out_dir"]
    result["spans"] = str(sdir / "spans.npz") if trace else None
    if probe:
        for k, p in (("study_s", "probe_s"), ("cpu_s", "probe_s"),
                     ("setup_s", "setup_probe_s")):
            if k in result:
                result[f"{k}_wall"] = result[k]
                result[k] *= PROBE_REF_S / result[p]
    return result


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": commit,
        "threads_parent": {v: os.environ.get(v) for v in THREAD_VARS},
        "threads_study": {v: "1" for v in THREAD_VARS},
        "pool_workers": pool_workers(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    wdir = WORK / name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    t_start = time.monotonic()
    # traced studies and their plain partners use one worker (spans stay in-process)
    cfg = w.config(seed, workers=1 if trace else None)
    studies, setups, problems = [], [], []
    crashed = 0

    def child(cfg=cfg, tag=None, **kw):
        tag = tag or f"s{len(studies) + len(setups):02d}"
        return run_child(cfg, wdir / tag, t_start + RUN_LIMIT_S - time.monotonic(), **kw)

    def want_more(kinds):
        elapsed = time.monotonic() - t_start
        if elapsed + (studies[-1]["wall_s"] if studies else 0.0) > RUN_LIMIT_S / 2:
            return False
        least = MIN_TRACED if trace else MIN_STUDIES
        if any(sum(1 for s in studies if s["traced"] == k) < least for k in kinds):
            return True
        return elapsed + studies[-1]["wall_s"] <= seconds

    # traced runs compare traced with plain wall times, so they do not probe
    kinds = (False, True) if trace else (False,)
    try:
        while want_more(kinds):
            for k in kinds:
                studies.append(dict(child(trace=k, probe=not trace), traced=k))
        if not trace:
            while len(setups) + len(studies) < MIN_SETUPS:
                setups.append(child(setup_only=True, probe=True))
            if name in WORKER_INVARIANT:
                # the same study at the other worker count must give the same bytes
                other = 1 if cfg["workers"] > 1 else max(2, pool_workers())
                studies.append(dict(child(dict(cfg, workers=other), "invariance"),
                                    traced=False, invariance=other))
    except ChildFailed as exc:
        problems.append(f"study process failed: {exc}")
        crashed = w.jobs

    failed, bitwise_ref = check_studies(studies, w, cfg, problems)
    plain = [s for s in studies if not s["traced"] and "invariance" not in s]
    attempted = w.jobs * len(studies) + crashed
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "studies": len(plain), "attempted": attempted, "failed": failed + crashed,
              "failed_frac": (failed + crashed) / attempted if attempted else 1.0,
              "problems": list(dict.fromkeys(problems)),
              "bitwise_equal_reference": bitwise_ref}
    if not plain:
        metrics, units = {}, END_TO_END if not trace else PER_LAYER
    elif not trace:
        study_s = statistics.median([s["study_s"] for s in plain])
        metrics = {
            "study_s": study_s,
            "particle_steps_per_s": plain[0]["particle_steps"] / study_s,
            "cpu_s": statistics.median([s["cpu_s"] for s in plain]),
            "setup_s": statistics.median([s["setup_s"] for s in plain + setups]),
            "peak_rss_mb": statistics.median([s["peak_rss_mb"] for s in plain]),
        }
        result["samples"] = {k: [s[k] for s in plain] for k in
                             ("study_s", "cpu_s", "setup_s", "peak_rss_mb", "probe_s",
                              "setup_probe_s", "study_s_wall", "cpu_s_wall", "setup_s_wall")}
        for k in ("setup_s", "setup_s_wall", "probe_s", "setup_probe_s"):
            result["samples"][k] += [s[k] for s in setups]
        result["wall"] = {k: statistics.median(result["samples"][f"{k}_wall"])
                          for k in ("study_s", "cpu_s", "setup_s")}
        units = END_TO_END
    else:
        metrics, extra = traced_metrics(studies, plain, problems)
        result.update(extra)
        result["problems"] = list(dict.fromkeys(problems))
        units = PER_LAYER
    result["metrics"] = {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()}
    result["elapsed_s"] = time.monotonic() - t_start
    return result


def check_studies(studies, w, cfg, problems) -> tuple[int, bool | None]:
    """Check every study's report; return failed jobs and bitwise equality
    of the first report with the recorded one (default seed only).

    A study's failed jobs are the jobs that raised plus every replication of
    a grid row outside the reference tolerance.  Checks that cover the whole
    report (an unreadable report, unexpected rows, the verdict, monotonicity,
    the byte comparison) charge every job of the study.
    """
    ref = reference.load_reference(w.reference)
    reps, grid = cfg["replications"], cfg["epsilon_grid"]
    base_raw, bitwise_ref, failed = None, None, 0
    for s in studies:
        try:
            rep = reference.read_report(s["out_dir"])
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            problems.append(f"unreadable report in {s['out_dir']}: {exc!r}")
            s["failed_jobs"] = w.jobs
            failed += w.jobs
            continue
        whole, bad_rows, missing = reference.check(rep, ref, grid)
        if base_raw is None:
            base_raw = rep["raw"]
            if cfg["seed"] == w.default_seed:
                bitwise_ref = rep["raw"].decode() == ref["default_seed_rate_report_csv"]
        elif rep["raw"] != base_raw:
            what = (f"workers={s['invariance']}" if "invariance" in s
                    else "a traced study" if s["traced"] else "a repeat")
            whole.append(f"rate_report.csv of {what} differs from the first study's")
        raised_eps = {float(e) for e, _ in s["failures"]}
        # a row goes missing when one of its jobs raised; charge only those
        # jobs, or the whole row when nothing raised to explain it
        unexplained = [i for i in missing
                       if not any(math.isclose(grid[i], e, rel_tol=1e-12) for e in raised_eps)]
        problems.extend(whole)
        if s["failures"]:
            problems.append(f"{len(s['failures'])} job(s) raised: {s['failures'][:3]}")
        problems += [f"epsilon={grid[i]} has no row in rate_report.csv" for i in unexplained]
        problems += [f"epsilon={grid[i]} error_sq outside the reference tolerance"
                     for i in bad_rows]
        charged = len(s["failures"]) + reps * (len(bad_rows) + len(unexplained))
        s["failed_jobs"] = w.jobs if whole else min(w.jobs, charged)
        failed += s["failed_jobs"]
    return failed, bitwise_ref


def traced_metrics(studies, plain, problems):
    traced = []
    for s in studies:
        if not s["traced"]:
            continue
        try:
            traced.append((s, spans.load(s["spans"])))
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable trace {s['spans']}: {exc!r}")
    if not traced:
        return {k: 0 for k in PER_LAYER}, {}
    sigs = [spans.count_signature(t) for _, t in traced]
    if any(sig != sigs[0] for sig in sigs[1:]):
        problems.append("traced runs disagree on span or work counts")
    # every layer figure from one traced study, the one with the median wall
    # time, so that its self times add up to its own study_s
    per_run = sorted(((spans.layer_metrics(t), s) for s, t in traced),
                     key=lambda ms: ms[0]["trace.study_s"])
    metrics, chosen = per_run[(len(per_run) - 1) // 2]
    # jobs that raised or failed the output check, by the benchmark's count
    metrics["study.failed_jobs"] = chosen.get("failed_jobs", 0)
    # each traced study against the plain study started just before it, so
    # that slow drift of the host's speed over the run drops out of the ratio;
    # faster swings remain, hence the median over the pairs
    pairs = [(p, t) for p, t in zip(studies, studies[1:])
             if not p["traced"] and t["traced"] and "invariance" not in p]
    ratios = [t["study_s"] / p["study_s"] - 1.0 for p, t in pairs]
    metrics["trace.overhead_frac"] = statistics.median(ratios) if ratios else 0.0
    # a consistency assertion on the span bookkeeping, not a measurement:
    # self times telescope to the root span's duration unless some span
    # under the study is missing from spans.ACCOUNTING
    accounted = sum(metrics[k] for k in spans.ACCOUNTING)
    gap = abs(accounted - metrics["trace.study_s"]) / metrics["trace.study_s"]
    if gap > 1e-6:
        problems.append(f"spans.ACCOUNTING misses a layer: self times miss the traced "
                        f"study_s by {gap:.3g}")
    extra = {"untraced_study_s": statistics.median([s["study_s"] for s in plain]),
             "overhead_frac_pairs": ratios,
             "spans_per_study": traced[0][1]["n_spans"],
             "self_time_accounting": {k: metrics[k] for k in spans.ACCOUNTING},
             "counts_repeat_exactly": all(sig == sigs[0] for sig in sigs)}
    return metrics, extra


def print_result(res: dict, mach: dict):
    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"studies {res['studies']}  elapsed {res['elapsed_s']:.1f} s")
    for k, m in res["metrics"].items():
        print(f"  {k:34s} {m['value']:>16.6g} {m['unit']}")
    for k, v in res.get("wall", {}).items():
        print(f"  {k + '_wall':34s} {v:>16.6g} s (not normalised)")
    print(f"  {'failed_frac':34s} {res['failed_frac']:>16.6g} fraction "
          f"({res['failed']} of {res['attempted']} jobs)")
    if "self_time_accounting" in res:
        total = sum(res["self_time_accounting"].values())
        print(f"  self times {total:.6f} s = traced study_s (bookkeeping check) "
              f"{res['metrics']['trace.study_s']['value']:.6f} s")
    if res["bitwise_equal_reference"] is not None:
        print(f"  bitwise equal to the recorded default-seed report: "
              f"{res['bitwise_equal_reference']} (information only)")
    for p in res["problems"]:
        print(f"  PROBLEM: {p}")
    print("machine " + json.dumps(mach, sort_keys=True))


def run_all(seconds: float, out: str):
    """Every workload, untraced and traced, each run in its own process."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"{name} trace={trace} exited with {proc.returncode}")
            detail = next(json.loads(ln[len("detail "):]) for ln in proc.stdout.splitlines()
                          if ln.startswith("detail "))
            results.setdefault(name, {})[f"trace{trace}"] = detail
    doc = {"machine": machine(), "seconds": seconds, "results": results,
           "profile_figures": profile_figures(results)}
    Path(out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


def profile_figures(results) -> dict:
    """Figures comparable with the hot-spot profile quoted in ROADMAP.md."""
    def m(name, trace, key):
        return results[name][f"trace{trace}"]["metrics"][key]["value"]

    porous_steps = m("porous-spde", 1, "integrate.micro_steps")
    return {
        "ns_per_normal_linear": m("linear-exact", 1, "noise.ns_per_normal"),
        "ns_per_frozen_particle_step_cubic":
            1e9 * m("cubic-hmm", 0, "study_s") / m("cubic-hmm", 1, "averaging.frozen_particle_steps"),
        "ms_per_coupled_step_porous": 1e3 * m("porous-spde", 0, "study_s") / porous_steps,
        "banded_solves_per_coupled_step_porous":
            m("porous-spde", 1, "spatial.banded_solves") / porous_steps,
    }


def record_reference():
    """Rewrite reference/<name>.json from REFERENCE_SEEDS studies per config."""
    commit = machine()["commit"]
    done = set()
    for w in WORKLOADS.values():
        if w.reference in done:
            continue
        done.add(w.reference)
        seeds = [w.default_seed] + list(range(1, REFERENCE_SEEDS))
        wdir = WORK / f"reference-{w.reference}"
        shutil.rmtree(wdir, ignore_errors=True)
        reports = []
        for seed in seeds:
            s = run_child(w.config(seed, workers=1), wdir / f"seed{seed}", timeout=600.0)
            reports.append(reference.read_report(s["out_dir"]))
            print(f"{w.reference} seed {seed}: slope {reports[-1]['slope']:.3f} "
                  f"{reports[-1]['verdict']} ({s['study_s']:.2f} s)", flush=True)
        doc = reference.summarize(reports, seeds, reports[0]["raw"], commit)
        doc["config"] = w.config(w.default_seed, workers=1)
        Path(reference.reference_path(w.reference)).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {reference.reference_path(w.reference)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, help="workload seed (default: the bundled config's)")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=str(HERE / "baseline.json"),
                   help="result file of --workload all")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)

    if not (SRC / "mvavg" / "__init__.py").is_file():
        print(f"ratebench: no mvavg sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        run_all(args.seconds, args.out)
        return 0
    w = WORKLOADS[args.workload]
    seed = w.default_seed if args.seed is None else args.seed
    res = run_workload(args.workload, seed, args.seconds, bool(args.trace))
    print_result(res, machine())
    print("detail " + json.dumps(res, sort_keys=True))
    print(json.dumps({"correct": res["failed"] == 0 and not res["problems"],
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
