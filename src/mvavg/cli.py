"""Command-line front end.

Subcommands: simulate, freeze, average, rate-study, probe, aux.
Exit codes: 0 success, 2 config error, 3 blow-up, 4 a failed check (the
rate-study verdict, or a probe property).
The MVAVG_SEED environment variable overrides the config-file seed; an
explicit --seed flag overrides both.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import noise as noise_mod
from . import study
from .averaging import AveragedRunner, default_frozen_params, estimate_fbar, write_fbar_cache
from .integrate import BlowUpError, FullRunner, TrajectoryRecorder
from .measure import MeasureMoments
from .models import run_probe_suite
from .study import ConfigError, StudyConfig, run_aux_diagnostic, run_rate_study, write_report


def _parse_value(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _load_cfg(args) -> StudyConfig:
    overrides = {key: val for key, val in (("model", args.model), ("out_dir", args.out),
                                           ("workers", args.workers), ("seed", args.seed))
                 if val is not None}
    for kv in args.param or []:
        if "=" not in kv:
            raise ConfigError(f"--param expects key=value, got {kv!r}")
        key, val = kv.split("=", 1)
        overrides.setdefault("model_params", {})[key] = _parse_value(val)
    return study.load_config(args.config, overrides)


def _epsilon_params(cfg: StudyConfig, flag):
    """The --epsilon value (default: the first grid point) and its step bundle."""
    if flag is None and not cfg.epsilon_grid:
        raise ConfigError("epsilon_grid: empty, and no --epsilon given")
    epsilon = flag if flag is not None else cfg.epsilon_grid[0]
    try:
        return epsilon, cfg.params_for(epsilon)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"--epsilon: {exc}") from exc


def _parse_vector(flag: str, text: str, dim: int) -> np.ndarray:
    """A comma-separated vector flag of ``dim`` finite numbers."""
    try:
        v = np.array([float(t) for t in text.split(",")])
    except ValueError:
        v = None
    if v is None or v.shape != (dim,) or not np.isfinite(v).all():
        raise ConfigError(f"{flag}: expected {dim} comma-separated finite number(s), "
                          f"got {text!r}")
    return v


# FrozenParams fields set by freeze flags; their range errors name the field first
_FREEZE_FLAGS = {"burn_in": "--burn-in", "sample_horizon": "--horizon",
                 "h_micro": "--h", "replicas": "--replicas",
                 "n_steps": "--burn-in/--horizon/--h"}


def _cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    model = cfg.build_model()
    epsilon, params = _epsilon_params(cfg, args.epsilon)
    x0, y0 = cfg.initial_states(model)
    rec = TrajectoryRecorder(stride_steps=max(1, params.n_steps // cfg.record_points))
    FullRunner(model, x0, y0, cfg.n_particles, params, (noise_mod.NoisePlan(cfg.seed),)).run(rec)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "trajectories.csv")
    rec.dump_csv(path)
    print(f"simulated {cfg.model} at epsilon={epsilon:g} "
          f"({params.n_steps} steps, N={cfg.n_particles}); wrote {path}")
    if rec.moment_flag(model):
        print("WARNING: fast second-moment diagnostic exceeded its bound")
    return 0


def _cmd_freeze(args) -> int:
    cfg = _load_cfg(args)
    model = cfg.build_model()
    x = _parse_vector("--x", args.x, model.slow_dim)
    mu_mean = (_parse_vector("--mu-mean", args.mu_mean, model.slow_dim)
               if args.mu_mean else np.zeros(model.slow_dim))
    if not 0.0 <= args.mu_m2 < math.inf:
        raise ConfigError(f"--mu-m2: expected a finite number >= 0, got {args.mu_m2!r}")
    mu = MeasureMoments(mean=mu_mean, second_moment=args.mu_m2)
    try:
        fp = default_frozen_params(model, x, mu, burn_in=args.burn_in,
                                   sample_horizon=args.horizon, h_micro=args.h,
                                   replicas=args.replicas)
        est = estimate_fbar(model, fp, noise_mod.NoisePlan(cfg.seed))
    except ValueError as exc:
        flag = _FREEZE_FLAGS.get(str(exc).split(" ", 1)[0].split("=", 1)[0])
        if flag is None:
            raise
        raise ConfigError(f"{flag}: {exc}") from exc
    for i, (v, se) in enumerate(zip(est.fbar, est.std_error)):
        print(f"fbar[{i}] = {v:.10g} +- {se:.3g}  (n_effective={est.n_effective})")
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "fbar_cache.csv")
    write_fbar_cache([(float(x[0]), float(mu.mean[0]), mu.second_moment,
                       float(est.fbar[0]), float(est.std_error[0]))], path)
    print(f"wrote {path}")
    return 0


def _cmd_average(args) -> int:
    cfg = _load_cfg(args)
    model = cfg.build_model()
    epsilon, params = _epsilon_params(cfg, args.epsilon)
    cfg.check_frozen_counter(model, params)
    x0, _ = cfg.initial_states(model)
    rec = TrajectoryRecorder(stride_steps=max(1, params.n_steps // cfg.record_points))
    runner = AveragedRunner(model, x0, cfg.n_particles, params, (noise_mod.NoisePlan(cfg.seed),),
                            hmm=cfg.hmm_config(model), collect_fbar_cache=True).run(rec)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "averaged_trajectories.csv")
    rec.dump_csv(path)
    print(f"averaged run of {cfg.model} ({cfg.averaged_mode} fbar, "
          f"{params.n_steps} steps); wrote {path}")
    if runner.fbar_cache:
        cache_path = os.path.join(cfg.out_dir, "fbar_cache.csv")
        write_fbar_cache(runner.fbar_cache, cache_path)
        print(f"wrote {cache_path}")
    return 0


def _cmd_rate_study(args) -> int:
    cfg = _load_cfg(args)
    report = run_rate_study(cfg)
    paths = write_report(report, cfg.out_dir)
    with open(paths["summary"]) as fh:
        sys.stdout.write(fh.read())
    return 0 if report.passed else 4


def _cmd_probe(args) -> int:
    cfg = _load_cfg(args)
    model = cfg.build_model()
    if args.samples < 0:
        raise ConfigError(f"--samples: expected an integer >= 0, got {args.samples}")
    reports = run_probe_suite(model, n_samples=args.samples, seed=cfg.seed)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        line = (f"{status} {model.model_id} {rep.property}: "
                f"worst_margin={rep.worst_margin:.3g} over {rep.samples} samples")
        if rep.violating_witness is not None:
            line += f" (witness slack {rep.violating_witness['slack']:.3g})"
        print(line)
    return 0 if all(rep.passed for rep in reports) else 4


def _cmd_aux(args) -> int:
    cfg = _load_cfg(args)
    epsilon, _ = _epsilon_params(cfg, args.epsilon)
    table = run_aux_diagnostic(cfg, epsilon)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "aux_report.csv")
    with open(path, "w") as fh:
        fh.write("delta,gap,gap_over_delta\n")
        for row in table:
            fh.write(f"{row['delta']:.17g},{row['gap']:.17g},{row['gap_over_delta']:.17g}\n")
    with open(path) as fh:
        sys.stdout.write(fh.read())
    gaps = [row["gap"] for row in table]
    print(f"gap monotone increasing in delta: {all(a < b for a, b in zip(gaps, gaps[1:]))}")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON study config")
    common.add_argument("--seed", type=int, help="64-bit seed override")
    common.add_argument("--out", help="output directory")
    common.add_argument("--workers", type=int, help="worker processes")
    common.add_argument("--model", help="registered model id")
    common.add_argument("--param", action="append", metavar="KEY=VALUE",
                        help="model parameter override (repeatable)")

    p = argparse.ArgumentParser(prog="mvavg",
                                description="slow-fast mean-field averaging studies")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", parents=[common],
                        help="one full two-time-scale run; dumps trajectories")
    sp.add_argument("--epsilon", type=float)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("freeze", parents=[common],
                        help="estimate fbar at a frozen (x, measure-moments) point")
    sp.add_argument("--x", required=True, help="frozen slow state (comma separated)")
    sp.add_argument("--mu-mean", help="measure mean (comma separated)")
    sp.add_argument("--mu-m2", type=float, default=0.0, help="measure second moment")
    sp.add_argument("--burn-in", type=float, default=None)
    sp.add_argument("--horizon", type=float, default=200.0)
    sp.add_argument("--h", type=float, default=0.01)
    sp.add_argument("--replicas", type=int, default=4)
    sp.set_defaults(func=_cmd_freeze)

    sp = sub.add_parser("average", parents=[common],
                        help="averaged-equation run; dumps trajectories and fbar cache")
    sp.add_argument("--epsilon", type=float)
    sp.set_defaults(func=_cmd_average)

    sp = sub.add_parser("rate-study", parents=[common],
                        help="full epsilon sweep with report files")
    sp.set_defaults(func=_cmd_rate_study)

    sp = sub.add_parser("probe", parents=[common],
                        help="randomized hypothesis probes for the model")
    sp.add_argument("--samples", type=int, default=10000)
    sp.set_defaults(func=_cmd_probe)

    sp = sub.add_parser("aux", parents=[common],
                        help="block-frozen auxiliary gap diagnostic")
    sp.add_argument("--epsilon", type=float)
    sp.set_defaults(func=_cmd_aux)
    return p


def _warning_printer(show):
    """A ``warnings.showwarning`` that prints the package's own warnings as
    one ``WARNING: <message>`` line on stderr, without the source path and
    line of Python's default format, and hands any other warning to ``show``."""
    package = os.path.dirname(os.path.abspath(__file__))

    def print_warning(message, category, filename, lineno, file=None, line=None):
        if os.path.dirname(os.path.abspath(filename)) == package:
            print(f"WARNING: {message}", file=sys.stderr)
        else:
            show(message, category, filename, lineno, file, line)

    return print_warning


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a rate study's pool workers hand their warnings to this process
        with warnings.catch_warnings():
            warnings.showwarning = _warning_printer(warnings.showwarning)
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
