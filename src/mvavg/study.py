"""Experiment driver: strong-error estimation, epsilon sweeps, rate fitting.

The strong error at one scale separation couples the full system and the
averaged system through shared slow-noise streams (common random numbers) and
the same micro grid, so the difference process isolates the averaging error.
The per-epsilon statistic is the Monte Carlo estimate of

    E [ max over recorded times of ||X_full - X_avg||^2 ]

averaged over particles and independent replications; the replication spread
is the reported standard error.  A least-squares fit of log(error_sq) against
log(epsilon) is compared against the theoretical upper-bound convention: an
error bound of order eps^(1/3) means error_sq may decay no slower than
eps^(2/3), so the verdict passes when the fitted error_sq slope reaches
2/3 * 0.9 (10% slope tolerance) and the errors strictly decrease along the
grid.  Empirical slopes above the bound are expected and fine.
"""
from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import noise as noise_mod
from .averaging import AveragedRunner, FrozenBudgetError, HmmConfig, check_frozen_budget
from .integrate import BlowUpError, FullRunner, MultiscaleParams, march, resolve_params
from .models import REGISTRY, ModelParamError, ModelSpec, build_model, slow_norm_sq

SLOPE_TOLERANCE_FRACTION = 0.1
ERROR_SQ_SLOPE_THRESHOLD = (2.0 / 3.0) * (1.0 - SLOPE_TOLERANCE_FRACTION)
DEFAULT_EPS_GRID = (0.1, 0.05, 0.02, 0.01, 0.005)


class ConfigError(ValueError):
    """Invalid study configuration; the message names the offending key."""


def _check_int(key: str, val):
    if not isinstance(val, numbers.Integral) or isinstance(val, bool):
        raise ConfigError(f"{key}: must be an integer, got {val!r}")


def _check_real(key: str, val):
    if not isinstance(val, numbers.Real) or isinstance(val, bool) or not math.isfinite(val):
        raise ConfigError(f"{key}: must be a finite number, got {val!r}")


def _check_hmm(hmm):
    """The ``hmm`` object: known keys, each of its type and range, or null where allowed."""
    if not isinstance(hmm, dict):
        raise ConfigError(f"hmm: must be a JSON object, got {hmm!r}")
    unknown = set(hmm) - {f.name for f in dataclasses.fields(HmmConfig)}
    if unknown:
        raise ConfigError(f"hmm: unknown key(s): {', '.join(sorted(unknown))}")
    for key, val in hmm.items():
        name = f"hmm.{key}"
        if val is None and key not in ("replicas", "warn_fraction"):
            continue
        if key in ("replicas", "refresh_stride_steps"):
            _check_int(name, val)
            if val < 1:
                raise ConfigError(f"{name}: must be >= 1, got {val!r}")
        else:
            _check_real(name, val)
            if key.startswith("burn_in") and val < 0:
                raise ConfigError(f"{name}: must be >= 0, got {val!r}")
            if not key.startswith("burn_in") and val <= 0:
                raise ConfigError(f"{name}: must be positive, got {val!r}")


def _check_state(key: str, val, dim: int, n_particles: int):
    """An initial state: finite numbers shaped (dim,) or (n_particles, dim)."""
    arr = np.asarray(val, dtype=object)
    if arr.shape not in ((dim,), (n_particles, dim)):
        raise ConfigError(f"{key}: must be a list of {dim} numbers or {n_particles} such "
                          f"lists (one per particle), got {val!r}")
    for v in arr.flat:
        _check_real(key, v)


# model parameters that count something (grid nodes, noise modes)
_INT_MODEL_PARAMS = {"n_interior", "n_slow_modes", "n_fast_modes"}

@dataclass
class StudyConfig:
    model: str = "linear-benchmark"
    model_params: dict = field(default_factory=dict)
    n_particles: Optional[int] = None
    epsilon_grid: tuple = DEFAULT_EPS_GRID
    t_end: float = 1.0
    h_factor: float = 0.02
    delta_exponent: float = 2.0 / 3.0
    replications: int = 8
    seed: int = 2024
    out_dir: str = "out"
    record_points: int = 200
    averaged_mode: str = "exact"
    hmm: dict = field(default_factory=dict)
    workers: int = 1
    x0: Optional[list] = None
    y0: Optional[list] = None
    crn: bool = True

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.model not in REGISTRY:
            raise ConfigError(f"model: unknown id {self.model!r}; known: {sorted(REGISTRY)}")
        for key in ("replications", "record_points", "workers"):
            _check_int(key, getattr(self, key))
        if self.n_particles is not None:
            _check_int("n_particles", self.n_particles)
        for key in ("t_end", "h_factor", "delta_exponent"):
            _check_real(key, getattr(self, key))
        if not isinstance(self.epsilon_grid, (list, tuple)):
            raise ConfigError(f"epsilon_grid: must be a list, got {self.epsilon_grid!r}")
        for e in self.epsilon_grid:
            _check_real("epsilon_grid", e)
        grid = tuple(float(e) for e in self.epsilon_grid)
        if any(not 0.0 < e <= 1.0 for e in grid):
            raise ConfigError("epsilon_grid: every entry must lie in (0, 1]")
        if any(a >= b for a, b in zip(grid[1:], grid[:-1])):
            raise ConfigError("epsilon_grid: epsilon grid must be strictly decreasing")
        self.epsilon_grid = grid
        if self.t_end <= 0:
            raise ConfigError("t_end: must be positive")
        if not 0 < self.h_factor <= 0.1:
            raise ConfigError("h_factor: must lie in (0, 0.1]")
        if self.record_points < 2:
            raise ConfigError("record_points: must be >= 2")
        for e in grid:
            self.params_for(e)
        if self.averaged_mode not in ("exact", "hmm"):
            raise ConfigError("averaged_mode: must be 'exact' or 'hmm'")
        if self.workers < 1:
            raise ConfigError("workers: must be >= 1")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) \
                or not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed: must be an integer in [0, 2^64), got {self.seed!r}")
        if self.n_particles is None:
            self.n_particles = 200 if self.model in ("porous-media-1d", "plaplace-1d") else 1000
        # a particle index and a replication's derive tag each fill a 32-bit counter field
        for key in ("n_particles", "replications"):
            if not 1 <= getattr(self, key) <= noise_mod.PARTICLE_LIMIT:
                raise ConfigError(f"{key}: must lie in [1, 2^32] (a noise counter field), "
                                  f"got {getattr(self, key)}")
        if not isinstance(self.crn, bool):
            raise ConfigError(f"crn: must be true or false, got {self.crn!r}")
        _check_hmm(self.hmm)
        model = self.build_model()
        if model.measure_dependent and self.n_particles < 2:
            raise ConfigError("n_particles: need N >= 2 for measure-dependent models")
        for key, dim in (("x0", model.slow_dim), ("y0", model.fast_dim)):
            if getattr(self, key) is not None:
                _check_state(key, getattr(self, key), dim, self.n_particles)
        for e in grid:
            self.check_frozen_counter(model, self.params_for(e))

    def build_model(self) -> ModelSpec:
        """The model of ``model`` and ``model_params``, each value checked first."""
        if not isinstance(self.model_params, dict):
            raise ConfigError(f"model_params: must be a JSON object, got {self.model_params!r}")
        for key, val in self.model_params.items():
            (_check_int if key in _INT_MODEL_PARAMS else _check_real)(f"model_params.{key}", val)
        try:
            return build_model(self.model, self.model_params)
        except ModelParamError as exc:
            raise ConfigError(f"model_params.{exc}") from exc
        except ArithmeticError as exc:
            given = ", ".join(f"model_params.{k}={v!r}" for k, v in self.model_params.items())
            raise ConfigError(f"model_params: {type(exc).__name__} ({exc}) building "
                              f"{self.model!r} from {given}") from exc

    def params_for(self, epsilon: float) -> MultiscaleParams:
        """The step bundle at ``epsilon``; a run past the noise step counter
        is refused here, before any step."""
        try:
            p = resolve_params(epsilon, self.t_end, h_factor=self.h_factor,
                               delta_exponent=self.delta_exponent)
        except OverflowError as exc:
            raise ConfigError(f"delta_exponent: eps={epsilon:g} to the power "
                              f"{self.delta_exponent:g} overflows") from exc
        if p.t_end / p.h_micro > noise_mod.STEP_LIMIT:
            raise ConfigError(f"t_end: {self.t_end:g} takes {p.t_end / p.h_micro:.3g} steps at "
                              f"eps={epsilon:g}, past the 2^48 steps of the noise counter")
        return p

    def check_frozen_counter(self, model: ModelSpec, p: MultiscaleParams):
        """``averaging.check_frozen_budget`` of an HMM run of ``p``, as a ConfigError."""
        try:
            if self.averaged_mode == "hmm":
                check_frozen_budget(model, HmmConfig(**self.hmm), p,
                                    self.initial_states(model)[0], self.n_particles)
        except FrozenBudgetError as exc:
            raise ConfigError(str(exc)) from exc

    def initial_states(self, model: ModelSpec):
        x0 = np.asarray(self.x0, dtype=float) if self.x0 is not None else model.default_x0
        y0 = np.asarray(self.y0, dtype=float) if self.y0 is not None else model.default_y0
        return x0, y0

    def hmm_config(self, model: ModelSpec) -> Optional[HmmConfig]:
        """The averaged run's ``hmm`` argument for this model: None for the closed form."""
        if self.averaged_mode == "hmm":
            return HmmConfig(**self.hmm)
        if model.exact_fbar is None:
            raise ConfigError(f"averaged_mode: model {self.model!r} has no closed-form "
                              "fbar; use 'hmm'")
        return None


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> StudyConfig:
    """Read the JSON study config at ``path`` (if any), apply overrides, validate.

    The seed comes from ``overrides``, else the MVAVG_SEED environment
    variable, else the file.  A ``model_params`` override is merged into the
    file's parameters; unknown keys are rejected.
    """
    raw = {}
    if path:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config: the file must hold a JSON object")
    if "MVAVG_SEED" in os.environ:
        try:
            raw["seed"] = int(os.environ["MVAVG_SEED"])
        except ValueError as exc:
            raise ConfigError(f"seed: MVAVG_SEED must be an integer: {exc}") from exc
    for key, val in (overrides or {}).items():
        if key == "model_params":
            if not isinstance(raw.get(key, {}), dict):
                raise ConfigError("model_params: must be a JSON object")
            val = {**raw.get(key, {}), **val}
        raw[key] = val
    unknown = set(raw) - {f.name for f in dataclasses.fields(StudyConfig)}
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    try:
        return StudyConfig(**raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# strong error on a group of grid points
# ---------------------------------------------------------------------------

def _coupled_error_once(cfg: StudyConfig, eps_indices, reps) -> list:
    """One job: lockstep full/averaged runs of a group of grid points under shared slow noise.

    Stacks the grid points ``eps_indices`` on the runners' leading axis, and
    behind it the replications ``reps`` (a tuple of replication indices),
    each on its own plan; every (grid point, replication) keeps its own
    empirical measure.
    Every grid point reads the same streams from step 0, so one ``march`` of
    both runners up to the group's largest ``n_steps`` draws each window of
    each stream once, and one Python step advances every grid point still on
    the stack at one step index.  The march stops at the next sup time of
    any grid point on the stack (every multiple of its stride, and its last
    step) and at window ends.  At its own sup times a grid point is
    checked for blow-up, full rows first, and its sup-norm maximum taken; it
    leaves the stack when it finishes or blows up.  Returns, per grid point,
    either one (error_sq, aux_gap, increment_stat) per replication, the same
    numbers as running each replication and grid point alone, or the
    BlowUpError that stopped it; a blow-up drops that grid point only.
    """
    model = cfg.build_model()
    plans = [noise_mod.NoisePlan(cfg.seed).derive(4242, rep) for rep in reps]
    seeds = ",".join(str(p.seed) for p in plans)
    x0, y0 = cfg.initial_states(model)
    N = cfg.n_particles
    params = [cfg.params_for(cfg.epsilon_grid[i]) for i in eps_indices]
    live = list(range(len(params)))     # the grid points on the stack, in stack order
    deltas = [p.delta_block for p in params]
    full = FullRunner(model, x0, y0, N, params, plans,
                      aux_deltas=(deltas,), increment_delta=deltas)
    avg = AveragedRunner(model, x0, N, params, plans,
                         hmm=cfg.hmm_config(model),
                         slow_kind=noise_mod.SLOW if cfg.crn else noise_mod.SLOW_ALT)
    strides = [max(1, p.n_steps // cfg.record_points) for p in params]
    sup_sq = [np.zeros((len(reps), N)) for _ in params]
    outcomes = [None] * len(params)

    def next_sup(k):
        return min(min(k - k % strides[j] + strides[j], params[j].n_steps) for j in live)

    for stop, _ in march((full, avg), max(p.n_steps for p in params), next_sup):
        for g, j in enumerate(live):
            if stop % strides[j] and stop < params[j].n_steps:
                continue
            eps = cfg.epsilon_grid[eps_indices[j]]
            try:
                full.check_finite(g, f"full eps={eps:g} seed={seeds}")
                avg.check_finite(g, f"averaged eps={eps:g} seed={seeds}")
            except BlowUpError as exc:
                outcomes[j] = exc
                continue
            np.maximum(sup_sq[j], slow_norm_sq(model, full.X[g] - avg.X[g]), out=sup_sq[j])
            if stop == params[j].n_steps:
                outcomes[j] = [(float(np.mean(s)), float(a), float(c)) for s, a, c in
                               zip(sup_sq[j], full.aux_gap[0, g], full.increment_stat[g])]
        keep = [g for g, j in enumerate(live) if outcomes[j] is None]
        if len(keep) < len(live):
            live = [live[g] for g in keep]
            if not live:
                break
            full.leave(keep)
            avg.leave(keep)
    return outcomes


def _grid_points(cfg: StudyConfig, eps_indices) -> list:
    """Per grid point of ``eps_indices``: its replication results, a BlowUpError for each blow-up.

    The group runs as one job, its grid points and replications stacked
    (see ``_coupled_error_once``).  A grid point whose replications blow up
    is run again one replication at a time, so that each failure names its
    own time, particle and seed; any other error propagates.
    """
    reps = tuple(range(cfg.replications))
    outcomes = _coupled_error_once(cfg, eps_indices, reps)
    for j, (i, out) in enumerate(zip(eps_indices, outcomes)):
        if isinstance(out, BlowUpError):
            alone = ([_coupled_error_once(cfg, (i,), (rep,))[0] for rep in reps]
                     if len(reps) > 1 else [out])
            outcomes[j] = [a if isinstance(a, BlowUpError) else a[0] for a in alone]
    return outcomes


def _pooled_grid_points(cfg: StudyConfig, eps_indices):
    """``_grid_points`` in a pool worker, with the warnings it raised as
    ``warn_explicit`` arguments: the parent issues them again, so that they
    reach its own filters and display whatever the start method."""
    with warnings.catch_warnings(record=True) as caught:
        outcomes = _grid_points(cfg, eps_indices)
    return outcomes, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def aggregate(epsilon: float, results) -> RateRow:
    """One grid point's row from its replication results, in replication order.

    Replications are independent seeds; within a replication the particles
    share one empirical measure, so the standard error is taken across
    replications only.
    """
    errs = np.array([r[0] for r in results])
    se = float(errs.std(ddof=1) / math.sqrt(len(errs))) if len(errs) > 1 else 0.0
    return RateRow(epsilon, float(errs.mean()), se,
                   float(np.mean([r[1] for r in results])),
                   float(np.mean([r[2] for r in results])))


# ---------------------------------------------------------------------------
# rate study and report
# ---------------------------------------------------------------------------

@dataclass
class RateRow:
    epsilon: float
    error_sq: float
    std_error: float
    aux_gap: float
    increment_stat: float


@dataclass
class RateReport:
    rows: list
    slope: float
    intercept: float
    r_squared: float
    slope_error_rate: float
    threshold: float
    strictly_decreasing: bool
    verdict: str
    incomplete: bool = False
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def fit_loglog(epsilons, errors_sq):
    """Least-squares slope/intercept/r^2 of log(error_sq) vs log(epsilon)."""
    x = np.log(np.asarray(epsilons, dtype=float))
    y = np.log(np.asarray(errors_sq, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)


def assemble_report(rows, incomplete=False, failures=()) -> RateReport:
    eps = [r.epsilon for r in rows]
    errs = [r.error_sq for r in rows]
    if len(rows) >= 2 and all(e > 0 for e in errs):
        slope, intercept, r2 = fit_loglog(eps, errs)
    else:
        slope, intercept, r2 = float("nan"), float("nan"), float("nan")
    decreasing = all(b < a for a, b in zip(errs[:-1], errs[1:]))
    passed = (not incomplete and np.isfinite(slope)
              and slope >= ERROR_SQ_SLOPE_THRESHOLD and decreasing)
    return RateReport(rows=list(rows), slope=slope, intercept=intercept,
                      r_squared=r2, slope_error_rate=slope / 2.0 if np.isfinite(slope) else slope,
                      threshold=ERROR_SQ_SLOPE_THRESHOLD,
                      strictly_decreasing=decreasing,
                      verdict="pass" if passed else "fail",
                      incomplete=incomplete, failures=list(failures))


def _groups(cfg: StudyConfig, n_groups: int) -> list:
    """The grid point indices in ``n_groups`` jobs of about equal steps, heaviest job first.

    Grid points are assigned longest first, each to the group with the fewest
    steps so far.
    """
    steps = [cfg.params_for(e).n_steps for e in cfg.epsilon_grid]
    groups = [[] for _ in range(n_groups)]
    loads = [0] * n_groups
    for i in sorted(range(len(steps)), key=lambda i: -steps[i]):
        g = loads.index(min(loads))
        groups[g].append(i)
        loads[g] += steps[i]
    return [tuple(sorted(groups[g])) for g in sorted(range(n_groups), key=lambda g: -loads[g])]


def run_rate_study(cfg: StudyConfig) -> RateReport:
    """Full epsilon sweep with the configured worker count.

    One job runs every grid point with ``workers = 1``; with ``workers = W > 1``
    the grid points are split into min(W, grid size) jobs of about equal steps
    on a process pool, the heaviest submitted first.  A grid point with a
    blown-up replication is recorded as a failure and left out, and the
    report is then marked incomplete; any other error is raised.
    """
    if len(cfg.epsilon_grid) < 3:
        raise ConfigError("epsilon_grid: a rate study needs at least 3 grid points")
    cfg.hmm_config(cfg.build_model())   # a config error before any job runs
    groups = _groups(cfg, min(cfg.workers, len(cfg.epsilon_grid)))
    if len(groups) > 1:
        # imported here, so that a one-job study does not pay for it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=len(groups)) as pool:
            futs = [pool.submit(_pooled_grid_points, cfg, g) for g in groups]
            results = []
            for f in futs:
                res, caught = f.result()
                for args in caught:
                    warnings.warn_explicit(*args)
                results.append(res)
    else:
        results = [_grid_points(cfg, g) for g in groups]
    outcomes = {i: per for g, res in zip(groups, results) for i, per in zip(g, res)}

    rows, failures = [], []
    for i, epsilon in enumerate(cfg.epsilon_grid):
        failed = [exc for exc in outcomes[i] if isinstance(exc, BlowUpError)]
        failures += [(epsilon, repr(exc)) for exc in failed]
        if not failed:
            rows.append(aggregate(epsilon, outcomes[i]))
    return assemble_report(rows, incomplete=bool(failures), failures=failures)


def run_aux_diagnostic(cfg: StudyConfig, epsilon: float) -> list:
    """Time-integrated fast-vs-frozen-block gap for a ladder of block sizes.

    The ladder: delta in {eps, eps^(2/3), eps^(1/2)}.  Returns one dict
    per delta with the gap and the gap/delta ratio (the bound shape is linear
    in delta).  One runner steps the true path once, with one auxiliary
    process per delta, and runs the ``derive(777, rep)`` replications as one
    batch.
    """
    model = cfg.build_model()
    params = cfg.params_for(epsilon)
    x0, y0 = cfg.initial_states(model)
    d_effs = [max(1, round(d / params.h_micro)) * params.h_micro
              for d in (epsilon, epsilon ** (2.0 / 3.0), epsilon ** 0.5)]
    plans = [noise_mod.NoisePlan(cfg.seed).derive(777, rep) for rep in range(cfg.replications)]
    seeds = ",".join(str(p.seed) for p in plans)
    runner = FullRunner(model, x0, y0, cfg.n_particles, params, plans, aux_deltas=d_effs,
                        context=f"aux eps={epsilon:g} seed={seeds}").run()
    gaps = [float(np.mean(g)) for g in runner.aux_gap[:, 0]]
    return [{"delta": d, "gap": g, "gap_over_delta": g / d} for d, g in zip(d_effs, gaps)]


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return f"{v:.17g}"


def write_report(report: RateReport, out_dir: str) -> dict:
    """Emit rate_report.csv, fit.csv and a plain-text summary; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    rate_path = os.path.join(out_dir, "rate_report.csv")
    with open(rate_path, "w") as fh:
        fh.write("epsilon,error_sq,std_error,aux_gap,increment_stat\n")
        for r in report.rows:
            fh.write(",".join(_fmt(v) for v in
                              (r.epsilon, r.error_sq, r.std_error,
                               r.aux_gap, r.increment_stat)) + "\n")
    fit_path = os.path.join(out_dir, "fit.csv")
    with open(fit_path, "w") as fh:
        fh.write("slope,intercept,r_squared,verdict\n")
        fh.write(f"{_fmt(report.slope)},{_fmt(report.intercept)},"
                 f"{_fmt(report.r_squared)},{report.verdict}\n")
    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w") as fh:
        fh.write("strong averaging rate study\n")
        fh.write(f"grid points: {len(report.rows)}\n")
        for r in report.rows:
            fh.write(f"  epsilon={r.epsilon:g}  error_sq={r.error_sq:.6g}"
                     f"  std_error={r.std_error:.3g}  aux_gap={r.aux_gap:.4g}"
                     f"  increment_stat={r.increment_stat:.4g}\n")
        fh.write(f"fitted error_sq slope: {report.slope:.4f}"
                 f" (error-rate convention: {report.slope_error_rate:.4f})\n")
        fh.write(f"threshold on error_sq slope: {report.threshold:.4f}"
                 f" (= 2/3 with {SLOPE_TOLERANCE_FRACTION:.0%} tolerance)\n")
        fh.write(f"strictly decreasing: {report.strictly_decreasing}\n")
        fh.write(f"verdict: {report.verdict}\n")
        if report.incomplete:
            fh.write("WARNING: report incomplete; failed grid points:\n")
            for eps, msg in report.failures:
                fh.write(f"  epsilon={eps:g}: {msg}\n")
    return {"rate_report": rate_path, "fit": fit_path, "summary": summary_path}

