"""Frozen fast dynamics, ergodic averaging, and the averaged slow equation.

The frozen equation runs the fast coefficients with the slow state x and the
measure snapshot mu held fixed, at unit time scale:

    dY = a2(x, mu, Y) dt + b2(x, mu, Y) dW

Its invariant law defines the averaged coupling drift

    fbar(x, mu) = E_nu [ f(x, mu, Y) ],

estimated here by time averages over one or more frozen paths after a
burn-in, with batch-means error bars.  The averaged slow equation replaces
f(X, mu, Y) by fbar(X, mu) and is driven by the SAME slow-noise streams as
the full system, so full/averaged pairs built on one seed are coupled by
common random numbers at every micro step.  Like the full system it runs a
stack of G grid points and a sequence of R noise plans with state
(G, R, N, d), one replication per plan; frozen paths are marched per grid
point, as (R, P, fast_dim).

fbar is supplied either in closed form (models that declare ``exact_fbar``)
or by embedded frozen runs refreshed on a macro stride (heterogeneous
multiscale mode); embedded runs are warm-started between refreshes since the
slow state only moves O(stride) per refresh.  At a refresh every particle of
a replication sees the same mu, so for a scalar slow state the frozen law
varies with x alone: fbar is estimated on a table of ``HMM_NODES`` equally
spaced nodes over the replication's particle range and interpolated
linearly, and the frozen work no longer grows with N.  Field models
(slow_dim > 1) estimate one row per particle.  Either way each estimate
averages ``hmm.replicas`` independent frozen paths.
"""
from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import noise as noise_mod
from .integrate import (BlowUpError, MultiscaleParams, _check_finite, _FastSolver,
                        _measure_at, _SlowRunner)
from .measure import MeasureMoments
from .models import ModelSpec, empirical_view, fast_norm_sq

MIN_SAMPLE_STEPS = 20
BATCHES_PER_PATH = 20
# nodes of a replication's fbar table in HMM mode (scalar slow state)
HMM_NODES = 16


class MixingFailure(RuntimeError):
    """Shared-noise frozen copies refused to contract: no mixing evidence."""


@dataclass
class FrozenParams:
    """One frozen-equation run: frozen arguments, horizon, and resolution."""

    x_frozen: np.ndarray
    mu_frozen: MeasureMoments
    y_init: np.ndarray
    burn_in: float
    sample_horizon: float
    h_micro: float = 0.01
    replicas: int = 4

    def __post_init__(self):
        self.x_frozen = np.asarray(self.x_frozen, dtype=float).reshape(-1)
        self.y_init = np.asarray(self.y_init, dtype=float).reshape(-1)
        # a NaN fails every comparison, so each range is stated as what passes
        if not 0 <= self.burn_in < math.inf:
            raise ValueError(f"burn_in must be finite and >= 0, got {self.burn_in!r}")
        if not 0 < self.sample_horizon < math.inf:
            raise ValueError(f"sample_horizon must be finite and positive, "
                             f"got {self.sample_horizon!r}")
        if not 0 < self.h_micro < math.inf:
            raise ValueError(f"h_micro must be finite and positive, got {self.h_micro!r}")
        if not 1 <= self.replicas <= noise_mod.PARTICLE_LIMIT:   # path i is stream particle i
            raise ValueError(f"replicas must lie in [1, 2^32], got {self.replicas!r}")
        n = (self.burn_in + self.sample_horizon) / self.h_micro
        if n > noise_mod.STEP_LIMIT:
            raise ValueError(f"n_steps={n:.3g} of (burn_in {self.burn_in:g} + sample_horizon "
                             f"{self.sample_horizon:g}) / h_micro passes the noise counter's 2^48")


def default_frozen_params(model: ModelSpec, x_frozen, mu_frozen, y_init=None,
                          burn_in: Optional[float] = None, sample_horizon: float = 200.0,
                          h_micro: float = 0.01, replicas: int = 4) -> FrozenParams:
    """Burn-in by default 8 / (declared dissipativity rate): residual bias ~ e^-8."""
    return FrozenParams(
        x_frozen=x_frozen, mu_frozen=mu_frozen,
        y_init=model.default_y0 if y_init is None else y_init,
        burn_in=8.0 / model.constants.get("lam", 1.0) if burn_in is None else burn_in,
        sample_horizon=sample_horizon, h_micro=h_micro, replicas=replicas)


def _frozen_batch(model, x_frozen, mu, h, plans, paths_y0, n_steps, on_sample=None,
                  start_step=0, context="frozen run"):
    """March R blocks of frozen paths at step h; optionally visit each post-step state.

    ``paths_y0`` is (R, P, fast_dim), block r driven by ``plans[r]``.  Row i
    of ``x_frozen`` (or the one shared row) is the slow state that path i
    sees; path i consumes stream (FROZEN, particle=i) from ``start_step`` on,
    so two marches from the same plan and start step share increments.  The
    march takes its noise from ``noise.windows`` and checks for blow-up at
    each window end, a failure naming ``context`` and the march's own time.
    """
    Xa = np.broadcast_to(x_frozen, paths_y0.shape[:-1] + (model.slow_dim,))
    solver = _FastSolver(model, h)
    frc = model.a2_split[1](Xa, mu) if model.a2_split is not None else None
    Z = paths_y0
    k = 0
    for _, (xi,) in noise_mod.windows(plans, [(noise_mod.FROZEN, model.n_fast_modes)],
                                      start_step, start_step + n_steps, paths_y0.shape[-2]):
        for xi_k in xi:
            Z = solver.step(Xa, mu, Z, xi_k, forcing=frc)
            k += 1
            if on_sample is not None:
                on_sample(k, Z)
        _check_finite(Xa, Z, k * h, context)
    return Z


def frozen_simulate(model: ModelSpec, fp: FrozenParams, noise: noise_mod.NoisePlan,
                    n_paths: int = 1, record_stride: int = 1):
    """Simulate frozen fast paths; return (times, paths) past the burn-in.

    ``paths`` has shape (n_recorded, n_paths, fast_dim).  Paths share nothing
    but the frozen arguments; path i consumes stream (FROZEN, particle=i).
    With burn_in = 0 the trajectory is returned from t = 0 (initial state
    included), which is what the shared-noise contraction diagnostics use.
    """
    h = fp.h_micro
    n_steps = int(round((fp.burn_in + fp.sample_horizon) / h))
    Z = np.broadcast_to(fp.y_init, (1, n_paths, model.fast_dim)).copy()
    times, snaps = [], []
    if fp.burn_in == 0:
        times.append(0.0)
        snaps.append(Z[0].copy())

    def visit(k, Zk):
        t = k * h
        if k % record_stride == 0 and t >= fp.burn_in - 1e-12:
            times.append(t)
            snaps.append(Zk[0].copy())

    _frozen_batch(model, fp.x_frozen, fp.mu_frozen, h, (noise,), Z, n_steps, on_sample=visit)
    return np.asarray(times), np.stack(snaps)


@dataclass
class FrozenEstimate:
    """Ergodic estimate of fbar(x, mu) with batch-means error bars."""

    fbar: np.ndarray
    std_error: np.ndarray
    n_effective: int


def estimate_fbar(model: ModelSpec, fp: FrozenParams,
                  noise: noise_mod.NoisePlan) -> FrozenEstimate:
    """Time-average f(x, mu, Y_t) over the post-burn-in frozen path(s).

    Averages ``fp.replicas`` independent paths; the standard error pools
    batch means (>= 20 batches per path) across replicas, so autocorrelation
    on the batch scale is priced in.  Deterministic given the noise seed.
    """
    h = fp.h_micro
    n_burn = int(round(fp.burn_in / h))
    n_samp = int(round(fp.sample_horizon / h))
    if n_samp < MIN_SAMPLE_STEPS:
        raise ValueError(
            f"sample_horizon={fp.sample_horizon} is under {MIN_SAMPLE_STEPS} steps "
            f"at h={h}; refusing a meaningless batch-means estimate")
    batch_len = n_samp // BATCHES_PER_PATH
    n_samp = batch_len * BATCHES_PER_PATH
    R = fp.replicas
    Z = np.broadcast_to(fp.y_init, (1, R, model.fast_dim)).copy()
    Xa = np.broadcast_to(fp.x_frozen, (R, model.slow_dim))
    mu = fp.mu_frozen
    batch_sums = np.zeros((R, BATCHES_PER_PATH, model.slow_dim))

    def visit(k, Zk):
        j = k - n_burn - 1
        if 0 <= j < n_samp:
            batch_sums[:, j // batch_len, :] += model.f(Xa, mu, Zk[0])

    _frozen_batch(model, fp.x_frozen, mu, h, (noise,), Z, n_burn + n_samp, on_sample=visit)
    batch_means = batch_sums / batch_len
    flat = batch_means.reshape(R * BATCHES_PER_PATH, model.slow_dim)
    fbar = flat.mean(axis=0)
    n_batches = flat.shape[0]
    if n_batches > 1:
        se = flat.std(axis=0, ddof=1) / math.sqrt(n_batches)
    else:
        se = np.zeros(model.slow_dim)
    return FrozenEstimate(fbar=fbar, std_error=se, n_effective=n_batches)


def estimate_mixing_rate(model: ModelSpec, fp: FrozenParams, y_alt,
                         noise: noise_mod.NoisePlan, n_pairs: int = 1,
                         rel_floor: float = 1e-12, min_points: int = 8) -> float:
    """Fit the mean-square contraction rate of two shared-noise frozen copies.

    Runs the frozen dynamics from y_init and y_alt with identical Gaussian
    increments, fits log E||Y - Y'||^2 against t by least squares over the
    window before the gap collapses into the noise floor, and returns the
    decay rate (so additive-noise linear models give exactly twice their
    drift rate).  Raises :class:`MixingFailure` when the gap does not decay.
    """
    y_alt = np.asarray(y_alt, dtype=float).reshape(-1)
    if np.allclose(y_alt, fp.y_init):
        raise ValueError("y_alt must differ from y_init")
    fp = dataclasses.replace(fp, burn_in=0.0)
    t, path = frozen_simulate(model, fp, noise, n_pairs)
    _, alt = frozen_simulate(model, dataclasses.replace(fp, y_init=y_alt), noise, n_pairs)
    gaps = np.mean(fast_norm_sq(model, path - alt), axis=-1)
    valid = gaps > gaps[0] * rel_floor
    # stop at the first collapsed point: later samples are noise-floor chatter
    cut = int(np.argmin(valid)) if not valid.all() else len(gaps)
    t, g = t[:cut], gaps[:cut]
    if len(g) < min_points or not np.all(g > 0):
        raise MixingFailure("gap collapsed too fast to fit a rate")
    slope = np.polyfit(t, np.log(g), 1)[0]
    if slope >= 0:
        raise MixingFailure(
            f"mean-square gap did not decay (fitted rate {-slope:.3g}); "
            "the fast dynamics shows no numerical contraction")
    return float(-slope)


# ---------------------------------------------------------------------------
# averaged slow equation
# ---------------------------------------------------------------------------

@dataclass
class HmmConfig:
    """Knobs for embedded frozen-run estimation of fbar along the macro path.

    ``replicas`` independent frozen paths make each estimate: one estimate
    per table node for a scalar slow state (``HMM_NODES`` per replication),
    one per particle for a field model.
    """

    replicas: int = 1
    burn_in_initial: Optional[float] = None
    burn_in: Optional[float] = None
    horizon: Optional[float] = None
    h_frozen: Optional[float] = None
    refresh_stride_steps: Optional[int] = None
    warn_fraction: float = 0.5

    def resolved(self, model: ModelSpec, params: MultiscaleParams):
        lam = model.constants.get("lam", 1.0)
        return HmmConfig(
            replicas=self.replicas,
            burn_in_initial=self.burn_in_initial if self.burn_in_initial is not None else 8.0 / lam,
            burn_in=self.burn_in if self.burn_in is not None else 1.0 / lam,
            horizon=self.horizon if self.horizon is not None else 12.0 / lam,
            h_frozen=self.h_frozen if self.h_frozen is not None else min(0.02 / lam, 0.02),
            refresh_stride_steps=(self.refresh_stride_steps
                                  if self.refresh_stride_steps is not None
                                  else max(1, params.n_steps // 200)),
            warn_fraction=self.warn_fraction)

    def refresh_steps(self, first: bool):
        """Frozen (burn-in, sample) steps of a refresh of a resolved config; the
        first burns in for ``burn_in_initial``.  A count past the noise counter
        reads as one past it, however large."""
        def steps(t):
            return round(min(t / self.h_frozen, noise_mod.STEP_LIMIT + 1))
        return (steps(self.burn_in_initial if first else self.burn_in),
                max(MIN_SAMPLE_STEPS, steps(self.horizon)))


class AveragedRunner(_SlowRunner):
    """Integrates the averaged slow ensemble on the micro grid.

    The drift a1 + fbar and the slow noise are applied at every micro step
    with the same stream ids the full system uses (common random numbers);
    in "hmm" mode each grid point re-estimates its fbar on its own refresh
    stride from embedded frozen runs (on a node table for a scalar slow
    state, per particle for a field model; see the module docstring), each
    replication drawing its frozen noise from its own ``derive(9001)`` plan,
    path i on stream particle i, from the grid point's own frozen step on;
    in "exact" mode it is evaluated from the model's closed form at every
    step.  A frozen run that blows up fails its grid point at its next
    ``check_finite``, naming the study time of its refresh.  An fbar cache
    records grid point 0, replication 0, so it needs exactly one grid point
    and one plan.
    """

    def __init__(self, model: ModelSpec, x0, n_particles: int, params, plans,
                 mode: str = "exact", hmm: Optional[HmmConfig] = None,
                 slow_kind: int = noise_mod.SLOW,
                 collect_fbar_cache: bool = False,
                 context: str = ""):
        if mode not in ("exact", "hmm"):
            raise ValueError("averaged mode must be 'exact' or 'hmm'")
        if mode == "exact" and model.exact_fbar is None:
            raise ValueError(
                f"model {model.model_id!r} has no closed-form fbar; use hmm mode")
        super().__init__(model, x0, n_particles, params, plans,
                         ((slow_kind, model.n_slow_modes),), context or "averaged run")
        if collect_fbar_cache and (len(self.params), len(self.noise)) != (1, 1):
            raise ValueError("collect_fbar_cache needs exactly one grid point and one noise plan")
        self.mode = mode
        self.fbar_cache: list[tuple] = [] if collect_fbar_cache else None

        if mode == "hmm":
            self.hmm = [(hmm or HmmConfig()).resolved(model, p) for p in self.params]
            self.frozen_noise = [plan.derive(9001) for plan in self.noise]
            points = HMM_NODES if model.slow_dim == 1 else n_particles
            self._Z = np.broadcast_to(model.default_y0, self.X.shape[:2] + (
                self.hmm[0].replicas * points, model.fast_dim)).copy()
            self.frozen_step = [0] * len(self.params)
            self._fbar = np.zeros(self.X.shape)
            self.fbar_warned = [False] * len(self.params)    # each grid point warns once
            self._stacked += ("hmm", "frozen_step", "_Z", "_fbar", "fbar_warned")

    def _refresh_fbar(self, g, mu):
        """Re-estimate grid point g's fbar from its state and its measures ``mu``."""
        m = self.model
        X = self.X[g]
        hmm = self.hmm[g]
        R = X.shape[0]
        M = hmm.replicas
        field = m.slow_dim > 1
        # a scalar state's (R, HMM_NODES, 1) nodes span each replication's
        # particle range; a cloud of one point gives coincident nodes
        points = X if field else np.linspace(X.min(axis=1), X.max(axis=1), HMM_NODES, axis=1)

        def at_particles(table):
            return table if field else _interpolate(points, table, X)

        P = points.shape[1]
        Xa = np.tile(points, (M, 1))     # M frozen replicas along the path axis
        n_burn, n_samp = hmm.refresh_steps(self.frozen_step[g] == 0)
        n_tot = n_burn + n_samp
        acc = np.zeros(Xa.shape)

        def visit(k, Z):
            if k > n_burn:
                np.add(acc, m.f(Xa, mu, Z), out=acc)

        t = self.k * self.params[g].h_micro
        self._Z[g] = _frozen_batch(m, Xa, mu, hmm.h_frozen, self.frozen_noise, self._Z[g], n_tot,
                                   on_sample=visit, start_step=self.frozen_step[g],
                                   context=f"frozen run of the refresh at study t={t:.6g}")
        self.frozen_step[g] += n_tot
        per_rep = (acc / n_samp).reshape(R, M, P, m.slow_dim)
        est = per_rep.mean(axis=1)
        fbar = self._fbar[g] = at_particles(est)
        se = np.zeros(R)
        if M >= 2:
            # standard error of the estimate a particle reads and the drift
            # scale, each a mean over the particles, one per replication
            sd = at_particles(per_rep.std(axis=1, ddof=1))
            se = sd.reshape(R, -1).mean(axis=-1) / math.sqrt(M)
            scale = np.abs(fbar).reshape(R, -1).mean(axis=-1) + 1e-30
            for se_r, scale_r in zip(se, scale):
                if se_r > hmm.warn_fraction * scale_r and not self.fbar_warned[g]:
                    warnings.warn(
                        f"fbar standard error {se_r:.3g} exceeds {hmm.warn_fraction:.0%} "
                        f"of the drift magnitude {scale_r:.3g} at eps={self.params[g].epsilon:g}; "
                        "increase the hmm horizon or replicas", RuntimeWarning)
                    self.fbar_warned[g] = True
        if self.fbar_cache is not None:
            self._cache_fbar(mu, points, est, float(se[0]))

    def _cache_fbar(self, mu, points, fbar, se):
        """Rows (x, mu_mean, mu_m2, fbar, std_error) of component 0, one per point
        of replication 0, from one grid point's (R, ...) arrays."""
        n = points.shape[1]
        mean, m2 = float(mu.mean[0, 0, 0]), float(mu.second_moment[0, 0, 0])
        self.fbar_cache += zip(points[0, :, 0].tolist(), [mean] * n, [m2] * n,
                               fbar[0, :, 0].tolist(), [se] * n)

    def advance(self, n_sub: int, xs):
        """Advance every grid point n_sub micro steps on the slow noise
        ``xs``, (n_sub, R, N, n_modes): steps k.. of its stream, the full
        system's under common random numbers.  Checks nothing (see
        ``check_finite``)."""
        m = self.model
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n_sub):
                mu = empirical_view(m, self.X)
                if self.mode == "exact":
                    fbar = m.exact_fbar(self.X, mu)
                    if self.fbar_cache is not None and self.k % max(1, self.n_steps // 200) == 0:
                        self._cache_fbar(_measure_at(mu, 0), self.X[0], fbar[0], 0.0)
                else:
                    for g, hmm in enumerate(self.hmm):
                        if self.k % hmm.refresh_stride_steps == 0 and self.failures[g] is None:
                            try:
                                self._refresh_fbar(g, _measure_at(mu, g))
                            except BlowUpError as exc:
                                self.failures[g] = exc
                    fbar = self._fbar
                self.X = self._slow_step(mu, fbar, xs[j])
                self.k += 1


def _interpolate(nodes, table, X):
    """A table's value at each particle of X (R, N, 1), linear in x per replication.

    A replication whose nodes coincide (every particle at one point) gets the
    mean of its table: every estimate is then an estimate at that point.
    """
    out = np.empty(X.shape)
    for r in range(X.shape[0]):
        xs, fs = nodes[r, :, 0], table[r, :, 0]
        if xs[-1] > xs[0]:
            out[r, :, 0] = np.interp(X[r, :, 0], xs, fs)
        else:
            out[r] = fs.mean()
    return out


def write_fbar_cache(rows, path):
    """CSV dump of fbar evaluations: x,mu_mean,mu_m2,fbar,std_error.

    An HMM run's rows are its estimates, one per table node (or per particle
    of a field model) at each refresh; an exact run's are per particle.
    """
    with open(path, "w") as fh:
        fh.write("x,mu_mean,mu_m2,fbar,std_error\n")
        fh.writelines("%.17g,%.17g,%.17g,%.17g,%.17g\n" % tuple(row) for row in rows or [])
