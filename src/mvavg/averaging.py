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
(G, R, N, d), one replication per plan.

fbar is supplied either in closed form (models that declare ``exact_fbar``)
or by embedded frozen runs refreshed on a macro stride (heterogeneous
multiscale mode).  At a refresh every particle of a replication sees the
same mu, so for a scalar slow state the frozen law varies with x alone, and
the frozen work need not grow with N:

  * A scalar law that does not read mu at all (``frozen_reads_mu`` False)
    has one fbar(x) for every grid point and every time.  Each replication
    keeps one table of window estimates on the lattice x_j = j *
    ``HMM_NODE_SPACING`` (``_FbarLattice``) that all its grid points read:
    refresh r reads window r, interpolated linearly between a particle's two
    nodes.  Windows come from chains of frozen paths that march side by
    side, and a node enters at the first refresh whose particles read it,
    with every missing node within ``HMM_NODE_PAD`` nodes of them; neither
    entry times nor neighbours change its bits.
  * A scalar law that reads mu is estimated at each refresh on a table of
    ``HMM_NODES`` equally spaced nodes over the replication's particle
    range, and a field model (slow_dim > 1) on one row per particle; these
    frozen runs are warm-started between a grid point's refreshes, since
    the slow state only moves O(stride) per refresh.

Either way each estimate averages ``hmm.replicas`` independent frozen paths.
Every frozen march draws from the one noise feed, ``noise.windows``, one
window at a time into buffers of the march's own (a lattice march runs
inside the runners' march, whose window it leaves intact), and
``check_frozen_budget`` holds a run's frozen paths and steps to its counter.
"""
from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import noise as noise_mod
from .integrate import (BlowUpError, MultiscaleParams, _blow_up, _check_finite, _FastSolver,
                        _measure_at, _SlowRunner)
from .measure import MeasureMoments
from .models import ModelSpec, empirical_view, fast_norm_sq

MIN_SAMPLE_STEPS = 20
BATCHES_PER_PATH = 20
# estimate_mixing_rate's noise floor, relative to the starting gap, and fewest fit points
MIXING_REL_FLOOR = 1e-12
MIXING_MIN_POINTS = 8
# nodes of a replication's fbar table in HMM mode (a scalar law that reads mu)
HMM_NODES = 16
# The fbar lattice of an x-only frozen law (see _FbarLattice): node j sits at
# x = j * HMM_NODE_SPACING and draws on stream particle j + LATTICE_OFFSET; a
# chain of frozen paths serves HMM_WINDOWS_PER_CHAIN consecutive refresh
# windows; a node enters beside every missing node within HMM_NODE_PAD nodes
# of the particles.  A particle's lower node lies within LATTICE_REACH of 0,
# so that every node it enters has a stream particle.
HMM_NODE_SPACING = 0.1
HMM_WINDOWS_PER_CHAIN = 25
HMM_NODE_PAD = 16
LATTICE_OFFSET = 2 ** 31
LATTICE_REACH = LATTICE_OFFSET - HMM_NODE_PAD - 2
# default HMM refreshes, and closed-form fbar cache times, per run: every n_steps // this
FBAR_POINTS_PER_RUN = 200


# a value's type check, raising ``error`` led by its key; a bool is not a number
def check_int(key: str, val, error=ValueError):
    if not isinstance(val, numbers.Integral) or isinstance(val, bool):
        raise error(f"{key}: must be an integer, got {val!r}")


def check_real(key: str, val, error=ValueError):
    try:
        finite = isinstance(val, numbers.Real) and not isinstance(val, bool) and math.isfinite(val)
    except OverflowError:   # an int past the largest float
        finite = False
    if not finite:
        raise error(f"{key}: must be a finite number, got {val!r}")


class MixingFailure(RuntimeError):
    """Shared-noise frozen copies refused to contract: no mixing evidence."""


class FrozenBudgetError(ValueError):
    """HMM frozen runs past the noise counter; the message starts with the config key."""


@dataclass
class FrozenParams:
    """One frozen-equation run of ``replicas`` paths: frozen arguments, horizon, resolution."""

    x_frozen: np.ndarray
    mu_frozen: MeasureMoments
    y_init: np.ndarray
    burn_in: float
    sample_horizon: float
    h_micro: float
    replicas: int

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


def _initial_burn_in(model: ModelSpec) -> float:
    """A frozen run's default first burn-in, 8 / (dissipativity rate): residual bias ~ e^-8."""
    return 8.0 / model.constants.get("lam", 1.0)


def default_frozen_params(model: ModelSpec, x_frozen, mu_frozen, y_init=None,
                          burn_in: Optional[float] = None, sample_horizon: float = 200.0,
                          h_micro: float = 0.01, replicas: int = 4) -> FrozenParams:
    """Burn-in by default ``_initial_burn_in``."""
    return FrozenParams(
        x_frozen=x_frozen, mu_frozen=mu_frozen,
        y_init=model.default_y0 if y_init is None else y_init,
        burn_in=_initial_burn_in(model) if burn_in is None else burn_in,
        sample_horizon=sample_horizon, h_micro=h_micro, replicas=replicas)


def _frozen_feed(model, plans, start_step, n_steps, n_paths):
    """The FROZEN noise of paths 0..n_paths-1 of each plan over steps
    [start_step, start_step + n_steps), window by window from
    ``noise.windows``: path i reads stream particle i, so two marches from
    the same plan and start step share increments."""
    for _, (xi,) in noise_mod.windows(plans, [(noise_mod.FROZEN, model.n_fast_modes)],
                                      start_step, start_step + n_steps, n_paths):
        yield xi


def _frozen_batch(model, x_frozen, mu, h, feed, paths_y0, schedule, context="frozen run"):
    """March frozen paths at step h, yielding (w, Z) after each sample step of span w.

    ``schedule`` lists consecutive (burn-in steps, sample steps) spans from
    the march's first step, walked lazily; a feed of another length raises a
    ValueError.  ``paths_y0`` is (..., P, fast_dim), and ``feed`` yields its
    noise window by window, each draw (n_win, ..., P, n_modes).  Row i of
    ``x_frozen`` (or the one shared row) is the slow state that path i sees.
    A yielded Z is the march's live state: a caller that keeps it copies it.
    The march checks for blow-up at each window end, the last after the final
    yield, a failure naming ``context`` and the march's own times of this
    check and the last; with ``context`` None it checks nothing.
    """
    Xa = np.broadcast_to(x_frozen, paths_y0.shape[:-1] + (model.slow_dim,))
    solver = _FastSolver(model, h)
    frc = model.a2_split[1](Xa, mu) if model.a2_split is not None else None
    # each step's span and whether it samples
    steps = ((w, j >= burn) for w, (burn, samp) in enumerate(schedule) for j in range(burn + samp))
    Z, k = paths_y0, 0
    for xi in feed:
        for xi_k in xi:
            w, sample = next(steps, (None, False))
            if w is None:
                raise ValueError(f"the frozen feed runs past its schedule's {k} steps")
            Z = solver.step(Xa, mu, Z, xi_k, forcing=frc)
            k += 1
            if sample:
                yield w, Z
        if context is not None:
            _check_finite(Xa, Z, k * h, context, (k - len(xi)) * h)
    if next(steps, None) is not None:
        raise ValueError(f"the frozen schedule runs past its feed's {k} steps")


def frozen_simulate(model: ModelSpec, fp: FrozenParams, noise: noise_mod.NoisePlan,
                    record_stride: int = 1):
    """Simulate ``fp.replicas`` frozen fast paths; return (times, paths) past the burn-in.

    ``paths`` is (n_recorded, fp.replicas, fast_dim).  Paths share nothing
    but the frozen arguments; path i consumes stream (FROZEN, particle=i).
    With burn_in = 0 the trajectory is returned from t = 0 (initial state
    included), which is what the shared-noise contraction diagnostics use.
    """
    h = fp.h_micro
    n_steps = int(round((fp.burn_in + fp.sample_horizon) / h))
    Z = np.broadcast_to(fp.y_init, (1, fp.replicas, model.fast_dim)).copy()
    # the recorded steps: every record_stride-th step from the first past the burn-in
    first = next((k for k in range(record_stride, n_steps + 1, record_stride)
                  if k * h >= fp.burn_in - 1e-12), n_steps + 1)
    recorded = range(first, n_steps + 1, record_stride)
    # a one-step span ending at each recorded step, then the unrecorded tail
    schedule = itertools.chain(
        ((b - a - 1, 1) for a, b in itertools.pairwise(itertools.chain((0,), recorded))),
        [(n_steps - (recorded[-1] if recorded else 0), 0)])
    times, snaps = ([0.0], [Z[0].copy()]) if fp.burn_in == 0 else ([], [])
    times += [k * h for k in recorded]
    snaps += [Zk[0].copy() for _, Zk in _frozen_batch(
        model, fp.x_frozen, fp.mu_frozen, h, _frozen_feed(model, (noise,), 0, n_steps, fp.replicas),
        Z, schedule)]
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
    mu = fp.mu_frozen
    batch_sums = np.zeros((R, BATCHES_PER_PATH, model.slow_dim))
    # batch j is span j: the burn-in leads the first
    schedule = [(n_burn, batch_len)] + [(0, batch_len)] * (BATCHES_PER_PATH - 1)
    for j, Zk in _frozen_batch(model, fp.x_frozen, mu, h,
                               _frozen_feed(model, (noise,), 0, n_burn + n_samp, R), Z, schedule):
        batch_sums[:, j, :] += model.f(fp.x_frozen, mu, Zk[0])
    batch_means = batch_sums / batch_len
    flat = batch_means.reshape(R * BATCHES_PER_PATH, model.slow_dim)
    n_batches = flat.shape[0]       # >= BATCHES_PER_PATH, so the spread is defined
    se = flat.std(axis=0, ddof=1) / math.sqrt(n_batches)
    return FrozenEstimate(fbar=flat.mean(axis=0), std_error=se, n_effective=n_batches)


def estimate_mixing_rate(model: ModelSpec, fp: FrozenParams, y_alt,
                         noise: noise_mod.NoisePlan) -> float:
    """Fit the mean-square contraction rate of two shared-noise frozen copies.

    Runs ``fp.replicas`` pairs from y_init and y_alt, each pair on identical
    Gaussian increments, fits log E||Y - Y'||^2 against t by least squares
    over the window before the gap collapses under ``MIXING_REL_FLOOR`` times
    its start (at least ``MIXING_MIN_POINTS`` samples), and returns the decay
    rate (so additive-noise linear models give exactly twice their drift
    rate).  Raises :class:`MixingFailure` when the gap does not decay.
    """
    y_alt = np.asarray(y_alt, dtype=float).reshape(-1)
    if np.allclose(y_alt, fp.y_init):
        raise ValueError("y_alt must differ from y_init")
    fp = dataclasses.replace(fp, burn_in=0.0)
    t, path = frozen_simulate(model, fp, noise)
    _, alt = frozen_simulate(model, dataclasses.replace(fp, y_init=y_alt), noise)
    gaps = np.mean(fast_norm_sq(model, path - alt), axis=-1)
    valid = gaps > gaps[0] * MIXING_REL_FLOOR
    # stop at the first collapsed point: later samples are noise-floor chatter
    cut = int(np.argmin(valid)) if not valid.all() else len(gaps)
    t, g = t[:cut], gaps[:cut]
    if len(g) < MIXING_MIN_POINTS or not np.all(g > 0):
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
    per lattice node and window for an x-only law, one per table node
    (``HMM_NODES`` per replication) for a scalar law that reads mu, one per
    particle for a field model.  A grid point refreshes every
    ``refresh_stride_steps`` micro steps; the first frozen estimate burns in
    for ``burn_in_initial``, each later one for ``burn_in``, and each then
    averages f over ``horizon``, stepping by ``h_frozen``: a (burn-in, sample)
    span of a frozen march (``refresh_steps``), on the lattice a chain's window.
    A bad field raises a ValueError led by its name; None asks ``resolved`` for its default.
    """

    replicas: int = 1
    burn_in_initial: Optional[float] = None
    burn_in: Optional[float] = None
    horizon: Optional[float] = None
    h_frozen: Optional[float] = None
    refresh_stride_steps: Optional[int] = None
    warn_fraction: float = 0.5

    def __post_init__(self):
        for key, val in vars(self).items():
            if val is None and key not in ("replicas", "warn_fraction"):
                continue
            if key in ("replicas", "refresh_stride_steps"):
                check_int(key, val)
                if val < 1:
                    raise ValueError(f"{key}: must be >= 1, got {val!r}")
            else:
                check_real(key, val)
                if key.startswith("burn_in") and val < 0:
                    raise ValueError(f"{key}: must be >= 0, got {val!r}")
                if not key.startswith("burn_in") and val <= 0:
                    raise ValueError(f"{key}: must be positive, got {val!r}")

    def resolved(self, model: ModelSpec, params: MultiscaleParams):
        """A copy with each None set to its default for ``model`` and ``params``.
        The defaults are not checked again: one past the noise counter (from a
        tiny declared ``lam``) is refused by ``check_frozen_budget``."""
        lam = model.constants.get("lam", 1.0)
        defaults = dict(burn_in_initial=_initial_burn_in(model), burn_in=1.0 / lam,
                        horizon=12.0 / lam, h_frozen=min(0.02 / lam, 0.02),
                        refresh_stride_steps=max(1, params.n_steps // FBAR_POINTS_PER_RUN))
        out = copy.copy(self)
        vars(out).update((key, val) for key, val in defaults.items() if vars(self)[key] is None)
        return out

    def refresh_steps(self, first: bool):
        """Frozen (burn-in, sample) steps of a refresh of a resolved config; the
        first burns in for ``burn_in_initial``.  A count past the noise counter
        reads as one past it, however large."""
        def steps(t):
            return round(min(t / self.h_frozen, noise_mod.STEP_LIMIT + 1))
        return (steps(self.burn_in_initial if first else self.burn_in),
                max(MIN_SAMPLE_STEPS, steps(self.horizon)))

    def refreshes(self, params: MultiscaleParams) -> int:
        """A resolved config's refreshes in a run of ``params``: the lattice windows it reads."""
        return max(1, -(-params.n_steps // self.refresh_stride_steps))


def _group_pad(n_steps: int) -> int:
    """Steps rounding a refresh's ``n_steps`` up to whole counter groups, so
    that a warm-started run's next draw drops no rows."""
    return -n_steps % noise_mod.GROUP_STEPS


def lattice_law(model: ModelSpec) -> bool:
    """Whether HMM mode estimates ``model``'s fbar on the x-lattice: a scalar
    slow state whose frozen law does not read mu (``frozen_reads_mu``)."""
    return model.slow_dim == 1 and not model.frozen_reads_mu


def check_frozen_budget(model: ModelSpec, hmm: HmmConfig, params, x0, n_particles: int):
    """Refuse, with a FrozenBudgetError, an HMM run of ``params`` from ``x0``
    whose frozen paths or steps pass the noise counter.  On the x-lattice a
    replica fills the 16-bit extra field, a chain the 16-bit mode field and
    marches ``HMM_WINDOWS_PER_CHAIN`` refreshes, and x0 lies within reach;
    otherwise a refresh's paths fill the particle field, and a frozen run
    marches every refresh, each but the last rounded to counter groups."""
    hmm = hmm.resolved(model, params)
    refreshes = hmm.refreshes(params)
    lattice = lattice_law(model)
    if lattice:
        if hmm.replicas > noise_mod.FIELD16_LIMIT:
            raise FrozenBudgetError("hmm.replicas: the frozen replicas of a lattice node pass "
                                    "the 2^16 of the noise counter's extra field")
        chains = -(-refreshes // HMM_WINDOWS_PER_CHAIN)
        if chains * model.n_fast_modes > noise_mod.FIELD16_LIMIT:
            raise FrozenBudgetError(f"hmm.refresh_stride_steps: the {refreshes} refreshes at "
                                    f"eps={params.epsilon:g} take {chains} frozen chains per "
                                    "lattice node, past the 2^16 modes of the noise counter")
        if not np.all(np.abs(x0) < LATTICE_REACH * HMM_NODE_SPACING):
            raise FrozenBudgetError(f"x0: past the reach of the fbar lattice, which needs "
                                    f"|x0| < {LATTICE_REACH * HMM_NODE_SPACING:.6g}")
        refreshes = min(refreshes, HMM_WINDOWS_PER_CHAIN)
    elif hmm.replicas * (HMM_NODES if model.slow_dim == 1 else n_particles) \
            > noise_mod.PARTICLE_LIMIT:
        raise FrozenBudgetError("hmm.replicas: its frozen paths per replication pass the 2^32 "
                                "particles of the noise counter")
    (burn0, samp), (burn, _) = hmm.refresh_steps(True), hmm.refresh_steps(False)
    steps = {"burn_in_initial": burn0, "burn_in": (refreshes - 1) * burn,
             "horizon": refreshes * samp}
    pad = 0 if lattice or refreshes < 2 else (
        _group_pad(burn0 + samp) + (refreshes - 2) * _group_pad(burn + samp))
    if sum(steps.values()) + pad > noise_mod.STEP_LIMIT:
        key = max(steps, key=steps.get)
        raise FrozenBudgetError(f"hmm.{key}: the frozen runs at eps={params.epsilon:g} take more "
                                "than the 2^48 steps of the noise counter "
                                f"(h_frozen={hmm.h_frozen:g})")


class _FbarLattice:
    """Window estimates of an x-only fbar on the nodes x_j = j * HMM_NODE_SPACING.

    ``table[r, i, w]`` is window w of node ``nodes[i]`` under ``plans[r]``:
    the mean of f over the window's horizon, averaged over ``hmm.replicas``
    frozen paths.  Window w is window w % HMM_WINDOWS_PER_CHAIN of chain
    w // HMM_WINDOWS_PER_CHAIN; a chain starts from ``default_y0``, and its
    windows are exactly its schedule, the spans of a warm-started frozen run's
    refreshes (``HmmConfig.refresh_steps``).  Path (node j, replica m, chain c)
    reads stream (FROZEN, particle j + LATTICE_OFFSET, mode c * n_fast_modes
    + i, extra m) of its plan, so a node's bits depend on its plan, j and the
    window schedule alone: a node may enter at any time, beside any others.
    """

    def __init__(self, model: ModelSpec, hmm: HmmConfig, plans, n_windows: int):
        self.model = model
        self.hmm = hmm
        self.plans = plans
        self.n_windows = n_windows
        self.nodes = np.zeros(0, dtype=np.int64)         # sorted
        self.table = np.zeros((len(plans), 0, n_windows))
        self._se = {}     # per window count read: the nodes' standard errors

    def locate(self, lo):
        """The positions in ``nodes`` of the particles' lower nodes ``lo``.

        If a node that a particle reads (``lo`` or the one after it) is
        missing, every missing node within HMM_NODE_PAD nodes of the
        particles enters first, in one march.
        """
        i = np.searchsorted(self.nodes, lo)
        if (np.searchsorted(self.nodes, lo + 2) - i == 2).all():
            return i
        near = {j + d for j in set(lo.ravel().tolist())
                for d in range(-HMM_NODE_PAD, HMM_NODE_PAD + 2)}
        new = np.array(sorted(near.difference(self.nodes.tolist())), dtype=np.int64)
        # merge the sorted nodes: new node k lands after the old nodes below it
        # and the k new nodes before it (Python sets and searchsorted, not
        # numpy's sorts, whose code pages alone added 0.4 MB to the cubic-hmm
        # benchmark's peak RSS)
        at = np.searchsorted(self.nodes, new) + np.arange(len(new))
        old = np.ones(len(self.nodes) + len(new), dtype=bool)
        old[at] = False
        nodes = np.empty(len(old), dtype=np.int64)
        table = np.empty((len(self.plans), len(old), self.n_windows))
        nodes[at], nodes[old] = new, self.nodes
        table[:, at], table[:, old] = self._march(new), self.table
        self.nodes, self.table = nodes, table
        self._se.clear()
        return np.searchsorted(self.nodes, lo)

    def _march(self, new):
        """Every window of the sorted nodes ``new``, (R, P, n_windows): their
        chains march side by side.  Nothing is checked: a path that blows up
        leaves non-finite estimates at its node."""
        m, hmm = self.model, self.hmm
        R, P, M = len(self.plans), len(new), hmm.replicas
        n_modes = m.n_fast_modes
        chains = -(-self.n_windows // HMM_WINDOWS_PER_CHAIN)
        per_chain = min(HMM_WINDOWS_PER_CHAIN, self.n_windows)
        # a chain's windows are its spans: the refreshes of a warm-started frozen run
        schedule = [hmm.refresh_steps(w == 0) for w in range(per_chain)]
        # the nodes' stream particles, as runs of consecutive particles
        runs = [(int(run[0]) + LATTICE_OFFSET, len(run))
                for run in np.split(new, np.flatnonzero(np.diff(new) != 1) + 1)]
        x = (new * HMM_NODE_SPACING).reshape(1, P, 1, 1, 1)
        Z = np.broadcast_to(m.default_y0, (R, P, M, chains, m.fast_dim)).copy()
        acc = np.zeros((per_chain, R, P, M, chains))
        # replica j reads the streams of extra j, stacked on axis 3.  A window
        # holds a quarter of the runners' NOISE_WINDOW_NORMALS per plan, as
        # this march runs inside theirs, whose windows it finds held: under
        # tracemalloc the cubic-hmm study peaked at 2.18 MB with full windows, 1.78 MB with these.
        streams = [(noise_mod.FROZEN, chains * n_modes, j) for j in range(M)]
        stop = sum(map(sum, schedule))
        feed = (np.stack(xis, axis=3).reshape(-1, R, P, M, chains, n_modes) for _, xis in
                noise_mod.windows(self.plans, streams, 0, stop, runs, share=4 * M))
        # the law reads no measure, so none is passed
        for w, Z in _frozen_batch(m, x, None, hmm.h_frozen, feed, Z, schedule, context=None):
            acc[w] += m.f(x, None, Z)[..., 0]
        # replicas summed in order, so a node's bits do not follow the array's shape
        total = acc[:, :, :, 0].copy()
        for j in range(1, M):
            total += acc[:, :, :, j]
        est = total.transpose(1, 2, 3, 0).reshape(R, P, chains * per_chain)
        # every window samples the same steps
        return est[..., :self.n_windows] / (schedule[0][1] * M)

    def standard_errors(self, n_read):
        """The nodes' standard errors over their first ``n_read`` windows, (R, P).

        A node's windows are independent estimates at one x, so their spread
        is the standard error of each (0 with one window).
        """
        if n_read not in self._se:
            self._se[n_read] = (self.table[:, :, :n_read].std(axis=-1, ddof=1) if n_read > 1
                                else np.zeros(self.table.shape[:2]))
        return self._se[n_read]


class AveragedRunner(_SlowRunner):
    """Integrates the averaged slow ensemble on the micro grid.

    The drift a1 + fbar and the slow noise are applied at every micro step
    with the same stream ids the full system uses (common random numbers).
    Without an ``hmm`` config fbar is evaluated from the model's closed form
    at every step.  With one, each grid point re-estimates its fbar on its
    own refresh stride from embedded frozen runs, each replication drawing
    its frozen noise from its own ``derive(9001)`` plan (see the module
    docstring):

      * on the x-lattice (``lattice_law``): refresh r reads window r of the
        runner's lattice, which every grid point shares;
      * on a node table (a scalar slow state whose frozen law reads mu) or
        per particle (a field model): path i on stream particle i, from the
        grid point's own frozen step on.  A frozen run that blows up fails
        its grid point at its next ``check_finite``, naming the study time of
        its refresh.

    An fbar cache records grid point 0, replication 0, so it needs exactly
    one grid point and one plan.
    """

    _lattice = None
    hmm = None      # the resolved HmmConfig of each grid point; None for the closed form

    def __init__(self, model: ModelSpec, x0, n_particles: int, params, plans,
                 hmm: Optional[HmmConfig] = None,
                 slow_kind: int = noise_mod.SLOW,
                 collect_fbar_cache: bool = False):
        if hmm is None and model.exact_fbar is None:
            raise ValueError(
                f"model {model.model_id!r} has no closed-form fbar; pass an HmmConfig")
        super().__init__(model, x0, n_particles, params, plans,
                         ((slow_kind, model.n_slow_modes),), "averaged run")
        if collect_fbar_cache and (len(self.params), len(self.noise)) != (1, 1):
            raise ValueError("collect_fbar_cache needs exactly one grid point and one noise plan")
        self.fbar_cache: list[tuple] = [] if collect_fbar_cache else None

        if hmm is not None:
            self.hmm = [hmm.resolved(model, p) for p in self.params]
            self.frozen_noise = [plan.derive(9001) for plan in self.noise]
            self._fbar = np.zeros(self.X.shape)
            self.fbar_warned = [False] * len(self.params)    # each grid point warns once
            self._stacked += ("hmm", "_fbar", "fbar_warned")
            if lattice_law(model):
                # the grid points differ in their strides alone, so they share
                # one window schedule
                self._lattice = _FbarLattice(model, self.hmm[0], self.frozen_noise, max(
                    cfg.refreshes(p) for cfg, p in zip(self.hmm, self.params)))
            else:
                points = HMM_NODES if model.slow_dim == 1 else n_particles
                self._Z = np.broadcast_to(model.default_y0, self.X.shape[:2] + (
                    self.hmm[0].replicas * points, model.fast_dim)).copy()
                self.frozen_step = [0] * len(self.params)
                self._stacked += ("frozen_step", "_Z")

    def _refresh_fbar(self, g, mu):
        """Re-estimate grid point g's fbar from its state and its measures ``mu``."""
        t = self.k * self.params[g].h_micro
        hmm = self.hmm[g]
        if self._lattice is not None:
            fbar, se, rows = self._read_lattice(g, t)
        else:
            fbar, se, rows = self._run_frozen(g, mu, t)
        self._fbar[g] = fbar
        if not self.fbar_warned[g]:
            # the standard error of the estimate a particle reads and the
            # drift scale, each a mean over the particles, one per replication
            scale = np.abs(fbar).reshape(len(fbar), -1).mean(axis=-1) + 1e-30
            for se_r, scale_r in zip(se(), scale):
                if se_r > hmm.warn_fraction * scale_r and not self.fbar_warned[g]:
                    warnings.warn(
                        f"fbar standard error {se_r:.3g} exceeds {hmm.warn_fraction:.0%} of the "
                        f"drift magnitude {scale_r:.3g} at eps={self.params[g].epsilon:g}; "
                        "increase the hmm horizon or replicas", RuntimeWarning)
                    self.fbar_warned[g] = True
        if self.fbar_cache is not None:
            self._cache_fbar(mu, *rows())

    def _read_lattice(self, g, t):
        """Grid point g's fbar (R, N, 1) at its refresh r, from window r of the
        lattice, the nodes its particles read entering first.  Also callables
        for the standard error (R,) and for the cache rows (x, fbar,
        std_error) of the nodes that replication 0 reads.  A particle whose x
        is not finite, or whose nodes lie past the lattice's reach, raises a
        BlowUpError at study time ``t``."""
        X = self.X[g, :, :, 0]
        if not np.isfinite(X).all():
            raise _blow_up(~np.isfinite(X), t, f"x non-finite at study t={t:.6g}" + (
                "; the fbar lattice's frozen chains diverged: consider a smaller hmm.h_frozen"
                if not np.isfinite(self._lattice.table).all() else ""))
        u = X / HMM_NODE_SPACING
        lo = np.floor(u)
        past = np.abs(lo) > LATTICE_REACH
        if past.any():
            raise _blow_up(past, t, f"x past the {LATTICE_REACH}-node reach of the fbar "
                                    f"lattice at study t={t:.6g}")
        lo = lo.astype(np.int64)
        frac = u - lo
        lat = self._lattice
        i = lat.locate(lo)
        rep = np.arange(len(X))[:, None]
        w = self.k // self.hmm[g].refresh_stride_steps
        n_read = self.hmm[g].refreshes(self.params[g])

        def at_particles(values):
            at_lo = values[rep, i]
            return at_lo + frac * (values[rep, i + 1] - at_lo)

        def se():
            return at_particles(lat.standard_errors(n_read)).mean(axis=-1)

        def rows():
            read = sorted({*i[0].tolist(), *(i[0] + 1).tolist()})
            return ((lat.nodes[read] * HMM_NODE_SPACING).tolist(),
                    lat.table[0, read, w].tolist(), lat.standard_errors(n_read)[0, read].tolist())

        return at_particles(lat.table[:, :, w])[..., None], se, rows

    def _run_frozen(self, g, mu, t):
        """Grid point g's fbar (R, N, d) from frozen runs warm-started at its
        last refresh, on a node table or per particle, and callables as
        ``_read_lattice`` returns them: the standard error is the spread of
        the replicas over sqrt(replicas) (0 below 2 replicas), and the cache
        rows are the table's nodes or the particles of replication 0."""
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
        feed = _frozen_feed(m, self.frozen_noise, self.frozen_step[g], n_tot, Xa.shape[-2])
        for _, Z in _frozen_batch(m, Xa, mu, hmm.h_frozen, feed, self._Z[g], [(n_burn, n_samp)],
                                  context=f"frozen run of the refresh at study t={t:.6g}"):
            np.add(acc, m.f(Xa, mu, Z), out=acc)
        # the span ends on a sample step: its last state warm-starts the next refresh
        self._Z[g] = Z
        self.frozen_step[g] += n_tot + _group_pad(n_tot)
        per_rep = (acc / n_samp).reshape(R, M, P, m.slow_dim)
        est = per_rep.mean(axis=1)
        se = (np.zeros(R) if M < 2 else
              at_particles(per_rep.std(axis=1, ddof=1)).reshape(R, -1).mean(axis=-1) / math.sqrt(M))
        return at_particles(est), lambda: se, lambda: (
            points[0, :, 0].tolist(), est[0, :, 0].tolist(), [float(se[0])] * P)

    def _cache_fbar(self, mu, xs, fbars, ses):
        """Rows (x, mu_mean, mu_m2, fbar, std_error) of component 0 from the
        lists ``xs``, ``fbars`` and ``ses`` and replication 0 of one grid
        point's measures ``mu``."""
        n = len(xs)
        mean, m2 = float(mu.mean[0, 0, 0]), float(mu.second_moment[0, 0, 0])
        self.fbar_cache += zip(xs, [mean] * n, [m2] * n, fbars, ses)

    def advance(self, n_sub: int, xs):
        """Advance every grid point n_sub micro steps on the slow noise
        ``xs``, (n_sub, [1,] R, N, n_modes): steps k.. of its stream, the full
        system's under common random numbers.  Checks nothing (see
        ``check_finite``)."""
        m = self.model
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n_sub):
                mu = empirical_view(m, self.X)
                if self.hmm is None:
                    fbar = m.exact_fbar(self.X, mu)
                    if self.fbar_cache is not None \
                            and self.k % max(1, self.n_steps // FBAR_POINTS_PER_RUN) == 0:
                        self._cache_exact(_measure_at(mu, 0), fbar[0])
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

    def _cache_exact(self, mu, fbar):
        """Cache rows of grid point 0's closed-form fbar under replication 0's
        measure ``mu``: at HMM_NODES equally spaced x over its particle range
        for a scalar state, at each particle (its ``fbar``) of a field model."""
        X = self.X[0]
        if self.model.slow_dim == 1:
            X = np.linspace(X[0].min(), X[0].max(), HMM_NODES).reshape(1, -1, 1)
            fbar = self.model.exact_fbar(X, mu)
        n = X.shape[1]
        self._cache_fbar(mu, X[0, :, 0].tolist(), fbar[0, :, 0].tolist(), [0.0] * n)


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

    An HMM run's rows are its estimates at each refresh: one per lattice node
    that its particles read (x-only frozen law), one per table node (a
    scalar law that reads mu) or one per particle (field model).  An exact
    run's rows, every ``n_steps // FBAR_POINTS_PER_RUN`` steps, are
    ``HMM_NODES`` points over the particle range (scalar state) or one per
    particle (field model).
    """
    with open(path, "w") as fh:
        fh.write("x,mu_mean,mu_m2,fbar,std_error\n")
        fh.writelines("%.17g,%.17g,%.17g,%.17g,%.17g\n" % tuple(row) for row in rows or [])
