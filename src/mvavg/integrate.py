"""Interacting-particle time stepping for the coupled slow-fast system.

One micro step advances all N particles: the empirical-measure view is
computed once from the slow rows (the only synchronisation point), then every
particle is updated independently with Euler-Maruyama increments.  Runners
take a sequence of R noise plans and hold their state as (R, N, d): R
independent replications (a single run is R = 1), particles on axis -2,
components on axis -1, each replication with its own empirical measure and
its own diagnostics, all stepped together.  The fast drift's declared stiff
linear part is integrated by its exact exponential factor (scalar
dissipative rate) or semi-implicitly (Laplacian, by a precomputed dense
inverse of I + h_eff * (-laplacian)); everything else is explicit.  The
slow step is Euler-Maruyama, except for models that declare a stabilisation
constant K (``slow_stab``: the field models, whose slow drifts are monotone
but not Lipschitz).  Those take the stabilised semi-implicit step

    (I - h K laplacian) X1 = X0 + h (a1(X0) + coupling - K laplacian X0)
                             + sqrt(h) b1 xs,

by the same cached dense inverse, so h need not resolve dx^2 and follows
eps alone.  K bounds the drift's linearisation on the amplitudes the model
expects; where it depends on the amplitude (``slow_stab_for``) it is sized
on the larger of the model's and the runner's initial one.  A state far
past them can still blow up, which the finiteness check reports.

Runners step only on noise handed to them: ``advance`` takes the draws of
the streams a runner lists in ``streams``, and ``run`` takes them window by
window from ``noise.windows``, checking for blow-up at each window end.

Auxiliary fast processes can be carried along, one per block size delta:
each consumes the SAME fast noise increments as the true fast process but
sees the slow state and measure frozen at the last boundary of its blocks.
The time-integrated mean-square gap between it and the true fast process is
the block-discretisation diagnostic of the rate study; a ladder of deltas
shares one true path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.linalg import solve_banded

from . import noise as noise_mod
from .models import ModelSpec, empirical_view, fast_norm_sq, slow_norm_sq
from .spatial import _laplacian_banded, laplacian_apply

BLOWUP_LIMIT = 1e8
# FullRunner folds its per-step diagnostic norms into the running sums once
# this many steps are pending (and whenever a diagnostic is read): the fold's
# fixed cost is then shared by many steps even when a driver advances one
# step at a time, and the pending norms stay a few steps of state in size
# however long an advance (a whole noise window in ``run``) is.
FOLD_STEPS = 16


class BlowUpError(RuntimeError):
    """Non-finite or exploding particle state."""

    def __init__(self, time, particle, context=""):
        self.time = time
        self.particle = particle
        self.context = context
        msg = f"state blew up at t={time:.6g} (particle {particle})"
        if context:
            msg += f" [{context}]"
        msg += ("; consider a smaller h_factor (the config key that sets h = h_factor * eps; "
                "frozen runs step by --h or hmm.h_frozen)")
        super().__init__(msg)

    def __reduce__(self):
        # rebuild from the fields, so the error survives a process pool
        return type(self), (self.time, self.particle, self.context)


def _check_epsilon(epsilon: float):
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")


@dataclass(frozen=True)
class MultiscaleParams:
    """Time-scale bundle: scale separation, horizon, micro step, block size."""

    epsilon: float
    t_end: float
    h_micro: float
    delta_block: Optional[float] = None

    H_FRACTION_MAX = 0.1

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if self.t_end < 0.0:
            raise ValueError("t_end must be nonnegative")
        if self.h_micro <= 0.0:
            raise ValueError("h_micro must be positive")
        if self.h_micro > self.epsilon * self.H_FRACTION_MAX * (1 + 1e-12):
            raise ValueError(
                f"h_micro={self.h_micro} does not resolve the fast scale: "
                f"need h_micro <= {self.H_FRACTION_MAX} * epsilon")
        if self.delta_block is not None:
            self.block_steps(self.delta_block, "delta_block")

    @property
    def n_steps(self) -> int:
        if self.t_end == 0.0:
            return 0
        return max(1, int(round(self.t_end / self.h_micro)))

    def block_steps(self, delta: float, name: str) -> int:
        """Micro steps in a block of length ``delta`` (named ``name`` in errors)."""
        steps = round(delta / self.h_micro)
        if steps < 1 or abs(steps * self.h_micro - delta) > 1e-9 * delta:
            raise ValueError(f"{name} must be a positive integer multiple of h_micro")
        return steps


def resolve_params(epsilon: float, t_end: float, h_factor: float = 0.02,
                   delta_exponent: float = 2.0 / 3.0) -> MultiscaleParams:
    """Default rules: h = h_factor * epsilon, delta = eps^exponent."""
    _check_epsilon(epsilon)
    h = epsilon * h_factor
    steps = max(1, round(epsilon ** delta_exponent / h))
    return MultiscaleParams(epsilon=epsilon, t_end=t_end, h_micro=h,
                            delta_block=steps * h)


class TrajectoryRecorder:
    """Slow-state snapshots on a fixed step stride plus running diagnostics."""

    def __init__(self, stride_steps: int = 1, record_fast: bool = False):
        if stride_steps < 1:
            raise ValueError("stride_steps must be >= 1")
        self.stride_steps = stride_steps
        self.record_fast = record_fast
        self.times: list[float] = []
        self.slow: list[np.ndarray] = []
        self.fast: list[np.ndarray] = []
        self.moment_flag = False

    def maybe_record(self, step, time, slow, fast, last=False):
        if step % self.stride_steps == 0 or last:
            if self.times and abs(self.times[-1] - time) < 1e-15:
                return
            self.times.append(time)
            self.slow.append(slow.copy())
            if self.record_fast:
                self.fast.append(fast.copy())

    def time_array(self):
        return np.asarray(self.times)

    def slow_array(self):
        return np.stack(self.slow) if self.slow else np.empty((0, 0, 0))

    def dump_csv(self, path):
        """Plain CSV dump with header time,particle,component,index,value."""
        with open(path, "w") as fh:
            fh.write("time,particle,component,index,value\n")
            for j, t in enumerate(self.times):
                for comp, block in (("slow", self.slow),
                                    ("fast", self.fast if self.record_fast else [])):
                    if not block:
                        continue
                    arr = block[j]
                    for p in range(arr.shape[0]):
                        for i in range(arr.shape[1]):
                            fh.write(f"{t:.17g},{p},{comp},{i},{arr[p, i]:.17g}\n")


@lru_cache(maxsize=32)
def _implicit_inverse(n: int, h_eff: float) -> np.ndarray:
    """Dense read-only (I + h_eff * (-laplacian))^{-1}, one banded solve on the identity.

    Cached per (n, h_eff): the HMM refresh prepares a solver on every refresh.
    """
    ab = h_eff * _laplacian_banded(n)
    ab[1, :] += 1.0
    inv = solve_banded((1, 1), ab, np.eye(n), check_finite=False)
    inv.flags.writeable = False
    return inv


class _FastSolver:
    """Prepared one-step kernel for the fast update at effective step h_eff."""

    def __init__(self, model: ModelSpec, h_eff: float):
        self.model = model
        self.h_eff = h_eff
        self.sqrt_h_eff = math.sqrt(h_eff)
        lin = model.fast_linear
        self.kind = "explicit" if lin is None else lin.kind
        if self.kind == "scalar":
            self.phi = math.exp(-lin.rate * h_eff)
            self.coef = (1.0 - self.phi) / lin.rate
        elif self.kind == "laplacian":
            self.inv_t = _implicit_inverse(model.grid.n_interior, h_eff).T

    def step(self, u_args, mu_args, v, xi, forcing=None):
        m = self.model
        noise_incr = self.sqrt_h_eff * m.b2_apply(u_args, mu_args, v, xi)
        if forcing is not None:
            g = m.a2_split[0] * v + forcing
        else:
            g = m.a2_remainder(u_args, mu_args, v)
        if self.kind == "explicit":
            return v + self.h_eff * g + noise_incr
        if self.kind == "scalar":
            return self.phi * v + self.coef * g + noise_incr
        # laplacian, semi-implicit
        return (v + self.h_eff * g + noise_incr) @ self.inv_t


def _check_finite(X, Y, time, context):
    # one reduction per array; a NaN fails the comparison too
    if np.abs(X).max() <= BLOWUP_LIMIT and np.abs(Y).max() <= BLOWUP_LIMIT:
        return
    bad = ~np.isfinite(X).all(axis=-1) | ~np.isfinite(Y).all(axis=-1)
    bad |= (np.abs(X) > BLOWUP_LIMIT).any(axis=-1) | (np.abs(Y) > BLOWUP_LIMIT).any(axis=-1)
    row, particle = np.unravel_index(np.argmax(bad), bad.shape)
    if bad.shape[0] > 1:    # a single run (R = 1) keeps its message free of a row
        context = f"{context}, batch row {row}" if context else f"batch row {row}"
    raise BlowUpError(time, int(particle), context)


def _initial_state(v, shape):
    """A state of ``shape`` from one row shared by every particle, or one row each."""
    v = np.asarray(v, dtype=float)
    return np.broadcast_to(v.reshape(-1) if v.ndim <= 1 else v, shape).copy()


class _SlowRunner:
    """Set-up, run loop and slow update of the runners (see the module docstring).

    ``plans`` is a sequence of R noise plans, one per replication, and the
    slow state ``X`` is (R, N, slow_dim).  ``streams`` lists the (kind,
    n_modes) noise streams that ``advance`` takes, in its argument order.  A
    recorder records replication 0, so it is refused with more than one plan.
    """

    def __init__(self, model: ModelSpec, x0, n_particles: int, params: MultiscaleParams,
                 plans, streams, recorder: Optional[TrajectoryRecorder], context: str):
        self.noise = tuple(plans)
        if recorder is not None and len(self.noise) != 1:
            raise ValueError("a recorder needs exactly one noise plan")
        self.model = model
        self.streams = streams
        self.recorder = recorder
        self.context = context
        self.X = _initial_state(x0, (len(self.noise), n_particles, model.slow_dim))
        self.h = params.h_micro
        self.sqrt_h = math.sqrt(self.h)
        self.slow_stab = model.slow_stab
        if model.slow_stab_for is not None:
            # K follows the initial state, so a large config x0 raises it
            self.slow_stab = max(self.slow_stab, model.slow_stab_for(float(np.abs(self.X).max())))
        if self.slow_stab is not None:
            self.stab_inv_t = _implicit_inverse(model.grid.n_interior,
                                                self.h * self.slow_stab).T
        self.k = 0
        self.n_steps = params.n_steps

    def _slow_step(self, mu, coupling, xs):
        """X + h * (a1 + coupling) + sqrt(h) * b1 xs, stabilised by K if declared."""
        m = self.model
        drift = m.a1(self.X, mu) + coupling
        if self.slow_stab is not None:
            drift -= self.slow_stab * laplacian_apply(m.grid, self.X)
        X1 = self.X + self.h * drift + self.sqrt_h * m.b1_apply(self.X, mu, xs)
        return X1 if self.slow_stab is None else X1 @ self.stab_inv_t

    def _record(self, fast):
        if self.recorder is not None:
            self.recorder.maybe_record(self.k, self.k * self.h, self.X[0], fast[0],
                                       last=self.k == self.n_steps)

    def run(self):
        """Advance to n_steps through the noise windows of ``streams``."""
        for _, draws in noise_mod.windows(self.noise, self.streams, self.k, self.n_steps,
                                          self.X.shape[-2]):
            self.advance(len(draws[0]), *draws)
        return self


class FullRunner(_SlowRunner):
    """Integrator for the full two-time-scale particle system.

    Optionally tracks, in the same pass and with shared noise, one value per
    replication of:
      * one block-frozen auxiliary fast process per block size in
        ``aux_deltas`` (its gap is the row of ``aux_gap``),
      * the time-integrated squared slow increment over blocks
        (``increment_delta``),
      * the fast second-moment diagnostic flag.
    """

    def __init__(self, model: ModelSpec, x0, y0, n_particles: int,
                 params: MultiscaleParams, plans,
                 slow_kind: int = noise_mod.SLOW,
                 aux_deltas=(),
                 increment_delta: Optional[float] = None,
                 recorder: Optional[TrajectoryRecorder] = None,
                 context: str = ""):
        super().__init__(model, x0, n_particles, params, plans,
                         ((slow_kind, model.n_slow_modes), (noise_mod.FAST, model.n_fast_modes)),
                         recorder, context)
        R = len(self.noise)
        self.Y = _initial_state(y0, (R, n_particles, model.fast_dim))
        self.solver = _FastSolver(model, self.h / params.epsilon)

        self.aux_steps = [params.block_steps(d, "aux_deltas") for d in aux_deltas]
        self.Y_aux = [self.Y.copy() for _ in self.aux_steps]
        self._aux_snaps = [None] * len(self.aux_steps)
        self.gap_sum = np.zeros((len(self.aux_steps), R))
        self.gap_count = 0
        self.inc_steps = (params.block_steps(increment_delta, "increment_delta")
                          if increment_delta is not None else None)
        if self.inc_steps is not None:
            self._X_block = self.X.copy()
            self.inc_sum = np.zeros(R)
            self.inc_count = 0

        c = model.constants
        self._mom_rate = c.get("c_coer_fast", 1.0) / max(c.get("lam", 1.0), 1e-12)
        self._mom_y0 = np.mean(fast_norm_sq(model, self.Y), axis=-1)
        self._mom_sup_x = np.zeros(R)
        self._moment_flag = np.zeros(R, dtype=bool)
        # per-step squared norms (aux gap, block increment, fast state) and
        # measure second moments, not yet folded into the diagnostics
        self._pending = ([], [], [], [])
        self._record(self.Y)

    def advance(self, n_sub: int, xs, xf):
        """Advance n_sub micro steps on the slow and fast noise ``xs`` and
        ``xf``, each (n_sub, R, N, n_modes): steps k.. of the two streams."""
        m = self.model
        gap_sq, inc_sq, y_sq, x_m2 = self._pending
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n_sub):
                mu = empirical_view(m, self.X)
                for i, steps in enumerate(self.aux_steps):
                    if self.k % steps == 0:
                        forcing = (m.a2_split[1](self.X, mu)
                                   if m.a2_split is not None else None)
                        self._aux_snaps[i] = (self.X.copy(), mu, forcing)
                if self.inc_steps is not None and self.k % self.inc_steps == 0:
                    self._X_block = self.X.copy()

                Xn = self._slow_step(mu, m.f(self.X, mu, self.Y), xs[j])
                Yn = self.solver.step(self.X, mu, self.Y, xf[j])
                for i, (Xs, mus, frc) in enumerate(self._aux_snaps):
                    self.Y_aux[i] = self.solver.step(Xs, mus, self.Y_aux[i], xf[j], forcing=frc)
                    gap_sq.append(fast_norm_sq(m, Yn - self.Y_aux[i]))
                self.X, self.Y = Xn, Yn
                self.k += 1

                if self.inc_steps is not None:
                    inc_sq.append(slow_norm_sq(m, self.X - self._X_block))
                y_sq.append(fast_norm_sq(m, self.Y))
                x_m2.append(mu.second_moment)
                self._record(self.Y)
                if len(y_sq) >= FOLD_STEPS:
                    self._fold_diagnostics()
        _check_finite(self.X, self.Y, self.k * self.h, self.context)

    def _fold_diagnostics(self):
        """Fold the pending per-step norms into the running diagnostics.

        Means over the particle axis, one per step and replication, are
        added (or maximised) in step order, so the result does not depend on
        when the fold happens.
        """
        gap_sq, inc_sq, y_sq, x_m2 = self._pending
        if not y_sq:
            return
        N = self.X.shape[-2]
        if gap_sq:
            # one (R, N) norm per step and aux process, in step order
            for g in np.reshape(np.sum(gap_sq, axis=-1) / N, (-1,) + self.gap_sum.shape):
                self.gap_sum += g
            self.gap_count += len(gap_sq) // len(self.aux_steps)
        if inc_sq:
            for g in np.sum(inc_sq, axis=-1) / N:
                self.inc_sum += g
            self.inc_count += len(inc_sq)
        m2y = np.sum(y_sq, axis=-1) / N
        sup = np.maximum.accumulate(2.0 * np.reshape(x_m2, m2y.shape), axis=0)
        sup = np.maximum(sup, self._mom_sup_x)
        self._mom_sup_x = sup[-1]
        self._moment_flag |= (m2y > 10.0 * (self._mom_y0 + self._mom_rate * (1.0 + sup))).any(axis=0)
        for pending in self._pending:
            pending.clear()

    @property
    def moment_flag(self):
        """Whether the fast second moment left its bound (per replication)."""
        self._fold_diagnostics()
        return self._moment_flag

    @property
    def aux_gap(self):
        """Time-integrated mean-square gap (1/T) int E||Y - Y_aux||^2 dt, (D, R):
        one row per block size of ``aux_deltas``."""
        self._fold_diagnostics()
        return self.gap_sum / max(self.gap_count, 1)

    @property
    def increment_stat(self):
        """Estimate of (1/T) int E||X_t - X_{t(delta)}||^2 dt."""
        self._fold_diagnostics()
        return self.inc_sum / max(self.inc_count, 1)


def simulate_full(model: ModelSpec, x0, y0, n_particles: int,
                  params: MultiscaleParams, noise: noise_mod.NoisePlan,
                  recorder: Optional[TrajectoryRecorder] = None) -> TrajectoryRecorder:
    """Integrate the full system to t_end, recording on the recorder's stride."""
    if recorder is None:
        recorder = TrajectoryRecorder(stride_steps=max(1, params.n_steps // 200))
    runner = FullRunner(model, x0, y0, n_particles, params, (noise,), recorder=recorder).run()
    recorder.moment_flag = bool(runner.moment_flag[0])
    return recorder
