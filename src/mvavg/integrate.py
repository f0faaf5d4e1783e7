"""Interacting-particle time stepping for the coupled slow-fast system.

One micro step advances all N particles: the empirical-measure view is
computed once from the slow rows (the only synchronisation point), then every
particle is updated independently with Euler-Maruyama increments.  The fast
drift's declared stiff linear part is integrated either by its exact
exponential factor (scalar dissipative rate) or semi-implicitly (Laplacian,
by a precomputed dense inverse of I + h_eff * (-laplacian)); everything else
is explicit.  Slow drifts flagged as monotone-but-not-Lipschitz are tamed:
the drift is rescaled by 1/(1 + h * ||drift||) on the particles where
||drift|| * h exceeds 1.

An optional auxiliary fast process can be carried along: it consumes the SAME
fast noise increments but sees the slow state and measure frozen at the last
block boundary of size delta.  The time-integrated mean-square gap between it
and the true fast process is the block-discretisation diagnostic of the rate
study.
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
from .spatial import _laplacian_banded, l2_norm_sq

BLOWUP_LIMIT = 1e8


class BlowUpError(RuntimeError):
    """Non-finite or exploding particle state."""

    def __init__(self, time, particle, context=""):
        self.time = time
        self.particle = particle
        self.context = context
        msg = f"state blew up at t={time:.6g} (particle {particle})"
        if context:
            msg += f" [{context}]"
        msg += "; consider a smaller h_micro or the semi-implicit fast mode"
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
                   h_max: Optional[float] = None,
                   delta_exponent: float = 2.0 / 3.0) -> MultiscaleParams:
    """Default rules: h = h_factor * epsilon capped at h_max, delta = eps^exponent."""
    _check_epsilon(epsilon)
    h = epsilon * h_factor
    if h_max is not None:
        h = min(h, h_max)
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

    def fast_array(self):
        return np.stack(self.fast) if self.fast else np.empty((0, 0, 0))

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
        self.kind = "explicit" if lin is None else f"{lin.kind}:{lin.treatment}"
        if lin is not None and lin.kind == "scalar":
            if lin.treatment == "exact":
                self.phi = math.exp(-lin.rate * h_eff)
                self.coef = (1.0 - self.phi) / lin.rate
            else:
                self.denom = 1.0 + h_eff * lin.rate
        elif lin is not None and lin.kind == "laplacian":
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
        if self.kind == "scalar:exact":
            return self.phi * v + self.coef * g + noise_incr
        if self.kind == "scalar:semi_implicit":
            return (v + self.h_eff * g + noise_incr) / self.denom
        # laplacian, semi-implicit
        return (v + self.h_eff * g + noise_incr) @ self.inv_t


def _tame(model: ModelSpec, drift, h):
    """Cap drift increments per particle once ||drift|| * h exceeds 1."""
    if model.grid is not None:
        nrm = np.sqrt(l2_norm_sq(model.grid, drift))
    else:
        nrm = np.sqrt(np.sum(drift * drift, axis=-1))
    factor = np.where(h * nrm > 1.0, 1.0 / (1.0 + h * nrm), 1.0)
    return drift * factor[:, None]


def _check_finite(X, Y, time, context):
    # one reduction per array; a NaN fails the comparison too
    if np.abs(X).max() <= BLOWUP_LIMIT and np.abs(Y).max() <= BLOWUP_LIMIT:
        return
    bad = ~np.isfinite(X).all(axis=1) | ~np.isfinite(Y).all(axis=1)
    bad |= (np.abs(X) > BLOWUP_LIMIT).any(axis=1) | (np.abs(Y) > BLOWUP_LIMIT).any(axis=1)
    raise BlowUpError(time, int(np.argmax(bad)), context)


class FullRunner:
    """Chunked integrator for the full two-time-scale particle system.

    Optionally tracks, in the same pass and with shared noise:
      * the block-frozen auxiliary fast process (``aux_delta``),
      * the time-integrated squared slow increment over blocks
        (``increment_delta``),
      * the fast second-moment diagnostic flag.
    """

    def __init__(self, model: ModelSpec, x0, y0, n_particles: int,
                 params: MultiscaleParams, noise: noise_mod.NoisePlan,
                 slow_kind: int = noise_mod.SLOW,
                 aux_delta: Optional[float] = None,
                 increment_delta: Optional[float] = None,
                 recorder: Optional[TrajectoryRecorder] = None,
                 init_spread: float = 0.0,
                 context: str = ""):
        self.model = model
        self.params = params
        self.noise = noise
        self.slow_kind = slow_kind
        self.context = context
        N = n_particles
        self.X = np.broadcast_to(np.asarray(x0, dtype=float).reshape(-1), (N, model.slow_dim)).copy() \
            if np.asarray(x0).ndim <= 1 else np.array(x0, dtype=float)
        self.Y = np.broadcast_to(np.asarray(y0, dtype=float).reshape(-1), (N, model.fast_dim)).copy() \
            if np.asarray(y0).ndim <= 1 else np.array(y0, dtype=float)
        if init_spread > 0.0:
            self.X += init_spread * noise.gaussians(noise_mod.INIT, 0, 1, N, model.slow_dim)[0]
        self.h = params.h_micro
        self.sqrt_h = math.sqrt(self.h)
        self.h_eff = self.h / params.epsilon
        self.solver = _FastSolver(model, self.h_eff)
        self.k = 0
        self.n_steps = params.n_steps
        self.recorder = recorder

        self.aux_steps = (params.block_steps(aux_delta, "aux_delta")
                          if aux_delta is not None else None)
        if self.aux_steps is not None:
            self.Y_aux = self.Y.copy()
            self._aux_snap = None
            self.gap_sum = 0.0
            self.gap_count = 0
        self.inc_steps = (params.block_steps(increment_delta, "increment_delta")
                          if increment_delta is not None else None)
        if self.inc_steps is not None:
            self._X_block = self.X.copy()
            self.inc_sum = 0.0
            self.inc_count = 0

        c = model.constants
        self._mom_rate = c.get("c_coer_fast", 1.0) / max(c.get("lam", 1.0), 1e-12)
        self._mom_y0 = float(np.mean(fast_norm_sq(model, self.Y)))
        self._mom_sup_x = 0.0
        self.moment_flag = False

        if recorder is not None:
            recorder.maybe_record(0, 0.0, self.X, self.Y)

    def advance(self, n_sub: int, xs=None, xf=None):
        """Advance n_sub micro steps; noise blocks may be passed in by a
        coupled driver (they must be the streams this runner would draw)."""
        m = self.model
        N = self.X.shape[0]
        if xs is None:
            xs = self.noise.gaussians(self.slow_kind, self.k, n_sub, N, m.n_slow_modes)
        if xf is None:
            xf = self.noise.gaussians(noise_mod.FAST, self.k, n_sub, N, m.n_fast_modes)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n_sub):
                mu = empirical_view(m, self.X)
                if self.aux_steps is not None and self.k % self.aux_steps == 0:
                    forcing = (m.a2_split[1](self.X, mu)
                               if m.a2_split is not None else None)
                    self._aux_snap = (self.X.copy(), mu, forcing)
                if self.inc_steps is not None and self.k % self.inc_steps == 0:
                    self._X_block = self.X.copy()

                drift = m.a1(self.X, mu) + m.f(self.X, mu, self.Y)
                if m.tame_slow:
                    drift = _tame(m, drift, self.h)
                Xn = self.X + self.h * drift + self.sqrt_h * m.b1_apply(self.X, mu, xs[j])
                Yn = self.solver.step(self.X, mu, self.Y, xf[j])
                if self.aux_steps is not None:
                    Xs, mus, frc = self._aux_snap
                    self.Y_aux = self.solver.step(Xs, mus, self.Y_aux, xf[j],
                                                  forcing=frc)
                self.X, self.Y = Xn, Yn
                self.k += 1
                t = self.k * self.h

                if self.aux_steps is not None:
                    self.gap_sum += float(np.mean(fast_norm_sq(m, self.Y - self.Y_aux)))
                    self.gap_count += 1
                if self.inc_steps is not None:
                    self.inc_sum += float(np.mean(slow_norm_sq(m, self.X - self._X_block)))
                    self.inc_count += 1

                m2y = float(np.mean(fast_norm_sq(m, self.Y)))
                self._mom_sup_x = max(self._mom_sup_x, 2.0 * mu.second_moment)
                if m2y > 10.0 * (self._mom_y0 + self._mom_rate * (1.0 + self._mom_sup_x)):
                    self.moment_flag = True

                if self.recorder is not None:
                    self.recorder.maybe_record(self.k, t, self.X, self.Y,
                                               last=self.k == self.n_steps)
        _check_finite(self.X, self.Y, self.k * self.h, self.context)

    def run(self, chunk: int = 64):
        while self.k < self.n_steps:
            self.advance(min(chunk, self.n_steps - self.k))
        if self.recorder is not None:
            self.recorder.moment_flag = self.moment_flag
        return self

    @property
    def aux_gap(self) -> float:
        """Time-integrated mean-square gap (1/T) int E||Y - Y_aux||^2 dt."""
        return self.gap_sum / max(self.gap_count, 1)

    @property
    def increment_stat(self) -> float:
        """Estimate of (1/T) int E||X_t - X_{t(delta)}||^2 dt."""
        return self.inc_sum / max(self.inc_count, 1)


def simulate_full(model: ModelSpec, x0, y0, n_particles: int,
                  params: MultiscaleParams, noise: noise_mod.NoisePlan,
                  recorder: Optional[TrajectoryRecorder] = None,
                  init_spread: float = 0.0, chunk: int = 64) -> TrajectoryRecorder:
    """Integrate the full system to t_end, recording on the recorder's stride."""
    if recorder is None:
        recorder = TrajectoryRecorder(stride_steps=max(1, params.n_steps // 200))
    FullRunner(model, x0, y0, n_particles, params, noise, recorder=recorder,
               init_spread=init_spread).run(chunk=chunk)
    return recorder
