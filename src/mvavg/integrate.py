"""Interacting-particle time stepping for the coupled slow-fast system.

One micro step advances all N particles: the empirical-measure view is
computed once from the slow rows (the only synchronisation point), then every
particle is updated independently with Euler-Maruyama increments.  Runners
take a sequence of G grid points (one ``MultiscaleParams`` each) and of R
noise plans, and hold their state as (G, R, N, d): grid points on the
leading axis, each with its own micro step h (``h`` and ``sqrt_h`` are
(G, 1, 1, 1) arrays, or floats on a single grid point), then R independent
replications, particles on axis -2 and components on axis -1.  Each (grid point, replication) cloud has its
own empirical measure and its own diagnostics, and all of them step
together, one step index at a time: grid points of one replication read the
same noise at step k, so each step's (R, N, m) draw broadcasts over G.  A
single run is one grid point and one plan, (1, 1, N, d).  The fast drift's
declared stiff linear part is integrated by its exact exponential factor
(scalar dissipative rate) or semi-implicitly (Laplacian, by the cached dense
inverse of I + h_eff * (-laplacian) from ``spatial.dirichlet_inverse``);
everything else is explicit.
h_eff = h / eps is the same number on grid points of one ``h_factor``, and
they then share one fast solver.  The slow step is Euler-Maruyama, except
for models that declare a stabilisation constant K (``slow_stab``: the field
models, whose slow drifts are monotone but not Lipschitz).  Those take the
stabilised semi-implicit step

    (I - h K laplacian) X1 = X0 + h (a1(X0) + coupling - K laplacian X0)
                             + sqrt(h) b1 xs,

by a cached dense inverse per grid point (h K differs between them), so h
need not resolve dx^2 and follows eps alone.  K bounds the drift's
linearisation on the amplitudes the model expects: ``slow_stab`` maps the
largest |x0| a runner starts from to its K (the porous model sizes K on the
larger of that and its own ``x0_amplitude``; the p-Laplace K is constant).
A state far past them can still blow up, which the finiteness check reports.

Runners step only on noise handed to them: ``advance`` takes the draws of
the streams a runner lists in ``streams`` and checks nothing, and records
nothing.  ``march`` is the one loop over noise windows: it draws the
union of its runners' streams window by window from ``noise.windows`` and
advances them together to each stop, a window end or a step its caller
names.  The feed draws every window into the same buffers, so a runner
reads its noise inside ``advance`` and keeps none of it.  At a stop the caller checks grid points for blow-up
(``check_finite``), reads or records states, and lets a grid point leave
the stack (``leave``) when it is done with it.  ``run`` is a single runner's
march to its last step: it checks at each window end, and a
``TrajectoryRecorder`` handed to it records at its stride; the recorder's
``moment_flag`` checks the fast second moment on the rows it holds.

Auxiliary fast processes can be carried along, one per block size delta:
each consumes the SAME fast noise increments as the true fast process but
sees the slow state and measure frozen at the last boundary of its blocks,
on its grid point's own block steps.  The time-integrated mean-square gap
between it and the true fast process is the block-discretisation diagnostic
of the rate study; a ladder of deltas shares one true path.  Where the
model's ``b2`` reads no state (``ModelSpec.b2_reads_state`` False: additive
fast noise), the true and auxiliary fast processes share one increment
sqrt(h_eff) b2 xi per step, computed once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import noise as noise_mod
from .measure import MeasureMoments
from .models import ModelSpec, empirical_view, fast_norm_sq, slow_norm_sq
from .spatial import dirichlet_inverse, laplacian_apply
# not called here: ratebench/spans.py patches this module's solve_banded to trace a run
from .spatial import solve_banded  # noqa: F401

BLOWUP_LIMIT = 1e8


class BlowUpError(RuntimeError):
    """Non-finite or exploding particle state, found at ``time``; ``since`` is
    the time of the last check that found it clean, where one was made."""

    def __init__(self, time, particle, context="", since=None):
        self.time = time
        self.particle = particle
        self.context = context
        self.since = since
        msg = (f"state blew up at t={time:.6g}" if since is None else
               f"state blew up: found non-finite or |value| > {BLOWUP_LIMIT:g} "
               f"between t={since:.6g} and t={time:.6g}") + f" (particle {particle})"
        if context:
            msg += f" [{context}]"
        msg += ("; consider a smaller h_factor (the config key that sets h = h_factor * eps; "
                "frozen runs step by --h or hmm.h_frozen)")
        super().__init__(msg)

    def __reduce__(self):
        # rebuild from the fields, so the error survives a process pool
        return type(self), (self.time, self.particle, self.context, self.since)


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
    """Rows of a single run (``_SlowRunner.run``) at step 0, every ``stride_steps``-th
    step and the last step: the slow state of grid point 0, replication 0, and
    its fast state where the runner has one."""

    def __init__(self, stride_steps: int = 1):
        if stride_steps < 1:
            raise ValueError("stride_steps must be >= 1")
        self.stride_steps = stride_steps
        self.times: list[float] = []
        self.slow: list[np.ndarray] = []
        self.fast: list[np.ndarray] = []

    def record(self, runner):
        """Append ``runner``'s state at its step."""
        self.times.append(runner.k * runner.params[0].h_micro)
        self.slow.append(runner.X[0, 0].copy())
        if runner.Y is not None:
            self.fast.append(runner.Y[0, 0].copy())

    def moment_flag(self, model: ModelSpec) -> bool:
        """Whether the fast second moment left its bound at a recorded row j > 0:

            mu_j(|y|^2) > 10 (mu_0(|y|^2) + c_coer_fast / lam (1 + max_{i<j} 2 mu_i(|x|^2)))

        with mu_j the particle mean at row j, in the model's norms (lam floored
        at 1e-12; a constant the model does not declare reads as 1).  Reads the
        rows alone, so steps between them go unchecked."""
        c = model.constants
        rate = c.get("c_coer_fast", 1.0) / max(c.get("lam", 1.0), 1e-12)
        m2y = np.mean(fast_norm_sq(model, np.array(self.fast)), axis=-1)
        m2x = np.mean(slow_norm_sq(model, np.array(self.slow)), axis=-1)
        sup = np.maximum.accumulate(2.0 * m2x[:-1])
        return bool((m2y[1:] > 10.0 * (m2y[0] + rate * (1.0 + sup))).any())

    def dump_csv(self, path):
        """Plain CSV dump with header time,particle,component,index,value."""
        # one line template per component: a record is one % over (t, v, t, v, ...)
        blocks = [(rows, "".join(f"%.17g,{p},{comp},{i},%.17g\n"
                                 for p, i in np.ndindex(rows[0].shape)))
                  for comp, rows in (("slow", self.slow), ("fast", self.fast)) if rows]
        with open(path, "w") as fh:
            fh.write("time,particle,component,index,value\n")
            for j, t in enumerate(self.times):
                for rows, line in blocks:
                    args = [t] * (2 * rows[j].size)
                    args[1::2] = rows[j].ravel().tolist()
                    fh.write(line % tuple(args))


def _per_point(values):
    """One scalar per grid point: the one float when they share it, else a
    (G, 1, 1, 1) array over a (G, R, N, d) state (a float is the cheaper
    operand, and it serves a state of any shape)."""
    if len(set(values)) == 1:
        return values[0]
    return np.array(values, dtype=float).reshape(-1, 1, 1, 1)


def _inverses(n: int, h_effs):
    """The transposed inverses of I + h_eff * (-laplacian) of ``h_effs``, one per
    grid point: the one (n, n) when they share it, else a (G, 1, n, n) stack.

    Slice g of a stack is ``dirichlet_inverse(n, 1.0, h_effs[g]).T``, memory
    layout included, so a grid point's product runs a lone runner's kernel.
    Cached per (n, h_eff): the HMM refresh prepares a solver on every refresh.
    """
    if len(set(h_effs)) == 1:
        return dirichlet_inverse(n, 1.0, h_effs[0]).T
    return np.stack([dirichlet_inverse(n, 1.0, h) for h in h_effs]).transpose(0, 2, 1)[:, None]


class _FastSolver:
    """Prepared one-step kernel for the fast update at effective step h_eff:
    one float for any state, or one per grid point of a (G, R, N, d) state."""

    def __init__(self, model: ModelSpec, h_eff):
        self.model = model
        h_effs = list(h_eff) if np.ndim(h_eff) else [h_eff]
        self.h_eff = _per_point(h_effs)
        self.sqrt_h_eff = _per_point([math.sqrt(h) for h in h_effs])
        lin = model.fast_linear
        self.kind = "explicit" if lin is None else lin.kind
        if self.kind == "scalar":
            phis = [math.exp(-lin.rate * h) for h in h_effs]
            self.phi = _per_point(phis)
            self.coef = _per_point([(1.0 - phi) / lin.rate for phi in phis])
        elif self.kind == "laplacian":
            self.inv_t = _inverses(model.grid.n_interior, h_effs)

    def step(self, u_args, mu_args, v, xi, forcing=None, noise=None):
        """v after one step: phi v + coef g + noise (scalar), else v + h_eff g
        + noise, times the inverse (laplacian), g the drift's remainder and
        noise sqrt(h_eff) b2 xi, or ``noise`` where the caller has it.

        With ``forcing`` of a split whose v_coeff is 0.0 (the linear
        benchmark), g is scale * forcing: once phi v is added these are the
        bits of scale * (0.0 * v + forcing) at every finite v, signed zeros
        included.  An infinite v gives inf where that form gives NaN; only
        a slow state past the blow-up limit makes one, and its grid point
        fails on that state first."""
        m = self.model
        scale = self.coef if self.kind == "scalar" else self.h_eff
        if forcing is None:
            # the model's array, never written into: it may be a cached constant
            g = scale * m.a2_remainder(u_args, mu_args, v)
        elif m.a2_split[0] == 0.0:
            g = scale * forcing
        else:
            # a new array, summed and scaled in place (the products commute,
            # so the bits are those of scale * (v_coeff * v + forcing))
            g = m.a2_split[0] * v
            g += forcing
            g *= scale
        # v's term first, so the sum has the state's shape
        if self.kind == "scalar":
            out = self.phi * v
            out += g
        else:
            out = v + g
        if noise is None:
            noise = self.sqrt_h_eff * m.b2_apply(u_args, mu_args, v, xi)
        out += noise
        return out @ self.inv_t if self.kind == "laplacian" else out


def _check_finite(X, Y, time, context, since=None):
    # one reduction per array (Y None: X alone); a NaN fails the comparison too
    if np.abs(X).max() <= BLOWUP_LIMIT and (Y is None or np.abs(Y).max() <= BLOWUP_LIMIT):
        return
    Y = X if Y is None else Y
    bad = ~np.isfinite(X).all(axis=-1) | ~np.isfinite(Y).all(axis=-1)
    bad |= (np.abs(X) > BLOWUP_LIMIT).any(axis=-1) | (np.abs(Y) > BLOWUP_LIMIT).any(axis=-1)
    raise _blow_up(bad, time, context, since)


def _blow_up(bad, time, context, since=None) -> BlowUpError:
    """The BlowUpError of the first True in ``bad``, (R, N): its particle and,
    in a batch (R > 1), its replication row."""
    row, particle = np.unravel_index(np.argmax(bad), bad.shape)
    if bad.shape[0] > 1:    # a single run (R = 1) keeps its message free of a row
        context = f"{context}, batch row {row}" if context else f"batch row {row}"
    return BlowUpError(time, int(particle), context, since)


def _initial_state(v, shape):
    """A state of ``shape`` from one row shared by every particle, or one row each."""
    v = np.asarray(v, dtype=float)
    return np.broadcast_to(v.reshape(-1) if v.ndim <= 1 else v, shape).copy()


def _measure_at(mu: MeasureMoments, g) -> MeasureMoments:
    """The measures of grid point g, (R, 1, ...), from a stack's (G, R, 1, ...);
    of a list of grid points, the stack of theirs.  The second moment is
    sliced on its first read, so a reader of the mean alone computes none."""
    return MeasureMoments(mean=mu.mean[g], pending=lambda: mu.second_moment[g])


def _due(k: int, steps) -> list:
    """The grid points whose blocks of ``steps`` (one count each) start at step k."""
    return [g for g, s in enumerate(steps) if k % s == 0]


def _take(value, keep):
    """Grid points ``keep`` of an array (grid point on its leading axis) or a list."""
    return value[keep] if isinstance(value, np.ndarray) else [value[g] for g in keep]


class _SlowRunner:
    """Set-up, run loop, grid-point stack and slow update of the runners (see
    the module docstring).

    ``params`` is one ``MultiscaleParams`` per grid point (a single run may
    pass just one), ``plans`` a sequence of R noise plans, one per
    replication, and the slow state ``X`` is (G, R, N, slow_dim).
    ``streams`` lists the (kind, n_modes) noise streams that ``advance``
    takes, in its argument order.  ``n_steps`` is the last step of the
    longest grid point.  ``Y`` is the fast state, None for a runner without
    one.
    """

    # the attributes that hold one entry per grid point, on their leading axis
    _stacked = ("params", "failures", "clean_k", "X")
    Y = None

    def __init__(self, model: ModelSpec, x0, n_particles: int, params, plans, streams,
                 context: str):
        self.params = (params,) if isinstance(params, MultiscaleParams) else tuple(params)
        self.noise = tuple(plans)
        self.model = model
        self.streams = streams
        self.context = context
        self.X = _initial_state(x0, (len(self.params), len(self.noise), n_particles,
                                     model.slow_dim))
        # K follows the initial state, so a large config x0 raises it
        self.slow_stab = (None if model.slow_stab is None
                          else model.slow_stab(float(np.abs(self.X).max())))
        # a failure found inside a step, per grid point, raised by check_finite
        self.failures = [None] * len(self.params)
        # the step of each grid point's last check that found it finite
        self.clean_k = [0] * len(self.params)
        self.k = 0
        self._set_steps()

    def _set_steps(self):
        """The step constants of the grid points in ``params``."""
        hs = [p.h_micro for p in self.params]
        self.h = _per_point(hs)
        self.sqrt_h = _per_point([math.sqrt(h) for h in hs])
        self.n_steps = max(p.n_steps for p in self.params)
        if self.slow_stab is not None:
            self.stab_inv_t = _inverses(self.model.grid.n_interior,
                                        [h * self.slow_stab for h in hs])

    def leave(self, keep):
        """Keep only the grid points at stack positions ``keep`` (a list, in stack
        order).  Each stacked array is replaced by a copy, not written into."""
        for name in self._stacked:
            setattr(self, name, _take(getattr(self, name), keep))
        self._set_steps()

    def _slow_step(self, mu, coupling, xs):
        """X + h * (a1 + coupling) + sqrt(h) * b1 xs, stabilised by K if declared:
        a new array, so that a measure view of ``X`` stays valid (see
        ``models.empirical_view``)."""
        m = self.model
        # a new array, stepped in place: products and sums commute, so the
        # bits are those of X + h * drift + sqrt(h) * b1 xs
        drift = m.a1(self.X, mu) + coupling
        if self.slow_stab is not None:
            drift -= self.slow_stab * laplacian_apply(m.grid, self.X)
        drift *= self.h
        drift += self.X
        drift += self.sqrt_h * m.b1_apply(self.X, mu, xs)
        return drift if self.slow_stab is None else drift @ self.stab_inv_t

    def check_finite(self, g, context=None):
        """Raise a BlowUpError for grid point g (stack position) if a step
        failed or its state is not finite or past ``BLOWUP_LIMIT``: the time
        of this check and of the last clean one, the particle and, in a batch,
        the replication, with ``context`` (default the runner's; a failure
        found inside a step adds its own)."""
        context = self.context if context is None else context
        failure = self.failures[g]
        if failure is not None:
            raise BlowUpError(failure.time, failure.particle, f"{context}; {failure.context}",
                              failure.since)
        h = self.params[g].h_micro
        _check_finite(self.X[g], None if self.Y is None else self.Y[g], self.k * h,
                      context, self.clean_k[g] * h)
        self.clean_k[g] = self.k

    def run(self, recorder: Optional[TrajectoryRecorder] = None):
        """March to n_steps, checking every grid point at each window end.
        A ``recorder`` takes grid point 0, replication 0 at its stride, and is
        refused with more than one grid point or plan; a stack whose grid
        points differ in ``n_steps`` is refused too, both before any step."""
        if recorder is not None and (len(self.params), len(self.noise)) != (1, 1):
            raise ValueError("a recorder needs exactly one grid point and one noise plan")
        if len({p.n_steps for p in self.params}) > 1:
            raise ValueError("run() needs grid points of equal n_steps; march them as "
                             "study._coupled_error_once does, each leaving at its own last step")
        if recorder is not None:
            recorder.record(self)
        # without a recorder, the stops are the window ends
        stride = self.n_steps if recorder is None else recorder.stride_steps
        for k, window_end in march((self,), self.n_steps,
                                   lambda k: min(k - k % stride + stride, self.n_steps)):
            if window_end:
                for g in range(len(self.params)):
                    self.check_finite(g)
            if recorder is not None and (k % stride == 0 or k == self.n_steps):
                recorder.record(self)
        return self


def march(runners, n_steps: int, next_stop):
    """Advance ``runners`` together to step ``n_steps``; yield (k, window_end) at each stop.

    The runners share their plans, particle count and step index k.  One walk
    over ``noise.windows`` draws the union of their ``streams`` once per
    window; a stop is the window end or, if sooner, the step ``next_stop(k)``.
    At a stop the caller may check, read, record or ``leave``; leaving the
    loop ends the march, and no window past it is drawn.
    """
    lead = runners[0]
    streams = list(dict.fromkeys(s for r in runners for s in r.streams))
    for start, draws in noise_mod.windows(lead.noise, streams, lead.k, n_steps,
                                          lead.X.shape[-2]):
        window = dict(zip(streams, draws))
        end = start + len(draws[0])
        while lead.k < end:
            k = lead.k
            stop = min(end, next_stop(k))
            # counter-based streams: a runner's slice of the shared window
            # holds the increments it would draw alone; each step's draw is
            # (1, R, N, m), shaped like the (G, R, N, d) state
            for r in runners:
                r.advance(stop - k, *(window[s][k - start:stop - start, None]
                                      for s in r.streams))
            yield stop, stop == end


class FullRunner(_SlowRunner):
    """Integrator for the full two-time-scale particle system.

    Optionally tracks, in the same pass and with shared noise, one value per
    grid point and replication of:
      * one block-frozen auxiliary fast process per entry of ``aux_deltas``
        (its gap is the row of ``aux_gap``),
      * the time-integrated squared slow increment over blocks
        (``increment_delta``).
    A block size is one delta for every grid point, or a sequence of one per
    grid point.
    """

    _stacked = _SlowRunner._stacked + ("Y",)

    def __init__(self, model: ModelSpec, x0, y0, n_particles: int, params, plans,
                 aux_deltas=(),
                 increment_delta=None,
                 context: str = ""):
        super().__init__(model, x0, n_particles, params, plans,
                         ((noise_mod.SLOW, model.n_slow_modes),
                          (noise_mod.FAST, model.n_fast_modes)),
                         context)
        G, R = self.X.shape[:2]
        self.Y = _initial_state(y0, (G, R, n_particles, model.fast_dim))

        self.aux_steps = [self._block_steps(d, "aux_deltas") for d in aux_deltas]
        self.Y_aux = [self.Y.copy() for _ in self.aux_steps]
        # per aux process: the frozen (X, mu, forcing) it sees
        self._aux_snaps = [None] * len(self.aux_steps)
        # running sums of the per-step diagnostics, over the k steps taken
        self.gap_sum = np.zeros((len(self.aux_steps), G, R))
        self.inc_steps = (self._block_steps(increment_delta, "increment_delta")
                          if increment_delta is not None else [])
        if self.inc_steps:
            self._X_block = self.X.copy()
            self.inc_sum = np.zeros((G, R))
            self._stacked += ("inc_steps", "_X_block", "inc_sum")
        # the next step at which an aux or increment block starts
        self._next_due = 0

    def _block_steps(self, delta, name):
        """Micro steps per block on each grid point, from one delta or one per grid point."""
        deltas = delta if isinstance(delta, (list, tuple)) else [delta] * len(self.params)
        return [p.block_steps(d, name) for p, d in zip(self.params, deltas, strict=True)]

    def _set_steps(self):
        super()._set_steps()
        # h / eps is h_factor on every grid point of a study, and mostly the
        # same float: the grid points then share the solver's constants
        self.solver = _FastSolver(self.model, [p.h_micro / p.epsilon for p in self.params])

    def leave(self, keep):
        super().leave(keep)
        # one entry per aux process, each per grid point
        self.Y_aux = [_take(Ya, keep) for Ya in self.Y_aux]
        self.aux_steps = [_take(steps, keep) for steps in self.aux_steps]
        self._aux_snaps = [snap and (snap[0][keep], _measure_at(snap[1], keep),
                                     None if snap[2] is None else snap[2][keep])
                           for snap in self._aux_snaps]
        self.gap_sum = self.gap_sum[:, keep]
        # the next step looks up the block starts of the grid points kept
        self._next_due = self.k

    def advance(self, n_sub: int, xs, xf):
        """Advance every grid point n_sub micro steps on the slow and fast
        noise ``xs`` and ``xf``, each (n_sub, [1,] R, N, n_modes): steps k.. of
        the two streams, which every grid point reads.  Checks nothing (see
        ``check_finite``).  Each step adds its particle means of the squared
        aux gaps and block increment to the diagnostics' running sums.  A
        model whose ``b2`` reads no state gives the true and aux fast steps
        one increment per step."""
        m = self.model
        N = self.X.shape[-2]
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n_sub):
                mu = empirical_view(m, self.X)
                if self.k == self._next_due:
                    self._start_blocks(mu)

                Xn = self._slow_step(mu, m.f(self.X, mu, self.Y), xs[j])
                noise = (None if m.b2_reads_state else
                         self.solver.sqrt_h_eff * m.b2_apply(self.X, mu, self.Y, xf[j]))
                Yn = self.solver.step(self.X, mu, self.Y, xf[j], noise=noise)
                for i, (Xs, mus, frc) in enumerate(self._aux_snaps):
                    self.Y_aux[i] = self.solver.step(Xs, mus, self.Y_aux[i], xf[j],
                                                     forcing=frc, noise=noise)
                    self.gap_sum[i] += fast_norm_sq(m, Yn - self.Y_aux[i]).sum(axis=-1) / N
                self.X, self.Y = Xn, Yn
                self.k += 1
                if self.inc_steps:
                    self.inc_sum += slow_norm_sq(m, self.X - self._X_block).sum(axis=-1) / N

    def _start_blocks(self, mu):
        """Freeze the aux processes and slow state of the grid points whose
        blocks start at step k, and find the next step at which one does."""
        for i, steps in enumerate(self.aux_steps):
            due = _due(self.k, steps)
            if due:
                self._aux_snaps[i] = self._snapshot(self._aux_snaps[i], due, mu)
        due = _due(self.k, self.inc_steps)
        if due:
            self._X_block[due] = self.X[due]
        # -1, a step never reached, when the runner has no blocks
        self._next_due = min(((self.k // s + 1) * s
                              for steps in (*self.aux_steps, self.inc_steps) for s in steps),
                             default=-1)

    def _snapshot(self, snap, due, mu):
        """An aux process's frozen (X, mu, forcing), with the grid points ``due``
        taken from the current step (at step 0 all of them, into copies)."""
        m = self.model
        forcing = m.a2_split[1](self.X, mu) if m.a2_split is not None else None
        if snap is None:
            return (self.X.copy(), MeasureMoments(mu.mean.copy(), mu.second_moment.copy()),
                    None if forcing is None else forcing.copy())
        Xs, mus, frc = snap
        for old, new in ((Xs, self.X), (mus.mean, mu.mean),
                         (mus.second_moment, mu.second_moment), (frc, forcing)):
            if old is not None:
                old[due] = new[due]
        return snap

    @property
    def aux_gap(self):
        """Time-integrated mean-square gap (1/T) int E||Y - Y_aux||^2 dt, (D, G, R):
        one row per block size of ``aux_deltas``."""
        return self.gap_sum / max(self.k, 1)

    @property
    def increment_stat(self):
        """Estimate of (1/T) int E||X_t - X_{t(delta)}||^2 dt, (G, R)."""
        return self.inc_sum / max(self.k, 1)
