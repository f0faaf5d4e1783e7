"""Coefficient bundles for two-time-scale mean-field systems.

A :class:`ModelSpec` packages the five coefficient maps of a slow-fast system

    dX = [a1(X, mu) + f(X, mu, Y)] dt          + b1(X, mu) dW1
    dY = (1/eps) a2(X, mu, Y) dt               + (1/sqrt(eps)) b2(X, mu, Y) dW2

where mu is the law of the slow component, represented throughout by the
moments (mean, mu(||.||^2)) of the N-particle empirical measure.  Coefficient
callables are vectorised over stacked particle rows (one call evaluates all N
particles of a micro step, in one process) and must stay pure: bitwise replay
and the common-random-number coupling rely on a call depending only on its
arguments.

The registry exposes four concrete systems ("linear-benchmark",
"mvsde-cubic", "porous-media-1d", "plaplace-1d") plus one deliberately
anti-dissipative model used to exercise the probe machinery.  One builder
per family holds what its members share (``_scalar_model``, ``_field_model``);
a member's builder checks its parameters and declares its own slow drift,
slow norm and K.  Each model declares the structural constants (dissipativity
rates, coercivity budgets) that its randomized hypothesis probes certify.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import spatial
from .measure import MeasureMoments, SampleSet, w2_1d, w2_coupling_bound
from .spatial import Grid1D


class ModelParamError(ValueError):
    """A model parameter outside its range; the message starts with its name."""


@dataclass(frozen=True)
class FastLinearPart:
    """Declared linear part of the fast drift, flagged for stiff treatment.

    kind "scalar": drift contains -rate * v, integrated by the exact
    exponential factor.  kind "laplacian": drift contains the Dirichlet
    Laplacian on the model grid, integrated semi-implicitly.
    """

    kind: str
    rate: float = 0.0


@dataclass
class ModelSpec:
    model_id: str
    slow_dim: int
    fast_dim: int
    n_slow_modes: int
    n_fast_modes: int
    a1: Callable
    f: Callable
    a2_remainder: Callable
    b1_apply: Callable
    b2_apply: Callable
    b1_coeff: Callable
    b2_coeff: Callable
    constants: dict
    norm_slow: str
    norm_fast: str
    default_x0: np.ndarray
    default_y0: np.ndarray
    probe_fns: dict = field(default_factory=dict)
    fast_linear: Optional[FastLinearPart] = None
    a2_split: Optional[tuple] = None   # (v_coeff, forcing(U, mu)) when the
                                       # remainder is v_coeff*V + forcing
    grid: Optional[Grid1D] = None
    exact_fbar: Optional[Callable] = None
    v1_norm_alpha: Optional[Callable] = None
    slow_stab: Optional[Callable] = None   # K(initial amplitude) of the stabilised
                                           # slow step (field models; see _SlowRunner)
    measure_dependent: bool = True
    # whether a2_remainder, b2_apply or f read mu: a scalar model whose
    # frozen law does not shares one fbar(x) lattice per replication in HMM
    # mode (see averaging)
    frozen_reads_mu: bool = True

    def fast_linear_apply(self, V):
        if self.fast_linear is None:
            return np.zeros_like(V)
        if self.fast_linear.kind == "scalar":
            return -self.fast_linear.rate * V
        return spatial.laplacian_apply(self.grid, V)

    def a2(self, U, mu, V):
        """Full fast drift (declared linear part plus remainder)."""
        return self.fast_linear_apply(V) + self.a2_remainder(U, mu, V)


# ---------------------------------------------------------------------------
# norms, inner products, empirical views
# ---------------------------------------------------------------------------

def _inner(tag, grid, a, b):
    if tag == "euclidean":
        return (a * b).sum(axis=-1)
    if tag == "l2":
        return spatial.l2_inner(grid, a, b)
    if tag == "hminus1":
        return spatial.hminus1_inner(grid, a, b)
    raise ValueError(f"unknown norm tag {tag!r}")


def slow_norm_sq(model: ModelSpec, U):
    return _inner(model.norm_slow, model.grid, U, U)


def fast_norm_sq(model: ModelSpec, V):
    return _inner(model.norm_fast, model.grid, V, V)


def slow_inner(model: ModelSpec, a, b):
    return _inner(model.norm_slow, model.grid, a, b)


def fast_inner(model: ModelSpec, a, b):
    return _inner(model.norm_fast, model.grid, a, b)


def empirical_view(model: ModelSpec, U) -> MeasureMoments:
    """Moments of the slow-particle cloud under the model's state norm.

    A cloud (N, d) gives a (d,) mean and a float second moment; a stack of
    clouds (..., N, d), such as a runner's (G, R, N, d), gives one measure
    per cloud, a (..., 1, d) mean and a (..., 1, 1) second moment, which
    broadcast against the stack's states.  A stack's mean is computed here
    and its second moment on its first read, from ``U``: the caller must
    not write into ``U`` while the view may still be read (the runners
    replace their state at each step and never write into it).
    """
    U = np.asarray(U, dtype=float)
    N = U.shape[-2]
    # sums over particles divided by N: the bits of numpy's mean, without its overhead
    if U.ndim == 2:
        return MeasureMoments(mean=U.sum(axis=0) / N,
                              second_moment=float(slow_norm_sq(model, U).sum() / N))
    return MeasureMoments(mean=U.sum(axis=-2, keepdims=True) / N,
                          pending=lambda: _second_moment(model, U))


def _second_moment(model: ModelSpec, U):
    """The (..., 1, 1) second moments of a stack of clouds (..., N, d)."""
    return (slow_norm_sq(model, U).sum(axis=-1) / U.shape[-2])[..., None, None]


def _hs_sq(tag, grid, coeff):
    """Squared Hilbert-Schmidt norm of a diffusion coefficient.

    ``coeff`` is (d, m) or (N, d, m); columns are measured in the state norm.
    Returns a scalar or (N,) array.
    """
    cols = np.moveaxis(np.asarray(coeff, dtype=float), -1, -2)
    cols_sq = _inner(tag, grid, cols, cols)
    return np.sum(cols_sq, axis=-1)


# ---------------------------------------------------------------------------
# hypothesis probes
# ---------------------------------------------------------------------------

# a probe passes when its worst slack is >= -PROBE_TOLERANCE (rounding headroom)
PROBE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class ProbeSampler:
    """Ranges for randomized inequality probes."""

    state_scale: float = 1.5
    fast_scale: float = 1.5
    measure_samples: int = 8
    measure_scale: float = 1.0


@dataclass
class HypothesisReport:
    property: str
    samples: int
    worst_margin: float
    violating_witness: Optional[dict] = None

    @property
    def passed(self) -> bool:
        # a NaN margin (a non-finite slack, or no samples) fails
        return self.worst_margin >= -PROBE_TOLERANCE


def _sample_measure_pair(model, sampler, rng):
    d = model.slow_dim
    k = sampler.measure_samples
    pts1 = sampler.measure_scale * rng.standard_normal((k, d))
    pts2 = sampler.measure_scale * rng.standard_normal((k, d))
    mu1 = empirical_view(model, pts1)
    mu2 = empirical_view(model, pts2)
    if d == 1:
        w2 = w2_1d(SampleSet(pts1), SampleSet(pts2))
    else:
        # exact transport not needed: an upper bound only weakens the check
        w2 = w2_coupling_bound(SampleSet(pts1), SampleSet(pts2))
    return mu1, mu2, w2


def probe_hypothesis(model: ModelSpec, property_name: str, n_samples: int = 1000,
                     sampler: ProbeSampler | None = None, seed: int = 0) -> HypothesisReport:
    """Randomized slack certificate for one structural inequality.

    Draws tuples (u1, u2, mu1, mu2, v1, v2), evaluates the model's slack for
    the requested property (slack >= 0 means the inequality holds with the
    declared constants) and reports the worst margin with a witness if it
    dips below -PROBE_TOLERANCE.  A non-finite slack certifies nothing: it makes
    the margin NaN, which fails, with that sample as the witness; so does a
    probe of zero samples.  Deterministic given the seed.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples!r}")
    if property_name not in model.probe_fns:
        raise ValueError(
            f"model {model.model_id!r} declares no probe for {property_name!r}; "
            f"available: {sorted(model.probe_fns)}")
    sampler = sampler or ProbeSampler()
    rng = np.random.default_rng(seed)
    fn = model.probe_fns[property_name]

    n_chunks = max(1, min(32, n_samples))
    sizes = [n_samples // n_chunks + (1 if i < n_samples % n_chunks else 0)
             for i in range(n_chunks)]
    worst = np.inf
    witness = None
    total = 0
    for size in sizes:
        if size == 0:
            continue
        mu1, mu2, w2 = _sample_measure_pair(model, sampler, rng)
        u1 = sampler.state_scale * rng.standard_normal((size, model.slow_dim))
        u2 = sampler.state_scale * rng.standard_normal((size, model.slow_dim))
        v1 = sampler.fast_scale * rng.standard_normal((size, model.fast_dim))
        v2 = sampler.fast_scale * rng.standard_normal((size, model.fast_dim))
        slack = np.asarray(fn(u1, u2, v1, v2, mu1, mu2, w2), dtype=float)
        bad = ~np.isfinite(slack)
        i = int(np.argmax(bad)) if bad.any() else int(np.argmin(slack))
        margin = math.nan if bad[i] else float(slack[i])
        if margin < worst or math.isnan(margin) and not math.isnan(worst):
            worst = margin
            witness = {
                "u1": u1[i].copy(), "u2": u2[i].copy(),
                "v1": v1[i].copy(), "v2": v2[i].copy(),
                "mu1_mean": mu1.mean.copy(), "mu2_mean": mu2.mean.copy(),
                "mu1_m2": mu1.second_moment, "mu2_m2": mu2.second_moment,
                "w2": w2, "slack": worst,
            }
        total += size
    if total == 0:
        worst = math.nan
    return HypothesisReport(
        property=property_name, samples=total, worst_margin=worst,
        violating_witness=witness if not worst >= -PROBE_TOLERANCE else None)


def run_probe_suite(model: ModelSpec, n_samples: int = 1000,
                    seed: int = 0) -> list[HypothesisReport]:
    """Run every probe the model declares."""
    return [probe_hypothesis(model, p, n_samples=n_samples, seed=seed + j)
            for j, p in enumerate(model.probe_fns)]


# ---------------------------------------------------------------------------
# model builders
# ---------------------------------------------------------------------------

def _scalar_model(model_id: str, a1, a2_remainder, *, f0, sigma1, rate, b2_apply, b2_coeff,
                  y0, constants, measure_dependent, a2_split=None, exact_fbar=None,
                  frozen_reads_mu=True):
    """A scalar model: coupling f0 y, additive slow noise sigma1, the fast
    drift's exact scalar rate, euclidean norms and x0 = 1."""

    def f(U, mu, V):
        return f0 * V

    b1c = np.array([[sigma1]])
    m = ModelSpec(
        model_id=model_id, slow_dim=1, fast_dim=1,
        n_slow_modes=1, n_fast_modes=1,
        a1=a1, f=f, a2_remainder=a2_remainder,
        b1_apply=lambda U, mu, xi: sigma1 * xi,
        b2_apply=b2_apply,
        b1_coeff=lambda U, mu: b1c,
        b2_coeff=b2_coeff,
        constants={"kappa": rate, "lam": rate, "f0": f0, "sigma1": sigma1, **constants},
        norm_slow="euclidean", norm_fast="euclidean",
        default_x0=np.array([1.0]), default_y0=np.array([y0]),
        fast_linear=FastLinearPart("scalar", rate=rate),
        a2_split=a2_split,
        exact_fbar=exact_fbar,
        v1_norm_alpha=lambda U: np.sum(U * U, axis=-1),
        measure_dependent=measure_dependent,
        frozen_reads_mu=frozen_reads_mu,
    )

    def lip_f_bound(du, dv, w2, mu1, mu2):
        return abs(f0) * dv

    m.probe_fns = _standard_probe_fns(m, lip_f_bound)
    return m


def make_linear_benchmark(a11: float = -1.0, a12: float = 0.25, f0: float = 1.0,
                          sigma1: float = 0.3, gamma: float = 2.0, k1: float = 1.0,
                          k2: float = 0.25, sigma2: float = 0.5) -> ModelSpec:
    """Scalar slow-fast system with every averaging quantity in closed form.

        dX = (a11 X + a12 m(mu) + f0 Y) dt + sigma1 dW1
        dY = (1/eps)(-gamma Y + k1 X + k2 m(mu)) dt + sigma2/sqrt(eps) dW2

    The frozen fast dynamics is Ornstein-Uhlenbeck: its invariant law is
    Gaussian with mean (k1 x + k2 m)/gamma and variance sigma2^2/(2 gamma),
    so the averaged coupling drift is f0 (k1 x + k2 m)/gamma exactly.
    """
    if gamma <= 0:
        raise ModelParamError(f"gamma: must be positive (fast dynamics must dissipate), "
                              f"got {gamma!r}")

    def a1(U, mu):
        return a11 * U + a12 * mu.mean

    def a2_forcing(U, mu):
        return k1 * U + k2 * mu.mean

    def a2_rem(U, mu, V):
        return a2_forcing(U, mu)

    def exact_fbar(U, mu):
        return (f0 / gamma) * (k1 * U + k2 * mu.mean)

    b2c = np.array([[sigma2]])
    return _scalar_model(
        "linear-benchmark", a1, a2_rem, f0=f0, sigma1=sigma1, rate=gamma,
        b2_apply=lambda U, mu, V, xi: sigma2 * xi,
        b2_coeff=lambda U, mu, V: b2c,
        y0=1.0, constants={
            "l_b2": 0.0,
            "c_mono_slow": max(a11, 0.0) + abs(a12),
            "theta_slow": -2.0 * a11 - abs(a12),
            "c_coer_slow": abs(a12) + sigma1 ** 2 + 1.0,
            "c_coer_fast": 2.0 * (k1 ** 2 + k2 ** 2) / gamma + sigma2 ** 2 + 1.0,
            "a11": a11, "a12": a12, "gamma": gamma, "k1": k1, "k2": k2, "sigma2": sigma2,
        },
        measure_dependent=not (a12 == 0.0 and k2 == 0.0),
        a2_split=(0.0, a2_forcing), exact_fbar=exact_fbar)


def make_mvsde_cubic(kappa: float = 1.0, k1: float = 0.5, c_sin: float = 0.5,
                     c_mu: float = 0.25, f0: float = 1.0, sigma1: float = 0.3,
                     sigma_c: float = 0.4, l_sigma2: float = 0.1) -> ModelSpec:
    """Scalar mean-field system with strictly monotone cubic fast drift.

        dX = (c_sin sin X + c_mu m(mu) + f0 Y) dt + sigma1 dW1
        dY = (1/eps)(-kappa Y - Y^3 + k1 X) dt
             + (sigma_c + l_sigma2 tanh Y)/sqrt(eps) dW2

    The cubic term only strengthens the fast dissipativity, so the strict
    monotonicity constant is kappa itself; the diffusion is Lipschitz in y
    with constant l_sigma2.  The averaged drift has no closed form and is
    estimated ergodically; mu enters the slow drift alone, so the frozen law
    reads x alone (``frozen_reads_mu`` False).
    """
    if kappa <= 0:
        raise ModelParamError(f"kappa: must be positive, got {kappa!r}")
    if kappa <= 2.0 * l_sigma2 ** 2:
        raise ModelParamError(f"kappa: averaging needs kappa > 2 l_sigma2^2 = "
                              f"{2 * l_sigma2 ** 2:.6g} (l_sigma2 = {l_sigma2!r}), got {kappa!r}")
    if sigma_c <= abs(l_sigma2):
        raise ModelParamError(f"sigma_c: nondegenerate fast noise needs sigma_c > |l_sigma2| = "
                              f"{abs(l_sigma2):.6g}, got {sigma_c!r}")

    def a1(U, mu):
        return c_sin * np.sin(U) + c_mu * mu.mean

    def a2_rem(U, mu, V):
        # a product, not a power: numpy's pow takes a slow path on negative bases
        return -(V * V * V) + k1 * U

    def sig2(V):
        return sigma_c + l_sigma2 * np.tanh(V)

    return _scalar_model(
        "mvsde-cubic", a1, a2_rem, f0=f0, sigma1=sigma1, rate=kappa,
        b2_apply=lambda U, mu, V, xi: sig2(V) * xi,
        b2_coeff=lambda U, mu, V: sig2(V)[..., None],
        y0=0.5, constants={
            "l_b2": abs(l_sigma2),
            "c_mono_slow": c_sin + c_mu,
            "theta_slow": 1.0,
            "c_coer_slow": 1.0 + c_sin + c_mu + sigma1 ** 2,
            "c_coer_fast": k1 ** 2 / kappa + (sigma_c + abs(l_sigma2)) ** 2 + 1.0,
            "k1": k1, "c_sin": c_sin, "c_mu": c_mu,
            "sigma_c": sigma_c, "l_sigma2": l_sigma2,
        },
        measure_dependent=c_mu != 0.0, frozen_reads_mu=False)


def _field_grid(n_interior: int, n_slow_modes: int, n_fast_modes: int, c_g: float):
    """A field model's grid and its lambda1, the node and mode counts checked,
    and c_g against the eigenvalue gap condition c_g < lambda1."""
    if n_interior < 1:
        raise ModelParamError(f"n_interior: must be >= 1, got {n_interior!r}")
    for key, val in (("n_slow_modes", n_slow_modes), ("n_fast_modes", n_fast_modes)):
        if not 1 <= val <= n_interior:
            raise ModelParamError(f"{key}: must lie in [1, n_interior] = [1, {n_interior}], "
                                  f"got {val!r}")
    grid = Grid1D(n_interior)
    lam1 = spatial.lambda1(grid)
    if lam1 - c_g <= 0.0:
        raise ModelParamError(f"c_g: the eigenvalue gap condition needs c_g < lambda1 = "
                              f"{lam1:.6g} of the n_interior = {n_interior} grid, got {c_g!r}")
    return grid, lam1


def _sine_noise(grid, n_modes, scale):
    basis = np.stack([spatial.sine_mode(grid, k) for k in range(1, n_modes + 1)])
    coeff = scale * basis.T  # (d, m)
    rows = scale * basis     # (m, d)

    def apply(xi):
        return xi @ rows

    return coeff, apply


def _field_model(model_id: str, grid: Grid1D, lam1: float, a1, *, norm_slow, hs_b1,
                 v1_norm_alpha, slow_stab, constants, c_f, c_m, sigma1, c_g, c_u, c_mu_g,
                 sigma2, n_slow_modes, n_fast_modes, x0_amplitude):
    """A field model: the slow drift ``a1`` over the shared fast field

        coupling   f = c_f v + c_m mu(||.||^2) tanh(u)
        fast drift laplacian(v) - c_g v + c_u tanh(u) + c_mu_g m(mu)

    with sine-mode noise on both (sigma1, sigma2; n_slow_modes, n_fast_modes
    modes), fast errors in L^2 and x0 = x0_amplitude sin(pi x).  The fast
    equation is linear in v with constant mode noise, so the frozen
    invariant mean solves (c_g - laplacian) mean = forcing and the averaged
    coupling drift is available in closed form.
    """
    n = grid.n_interior
    b1c, b1_do = _sine_noise(grid, n_slow_modes, sigma1)
    b2c, b2_do = _sine_noise(grid, n_fast_modes, sigma2)

    def f(U, mu, V):
        return c_f * V + c_m * mu.second_moment * np.tanh(U)

    def a2_rem(U, mu, V):
        return -c_g * V + c_u * np.tanh(U) + c_mu_g * mu.mean

    def _forc(tanh_u, mu):
        return c_u * tanh_u + c_mu_g * mu.mean

    def forcing(U, mu):
        return _forc(np.tanh(U), mu)

    def exact_fbar(U, mu):
        # not through forcing: the coupling term reads the same tanh(U)
        tanh_u = np.tanh(U)
        mean_v = spatial.solve_shifted_neg_laplacian(grid, c_g, _forc(tanh_u, mu))
        return c_f * mean_v + c_m * mu.second_moment * tanh_u

    hs_b2 = sigma2 ** 2 * n_fast_modes                # columns measured in L^2
    kappa = lam1 + c_g
    m = ModelSpec(
        model_id=model_id, slow_dim=n, fast_dim=n,
        n_slow_modes=n_slow_modes, n_fast_modes=n_fast_modes,
        a1=a1, f=f, a2_remainder=a2_rem,
        b1_apply=lambda U, mu, xi: b1_do(xi),
        b2_apply=lambda U, mu, V, xi: b2_do(xi),
        b1_coeff=lambda U, mu: b1c,
        b2_coeff=lambda U, mu, V: b2c,
        constants={
            "kappa": kappa, "l_b2": 0.0, "lam": kappa,
            "c_mono_slow": 0.0,
            "c_coer_slow": hs_b1 + 1.0,
            "c_coer_fast": (c_u ** 2 + c_mu_g ** 2) / kappa * 4.0 + hs_b2 + 1.0,
            "c_f": c_f, "c_m": c_m, "sigma1": sigma1,
            "c_g": c_g, "c_u": c_u, "c_mu_g": c_mu_g, "sigma2": sigma2, **constants,
        },
        norm_slow=norm_slow, norm_fast="l2",
        default_x0=x0_amplitude * np.sin(np.pi * grid.nodes), default_y0=np.zeros(n),
        fast_linear=FastLinearPart("laplacian"),
        a2_split=(-c_g, forcing),
        grid=grid, exact_fbar=exact_fbar,
        v1_norm_alpha=v1_norm_alpha,
        slow_stab=slow_stab,
    )

    def lip_f_bound(du_l2, dv, w2, mu1, mu2):
        # pointwise tanh coupling: the L2 modulus of the slow argument; an L2
        # bound is over sqrt(lambda1) in H^-1
        big_m2 = max(mu1.second_moment, mu2.second_moment)
        bound = c_f * dv + c_m * big_m2 * du_l2
        return bound / math.sqrt(lam1) if norm_slow == "hminus1" else bound

    m.probe_fns = _standard_probe_fns(m, lip_f_bound)
    return m


def make_porous_media_1d(r: float = 4.0, n_interior: int = 63, c_psi: float = 1.0,
                         c_f: float = 0.5, c_m: float = 0.2, sigma1: float = 0.05,
                         c_g: float = 0.5, c_u: float = 0.5, c_mu_g: float = 0.25,
                         sigma2: float = 0.2, n_slow_modes: int = 4,
                         n_fast_modes: int = 4, x0_amplitude: float = 0.4) -> ModelSpec:
    """Degenerate-diffusion slow field coupled to the stiff linear fast field
    of ``_field_model``.

    Slow drift: c_psi * laplacian(psi(u)) with psi(u) = |u|^(r-2) u applied
    pointwise (monotone, not Lipschitz; integrated by the stabilised
    semi-implicit step with ``slow_stab`` K, sized on the larger of
    ``x0_amplitude`` and the largest |x0| a runner starts from).  Slow-state
    errors are measured in the discrete H^-1 norm.
    """
    if r < 2:
        raise ModelParamError(f"r: the porous medium exponent must be >= 2, got {r!r}")
    grid, lam1 = _field_grid(n_interior, n_slow_modes, n_fast_modes, c_g)

    def psi(u):
        return np.abs(u) ** (r - 2.0) * u

    def a1(U, mu):
        return c_psi * spatial.laplacian_apply(grid, psi(U))

    def stab(amplitude):
        # bound on the linearisation c_psi psi'(u) = c_psi (r-1) |u|^(r-2),
        # on amplitudes up to about twice the initial one
        return c_psi * (r - 1.0) * max(2.0 * amplitude, 0.25) ** (r - 2.0)

    stab_x0 = stab(x0_amplitude)
    eigs = (2.0 / grid.dx ** 2) * (1.0 - np.cos(np.arange(1, n_slow_modes + 1) * np.pi * grid.dx))
    return _field_model(
        "porous-media-1d", grid, lam1, a1, norm_slow="hminus1",
        hs_b1=sigma1 ** 2 * float(np.sum(1.0 / eigs)),   # columns measured in H^-1
        v1_norm_alpha=lambda U: grid.dx * np.sum(np.abs(U) ** r, axis=-1),
        slow_stab=lambda amplitude: max(stab_x0, stab(amplitude)),
        constants={"r": r, "c_psi": c_psi, "theta_slow": 2.0 * c_psi},
        c_f=c_f, c_m=c_m, sigma1=sigma1, c_g=c_g, c_u=c_u, c_mu_g=c_mu_g, sigma2=sigma2,
        n_slow_modes=n_slow_modes, n_fast_modes=n_fast_modes, x0_amplitude=x0_amplitude)


def make_plaplace_1d(p: float = 4.0, n_interior: int = 63, c_p: float = 0.3,
                     c_f: float = 0.5, c_m: float = 0.2, sigma1: float = 0.05,
                     c_g: float = 0.5, c_u: float = 0.5, c_mu_g: float = 0.25,
                     sigma2: float = 0.2, n_slow_modes: int = 4,
                     n_fast_modes: int = 4, x0_amplitude: float = 0.3) -> ModelSpec:
    """Gradient-nonlinearity slow field over the fast field of
    ``_field_model``; reduces to the heat drift at p = 2.

    Slow drift: c_p * d/dx(|du/dx|^(p-2) du/dx) via forward differences with
    Dirichlet ghosts.  Slow errors are measured in discrete L^2 (the pivot
    space for this example).
    """
    if p < 2:
        raise ModelParamError(f"p: the p-Laplace exponent must be >= 2, got {p!r}")
    grid, lam1 = _field_grid(n_interior, n_slow_modes, n_fast_modes, c_g)
    dx = grid.dx

    def grad(U):
        # forward differences including both Dirichlet ghost gaps: (..., n+1)
        low = np.concatenate([U[..., :1], np.diff(U, axis=-1), -U[..., -1:]], axis=-1)
        return low / dx

    def a1(U, mu):
        q = grad(U)
        phi = np.abs(q) ** (p - 2.0) * q
        return c_p * np.diff(phi, axis=-1) / dx

    # bound on the linearisation c_p (p-1) |du/dx|^(p-2), on gradients up to 2
    stab = c_p * (p - 1.0) * 2.0 ** (p - 2.0)
    return _field_model(
        "plaplace-1d", grid, lam1, a1, norm_slow="l2",
        hs_b1=sigma1 ** 2 * n_slow_modes,
        v1_norm_alpha=lambda U: dx * np.sum(np.abs(grad(U)) ** p, axis=-1),
        slow_stab=lambda amplitude: stab,
        constants={"p": p, "c_p": c_p, "theta_slow": 2.0 * c_p},
        c_f=c_f, c_m=c_m, sigma1=sigma1, c_g=c_g, c_u=c_u, c_mu_g=c_mu_g, sigma2=sigma2,
        n_slow_modes=n_slow_modes, n_fast_modes=n_fast_modes, x0_amplitude=x0_amplitude)


def make_broken_antidissipative(sigma2: float = 0.3) -> ModelSpec:
    """Deliberately invalid model: the fast drift +y expands instead of
    contracting, while kappa = 1 is (falsely) declared.  Probe fodder."""

    def zero1(U, mu):
        return np.zeros_like(U)

    def zerof(U, mu, V):
        return np.zeros_like(U)

    def a2_rem(U, mu, V):
        return V

    b2c = np.array([[sigma2]])
    constants = {"kappa": 1.0, "l_b2": 0.0, "lam": 1.0}
    m = ModelSpec(
        model_id="broken-antidissipative", slow_dim=1, fast_dim=1,
        n_slow_modes=1, n_fast_modes=1,
        a1=zero1, f=zerof, a2_remainder=a2_rem,
        b1_apply=lambda U, mu, xi: 0.0 * xi,
        b2_apply=lambda U, mu, V, xi: sigma2 * xi,
        b1_coeff=lambda U, mu: np.zeros((1, 1)),
        b2_coeff=lambda U, mu, V: b2c,
        constants=constants, norm_slow="euclidean", norm_fast="euclidean",
        default_x0=np.array([0.0]), default_y0=np.array([1.0]),
        fast_linear=None, exact_fbar=None,
        v1_norm_alpha=lambda U: np.sum(U * U, axis=-1),
        measure_dependent=False,
    )
    m.probe_fns = {
        "strict_monotonicity_fast": _strict_fast_slack(m),
    }
    return m


# ---------------------------------------------------------------------------
# probe slack closures
# ---------------------------------------------------------------------------

def _strict_fast_slack(m: ModelSpec):
    kappa = m.constants["kappa"]

    def slack(u1, u2, v1, v2, mu1, mu2, w2):
        dv = v1 - v2
        pair = fast_inner(m, m.a2(u1, mu1, v1) - m.a2(u1, mu1, v2), dv)
        return -pair - kappa * fast_norm_sq(m, dv)

    return slack


def _standard_probe_fns(m: ModelSpec, lip_f_bound):
    c = m.constants
    grid = m.grid
    # the slow argument of f in L2 on a field model (its coupling is pointwise)
    du_tag = m.norm_slow if grid is None else "l2"

    def mono_slow(u1, u2, v1, v2, mu1, mu2, w2):
        du = u1 - u2
        pair = slow_inner(m, m.a1(u1, mu1) - m.a1(u2, mu2), du)
        return c["c_mono_slow"] * (slow_norm_sq(m, du) + w2 ** 2) - pair

    def lip_f(u1, u2, v1, v2, mu1, mu2, w2):
        # same measure on both sides: certifies the state Lipschitz modulus
        df = m.f(u1, mu1, v1) - m.f(u2, mu1, v2)
        dv = np.sqrt(fast_norm_sq(m, v1 - v2))
        du = np.sqrt(_inner(du_tag, grid, u1 - u2, u1 - u2))
        return lip_f_bound(du, dv, w2, mu1, mu1) - np.sqrt(slow_norm_sq(m, df))

    def lip_b1(u1, u2, v1, v2, mu1, mu2, w2):
        db = np.asarray(m.b1_coeff(u1, mu1), dtype=float) - np.asarray(m.b1_coeff(u2, mu2), dtype=float)
        hs = _hs_sq(m.norm_slow, grid, db)
        du = np.sqrt(slow_norm_sq(m, u1 - u2))
        bound = c.get("lip_b1", 0.0) * (du + w2)
        return bound - np.sqrt(hs) * np.ones_like(du)

    def lip_b2(u1, u2, v1, v2, mu1, mu2, w2):
        db = np.asarray(m.b2_coeff(u1, mu1, v1), dtype=float) - np.asarray(m.b2_coeff(u1, mu1, v2), dtype=float)
        hs = _hs_sq(m.norm_fast, grid, db)
        dv = np.sqrt(fast_norm_sq(m, v1 - v2))
        return c["l_b2"] * dv - np.sqrt(hs) * np.ones_like(dv)

    def coer_slow(u1, u2, v1, v2, mu1, mu2, w2):
        pair = slow_inner(m, m.a1(u1, mu1), u1)
        hs = _hs_sq(m.norm_slow, grid, np.asarray(m.b1_coeff(u1, mu1), dtype=float))
        budget = c["c_coer_slow"] * (1.0 + slow_norm_sq(m, u1) + mu1.second_moment)
        return budget - c["theta_slow"] * m.v1_norm_alpha(u1) - 2.0 * pair - hs

    def coer_fast(u1, u2, v1, v2, mu1, mu2, w2):
        pair = fast_inner(m, m.a2(u1, mu1, v1), v1)
        hs = _hs_sq(m.norm_fast, grid, np.asarray(m.b2_coeff(u1, mu1, v1), dtype=float))
        budget = c["c_coer_fast"] * (1.0 + slow_norm_sq(m, u1) + mu1.second_moment)
        return budget - 2.0 * pair - hs - c["lam"] * fast_norm_sq(m, v1)

    return {
        "monotonicity_slow": mono_slow,
        "strict_monotonicity_fast": _strict_fast_slack(m),
        "lipschitz_f": lip_f,
        "lipschitz_b1": lip_b1,
        "lipschitz_b2": lip_b2,
        "coercivity_slow": coer_slow,
        "coercivity_fast": coer_fast,
    }


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

REGISTRY = {
    "linear-benchmark": make_linear_benchmark,
    "mvsde-cubic": make_mvsde_cubic,
    "porous-media-1d": make_porous_media_1d,
    "plaplace-1d": make_plaplace_1d,
    "broken-antidissipative": make_broken_antidissipative,
}


def build_model(model_id: str, params: dict | None = None) -> ModelSpec:
    """Instantiate a registered model with keyword overrides."""
    if model_id not in REGISTRY:
        raise KeyError(f"unknown model id {model_id!r}; known: {sorted(REGISTRY)}")
    known = inspect.signature(REGISTRY[model_id]).parameters
    for key in params or {}:
        if key not in known:
            raise ModelParamError(f"{key}: not a parameter of {model_id!r}; "
                                  f"known: {', '.join(known)}")
    return REGISTRY[model_id](**(params or {}))
