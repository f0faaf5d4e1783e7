import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from mvavg import averaging, noise
from mvavg.averaging import (HMM_NODES, AveragedRunner, FrozenParams, HmmConfig,
                             MixingFailure, default_frozen_params, estimate_fbar,
                             estimate_mixing_rate, frozen_simulate)
from mvavg.integrate import BlowUpError, FullRunner, TrajectoryRecorder, resolve_params
from mvavg.measure import MeasureMoments
from mvavg.models import build_model, empirical_view
from mvavg.noise import SLOW, NoisePlan, draw

# Independent oracles for the cubic model's averaged drift at (x=1, mu=delta_0),
# tabulated before the build by scripts/fbar_oracle_cubic.py:
#   stationary-density quadrature       0.37885564
#   10^7-step Euler-Maruyama long run   0.378441 +- 0.001364  (h = 0.005)
FBAR_CUBIC_QUAD = 0.37885564
FBAR_CUBIC_LONGRUN = 0.378441
FBAR_CUBIC_LONGRUN_SE = 0.001364

DELTA0 = MeasureMoments(mean=np.array([0.0]), second_moment=0.0)


def linear_ou(gamma=1.0, k1=1.0, k2=0.0, sigma2=0.5, **kw):
    return build_model("linear-benchmark",
                       dict(gamma=gamma, k1=k1, k2=k2, sigma2=sigma2, **kw))


# ---------------------------------------------------------------------------
# frozen simulation
# ---------------------------------------------------------------------------

def test_frozen_long_run_mean_matches_invariant_mean():
    m = linear_ou()
    fp = FrozenParams([2.0], DELTA0, [0.0], burn_in=8.0, sample_horizon=150.0,
                      h_micro=0.01, replicas=2)
    _, paths = frozen_simulate(m, fp, NoisePlan(1))
    samples = paths[:, :, 0].ravel()
    se = samples.std(ddof=1) / math.sqrt(150.0 / 1.0)  # ~1 correlation time unit
    assert abs(samples.mean() - 2.0) < 3 * se + 0.02


def test_frozen_simulate_marches_replicas_paths():
    # the path count is fp.replicas alone, and FrozenParams refuses 0
    m = linear_ou()
    mk = dict(burn_in=0.0, sample_horizon=0.5, h_micro=0.01)
    _, paths = frozen_simulate(m, FrozenParams([1.0], DELTA0, [0.0], **mk, replicas=3),
                               NoisePlan(1))
    assert paths.shape == (51, 3, 1)
    with pytest.raises(ValueError, match="replicas"):
        FrozenParams([1.0], DELTA0, [0.0], **mk, replicas=0)


def test_frozen_deterministic_contraction_without_noise():
    # sigma2 = 0: geometric approach to the fixed point, constant after burn-in
    m = linear_ou(sigma2=0.0)
    fp = FrozenParams([2.0], DELTA0, [5.0], burn_in=30.0, sample_horizon=5.0,
                      h_micro=0.01, replicas=1)
    _, paths = frozen_simulate(m, fp, NoisePlan(2))
    assert np.allclose(paths[:, 0, 0], 2.0, atol=1e-10)
    fp0 = FrozenParams([2.0], DELTA0, [5.0], burn_in=0.0, sample_horizon=3.0,
                       h_micro=0.01, replicas=1)
    t, p = frozen_simulate(m, fp0, NoisePlan(2))
    gaps = np.abs(p[:, 0, 0] - 2.0)
    assert np.allclose(gaps, 3.0 * np.exp(-t), atol=1e-12)


def test_shared_noise_runs_cancel_exactly():
    # additive noise: the difference of two shared-noise copies is the
    # deterministic flow |y - y'| e^{-gamma t}, exactly
    m = linear_ou()
    mk = dict(burn_in=0.0, sample_horizon=10.0, h_micro=0.01, replicas=1)
    t, p1 = frozen_simulate(m, FrozenParams([2.0], DELTA0, [1.0], **mk), NoisePlan(55))
    _, p2 = frozen_simulate(m, FrozenParams([2.0], DELTA0, [-1.0], **mk), NoisePlan(55))
    gap = np.abs(p1[:, 0, 0] - p2[:, 0, 0])
    assert np.max(np.abs(gap - 2.0 * np.exp(-t))) < 1e-8


def _march(schedule, xi, context="frozen run"):
    # a linear frozen march from y = 1 at step 0.01, fed xi in windows of 4 steps
    return averaging._frozen_batch(linear_ou(), [0.0], DELTA0, 0.01, iter([xi[:4], xi[4:]]),
                                   np.ones((1, 1, 1)), schedule, context)


def test_frozen_schedule_yields_the_sample_steps_of_each_span():
    # an 8-step feed under spans (2, 1), (0, 2), (3, 0): steps 3, 4 and 5
    # sample, in spans 0, 1 and 1
    xi = np.random.default_rng(0).standard_normal((8, 1, 1, 1))
    states = [Z.copy() for _, Z in _march([(0, 8)], xi)]
    got = [(w, Z.copy()) for w, Z in _march([(2, 1), (0, 2), (3, 0)], xi)]
    assert [w for w, _ in got] == [0, 1, 1]
    assert all(np.array_equal(Z, states[k - 1]) for (_, Z), k in zip(got, (3, 4, 5)))
    # the window ending at step 8 has no sample step, and is still checked,
    # after the last yield
    xi[7] = 1e12
    march = _march([(2, 1), (0, 2), (3, 0)], xi, context="probe")
    assert [w for w, _ in itertools.islice(march, 3)] == [0, 1, 1]
    with pytest.raises(BlowUpError, match=r"between t=0.04 and t=0.08 .*\[probe\]"):
        next(march)


@pytest.mark.parametrize("schedule", [[(2, 1), (0, 2), (2, 0)], [(7, 0)], [(8, 0), (0, 1)],
                                      [(2, 1), (6, 0), (1, 0)]])
def test_frozen_schedule_of_another_length_than_its_feed_raises(schedule):
    with pytest.raises(ValueError, match="runs past its"):
        list(_march(schedule, np.zeros((8, 1, 1, 1))))


# ---------------------------------------------------------------------------
# fbar estimation
# ---------------------------------------------------------------------------

def test_estimate_fbar_linear_oracle():
    m = linear_ou()
    fp = FrozenParams([2.0], DELTA0, [0.0], burn_in=8.0, sample_horizon=100.0,
                      h_micro=0.01, replicas=4)
    est = estimate_fbar(m, fp, NoisePlan(123))
    assert abs(est.fbar[0] - 2.0) < 3 * est.std_error[0]
    assert est.n_effective == 80


def test_estimate_fbar_constant_integrand():
    # f independent of y: the ergodic average is exact with zero error bars
    m = linear_ou(f0=0.0)
    fp = FrozenParams([1.0], DELTA0, [0.3], burn_in=1.0, sample_horizon=5.0,
                      h_micro=0.01, replicas=2)
    est = estimate_fbar(m, fp, NoisePlan(4))
    assert est.fbar[0] == 0.0
    assert est.std_error[0] == 0.0


def test_estimate_fbar_refuses_short_horizon():
    m = linear_ou()
    fp = FrozenParams([1.0], DELTA0, [0.0], burn_in=1.0, sample_horizon=0.1,
                      h_micro=0.01, replicas=1)
    with pytest.raises(ValueError, match="sample_horizon"):
        estimate_fbar(m, fp, NoisePlan(5))


def test_estimate_fbar_error_shrinks_with_horizon():
    # doubling the horizon shrinks the standard error by ~ 1/sqrt(2)
    m = linear_ou()
    ses = []
    for horizon in (60.0, 120.0):
        fp = FrozenParams([2.0], DELTA0, [0.0], burn_in=8.0, sample_horizon=horizon,
                          h_micro=0.01, replicas=6)
        ses.append(estimate_fbar(m, fp, NoisePlan(6)).std_error[0])
    ratio = ses[0] / ses[1]
    assert abs(ratio - math.sqrt(2.0)) < 0.3 * math.sqrt(2.0)


def test_estimate_fbar_cubic_matches_independent_oracles():
    m = build_model("mvsde-cubic")
    fp = FrozenParams([1.0], DELTA0, [0.0], burn_in=8.0, sample_horizon=300.0,
                      h_micro=0.005, replicas=8)
    est = estimate_fbar(m, fp, NoisePlan(31))
    comb = 3.0 * math.sqrt(est.std_error[0] ** 2 + FBAR_CUBIC_LONGRUN_SE ** 2)
    assert abs(est.fbar[0] - FBAR_CUBIC_LONGRUN) < comb
    assert abs(est.fbar[0] - FBAR_CUBIC_QUAD) < comb


def test_default_frozen_params_burn_in_rule():
    m = linear_ou(gamma=2.0)
    fp = default_frozen_params(m, [1.0], DELTA0)
    assert fp.burn_in == pytest.approx(8.0 / 2.0)
    assert default_frozen_params(m, [1.0], DELTA0, burn_in=0.5).burn_in == 0.5
    # an HMM refresh's first burn-in follows the same rule
    assert HmmConfig().resolved(m, resolve_params(0.1, 1.0)).burn_in_initial == fp.burn_in


# ---------------------------------------------------------------------------
# mixing rate
# ---------------------------------------------------------------------------

def test_mixing_rate_exact_for_additive_linear():
    m = linear_ou()
    fp = FrozenParams([2.0], DELTA0, [1.0], burn_in=0.0, sample_horizon=5.0,
                      h_micro=0.01, replicas=1)
    rho = estimate_mixing_rate(m, fp, [-1.0], NoisePlan(7))
    assert abs(rho - 2.0) < 1e-6


def test_mixing_rate_cubic_beats_linear_rate():
    # the cubic term only adds contraction: fitted rate >= 2 kappa
    m = build_model("mvsde-cubic")
    fp = FrozenParams([1.0], DELTA0, [1.0], burn_in=0.0, sample_horizon=2.0,
                      h_micro=0.005, replicas=64)
    rho = estimate_mixing_rate(m, fp, [-1.0], NoisePlan(8))
    assert rho >= 2.0 * m.constants["kappa"]


def test_mixing_rate_failure_on_antidissipative():
    m = build_model("broken-antidissipative")
    fp = FrozenParams([0.0], DELTA0, [1.0], burn_in=0.0, sample_horizon=5.0,
                      h_micro=0.01, replicas=1)
    with pytest.raises(MixingFailure):
        estimate_mixing_rate(m, fp, [-1.0], NoisePlan(9))


def test_mixing_rate_requires_distinct_starts():
    m = linear_ou()
    fp = FrozenParams([0.0], DELTA0, [1.0], burn_in=0.0, sample_horizon=5.0,
                      h_micro=0.01, replicas=1)
    with pytest.raises(ValueError):
        estimate_mixing_rate(m, fp, [1.0], NoisePlan(10))


def test_exponential_forgetting_of_window_averages():
    # sigma2 = 0: windowed time averages of f - fbar decay monotonically
    m = linear_ou(sigma2=0.0)
    fp = FrozenParams([2.0], DELTA0, [6.0], burn_in=0.0, sample_horizon=8.0,
                      h_micro=0.01, replicas=1)
    t, p = frozen_simulate(m, fp, NoisePlan(11))
    fvals = p[:, 0, 0]  # f = f0 * y with f0 = 1
    fbar = 2.0
    window = 100  # one time unit
    starts = range(0, len(fvals) - window, window)
    devs = [abs(np.mean(fvals[s:s + window]) - fbar) for s in starts]
    assert all(a > b for a, b in zip(devs, devs[1:]))


def test_frozen_second_moment_bound_stable_across_seeds():
    # sample second moment <= C (1 + ||x||^2 + mu(||.||^2)) with stable C
    m = linear_ou()
    mu = MeasureMoments(mean=np.array([1.0]), second_moment=2.0)
    cs = []
    for seed in (21, 22):
        fp = FrozenParams([3.0], mu, [0.0], burn_in=5.0, sample_horizon=50.0,
                          h_micro=0.01, replicas=4)
        _, p = frozen_simulate(m, fp, NoisePlan(seed))
        m2 = float(np.mean(p[:, :, 0] ** 2))
        cs.append(m2 / (1.0 + 9.0 + 2.0))
    assert cs[0] <= 1.0 and cs[1] <= 1.0
    assert abs(cs[0] - cs[1]) < 0.25 * max(cs)


# ---------------------------------------------------------------------------
# averaged equation
# ---------------------------------------------------------------------------

def test_averaged_exact_matches_closed_form_ode():
    # sigma1 = 0, all particles identical: scalar linear ODE
    m = build_model("linear-benchmark", {"sigma1": 0.0})
    c = m.constants
    params = resolve_params(0.05, 1.0)
    rec = TrajectoryRecorder(stride_steps=max(1, params.n_steps // 200))
    AveragedRunner(m, [1.0], 2, params, [NoisePlan(12)]).run(rec)
    xT = rec.slow[-1][0, 0]
    rate = c["a11"] + c["a12"] + c["f0"] * (c["k1"] + c["k2"]) / c["gamma"]
    h_macro = 1.0 / 200
    assert abs(xT - math.exp(rate)) <= 5 * h_macro


def test_averaged_equals_decoupled_slow_system_when_f_vanishes():
    m = build_model("linear-benchmark", {"f0": 0.0})
    params = resolve_params(0.05, 1.0)
    plan = NoisePlan(9)
    full = FullRunner(m, [1.0], [1.0], 64, params, [plan]).run()
    avg = AveragedRunner(m, [1.0], 64, params, [plan]).run()
    assert np.array_equal(full.X, avg.X)


def test_averaged_requires_closed_form_for_exact_mode():
    m = build_model("mvsde-cubic")
    params = resolve_params(0.05, 0.5)
    with pytest.raises(ValueError, match="closed-form"):
        AveragedRunner(m, [1.0], 4, params, [NoisePlan(1)])


def test_hmm_config_refuses_a_bad_field_by_name():
    # checked where it is built, not by a ZeroDivisionError or a silent
    # negative horizon inside a run
    for kw in (dict(replicas=0), dict(replicas=2.5), dict(replicas=True), dict(h_frozen=0.0),
               dict(h_frozen=-0.02), dict(horizon=-1.0), dict(burn_in=-5.0),
               dict(burn_in_initial=math.nan), dict(refresh_stride_steps=0),
               dict(warn_fraction=0), dict(horizon=10 ** 400)):
        (key,) = kw
        with pytest.raises(ValueError, match=f"^{key}: must be"):
            HmmConfig(**kw)
    HmmConfig()
    HmmConfig(h_frozen=5.0, horizon=200.0)


def test_hmm_consistent_with_exact_fbar():
    # same slow noise, fbar estimated instead of closed-form: small gap
    m = build_model("linear-benchmark")
    params = resolve_params(0.05, 0.5)
    ex = AveragedRunner(m, [1.0], 128, params, [NoisePlan(21)]).run()
    hm = AveragedRunner(m, [1.0], 128, params, [NoisePlan(21)],
                        hmm=HmmConfig(replicas=2, horizon=20.0)).run()
    gap = abs(float(ex.X.mean()) - float(hm.X.mean()))
    # fbar noise ~ se/step accumulated over T=0.5; generous 3x envelope
    assert gap < 0.02


def test_hmm_warns_on_noisy_fbar():
    m = build_model("linear-benchmark")
    params = resolve_params(0.05, 0.05)
    with pytest.warns(RuntimeWarning, match="fbar standard error"):
        AveragedRunner(m, [1.0], 4, params, [NoisePlan(23)],
                       hmm=HmmConfig(replicas=2, horizon=0.4, burn_in_initial=0.2,
                                     warn_fraction=0.001)).run()


def test_hmm_noisy_fbar_warns_once_per_grid_point():
    # a stack of two grid points warns for each, as two lone runners do
    m = build_model("linear-benchmark")
    params = [resolve_params(0.05, 0.05), resolve_params(0.1, 0.05)]
    hmm = HmmConfig(replicas=2, horizon=0.4, burn_in_initial=0.2, warn_fraction=0.001)

    def messages(p):
        runner = AveragedRunner(m, [1.0], 4, p, [NoisePlan(23)], hmm=hmm)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for k in range(2):
                runner.advance(1, draw(runner.noise, SLOW, k, 1, 4, 1))
        return [str(w.message) for w in caught]

    lone = [messages(p) for p in params]
    assert [len(msgs) for msgs in lone] == [1, 1]
    assert "at eps=0.05;" in lone[0][0] and "at eps=0.1;" in lone[1][0]
    assert messages(params) == lone[0] + lone[1]


def test_hmm_lattice_matches_cubic_oracles():
    # one refresh marches every window a runner reads: here 5 of 60 time
    # units each at the node x = 1, whose mean agrees with the independent
    # oracles, and whose spread is the standard error the cache reports
    m = build_model("mvsde-cubic")
    params = resolve_params(0.05, 0.5)      # 500 steps, refreshes at 0, 100, ..., 400
    runner = AveragedRunner(m, [1.0], 3, params, [NoisePlan(31)],
                            hmm=HmmConfig(replicas=8, burn_in_initial=8.0, burn_in=1.0,
                                          horizon=60.0, h_frozen=0.005,
                                          refresh_stride_steps=100),
                            collect_fbar_cache=True)
    runner.advance(2, draw(runner.noise, SLOW, 0, 2, 3, 1))
    lattice = runner._lattice
    [i] = np.flatnonzero(lattice.nodes == 10)
    assert 10 * averaging.HMM_NODE_SPACING == 1.0 and lattice.table.shape[2] == 5
    windows = lattice.table[0, i]
    assert np.all(runner._fbar == windows[0])
    [se] = [row[4] for row in runner.fbar_cache if row[0] == 1.0]
    assert se == windows.std(ddof=1) > 0.0
    comb = 3.0 * math.sqrt(se ** 2 / 5 + FBAR_CUBIC_LONGRUN_SE ** 2)
    assert abs(windows.mean() - FBAR_CUBIC_LONGRUN) < comb
    assert abs(windows.mean() - FBAR_CUBIC_QUAD) < comb


@pytest.mark.filterwarnings("ignore:fbar standard error")
def test_hmm_lattice_interpolates_between_nodes():
    # each particle reads the two nodes around it, a one-point cloud too;
    # the lattice spans the nodes within HMM_NODE_PAD of the particles
    m = build_model("mvsde-cubic")
    params = resolve_params(0.1, 0.05)
    hmm = HmmConfig(replicas=2, horizon=0.5, refresh_stride_steps=10)
    for x0 in ([[0.95], [1.0], [1.05], [-1.23]], [1.05]):
        runner = AveragedRunner(m, x0, 4, params, [NoisePlan(4), NoisePlan(5)], hmm=hmm)
        runner.advance(1, draw(runner.noise, SLOW, 0, 1, 4, 1))
        lattice = runner._lattice
        # the state at the refresh: x0
        u = np.broadcast_to(np.reshape(x0, -1), (2, 4)) / averaging.HMM_NODE_SPACING
        lo = np.floor(u).astype(int)
        pad = averaging.HMM_NODE_PAD
        want = np.unique(lo[..., None] + np.arange(-pad, pad + 2))
        assert np.array_equal(lattice.nodes, want)
        i = np.searchsorted(lattice.nodes, lo)
        t = lattice.table[:, :, 0]
        f_lo, f_hi = np.take_along_axis(t, i, 1), np.take_along_axis(t, i + 1, 1)
        assert np.array_equal(runner._fbar[0, :, :, 0], f_lo + (u - lo) * (f_hi - f_lo))
        assert np.all(f_lo != f_hi)


@pytest.mark.filterwarnings("ignore:fbar standard error")
def test_hmm_lattice_nodes_entering_mid_study_are_bitwise_a_full_table(monkeypatch):
    # with a pad of one node the spreading cloud enters nodes at later
    # refreshes; with a pad of 40 the first refresh enters all of them: the
    # runs are bitwise equal
    m = build_model("mvsde-cubic", {"sigma1": 1.0})
    params = [resolve_params(0.1, 0.6), resolve_params(0.05, 0.3)]     # 300 steps each
    hmm = HmmConfig(replicas=2, horizon=0.5, burn_in=0.2, refresh_stride_steps=10)
    marches = []
    march = averaging._FbarLattice._march

    def spy(lattice, new):
        marches.append(len(new))
        return march(lattice, new)

    monkeypatch.setattr(averaging._FbarLattice, "_march", spy)
    runs = {}
    for pad in (1, 40):
        monkeypatch.setattr(averaging, "HMM_NODE_PAD", pad)
        marches.clear()
        runner = AveragedRunner(m, [1.0], 16, params, [NoisePlan(6), NoisePlan(7)], hmm=hmm).run()
        runs[pad] = (runner.X, runner._lattice, list(marches))
    (x1, lat1, marches1), (x40, lat40, marches40) = runs[1], runs[40]
    assert len(marches1) > 2 and len(marches40) == 1
    assert np.array_equal(x1, x40)
    assert set(lat1.nodes) < set(lat40.nodes)
    assert np.array_equal(lat1.table, lat40.table[:, np.searchsorted(lat40.nodes, lat1.nodes)])


def test_hmm_lattice_standard_error_at_one_replica():
    # one frozen path per estimate: the spread of a node's windows is still
    # its standard error, in the cache and in the noisy-fbar warning
    m = build_model("mvsde-cubic")
    params = resolve_params(0.1, 0.05)       # 25 steps, refreshes every 5: 5 windows
    runner = AveragedRunner(m, [1.0], 4, params, [NoisePlan(8)],
                            hmm=HmmConfig(replicas=1, horizon=0.5, refresh_stride_steps=5,
                                          warn_fraction=0.01),
                            collect_fbar_cache=True)
    with pytest.warns(RuntimeWarning, match="fbar standard error"):
        runner.run()
    ses = np.array([row[4] for row in runner.fbar_cache])
    assert len(ses) and np.all(ses > 0.0)


@pytest.mark.filterwarnings("ignore:fbar standard error")
def test_hmm_lattice_divergence_is_a_blowup():
    # c_mu = 20 drives the cloud off to large x: the frozen chains there
    # blow up, or the particles leave the lattice; either way a BlowUpError,
    # not a MemoryError or a hang
    m = build_model("mvsde-cubic", {"c_mu": 20.0})
    params = resolve_params(0.1, 1.0)
    runner = AveragedRunner(m, [1.0], 8, params, [NoisePlan(3)],
                            hmm=HmmConfig(replicas=1, horizon=0.5, burn_in=0.2, h_frozen=0.02))
    with pytest.raises(BlowUpError):
        runner.run()
    far = AveragedRunner(m, [[1.0], [3e12]], 2, params, [NoisePlan(3)], hmm=HmmConfig())
    far.advance(1, draw(far.noise, SLOW, 0, 1, 2, 1))
    with pytest.raises(BlowUpError, match=r"t=0 \(particle 1\).*past the .* fbar lattice"):
        far.check_finite(0)
    assert len(far._lattice.nodes) == 0


def test_hmm_lattice_chain_divergence_names_non_finite_x():
    # h_frozen = 5 diverges the frozen chains: the lattice holds non-finite
    # estimates, and the particles that read them are reported non-finite,
    # not past the lattice's reach
    m = build_model("mvsde-cubic")
    runner = AveragedRunner(m, [1.0], 8, resolve_params(0.1, 0.1), [NoisePlan(5)],
                            hmm=HmmConfig(h_frozen=5.0, horizon=200.0))
    with pytest.raises(BlowUpError, match=r"t=0.002 \(particle 0\).*x non-finite at study "
                                          r"t=0.002; .*smaller hmm.h_frozen") as err:
        runner.run()
    assert "past the" not in str(err.value)
    assert not np.isfinite(runner._lattice.table).all()


def test_hmm_lattice_frozen_draws_are_pinned(monkeypatch):
    # the lattice's FROZEN draws on a small run: 110 nodes in three runs of
    # stream particles, three replicas, two plans; windows of 28 steps (a
    # quarter of NOISE_WINDOW_NORMALS per plan) over the 740 steps of its 10
    # refreshes, one call per window, plan, replica and run.  Recorded when
    # the lattice had a window feed of its own; a change to the lattice's
    # noise budget shows here
    calls = []
    gaussians = NoisePlan.gaussians

    def spy(plan, kind, step_start, n_steps, n_particles, n_modes, extra=0, first_particle=0,
            out=None):
        if kind == noise.FROZEN:
            calls.append((step_start, n_steps, n_particles, extra, first_particle))
        return gaussians(plan, kind, step_start, n_steps, n_particles, n_modes, extra,
                         first_particle, out=out)

    monkeypatch.setattr(NoisePlan, "gaussians", spy)
    m = build_model("mvsde-cubic")
    runner = AveragedRunner(m, [[0.2], [1.0], [5.0], [9.0]], 4, resolve_params(0.1, 0.5),
                            [NoisePlan(7), NoisePlan(8)],
                            hmm=HmmConfig(replicas=3, horizon=0.5, burn_in=0.2,
                                          refresh_stride_steps=25)).run()
    assert runner._lattice.table.shape == (2, 110, 10)
    assert len(calls) == 486
    assert sorted({c[0] for c in calls}) == list(range(0, 740, 28))
    assert {c[1] for c in calls} == {28, 12}
    offset = averaging.LATTICE_OFFSET
    assert sorted({(c[4] - offset, c[2]) for c in calls}) == [(-14, 42), (34, 34), (74, 34)]
    assert {c[3] for c in calls} == {0, 1, 2}


def test_hmm_node_table_matches_cubic_oracles():
    # a law that reads mu keeps the node table; on the cubic model's law, a
    # cloud over [0.5, 1.5] puts x = 1 between two nodes, and the
    # interpolated drift there agrees with the independent oracles
    m = dataclasses.replace(build_model("mvsde-cubic"), frozen_reads_mu=True)
    params = resolve_params(0.05, 0.5)
    runner = AveragedRunner(m, [[0.5], [1.0], [1.5]], 3, params, [NoisePlan(31)],
                            hmm=HmmConfig(replicas=8, burn_in_initial=8.0, horizon=300.0,
                                          h_frozen=0.005),
                            collect_fbar_cache=True)
    runner.advance(1, draw(runner.noise, SLOW, 0, 1, runner.X.shape[-2], 1))
    nodes = [row[0] for row in runner.fbar_cache]
    assert nodes == pytest.approx(np.linspace(0.5, 1.5, HMM_NODES)) and 1.0 not in nodes
    se = runner.fbar_cache[0][4]
    comb = 3.0 * math.sqrt(se ** 2 + FBAR_CUBIC_LONGRUN_SE ** 2)
    fbar = runner._fbar[0, 0, 1, 0]
    assert abs(fbar - FBAR_CUBIC_LONGRUN) < comb
    assert abs(fbar - FBAR_CUBIC_QUAD) < comb


def test_hmm_degenerate_cloud_uses_every_node_estimate():
    # node table: at t = 0 every particle sits at x0, so all nodes coincide;
    # each particle then gets the mean of the table, not one node's estimate
    m = build_model("linear-benchmark")
    params = resolve_params(0.05, 0.5)
    runner = AveragedRunner(m, [1.0], 5, params, [NoisePlan(3)],
                            hmm=HmmConfig(replicas=1, horizon=1.0), collect_fbar_cache=True)
    runner.advance(1, draw(runner.noise, SLOW, 0, 1, runner.X.shape[-2], 1))
    table = np.array([row[3] for row in runner.fbar_cache])
    assert len(table) == HMM_NODES and {row[0] for row in runner.fbar_cache} == {1.0}
    assert table.std() > 0.0
    assert np.all(runner._fbar == table.mean())


@pytest.mark.parametrize("n_particles", [3, 50])
def test_hmm_frozen_width_is_nodes_times_replicas(monkeypatch, n_particles):
    widths = []
    batch = averaging._frozen_batch

    def spy(model, x_frozen, mu, h, feed, paths_y0, *args, **kwargs):
        widths.append(paths_y0.shape)
        assert x_frozen.shape[:-1] == paths_y0.shape[:-1]
        return batch(model, x_frozen, mu, h, feed, paths_y0, *args, **kwargs)

    monkeypatch.setattr(averaging, "_frozen_batch", spy)
    m = build_model("linear-benchmark")
    params = resolve_params(0.1, 0.05)     # 25 steps: refreshes at steps 0, 10 and 20
    x0 = np.linspace(0.0, 2.0, n_particles)[:, None]
    AveragedRunner(m, x0, n_particles, params, [NoisePlan(4), NoisePlan(5)],
                   hmm=HmmConfig(replicas=3, horizon=0.5, refresh_stride_steps=10)).run()
    assert len(widths) == 3
    assert set(widths) == {(2, HMM_NODES * 3, 1)}


def test_hmm_frozen_blow_up_names_its_refresh():
    # the antidissipative fast drift blows up inside the first refresh's
    # 38-step frozen run (burn-in 8, horizon 30): found at its last window's
    # check, which runs after the march's last sample
    runner = AveragedRunner(build_model("broken-antidissipative"), [0.0], 4,
                            resolve_params(0.1, 0.1), [NoisePlan(1)],
                            hmm=HmmConfig(horizon=30.0))
    with pytest.raises(BlowUpError, match=r"between t=0 and t=38 \(particle 0\) \[averaged run; "
                                          r"frozen run of the refresh at study t=0\]"):
        runner.run()


def test_estimate_fbar_across_windows_is_bitwise_one_window(monkeypatch):
    # 4 replicas on windows of 12 steps (10 rounded up to whole counter
    # groups): the 1300-step march crosses 108 window edges, and still reads
    # the normals of one window holding it all
    m = build_model("mvsde-cubic")
    fp = default_frozen_params(m, [1.0], DELTA0, sample_horizon=5.0, h_micro=0.01)
    n_steps = round((fp.burn_in + fp.sample_horizon) / fp.h_micro)
    starts = []
    windows = noise.windows

    def spy(plans, streams, start, stop, n_particles):
        for k, draws in windows(plans, streams, start, stop, n_particles):
            starts.append(k)
            yield k, draws

    monkeypatch.setattr(noise, "windows", spy)
    one = estimate_fbar(m, fp, NoisePlan(8))
    assert starts == [0] and n_steps == 1300
    monkeypatch.setattr(noise, "NOISE_WINDOW_NORMALS", 40)
    starts.clear()
    many = estimate_fbar(m, fp, NoisePlan(8))
    assert starts == list(range(0, n_steps, 12))
    assert np.array_equal(one.fbar, many.fbar) and np.array_equal(one.std_error, many.std_error)


def test_averaged_run_collects_fbar_cache():
    m = build_model("linear-benchmark")
    params = resolve_params(0.1, 0.2)
    runner = AveragedRunner(m, [1.0], 4, params, [NoisePlan(24)],
                            collect_fbar_cache=True).run()
    assert runner.fbar_cache
    x, mu_mean, mu_m2, fbar, se = runner.fbar_cache[0]
    c = m.constants
    assert fbar == pytest.approx((c["f0"] / c["gamma"]) * (c["k1"] * x + c["k2"] * mu_mean))
    assert se == 0.0


def test_recorder_and_fbar_cache_need_one_plan():
    # both record replication 0 only, so a batch of plans is refused
    m = build_model("linear-benchmark")
    params = resolve_params(0.1, 0.2)
    plans = [NoisePlan(24), NoisePlan(25)]
    for runner in (FullRunner(m, [1.0], [1.0], 4, params, plans),
                   AveragedRunner(m, [1.0], 4, params, plans),
                   FullRunner(m, [1.0], [1.0], 4, [params, resolve_params(0.05, 0.2)],
                              plans[:1])):
        with pytest.raises(ValueError, match="recorder"):
            runner.run(TrajectoryRecorder())
        assert runner.k == 0      # refused before any step
    with pytest.raises(ValueError, match="collect_fbar_cache"):
        AveragedRunner(m, [1.0], 4, params, plans, collect_fbar_cache=True)


def test_run_refuses_grid_points_of_unequal_steps_before_any_step():
    # run() marches every grid point to one last step: a shorter grid point
    # would step past its t_end, and on the fbar lattice read windows past
    # its table, so the stack is refused at k = 0
    m = build_model("mvsde-cubic")
    params = [resolve_params(0.1, 1.0), resolve_params(0.05, 1.0)]
    for runner in (FullRunner(m, [1.0], [0.0], 4, params, [NoisePlan(1)]),
                   AveragedRunner(m, [1.0], 4, params, [NoisePlan(1)], hmm=HmmConfig())):
        with pytest.raises(ValueError, match="equal n_steps"):
            runner.run()
        assert runner.k == 0
