import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from scipy.linalg import expm, solve_banded

from mvavg.integrate import (BLOWUP_LIMIT, BlowUpError, FullRunner, MultiscaleParams,
                             TrajectoryRecorder, _check_finite, _FastSolver,
                             resolve_params)
from mvavg.measure import MeasureMoments
from mvavg.models import build_model, empirical_view
from mvavg import noise as noise_mod
from mvavg.averaging import AveragedRunner, write_fbar_cache
from mvavg.noise import NoisePlan, draw
from mvavg.spatial import l2_inner


def test_params_validation():
    with pytest.raises(ValueError):
        MultiscaleParams(epsilon=0.0, t_end=1.0, h_micro=0.001)
    with pytest.raises(ValueError):
        MultiscaleParams(epsilon=0.1, t_end=1.0, h_micro=0.05)  # h > eps/10
    with pytest.raises(ValueError):
        MultiscaleParams(epsilon=0.1, t_end=1.0, h_micro=0.002, delta_block=0.005)
    p = resolve_params(0.04, 1.0)
    assert p.h_micro == pytest.approx(0.04 / 50)
    assert p.delta_block == pytest.approx(0.04 ** (2 / 3), rel=0.05)
    assert p.delta_block / p.h_micro == pytest.approx(round(p.delta_block / p.h_micro))


def test_zero_coefficients_leave_ensemble_fixed():
    m = build_model("linear-benchmark",
                    {"a11": 0.0, "a12": 0.0, "f0": 0.0, "sigma1": 0.0,
                     "k1": 0.0, "k2": 0.0, "sigma2": 0.0})
    params = resolve_params(0.1, 1.0)
    r = FullRunner(m, [0.0], [0.0], 4, params, [NoisePlan(1)])
    r.advance(1, *(draw(r.noise, kind, 0, 1, 4, modes) for kind, modes in r.streams))
    assert np.all(r.X == 0.0) and np.all(r.Y == 0.0)
    assert r.k == 1 and r.X[0, 0].shape == (4, 1)


def test_deterministic_linear_matches_matrix_exponential():
    # sigma = 0, single particle: m(mu) = X, so the pair solves a linear ODE
    eps = 0.05
    m = build_model("linear-benchmark", {"sigma1": 0.0, "sigma2": 0.0})
    c = m.constants
    params = resolve_params(eps, 1.0, h_factor=0.002)
    r = FullRunner(m, [1.0], [1.0], 1, params, [NoisePlan(0)]).run()
    A = np.array([[c["a11"] + c["a12"], c["f0"]],
                  [(c["k1"] + c["k2"]) / eps, -c["gamma"] / eps]])
    ref = expm(A) @ np.array([1.0, 1.0])
    assert abs(r.X[0, 0, 0, 0] - ref[0]) < 50 * params.h_micro
    assert abs(r.Y[0, 0, 0, 0] - ref[1]) < 50 * params.h_micro


def advance_in_slices(r, chunk):
    """Advance a runner to its end by slices of ``chunk`` steps of one draw."""
    n = r.n_steps - r.k
    draws = [draw(r.noise, kind, r.k, n, r.X.shape[-2], modes) for kind, modes in r.streams]
    for j in range(0, n, chunk):
        r.advance(min(chunk, n - j), *(d[j:j + chunk] for d in draws))
    return r


def test_replay_is_bitwise_identical():
    m = build_model("mvsde-cubic")
    params = resolve_params(0.05, 0.5)
    r1 = FullRunner(m, [1.0], [0.5], 32, params, [NoisePlan(99)]).run()
    r2 = advance_in_slices(FullRunner(m, [1.0], [0.5], 32, params, [NoisePlan(99)]), 13)
    assert np.array_equal(r1.X, r2.X)
    assert np.array_equal(r1.Y, r2.Y)


def test_semi_implicit_fast_step_unconditionally_stable():
    # with zero forcing and zero noise the pure linear solve is a contraction
    m = build_model("porous-media-1d",
                    {"n_interior": 31, "c_g": 0.0, "c_u": 0.0, "c_mu_g": 0.0,
                     "sigma2": 0.0})
    mu = empirical_view(m, np.zeros((1, 31)))
    rng = np.random.default_rng(0)
    v = rng.normal(size=(1, 31))
    xi = np.zeros((1, m.n_fast_modes))
    for h_eff in (1e-3, 1.0, 1e3):
        solver = _FastSolver(m, h_eff)
        v1 = solver.step(np.zeros((1, 31)), mu, v, xi)
        assert l2_inner(m.grid, v1[0], v1[0]) <= l2_inner(m.grid, v[0], v[0]) * (1 + 1e-12)


def test_aux_process_collapses_when_coefficients_ignore_slow():
    # fast coefficients independent of (x, mu): the auxiliary equals the truth
    m = build_model("linear-benchmark", {"k1": 0.0, "k2": 0.0})
    params = resolve_params(0.05, 0.5)
    r = FullRunner(m, [1.0], [1.0], 16, params, [NoisePlan(5)],
                   aux_deltas=(params.delta_block,)).run()
    assert r.aux_gap[0, 0, 0] == 0.0
    assert np.array_equal(r.Y, r.Y_aux[0])


def test_aux_process_block_of_one_step_matches_truth():
    # delta = h: frozen arguments refresh every step to the pre-step state,
    # which is exactly what the true discrete fast update consumes
    m = build_model("linear-benchmark")
    params = resolve_params(0.05, 0.2)
    r = FullRunner(m, [1.0], [1.0], 8, params, [NoisePlan(6)],
                   aux_deltas=(params.h_micro,)).run()
    assert r.aux_gap[0, 0, 0] == 0.0


def test_blowup_raises_with_context():
    m = build_model("broken-antidissipative")
    params = resolve_params(0.01, 1.0)
    with pytest.raises(BlowUpError) as err:
        FullRunner(m, [0.0], [1.0], 2, params, [NoisePlan(3)],
                   context="unit test").run()
    assert "unit test" in str(err.value)
    assert err.value.time <= 1.0


def test_single_run_blowup_names_the_interval_since_its_last_clean_check(monkeypatch):
    # windows of 4 steps: a single run checks at each window end, so the
    # blow-up lies between the last clean window end and the one that found it
    monkeypatch.setattr(noise_mod, "NOISE_WINDOW_NORMALS", 8)
    m = build_model("broken-antidissipative")

    def run(t_end):
        FullRunner(m, [0.0], [1.0], 2, resolve_params(0.01, t_end), [NoisePlan(3)],
                   context="unit test").run()

    with pytest.raises(BlowUpError) as err:
        run(1.0)
    a, b, h = err.value.since, err.value.time, resolve_params(0.01, 1.0).h_micro
    assert 0.0 < a < b <= 1.0 and round((b - a) / h) == 4
    assert f"found non-finite or |value| > 1e+08 between t={a:.6g} and t={b:.6g}" in str(
        err.value)
    run(a)          # the same path up to t=a is clean
    back = pickle.loads(pickle.dumps(err.value))
    assert (back.since, back.time, str(back)) == (a, b, str(err.value))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 2 * BLOWUP_LIMIT, -2 * BLOWUP_LIMIT])
@pytest.mark.parametrize("in_fast", [False, True])
def test_blowup_check_names_the_particle(bad, in_fast):
    X, Y = np.zeros((1, 6, 2)), np.zeros((1, 6, 3))
    _check_finite(X + BLOWUP_LIMIT, Y - BLOWUP_LIMIT, 0.5, "unit test")  # at the limit
    (Y if in_fast else X)[0, 3, 1] = bad
    with pytest.raises(BlowUpError) as err:
        _check_finite(X, Y, 0.5, "unit test")
    assert (err.value.time, err.value.particle, err.value.context) == (0.5, 3, "unit test")
    # in a batch of replications the row is named too
    with pytest.raises(BlowUpError) as err:
        _check_finite(np.concatenate([np.zeros_like(X), X]),
                      np.concatenate([np.zeros_like(Y), Y]), 0.5, "unit test")
    assert (err.value.particle, err.value.context) == (3, "unit test, batch row 1")


@pytest.mark.parametrize("h_eff", [1e-4, 0.05, 1.0])
def test_laplacian_fast_step_matches_banded_solve(h_eff):
    # the dense implicit inverse reproduces the semi-implicit banded solve
    m = build_model("porous-media-1d", {"n_interior": 31})
    n, dx2 = 31, m.grid.dx ** 2
    rng = np.random.default_rng(8)
    U, V = rng.normal(size=(2, 5, n))
    xi = rng.normal(size=(5, m.n_fast_modes))
    mu = empirical_view(m, U)
    ab = np.zeros((3, n))
    ab[0, 1:] = -h_eff / dx2
    ab[1, :] = 1.0 + 2.0 * h_eff / dx2
    ab[2, :-1] = -h_eff / dx2
    rhs = (V + h_eff * m.a2_remainder(U, mu, V)
           + math.sqrt(h_eff) * m.b2_apply(U, mu, V, xi))
    ref = solve_banded((1, 1), ab, rhs.T).T
    got = _FastSolver(m, h_eff).step(U, mu, V, xi)
    err = np.linalg.norm(got - ref, axis=-1)
    assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=-1))


@pytest.mark.parametrize("h", [1e-4, 2e-3, 1e-2])
@pytest.mark.parametrize("model_id, params", [("porous-media-1d", {"r": 2.0, "c_psi": 0.7}),
                                              ("plaplace-1d", {"p": 2.0, "c_p": 0.7})])
def test_stabilised_slow_step_is_backward_euler_when_linear(model_id, params, h):
    # at r = 2 / p = 2 the slow drift is K * laplacian exactly, and the
    # stabilised step reduces to backward Euler on it
    n = 31
    m = build_model(model_id, {**params, "n_interior": n})
    assert m.slow_stab(0.0) == 0.7
    r = FullRunner(m, m.default_x0, m.default_y0, 5,
                   MultiscaleParams(epsilon=0.1, t_end=1.0, h_micro=h), [NoisePlan(1)])
    rng = np.random.default_rng(9)
    r.X, coupling = rng.normal(size=(2, 1, 1, 5, n))
    xs = rng.normal(size=(1, 5, m.n_slow_modes))
    mu = empirical_view(m, r.X)
    hk, dx2 = h * m.slow_stab(0.0), m.grid.dx ** 2
    ab = np.zeros((3, n))
    ab[0, 1:] = -hk / dx2
    ab[1, :] = 1.0 + 2.0 * hk / dx2
    ab[2, :-1] = -hk / dx2
    rhs = r.X + h * coupling + math.sqrt(h) * m.b1_apply(r.X, mu, xs)
    ref = solve_banded((1, 1), ab, rhs.reshape(-1, n).T).T.reshape(rhs.shape)
    got = r._slow_step(mu, coupling, xs)
    err = np.linalg.norm(got - ref, axis=-1)
    assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=-1))


def test_first_moment_matches_mean_ode():
    # E[X_t], E[Y_t] of the linear mean-field system solve a 2x2 linear ODE
    eps = 0.05
    m = build_model("linear-benchmark")
    c = m.constants
    N = 10_000
    params = resolve_params(eps, 1.0)
    r = FullRunner(m, [1.0], [1.0], N, params, [NoisePlan(12)]).run()
    A = np.array([[c["a11"] + c["a12"], c["f0"]],
                  [(c["k1"] + c["k2"]) / eps, -c["gamma"] / eps]])
    ref = expm(A) @ np.array([1.0, 1.0])
    se = r.X[0, 0, :, 0].std(ddof=1) / math.sqrt(N)
    assert abs(r.X[0, 0, :, 0].mean() - ref[0]) < 3.0 * se + 60 * params.h_micro


def test_fast_fluctuation_variance_near_stationary():
    # Var(Y - conditional mean) ~ sigma2^2 / (2 gamma) for small eps
    m = build_model("linear-benchmark")
    c = m.constants
    N = 4000
    params = resolve_params(0.02, 1.0)
    r = FullRunner(m, [1.0], [1.0], N, params, [NoisePlan(13)]).run()
    mu = empirical_view(m, r.X[0, 0])
    cond_mean = (c["k1"] * r.X[0, 0] + c["k2"] * mu.mean) / c["gamma"]
    fluct = (r.Y[0, 0] - cond_mean)[:, 0]
    target = c["sigma2"] ** 2 / (2 * c["gamma"])
    se = np.var(fluct) * math.sqrt(2.0 / N)  # rough chi^2 standard error
    assert abs(np.var(fluct) - target) < 3 * se + 0.05 * target


def test_moment_flag_stays_clear_on_sane_run():
    m = build_model("linear-benchmark")
    params = resolve_params(0.05, 1.0)
    rec = TrajectoryRecorder(stride_steps=100)
    FullRunner(m, [1.0], [1.0], 64, params, [NoisePlan(14)]).run(rec)
    assert rec.moment_flag(m) is False
    assert rec.times[-1] == pytest.approx(1.0)


def test_recorder_csv_format(tmp_path):
    m = build_model("linear-benchmark")
    params = resolve_params(0.1, 0.1)
    rec = TrajectoryRecorder(stride_steps=10)
    FullRunner(m, [1.0], [1.0], 2, params, [NoisePlan(15)]).run(rec)
    path = tmp_path / "traj.csv"
    rec.dump_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time,particle,component,index,value"
    t, p, comp, idx, val = lines[1].split(",")
    assert comp in ("slow", "fast")
    float(t), int(p), int(idx), float(val)


def test_csv_writers_print_every_float_as_17g(tmp_path):
    # the writers format whole records at once; each value must read as
    # format(v, ".17g"), the special values included
    odd = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1 / 3, -1e300]
    rec = TrajectoryRecorder()
    rec.times = [0.0, 0.1, 1 / 3]
    rec.slow = [np.roll(np.reshape(odd, (4, 2)), j) for j in range(3)]
    rec.fast = [-rec.slow[j][:, :1] for j in range(3)]
    rec.dump_csv(tmp_path / "traj.csv")
    want = ["time,particle,component,index,value"]
    for j, t in enumerate(rec.times):
        for comp, block in (("slow", rec.slow[j]), ("fast", rec.fast[j])):
            for (p, i), v in np.ndenumerate(block):
                want.append(f"{t:.17g},{p},{comp},{i},{v:.17g}")
    assert (tmp_path / "traj.csv").read_text() == "\n".join(want) + "\n"
    rows = [tuple(odd[j:j + 5]) for j in range(4)]
    write_fbar_cache(rows, tmp_path / "fbar.csv")
    want = ["x,mu_mean,mu_m2,fbar,std_error"] + [",".join(f"{v:.17g}" for v in r) for r in rows]
    assert (tmp_path / "fbar.csv").read_text() == "\n".join(want) + "\n"


def test_blowup_error_survives_pickling():
    err = pickle.loads(pickle.dumps(BlowUpError(0.5, 3, "c")))
    assert (err.time, err.particle, err.context) == (0.5, 3, "c")
    assert str(err) == str(BlowUpError(0.5, 3, "c"))


# ---------------------------------------------------------------------------
# increment statistic
# ---------------------------------------------------------------------------

def decaying_slow(**kw):
    # deterministic slow component x' = -x, decoupled from the fast one
    return build_model("linear-benchmark", {"a11": -1.0, "a12": 0.0, "f0": 0.0,
                                            "sigma1": 0.0, **kw})


def test_increment_stat_constant_path():
    m = decaying_slow(a11=0.0)
    params = MultiscaleParams(epsilon=0.1, t_end=1.0, h_micro=0.002)
    r = FullRunner(m, [1.0], [1.0], 2, params, [NoisePlan(1)], increment_delta=0.1).run()
    assert r.increment_stat[0, 0] == 0.0


def test_increment_stat_vs_euler_sum_and_quadrature():
    # X_k = (1 - h)^k: the statistic averages (X_k - X_{block start of step k})^2
    # over k = 1..n, which is a right Riemann sum of (1/T) int (x_t - x_{t(d)})^2 dt
    m = decaying_slow()
    T, delta, h = 1.0, 0.1, 0.0005
    params = MultiscaleParams(epsilon=0.1, t_end=T, h_micro=h)
    r = FullRunner(m, [1.0], [1.0], 1, params, [NoisePlan(1)], increment_delta=delta).run()
    s = round(delta / h)
    k = np.arange(1, params.n_steps + 1)
    euler = np.mean(((1 - h) ** k - (1 - h) ** ((k - 1) // s * s)) ** 2)
    assert r.increment_stat[0, 0] == pytest.approx(euler, rel=1e-9)
    tt = np.linspace(0.0, T, 200_001)
    ref = np.mean((np.exp(-tt) - np.exp(-np.floor(tt / delta + 1e-12) * delta)) ** 2)
    assert r.increment_stat[0, 0] == pytest.approx(ref, rel=0.02)


def test_increment_stat_scales_linearly_in_delta():
    m = build_model("linear-benchmark")
    params = MultiscaleParams(epsilon=0.05, t_end=1.0, h_micro=0.001)
    s1, s2 = (FullRunner(m, [1.0], [1.0], 512, params, [NoisePlan(16)],
                         increment_delta=d).run().increment_stat[0, 0] for d in (0.10, 0.05))
    assert 1.5 < s1 / s2 < 2.7  # halving delta roughly halves the statistic


def test_increment_stat_stride_mismatch():
    m = build_model("linear-benchmark")
    params = MultiscaleParams(epsilon=0.1, t_end=1.0, h_micro=0.01)
    for key, wrap in (("aux_deltas", lambda d: (d,)), ("increment_delta", lambda d: d)):
        with pytest.raises(ValueError, match=key):
            FullRunner(m, [1.0], [1.0], 2, params, [NoisePlan(1)], **{key: wrap(0.015)})
        with pytest.raises(ValueError, match=key):
            FullRunner(m, [1.0], [1.0], 2, params, [NoisePlan(1)], **{key: wrap(0.0)})


@pytest.mark.parametrize("model_id", ["linear-benchmark", "broken-antidissipative"])
def test_diagnostics_independent_of_chunks(model_id):
    # each step adds its means to the running sums, so the chunking of the
    # advances moves no bit of the diagnostics; the recorder's fast-moment
    # flag, read at a stride of the same sizes, stays clear on the linear
    # model and trips on the expanding one
    m = build_model(model_id)
    params = MultiscaleParams(epsilon=0.1, t_end=0.3, h_micro=0.002)
    results, flags = [], []
    for chunk in (64, 1, 7):
        r = FullRunner(m, [1.0], [0.5], 16, params, [NoisePlan(3)], aux_deltas=(0.01,),
                       increment_delta=0.02)
        advance_in_slices(r, chunk)
        results.append((r.aux_gap[0, 0, 0], r.increment_stat[0, 0]))
        rec = TrajectoryRecorder(stride_steps=chunk)
        FullRunner(m, [1.0], [0.5], 16, params, [NoisePlan(3)]).run(rec)
        flags.append(rec.moment_flag(m))
    # the linear model exercises the gap and increment sums, the expanding one the flag
    if model_id == "linear-benchmark":
        assert results[0][0] > 0 and results[0][1] > 0
    assert all(res == results[0] for res in results)
    assert flags == [model_id == "broken-antidissipative"] * 3


@pytest.mark.parametrize("diagnostics", [{}, {"aux_deltas": (0.01,), "increment_delta": 0.02}])
def test_grid_point_leaving_the_stack_keeps_the_others_bitwise(diagnostics):
    # eps = 0.1 and 0.05 stepped together, then eps = 0.05 alone after the
    # first leaves: the same bits as eps = 0.05 stepped alone all the way
    m = build_model("linear-benchmark")
    params = [MultiscaleParams(epsilon=e, t_end=0.1, h_micro=0.001) for e in (0.1, 0.05)]
    plans = [NoisePlan(4), NoisePlan(5)]
    draws = [draw(plans, kind, 0, 40, 8, modes) for kind, modes in ((0, 1), (1, 1))]
    both = FullRunner(m, [1.0], [0.5], 8, params, plans, **diagnostics)
    lone = FullRunner(m, [1.0], [0.5], 8, params[1], plans, **diagnostics)
    both.advance(15, *(d[:15] for d in draws))
    both.leave([1])
    both.advance(25, *(d[15:] for d in draws))
    lone.advance(40, *draws)
    assert both.X.shape == lone.X.shape == (1, 2, 8, 1)
    for name in ("X", "Y") + (("aux_gap", "increment_stat") if diagnostics else ()):
        assert np.array_equal(getattr(both, name), getattr(lone, name)), name


@pytest.mark.parametrize("model_id, model_params", [("linear-benchmark", {}),
                                                     ("porous-media-1d", {"n_interior": 7})])
def test_shared_fast_increment_is_bitwise_the_per_process_one(model_id, model_params):
    # a model whose b2 reads no state computes one fast increment per step for
    # the true and aux processes; declaring that it does gives one per process,
    # and the same bits, across two grid points of their own h and block
    # steps and a grid point leaving the stack mid-block
    shared = build_model(model_id, model_params)
    assert not shared.b2_reads_state
    per_process = dataclasses.replace(shared, b2_reads_state=True)
    params = [MultiscaleParams(epsilon=e, t_end=0.05, h_micro=h)
              for e, h in ((0.1, 0.002), (0.05, 0.0005))]
    plans = [NoisePlan(6), NoisePlan(7)]
    runners = []
    for m in (shared, per_process):
        calls = []
        b2 = m.b2_apply
        m = dataclasses.replace(m, b2_apply=lambda *args, b2=b2: calls.append(1) or b2(*args))
        r = FullRunner(m, m.default_x0, m.default_y0, 6, params, plans,
                       aux_deltas=(0.01, 0.02), increment_delta=0.004)
        draws = [draw(plans, kind, 0, r.n_steps, 6, modes) for kind, modes in r.streams]
        r.advance(13, *(d[:13] for d in draws))
        r.leave([1])
        r.advance(r.n_steps - 13, *(d[13:] for d in draws))
        runners.append((r, len(calls)))
    (a, calls_shared), (b, calls_per_process) = runners
    assert (calls_shared, calls_per_process) == (100, 300)
    for name in ("X", "Y", "aux_gap", "increment_stat"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert [Y.tobytes() for Y in a.Y_aux] == [Y.tobytes() for Y in b.Y_aux]
    assert a.increment_stat.all() and a.aux_gap.all()


def test_zero_coefficient_forcing_step_keeps_the_bits_of_the_three_operation_form():
    # the linear benchmark's aux and frozen steps take g = coef * forcing, not
    # coef * (0.0 * v + forcing): the step's bits are the same at every finite
    # v, signed zeros included, and an infinite v gives inf, not NaN
    m = build_model("linear-benchmark")
    solver = _FastSolver(m, 0.02)
    values = [0.0, -0.0, 5e-324, -2.5, 1e300]
    v, forcing = (np.array(c)[:, None] for c in zip(*itertools.product(values, values)))
    for x in (0.0, -0.0, 1.0):
        xi = np.full_like(v, x)
        got = solver.step(None, None, v, xi, forcing=forcing)
        want = solver.phi * v + solver.coef * (0.0 * v + forcing)
        want += solver.sqrt_h_eff * m.b2_apply(None, None, v, xi)
        assert got.tobytes() == want.tobytes()
    got = solver.step(None, None, np.array([[np.inf]]), np.zeros((1, 1)),
                      forcing=np.array([[1.0]]))
    assert np.isposinf(got).all()


def test_zero_horizon_returns_initial_state_only():
    m = build_model("linear-benchmark")
    params = MultiscaleParams(epsilon=0.1, t_end=0.0, h_micro=0.002)
    rec = TrajectoryRecorder()
    FullRunner(m, [1.5], [0.5], 4, params, [NoisePlan(17)]).run(rec)
    assert rec.times == [0.0]
    assert len(rec.slow) == 1 and np.all(rec.slow[0] == 1.5)
    assert len(rec.fast) == 1 and np.all(rec.fast[0] == 0.5)


@pytest.mark.parametrize("runner_cls", [FullRunner, AveragedRunner])
def test_recorder_takes_step_zero_each_stride_and_the_last_step(runner_cls, monkeypatch):
    # 53 steps on a stride of 10, on windows of 6 steps: rows at steps 0, 10,
    # ..., 50 and 53, once each, with the states of a runner stepped one step
    # at a time; the fast state only where the runner has one
    monkeypatch.setattr(noise_mod, "NOISE_WINDOW_NORMALS", 6 * 4)
    m = build_model("linear-benchmark")
    params = MultiscaleParams(epsilon=0.1, t_end=0.106, h_micro=0.002)
    assert params.n_steps == 53
    plans = [NoisePlan(18)]
    args = (m, [1.0], [0.5], 4) if runner_cls is FullRunner else (m, [1.0], 4)
    rec = TrajectoryRecorder(stride_steps=10)
    runner_cls(*args, params, plans).run(rec)
    steps = [0, 10, 20, 30, 40, 50, 53]
    assert rec.times == [k * params.h_micro for k in steps]
    ref = runner_cls(*args, params, plans)
    slow, fast = [ref.X[0, 0].copy()], [None if ref.Y is None else ref.Y[0, 0].copy()]
    while ref.k < 53:
        draws = [draw(plans, kind, ref.k, 1, 4, modes) for kind, modes in ref.streams]
        ref.advance(1, *draws)
        if ref.k in steps:
            slow.append(ref.X[0, 0].copy())
            fast.append(None if ref.Y is None else ref.Y[0, 0].copy())
    assert all(np.array_equal(a, b) for a, b in zip(rec.slow, slow, strict=True))
    if runner_cls is FullRunner:
        assert all(np.array_equal(a, b) for a, b in zip(rec.fast, fast, strict=True))
    else:
        assert rec.fast == []


@pytest.mark.parametrize("runner_cls", [FullRunner, AveragedRunner])
def test_measure_view_keeps_its_states_moments_after_steps_and_leave(runner_cls):
    # a stack's view computes its second moment on the first read, from the
    # state it was built from: the runners replace their state at each step
    # and at leave, never writing into it, so a view read late still gives
    # the moments of its own step, and so do its grid points' slices
    from mvavg.integrate import _measure_at
    m = build_model("porous-media-1d", {"n_interior": 7})
    params = [MultiscaleParams(epsilon=e, t_end=0.02, h_micro=0.001) for e in (0.1, 0.05)]
    plans = [NoisePlan(6), NoisePlan(7)]
    args = (m, m.default_x0, m.default_y0, 8) if runner_cls is FullRunner else (
        m, m.default_x0, 8)
    r = runner_cls(*args, params, plans)
    draws = [draw(plans, kind, 0, 20, 8, modes) for kind, modes in r.streams]
    r.advance(3, *(d[:3] for d in draws))
    late, at_1 = empirical_view(m, r.X), _measure_at(empirical_view(m, r.X), 1)
    now = empirical_view(m, r.X)
    want = now.second_moment.copy()
    r.advance(5, *(d[3:8] for d in draws))
    r.leave([1])
    r.advance(4, *(d[8:12] for d in draws))
    assert not np.array_equal(empirical_view(m, r.X).second_moment, want[1:])
    assert late.second_moment.tobytes() == want.tobytes()
    assert at_1.second_moment.tobytes() == want[1].tobytes()
    assert at_1.mean.tobytes() == now.mean[1].tobytes()
