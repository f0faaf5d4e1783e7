import concurrent.futures
import dataclasses
import functools
import hashlib
import json
import math
import multiprocessing
import os
import warnings

import numpy as np
import pytest

from mvavg import study
from mvavg.averaging import (AveragedRunner, default_frozen_params, estimate_fbar,
                             estimate_mixing_rate, frozen_simulate)
from mvavg.cli import main
from mvavg.integrate import BlowUpError, FullRunner, resolve_params
from mvavg.measure import MeasureMoments
from mvavg.models import build_model
from mvavg.noise import NoisePlan
from mvavg.study import (ConfigError, RateRow, StudyConfig, _coupled_error_once,
                         aggregate, assemble_report, fit_loglog, load_config,
                         run_aux_diagnostic, run_rate_study, write_report)


def write_cfg(tmp_path, **kw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(kw))
    return str(path)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_minimal_config_fills_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, model="linear-benchmark"))
    assert cfg.epsilon_grid == (0.1, 0.05, 0.02, 0.01, 0.005)
    assert cfg.n_particles == 1000
    assert cfg.replications == 8
    assert cfg.averaged_mode == "exact"
    # N defaults by the model's structure: 200 on a grid, 1000 otherwise
    one_node = {"n_interior": 1, "n_slow_modes": 1, "n_fast_modes": 1}   # slow_dim 1
    for model, params, n in (("porous-media-1d", {}, 200), ("plaplace-1d", {}, 200),
                             ("porous-media-1d", one_node, 200),
                             ("mvsde-cubic", {}, 1000), ("broken-antidissipative", {}, 1000)):
        cfg = load_config(write_cfg(tmp_path, model=model, model_params=params))
        assert cfg.n_particles == n, model


def test_field_model_step_follows_eps():
    # the stabilised slow step sets no dx^2 cap: h = h_factor * eps on every model
    for model, params in (("porous-media-1d", {"n_interior": 31}),
                          ("plaplace-1d", {"n_interior": 63})):
        cfg = StudyConfig(model=model, model_params=params, t_end=0.1)
        p = cfg.params_for(0.1)
        assert (p.h_micro, p.n_steps) == (0.1 * 0.02, 50)


def test_ascending_grid_rejected(tmp_path):
    with pytest.raises(ConfigError, match="epsilon grid must be strictly decreasing"):
        load_config(write_cfg(tmp_path, model="linear-benchmark",
                              epsilon_grid=[0.01, 0.05, 0.1]))


def test_unknown_key_named(tmp_path):
    with pytest.raises(ConfigError, match="not_a_key"):
        load_config(write_cfg(tmp_path, model="linear-benchmark", not_a_key=1))


def test_bad_values_name_offending_key(tmp_path):
    with pytest.raises(ConfigError, match="replications"):
        load_config(write_cfg(tmp_path, model="linear-benchmark", replications=0))
    with pytest.raises(ConfigError, match="epsilon_grid"):
        load_config(write_cfg(tmp_path, model="linear-benchmark", epsilon_grid=[2.0, 1.5]))
    with pytest.raises(ConfigError, match="model"):
        load_config(write_cfg(tmp_path, model="nope"))
    with pytest.raises(ConfigError, match="model_params"):
        load_config(write_cfg(tmp_path, model="linear-benchmark",
                              model_params={"gamma": -1.0}))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    (tmp_path / "list.json").write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(str(tmp_path / "list.json"))


def test_env_seed_override(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, model="linear-benchmark", seed=1)
    monkeypatch.setenv("MVAVG_SEED", "777")
    assert load_config(path).seed == 777
    monkeypatch.setenv("MVAVG_SEED", "not-an-int")
    with pytest.raises(ConfigError, match="MVAVG_SEED"):
        load_config(path)


def test_seed_validated_and_flag_takes_precedence(tmp_path, monkeypatch):
    for bad in (-1, 2 ** 64, "abc", 1.5, True):
        with pytest.raises(ConfigError, match="seed"):
            load_config(write_cfg(tmp_path, model="linear-benchmark", seed=bad))
    assert load_config(write_cfg(tmp_path, model="linear-benchmark",
                                 seed=2 ** 64 - 1)).seed == 2 ** 64 - 1
    path = write_cfg(tmp_path, model="linear-benchmark", seed=1)
    monkeypatch.setenv("MVAVG_SEED", "777")
    assert load_config(path, {"seed": 5}).seed == 5
    monkeypatch.setenv("MVAVG_SEED", "-3")
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)
    monkeypatch.delenv("MVAVG_SEED")
    assert main(["simulate", "--model", "linear-benchmark", "--seed", "-1",
                 "--out", str(tmp_path)]) == 2


def test_param_overrides_merge_into_file_params(tmp_path):
    path = write_cfg(tmp_path, model="linear-benchmark", model_params={"gamma": 3.0})
    cfg = load_config(path, {"model_params": {"k1": 0.5}, "workers": 2})
    assert cfg.model_params == {"gamma": 3.0, "k1": 0.5}
    assert cfg.workers == 2
    with pytest.raises(ConfigError, match="not_a_key"):
        load_config(path, {"not_a_key": 1})
    listed = write_cfg(tmp_path, model="linear-benchmark", model_params=[1])
    with pytest.raises(ConfigError, match="model_params"):
        load_config(listed, {"model_params": {"k1": 0.5}})


def test_exact_mode_needs_closed_form_fbar(tmp_path, capsys):
    cfg = StudyConfig(model="mvsde-cubic", epsilon_grid=[0.1, 0.05, 0.02])
    with pytest.raises(ConfigError, match="averaged_mode"):
        run_rate_study(cfg)
    for cmd in ("rate-study", "average"):
        assert main([cmd, "--model", "broken-antidissipative", "--out", str(tmp_path)]) == 2
        assert "averaged_mode" in capsys.readouterr().err


def test_measure_dependent_needs_two_particles():
    with pytest.raises(ConfigError, match="n_particles"):
        StudyConfig(model="linear-benchmark", n_particles=1)
    # a single particle is fine when the model ignores the measure
    cfg = StudyConfig(model="linear-benchmark", n_particles=1,
                      model_params={"a12": 0.0, "k2": 0.0})
    assert cfg.n_particles == 1


# ---------------------------------------------------------------------------
# fit and verdict logic
# ---------------------------------------------------------------------------

def synthetic_report(error_of, grid=(0.1, 0.05, 0.02, 0.01, 0.005)):
    return assemble_report([RateRow(e, float(error_of(e)), 0.0, 0.0, 0.0) for e in grid])


def test_synthetic_power_law_passes():
    report = synthetic_report(lambda e: e ** (2.0 / 3.0))
    assert report.slope == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert report.strictly_decreasing
    assert report.verdict == "pass"


def test_synthetic_flat_errors_fail():
    report = synthetic_report(lambda e: 0.5)
    assert not report.strictly_decreasing
    assert report.verdict == "fail"


def test_verdict_reproducible_by_independent_least_squares():
    report = synthetic_report(lambda e: 3.0 * e ** 0.9)
    x = np.log(np.array([r.epsilon for r in report.rows]))
    y = np.log(np.array([r.error_sq for r in report.rows]))
    n = len(x)
    sx, sy, sxx, sxy = x.sum(), y.sum(), (x * x).sum(), (x * y).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    assert abs(slope - report.slope) < 1e-10
    assert report.verdict == ("pass" if slope >= report.threshold
                              and report.strictly_decreasing else "fail")


def test_fit_loglog_r_squared_perfect_line():
    slope, intercept, r2 = fit_loglog([0.1, 0.01, 0.001], [0.2, 0.02, 0.002])
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# strong error behaviour
# ---------------------------------------------------------------------------

def one_point_row(cfg):
    """The rate-study row of a one-point grid: every replication run alone, aggregated."""
    return aggregate(cfg.epsilon_grid[0], [_coupled_error_once(cfg, (0,), (rep,))[0][0]
                                           for rep in range(cfg.replications)])


def test_decoupled_system_has_zero_error():
    cfg = StudyConfig(model="linear-benchmark", model_params={"f0": 0.0},
                      n_particles=32, epsilon_grid=[0.05], replications=2,
                      t_end=0.5, seed=3)
    assert one_point_row(cfg).error_sq <= 1e-20


def test_replication_aggregate_reports_spread():
    cfg = StudyConfig(model="linear-benchmark", n_particles=64, epsilon_grid=[0.05],
                      replications=3, t_end=0.25, seed=5)
    row = one_point_row(cfg)
    assert row.epsilon == 0.05
    assert row.error_sq > 0.0
    assert row.std_error > 0.0
    assert row.aux_gap > 0.0
    assert row.increment_stat > 0.0
    errs = [_coupled_error_once(cfg, (0,), (rep,))[0][0][0] for rep in range(3)]
    assert row.error_sq == float(np.mean(errs))
    assert row.std_error == pytest.approx(np.std(errs, ddof=1) / math.sqrt(3), rel=1e-12)


def test_crn_coupling_reduces_variance():
    # common random numbers vs independent slow noise, once at eps = 0.05
    base = dict(model="linear-benchmark", n_particles=256, epsilon_grid=[0.05],
                replications=4, t_end=0.5, seed=7)
    crn = one_point_row(StudyConfig(**base, crn=True))
    ind = one_point_row(StudyConfig(**base, crn=False))
    assert crn.std_error < ind.std_error
    assert crn.error_sq < ind.error_sq


def test_sup_dominates_terminal_error():
    cfg = StudyConfig(model="linear-benchmark", n_particles=16, epsilon_grid=[0.05],
                      replications=1, t_end=0.25, seed=9)
    m = build_model("linear-benchmark")
    params = cfg.params_for(0.05)
    from mvavg.averaging import AveragedRunner
    from mvavg.integrate import FullRunner
    from mvavg.models import slow_norm_sq
    plan = NoisePlan(9).derive(4242, 0)
    [[(error_sq, _, _)]] = _coupled_error_once(cfg, (0,), (0,))
    full = FullRunner(m, *cfg.initial_states(m), cfg.n_particles, params, [plan]).run()
    avg = AveragedRunner(m, cfg.initial_states(m)[0], cfg.n_particles, params,
                         [plan]).run()
    terminal = float(np.mean(slow_norm_sq(m, full.X - avg.X)))
    assert error_sq >= terminal - 1e-15


def test_study_rows_come_from_the_job_and_aggregator():
    cfg = StudyConfig(model="linear-benchmark", n_particles=16,
                      epsilon_grid=[0.1, 0.05, 0.02], replications=2, t_end=0.1, seed=4)
    report = run_rate_study(cfg)
    for i, row in enumerate(report.rows):
        one = dataclasses.replace(cfg, epsilon_grid=[cfg.epsilon_grid[i]])
        assert row == one_point_row(one)


@pytest.mark.parametrize("base", [
    dict(model="linear-benchmark", n_particles=8, record_points=7),
    dict(model="porous-media-1d", model_params={"n_interior": 7}, n_particles=8),
    dict(model="linear-benchmark", n_particles=8, record_points=7, crn=False),
])
def test_windowed_noise_draws_are_bitwise_per_stride_draws(base, monkeypatch):
    # two-step windows (the window constant at 1), so that every stride spans
    # several windows; windows of three strides with a partial last window;
    # and the default window: all give the same job
    cfg = StudyConfig(**base, epsilon_grid=[0.05], replications=1, t_end=0.1, seed=11)
    model = cfg.build_model()
    params = cfg.params_for(0.05)
    stride = cfg.record_stride(params)
    per_stride = stride * cfg.n_particles * max(model.n_slow_modes, model.n_fast_modes)
    results = []
    for normals in (1, 3 * per_stride, study.noise_mod.NOISE_WINDOW_NORMALS):
        monkeypatch.setattr(study.noise_mod, "NOISE_WINDOW_NORMALS", normals)
        results.append(_coupled_error_once(cfg, (0,), (0,)))
    assert params.n_steps % (3 * stride) != 0
    assert results[0] == results[1] == results[2]


def test_coupled_noise_windows_start_on_step_pairs(monkeypatch):
    # an odd stride (5 steps) and windows of 5 steps' normals: the window is
    # rounded up to 8 steps, two noise counter groups, so strides cross
    # windows and every window starts on a counter group (and a step pair)
    cfg = StudyConfig(model="linear-benchmark", n_particles=8, record_points=20,
                      epsilon_grid=[0.05], replications=1, t_end=0.1, seed=11)
    starts = []
    draw = study.noise_mod.draw

    def spy(plans, kind, step_start, *shape, **kwargs):
        starts.append(step_start)
        return draw(plans, kind, step_start, *shape, **kwargs)

    monkeypatch.setattr(study.noise_mod, "NOISE_WINDOW_NORMALS", 5 * cfg.n_particles)
    monkeypatch.setattr(study.noise_mod, "draw", spy)
    _coupled_error_once(cfg, (0,), (0,))
    assert starts == [k for k in range(0, 100, 8) for _ in range(2)]


BATCH_CASES = (
    dict(model="linear-benchmark", n_particles=8, record_points=7),
    dict(model="linear-benchmark", n_particles=8, record_points=7, crn=False),
    dict(model="porous-media-1d", model_params={"n_interior": 7}, n_particles=8),
    dict(model="mvsde-cubic", n_particles=8, averaged_mode="hmm",
         hmm={"replicas": 2, "horizon": 0.5, "burn_in": 0.2, "h_frozen": 0.02}),
)


@pytest.mark.parametrize("base", BATCH_CASES, ids=["linear", "linear-no-crn", "porous",
                                                   "cubic-hmm"])
@pytest.mark.filterwarnings("ignore:fbar standard error")
def test_replication_batches_are_bitwise_single_runs(base):
    # one batch, a batch plus a single, and three singles give the same tuples
    cfg = StudyConfig(**base, epsilon_grid=[0.05], replications=3, t_end=0.1, seed=11)
    [whole] = _coupled_error_once(cfg, (0,), (0, 1, 2))
    split = _coupled_error_once(cfg, (0,), (0, 1))[0] + _coupled_error_once(cfg, (0,), (2,))[0]
    singles = [_coupled_error_once(cfg, (0,), (rep,))[0][0] for rep in range(3)]
    assert len(whole) == 3 and len(set(whole)) == 3
    assert whole == split == singles


@pytest.mark.parametrize("base", BATCH_CASES, ids=["linear", "linear-no-crn", "porous",
                                                   "cubic-hmm"])
@pytest.mark.filterwarnings("ignore:fbar standard error")
def test_grid_point_group_is_bitwise_lone_grid_points(base, monkeypatch):
    # small windows, so that strides of every grid point cross window edges
    monkeypatch.setattr(study.noise_mod, "NOISE_WINDOW_NORMALS", 24 * base["n_particles"])
    cfg = StudyConfig(**base, epsilon_grid=[0.1, 0.05, 0.02], replications=2, t_end=0.1,
                      seed=11)
    group = _coupled_error_once(cfg, (0, 1, 2), (0, 1))
    alone = [_coupled_error_once(cfg, (i,), (0, 1))[0] for i in range(3)]
    assert len({row for rows in group for row in rows}) == 6
    assert group == alone
    assert _coupled_error_once(cfg, (2, 0), (0, 1)) == [alone[2], alone[0]]


@pytest.mark.parametrize("crn", [True, False])
def test_group_draws_each_stream_once_per_step(crn, monkeypatch):
    # 50, 100 and 250 steps: each kind covers steps 0..249 once in windows of
    # 24 steps that start on even steps, not 400 steps over the grid points
    cfg = StudyConfig(model="linear-benchmark", n_particles=8, record_points=7, crn=crn,
                      epsilon_grid=[0.1, 0.05, 0.02], replications=2, t_end=0.1, seed=11)
    drawn = {}
    draw = study.noise_mod.draw

    def spy(plans, kind, step_start, n_steps, *shape, **kwargs):
        drawn.setdefault(kind, []).append((step_start, n_steps))
        return draw(plans, kind, step_start, n_steps, *shape, **kwargs)

    monkeypatch.setattr(study.noise_mod, "NOISE_WINDOW_NORMALS", 23 * cfg.n_particles)
    monkeypatch.setattr(study.noise_mod, "draw", spy)
    _coupled_error_once(cfg, (0, 1, 2), (0, 1))
    kinds = {study.noise_mod.SLOW, study.noise_mod.FAST}
    assert set(drawn) == (kinds if crn else kinds | {study.noise_mod.SLOW_ALT})
    for windows in drawn.values():
        assert [k for s, n in windows for k in range(s, s + n)] == list(range(250))
        assert [s for s, _ in windows] == list(range(0, 250, 24))


@pytest.mark.parametrize("base, frozen", [
    (dict(model="linear-benchmark"), 0),
    (dict(model="linear-benchmark", crn=False), 0),
    (dict(model="mvsde-cubic", averaged_mode="hmm",
          hmm={"replicas": 2, "horizon": 0.5, "burn_in": 0.2, "h_frozen": 0.02}), 1268),
], ids=["linear", "linear-no-crn", "cubic-hmm"])
@pytest.mark.filterwarnings("ignore:fbar standard error")
def test_group_draws_each_window_of_each_stream_once(base, frozen, monkeypatch):
    # windows of 24 steps over 250 steps: 11 windows per stream and plan, each
    # drawn by one NoisePlan.gaussians call; the HMM lattice's one march of
    # 1265 frozen steps (a chain's 400-step initial burn-in, then 25 windows
    # of 10 + 25 steps) is drawn in 317 windows of 4 steps (one counter
    # group), one call per plan and frozen replica each: 1268 calls
    calls = []
    gaussians = NoisePlan.gaussians

    def spy(plan, kind, step_start, n_steps, *args, **kwargs):
        calls.append((plan.seed, kind, step_start, n_steps))
        return gaussians(plan, kind, step_start, n_steps, *args, **kwargs)

    monkeypatch.setattr(study.noise_mod, "NOISE_WINDOW_NORMALS", 23 * 8)
    monkeypatch.setattr(NoisePlan, "gaussians", spy)
    cfg = StudyConfig(**base, n_particles=8, record_points=7, epsilon_grid=[0.1, 0.05, 0.02],
                      replications=2, t_end=0.1, seed=11)
    _coupled_error_once(cfg, (0, 1, 2), (0, 1))
    coupled = [c for c in calls if c[1] != study.noise_mod.FROZEN]
    kinds = 2 if cfg.crn else 3
    assert len(coupled) == len(set(coupled)) == kinds * 2 * 11
    assert sorted({(k, s, n) for _, k, s, n in coupled}) == sorted(
        (k, s, min(24, 250 - s)) for k in {c[1] for c in coupled} for s in range(0, 250, 24))
    assert len(calls) - len(coupled) == frozen


def test_group_blowups_drop_only_their_grid_points(monkeypatch):
    # eps = 0.02 and 0.01 blow up before t_end = 0.458, eps = 0.1 and 0.05 do
    # not; eps = 0.01 (2290 steps) blows up in its second noise window.  Then
    # again on windows of 8 steps, so that the strides of eps = 0.02 and 0.01
    # (5 and 11 steps) cross window edges and advances split there: a blow-up
    # is still found at a sup time, with the same time, particle and context
    cfg = StudyConfig(model="linear-benchmark", model_params={"a11": 40.0}, n_particles=8,
                      epsilon_grid=[0.1, 0.05, 0.02, 0.01], replications=2, t_end=0.458,
                      seed=2024)
    groups = []
    for normals in (study.noise_mod.NOISE_WINDOW_NORMALS, 7 * cfg.n_particles):
        monkeypatch.setattr(study.noise_mod, "NOISE_WINDOW_NORMALS", normals)
        group = _coupled_error_once(cfg, (0, 1, 2, 3), (0, 1))
        alone = [_coupled_error_once(cfg, (i,), (0, 1))[0] for i in range(4)]
        failed = [i for i, out in enumerate(group) if isinstance(out, BlowUpError)]
        assert failed == [2, 3]
        assert [repr(out) for out in group] == [repr(out) for out in alone]
        report = run_rate_study(cfg)
        assert report.incomplete
        assert report.rows == [aggregate(cfg.epsilon_grid[i], alone[i])
                               for i in range(4) if i not in failed]
        assert report.failures == [(cfg.epsilon_grid[i],
                                    repr(_coupled_error_once(cfg, (i,), (rep,))[0]))
                                   for i in failed for rep in range(2)]
        groups.append([repr(out) for out in group])
    assert groups[0] == groups[1]


def test_grid_point_blowup_names_the_interval_since_its_last_sup_time():
    # a grid point is checked at its sup times, every stride steps: its
    # blow-up lies between the last clean sup time and the one that found it,
    # and the grid point run to the last clean one does not blow up
    cfg = StudyConfig(model="linear-benchmark", model_params={"a11": 40.0}, n_particles=8,
                      epsilon_grid=[0.02], replications=1, t_end=1.0, seed=2024)
    params = cfg.params_for(0.02)
    stride = cfg.record_stride(params)
    err = _coupled_error_once(cfg, (0,), (0,))[0]
    assert isinstance(err, BlowUpError)
    assert 0.0 < err.since < err.time and round((err.time - err.since) / params.h_micro) == stride
    assert f"between t={err.since:.6g} and t={err.time:.6g}" in str(err)
    clean = dataclasses.replace(cfg, t_end=err.since)
    assert isinstance(_coupled_error_once(clean, (0,), (0,))[0], list)


def test_group_steps_each_step_index_once(monkeypatch):
    # 50, 100 and 250 steps: 250 step indices per runner, not 400 steps, and
    # each grid point leaves the stack after its last step
    cfg = StudyConfig(model="linear-benchmark", n_particles=8, record_points=7,
                      epsilon_grid=[0.1, 0.05, 0.02], replications=2, t_end=0.1, seed=11)
    steps = {FullRunner: [], AveragedRunner: []}
    for cls, calls in steps.items():
        def spy(runner, n_sub, *draws, _advance=cls.advance, _calls=calls):
            _calls.append((runner.k, n_sub, runner.X.shape[:2]))
            return _advance(runner, n_sub, *draws)
        monkeypatch.setattr(cls, "advance", spy)
    _coupled_error_once(cfg, (0, 1, 2), (0, 1))
    for calls in steps.values():
        assert sum(n for _, n, _ in calls) == 250
        assert [k + n for k, n, _ in calls] == sorted({k + n for k, n, _ in calls})
        assert {shape[0] for k, _, shape in calls if k < 50} == {3}
        assert {shape[0] for k, _, shape in calls if 50 <= k < 100} == {2}
        assert {shape[0] for k, _, shape in calls if k >= 100} == {1}


@pytest.mark.parametrize("base", [BATCH_CASES[0], BATCH_CASES[3]], ids=["linear", "cubic-hmm"])
@pytest.mark.filterwarnings("ignore:fbar standard error")
def test_group_computes_the_second_moment_only_at_aux_block_starts(base, monkeypatch):
    # the scalar models' coefficients read the mean of mu alone, so a group
    # job computes the second moment only where the full runner's aux
    # snapshot takes it: once per step index at which a grid point's block
    # starts, not once per step, and none at the HMM refreshes of the
    # x-only cubic law
    from mvavg import models
    computed = []

    def spy(model, U, _second_moment=models._second_moment):
        computed.append(U.shape)
        return _second_moment(model, U)
    monkeypatch.setattr(models, "_second_moment", spy)
    cfg = StudyConfig(**base, epsilon_grid=[0.1, 0.05, 0.02], replications=2, t_end=0.3,
                      seed=11)
    _coupled_error_once(cfg, (0, 1, 2), (0, 1))
    params = [cfg.params_for(e) for e in cfg.epsilon_grid]
    starts = {k for p in params
              for k in range(0, p.n_steps, p.block_steps(p.delta_block, "delta"))}
    assert len(computed) == len(starts) == 8
    assert max(p.n_steps for p in params) == 750
    if "hmm" in base:
        computed.clear()
        model = build_model("mvsde-cubic")
        AveragedRunner(model, [1.0], 8, params[2], [NoisePlan(3)],
                       hmm=cfg.hmm_config(model)).run()
        assert computed == []


@pytest.mark.parametrize("base", BATCH_CASES[:3], ids=["linear", "linear-no-crn", "porous"])
def test_group_on_small_windows_is_bitwise_lone_grid_points(base, monkeypatch):
    # windows of 24 steps: advances split at their edges, which the linear
    # cases' strides (7, 14 and 35 steps) cross
    cfg = StudyConfig(**base, epsilon_grid=[0.1, 0.05, 0.02], replications=2, t_end=0.1,
                      seed=11)
    monkeypatch.setattr(study.noise_mod, "NOISE_WINDOW_NORMALS", 24 * cfg.n_particles)
    alone = [_coupled_error_once(cfg, (i,), (0, 1))[0] for i in range(3)]
    assert _coupled_error_once(cfg, (0, 1, 2), (0, 1)) == alone


@pytest.mark.parametrize("base", [
    dict(model="porous-media-1d", model_params={"n_interior": 7}),
    dict(model="linear-benchmark"),
])
def test_group_with_per_grid_point_solvers_is_bitwise_lone_grid_points(base):
    # h_factor 0.03 on eps = 0.1, 0.07 and 0.02 gives three different h / eps
    # in floating point, so the stack carries a fast solver per grid point; the
    # porous x0 of amplitude 1.5 raises K, and h K differs per grid point too
    nodes = np.arange(1, 8) / 8
    x0 = list(1.5 * np.sin(np.pi * nodes)) if base["model"] == "porous-media-1d" else None
    cfg = StudyConfig(**base, n_particles=8, epsilon_grid=[0.1, 0.07, 0.02], h_factor=0.03,
                      replications=2, t_end=0.03, seed=12, x0=x0)
    model = cfg.build_model()
    params = [cfg.params_for(e) for e in cfg.epsilon_grid]
    assert len({p.h_micro / p.epsilon for p in params}) == 3
    runner = FullRunner(model, *cfg.initial_states(model), 8, params, [NoisePlan(1)])
    if model.slow_stab is not None:
        assert runner.slow_stab == model.slow_stab(1.5) > model.slow_stab(0.0)
        assert runner.stab_inv_t.shape == (3, 1, 7, 7)
        for g, p in enumerate(params):
            lone = FullRunner(model, *cfg.initial_states(model), 8, p, [NoisePlan(1)])
            assert np.array_equal(runner.stab_inv_t[g, 0], lone.stab_inv_t)
    group = _coupled_error_once(cfg, (0, 1, 2), (0, 1))
    alone = [_coupled_error_once(cfg, (i,), (0, 1))[0] for i in range(3)]
    assert all(isinstance(out, list) for out in group)
    assert group == alone


@pytest.mark.filterwarnings("ignore:fbar standard error")
def test_group_frozen_run_blowup_fails_its_grid_point():
    # c_mu = 20 drives every cloud off to large x, where the lattice's frozen
    # chains blow up: the particles that read their estimates fail each grid
    # point at a sup time, as when it runs alone
    cfg = StudyConfig(model="mvsde-cubic", model_params={"c_mu": 20.0}, n_particles=8,
                      averaged_mode="hmm",
                      hmm={"replicas": 1, "horizon": 0.5, "burn_in": 0.2, "h_frozen": 0.02},
                      epsilon_grid=[0.1, 0.05, 0.02], replications=2, t_end=1.0, seed=3)
    group = _coupled_error_once(cfg, (0, 1, 2), (0, 1))
    alone = [_coupled_error_once(cfg, (i,), (0, 1))[0] for i in range(3)]
    assert all(isinstance(out, BlowUpError) for out in group)
    # the failure names the grid point, its seeds, the sup time and the last
    # clean one
    seeds = ",".join(str(NoisePlan(3).derive(4242, rep).seed) for rep in (0, 1))
    assert (f"between t=0.344 and t=0.348 (particle 0) [averaged eps=0.1 seed={seeds}, "
            "batch row 0]"
            in repr(group[0]))
    assert [repr(out) for out in group] == [repr(out) for out in alone]


def test_pool_submits_the_longest_grid_point_first(monkeypatch):
    submitted = []

    class InlinePool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, cfg, group):
            submitted.append(group)
            result = fn(cfg, group)
            return type("Done", (), {"result": lambda self: result})()

    # the study imports the pool class on its pooled branch only
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cfg = StudyConfig(model="linear-benchmark", n_particles=8,
                      epsilon_grid=[0.1, 0.05, 0.02, 0.01], replications=2, t_end=0.1, seed=4)
    # 50, 100, 250 and 500 steps: the longest grid point first, each to the
    # group with the fewest steps, and the heavier group submitted first
    pooled = run_rate_study(dataclasses.replace(cfg, workers=2))
    assert submitted == [(3,), (0, 1, 2)]
    assert pooled.rows == run_rate_study(cfg).rows
    submitted.clear()
    run_rate_study(dataclasses.replace(cfg, workers=8))
    assert submitted == [(3,), (2,), (1,), (0,)]


def test_programming_error_in_a_job_propagates(monkeypatch):
    def broken_job(cfg, eps_indices, reps):
        raise TypeError("not a blow-up")
    monkeypatch.setattr(study, "_coupled_error_once", broken_job)
    cfg = StudyConfig(model="linear-benchmark", n_particles=4,
                      epsilon_grid=[0.1, 0.05, 0.02], replications=1, t_end=0.1)
    with pytest.raises(TypeError, match="not a blow-up"):
        run_rate_study(cfg)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_roundtrip_full_precision(tmp_path):
    report = synthetic_report(lambda e: math.pi * e ** 0.7)
    paths = write_report(report, str(tmp_path))
    with open(paths["rate_report"]) as fh:
        assert fh.readline().strip().split(",") == [f.name for f in dataclasses.fields(RateRow)]
        rows = [RateRow(*map(float, line.split(","))) for line in fh]
    assert len(rows) == len(report.rows)
    for got, want in zip(rows, report.rows):
        assert got.epsilon == want.epsilon
        assert got.error_sq == want.error_sq  # exact: 17 significant digits
    fit_line = open(paths["fit"]).readlines()[1].strip().split(",")
    assert float(fit_line[0]) == report.slope
    assert fit_line[3] == report.verdict
    assert os.path.exists(paths["summary"])


def test_rate_report_header_contract(tmp_path):
    report = synthetic_report(lambda e: e)
    paths = write_report(report, str(tmp_path))
    header = open(paths["rate_report"]).readline().strip()
    assert header == "epsilon,error_sq,std_error,aux_gap,increment_stat"


WORKER_CASES = (
    dict(model="linear-benchmark", n_particles=64, replications=2, t_end=0.25, seed=13),
    dict(model="mvsde-cubic", n_particles=16, replications=1, t_end=0.2, seed=14,
         averaged_mode="hmm",
         hmm={"replicas": 1, "horizon": 0.5, "burn_in": 0.2, "h_frozen": 0.02}),
)


def test_workers_give_identical_results():
    # the cases run in one test (not parametrized) so that its id stays stable
    for base in WORKER_CASES:
        grid = [0.1, 0.05, 0.02]
        r1 = run_rate_study(StudyConfig(**base, epsilon_grid=grid, workers=1))
        r2 = run_rate_study(StudyConfig(**base, epsilon_grid=grid, workers=3))
        assert r1.rows == r2.rows, base["model"]


def test_blowup_failures_identical_across_workers():
    base = dict(model="linear-benchmark", model_params={"a11": 40.0}, n_particles=8,
                epsilon_grid=[0.1, 0.05, 0.02], replications=2, t_end=1.0, seed=2024)
    r1 = run_rate_study(StudyConfig(**base, workers=1))
    r2 = run_rate_study(StudyConfig(**base, workers=2))
    # a blown-up batch is re-run replication by replication: each failure
    # names its own time, particle and seed, as when every replication ran alone
    seeds = {0: "9684295000089048702", 1: "16972349115004639570"}
    expected = [(eps, "BlowUpError('state blew up: found non-finite or |value| > 1e+08 "
                      f"between t={a} and t={t} (particle {p}) [{run} eps={eps:g} "
                      f"seed={seeds[rep]}]; consider a smaller h_factor (the config key that "
                      "sets h = h_factor * eps; frozen runs step by --h or hmm.h_frozen)')")
                for eps, a, t, p, run, rep in ((0.1, 0.464, 0.468, 0, "averaged", 0),
                                               (0.1, 0.464, 0.468, 1, "averaged", 1),
                                               (0.05, 0.455, 0.46, 0, "averaged", 0),
                                               (0.05, 0.455, 0.46, 1, "averaged", 1),
                                               (0.02, 0.4512, 0.456, 3, "full", 0),
                                               (0.02, 0.4512, 0.456, 1, "full", 1))]
    assert r1.failures == expected
    assert r1.failures == r2.failures
    assert r1.incomplete and not r1.rows


def test_field_model_far_past_its_amplitude_fails_cleanly():
    # the stabilisation constant K bounds the slow drift's linearisation only
    # up to about twice the model's x0_amplitude; far past it the step may
    # blow up, which must end in a named BlowUpError, never in NaN rows
    nodes = np.arange(1, 16) / 16
    for amp in (2.0, 5.0):
        cfg = StudyConfig(model="porous-media-1d", model_params={"n_interior": 15},
                          n_particles=8, epsilon_grid=[0.1, 0.05, 0.02], replications=1,
                          t_end=0.1, seed=5, x0=list(amp * np.sin(np.pi * nodes)))
        report = run_rate_study(cfg)
        for row in report.rows:
            assert all(map(math.isfinite, dataclasses.astuple(row))), row
        for eps, msg in report.failures:
            assert msg.startswith("BlowUpError('state blew up: found non-finite or |value| > "
                                  "1e+08 between t="), msg
            assert "(particle " in msg and f"eps={eps:g}" in msg
        assert len(report.rows) + len({eps for eps, _ in report.failures}) == 3


# ---------------------------------------------------------------------------
# CLI exit codes and interfaces
# ---------------------------------------------------------------------------

def test_cli_config_error_is_exit_2(tmp_path):
    bad = write_cfg(tmp_path, model="linear-benchmark", epsilon_grid=[0.1, 0.5])
    assert main(["rate-study", "--config", bad]) == 2
    assert main(["simulate", "--model", "nope"]) == 2


def test_config_types_checked_and_key_named(tmp_path, capsys):
    for key, val in (("replications", 2.5), ("n_particles", "abc"), ("workers", True),
                     ("t_end", "1"), ("epsilon_grid", [0.1, "x"]), ("delta_exponent", -1000)):
        path = write_cfg(tmp_path, model="linear-benchmark", **{key: val})
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        assert main(["rate-study", "--config", path]) == 2
        assert key in capsys.readouterr().err
    for key, val in (("replicas", 2.5), ("replicas", 0), ("replicas", None),
                     ("refresh_stride_steps", 0), ("refresh_stride_steps", 1.5),
                     ("h_frozen", 0), ("horizon", -1.0), ("horizon", "1"),
                     ("burn_in", -0.5), ("burn_in_initial", float("nan")),
                     ("warn_fraction", 0), ("warn_fraction", None)):
        path = write_cfg(tmp_path, model="mvsde-cubic", averaged_mode="hmm", hmm={key: val})
        with pytest.raises(ConfigError, match=f"hmm.{key}:"):
            load_config(path)
        assert main(["rate-study", "--config", path]) == 2
        assert f"config error: hmm.{key}:" in capsys.readouterr().err


def test_int_past_the_largest_float_is_not_a_finite_number(tmp_path, capsys):
    # JSON reads a long digit string as an int that no float holds
    for key, kw in (("t_end", dict(t_end=10 ** 400)),
                    ("model_params.gamma", dict(model_params={"gamma": 10 ** 400})),
                    ("x0", dict(x0=[10 ** 400])),
                    ("hmm.horizon", dict(model="mvsde-cubic", averaged_mode="hmm",
                                         hmm={"horizon": 10 ** 400}))):
        path = write_cfg(tmp_path, **{"model": "linear-benchmark", **kw})
        assert main(["rate-study", "--config", path]) == 2
        assert f"config error: {key}: must be a finite number" in capsys.readouterr().err


def test_initial_states_and_crn_checked_and_key_named(tmp_path, capsys):
    for key, val in (("x0", [1, 2, 3]), ("y0", [[1.0]] * 3), ("x0", 1.0), ("x0", ["1"]),
                     ("y0", [float("inf")]), ("x0", [True]), ("crn", "no"), ("crn", 0)):
        path = write_cfg(tmp_path, model="linear-benchmark", n_particles=4, **{key: val})
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        assert main(["rate-study", "--config", path]) == 2
        assert f"config error: {key}:" in capsys.readouterr().err
    # one row shared by every particle, or one row per particle
    load_config(write_cfg(tmp_path, model="linear-benchmark", n_particles=4,
                          x0=[0.5], y0=[[0.0], [1.0], [2.0], [3.0]], crn=False))
    pde = load_config(write_cfg(tmp_path, model="porous-media-1d",
                                model_params={"n_interior": 5}, x0=[0.1, 0.2, 0.3, 0.2, 0.1]))
    assert pde.initial_states(pde.build_model())[0].shape == (5,)


def test_freeze_vector_flags_name_the_flag(tmp_path, capsys):
    model = ["--model", "linear-benchmark", "--out", str(tmp_path)]
    for argv, flag in ((["--x", "abc"], "--x"), (["--x", "1,2"], "--x"),
                       (["--x", "nan"], "--x"), (["--x", "1", "--mu-mean", "0,1"], "--mu-mean"),
                       (["--x", "1", "--mu-mean", "one"], "--mu-mean"),
                       (["--x", "1", "--mu-m2", "nan"], "--mu-m2"),
                       (["--x", "1", "--mu-m2", "-5"], "--mu-m2")):
        assert main(["freeze"] + argv + model) == 2
        assert f"config error: {flag}:" in capsys.readouterr().err


def test_cli_flag_range_errors_name_the_flag(tmp_path, capsys):
    model = ["--model", "linear-benchmark", "--out", str(tmp_path)]
    for argv, flag in ((["simulate", "--epsilon", "2"], "--epsilon"),
                       (["aux", "--epsilon", "0"], "--epsilon"),
                       (["freeze", "--x", "1", "--h", "-1"], "--h"),
                       (["freeze", "--x", "1", "--horizon", "0.05"], "--horizon")):
        assert main(argv + model) == 2
        assert f"config error: {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--burn-in", "nan"), ("--h", "nan"),
                                         ("--horizon", "inf"), ("--burn-in", "inf")])
def test_freeze_non_finite_flags_name_the_flag(tmp_path, capsys, flag, value):
    argv = ["freeze", "--x", "1", flag, value, "--model", "linear-benchmark",
            "--out", str(tmp_path)]
    assert main(argv) == 2
    assert f"config error: {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("model, key, value", [("linear-benchmark", "gamma", "NaN"),
                                                ("linear-benchmark", "sigma1", "1e200"),
                                                ("porous-media-1d", "n_interior", "1.5"),
                                                ("linear-benchmark", "gamma", "-1"),
                                                ("mvsde-cubic", "kappa", "0"),
                                                ("porous-media-1d", "r", "1.5"),
                                                ("plaplace-1d", "p", "1"),
                                                ("plaplace-1d", "n_interior", "0"),
                                                ("porous-media-1d", "n_slow_modes", "0"),
                                                ("porous-media-1d", "n_fast_modes", "100"),
                                                ("plaplace-1d", "n_slow_modes", "64"),
                                                ("plaplace-1d", "n_fast_modes", "-2"),
                                                ("linear-benchmark", "n_fast_modes", "100"),
                                                ("porous-media-1d", "c_g", "20"),
                                                ("plaplace-1d", "c_g", "20"),
                                                ("porous-media-1d", "c_g", "-20"),
                                                ("plaplace-1d", "c_g", "-20"),
                                                ("mvsde-cubic", "kappa", "0.01"),
                                                ("mvsde-cubic", "sigma_c", "0.05")])
def test_model_params_checked_and_key_named(tmp_path, capsys, model, key, value):
    # a non-finite value, one that overflows the model's constants, a
    # fractional node count, and values outside a builder's range (a field
    # model carries 1..n_interior sine modes per noise, n_interior = 63 by
    # default), a key the builder does not take, and the conditions that tie
    # two keys (c_g within +-lambda1 of the n_interior grid; cubic kappa above
    # 2 l_sigma2^2 and sigma_c above |l_sigma2|): each exits 2 naming
    # model_params.<key>
    argv = ["rate-study", "--model", model, "--param", f"{key}={value}", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert f"model_params.{key}" in capsys.readouterr().err


def test_model_param_errors_name_the_other_keys(tmp_path, capsys):
    out = ["--out", str(tmp_path)]
    for argv, words in (
            (["simulate", "--model", "linear-benchmark", "--param", "n_fast_modes=100"],
             ["model_params.n_fast_modes:", "known: a11, a12, f0, sigma1, gamma, k1, k2, sigma2"]),
            (["average", "--model", "porous-media-1d", "--param", "c_g=20"],
             ["model_params.c_g:", "n_interior = 63"]),
            (["aux", "--model", "mvsde-cubic", "--param", "kappa=0.01"],
             ["model_params.kappa:", "l_sigma2 = 0.1"])):
        assert main(argv + out) == 2
        err = capsys.readouterr().err
        assert all(w in err for w in words), err


def test_frozen_runs_past_the_counter_are_refused(tmp_path, capsys):
    # burn-in 8 / gamma = 8e300 (the default), or a step of 1e-320: refused
    # before any step, naming the flags that set the step count
    model = ["--model", "linear-benchmark", "--x", "1", "--out", str(tmp_path)]
    for argv in (["--param", "gamma=1e-300"], ["--h", "1e-320"], ["--burn-in", "3e12"]):
        assert main(["freeze"] + argv + model) == 2
        assert "config error: --burn-in/--horizon/--h: n_steps=" in capsys.readouterr().err
    # one frozen path per replica, each on its own stream particle
    assert main(["freeze", "--replicas", str(2 ** 32 + 1)] + model) == 2
    assert "config error: --replicas: replicas must lie in [1, 2^32]" in capsys.readouterr().err
    # an HMM study's frozen steps per grid point: the initial burn-in, then
    # each refresh's burn-in and horizon, over h_frozen
    for hmm, key in (({"burn_in_initial": 3e12, "h_frozen": 0.01}, "burn_in_initial"),
                     ({"burn_in": 1e12, "h_frozen": 0.01}, "burn_in"),
                     ({"horizon": 1e12}, "horizon"),
                     ({"h_frozen": 1e-300}, "horizon")):
        path = write_cfg(tmp_path, model="mvsde-cubic", averaged_mode="hmm", hmm=hmm)
        with pytest.raises(ConfigError, match=f"hmm.{key}: the frozen runs at eps=0.1"):
            load_config(path)
        assert main(["average", "--config", path]) == 2
        assert f"config error: hmm.{key}:" in capsys.readouterr().err
    # so do the defaults: a tiny declared rate lam makes the horizon 12 / lam infinite
    path = write_cfg(tmp_path, model="linear-benchmark", model_params={"gamma": 1e-320},
                     averaged_mode="hmm")
    assert main(["average", "--config", path]) == 2
    assert "config error: hmm.horizon: the frozen runs at eps=0.1" in capsys.readouterr().err
    # fits at the grid, but not at the --epsilon of an average run (a law that
    # reads mu: its frozen run marches every refresh)
    path = write_cfg(tmp_path, model="linear-benchmark", averaged_mode="hmm",
                     hmm={"burn_in": 1e8, "h_frozen": 0.01, "refresh_stride_steps": 1})
    assert main(["average", "--config", path, "--epsilon", "1e-3"]) == 2
    assert "config error: hmm.burn_in: the frozen runs at eps=0.001" in capsys.readouterr().err


def test_node_table_counter_check_counts_the_group_rounded_refreshes(tmp_path, capsys):
    # a node-table frozen run (a scalar law that reads mu) advances its
    # counter by whole groups of 4 steps at each refresh but the last: 500
    # refreshes of 562949953421 = 1 (mod 4) sample steps draw 500 * samp
    # + 1497 steps, past 2^48 though 500 * samp is not; checked without a run
    h = 2.0 ** -10
    base = dict(model="linear-benchmark", epsilon_grid=[0.1], averaged_mode="hmm")

    def hmm(samp):
        return {"refresh_stride_steps": 1, "burn_in_initial": 0.0, "burn_in": 0.0,
                "horizon": samp * h, "h_frozen": h}

    assert 500 * 562949953421 <= 2 ** 48 < 500 * 562949953421 + 1497
    path = write_cfg(tmp_path, **base, hmm=hmm(562949953421))
    with pytest.raises(ConfigError, match="^hmm.horizon: the frozen runs at eps=0.1"):
        load_config(path)
    assert main(["average", "--config", path]) == 2
    assert "config error: hmm.horizon:" in capsys.readouterr().err
    # a multiple of 4 takes no rounding, and one of 2 (mod 4) fits rounded
    for samp in (562949953420, 562949953418):
        StudyConfig(**base, hmm=hmm(samp))


def test_counter_fields_are_checked_at_load():
    # particle indices and replication derive tags fill 32-bit counter fields,
    # and so do the frozen paths of an HMM refresh (hmm.replicas per table
    # node of a scalar model, per particle of a field model); checked without
    # allocating any state
    StudyConfig(n_particles=2 ** 32, replications=2 ** 32)      # indices up to 2^32 - 1
    for kw, key in ((dict(n_particles=2 ** 32 + 1), "n_particles"),
                    (dict(replications=2 ** 32 + 1), "replications"),
                    (dict(model="mvsde-cubic", averaged_mode="hmm",
                          hmm={"replicas": 2 ** 28 + 1}), "hmm.replicas"),
                    (dict(model="porous-media-1d", averaged_mode="hmm", n_particles=2 ** 20,
                          hmm={"replicas": 2 ** 12 + 1}), "hmm.replicas")):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            StudyConfig(**kw)
    StudyConfig(model="porous-media-1d", averaged_mode="hmm", n_particles=2 ** 20,
                hmm={"replicas": 2 ** 12})


def test_lattice_counter_fields_are_checked_at_load(tmp_path, capsys):
    # on the fbar lattice a frozen replica fills the 16-bit extra field, a
    # chain of 25 refreshes the 16-bit mode field, and x0 lies within the
    # lattice's reach; checked without allocating any state.  At eps = 0.005
    # and refresh_stride_steps 1, t_end 163.84 takes 1,638,400 refreshes:
    # 2^16 chains
    base = dict(model="mvsde-cubic", averaged_mode="hmm")
    StudyConfig(**base, hmm={"replicas": 2 ** 16})
    StudyConfig(**base, t_end=163.84, hmm={"refresh_stride_steps": 1})
    for kw, key in ((dict(hmm={"replicas": 2 ** 16 + 1}), "hmm.replicas"),
                    (dict(t_end=163.8401, hmm={"refresh_stride_steps": 1}),
                     "hmm.refresh_stride_steps"),
                    (dict(x0=[3e8]), "x0")):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            StudyConfig(**base, **kw)
    # fits at the grid, but not at the --epsilon of an average run
    path = write_cfg(tmp_path, **base, t_end=100.0, hmm={"refresh_stride_steps": 1})
    assert main(["average", "--config", path, "--epsilon", "1e-3"]) == 2
    assert ("config error: hmm.refresh_stride_steps: the 5000000 refreshes at eps=0.001 take "
            "200000 frozen chains") in capsys.readouterr().err


@pytest.mark.parametrize("t_end", [1e12, 1e306])
def test_runs_past_the_step_counter_are_refused(tmp_path, capsys, t_end):
    # 5e14 steps at eps = 0.1 (and an infinite t_end / h at 1e306) would
    # pass the noise counter's 2^48 steps: refused at load, before any step
    assert main(["rate-study", "--config", write_cfg(tmp_path, t_end=t_end),
                 "--out", str(tmp_path)]) == 2
    assert "config error: t_end:" in capsys.readouterr().err
    # the grid fits the counter, but --epsilon 1e-4 takes 5e14 steps
    fits = write_cfg(tmp_path, t_end=1e9)
    for command in ("simulate", "average", "aux"):
        assert main([command, "--config", fits, "--epsilon", "1e-4", "--out", str(tmp_path)]) == 2
        assert "config error: t_end: 1e+09 takes 5e+14 steps at eps=0.0001" in \
            capsys.readouterr().err


def test_cli_empty_epsilon_grid_without_epsilon_is_a_config_error(tmp_path, capsys):
    path = write_cfg(tmp_path, epsilon_grid=[], n_particles=4, t_end=0.01)
    for command in ("simulate", "average", "aux"):
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        assert "config error: epsilon_grid:" in capsys.readouterr().err
    assert main(["simulate", "--config", path, "--epsilon", "0.1", "--out", str(tmp_path)]) == 0


def test_cli_probe_exit_code_follows_the_properties(tmp_path, capsys):
    out = ["--samples", "300", "--out", str(tmp_path)]
    assert main(["probe", "--model", "linear-benchmark"] + out) == 0
    assert all(line.startswith("PASS ") for line in capsys.readouterr().out.splitlines())
    assert main(["probe", "--model", "broken-antidissipative"] + out) == 4
    assert "FAIL broken-antidissipative" in capsys.readouterr().out


def test_cli_probe_fails_on_no_samples(tmp_path, capsys):
    model = ["--model", "linear-benchmark", "--out", str(tmp_path)]
    assert main(["probe", "--samples", "0"] + model) == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("FAIL ") and "over 0 samples" in line for line in lines)
    assert main(["probe", "--samples", "-5"] + model) == 2
    assert "config error: --samples:" in capsys.readouterr().err


def test_cli_simulate_warns_when_the_fast_moment_leaves_its_bound(tmp_path, capsys):
    # the recorder's rows of the expanding model pass the fast second-moment
    # bound, those of the linear benchmark do not; neither is a failure
    warning = "WARNING: fast second-moment diagnostic exceeded its bound"
    cfg = write_cfg(tmp_path, n_particles=32, out_dir=str(tmp_path))
    for model, epsilon, warns in (("broken-antidissipative", "0.1", True),
                                  ("linear-benchmark", "0.05", False)):
        assert main(["simulate", "--config", cfg, "--model", model, "--epsilon", epsilon]) == 0
        assert (warning in capsys.readouterr().out) is warns


@pytest.mark.parametrize("workers, start", [(1, None), (2, None), (2, "spawn")],
                         ids=["1", "2", "2-spawn"])
def test_cli_prints_the_noisy_fbar_warning_as_one_line(tmp_path, capfd, monkeypatch,
                                                       workers, start):
    # the noisy-fbar warning reads as one WARNING line per grid point on
    # stderr, from the pool workers too, and names no source file; spawned
    # workers inherit no warning display, so they must hand theirs back
    if start:
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
            concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context(start)))
    cfg = write_cfg(tmp_path, model="mvsde-cubic", n_particles=16, averaged_mode="hmm",
                    hmm={"replicas": 1, "horizon": 0.4, "burn_in": 0.1, "h_frozen": 0.02,
                         "warn_fraction": 0.001},
                    epsilon_grid=[0.1, 0.05, 0.02], replications=1, t_end=0.2, seed=5,
                    workers=workers, out_dir=str(tmp_path / "out"))
    assert main(["rate-study", "--config", cfg]) in (0, 4)
    err = capfd.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("WARNING: fbar standard error ") for line in lines)
    assert sorted(line.split(" at eps=")[1].split(";")[0] for line in lines) == [
        "0.02", "0.05", "0.1"]
    assert "averaging.py" not in err and "warnings.warn" not in err


def test_cli_hands_other_warnings_on(monkeypatch, capfd):
    # only the package's own warnings take the one-line format; a warning
    # from elsewhere reaches the display the CLI found, category and all
    def cmd(args):
        warnings.warn("from elsewhere", UserWarning)
        return 0
    monkeypatch.setattr("mvavg.cli._cmd_probe", cmd)
    with pytest.warns(UserWarning, match="from elsewhere"):
        assert main(["probe", "--model", "linear-benchmark"]) == 0
    assert "WARNING" not in capfd.readouterr().err


def test_cli_blowup_is_exit_3(tmp_path):
    for argv in (["simulate", "--epsilon", "0.01", "--seed", "1"],
                 ["freeze", "--x", "0", "--horizon", "50"]):
        assert main(argv + ["--model", "broken-antidissipative", "--out", str(tmp_path)]) == 3


def test_cli_rate_study_pass_and_fail(tmp_path, capsys):
    ok = write_cfg(tmp_path, model="linear-benchmark", n_particles=64,
                   epsilon_grid=[0.1, 0.05, 0.02], replications=2, t_end=0.25,
                   seed=17, out_dir=str(tmp_path / "ok"))
    assert main(["rate-study", "--config", ok]) == 0
    assert (tmp_path / "ok" / "rate_report.csv").exists()
    # decoupled system: error is identically zero, no slope exists -> fail
    bad = write_cfg(tmp_path, model="linear-benchmark",
                    model_params={"f0": 0.0}, n_particles=16,
                    epsilon_grid=[0.1, 0.05, 0.02], replications=1, t_end=0.1,
                    seed=17, out_dir=str(tmp_path / "bad"))
    assert main(["rate-study", "--config", bad]) == 4
    capsys.readouterr()


def test_cli_param_overrides_and_freeze(tmp_path, capsys):
    rc = main(["freeze", "--model", "linear-benchmark",
               "--param", "gamma=1.0", "--param", "k1=1.0",
               "--param", "k2=0.0", "--param", "sigma2=0.5",
               "--x", "2.0", "--horizon", "50", "--seed", "123",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fbar[0] = " in out
    cache = (tmp_path / "fbar_cache.csv").read_text().splitlines()
    assert cache[0] == "x,mu_mean,mu_m2,fbar,std_error"
    x, mu_mean, mu_m2, fbar, se = map(float, cache[1].split(","))
    assert abs(fbar - 2.0) < 0.2


def test_cli_aux_writes_table(tmp_path, capsys):
    cfg = write_cfg(tmp_path, model="linear-benchmark", n_particles=64,
                    replications=1, t_end=0.25, seed=19,
                    out_dir=str(tmp_path / "aux"))
    assert main(["aux", "--config", cfg, "--epsilon", "0.05"]) == 0
    lines = (tmp_path / "aux" / "aux_report.csv").read_text().splitlines()
    assert lines[0] == "delta,gap,gap_over_delta"
    assert len(lines) == 4
    capsys.readouterr()


def test_aux_diagnostic_gaps_unchanged_by_batching():
    # gaps recorded when every derive(777, rep) replication ran on its own runner,
    # re-recorded with noise stream versions 2 and 3, and re-recorded with noise
    # stream version 4
    cfg = StudyConfig(model="linear-benchmark", n_particles=16, replications=3, t_end=0.2,
                      seed=21)
    gaps = [row["gap"] for row in run_aux_diagnostic(cfg, 0.05)]
    assert gaps == [float.fromhex(h) for h in ("0x1.9c12bafbc16d4p-13",
                                               "0x1.632ab37dd4815p-11",
                                               "0x1.3fa25cd9e1859p-10")]
    # the porous gap re-recorded with the stabilised semi-implicit slow step
    # and with noise stream version 3, and re-recorded with noise stream version 4
    cfg = StudyConfig(model="porous-media-1d", model_params={"n_interior": 7}, n_particles=8,
                      replications=2, t_end=0.05, seed=22)
    gaps = [row["gap"] for row in run_aux_diagnostic(cfg, 0.1)]
    assert gaps == [float.fromhex("0x1.516c85dc81514p-23")] * 3


def test_aux_ladder_is_bitwise_single_delta_runners():
    # one runner with two aux processes gives, per delta, the gap of a
    # runner that carries that delta alone
    m = build_model("linear-benchmark")
    params = resolve_params(0.05, 0.2)
    plans = [NoisePlan(21).derive(777, rep) for rep in range(2)]
    deltas = (params.h_micro * 4, params.delta_block)
    both = FullRunner(m, [1.0], [1.0], 16, params, plans, aux_deltas=deltas).run()
    for i, d in enumerate(deltas):
        alone = FullRunner(m, [1.0], [1.0], 16, params, plans, aux_deltas=(d,)).run()
        assert np.array_equal(both.aux_gap[i], alone.aux_gap[0])
        assert np.array_equal(both.Y_aux[i], alone.Y_aux[0])
    assert both.aux_gap.shape == (2, 1, 2) and both.aux_gap[0, 0, 0] < both.aux_gap[1, 0, 0]


def test_aux_diagnostic_steps_the_true_path_once(monkeypatch):
    # three deltas, one true path: n_steps micro steps in all, not 3 x n_steps
    cfg = StudyConfig(model="linear-benchmark", n_particles=16, replications=2, t_end=0.2,
                      seed=21)
    steps = []
    advance = FullRunner.advance

    def spy(runner, n_sub, *draws):
        steps.append(n_sub)
        return advance(runner, n_sub, *draws)

    monkeypatch.setattr(FullRunner, "advance", spy)
    assert len(run_aux_diagnostic(cfg, 0.05)) == 3
    assert sum(steps) == cfg.params_for(0.05).n_steps


def test_cli_average_dumps_cache(tmp_path, capsys):
    cfg = write_cfg(tmp_path, model="linear-benchmark", n_particles=8,
                    replications=1, t_end=0.1, seed=21,
                    out_dir=str(tmp_path / "avg"))
    assert main(["average", "--config", cfg, "--epsilon", "0.1"]) == 0
    assert (tmp_path / "avg" / "averaged_trajectories.csv").exists()
    assert (tmp_path / "avg" / "fbar_cache.csv").exists()
    capsys.readouterr()


# SHA-256 of single-run outputs, recorded when single runs still held (N, d)
# states; they must not move now that a single run is a batch of one.  The
# porous simulate digest was re-recorded with the stabilised slow step, all
# of them with noise stream versions 2 and 3, the cubic HMM ones with the fbar
# lattice (one cache row per lattice node read), the exact-mode cache
# with its HMM_NODES rows per cache step, and the cubic HMM cache with the
# cubic fast drift computed as a product.  All of them re-recorded with noise
# stream version 4.
SINGLE_RUN_DIGESTS = {
    "simulate-linear/trajectories.csv":
        "f2dd6986cf89cdb31b3568b7d2c33d9d92fa365b42b221eaf30c7581639c350d",
    "simulate-porous/trajectories.csv":
        "98155877fb86ff4b0d8621f49caebe0d44b000f5fb83fc62b6ca53ad30951fcf",
    "average-linear-exact/averaged_trajectories.csv":
        "92808eab9fa39f552fa7f39e3eb5d9bb0d5feca987528b4b3e2c3c46f3423f3b",
    "average-linear-exact/fbar_cache.csv":
        "062f4223aa9eaaa7563ea7d2e3cf87bec34dc3e9ea991ff7287fa7f8996b94b4",
    "average-cubic-hmm/averaged_trajectories.csv":
        "86d6be27a2de21ca69b1fef519f5ee262aeb7c57c296c4dd6e7985c3f1d93fa0",
    "average-cubic-hmm/fbar_cache.csv":
        "e0accebd4817503ee238891545cfab3ffa15825f48478ecd6b8a0569087c56da",
    "freeze-porous": "0886dd76fee85e2ab122fd09ec1c71f6419166166ae1195fd897d3e0357bb5ec",
    "frozen-simulate-cubic": "0db4855517a3d7271b2e2ca648926cbe39b1a4433f600d417c1a3dd8bc890fa9",
}


def test_single_run_outputs_unchanged(tmp_path, capsys):
    got = {}
    runs = {
        "simulate-linear": ("simulate", dict(model="linear-benchmark", t_end=0.1, seed=3),
                            ["trajectories.csv"]),
        "simulate-porous": ("simulate", dict(model="porous-media-1d", t_end=0.02, seed=3,
                                             model_params={"n_interior": 7}),
                            ["trajectories.csv"]),
        "average-linear-exact": ("average", dict(model="linear-benchmark", t_end=0.1, seed=5),
                                 ["averaged_trajectories.csv", "fbar_cache.csv"]),
        "average-cubic-hmm": ("average", dict(model="mvsde-cubic", t_end=0.05, seed=5,
                                              averaged_mode="hmm",
                                              hmm={"replicas": 2, "horizon": 0.5,
                                                   "burn_in": 0.2, "h_frozen": 0.02}),
                              ["averaged_trajectories.csv", "fbar_cache.csv"]),
    }
    for name, (command, cfg, files) in runs.items():
        out = tmp_path / name
        out.mkdir()
        path = write_cfg(out, **cfg, n_particles=4, record_points=10, out_dir=str(out))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # the 2-replica HMM warns of a noisy fbar
            assert main([command, "--config", path, "--epsilon", "0.05"]) == 0
        for f in files:
            got[f"{name}/{f}"] = hashlib.sha256((out / f).read_bytes()).hexdigest()
    capsys.readouterr()
    porous = build_model("porous-media-1d", {"n_interior": 5})
    mu = MeasureMoments(mean=np.zeros(5), second_moment=0.5)
    fp = default_frozen_params(porous, np.full(5, 0.1), mu, sample_horizon=2.0, replicas=2)
    est = estimate_fbar(porous, fp, NoisePlan(8))
    got["freeze-porous"] = hashlib.sha256(est.fbar.tobytes() + est.std_error.tobytes()).hexdigest()
    cubic = build_model("mvsde-cubic")
    mu = MeasureMoments(mean=np.array([0.0]), second_moment=0.0)
    fp = default_frozen_params(cubic, [1.0], mu, sample_horizon=3.0, replicas=3)
    _, paths = frozen_simulate(cubic, fp, NoisePlan(9), record_stride=7)
    got["frozen-simulate-cubic"] = hashlib.sha256(paths.tobytes()).hexdigest()
    assert got == SINGLE_RUN_DIGESTS
    # re-recorded with noise stream version 4
    fp = dataclasses.replace(fp, replicas=4)
    assert estimate_mixing_rate(cubic, fp, [-1.0], NoisePlan(10)) == 2.902523445896668


# SHA-256 of a porous HMM `average` run, recorded when every scalar and field
# model estimated fbar per particle: field models still do, bit for bit.
# Re-recorded with noise stream versions 2 and 3; under 3 also with each
# refresh's frozen draw starting on a counter group.  Re-recorded with noise
# stream version 4.
POROUS_HMM_DIGESTS = {
    "averaged_trajectories.csv":
        "e47a4e2bde07d5af37618d6a05b95da33c927ac022c742431a4597ded5b42f03",
    "fbar_cache.csv": "92261c3dcceee75cded15ef4a423b8523c82b7fbd18191f9b1ffa36f2275d294",
}


def test_field_model_hmm_outputs_unchanged(tmp_path, capsys):
    path = write_cfg(tmp_path, model="porous-media-1d", model_params={"n_interior": 5},
                     t_end=0.02, seed=5, averaged_mode="hmm",
                     hmm={"replicas": 2, "horizon": 0.5, "burn_in": 0.2, "h_frozen": 0.02},
                     n_particles=4, record_points=10, out_dir=str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the 2-replica HMM warns of a noisy fbar
        assert main(["average", "--config", path, "--epsilon", "0.05"]) == 0
    capsys.readouterr()
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in POROUS_HMM_DIGESTS}
    assert got == POROUS_HMM_DIGESTS


def test_porous_stab_follows_config_x0():
    # a config x0 of amplitude 3 is far past the default x0_amplitude 0.4;
    # with K sized on x0_amplitude alone every grid point blew up
    nodes = np.arange(1, 16) / 16
    cfg = StudyConfig(model="porous-media-1d", model_params={"n_interior": 15},
                      n_particles=8, epsilon_grid=[0.1, 0.05, 0.02], replications=1,
                      t_end=0.1, seed=5, x0=list(3.0 * np.sin(np.pi * nodes)))
    report = run_rate_study(cfg)
    assert not report.incomplete, report.failures
    assert len(report.rows) == 3
    for row in report.rows:
        assert all(map(math.isfinite, dataclasses.astuple(row))), row
    model = cfg.build_model()
    runner = FullRunner(model, cfg.x0, model.default_y0, 2, cfg.params_for(0.1),
                        [NoisePlan(1)])
    assert runner.slow_stab == model.slow_stab(3.0) > model.slow_stab(0.0)
    default = FullRunner(model, model.default_x0, model.default_y0, 2, cfg.params_for(0.1),
                         [NoisePlan(1)])
    assert default.slow_stab == model.slow_stab(0.0)


def test_plaplace_reduced_rate_study_decreases():
    # desk-scale check of the fourth registered model's error ordering
    cfg = StudyConfig(model="plaplace-1d",
                      model_params={"p": 4.0, "n_interior": 15},
                      n_particles=64, epsilon_grid=[0.1, 0.05, 0.02],
                      replications=2, t_end=0.5, seed=23)
    report = run_rate_study(cfg)
    assert not report.incomplete
    errs = [r.error_sq for r in report.rows]
    assert all(a > b for a, b in zip(errs, errs[1:])), errs
