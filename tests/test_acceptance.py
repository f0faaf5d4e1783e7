"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The heavy sweeps (5, 6, 7, 10) share module-scoped fixtures.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from mvavg.averaging import (AveragedRunner, FrozenParams, estimate_fbar, estimate_mixing_rate,
                             frozen_simulate)
from mvavg.integrate import TrajectoryRecorder, resolve_params
from mvavg.measure import MeasureMoments, SampleSet, w2_1d, w2_bruteforce
from mvavg.models import build_model, probe_hypothesis, run_probe_suite
from mvavg.noise import NoisePlan
from mvavg.study import (StudyConfig, run_aux_diagnostic, run_rate_study,
                         write_report)

DELTA0 = MeasureMoments(mean=np.array([0.0]), second_moment=0.0)


def report_line(k, elapsed, detail):
    print(f"\nACCEPTANCE {k}: PASS ({elapsed:.1f}s) {detail}")


@pytest.fixture(scope="module")
def linear_rate_cfg(tmp_path_factory):
    out = tmp_path_factory.mktemp("rate_linear")
    return StudyConfig(model="linear-benchmark", n_particles=1000,
                       epsilon_grid=(0.1, 0.05, 0.02, 0.01, 0.005),
                       replications=8, t_end=1.0, seed=90125,
                       averaged_mode="exact", crn=True, workers=1,
                       out_dir=str(out))


@pytest.fixture(scope="module")
def linear_rate_report(linear_rate_cfg):
    t0 = time.monotonic()
    report = run_rate_study(linear_rate_cfg)
    paths = write_report(report, linear_rate_cfg.out_dir)
    return report, paths, time.monotonic() - t0


def test_criterion_01_wasserstein_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = SampleSet(rng.uniform(-5, 5, size=(n, 1)))
        b = SampleSet(rng.uniform(-5, 5, size=(n, 1)))
        worst = max(worst, abs(w2_1d(a, b) - w2_bruteforce(a, b)))
    assert worst < 1e-12
    for _ in range(500):
        n = int(rng.integers(1, 7))
        a, b, c = (SampleSet(rng.uniform(-5, 5, size=(n, 1))) for _ in range(3))
        assert w2_1d(a, c) <= w2_1d(a, b) + w2_1d(b, c) + 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report_line(1, elapsed, f"oracle gap {worst:.2e}, triangle holds on 500 triples")


def test_criterion_02_frozen_equation_oracle():
    t0 = time.monotonic()
    m = build_model("linear-benchmark",
                    {"gamma": 1.0, "k1": 1.0, "k2": 0.0, "sigma2": 0.5})
    fp = FrozenParams(x_frozen=[2.0], mu_frozen=DELTA0, y_init=[0.0],
                      burn_in=8.0, sample_horizon=200.0, h_micro=0.01,
                      replicas=4)
    est = estimate_fbar(m, fp, NoisePlan(123))
    err = abs(est.fbar[0] - 2.0)
    assert err <= 3.0 * est.std_error[0]
    assert est.std_error[0] <= 0.02
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report_line(2, elapsed,
                f"fbar={est.fbar[0]:.4f} (target 2.0), se={est.std_error[0]:.4f} <= 0.02")


def test_criterion_03_exponential_contraction():
    t0 = time.monotonic()
    m = build_model("linear-benchmark",
                    {"gamma": 1.0, "k1": 1.0, "k2": 0.0, "sigma2": 0.5})
    kw = dict(burn_in=0.0, sample_horizon=10.0, h_micro=0.01, replicas=1)
    tgrid, p1 = frozen_simulate(m, FrozenParams([2.0], DELTA0, [1.0], **kw), NoisePlan(55))
    _, p2 = frozen_simulate(m, FrozenParams([2.0], DELTA0, [-1.0], **kw), NoisePlan(55))
    gap = np.abs(p1[:, 0, 0] - p2[:, 0, 0])
    dev = float(np.max(np.abs(gap - 2.0 * np.exp(-tgrid))))
    assert dev <= 1e-8
    fp = FrozenParams([2.0], DELTA0, [1.0], burn_in=0.0, sample_horizon=5.0,
                      h_micro=0.01, replicas=1)
    rho = estimate_mixing_rate(m, fp, [-1.0], NoisePlan(55))
    assert abs(rho - 2.0) <= 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report_line(3, elapsed, f"max |gap - 2e^-t| = {dev:.2e}, rho_hat = {rho:.9f}")


def test_criterion_04_averaged_equation_oracle():
    t0 = time.monotonic()
    m = build_model("linear-benchmark", {"sigma1": 0.0})
    c = m.constants
    params = resolve_params(0.05, 1.0)
    rec = TrajectoryRecorder(stride_steps=max(1, params.n_steps // 200))
    AveragedRunner(m, [1.0], 2, params, [NoisePlan(5)]).run(rec)
    xT = rec.slow[-1][0, 0]
    rate = c["a11"] + c["a12"] + c["f0"] * (c["k1"] + c["k2"]) / c["gamma"]
    err = abs(xT - math.exp(rate))
    h_macro = 1.0 / 200
    assert err <= 5.0 * h_macro
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report_line(4, elapsed, f"terminal ODE error {err:.2e} <= {5 * h_macro:.2e}")


def test_criterion_05_rate_study_linear(linear_rate_report):
    report, paths, elapsed = linear_rate_report
    errs = [r.error_sq for r in report.rows]
    assert len(errs) == 5
    assert all(a > b for a, b in zip(errs, errs[1:])), errs
    assert report.slope >= 0.6
    assert report.verdict == "pass"
    assert elapsed < 600.0
    report_line(5, elapsed,
                f"error_sq strictly decreasing {['%.3g' % e for e in errs]}, "
                f"slope {report.slope:.3f} >= 0.6")


def test_criterion_06_rate_study_cubic_hmm():
    t0 = time.monotonic()
    cfg = StudyConfig(model="mvsde-cubic", n_particles=256,
                      epsilon_grid=(0.1, 0.05, 0.02, 0.01),
                      replications=4, t_end=1.0, seed=61803,
                      averaged_mode="hmm",
                      hmm={"replicas": 1, "horizon": 12.0, "burn_in": 1.0,
                           "h_frozen": 0.02})
    report = run_rate_study(cfg)
    assert not report.incomplete, report.failures
    errs = [r.error_sq for r in report.rows]
    assert all(a > b for a, b in zip(errs, errs[1:])), errs
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    report_line(6, elapsed,
                f"error_sq strictly decreasing {['%.3g' % e for e in errs]}, "
                f"slope reported: {report.slope:.3f}")


def test_criterion_07_porous_media_rate_study():
    t0 = time.monotonic()
    cfg = StudyConfig(model="porous-media-1d",
                      model_params={"r": 4.0, "n_interior": 63,
                                    "n_slow_modes": 4, "n_fast_modes": 4},
                      n_particles=200, epsilon_grid=(0.1, 0.05, 0.02),
                      replications=2, t_end=1.0, seed=16180,
                      averaged_mode="exact")
    report = run_rate_study(cfg)
    assert not report.incomplete, report.failures  # no blow-up on any grid point
    errs = [r.error_sq for r in report.rows]
    assert all(a > b for a, b in zip(errs, errs[1:])), errs
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    report_line(7, elapsed,
                f"no blow-up; H^-1 error_sq strictly decreasing {['%.3g' % e for e in errs]}")


def test_criterion_08_block_frozen_gap_diagnostic():
    t0 = time.monotonic()
    cfg = StudyConfig(model="linear-benchmark", n_particles=1000,
                      replications=2, t_end=1.0, seed=27182)
    table = run_aux_diagnostic(cfg, 0.05)
    gaps = [row["gap"] for row in table]
    ratios = [row["gap_over_delta"] for row in table]
    assert gaps[0] < gaps[1] < gaps[2]
    spread = max(ratios) / min(ratios)
    assert spread < 3.0
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report_line(8, elapsed,
                f"gap monotone in delta, gap/delta spread factor {spread:.2f} < 3")


def test_criterion_09_hypothesis_probes():
    t0 = time.monotonic()
    models = [("linear-benchmark", {}), ("mvsde-cubic", {}),
              ("porous-media-1d", {"n_interior": 63}),
              ("plaplace-1d", {"n_interior": 63})]
    worst_overall = np.inf
    for mid, params in models:
        m = build_model(mid, params)
        for rep in run_probe_suite(m, n_samples=10_000, seed=42):
            assert rep.worst_margin >= -1e-10, (mid, rep.property, rep.worst_margin)
            worst_overall = min(worst_overall, rep.worst_margin)
    broken = probe_hypothesis(build_model("broken-antidissipative"),
                              "strict_monotonicity_fast", n_samples=10_000, seed=42)
    assert not broken.passed
    assert broken.violating_witness is not None
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report_line(9, elapsed,
                f"4 models pass (worst margin {worst_overall:.2e}); "
                f"anti-dissipative model rejected with witness")


def test_criterion_10_worker_determinism(linear_rate_cfg, linear_rate_report,
                                         tmp_path):
    _, paths, base_elapsed = linear_rate_report
    t0 = time.monotonic()
    cfg8 = dataclasses.replace(linear_rate_cfg, workers=8, out_dir=str(tmp_path))
    report8 = run_rate_study(cfg8)
    paths8 = write_report(report8, cfg8.out_dir)
    bytes1 = open(paths["rate_report"], "rb").read()
    bytes8 = open(paths8["rate_report"], "rb").read()
    assert bytes1 == bytes8
    elapsed = time.monotonic() - t0
    report_line(10, elapsed + base_elapsed,
                f"rate_report.csv byte-identical at workers 1 and 8 "
                f"({len(bytes1)} bytes)")
