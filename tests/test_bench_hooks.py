"""The benchmark tracer (ratebench/spans.py) still finds every name it hooks.

The tracer patches program names from outside; a renamed or rebound name
would otherwise only show up when the benchmark runs.
"""
import os
import sys

from mvavg import study

RATEBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "ratebench")


def test_tracer_counts_one_span_per_job(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(RATEBENCH)
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    path = tmp_path / "cfg.json"
    path.write_text('{"model": "linear-benchmark", "n_particles": 8, "t_end": 0.1, '
                    '"epsilon_grid": [0.1, 0.05, 0.02], "replications": 2, "seed": 5}')
    tracer = spans.Tracer().install()
    try:
        cfg = study.load_config(str(path))
        with tracer.span("study"):
            report = study.run_rate_study(cfg)
            study.write_report(report, str(tmp_path))
    finally:
        tracer.uninstall()
    tracer.write(str(tmp_path / "spans.npz"))
    metrics = spans.layer_metrics(spans.load(str(tmp_path / "spans.npz")))
    # one job with one worker: every grid point, its replications as one batch
    assert metrics["study.jobs"] == 1
    assert metrics["study.failed_jobs"] == 0
    assert metrics["integrate.micro_steps"] > 0 and metrics["averaging.micro_steps"] > 0
    assert metrics["cli.config_s"] > 0 and metrics["study.report_write_s"] > 0
    assert metrics["models.empirical_view_s"] > 0
