"""The benchmark tracer (ratebench/spans.py) still finds every name it hooks.

The tracer patches program names from outside; a renamed or rebound name
would otherwise only show up when the benchmark runs.
"""
import os
import sys

import numpy as np

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


def test_tracer_finds_the_solves_of_a_field_model_inside_the_study(tmp_path, monkeypatch):
    # the field model's build solves nothing: every banded solve (each
    # cached inverse is one) lies inside the study span
    from mvavg import spatial

    monkeypatch.syspath_prepend(RATEBENCH)
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    spatial.dirichlet_inverse.cache_clear()
    path = tmp_path / "cfg.json"
    path.write_text('{"model": "porous-media-1d", "model_params": {"n_interior": 7}, '
                    '"n_particles": 8, "t_end": 0.1, "epsilon_grid": [0.1, 0.05, 0.02], '
                    '"replications": 2, "seed": 5}')
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
    assert metrics["spatial.banded_solves"] > 0
    with np.load(tmp_path / "spans.npz") as z:
        names, name, parent = list(z["names"]), z["name"], z["parent"]
    study_id, solve_id = names.index("study"), names.index("spatial.banded_solve")
    for i in np.flatnonzero(name == solve_id):
        while parent[i] >= 0 and name[i] != study_id:
            i = parent[i]
        assert name[i] == study_id
