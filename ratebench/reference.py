"""Output check: a rate report against the reference recorded for its config.

A reference file (``reference/<name>.json``) holds, for one workload config,
the statistics of the report over several seeds, recorded with the program
at the commit that added the benchmark:

* for every epsilon, the mean and standard deviation over the seeds of
  ``log(error_sq)``;
* the verdict, which passed on every recorded seed;
* the exact ``rate_report.csv`` bytes at the default seed.

A report passes when it has one row per grid epsilon, its ``error_sq``
strictly decreases, its verdict is the reference verdict, and every
``error_sq`` lies within ``TOLERANCE_SD`` seed standard deviations of the
reference mean on the log scale.  The tolerance is statistical, so it holds
for any seed and for a program whose noise stream has changed.  Whether the
report is bitwise equal to the recorded one is reported as information only.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os

TOLERANCE_SD = 6.0
MIN_LOG_SD = 0.01   # floor for the seed spread of a row, in log units

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def load_reference(name: str) -> dict:
    with open(reference_path(name)) as fh:
        return json.load(fh)


def read_report(out_dir: str) -> dict:
    """Rows of rate_report.csv and the fit line of fit.csv, by column name."""
    with open(os.path.join(out_dir, "rate_report.csv"), "rb") as fh:
        raw = fh.read()
    rows = [{k: float(v) for k, v in r.items()}
            for r in csv.DictReader(io.StringIO(raw.decode()))]
    with open(os.path.join(out_dir, "fit.csv"), newline="") as fh:
        fit = next(csv.DictReader(fh))
    return {"rows": rows, "verdict": fit["verdict"], "slope": float(fit["slope"]), "raw": raw}


def check(report: dict, ref: dict, grid) -> tuple[list, list, list]:
    """Return (study-level problems, indices of grid rows out of tolerance,
    indices of grid rows missing from the report)."""
    problems = []
    rows = report["rows"]
    at = {}
    for r in rows:
        i = next((j for j, e in enumerate(grid) if math.isclose(r["epsilon"], e, rel_tol=1e-12)),
                 None)
        if i is None or i in at:
            problems.append(f"rows for epsilon {[r['epsilon'] for r in rows]}, "
                            f"expected {list(grid)}")
            return problems, [], []
        at[i] = r["error_sq"]
    missing = [i for i in range(len(grid)) if i not in at]
    errs = [at[i] for i in sorted(at)]
    if not all(b < a for a, b in zip(errs, errs[1:])):
        problems.append(f"error_sq not strictly decreasing: {errs}")
    # the program fails the verdict of an incomplete report, whatever its rows
    expected = ref["verdict"] if not missing else "fail"
    if report["verdict"] != expected:
        problems.append(f"verdict {report['verdict']!r}, expected {expected!r}")
    bad_rows = []
    for i, err in sorted(at.items()):
        stats = ref["rows"][i]
        sd = max(stats["log_sd"], MIN_LOG_SD)
        if not (err > 0 and abs(math.log(err) - stats["log_mean"]) <= TOLERANCE_SD * sd):
            bad_rows.append(i)
    return problems, bad_rows, missing


def summarize(reports: list, seeds: list, default_raw: bytes, commit: str) -> dict:
    """Reference statistics from reports of one config at several seeds."""
    n_rows = len(reports[0]["rows"])
    rows = []
    for i in range(n_rows):
        logs = [math.log(r["rows"][i]["error_sq"]) for r in reports]
        mean = sum(logs) / len(logs)
        sd = math.sqrt(sum((x - mean) ** 2 for x in logs) / (len(logs) - 1))
        rows.append({"epsilon": reports[0]["rows"][i]["epsilon"],
                     "log_mean": mean, "log_sd": sd})
    slopes = [r["slope"] for r in reports]
    verdicts = sorted({r["verdict"] for r in reports})
    return {
        "recorded_at_commit": commit,
        "seeds": seeds,
        "verdict": verdicts[0] if len(verdicts) == 1 else "mixed",
        "slope_min": min(slopes), "slope_max": max(slopes),
        "rows": rows,
        "default_seed_rate_report_csv": default_raw.decode(),
    }
