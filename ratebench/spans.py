"""Outside-in layer tracing for the traced benchmark run.

The program carries no instrumentation.  :class:`Tracer` wraps the public
entry points of each ``mvavg`` module from here, at the names the calling
modules use (``from x import y`` binds a second name that a patch of the
defining module would miss).  Every wrapped call records one span (name,
start, end, parent) in memory; counters record work at the same boundaries.
:meth:`Tracer.write` saves both when the traced process ends and
:func:`layer_metrics` turns a saved trace into the per-layer metrics.

A layer's self time is its spans' duration minus the part covered by child
spans, so the self times of all spans, the untraced remainder in
``mvavg.study`` included, add up to the traced study wall time.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
from array import array
from time import perf_counter

import numpy as np

FROZEN_KIND = 2     # mvavg.noise.FROZEN: frozen-equation noise stream

# Coefficient callables of a ModelSpec that the steppers call.
_COEFF_FIELDS = ("a1", "f", "a2_remainder", "b1_apply", "b2_apply")


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {"noise.normals": 0, "noise.normals.frozen": 0,
                       "averaging.frozen_particle_steps": 0,
                       "integrate.micro_steps": 0, "averaging.micro_steps": 0,
                       "study.failed_jobs": 0}
        self._patched = []

    # -- span recording ----------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """Return ``fn`` recording one span per call under ``name``."""
        nid, open_, close = self._id(name), self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (used around the whole study)."""
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, new):
        if not hasattr(owner, attr):
            raise AttributeError(f"trace target {owner.__name__}.{attr} not found")
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the mvavg entry points on the rate-study path."""
        from mvavg import averaging, integrate, noise, spatial, study

        counts = self.counts

        gaussians = self.wrap("noise.gaussians", noise.NoisePlan.gaussians)

        def counted_gaussians(plan, kind, *args, **kwargs):
            out = gaussians(plan, kind, *args, **kwargs)
            counts["noise.normals"] += out.size
            if kind == FROZEN_KIND:
                counts["noise.normals.frozen"] += out.size
                counts["averaging.frozen_particle_steps"] += out.size // max(out.shape[-1], 1)
            return out
        self._patch(noise.NoisePlan, "gaussians", counted_gaussians)

        for cls, layer in ((integrate.FullRunner, "integrate"),
                           (averaging.AveragedRunner, "averaging")):
            advance = self.wrap(f"{layer}.advance", cls.advance)
            key = f"{layer}.micro_steps"

            def counted_advance(runner, n_sub, *args, _advance=advance, _key=key, **kwargs):
                out = _advance(runner, n_sub, *args, **kwargs)
                counts[_key] += n_sub
                return out
            self._patch(cls, "advance", counted_advance)

        for mod in (integrate, averaging):
            self._patch(mod, "empirical_view",
                        self.wrap("models.empirical_view", mod.empirical_view))
        for mod in (integrate, spatial):
            self._patch(mod, "solve_banded", self.wrap("spatial.banded_solve", mod.solve_banded))

        job = self.wrap("study.job", study._coupled_error_once)

        def counted_job(*args, **kwargs):
            try:
                return job(*args, **kwargs)
            except Exception:
                counts["study.failed_jobs"] += 1
                raise
        self._patch(study, "_coupled_error_once", counted_job)

        build = study.build_model

        def traced_build_model(*args, **kwargs):
            return self.wrap_model(build(*args, **kwargs))
        self._patch(study, "build_model", traced_build_model)
        self._patch(study, "load_config", self.wrap("cli.config", study.load_config))
        self._patch(study, "write_report", self.wrap("study.report_write", study.write_report))
        return self

    def wrap_model(self, model):
        """Copy of a ModelSpec whose coefficient callables record spans."""
        changes = {f: self.wrap("models.coeff", getattr(model, f)) for f in _COEFF_FIELDS}
        if model.exact_fbar is not None:
            changes["exact_fbar"] = self.wrap("models.exact_fbar", model.exact_fbar)
        if model.a2_split is not None:
            v_coeff, forcing = model.a2_split
            changes["a2_split"] = (v_coeff, self.wrap("models.coeff", forcing))
        return dataclasses.replace(model, **changes)

    def uninstall(self):
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    # -- output ------------------------------------------------------------

    def write(self, path: str):
        """Save spans and counters (``numpy.savez``) when the run ends."""
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 start=np.frombuffer(self.start, np.float64),
                 end=np.frombuffer(self.end, np.float64),
                 count_keys=np.array(list(self.counts)),
                 count_values=np.array(list(self.counts.values()), np.int64))


def load(path: str) -> dict:
    """Per span name: calls, total and self seconds, durations; plus counters."""
    with np.load(path) as z:
        names = list(z["names"])
        name, parent = z["name"], z["parent"]
        dur = z["end"] - z["start"]
        counts = dict(zip(z["count_keys"].tolist(), z["count_values"].tolist()))
    if (dur < 0).any():
        raise ValueError("trace holds a span that ends before it starts")
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - covered
    per_name = {}
    for nid, n in enumerate(names):
        sel = name == nid
        per_name[n] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                       "self_s": float(self_s[sel].sum()), "durations": dur[sel]}
    return {"spans": per_name, "counts": counts, "n_spans": len(dur)}


# Layers whose self times add up to the traced study wall time.
ACCOUNTING = {
    "noise.self_s": ("noise.gaussians",),
    "integrate.self_s": ("integrate.advance",),
    "averaging.self_s": ("averaging.advance",),
    "spatial.banded_solve_s": ("spatial.banded_solve",),
    "models.empirical_view_s": ("models.empirical_view",),
    "models.exact_fbar_s": ("models.exact_fbar",),
    "models.coeff_s": ("models.coeff",),
    "study.report_write_s": ("study.report_write",),
    "study.self_s": ("study", "study.job"),
}


def layer_metrics(trace: dict) -> dict:
    """Per-layer metric values (without the units) from a loaded trace."""
    spans, counts = trace["spans"], trace["counts"]

    def get(name, key):
        s = spans.get(name)
        return s[key] if s is not None else 0

    out = {k: sum(get(n, "self_s") for n in names) for k, names in ACCOUNTING.items()}
    normals = counts["noise.normals"]
    jobs = spans.get("study.job", {"durations": np.zeros(0)})["durations"]
    out.update({
        "noise.normals": normals,
        "noise.normals.frozen": counts["noise.normals.frozen"],
        "noise.ns_per_normal": 1e9 * out["noise.self_s"] / normals if normals else 0.0,
        "integrate.micro_steps": counts["integrate.micro_steps"],
        "integrate.us_per_step": (1e6 * out["integrate.self_s"] / counts["integrate.micro_steps"]
                                  if counts["integrate.micro_steps"] else 0.0),
        "averaging.micro_steps": counts["averaging.micro_steps"],
        "averaging.frozen_particle_steps": counts["averaging.frozen_particle_steps"],
        "spatial.banded_solves": get("spatial.banded_solve", "calls"),
        "models.coeff_calls": get("models.coeff", "calls"),
        "study.jobs": len(jobs),
        "study.failed_jobs": counts["study.failed_jobs"],
        "study.job_s_p50": float(np.median(jobs)) if len(jobs) else 0.0,
        "study.job_s_max": float(jobs.max()) if len(jobs) else 0.0,
        "cli.config_s": get("cli.config", "total_s"),
        "trace.study_s": get("study", "total_s"),
    })
    return out


def count_signature(trace: dict) -> dict:
    """Everything in a trace that must repeat exactly between traced runs."""
    sig = {n: s["calls"] for n, s in trace["spans"].items()}
    sig.update(trace["counts"])
    return sig
