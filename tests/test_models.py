import hashlib
import math
import numpy as np
import pytest

from mvavg.measure import MeasureMoments
from mvavg.models import (REGISTRY, ProbeSampler, build_model, empirical_view,
                          fast_inner, fast_norm_sq, probe_hypothesis, run_probe_suite,
                          slow_inner, slow_norm_sq)
from mvavg.spatial import Grid1D, laplacian_apply


def view(mean, m2=0.0):
    return MeasureMoments(mean=np.atleast_1d(np.asarray(mean, dtype=float)),
                          second_moment=float(m2))


def test_registry_ids():
    assert set(REGISTRY) == {"linear-benchmark", "mvsde-cubic", "porous-media-1d",
                             "plaplace-1d", "broken-antidissipative"}
    with pytest.raises(KeyError):
        build_model("no-such-model")


def test_builders_reject_bad_structure():
    with pytest.raises(ValueError):
        build_model("linear-benchmark", {"gamma": 0.0})
    with pytest.raises(ValueError):
        build_model("porous-media-1d", {"r": 1.5})
    with pytest.raises(ValueError):
        build_model("plaplace-1d", {"p": 1.0})
    with pytest.raises(ValueError):
        build_model("mvsde-cubic", {"kappa": -1.0})


def test_linear_closed_form_fbar():
    m = build_model("linear-benchmark", {"gamma": 1.0, "k1": 1.0, "k2": 0.0, "f0": 1.0})
    mu = view([0.0])
    assert m.exact_fbar(np.array([[2.0]]), mu)[0, 0] == pytest.approx(2.0)
    assert m.exact_fbar(np.array([[0.0]]), mu)[0, 0] == 0.0
    m2 = build_model("linear-benchmark", {"gamma": 2.0, "k1": 1.0, "k2": 0.5, "f0": 3.0})
    assert m2.exact_fbar(np.array([[1.0]]), view([2.0]))[0, 0] == pytest.approx(3.0 * (1.0 + 1.0) / 2.0)


def test_linear_fbar_lipschitz_constant():
    # |fbar(x1,mu1)-fbar(x2,mu2)| <= |f0| max(k1,k2)/gamma (|dx| + |dm|)
    m = build_model("linear-benchmark")
    c = m.constants
    lip = abs(c["f0"]) * max(c["k1"], c["k2"]) / c["gamma"]
    rng = np.random.default_rng(0)
    for _ in range(200):
        x1, x2, m1, m2 = rng.normal(size=4) * 3.0
        f1 = m.exact_fbar(np.array([[x1]]), view([m1]))[0, 0]
        f2 = m.exact_fbar(np.array([[x2]]), view([m2]))[0, 0]
        assert abs(f1 - f2) <= lip * (abs(x1 - x2) + abs(m1 - m2)) + 1e-12


def test_plaplace_p2_is_laplacian():
    m = build_model("plaplace-1d", {"p": 2.0, "n_interior": 31, "c_p": 1.0})
    g = Grid1D(31)
    rng = np.random.default_rng(1)
    U = rng.normal(size=(6, 31))
    assert np.allclose(m.a1(U, view(np.zeros(31))), laplacian_apply(g, U), atol=1e-12)


def test_porous_psi_identities():
    m = build_model("porous-media-1d", {"n_interior": 15})
    mu = view(np.zeros(15))
    # zero field is a fixed point of the degenerate diffusion
    assert np.all(m.a1(np.zeros((1, 15)), mu) == 0.0)
    # psi monotone pointwise for r = 4: (a^3 - b^3)(a - b) >= 0
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(2, 1000))
    assert np.all((a ** 3 - b ** 3) * (a - b) >= 0.0)
    # coercivity pairing is an exact equality: dx sum psi(u) u = dx sum |u|^4
    g = Grid1D(15)
    u = rng.normal(size=15)
    psi = np.abs(u) ** 2 * u
    assert g.dx * float(psi @ u) == pytest.approx(g.dx * float(np.sum(np.abs(u) ** 4)), rel=1e-14)


def test_fast_drift_assembles_linear_plus_remainder():
    m = build_model("mvsde-cubic", {"kappa": 1.5, "k1": 0.5})
    mu = view([0.0])
    U = np.array([[1.0]])
    V = np.array([[2.0]])
    expect = -1.5 * 2.0 - 8.0 + 0.5 * 1.0
    assert m.a2(U, mu, V)[0, 0] == pytest.approx(expect)


@pytest.mark.parametrize("mid,params", [
    ("linear-benchmark", {}),
    ("mvsde-cubic", {}),
    ("porous-media-1d", {"n_interior": 15}),
    ("plaplace-1d", {"n_interior": 15}),
])
def test_b2_apply_matches_coeff(mid, params):
    m = build_model(mid, params)
    rng = np.random.default_rng(4)
    U = rng.normal(size=(5, m.slow_dim))
    V = rng.normal(size=(5, m.fast_dim))
    xi = rng.normal(size=(5, m.n_fast_modes))
    mu = empirical_view(m, U)
    coeff = np.asarray(m.b2_coeff(U, mu, V), dtype=float)
    if coeff.ndim == 2:
        expect = xi @ coeff.T
    else:
        expect = np.einsum("ndm,nm->nd", coeff, xi)
    assert np.allclose(m.b2_apply(U, mu, V, xi), expect, atol=1e-12)


def test_empirical_view_norm_tags():
    m = build_model("porous-media-1d", {"n_interior": 7})
    U = np.random.default_rng(5).normal(size=(3, 7))
    v = empirical_view(m, U)
    assert np.allclose(v.mean, U.mean(axis=0))
    assert v.second_moment == pytest.approx(float(np.mean(slow_norm_sq(m, U))))
    m2 = build_model("linear-benchmark")
    U2 = np.array([[1.0], [3.0]])
    assert empirical_view(m2, U2).second_moment == pytest.approx(5.0)


def test_mixed_inner_product_of_one_component_keeps_the_sum():
    # a product that is -0.0 sums to +0.0: an inner product of one-component
    # states is the sum over its one term, not the term itself
    m = build_model("linear-benchmark")
    a, b = np.array([[1e-200], [-0.0]]), np.array([[-1e-200], [2.0]])
    assert np.signbit(a * b).all()
    for inner in (slow_inner, fast_inner):
        got = inner(m, a, b)
        assert np.array_equal(got, [0.0, 0.0]) and not np.signbit(got).any()


# ---------------------------------------------------------------------------
# hypothesis probes
# ---------------------------------------------------------------------------

def test_probe_linear_strict_monotonicity_is_tight():
    # slack vanishes identically at kappa = gamma: only rounding remains
    m = build_model("linear-benchmark")
    rep = probe_hypothesis(m, "strict_monotonicity_fast", n_samples=2000, seed=3)
    assert rep.worst_margin >= -1e-12
    assert rep.passed


def test_probe_broken_model_rejected_with_witness():
    m = build_model("broken-antidissipative")
    rep = probe_hypothesis(m, "strict_monotonicity_fast", n_samples=500, seed=1)
    assert not rep.passed
    assert rep.violating_witness is not None
    assert rep.violating_witness["slack"] == rep.worst_margin
    # the witness reproduces the violation: anti-dissipative pairing
    w = rep.violating_witness
    dv = w["v1"] - w["v2"]
    assert float(dv @ dv) > 0.0


def test_probe_fails_on_non_finite_slack():
    # kappa = NaN makes every fast slack NaN: a NaN is no certificate, and
    # argmin alone would leave the margin at its starting +inf
    m = build_model("mvsde-cubic", {"kappa": float("nan")})
    rep = probe_hypothesis(m, "strict_monotonicity_fast", n_samples=200, seed=2)
    assert not rep.passed and math.isnan(rep.worst_margin)
    assert rep.violating_witness is not None and math.isnan(rep.violating_witness["slack"])


def test_probe_fails_on_zero_samples():
    m = build_model("linear-benchmark")
    rep = probe_hypothesis(m, "coercivity_fast", n_samples=0)
    assert rep.samples == 0 and not rep.passed
    with pytest.raises(ValueError, match="n_samples"):
        probe_hypothesis(m, "coercivity_fast", n_samples=-5)


def test_probe_unknown_property():
    m = build_model("linear-benchmark")
    with pytest.raises(ValueError, match="declares no probe"):
        probe_hypothesis(m, "not_a_property")


def test_probe_deterministic_given_seed():
    m = build_model("mvsde-cubic")
    r1 = probe_hypothesis(m, "coercivity_fast", n_samples=300, seed=9)
    r2 = probe_hypothesis(m, "coercivity_fast", n_samples=300, seed=9)
    assert r1.worst_margin == r2.worst_margin


@pytest.mark.parametrize("mid,params", [
    ("linear-benchmark", {}),
    ("mvsde-cubic", {}),
    ("porous-media-1d", {"n_interior": 15}),
    ("plaplace-1d", {"n_interior": 15}),
])
def test_probe_suites_pass(mid, params):
    m = build_model(mid, params)
    for rep in run_probe_suite(m, n_samples=1500, seed=17):
        assert rep.worst_margin >= -1e-10, (mid, rep.property, rep.worst_margin)


def test_porous_monotonicity_certificate():
    m = build_model("porous-media-1d", {"n_interior": 31})
    rep = probe_hypothesis(m, "monotonicity_slow", n_samples=2000, seed=23,
                           sampler=ProbeSampler(state_scale=2.0))
    assert rep.worst_margin >= -1e-10


def test_applicability_conditions_enforced():
    # kappa > 2 l_b2^2 for the cubic; eigenvalue gap for the PDE fast block
    with pytest.raises(ValueError, match="kappa > 2"):
        build_model("mvsde-cubic", {"kappa": 0.005, "l_sigma2": 0.1, "sigma_c": 0.4})
    with pytest.raises(ValueError, match="lambda1"):
        build_model("porous-media-1d", {"n_interior": 15, "c_g": 50.0})
    with pytest.raises(ValueError, match="lambda1"):
        build_model("plaplace-1d", {"n_interior": 15, "c_g": 50.0})


# SHA-256 of each model's coefficient layer: probe margins, every coefficient
# map on one fixed stacked state, K at three amplitudes, the initial states
# and the declared constants.  Recorded before the field and scalar models
# were built through one shared builder per family; they must not move.  The
# cubic one was re-recorded when its fast drift -V**3 became -(V*V*V), which
# moves values by up to one ulp.
GATE_MODELS = {
    "linear-benchmark": {},
    "mvsde-cubic": {},
    "porous-media-1d": {"n_interior": 15},
    "porous-media-1d/c_psi<0": {"n_interior": 15, "c_psi": -0.5, "r": 3.0},
    "plaplace-1d": {"n_interior": 15},
    "broken-antidissipative": {},
}
MODEL_LAYER_DIGESTS = {
    "linear-benchmark":
        "ee6bc077eeb89f6a3055ec49aadf371d6b30c8bb70c73837c5211bacdf6bebf7",
    "mvsde-cubic":
        "e174f412a6deddd76ec63f0e74940f44eab30914d1610858d67a547940226d50",
    "porous-media-1d":
        "405e6f4e01de77e069ea130e9842f6cedeabd58ac687753757352ad2dc7090ce",
    "porous-media-1d/c_psi<0":
        "1242e66bbe1c46de0e8ee701e4fd46d96447950d0e5b8bdc580b46760612c595",
    "plaplace-1d":
        "9036891eec373bada88c938c526c294325a28bd67905a625c07eab1dca1a4072",
    "broken-antidissipative":
        "60a1052c07bb4439d5159daa9ffca7e397058aceebab4f951cd34854c3013717",
}


def _model_layer_digest(m):
    rng = np.random.default_rng(2024)
    shape = (2, 1, 3)
    U = 0.8 * rng.standard_normal(shape + (m.slow_dim,))
    V = 0.8 * rng.standard_normal(shape + (m.fast_dim,))
    xi1 = rng.standard_normal(shape + (m.n_slow_modes,))
    xi2 = rng.standard_normal(shape + (m.n_fast_modes,))
    mu = empirical_view(m, U)
    arrays = [m.a1(U, mu), m.f(U, mu, V), m.a2_remainder(U, mu, V), m.a2(U, mu, V),
              m.b1_apply(U, mu, xi1), m.b2_apply(U, mu, V, xi2),
              m.b1_coeff(U, mu), m.b2_coeff(U, mu, V), m.v1_norm_alpha(U),
              m.default_x0, m.default_y0]
    if m.exact_fbar is not None:
        arrays.append(m.exact_fbar(U, mu))
    if m.a2_split is not None:
        arrays.append(m.a2_split[1](U, mu))
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a, dtype=float)
        h.update(repr(a.shape).encode() + a.tobytes())
    words = [m.model_id, m.norm_slow, m.norm_fast, repr(m.fast_linear),
             repr(m.a2_split and float(m.a2_split[0]).hex()), repr(m.measure_dependent),
             repr((m.slow_dim, m.fast_dim, m.n_slow_modes, m.n_fast_modes))]
    words += [float(rep.worst_margin).hex() for rep in run_probe_suite(m, n_samples=200, seed=11)]
    words += ([float(m.slow_stab(a)).hex() for a in (0.05, 0.4, 3.0)]
              if m.slow_stab is not None else ["no K"])
    words += [f"{k}={float(v).hex()}" for k, v in sorted(m.constants.items())]
    h.update("|".join(words).encode())
    return h.hexdigest()


def test_model_layer_unchanged():
    got = {name: _model_layer_digest(build_model(name.split("/")[0], params))
           for name, params in GATE_MODELS.items()}
    assert got == MODEL_LAYER_DIGESTS


def _frozen_maps_move_with_mu(m):
    """Whether a2_remainder, b2_apply, f or the a2 forcing differ, bit for bit,
    between two measures at one fixed state."""
    rng = np.random.default_rng(5)
    U = rng.standard_normal((6, m.slow_dim))
    V = rng.standard_normal((6, m.fast_dim))
    xi = rng.standard_normal((6, m.n_fast_modes))
    mus = [MeasureMoments(mean=np.full(m.slow_dim, 0.3), second_moment=0.5),
           MeasureMoments(mean=np.full(m.slow_dim, -2.0), second_moment=7.0)]
    maps = [lambda mu: m.a2_remainder(U, mu, V), lambda mu: m.b2_apply(U, mu, V, xi),
            lambda mu: m.f(U, mu, V)]
    if m.a2_split is not None:
        maps.append(lambda mu: m.a2_split[1](U, mu))
    return any(not np.array_equal(fn(mus[0]), fn(mus[1])) for fn in maps)


def test_frozen_laws_declared_free_of_mu_do_not_read_it():
    # a model that declares frozen_reads_mu=False shares one fbar(x) lattice
    # over every measure in HMM mode, so a wrong declaration fails here; the
    # check sees the linear benchmark's k2 m(mu) forcing
    declared = [name for name, build in REGISTRY.items() if not build().frozen_reads_mu]
    assert declared == ["mvsde-cubic"]
    for name in declared:
        assert not _frozen_maps_move_with_mu(build_model(name))
    assert _frozen_maps_move_with_mu(build_model("linear-benchmark"))
