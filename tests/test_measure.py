import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvavg.measure import (DimensionMismatchError, SampleSet, UnsupportedCaseError,
                           w2_1d, w2_bruteforce, w2_coupling_bound)
from mvavg.models import build_model, empirical_view
from mvavg.spatial import hminus1_inner, hminus1_norm_sq


def pts(*vals):
    return SampleSet(np.asarray(vals, dtype=float).reshape(len(vals), -1))


# ---------------------------------------------------------------------------
# moments of a particle cloud (models.empirical_view)
# ---------------------------------------------------------------------------

def test_moments_uniform_two_points():
    mm = empirical_view(build_model("linear-benchmark"), np.array([[1.0], [3.0]]))
    assert mm.mean == pytest.approx(2.0)
    assert mm.second_moment == pytest.approx(5.0)  # (1+9)/2


def test_moments_point_mass_at_origin():
    mm = empirical_view(build_model("porous-media-1d", {"n_interior": 5}), np.zeros((1, 5)))
    assert np.allclose(mm.mean, 0.0)
    assert mm.second_moment == 0.0


def test_moments_custom_norm():
    # the second moment is taken under the model's state norm (H^-1 here)
    m = build_model("porous-media-1d", {"n_interior": 5})
    U = np.random.default_rng(1).normal(size=(4, 5))
    mm = empirical_view(m, U)
    assert mm.second_moment == pytest.approx(float(np.mean(hminus1_norm_sq(m.grid, U))))


def test_moments_translation_rule():
    # mu(||. + c||^2) = mu(||.||^2) + 2 <mean, c> + ||c||^2 in the H^-1 inner product
    m = build_model("porous-media-1d", {"n_interior": 5})
    rng = np.random.default_rng(0)
    points = rng.normal(size=(7, 5))
    c = rng.normal(size=5)
    base = empirical_view(m, points)
    shifted = empirical_view(m, points + c)
    assert np.allclose(shifted.mean, base.mean + c)
    expected = (base.second_moment + 2.0 * float(hminus1_inner(m.grid, base.mean, c))
                + float(hminus1_norm_sq(m.grid, c)))
    assert shifted.second_moment == pytest.approx(expected)


def test_moments_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        SampleSet(np.empty((0, 1)))


# ---------------------------------------------------------------------------
# w2 fast path
# ---------------------------------------------------------------------------

def test_w2_identical_sets():
    a = pts(1.0, 2.0, 3.0)
    assert w2_1d(a, a) == 0.0


def test_w2_translation():
    assert w2_1d(pts(0.0, 0.0), pts(1.0, 1.0)) == pytest.approx(1.0)


def test_w2_two_point_sorted_coupling():
    # enumerate both pairings of two samples: sorted pairing cost
    # sqrt((0 + 4)/2) = sqrt(2) is the minimum
    a, b = pts(0.0, 1.0), pts(0.0, 3.0)
    paired = [np.sqrt(((0 - 0) ** 2 + (1 - 3) ** 2) / 2),
              np.sqrt(((0 - 3) ** 2 + (1 - 0) ** 2) / 2)]
    assert w2_1d(a, b) == pytest.approx(min(paired))
    assert w2_1d(a, b) == pytest.approx(np.sqrt(2.0))


def test_w2_rejects_unsupported():
    with pytest.raises(UnsupportedCaseError, match="w2_coupling_bound"):
        w2_1d(SampleSet(np.zeros((2, 2))), SampleSet(np.ones((2, 2))))
    with pytest.raises(UnsupportedCaseError):
        w2_1d(pts(0.0), pts(0.0, 1.0))


# ---------------------------------------------------------------------------
# coupling bound
# ---------------------------------------------------------------------------

def test_coupling_bound_identical():
    a = SampleSet(np.arange(6.0).reshape(3, 2))
    assert w2_coupling_bound(a, a) == 0.0


def test_coupling_bound_single_pair():
    assert w2_coupling_bound(SampleSet(np.array([[0.0, 0.0]])),
                             SampleSet(np.array([[3.0, 4.0]]))) == pytest.approx(5.0)


def test_coupling_bound_dominates_w2():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = SampleSet(rng.normal(size=(8, 1)))
        b = SampleSet(rng.normal(size=(8, 1)))
        assert w2_coupling_bound(a, b) >= w2_1d(a, b) - 1e-12


def test_coupling_bound_cardinality_mismatch():
    with pytest.raises(UnsupportedCaseError):
        w2_coupling_bound(pts(0.0), pts(0.0, 1.0))


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def test_bruteforce_single_point():
    assert w2_bruteforce(pts(2.0), pts(5.0)) == pytest.approx(3.0)


def test_bruteforce_matches_fast_path():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a = SampleSet(rng.uniform(-5, 5, size=(n, 1)))
        b = SampleSet(rng.uniform(-5, 5, size=(n, 1)))
        assert abs(w2_1d(a, b) - w2_bruteforce(a, b)) < 1e-12


def test_bruteforce_2d_example():
    # both pairings cost sqrt(1): identity (0 + 2)/2, swap (1 + 1)/2
    a = SampleSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
    b = SampleSet(np.array([[0.0, 0.0], [0.0, 1.0]]))
    costs = []
    for perm in itertools.permutations(range(2)):
        d = a.points - b.points[list(perm)]
        costs.append(np.sqrt(np.mean(np.sum(d * d, axis=1))))
    assert w2_bruteforce(a, b) == pytest.approx(min(costs))
    assert w2_bruteforce(a, b) == pytest.approx(1.0)


def test_bruteforce_refuses_large_n():
    big = SampleSet(np.zeros((9, 1)))
    with pytest.raises(UnsupportedCaseError):
        w2_bruteforce(big, big)


# ---------------------------------------------------------------------------
# distance properties
# ---------------------------------------------------------------------------

sets_1d = st.lists(st.floats(-5, 5), min_size=1, max_size=6).map(
    lambda v: SampleSet(np.asarray(v).reshape(-1, 1)))


@settings(max_examples=60, deadline=None)
@given(sets_1d, sets_1d)
def test_w2_symmetric_nonnegative(a, b):
    if a.n != b.n:
        return
    d1, d2 = w2_1d(a, b), w2_1d(b, a)
    assert d1 >= 0.0
    assert d1 == pytest.approx(d2, abs=1e-12)
    assert w2_1d(a, a) == 0.0


def test_w2_triangle_inequality():
    rng = np.random.default_rng(5)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        a, b, c = (SampleSet(rng.uniform(-5, 5, size=(n, 1))) for _ in range(3))
        assert w2_1d(a, c) <= w2_1d(a, b) + w2_1d(b, c) + 1e-10
