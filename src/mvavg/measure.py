"""Empirical probability measures: moments and the 2-Wasserstein distance.

Measures are weighted sample clouds.  The particle systems in this package
always produce uniform weights and (for the rate study) one-dimensional
marginals, so the exact distance is only implemented for the cases that
actually occur:

  * ``w2_1d``             exact, 1-d, equal-size uniform clouds (sorted coupling)
  * ``w2_coupling_bound`` upper bound for index-aligned clouds of any dimension
  * ``w2_bruteforce``     exact for tiny clouds via all permutation couplings;
                          the test oracle for ``w2_1d``

``MeasureMoments`` holds the mean and second moment through which the
coefficients see a measure; ``models.empirical_view`` takes them from a
particle cloud under the model's state norm.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

WEIGHT_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Sample clouds with incompatible shapes."""


class UnsupportedCaseError(ValueError):
    """Input outside the implemented Wasserstein cases."""


@dataclass(frozen=True)
class SampleSet:
    """Weighted empirical measure: ``points`` is (n, d), weights sum to 1."""

    points: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise DimensionMismatchError("points must be a nonempty (n, d) array")
        object.__setattr__(self, "points", pts)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (pts.shape[0],):
                raise DimensionMismatchError("weights must have one entry per point")
            if np.any(w < 0.0) or abs(w.sum() - 1.0) > WEIGHT_TOL:
                raise ValueError("weights must be nonnegative and sum to 1")
            object.__setattr__(self, "weights", w)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def uniform(self):
        return self.weights is None


@dataclass(frozen=True)
class MeasureMoments:
    """Mean vector and the measure of the squared norm, mu(||.||^2)."""

    mean: np.ndarray
    second_moment: float


def _check_pair(a: SampleSet, b: SampleSet):
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.n != b.n:
        raise UnsupportedCaseError(
            f"cardinality mismatch ({a.n} vs {b.n}); only equal-size clouds are supported")


def w2_1d(a: SampleSet, b: SampleSet) -> float:
    """Exact 2-Wasserstein distance between equal-size uniform 1-d clouds.

    The sorted (monotone) coupling is optimal in one dimension, so this is
    sqrt of the mean squared gap between order statistics.
    """
    _check_pair(a, b)
    if a.dim != 1:
        raise UnsupportedCaseError(
            "w2_1d handles dimension 1 only; use w2_coupling_bound for an upper bound")
    if not (a.uniform and b.uniform):
        raise UnsupportedCaseError(
            "w2_1d handles uniform weights only; use w2_coupling_bound for an upper bound")
    xa = np.sort(a.points[:, 0])
    xb = np.sort(b.points[:, 0])
    return float(np.sqrt(np.mean((xa - xb) ** 2)))


def w2_coupling_bound(a: SampleSet, b: SampleSet) -> float:
    """Root mean squared pairwise distance under the identity coupling.

    Upper-bounds the 2-Wasserstein distance for index-aligned clouds (the
    coupling given by sharing the particle index); exact only when that
    coupling happens to be optimal.
    """
    _check_pair(a, b)
    d2 = np.sum((a.points - b.points) ** 2, axis=1)
    return float(np.sqrt(np.mean(d2)))


def w2_bruteforce(a: SampleSet, b: SampleSet, max_n: int = 8) -> float:
    """Exact 2-Wasserstein distance by exhausting all permutation couplings.

    Only for uniform equal-size clouds with at most ``max_n`` points; serves
    as the independent oracle for the fast paths.
    """
    _check_pair(a, b)
    if not (a.uniform and b.uniform):
        raise UnsupportedCaseError("w2_bruteforce handles uniform weights only")
    if a.n > max_n:
        raise UnsupportedCaseError(f"refusing n={a.n} > {max_n}: factorial blowup")
    pa, pb = a.points, b.points
    best = np.inf
    for perm in itertools.permutations(range(a.n)):
        cost = float(np.mean(np.sum((pa - pb[list(perm)]) ** 2, axis=1)))
        if cost < best:
            best = cost
    return float(np.sqrt(best))
