"""Uniform 1-d grids on (0,1) with homogeneous Dirichlet boundary.

Provides the tridiagonal Laplacian, the discrete norms that realise the
function-space norms used by the PDE models (L^2, H^-1), and the
discrete sine modes that carry the models' noise.  All operations accept
stacked fields of shape (..., n_interior) and are pure.  The solves apply a
dense inverse built once per (n_interior, shift) and cached: the operators
are fixed, and a small dense product is cheaper than a banded solve per call.
Each inverse is one banded solve on the identity, by scipy's
``solve_banded``; scipy is imported on first use (:func:`banded_solver`),
which the field models call while they are built, so the scalar models
never import it.

Discrete conventions, with dx = 1/(n+1) and ghost values u_0 = u_{n+1} = 0:

    (laplacian u)_i   = (u_{i-1} - 2 u_i + u_{i+1}) / dx^2
    ||u||_{L2}^2      = dx * sum u_i^2
    ||u||_{H-1}^2     = dx * u^T (-laplacian)^{-1} u

The sine modes e_k(x_i) = sqrt(2) sin(k pi x_i) are exactly orthonormal in
the dx-weighted inner product and diagonalise the Laplacian with eigenvalues
-(2/dx^2)(1 - cos(k pi dx)).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class GridDimensionError(ValueError):
    """Field length does not match the grid."""


@dataclass(frozen=True)
class Grid1D:
    """Interior nodes of a uniform grid on (0,1); dx = 1/(n_interior+1)."""

    n_interior: int

    def __post_init__(self):
        if self.n_interior < 1:
            raise ValueError("need at least one interior node")

    @property
    def dx(self) -> float:
        return 1.0 / (self.n_interior + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.dx * np.arange(1, self.n_interior + 1)


def _check(grid: Grid1D, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape[-1] != grid.n_interior:
        raise GridDimensionError(
            f"field length {u.shape[-1]} does not match grid n_interior={grid.n_interior}")
    return u


def laplacian_apply(grid: Grid1D, u) -> np.ndarray:
    """Dirichlet Laplacian, the (1,-2,1)/dx^2 stencil with zero boundary."""
    u = _check(grid, u)
    out = -2.0 * u
    out[..., :-1] += u[..., 1:]
    out[..., 1:] += u[..., :-1]
    return out / grid.dx ** 2


def lambda1(grid: Grid1D) -> float:
    """Smallest eigenvalue of minus the Laplacian; increases to pi^2 as dx->0."""
    dx = grid.dx
    return (2.0 / dx ** 2) * (1.0 - np.cos(np.pi * dx))


@lru_cache(maxsize=None)
def banded_solver():
    """``scipy.linalg.solve_banded``, imported on the first call: only the
    field models solve, and the import costs a process about 0.3 s and
    26 MB of RSS (2-vCPU x86_64 host)."""
    from scipy.linalg import solve_banded as solver
    return solver


def solve_banded(l_and_u, ab, b, **kwargs):
    """``scipy.linalg.solve_banded`` through :func:`banded_solver`."""
    return banded_solver()(l_and_u, ab, b, **kwargs)


@lru_cache(maxsize=32)
def _laplacian_banded(n: int) -> np.ndarray:
    # ab-form of -laplacian; SPD tridiagonal, read-only (callers copy to shift it)
    dx2 = (1.0 / (n + 1)) ** 2
    ab = np.zeros((3, n))
    ab[0, 1:] = -1.0 / dx2
    ab[1, :] = 2.0 / dx2
    ab[2, :-1] = -1.0 / dx2
    ab.flags.writeable = False
    return ab


@lru_cache(maxsize=32)
def _shifted_inverse(n: int, shift: float) -> np.ndarray:
    """Dense read-only (shift*I - laplacian)^{-1}, one banded solve on the identity."""
    ab = _laplacian_banded(n).copy()
    ab[1, :] += shift
    inv = solve_banded((1, 1), ab, np.eye(n), check_finite=False)
    inv.flags.writeable = False
    return inv


def solve_neg_laplacian(grid: Grid1D, rhs) -> np.ndarray:
    """Solve (-laplacian) w = rhs for stacked right-hand sides."""
    return solve_shifted_neg_laplacian(grid, 0.0, rhs)


def solve_shifted_neg_laplacian(grid: Grid1D, shift: float, rhs) -> np.ndarray:
    """Solve (shift*I - laplacian) w = rhs; shift >= 0 keeps it SPD."""
    rhs = _check(grid, rhs)
    return rhs @ _shifted_inverse(grid.n_interior, float(shift)).T


def hminus1_norm_sq(grid: Grid1D, u) -> np.ndarray | float:
    """Squared discrete H^-1 norm, dx * u^T (-laplacian)^{-1} u."""
    u = _check(grid, u)
    w = solve_neg_laplacian(grid, u)
    return grid.dx * np.sum(u * w, axis=-1)


def hminus1_inner(grid: Grid1D, a, b) -> np.ndarray | float:
    """Discrete H^-1 inner product dx * a^T (-laplacian)^{-1} b."""
    a = _check(grid, a)
    b = _check(grid, b)
    return grid.dx * np.sum(a * solve_neg_laplacian(grid, b), axis=-1)


def l2_norm_sq(grid: Grid1D, u) -> np.ndarray | float:
    u = _check(grid, u)
    return grid.dx * np.sum(u * u, axis=-1)


@lru_cache(maxsize=16)
def _sine_basis(n: int) -> np.ndarray:
    # rows e_k(x_i), k = 1..n; orthonormal under the dx-weighted inner product
    x = np.arange(1, n + 1) / (n + 1)
    k = np.arange(1, n + 1)[:, None]
    return np.sqrt(2.0) * np.sin(k * np.pi * x[None, :])


def sine_mode(grid: Grid1D, k: int) -> np.ndarray:
    """The k-th discrete sine mode, normalised in the dx-weighted norm."""
    if not 1 <= k <= grid.n_interior:
        raise ValueError("mode number out of range")
    return _sine_basis(grid.n_interior)[k - 1].copy()
