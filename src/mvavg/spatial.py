"""Uniform 1-d grids on (0,1) with homogeneous Dirichlet boundary.

Provides the tridiagonal Laplacian, the discrete inner products that
realise the function-space norms used by the PDE models (L^2, H^-1), and
the discrete sine modes that carry the models' noise.  All operations accept
stacked fields of shape (..., n_interior) and are pure.  Every solve with
the Dirichlet Laplacian, here and in the implicit steps of ``integrate``,
applies the one dense inverse :func:`dirichlet_inverse`, built once per
(n_interior, a, b) and cached: the operators are fixed, and a small dense
product is cheaper than a banded solve per call.  Each inverse is one
tridiagonal solve on the identity by :func:`solve_banded`, a numpy port of
LAPACK's ``dgtsv`` that gives its bits, so no run imports scipy.

Discrete conventions, with dx = 1/(n+1) and ghost values u_0 = u_{n+1} = 0:

    (laplacian u)_i   = (u_{i-1} - 2 u_i + u_{i+1}) / dx^2
    <a, b>_{L2}       = dx * sum a_i b_i
    <a, b>_{H-1}      = dx * a^T (-laplacian)^{-1} b

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
    """Dirichlet Laplacian, the (1,-2,1)/dx^2 stencil with zero boundary.

    Each neighbour is added over the whole flat buffer, one long add in place
    of one short add per row, and then the row edges that add reached across
    into the next row are restored.  Every entry sees the same additions in
    the same order as the per-row stencil, so the bits are equal.
    """
    u = np.ascontiguousarray(_check(grid, u))
    out = -2.0 * u
    flat, u_flat = out.reshape(-1), u.reshape(-1)
    edge = out[..., -1].copy()
    flat[:-1] += u_flat[1:]
    out[..., -1] = edge
    edge = out[..., 0].copy()
    flat[1:] += u_flat[:-1]
    out[..., 0] = edge
    return out / grid.dx ** 2


def lambda1(grid: Grid1D) -> float:
    """Smallest eigenvalue of minus the Laplacian; increases to pi^2 as dx->0."""
    dx = grid.dx
    return (2.0 / dx ** 2) * (1.0 - np.cos(np.pi * dx))


def solve_banded(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system A x = b, A in LAPACK ab-form (rows: super-,
    main and sub-diagonal), for b of shape (n,) or (n, nrhs).

    A numpy port of LAPACK ``dgtsv``'s path without row interchanges: the same
    operations in the same order, so x has the bits of
    ``scipy.linalg.solve_banded((1, 1), ab, b)``.  Each step acts on a whole
    row of b.  Raises ``numpy.linalg.LinAlgError`` on a zero pivot or where
    ``dgtsv`` would interchange rows (``|d_i| < |dl_i|``); the program's
    matrices are diagonally dominant, so neither happens.
    """
    # the pivot recurrence runs on Python floats, IEEE doubles as in LAPACK
    du, d, dl = (np.asarray(row, dtype=float).tolist()
                 for row in (ab[0, 1:], ab[1], ab[2, :-1]))
    x = np.array(b, dtype=float)
    n = len(d)
    for i in range(n - 1):
        if not abs(d[i]) >= abs(dl[i]) or d[i] == 0.0:
            raise np.linalg.LinAlgError(
                f"tridiagonal solve needs a row interchange or meets a zero pivot at row {i}")
        fact = dl[i] / d[i]
        d[i + 1] -= fact * du[i]
        x[i + 1] -= fact * x[i]
        dl[i] = 0.0     # as in dgtsv: the back substitution keeps its `- 0 * x` term
    if d[n - 1] == 0.0:
        raise np.linalg.LinAlgError(f"tridiagonal solve meets a zero pivot at row {n - 1}")
    x[n - 1] /= d[n - 1]
    if n > 1:
        x[n - 2] = (x[n - 2] - du[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1] - dl[i] * x[i + 2]) / d[i]
    return x


@lru_cache(maxsize=32)
def _laplacian_banded(n: int) -> np.ndarray:
    # ab-form of -laplacian; SPD tridiagonal, read-only
    dx2 = (1.0 / (n + 1)) ** 2
    ab = np.zeros((3, n))
    ab[0, 1:] = -1.0 / dx2
    ab[1, :] = 2.0 / dx2
    ab[2, :-1] = -1.0 / dx2
    ab.flags.writeable = False
    return ab


@lru_cache(maxsize=64)
def dirichlet_inverse(n: int, a: float, b: float) -> np.ndarray:
    """Dense read-only (a*I + b*(-laplacian))^{-1} on n interior nodes, one
    banded solve on the identity; a >= 0 and b > 0 keep it SPD."""
    ab = b * _laplacian_banded(n)
    ab[1] += a
    inv = solve_banded(ab, np.eye(n))
    inv.flags.writeable = False
    return inv


def solve_neg_laplacian(grid: Grid1D, rhs) -> np.ndarray:
    """Solve (-laplacian) w = rhs for stacked right-hand sides."""
    return solve_shifted_neg_laplacian(grid, 0.0, rhs)


def solve_shifted_neg_laplacian(grid: Grid1D, shift: float, rhs) -> np.ndarray:
    """Solve (shift*I - laplacian) w = rhs; shift >= 0 keeps it SPD."""
    rhs = _check(grid, rhs)
    return rhs @ dirichlet_inverse(grid.n_interior, float(shift), 1.0).T


def hminus1_inner(grid: Grid1D, a, b) -> np.ndarray | float:
    """Discrete H^-1 inner product dx * a^T (-laplacian)^{-1} b."""
    return grid.dx * np.sum(_check(grid, a) * solve_neg_laplacian(grid, b), axis=-1)


def l2_inner(grid: Grid1D, a, b) -> np.ndarray | float:
    """Discrete L^2 inner product dx * a^T b."""
    return grid.dx * np.sum(_check(grid, a) * _check(grid, b), axis=-1)


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
