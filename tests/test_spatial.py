import numpy as np
import pytest

from scipy.linalg import solve_banded

from mvavg import spatial
from mvavg.spatial import (Grid1D, GridDimensionError, hminus1_inner, l2_inner, lambda1,
                           laplacian_apply, sine_mode, solve_shifted_neg_laplacian)


def h01_norm_sq(grid, u):
    """Squared discrete H^1_0 seminorm, both boundary gaps included."""
    inner = np.sum((u[..., 1:] - u[..., :-1]) ** 2, axis=-1)
    return (inner + u[..., 0] ** 2 + u[..., -1] ** 2) / grid.dx


def dense_laplacian(grid):
    n, dx2 = grid.n_interior, grid.dx ** 2
    A = np.zeros((n, n))
    for i in range(n):
        A[i, i] = -2.0 / dx2
        if i > 0:
            A[i, i - 1] = 1.0 / dx2
        if i < n - 1:
            A[i, i + 1] = 1.0 / dx2
    return A


def test_grid_invariant():
    g = Grid1D(63)
    assert (g.n_interior + 1) * g.dx == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        Grid1D(0)


def test_laplacian_zero_field():
    g = Grid1D(5)
    assert np.all(laplacian_apply(g, np.zeros(5)) == 0.0)


def test_laplacian_single_node():
    # one interior node, dx = 1/2: stencil is -2/dx^2 = -8
    g = Grid1D(1)
    assert laplacian_apply(g, np.array([1.0]))[0] == pytest.approx(-8.0)


def test_laplacian_discrete_eigenvector():
    g = Grid1D(40)
    u = np.sin(np.pi * g.nodes)
    lam = (2.0 / g.dx ** 2) * (1.0 - np.cos(np.pi * g.dx))
    assert np.allclose(laplacian_apply(g, u), -lam * u, atol=1e-10)
    # and the exact eigenvalue is the continuum pi^2 up to O(dx^2)
    assert lam == pytest.approx(np.pi ** 2, abs=5 * g.dx ** 2 * np.pi ** 4)


def test_laplacian_matches_dense():
    g = Grid1D(17)
    rng = np.random.default_rng(0)
    u = rng.normal(size=(4, 17))
    assert np.allclose(laplacian_apply(g, u), u @ dense_laplacian(g).T, atol=1e-10)


def row_stencil(grid, u):
    """The per-row stencil, the reference for the flat-buffer one."""
    out = -2.0 * u
    out[..., :-1] += u[..., 1:]
    out[..., 1:] += u[..., :-1]
    return out / grid.dx ** 2


@pytest.mark.parametrize("n,stack", [(31, (3, 1, 200)), (63, (3, 2, 200))])
def test_flat_laplacian_is_bitwise_the_row_stencil(n, stack):
    g = Grid1D(n)
    rng = np.random.default_rng(n)
    for _ in range(20):
        u = rng.normal(size=stack + (n,)) * 10.0 ** rng.integers(-3, 4)
        assert laplacian_apply(g, u).tobytes() == row_stencil(g, u).tobytes()
    row = rng.normal(size=n)
    assert laplacian_apply(g, row).tobytes() == row_stencil(g, row).tobytes()
    # a transposed (non-contiguous) stack, and a strided slice of one
    for u in (rng.normal(size=(n, 40)).T, rng.normal(size=(4, 50, 2 * n))[:, ::3, ::2]):
        assert not u.flags.c_contiguous
        got = laplacian_apply(g, u)
        assert got.shape == u.shape
        assert got.tobytes() == row_stencil(g, u).tobytes()


def test_flat_laplacian_one_node_stack():
    # every add crosses a row here and the edge restores undo it
    g = Grid1D(1)
    u = np.random.default_rng(1).normal(size=(3, 200, 1))
    assert laplacian_apply(g, u).tobytes() == row_stencil(g, u).tobytes()
    assert np.array_equal(laplacian_apply(g, u), -8.0 * u)


def test_lambda1_closed_form():
    assert lambda1(Grid1D(1)) == pytest.approx(8.0)
    assert lambda1(Grid1D(999)) == pytest.approx(np.pi ** 2, abs=1e-3)
    vals = [lambda1(Grid1D(n)) for n in (1, 3, 7, 15, 63, 255)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v < np.pi ** 2 for v in vals)


@pytest.mark.parametrize("n", [2, 5, 17, 50])
def test_lambda1_matches_bruteforce_eigenvalue(n):
    g = Grid1D(n)
    eigs = np.linalg.eigvalsh(-dense_laplacian(g))
    assert lambda1(g) == pytest.approx(eigs.min(), abs=1e-9)


def test_hminus1_zero_and_single_node():
    g1 = Grid1D(1)
    assert hminus1_inner(g1, np.zeros(1), np.zeros(1)) == 0.0
    # dx * u (-L)^{-1} u with -L = 8, dx = 1/2: 0.5 / 8 = 0.0625
    assert hminus1_inner(g1, np.array([1.0]), np.array([1.0])) == pytest.approx(0.0625)


def test_hminus1_quadratic_scaling():
    g = Grid1D(9)
    u = np.sin(2 * np.pi * g.nodes)
    assert hminus1_inner(g, 3.0 * u, 3.0 * u) == pytest.approx(9.0 * hminus1_inner(g, u, u))


def test_l2_of_ones_near_one():
    g = Grid1D(199)
    assert l2_inner(g, np.ones(199), np.ones(199)) == pytest.approx(1.0, abs=2 * g.dx)


def test_h01_equals_dirichlet_form():
    # dx <u, -Lu> = ||u||_{H01}^2 exactly (summation by parts with ghosts)
    g = Grid1D(23)
    rng = np.random.default_rng(2)
    for _ in range(5):
        u = rng.normal(size=23)
        lhs = g.dx * float(u @ (-laplacian_apply(g, u)))
        assert lhs == pytest.approx(h01_norm_sq(g, u), rel=1e-12)


def test_laplacian_symmetry():
    g = Grid1D(31)
    rng = np.random.default_rng(3)
    for _ in range(5):
        u, v = rng.normal(size=(2, 31))
        a = g.dx * float(laplacian_apply(g, u) @ v)
        b = g.dx * float(u @ laplacian_apply(g, v))
        assert a == pytest.approx(b, abs=1e-10 * max(1.0, abs(a)))


def test_duality_cauchy_schwarz():
    # |dx <u, v>|^2 <= ||u||_{H01}^2 ||v||_{H-1}^2
    g = Grid1D(31)
    rng = np.random.default_rng(4)
    for _ in range(20):
        u, v = rng.normal(size=(2, 31))
        pair = (g.dx * float(u @ v)) ** 2
        assert pair <= h01_norm_sq(g, u) * hminus1_inner(g, v, v) * (1 + 1e-10)


def test_solve_neg_laplacian_roundtrip():
    g = Grid1D(20)
    rng = np.random.default_rng(6)
    u = rng.normal(size=(3, 20))
    w = solve_shifted_neg_laplacian(g, 0.0, u)
    assert np.allclose(-laplacian_apply(g, w), u, atol=1e-9)


@pytest.mark.parametrize("n", [1, 7, 31, 63])
@pytest.mark.parametrize("shift", [0.0, 0.5, 1e3])
def test_dense_solves_match_banded_solve(n, shift):
    # the cached dense inverse agrees with a banded solve of the same system
    g = Grid1D(n)
    dx2 = g.dx ** 2
    ab = np.zeros((3, n))
    ab[0, 1:] = -1.0 / dx2
    ab[1, :] = 2.0 / dx2 + shift
    ab[2, :-1] = -1.0 / dx2
    rhs = np.random.default_rng(n).normal(size=(2, 3, n))
    ref = solve_banded((1, 1), ab, rhs.reshape(-1, n).T).T.reshape(rhs.shape)
    got = solve_shifted_neg_laplacian(g, shift, rhs)
    assert got.shape == rhs.shape
    err = np.linalg.norm(got - ref, axis=-1)
    assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=-1))
    single = solve_shifted_neg_laplacian(g, shift, rhs[0, 0])
    assert single.shape == (n,)
    assert np.linalg.norm(single - ref[0, 0]) <= 1e-12 * np.linalg.norm(ref[0, 0])


def _tridiagonal(n, a, b):
    # ab-form of a I + b (-laplacian): with (1, h) and (h, 1) the two matrices
    # the program inverts, I + h (-laplacian) and h I - laplacian
    dx2 = (1.0 / (n + 1)) ** 2
    ab = np.zeros((3, n))
    ab[0, 1:], ab[1], ab[2, :-1] = -1.0 / dx2, 2.0 / dx2, -1.0 / dx2
    ab = b * ab
    ab[1] += a
    return ab


@pytest.mark.parametrize("n", [1, 2, 3, 7, 15, 31, 63, 127])
def test_tridiagonal_solve_is_bitwise_lapack(n):
    # scipy's solve_banded((1, 1), ...) runs LAPACK dgtsv: the port gives its
    # bits, and so does each cached inverse built on it
    for h in (0.0, 1e-6, 1e-3, 0.05, 0.5, 1.0, 3.3, 1e2, 1e4, 1e8):
        for a, b in ((1.0, h), (h, 1.0)):
            ab = _tridiagonal(n, a, b)
            ref = solve_banded((1, 1), ab, np.eye(n), check_finite=False)
            assert spatial.solve_banded(ab, np.eye(n)).tobytes() == ref.tobytes()
            assert spatial.dirichlet_inverse(n, a, b).tobytes() == ref.tobytes()
    rhs = np.random.default_rng(n).normal(size=(n, 3))
    for b in (rhs, rhs[:, 0]):
        got = spatial.solve_banded(ab, b)
        assert got.shape == b.shape
        assert got.tobytes() == solve_banded((1, 1), ab, b).tobytes()


def test_tridiagonal_solve_refuses_row_interchange_and_zero_pivot():
    # rows of ab: super-, main and sub-diagonal
    swap = np.array([[0.0, 1.0, 1.0], [1.0, 4.0, 4.0], [2.0, 1.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError, match="row interchange .* at row 0"):
        spatial.solve_banded(swap, np.eye(3))       # |d_0| = 1 < |dl_0| = 2
    singular = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError, match="zero pivot at row 1"):
        spatial.solve_banded(singular, np.eye(2))   # d_1 - (dl_0 / d_0) du_0 = 0
    with pytest.raises(np.linalg.LinAlgError, match="zero pivot at row 0"):
        spatial.solve_banded(np.zeros((3, 1)), np.eye(1))


# ---------------------------------------------------------------------------
# sine modes
# ---------------------------------------------------------------------------

def test_sine_modes_orthonormal_and_complete():
    # coefficients checked against direct dx-weighted inner products
    g = Grid1D(21)
    u = sine_mode(g, 1) + sine_mode(g, 3)
    coeffs = [g.dx * float(u @ sine_mode(g, k)) for k in (1, 2, 3)]
    assert coeffs[0] == pytest.approx(1.0, abs=1e-12)
    assert coeffs[1] == pytest.approx(0.0, abs=1e-12)
    assert coeffs[2] == pytest.approx(1.0, abs=1e-12)
    # the full set of modes is a basis: a field is the sum of its projections
    basis = np.stack([sine_mode(g, k) for k in range(1, 22)])
    u = np.random.default_rng(7).normal(size=21)
    assert np.allclose(g.dx * (u @ basis.T) @ basis, u, atol=1e-10)
    with pytest.raises(ValueError):
        sine_mode(g, 0)
    with pytest.raises(ValueError):
        sine_mode(g, 22)


def test_field_length_checked():
    with pytest.raises(GridDimensionError):
        laplacian_apply(Grid1D(4), np.zeros(5))
