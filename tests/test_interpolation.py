import numpy as np
import pytest

from rbfadvect.errors import DegenerateCentersError, DimensionError
from rbfadvect.interpolation import (
    CenterSet,
    assemble_vandermonde,
    build_nodal_basis,
    equidistant_centers,
    grid_centers,
    polynomial_space,
)
from rbfadvect.kernels import cubic, gaussian, quintic

PAPER_CONFIGS = [(cubic(), 2), (quintic(), 3)]


def test_center_set_validation():
    with pytest.raises(ValueError):
        CenterSet(np.array([[0.0], [0.0]]))
    cs = CenterSet(np.array([[0.3], [0.1], [0.7]]))
    np.testing.assert_allclose(cs.points[:, 0], [0.1, 0.3, 0.7])  # stored sorted
    assert cs.h == pytest.approx(0.2)
    with pytest.raises(DimensionError):
        CenterSet(np.zeros((3, 4)))


def test_vandermonde_trivial_cases():
    single = CenterSet(np.array([[0.5]]))
    poly0 = polynomial_space(0, [(0.0, 1.0)])
    v = assemble_vandermonde(single, cubic(), poly0)
    np.testing.assert_allclose(v, [[0.0]])

    two = CenterSet(np.array([[0.0], [1.0]]))
    v2 = assemble_vandermonde(two, cubic(), poly0)
    np.testing.assert_allclose(v2, [[0.0, 1.0], [1.0, 0.0]])


def test_vandermonde_symmetry(rng):
    cs = CenterSet(np.sort(rng.uniform(0, 1, 7)).reshape(-1, 1))
    poly = polynomial_space(2, [(0.0, 1.0)])
    v = assemble_vandermonde(cs, cubic(), poly)
    np.testing.assert_allclose(v, v.T, atol=1e-14)


def test_unisolvency_guard():
    # Collinear 2D centers cannot determine a full linear polynomial.
    pts = np.column_stack([np.linspace(0, 1, 5), np.linspace(0, 1, 5)])
    poly = polynomial_space(2, [(0.0, 1.0), (0.0, 1.0)])
    with pytest.raises(DegenerateCentersError):
        assemble_vandermonde(CenterSet(pts), cubic(), poly)
    # Fewer centers than polynomial terms.
    with pytest.raises(DegenerateCentersError):
        assemble_vandermonde(CenterSet(np.array([[0.0], [1.0]])), cubic(),
                             polynomial_space(3, [(0.0, 1.0)]))


def test_degree_below_cpd_order_rejected():
    with pytest.raises(ValueError):
        build_nodal_basis(equidistant_centers(6), quintic(), 2)


@pytest.mark.parametrize("kern,m", PAPER_CONFIGS)
@pytest.mark.parametrize("n", [10, 20, 40, 80])
def test_cardinality_across_paper_configurations(kern, m, n):
    nb = build_nodal_basis(equidistant_centers(n), kern, m)
    values = nb.psi_rows(nb.centers.points)
    assert np.abs(values - np.eye(n)).max() <= 1e-8


def test_partition_of_unity(cubic_basis_10, rng):
    x = rng.uniform(0, 1, 20).reshape(-1, 1)
    sums = cubic_basis_10.psi_rows(x).sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-8


def test_linear_reproduction_against_direct_solve():
    # Oracle: solve the block system directly for the data f(x) = x and
    # evaluate the expansion by hand at x = 0.37.
    cs = equidistant_centers(5)
    kern = cubic()
    poly = polynomial_space(2, [(0.0, 1.0)])
    v = assemble_vandermonde(cs, kern, poly)
    data = np.concatenate([cs.points[:, 0], np.zeros(poly.q)])
    coef = np.linalg.solve(v, data)
    x = 0.37
    dist = np.abs(x - cs.points[:, 0])
    direct = coef[:5] @ kern.phi(dist) + coef[5:] @ poly.rows(np.array([[x]]))[:, 0]
    assert direct == pytest.approx(0.37, abs=1e-8)

    nb = build_nodal_basis(cs, kern, 2)
    assert nb.evaluate(cs.points[:, 0], 0.37) == pytest.approx(0.37, abs=1e-8)
    assert nb.evaluate(cs.points[:, 0], 0.37) == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("kern,m", PAPER_CONFIGS)
def test_polynomial_reproduction(kern, m, rng):
    nb = build_nodal_basis(equidistant_centers(12), kern, m)
    coeffs = rng.standard_normal(m)
    poly = np.polynomial.Polynomial(coeffs)
    values = poly(nb.centers.points[:, 0])
    x = rng.uniform(0, 1, 50)
    got = nb.evaluate_many(values, x.reshape(-1, 1))
    want = poly(x)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() <= 1e-7 * scale


def test_matching_constraints(cubic_basis_10, rng):
    values = rng.standard_normal(10)
    alpha = cubic_basis_10.coef[:10] @ values
    p = cubic_basis_10.poly.rows(cubic_basis_10.centers.points)
    assert np.abs(p @ alpha).max() <= 1e-8 * max(np.abs(alpha).max(), 1e-30)


def test_evaluation_linear_in_data(cubic_basis_10, rng):
    u = rng.standard_normal(10)
    v = rng.standard_normal(10)
    a, b = 0.7, -2.3
    x = 0.41
    lhs = cubic_basis_10.evaluate(a * u + b * v, x)
    rhs = a * cubic_basis_10.evaluate(u, x) + b * cubic_basis_10.evaluate(v, x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_derivative_of_constant_and_linear_data():
    nb = build_nodal_basis(equidistant_centers(12), cubic(), 2)
    xs = np.linspace(0.05, 0.95, 7)
    dpsi = nb.psi_deriv_rows(xs)
    assert np.abs(dpsi @ np.ones(12)).max() <= 1e-8
    np.testing.assert_allclose(dpsi @ nb.centers.points[:, 0], np.ones(7), atol=1e-7)


def test_derivative_matches_finite_difference_of_interpolant(cubic_basis_40):
    nb = cubic_basis_40
    values = np.sin(2 * np.pi * nb.centers.points[:, 0])
    h = 1e-6
    fd = (nb.evaluate(values, 0.5 + h) - nb.evaluate(values, 0.5 - h)) / (2 * h)
    assert (nb.psi_deriv_rows(0.5) @ values)[0] == pytest.approx(fd, abs=1e-5)


def test_differentiation_matrix_properties(cubic_basis_10):
    d = cubic_basis_10.differentiation_matrix()
    assert np.abs(d @ np.ones(10)).max() <= 1e-8
    x = cubic_basis_10.centers.points[:, 0]
    np.testing.assert_allclose(d @ x, np.ones(10), atol=1e-7)


def test_differentiation_matrix_columns_match_pointwise_derivatives(cubic_basis_10):
    d = cubic_basis_10.differentiation_matrix()
    pts = cubic_basis_10.centers.points
    for k in range(10):
        unit = np.zeros(10)
        unit[k] = 1.0
        col = np.array([(cubic_basis_10.psi_deriv_rows(x) @ unit)[0] for x in pts[:, 0]])
        np.testing.assert_allclose(d[:, k], col, atol=1e-10)


def test_gaussian_derivative_at_coincident_point():
    nb = build_nodal_basis(equidistant_centers(6), gaussian(2.0), 1)
    values = np.ones(6)
    # The chain-rule factor has a finite limit at a center.
    val = (nb.psi_deriv_rows(float(nb.centers.points[2, 0])) @ values)[0]
    assert np.isfinite(val)
    assert abs(val) <= 1e-7


def test_2d_basis_cardinality_and_derivatives():
    nb = build_nodal_basis(grid_centers(5, 5), cubic(), 2, domain=((0, 1), (0, 1)))
    assert np.abs(nb.psi_rows(nb.centers.points) - np.eye(25)).max() <= 1e-8
    dx = nb.differentiation_matrix(0)
    dy = nb.differentiation_matrix(1)
    x, y = nb.centers.points[:, 0], nb.centers.points[:, 1]
    np.testing.assert_allclose(dx @ x, np.ones(25), atol=1e-7)
    np.testing.assert_allclose(dy @ x, np.zeros(25), atol=1e-7)
    np.testing.assert_allclose(dy @ y, np.ones(25), atol=1e-7)


def test_vandermonde_condition_recorded(cubic_basis_10):
    assert np.isfinite(cubic_basis_10.vandermonde_cond)
    assert cubic_basis_10.vandermonde_cond >= 1.0


def _broadcast_rows(nb, pts, axis=None):
    """Reference raw basis built from the full (M, N, d) difference array."""
    diff = pts[:, None, :] - nb.centers.points[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    if axis is None:
        kernel_part, poly_part = nb.kernel.phi(dist), nb.poly.rows(pts)
    else:
        kernel_part = nb.kernel.d1_over_r(dist) * diff[:, :, axis]
        poly_part = nb.poly.deriv_rows(pts, axis)
    return np.concatenate([kernel_part, poly_part.T], axis=1)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_1d_rows_equal_broadcast_formula(quintic_basis_20, rng, dtype):
    nb = quintic_basis_20
    pts = rng.uniform(0, 1, (57, 1)).astype(dtype)
    for axis in (None, 0):
        got = nb.basis_rows(pts) if axis is None else nb.deriv_basis_rows(pts, axis)
        want = _broadcast_rows(nb, pts, axis)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)


def test_2d_rows_equal_broadcast_formula(rng):
    nb = build_nodal_basis(grid_centers(6, 7), cubic(), 2, domain=((0, 1), (0, 1)))
    pts = rng.uniform(0, 1, (83, 2))
    assert np.array_equal(nb.basis_rows(pts), _broadcast_rows(nb, pts))
    for axis in (0, 1):
        assert np.array_equal(nb.deriv_basis_rows(pts, axis), _broadcast_rows(nb, pts, axis))


@pytest.mark.parametrize("kern,m", PAPER_CONFIGS)
def test_2d_cardinality_on_20x20_grid(kern, m):
    nb = build_nodal_basis(grid_centers(20, 20), kern, m, domain=((0, 1), (0, 1)))
    assert nb.coef_ext is None  # 2D bases use the float64 solve
    assert np.abs(nb.psi_rows(nb.centers.points) - np.eye(400)).max() <= 1e-7


def test_1d_basis_carries_refined_coefficients(quintic_basis_20):
    nb = quintic_basis_20
    assert nb.coef_ext is not None and nb.coef_ext.dtype == np.longdouble
    assert nb.coef_ext.shape == nb.coef.shape
    np.testing.assert_array_equal(nb.coef, np.asarray(nb.coef_ext, dtype=float))
    # The longdouble copy holds digits beyond float64: refinement ran.
    assert not np.array_equal(nb.coef_ext, nb.coef.astype(np.longdouble))
