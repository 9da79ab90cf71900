import numpy as np
import pytest

from rbfadvect import quadrature
from rbfadvect.diagnostics import EnergyRecorder
from rbfadvect.interpolation import CenterSet, build_nodal_basis, equidistant_centers, grid_centers
from rbfadvect.kernels import cubic, quintic
from rbfadvect.quadrature import (
    NonpositiveMassWarning,
    QuadratureRule,
    gauss_legendre_nodes,
    inner_product_matrix,
    mass_vector,
    panel_points,
    quadrature_grid,
    quadrature_view,
)
from rbfadvect.runner import RunConfig, build_run


def test_gauss_legendre_small_orders():
    x, w = gauss_legendre_nodes(1)
    np.testing.assert_allclose(x, [0.0], atol=1e-15)
    np.testing.assert_allclose(w, [2.0], atol=1e-15)
    x, w = gauss_legendre_nodes(2)
    np.testing.assert_allclose(x, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
    np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-15)


def test_gauss_legendre_degree_exactness():
    x, w = gauss_legendre_nodes(5)
    assert w @ x ** 8 == pytest.approx(2.0 / 9.0, abs=1e-14)


def test_gauss_legendre_weights_positive_and_sum_to_two():
    for n in (1, 2, 3, 8, 16, 33, 64):
        x, w = gauss_legendre_nodes(n)
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(2.0, abs=1e-13)
        assert np.all(np.diff(x) > 0)


def test_gauss_legendre_range_check():
    for n in (0, 65, -3):
        with pytest.raises(ValueError):
            gauss_legendre_nodes(n)


def test_integrate_basics():
    x, w = panel_points([0.0, 1.0], QuadratureRule(10, 1))
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert w @ x ** 3 == pytest.approx(0.25, abs=1e-14)
    x16, w16 = panel_points([0.0, 1.0], QuadratureRule(10, 16))
    assert w16 @ np.sin(2 * np.pi * x16) ** 4 == pytest.approx(3.0 / 8.0, abs=1e-10)
    # Uneven breakpoints: panels follow the gaps, points stay inside.
    x, w = panel_points([0.0, 0.1, 0.7, 1.0], QuadratureRule(4, 2))
    assert x.shape == w.shape == (24,)
    assert np.all((x > 0.0) & (x < 1.0)) and np.all(np.diff(x) > 0)
    assert w @ x ** 7 == pytest.approx(0.125, abs=1e-14)


def test_derivative_inner_products_annihilate_constants(cubic_basis_10, rule):
    g = inner_product_matrix(cubic_basis_10, cubic_basis_10, rule)
    # Constant-one coefficients: the derivative of the constant interpolant
    # vanishes, so every row pairs psi_k with zero.
    assert np.abs(g @ np.ones(10)).max() <= 1e-8


@pytest.mark.parametrize("kern,m", [(cubic(), 2), (quintic(), 3)])
def test_integration_by_parts_identity(kern, m, rule):
    # Gauss-theorem oracle: <psi_k, psi_j'> + <psi_j, psi_k'> equals the
    # boundary product difference, checked pairwise for N = 10.
    nb = build_nodal_basis(equidistant_centers(10), kern, m)
    g = inner_product_matrix(nb, nb, rule)
    p_l = nb.psi_rows(np.array([0.0]))[0]
    p_r = nb.psi_rows(np.array([1.0]))[0]
    boundary = np.outer(p_r, p_r) - np.outer(p_l, p_l)
    assert np.abs(g + g.T - boundary).max() <= 1e-8


def test_inner_products_stable_under_panel_doubling(cubic_basis_10):
    g1 = inner_product_matrix(cubic_basis_10, cubic_basis_10, QuadratureRule(10, 1))
    g2 = inner_product_matrix(cubic_basis_10, cubic_basis_10, QuadratureRule(10, 2))
    assert np.abs(g1 - g2).max() <= 1e-9


def test_mass_vector_partition_of_unity(cubic_basis_10, rule):
    h = mass_vector(cubic_basis_10, rule)
    assert h.sum() == pytest.approx(1.0, abs=1e-8)


def test_mass_vector_symmetric_two_centers(rule):
    nb = build_nodal_basis(equidistant_centers(2), cubic(), 2)
    h = mass_vector(nb, rule)
    assert h[0] == pytest.approx(h[1], abs=1e-12)


def test_mass_vector_stable_under_panel_doubling(cubic_basis_10):
    h1 = mass_vector(cubic_basis_10, QuadratureRule(10, 1))
    h2 = mass_vector(cubic_basis_10, QuadratureRule(10, 2))
    assert np.abs(h1 - h2).max() <= 1e-9


def test_mass_vector_warns_on_nonpositive_entries(rule):
    # Centers that leave the right domain margin uncovered produce a
    # boundary cardinal whose integral goes negative; the module reports
    # it but does not fail.
    pts = (np.arange(40) / 40.0).reshape(-1, 1)
    nb = build_nodal_basis(CenterSet(pts), quintic(), 3, domain=[(0.0, 1.0)])
    with pytest.warns(NonpositiveMassWarning):
        mass_vector(nb, rule)


def test_energy_values(cubic_basis_10, rule):
    energies, l2 = quadrature_view(cubic_basis_10, rule).square_integrals([np.zeros(10), np.ones(10)])
    assert l2 is None
    assert energies[0] == 0.0
    assert energies[1] == pytest.approx(1.0, abs=1e-8)


def test_energy_nonnegative_on_random_data(cubic_basis_10, rule, rng):
    energies, _ = quadrature_view(cubic_basis_10, rule).square_integrals(rng.standard_normal((10, 10)))
    assert np.all(energies >= 0.0)


def test_energy_of_sin_squared_interpolant(rule):
    # Closed form: int sin^4(2 pi x) dx = 3/8; the N = 80 quintic
    # interpolant reproduces it to the interpolation-error level.
    nb = build_nodal_basis(equidistant_centers(80), quintic(), 3)
    values = np.sin(2 * np.pi * nb.centers.points[:, 0]) ** 2
    energies, _ = quadrature_view(nb, rule).square_integrals([values])
    assert energies[0] == pytest.approx(3.0 / 8.0, abs=5e-4)


def test_view_cached_per_rule(cubic_basis_10):
    view = quadrature_view(cubic_basis_10, QuadratureRule(10, 1))
    assert quadrature_view(cubic_basis_10, QuadratureRule(10, 1)) is view
    assert quadrature_view(cubic_basis_10, QuadratureRule(10, 2)) is not view
    # A SAT run's recorder reads the rows its mass vector was built from.
    setup = build_run(RunConfig(problem="inflow_bump", method="sat", n=10))
    built = setup.nb.quadrature_views[(setup.rule.points_per_panel, setup.rule.panels)]
    assert EnergyRecorder(setup.nb, setup.rule).view is built


def test_mass_vector_chunked_path_matches_cached_rows(rule, monkeypatch):
    nb = build_nodal_basis(grid_centers(5, 5), cubic(), 2, domain=((0, 1), (0, 1)))
    cached = mass_vector(nb, rule)
    monkeypatch.setattr(quadrature, "_CACHE_ENTRIES", 0)
    nb = build_nodal_basis(grid_centers(5, 5), cubic(), 2, domain=((0, 1), (0, 1)))
    assert quadrature_view(nb, rule).psi is None
    np.testing.assert_allclose(mass_vector(nb, rule), cached, rtol=0, atol=1e-13)


def test_2d_quadrature_grid_measures_unit_square(rule):
    nb = build_nodal_basis(grid_centers(5, 5), cubic(), 2, domain=((0, 1), (0, 1)))
    pts, w = quadrature_grid(nb, rule)
    assert pts.shape[1] == 2
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    h = mass_vector(nb, rule)
    assert h.sum() == pytest.approx(1.0, abs=1e-8)
