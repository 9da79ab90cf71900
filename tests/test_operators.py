import math

import numpy as np
import pytest

from rbfadvect.correction import build_corrections, verify_corrections
from rbfadvect.diagnostics import SatRateChecker, discrete_errors
from rbfadvect.errors import ConfigurationError, StabilityParameterError
from rbfadvect.interpolation import NodalBasis, build_nodal_basis, equidistant_centers, grid_centers
from rbfadvect.kernels import cubic, quintic
from rbfadvect.operators import (
    CHARACTERISTICS,
    acoustic_penalties,
    build_fr_operator,
    fr_1d,
    integral_of_rhs,
    numerical_fluxes,
    sat_1d,
    sat_2d,
    sat_acoustic,
    sat_varcoeff_1d,
    upwind,
    usual_1d,
    usual_2d,
)
from rbfadvect.problems import inflow_bump
from rbfadvect.quadrature import QuadratureRule, mass_vector, quadrature_grid_1d
from rbfadvect.timestep import TimeIntegration, integrate


def test_upwind_flux():
    assert upwind(2.0, 3.0, 7.0) == 6.0
    assert upwind(-2.0, 3.0, 7.0) == -14.0
    for u in (-3.0, 0.0, 1.7):
        assert upwind(1.0, u, u) == u  # consistency f(u, u) = a u


@pytest.fixture(scope="module")
def bump():
    return inflow_bump()


def _run_bump(op, n, t_end=0.5):
    prob = inflow_bump()
    u0 = prob.initial(op.nb.centers.points[:, 0])
    u, _ = integrate(op, u0, TimeIntegration(t_end=t_end, cfl=0.1, record_stride=10 ** 9))
    exact = prob.exact(t_end, op.nb.centers.points[:, 0])
    return discrete_errors(u, exact)


class TestUsual1D:
    def test_constant_state_annihilated(self, cubic_basis_10):
        op = usual_1d(cubic_basis_10, 1.0, g=lambda t: 4.0)
        out = op.rhs(np.full(10, 4.0), 0.3)
        assert np.abs(out).max() <= 1e-8

    def test_linear_state_gives_minus_a(self, cubic_basis_10):
        x = cubic_basis_10.centers.points[:, 0]
        op = usual_1d(cubic_basis_10, 1.0, g=lambda t: -t)
        out = op.rhs(x.copy(), 0.0)
        assert np.abs(out[1:] + 1.0).max() <= 1e-7
        assert out[0] == 0.0  # pinned inflow derivative

    def test_boundary_node_required(self):
        nb = build_nodal_basis(equidistant_centers(8, 0.1, 1.0), cubic(), 2,
                               domain=[(0.0, 1.0)])
        with pytest.raises(ConfigurationError):
            usual_1d(nb, 1.0, g=lambda t: 0.0)

    def test_bump_error_matches_tabulated_value(self, cubic_basis_40):
        op = usual_1d(cubic_basis_40, 1.0, g=inflow_bump().boundary)
        l1, _ = _run_bump(op, 40)
        assert 1.2e-2 / 2 <= l1 <= 1.2e-2 * 2


class TestFluxReconstruction:
    def test_requires_verified_corrections(self, cubic_basis_10, rule):
        cf = build_corrections(cubic_basis_10, rule)  # not verified
        with pytest.raises(ConfigurationError):
            fr_1d(cubic_basis_10, 1.0, g=lambda t: 0.0, corrections=cf)

    def test_rejects_leftward_flow(self, cubic_basis_10, rule):
        # With a < 0 the left datum would be ignored by the upwind flux and
        # the right mismatch is identically zero: no boundary data enters.
        with pytest.raises(ConfigurationError):
            build_fr_operator(cubic_basis_10, -1.0, g=lambda t: 0.0, rule=rule)

    def test_matched_constant_state_is_stationary(self, cubic_basis_10, rule):
        op = build_fr_operator(cubic_basis_10, 1.0, g=lambda t: 2.0, rule=rule)
        out = op.rhs(np.full(10, 2.0), 0.0)
        assert np.abs(out).max() <= max(1e-6, op.cond_correction * 1e-13) * 10

    def test_conservation_identity_on_random_states(self, rule, rng):
        # Oracle for the conservation lemma: the integral of the
        # semidiscrete right-hand side equals the net numerical flux, up
        # to the cond(A)-scaled construction defect.
        for kern, m in [(cubic(), 2), (quintic(), 3)]:
            nb = build_nodal_basis(equidistant_centers(20), kern, m)
            op = build_fr_operator(nb, 1.0, g=lambda t: 0.7, rule=rule)
            tol = max(1e-6, op.cond_correction * 1e-13)
            for _ in range(100):
                u = rng.standard_normal(20)
                f_l, f_r, _, _ = numerical_fluxes(op.boundary, u, 0.0)
                assert abs(integral_of_rhs(op.boundary, u, 0.0) - (f_l - f_r)) <= tol

    @pytest.mark.parametrize("kern,m", [(cubic(), 2), (quintic(), 3)], ids=["cubic", "quintic"])
    def test_one_union_grid_derivative_evaluation(self, kern, m, rule, monkeypatch):
        # verify_corrections evaluates the auxiliary psi' rows on the union
        # grid once, and fr_1d takes the integrals of c_L' and c_R' from it.
        nb = build_nodal_basis(equidistant_centers(20), kern, m)
        union, _ = quadrature_grid_1d(nb, rule, extra_breaks=np.linspace(0.0, 1.0, 22))
        sizes = []
        original = NodalBasis.psi_deriv_rows

        def counted(self, points, axis=0):
            sizes.append(len(points))
            return original(self, points, axis)

        with monkeypatch.context() as patch:
            patch.setattr(NodalBasis, "psi_deriv_rows", counted)
            op = build_fr_operator(nb, 1.0, g=lambda t: 0.0, rule=rule)
        assert sizes.count(union.size) == 1
        # Oracle: c_L' and c_R' re-integrated with doubled panels.
        cf = build_corrections(nb, rule)
        fine = QuadratureRule(rule.points_per_panel, rule.panels * 2)
        xq, wq = quadrature_grid_1d(nb, fine, extra_breaks=cf.aux.centers.points[:, 0])
        assert abs(op.boundary.int_c_l_prime - wq @ cf.deriv_left(xq)) <= 1e-10
        assert abs(op.boundary.int_c_r_prime - wq @ cf.deriv_right(xq)) <= 1e-10


class TestSat1D:
    def test_matched_constant_state_is_stationary(self, cubic_basis_10, rule):
        op = sat_1d(cubic_basis_10, 1.0, g=lambda t: 3.0, rule=rule)
        out = op.rhs(np.full(10, 3.0), 0.2)
        assert np.abs(out).max() <= 1e-8

    def test_default_penalty_strength(self, cubic_basis_10, rule):
        nb = cubic_basis_10
        op = sat_1d(nb, 1.0, g=lambda t: 0.0, rule=rule)
        assert op.boundary.tau_l == -1.0
        # The only change to -a D is the left penalty tau a H^-1 e_L psi_L^T.
        penalty = op.matrix + nb.differentiation_matrix()
        row_l = nb.psi_rows(np.array([0.0]))[0]
        np.testing.assert_allclose(penalty[0], -1.0 / mass_vector(nb, rule)[0] * row_l, atol=1e-12)
        assert np.all(penalty[1:] == 0.0)

    def test_stability_bound_enforced(self, cubic_basis_10, rule):
        with pytest.raises(StabilityParameterError):
            sat_1d(cubic_basis_10, 1.0, g=lambda t: 0.0, rule=rule, tau_l=-0.4)
        with pytest.raises(StabilityParameterError):
            sat_1d(cubic_basis_10, 1.0, g=lambda t: 0.0, rule=rule, tau_l=-0.5)

    @pytest.mark.parametrize("taus", [{"tau_r": math.nan}, {"tau_l": -math.inf},
                                      {"tau_r": math.inf}, {"tau_l": math.nan}],
                             ids=["tau_r-nan", "tau_l-minus-inf", "tau_r-inf", "tau_l-nan"])
    def test_non_finite_tau_rejected(self, cubic_basis_10, rule, taus):
        # A NaN strength used to pass the nonzero test and build a NaN matrix.
        with pytest.raises(StabilityParameterError, match="finite"):
            sat_1d(cubic_basis_10, 1.0, g=lambda t: 0.0, rule=rule, **taus)
        if "tau_l" in taus:
            with pytest.raises(StabilityParameterError, match="finite"):
                sat_varcoeff_1d(cubic_basis_10, lambda x: 1.0 + 0 * x, lambda x: 0 * x,
                                lambda t: 0.0, rule=rule, **taus)

    def test_bump_error_matches_tabulated_value(self, cubic_basis_40, rule):
        op = sat_1d(cubic_basis_40, 1.0, g=inflow_bump().boundary, rule=rule)
        l1, _ = _run_bump(op, 40)
        assert 9.8e-3 / 2 <= l1 <= 9.8e-3 * 2

    def test_energy_rate_bounded_along_trajectory(self, cubic_basis_40, rule):
        # The semidiscrete stability estimate, evaluated with the
        # interpolant's exact derivative under quadrature and the penalty
        # delta paired by its defining property.
        prob = inflow_bump()
        for g, tol in ((prob.boundary, 1e-6), (lambda t: 0.0, 1e-8)):
            op = sat_1d(cubic_basis_40, 1.0, g=g, rule=rule)
            checker = SatRateChecker(op, rule)
            u0 = prob.initial(cubic_basis_40.centers.points[:, 0])
            integrate(op, u0, TimeIntegration(t_end=0.5, cfl=0.1, record_stride=5),
                      hooks=[checker])
            worst = max(excess for _, excess in checker.series)
            assert worst <= tol


class TestVariableCoefficients:
    def test_constant_coefficient_degenerates_to_sat(self, cubic_basis_10, rule):
        g = lambda t: 0.4
        ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
        zeros = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        var = sat_varcoeff_1d(cubic_basis_10, ones, zeros, g, rule=rule)
        sat = sat_1d(cubic_basis_10, 1.0, g=g, rule=rule)
        u = np.sin(3.0 * cubic_basis_10.centers.points[:, 0])
        np.testing.assert_allclose(var.rhs(u, 0.1), sat.rhs(u, 0.1), atol=1e-12)

    def test_skew_split_weights(self, cubic_basis_10, rule, rng):
        a_fn = lambda x: np.asarray(x, dtype=float) + 1.0
        da_fn = lambda x: np.ones_like(np.asarray(x, dtype=float))
        nb = cubic_basis_10
        op = sat_varcoeff_1d(nb, a_fn, da_fn, lambda t: 0.0, rule=rule)
        d = nb.differentiation_matrix()
        x = nb.centers.points[:, 0]
        a, da = x + 1.0, np.ones(10)
        u = rng.standard_normal(10)
        expected = -(0.5 * (d @ (a * u)) + 0.5 * (da * u + a * (d @ u)))
        # Left penalty tau a(x_L) H^-1 e_L (u_N(x_L) - g) with tau = -1, a(0) = 1, g = 0.
        expected[0] -= float(nb.psi_rows(np.array([0.0]))[0] @ u) / mass_vector(nb, rule)[0]
        np.testing.assert_allclose(op.rhs(u, 0.0), expected, atol=1e-13)

    def test_penalty_vanishes_when_inflow_speed_is_zero(self, rule):
        nb = build_nodal_basis(equidistant_centers(10, 0.0, 2 * np.pi), cubic(), 2)
        op = sat_varcoeff_1d(nb, lambda x: np.asarray(x, dtype=float),
                             lambda x: np.ones_like(np.asarray(x, dtype=float)),
                             lambda t: 1.0, rule=rule)
        # a(0) = 0: no penalty row in A and no forcing, even with nonzero data.
        d = nb.differentiation_matrix()
        x = nb.centers.points[:, 0]
        split = -(0.5 * d * x + 0.5 * (np.eye(10) + x[:, None] * d))
        np.testing.assert_allclose(op.matrix, split, rtol=0, atol=1e-13)
        assert op.forcing == []
        assert op.lambda_max == pytest.approx(2 * np.pi)


class TestAcousticSystem:
    def _ops(self, rule, kern=None, m=None, r0=0.5, r1=0.5):
        nb = build_nodal_basis(equidistant_centers(12), kern or cubic(), m or 2)
        g0 = lambda t: np.array([np.sin(t), 0.0])
        g1 = lambda t: np.array([0.0, np.sin(t)])
        return sat_acoustic(nb, 1.0, g0, g1, rule=rule, r0=r0, r1=r1)

    def test_zero_state_zero_data_is_stationary(self, rule):
        op = self._ops(rule)
        out = op.rhs(np.zeros(24), 0.0)
        assert np.abs(out).max() == 0.0

    def test_wave_speed_is_spectral_radius_of_system_matrix(self, rule):
        op = self._ops(rule)
        flux = np.array([[0.0, 1.0], [1.0, 0.0]])
        eigs = np.linalg.eigvals(flux)
        assert np.abs(eigs).max() == pytest.approx(op.lambda_max)
        np.testing.assert_allclose(sorted(eigs.real), [-1.0, 1.0], atol=1e-14)

    def test_characteristic_transform_orthogonal(self):
        w = CHARACTERISTICS
        np.testing.assert_allclose(w @ w.T, np.eye(2), atol=1e-15)
        # Column 0 is the incoming wave at the left end (+c), column 1 at the right (-c).
        flux = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(w.T @ flux @ w, np.diag([1.0, -1.0]), atol=1e-15)

    def test_reflection_parameters_validated(self, rule):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(StabilityParameterError):
                self._ops(rule, r0=bad)
            with pytest.raises(StabilityParameterError):
                self._ops(rule, r1=bad)

    def test_boundary_operators_dissipative(self):
        flux = np.array([[0.0, 1.0], [1.0, 0.0]])
        for r in (0.01, 0.5, 0.99):
            pi0, pi1 = acoustic_penalties(1.0, r, r)
            assert np.linalg.eigvalsh(flux + pi0 + pi0.T).max() <= 1e-12
            assert np.linalg.eigvalsh(-flux + pi1 + pi1.T).max() <= 1e-12

    def test_energy_rate_nonpositive_with_zero_data(self, rule, rng):
        # With zero boundary data the semidiscrete energy rate reduces to
        # boundary quadratic forms governed by the dissipativity checks.
        nb = build_nodal_basis(equidistant_centers(12), cubic(), 2)
        row0, row1 = nb.psi_rows(np.array([[0.0], [1.0]]))
        pi0, pi1 = acoustic_penalties(1.0, 0.5, 0.5)
        a_mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        for _ in range(20):
            state = rng.standard_normal(24)
            u, v = state[:12], state[12:]
            b0 = np.array([row0 @ u, row0 @ v])
            b1 = np.array([row1 @ u, row1 @ v])
            rate = (b0 @ a_mat @ b0 - b1 @ a_mat @ b1
                    + 2.0 * b0 @ pi0 @ b0 + 2.0 * b1 @ pi1 @ b1)
            assert rate <= 1e-8


@pytest.fixture(scope="module")
def basis2d():
    return build_nodal_basis(grid_centers(6, 6), cubic(), 2, domain=((0, 1), (0, 1)))


class TestAdvection2D:
    def test_zero_state(self, basis2d):
        sat = sat_2d(basis2d, (1.0, 0.0))
        assert np.abs(sat.rhs(np.zeros(36), 0.0)).max() == 0.0
        usual = usual_2d(basis2d, (1.0, 0.0))
        assert np.abs(usual.rhs(np.zeros(36), 0.0)).max() == 0.0

    def test_sat_penalty_acts_only_on_inflow_edge(self, basis2d):
        sat = sat_2d(basis2d, (1.0, 0.0))
        penalty = sat.matrix + basis2d.differentiation_matrix(0)
        scale = np.diag(penalty)
        edge = basis2d.centers.points[:, 0] == 0.0
        assert np.all(penalty == np.diag(scale))
        assert np.all(scale[~edge] == 0.0)
        assert np.all(scale[edge] < 0.0)

    def test_usual_strong_injection(self, basis2d):
        usual = usual_2d(basis2d, (1.0, 0.0))
        edge = basis2d.centers.points[:, 0] == 0.0
        assert np.all(usual.matrix[edge] == 0.0)
        assert np.all(usual.matrix[:, edge] == 0.0)
        u = np.ones(36)
        out = usual.rhs(u, 0.0)
        assert np.all(out[edge] == 0.0)
        stepped = usual.post_step(u.copy(), 0.0)
        assert np.all(stepped[edge] == 0.0)
        assert np.all(stepped[~edge] == 1.0)


@pytest.mark.parametrize("kernel_name", ["gaussian epsilon=15", "multiquadric epsilon=4"])
def test_smooth_kernels_run_end_to_end(kernel_name, rule):
    # The experiments use polyharmonic kernels; the smooth kernels share
    # the whole pipeline and must at least advect the bump sanely.  The
    # shape parameter is scaled to the grid: near the flat limit the
    # Vandermonde system is numerically singular.
    from rbfadvect.kernels import kernel_from_name

    prob = inflow_bump()
    nb = build_nodal_basis(equidistant_centers(30), kernel_from_name(kernel_name), 1)
    op = sat_1d(nb, 1.0, g=prob.boundary, rule=rule)
    u0 = prob.initial(nb.centers.points[:, 0])
    u, _ = integrate(op, u0, TimeIntegration(t_end=0.3, cfl=0.1, record_stride=10 ** 9))
    l1, _ = discrete_errors(u, prob.exact(0.3, nb.centers.points[:, 0]))
    assert np.isfinite(l1)
    assert l1 < 0.2


@pytest.mark.parametrize("make_op", [
    lambda nb, rule: usual_1d(nb, 1.0, g=lambda t: 0.3),
    lambda nb, rule: sat_1d(nb, 1.0, g=lambda t: 0.3, rule=rule),
    lambda nb, rule: build_fr_operator(nb, 1.0, g=lambda t: 0.3, rule=rule),
])
def test_rhs_affine_superposition(make_op, cubic_basis_10, rule, rng):
    # L is affine in u at fixed t: subtracting L(0) isolates the linear part.
    op = make_op(cubic_basis_10, rule)
    u = rng.standard_normal(10)
    v = rng.standard_normal(10)
    a, b = 1.7, -0.6
    base = op.rhs(np.zeros(10), 0.2)
    lhs = op.rhs(a * u + b * v, 0.2) - base
    rhs = a * (op.rhs(u, 0.2) - base) + b * (op.rhs(v, 0.2) - base)
    scale = max(1.0, np.abs(lhs).max())
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def _trapezoid(coords):
    w = np.zeros_like(coords)
    w[:-1] += 0.5 * np.diff(coords)
    w[1:] += 0.5 * np.diff(coords)
    return w


def _formula_usual_1d(nb, rule, g):
    op = usual_1d(nb, 1.3, g=g)

    def reference(u, t):
        w = u.copy()
        w[0] = g(t)
        out = -1.3 * (nb.differentiation_matrix() @ w)
        out[0] = 0.0
        return out
    return op, reference


def _formula_fr(nb, rule, g):
    cf = build_corrections(nb, rule)
    verify_corrections(cf, nb, rule)
    op = fr_1d(nb, 1.3, g=g, corrections=cf)
    c_l, c_r = cf.deriv_left(nb.centers.points), cf.deriv_right(nb.centers.points)
    row_l, row_r = nb.psi_rows(np.array([[0.0], [1.0]]))

    def reference(u, t):
        u_l, u_r = row_l @ u, row_r @ u
        f_l, f_r = 1.3 * g(t), 1.3 * u_r  # upwind fluxes for a > 0
        return (-1.3 * (nb.differentiation_matrix() @ u)
                - c_l * (f_l - 1.3 * u_l) - c_r * (f_r - 1.3 * u_r))
    return op, reference


def _formula_sat_1d(a):
    def make(nb, rule, g):
        g_right = lambda t: 0.5 * g(t)
        op = sat_1d(nb, a, g=g, rule=rule, tau_l=-0.8, tau_r=-1.5, g_right=g_right)
        h = mass_vector(nb, rule)
        row_l, row_r = nb.psi_rows(np.array([[0.0], [1.0]]))

        def reference(u, t):
            out = -a * (nb.differentiation_matrix() @ u)
            out[0] += -0.8 * max(a, 0.0) * (row_l @ u - g(t)) / h[0]
            out[-1] += -1.5 * min(a, 0.0) * (row_r @ u - g_right(t)) / h[-1]
            return out
        return op, reference
    return make


def _formula_varcoeff(nb, rule, g):
    a_fn = lambda x: np.asarray(x, dtype=float) + 0.5
    da_fn = lambda x: np.ones_like(np.asarray(x, dtype=float))
    op = sat_varcoeff_1d(nb, a_fn, da_fn, g, rule=rule, tau_l=-0.9, alpha=0.3)
    x = nb.centers.points[:, 0]
    h = mass_vector(nb, rule)
    row_l = nb.psi_rows(np.array([0.0]))[0]

    def reference(u, t):
        d = nb.differentiation_matrix()
        out = -(0.3 * (d @ (a_fn(x) * u)) + 0.7 * (da_fn(x) * u + a_fn(x) * (d @ u)))
        out[0] += -0.9 * 0.5 * (row_l @ u - g(t)) / h[0]
        return out
    return op, reference


def _formula_acoustic(nb, rule, g):
    g0 = lambda t: np.array([g(t), 7.0])   # only the incoming component enters
    g1 = lambda t: np.array([-7.0, 2.0 * g(t)])
    op = sat_acoustic(nb, 1.3, g0, g1, rule=rule, r0=0.3, r1=0.6)
    n = nb.n
    h = mass_vector(nb, rule)
    rows = nb.psi_rows(np.array([[0.0], [1.0]]))
    w = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)

    def reference(state, t):
        u, v = state[:n], state[n:]
        d = nb.differentiation_matrix()
        out = np.concatenate([-1.3 * (d @ v), -1.3 * (d @ u)])
        # Incoming characteristic at each end: w_0 = (u+v)/sqrt2 at x = 0,
        # w_1 = (u-v)/sqrt2 at x = 1, with sigma = -(1 + R).
        for k, (idx, sigma, data) in enumerate(((0, -1.3, g0), (n - 1, -1.6, g1))):
            char = w[:, k] @ np.array([rows[k] @ u, rows[k] @ v]) - data(t)[k]
            push = sigma * 1.3 * char * w[:, k] / h[idx]
            out[idx] += push[0]
            out[n + idx] += push[1]
        return out
    return op, reference


def _formula_2d(usual):
    def make(nb, rule, g):
        pts = nb.centers.points
        edge = pts[:, 0] == 0.0
        op = (usual_2d if usual else sat_2d)(nb, (1.0, 0.3))
        cells = np.outer(_trapezoid(np.unique(pts[:, 0])), _trapezoid(np.unique(pts[:, 1]))).ravel()

        def reference(u, t):
            w = np.where(edge, 0.0, u) if usual else u
            out = -(nb.differentiation_matrix(0) @ w) - 0.3 * (nb.differentiation_matrix(1) @ w)
            if usual:
                out[edge] = 0.0
            else:
                out[edge] -= 0.5 * u[edge] / cells[edge]
            return out
        return op, reference
    return make


@pytest.mark.parametrize("make", [
    _formula_usual_1d, _formula_fr, _formula_sat_1d(1.3), _formula_sat_1d(-1.3),
    _formula_varcoeff, _formula_acoustic, _formula_2d(True), _formula_2d(False),
], ids=["usual_1d", "fr_1d", "sat_1d", "sat_1d-leftward", "sat_varcoeff_1d", "sat_acoustic",
        "usual_2d", "sat_2d"])
def test_rhs_matches_defining_formula(make, rule, rng):
    # Each assembled A u + sum_k g_k(t) b_k against the method's formula
    # written out from D, the mass entries and the boundary rows of psi.
    g = lambda t: np.sin(3.0 * t) + 0.2
    two_d = make.__qualname__.startswith("_formula_2d")
    nb = (build_nodal_basis(grid_centers(5, 5), cubic(), 2, domain=((0, 1), (0, 1))) if two_d
          else build_nodal_basis(equidistant_centers(12), quintic(), 3))
    op, reference = make(nb, rule, g)
    for _ in range(5):
        u = rng.standard_normal(op.matrix.shape[0])
        t = rng.uniform(0.0, 2.0)
        want = reference(u, t)
        got = op.rhs(u, t)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
