import numpy as np
import pytest

from rbfadvect.correction import build_corrections
from rbfadvect.diagnostics import SatRateChecker, discrete_errors
from rbfadvect.errors import ConfigurationError, StabilityParameterError
from rbfadvect.interpolation import build_nodal_basis, equidistant_centers, grid_centers
from rbfadvect.kernels import cubic, quintic
from rbfadvect.operators import (
    FluxReconstruction1D,
    SatAcousticSystem,
    SatAdvection1D,
    SatAdvection2D,
    SatVariableCoeff1D,
    UsualAdvection1D,
    UsualAdvection2D,
    build_fr_operator,
    upwind,
)
from rbfadvect.problems import inflow_bump
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
        op = UsualAdvection1D(cubic_basis_10, 1.0, g=lambda t: 4.0)
        out = op.rhs(np.full(10, 4.0), 0.3)
        assert np.abs(out).max() <= 1e-8

    def test_linear_state_gives_minus_a(self, cubic_basis_10):
        x = cubic_basis_10.centers.points[:, 0]
        op = UsualAdvection1D(cubic_basis_10, 1.0, g=lambda t: -t)
        out = op.rhs(x.copy(), 0.0)
        assert np.abs(out[1:] + 1.0).max() <= 1e-7
        assert out[0] == 0.0  # pinned inflow derivative

    def test_boundary_node_required(self):
        nb = build_nodal_basis(equidistant_centers(8, 0.1, 1.0), cubic(), 2,
                               domain=[(0.0, 1.0)])
        with pytest.raises(ConfigurationError):
            UsualAdvection1D(nb, 1.0, g=lambda t: 0.0)

    def test_bump_error_matches_tabulated_value(self, cubic_basis_40):
        op = UsualAdvection1D(cubic_basis_40, 1.0, g=inflow_bump().boundary)
        l1, _ = _run_bump(op, 40)
        assert 1.2e-2 / 2 <= l1 <= 1.2e-2 * 2


class TestFluxReconstruction:
    def test_requires_verified_corrections(self, cubic_basis_10, rule):
        aux = build_nodal_basis(equidistant_centers(12), cubic(), 2)
        cf = build_corrections(cubic_basis_10, aux, rule)  # not verified
        with pytest.raises(ConfigurationError):
            FluxReconstruction1D(cubic_basis_10, 1.0, g=lambda t: 0.0, corrections=cf)

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
                f_l, f_r, _, _ = op.numerical_fluxes(u, 0.0)
                assert abs(op.integral_of_rhs(u, 0.0) - (f_l - f_r)) <= tol

    def test_bump_error_with_minimum_norm_corrections(self, cubic_basis_40, rule):
        # The LU quasi-solution loads the construction's exact null vector
        # arbitrarily; the tabulated FR accuracy corresponds to the
        # minimum-norm correction functions.
        op = build_fr_operator(cubic_basis_40, 1.0, g=inflow_bump().boundary,
                               rule=rule, tsvd_rtol=1e-10)
        l1, _ = _run_bump(op, 40)
        assert 1.6e-2 / 2 <= l1 <= 1.6e-2 * 2


class TestSat1D:
    def test_matched_constant_state_is_stationary(self, cubic_basis_10, rule):
        op = SatAdvection1D(cubic_basis_10, 1.0, g=lambda t: 3.0, rule=rule)
        out = op.rhs(np.full(10, 3.0), 0.2)
        assert np.abs(out).max() <= 1e-8

    def test_default_penalty_strength(self, cubic_basis_10, rule):
        op = SatAdvection1D(cubic_basis_10, 1.0, g=lambda t: 0.0, rule=rule)
        assert op.tau_l == -1.0

    def test_stability_bound_enforced(self, cubic_basis_10, rule):
        with pytest.raises(StabilityParameterError):
            SatAdvection1D(cubic_basis_10, 1.0, g=lambda t: 0.0, rule=rule, tau_l=-0.4)
        with pytest.raises(StabilityParameterError):
            SatAdvection1D(cubic_basis_10, 1.0, g=lambda t: 0.0, rule=rule, tau_l=-0.5)

    def test_bump_error_matches_tabulated_value(self, cubic_basis_40, rule):
        op = SatAdvection1D(cubic_basis_40, 1.0, g=inflow_bump().boundary, rule=rule)
        l1, _ = _run_bump(op, 40)
        assert 9.8e-3 / 2 <= l1 <= 9.8e-3 * 2

    def test_energy_rate_bounded_along_trajectory(self, cubic_basis_40, rule):
        # The semidiscrete stability estimate, evaluated with the
        # interpolant's exact derivative under quadrature and the penalty
        # delta paired by its defining property.
        prob = inflow_bump()
        for g, tol in ((prob.boundary, 1e-6), (lambda t: 0.0, 1e-8)):
            op = SatAdvection1D(cubic_basis_40, 1.0, g=g, rule=rule)
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
        var = SatVariableCoeff1D(cubic_basis_10, ones, zeros, g, rule=rule)
        sat = SatAdvection1D(cubic_basis_10, 1.0, g=g, rule=rule)
        u = np.sin(3.0 * cubic_basis_10.centers.points[:, 0])
        np.testing.assert_allclose(var.rhs(u, 0.1), sat.rhs(u, 0.1), atol=1e-12)

    def test_skew_split_weights(self, cubic_basis_10, rule, rng):
        a_fn = lambda x: np.asarray(x, dtype=float) + 1.0
        da_fn = lambda x: np.ones_like(np.asarray(x, dtype=float))
        op = SatVariableCoeff1D(cubic_basis_10, a_fn, da_fn, lambda t: 0.0, rule=rule)
        d = cubic_basis_10.differentiation_matrix()
        u = rng.standard_normal(10)
        expected = -(0.5 * (d @ (op.a_values * u)) + 0.5 * (op.a_prime_values * u + op.a_values * (d @ u)))
        expected += op.tau_l * op.a_left * (float(op.row_l @ u) - 0.0) * op.pen_l
        np.testing.assert_allclose(op.rhs(u, 0.0), expected, atol=1e-13)

    def test_penalty_vanishes_when_inflow_speed_is_zero(self, rule):
        nb = build_nodal_basis(equidistant_centers(10, 0.0, 2 * np.pi), cubic(), 2)
        op = SatVariableCoeff1D(nb, lambda x: np.asarray(x, dtype=float),
                                lambda x: np.ones_like(np.asarray(x, dtype=float)),
                                lambda t: 0.0, rule=rule)
        assert op.a_left == 0.0
        assert op.lambda_max == pytest.approx(2 * np.pi)


class TestAcousticSystem:
    def _ops(self, rule, kern=None, m=None, r0=0.5, r1=0.5):
        nb = build_nodal_basis(equidistant_centers(12), kern or cubic(), m or 2)
        g0 = lambda t: np.array([np.sin(t), 0.0])
        g1 = lambda t: np.array([0.0, np.sin(t)])
        return SatAcousticSystem(nb, 1.0, g0, g1, rule=rule, r0=r0, r1=r1)

    def test_zero_state_zero_data_is_stationary(self, rule):
        op = self._ops(rule)
        out = op.rhs(np.zeros(24), 0.0)
        assert np.abs(out).max() == 0.0

    def test_wave_speed_is_spectral_radius_of_system_matrix(self, rule):
        op = self._ops(rule)
        eigs = np.linalg.eigvals(op.system_matrix)
        assert np.abs(eigs).max() == pytest.approx(op.lambda_max)
        np.testing.assert_allclose(sorted(eigs.real), [-1.0, 1.0], atol=1e-14)

    def test_characteristic_transform_orthogonal(self, rule):
        op = self._ops(rule)
        np.testing.assert_allclose(op.w_transform @ op.w_transform.T, np.eye(2), atol=1e-15)

    def test_reflection_parameters_validated(self, rule):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(StabilityParameterError):
                self._ops(rule, r0=bad)
            with pytest.raises(StabilityParameterError):
                self._ops(rule, r1=bad)

    def test_boundary_operators_dissipative(self, rule):
        op = self._ops(rule)
        left = op.system_matrix + op.pi0 + op.pi0.T
        right = -op.system_matrix + op.pi1 + op.pi1.T
        assert np.linalg.eigvalsh(left).max() <= 1e-12
        assert np.linalg.eigvalsh(right).max() <= 1e-12

    def test_energy_rate_nonpositive_with_zero_data(self, rule, rng):
        # With zero boundary data the semidiscrete energy rate reduces to
        # boundary quadratic forms governed by the dissipativity checks.
        op = self._ops(rule)
        zero = lambda t: np.array([0.0, 0.0])
        op.g0, op.g1 = zero, zero
        a_mat = op.system_matrix
        for _ in range(20):
            state = rng.standard_normal(24)
            u, v = state[:12], state[12:]
            b0 = np.array([op.row0 @ u, op.row0 @ v])
            b1 = np.array([op.row1 @ u, op.row1 @ v])
            rate = (b0 @ a_mat @ b0 - b1 @ a_mat @ b1
                    + 2.0 * b0 @ op.pi0 @ b0 + 2.0 * b1 @ op.pi1 @ b1)
            assert rate <= 1e-8


@pytest.fixture(scope="module")
def basis2d():
    return build_nodal_basis(grid_centers(6, 6), cubic(), 2, domain=((0, 1), (0, 1)))


class TestAdvection2D:
    def test_zero_state(self, basis2d, rule):
        sat = SatAdvection2D(basis2d, (1.0, 0.0), rule=rule)
        assert np.abs(sat.rhs(np.zeros(36), 0.0)).max() == 0.0
        usual = UsualAdvection2D(basis2d, (1.0, 0.0))
        assert np.abs(usual.rhs(np.zeros(36), 0.0)).max() == 0.0

    def test_admissibility_of_boundary_operator(self, basis2d, rule):
        # Zero inflow data: stability needs 2 Pi . n <= a . n on the
        # inflow edge, with equality for the chosen Pi = a/2.
        sat = SatAdvection2D(basis2d, (1.0, 0.0), rule=rule)
        normal = np.array([-1.0, 0.0])
        assert 2 * np.dot(sat.pi, normal) <= np.dot((1.0, 0.0), normal) + 1e-15

    def test_sat_penalty_acts_only_on_inflow_edge(self, basis2d, rule):
        sat = SatAdvection2D(basis2d, (1.0, 0.0), rule=rule)
        assert np.all(sat.sat_scale[~sat.edge_mask] == 0.0)
        assert np.all(sat.sat_scale[sat.edge_mask] < 0.0)

    def test_usual_strong_injection(self, basis2d):
        usual = UsualAdvection2D(basis2d, (1.0, 0.0))
        u = np.ones(36)
        out = usual.rhs(u, 0.0)
        assert np.all(out[usual.edge_mask] == 0.0)
        stepped = usual.post_step(u.copy(), 0.0)
        assert np.all(stepped[usual.edge_mask] == 0.0)


@pytest.mark.parametrize("kernel_name", ["gaussian epsilon=15", "multiquadric epsilon=4"])
def test_smooth_kernels_run_end_to_end(kernel_name, rule):
    # The experiments use polyharmonic kernels; the smooth kernels share
    # the whole pipeline and must at least advect the bump sanely.  The
    # shape parameter is scaled to the grid: near the flat limit the
    # Vandermonde system is numerically singular.
    from rbfadvect.kernels import kernel_from_name

    prob = inflow_bump()
    nb = build_nodal_basis(equidistant_centers(30), kernel_from_name(kernel_name), 1)
    op = SatAdvection1D(nb, 1.0, g=prob.boundary, rule=rule)
    u0 = prob.initial(nb.centers.points[:, 0])
    u, _ = integrate(op, u0, TimeIntegration(t_end=0.3, cfl=0.1, record_stride=10 ** 9))
    l1, _ = discrete_errors(u, prob.exact(0.3, nb.centers.points[:, 0]))
    assert np.isfinite(l1)
    assert l1 < 0.2


@pytest.mark.parametrize("make_op", [
    lambda nb, rule: UsualAdvection1D(nb, 1.0, g=lambda t: 0.3),
    lambda nb, rule: SatAdvection1D(nb, 1.0, g=lambda t: 0.3, rule=rule),
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
