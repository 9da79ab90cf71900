import numpy as np
import pytest

from rbfadvect.interpolation import build_nodal_basis, equidistant_centers
from rbfadvect.kernels import cubic
from rbfadvect.operators import sat_1d
from rbfadvect.quadrature import QuadratureRule
from rbfadvect.timestep import (
    BlowUpError,
    TimeIntegration,
    compute_dt,
    integrate,
    ssprk33_step,
)


def test_zero_rhs_is_identity():
    u = np.array([1.0, -2.0, 3.5])
    out = ssprk33_step(lambda u, t: np.zeros_like(u), u, 0.0, 0.1)
    np.testing.assert_array_equal(out, u)


def test_scalar_decay_hand_value():
    # u' = -u, u0 = 1, dt = 0.1: the three stages give
    # u1 = 0.9, u2 = 0.9525, u_new = 1/3 + (2/3)(0.9525)(0.9) = 0.90483333...
    out = ssprk33_step(lambda u, t: -u, np.array([1.0]), 0.0, 0.1)
    assert out[0] == pytest.approx(0.9048333333333333, abs=1e-14)
    assert out[0] == pytest.approx(np.exp(-0.1), abs=1e-5)  # O(dt^4) local error


def test_step_linear_in_state(rng):
    a = rng.standard_normal((6, 6))
    rhs = lambda u, t: a @ u
    u = rng.standard_normal(6)
    v = rng.standard_normal(6)
    lhs = ssprk33_step(rhs, 2.0 * u - 3.0 * v, 0.0, 0.05)
    rhs_val = 2.0 * ssprk33_step(rhs, u, 0.0, 0.05) - 3.0 * ssprk33_step(rhs, v, 0.0, 0.05)
    assert np.abs(lhs - rhs_val).max() <= 1e-13 * max(1.0, np.abs(lhs).max())


def test_third_order_on_scalar_decay():
    def final_error(dt):
        u = np.array([1.0])
        t = 0.0
        while t < 1.0 - 1e-12:
            step = min(dt, 1.0 - t)
            u = ssprk33_step(lambda v, s: -v, u, t, step)
            t += step
        return abs(u[0] - np.exp(-1.0))

    ratio = final_error(0.02) / final_error(0.01)
    assert ratio == pytest.approx(8.0, rel=0.1)


def test_invalid_dt():
    with pytest.raises(ValueError):
        ssprk33_step(lambda u, t: u, np.zeros(2), 0.0, 0.0)


def test_compute_dt():
    assert compute_dt(0.1, 0.025, 1.0) == pytest.approx(0.0025)
    eigs = np.linalg.eigvals(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.abs(eigs).max() == pytest.approx(1.0)
    for bad in ((0.0, 1.0, 1.0), (0.1, -1.0, 1.0), (0.1, 1.0, 0.0)):
        with pytest.raises(ValueError):
            compute_dt(*bad)


@pytest.fixture(scope="module")
def sat_op():
    nb = build_nodal_basis(equidistant_centers(10), cubic(), 2)
    return sat_1d(nb, 1.0, g=lambda t: 0.0, rule=QuadratureRule())


def test_integrate_zero_time_returns_initial(sat_op):
    u0 = np.sin(np.linspace(0, 1, 10))
    u, trace = integrate(sat_op, u0, TimeIntegration(t_end=0.0))
    np.testing.assert_array_equal(u, u0)
    assert trace.steps == 0


def test_single_step_matches_ssprk(sat_op):
    u0 = np.sin(np.linspace(0, 1, 10))
    dt = compute_dt(0.1, sat_op.nb.centers.h, sat_op.lambda_max)
    u, trace = integrate(sat_op, u0, TimeIntegration(t_end=dt))
    direct = ssprk33_step(sat_op.rhs, u0, 0.0, dt)
    np.testing.assert_array_equal(u, direct)
    assert trace.steps == 1


def test_final_time_hit_exactly(sat_op):
    _, trace = integrate(sat_op, np.zeros(10), TimeIntegration(t_end=0.3171))
    assert trace.t_final == 0.3171


def test_trajectories_deterministic(sat_op, rng):
    u0 = rng.standard_normal(10)
    a, _ = integrate(sat_op, u0, TimeIntegration(t_end=0.25))
    b, _ = integrate(sat_op, u0, TimeIntegration(t_end=0.25))
    assert np.array_equal(a, b)


def test_blow_up_carries_context(sat_op):
    class ExplodingOp:
        nb = sat_op.nb
        lambda_max = 1.0

        def rhs(self, u, t):
            return np.full_like(u, np.inf)

        def post_step(self, u, t):
            return u

    with pytest.raises(BlowUpError) as err:
        integrate(ExplodingOp(), np.zeros(10), TimeIntegration(t_end=1.0))
    assert err.value.stage == 1
    assert err.value.step == 0
    assert err.value.t == 0.0


def test_hooks_sampled_on_stride(sat_op):
    samples = []
    hook = lambda t, u: samples.append(t)
    _, trace = integrate(sat_op, np.zeros(10), TimeIntegration(t_end=0.1, record_stride=3),
                         hooks=[hook])
    assert samples[0] == 0.0
    assert samples[-1] == 0.1
    # one sample at t = 0, then every 3rd step, plus the final time
    assert len(samples) >= 2


def test_time_integration_validation():
    with pytest.raises(ValueError):
        TimeIntegration(t_end=-1.0)
    with pytest.raises(ValueError):
        TimeIntegration(t_end=1.0, cfl=0.0)
    with pytest.raises(ValueError):
        TimeIntegration(t_end=1.0, record_stride=0)
