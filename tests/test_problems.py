import numpy as np
import pytest

from rbfadvect.errors import DegenerateCentersError
from rbfadvect.problems import (
    ScatterConfig,
    acoustic_problem,
    advection_2d,
    bump,
    inflow_bump,
    periodic_sin2,
    problem_by_name,
    scattered_centers,
    varcoeff_problem,
)
from rbfadvect.quadrature import QuadratureRule, panel_points


def test_bump_values():
    assert bump(0.25) == pytest.approx(1.0, abs=1e-14)  # e^16 cancels exp(-16/1)
    assert bump(0.75) == 0.0
    assert bump(0.0) == 0.0
    prob = inflow_bump()
    assert prob.boundary(0.25) == pytest.approx(1.0, abs=1e-14)


def test_bump_exact_extends_through_inflow():
    prob = inflow_bump()
    x = np.linspace(0, 1, 11)
    np.testing.assert_allclose(prob.exact(0.0, x), prob.initial(x), atol=1e-14)
    # At t = 0.5 the inflow extension has fully entered: it equals the IC.
    np.testing.assert_allclose(prob.exact(0.5, x[x < 0.5]), prob.initial(x[x < 0.5]), atol=1e-14)


def test_periodic_exact_and_energy():
    prob = periodic_sin2()
    x = np.linspace(0, 1, 17)
    np.testing.assert_allclose(prob.exact(1.0, x), prob.exact(0.0, x), atol=1e-12)
    s, w = panel_points([0.0, 1.0], QuadratureRule(10, 8))
    energy = w @ prob.initial(s) ** 2
    assert energy == pytest.approx(3.0 / 8.0, abs=1e-12)
    # The imposed boundary datum is the periodic trace of the solution.
    for t in (0.0, 0.3, 1.7):
        assert prob.boundary(t) == pytest.approx(float(prob.exact(t, np.array(0.0))), abs=1e-14)


def test_varcoeff_exact_solution():
    prob = varcoeff_problem()
    x = np.linspace(0, 2 * np.pi, 9)
    np.testing.assert_allclose(prob.exact(0.0, x), prob.initial(x), atol=1e-14)
    for t in (0.3, 1.5):
        assert prob.exact(t, 0.0) == pytest.approx(np.exp(-t) * np.sin(-1.2), abs=1e-14)


def test_acoustic_boundary_data():
    prob = acoustic_problem()
    np.testing.assert_allclose(prob.boundary_left(0.0), [0.0, 0.0])
    np.testing.assert_allclose(prob.boundary_right(0.0), [0.0, 0.0])
    np.testing.assert_allclose(prob.boundary_left(np.pi / 2), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(prob.boundary_right(np.pi / 2), [0.0, 1.0], atol=1e-15)
    w = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    np.testing.assert_allclose(w.T @ w, np.eye(2), atol=1e-15)


def test_advection2d_exact_branches():
    prob = advection_2d()
    y = np.linspace(0, 1, 5)
    np.testing.assert_allclose(prob.exact(0.0, 0.3, 0.7), prob.initial(0.3, 0.7), atol=1e-14)
    assert np.all(prob.exact(0.5, 0.3, y) == 0.0)
    assert prob.exact(0.2631, 0.5, 0.25) == pytest.approx(prob.initial(0.2369, 0.25), abs=1e-12)


@pytest.mark.parametrize("name", ["inflow_bump", "periodic_sin2", "varcoeff"])
def test_pde_residual_oracle_1d(name, rng):
    # Finite-difference residual of d_t u + d_x(a u) at random interior
    # space-time samples.
    prob = problem_by_name(name)
    lo, hi = prob.domain
    step = 1e-5
    for _ in range(50):
        t = rng.uniform(0.1, 1.0)
        x = rng.uniform(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo))
        du_dt = (prob.exact(t + step, x) - prob.exact(t - step, x)) / (2 * step)
        if prob.kind == "varcoeff1d":
            flux = lambda s: s * prob.exact(t, s)
        else:
            flux = lambda s: prob.velocity * prob.exact(t, s)
        dflux_dx = (flux(x + step) - flux(x - step)) / (2 * step)
        assert abs(du_dt + dflux_dx) <= 1e-4


def test_pde_residual_oracle_2d(rng):
    prob = advection_2d()
    step = 1e-5
    for _ in range(50):
        t = rng.uniform(0.05, 0.5)
        x = rng.uniform(0.01, 0.99)
        y = rng.uniform(0.01, 0.99)
        if abs(x - t) < 5 * step:
            continue  # the exact solution kinks along x = t
        du_dt = (prob.exact(t + step, x, y) - prob.exact(t - step, x, y)) / (2 * step)
        du_dx = (prob.exact(t, x + step, y) - prob.exact(t, x - step, y)) / (2 * step)
        assert abs(du_dt + du_dx) <= 1e-4


def test_exact_matches_initial_for_all_problems(rng):
    for name in ("inflow_bump", "periodic_sin2", "varcoeff", "advect2d"):
        prob = problem_by_name(name)
        if prob.kind == "advection2d":
            x = rng.uniform(0, 1, 20)
            y = rng.uniform(0, 1, 20)
            np.testing.assert_allclose(prob.exact(0.0, x, y), prob.initial(x, y), atol=1e-12)
        else:
            lo, hi = prob.domain
            x = rng.uniform(lo, hi, 20)
            np.testing.assert_allclose(prob.exact(0.0, x), prob.initial(x), atol=1e-12)


def test_scattered_centers_limit_recovers_equidistant():
    cs = scattered_centers(8, ScatterConfig(sigma=1e9, seed=3))
    np.testing.assert_allclose(cs.points[:, 0], np.arange(9) / 8, atol=1e-8)


def test_scattered_centers_structure():
    cs = scattered_centers(20, ScatterConfig(sigma=4.0, seed=11))
    pts = cs.points[:, 0]
    assert pts[0] == 0.0
    assert pts[-1] == 1.0
    assert pts.shape[0] == 21
    assert np.all(np.diff(pts) > 0)
    assert np.diff(pts).min() >= 0.1 / 20


def test_scattered_centers_deterministic_per_seed():
    a = scattered_centers(15, ScatterConfig(sigma=4.0, seed=7))
    b = scattered_centers(15, ScatterConfig(sigma=4.0, seed=7))
    c = scattered_centers(15, ScatterConfig(sigma=4.0, seed=8))
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_scattered_centers_resampling_gives_up():
    with pytest.raises(DegenerateCentersError, match="sigma=0.05, N=50"):
        scattered_centers(50, ScatterConfig(sigma=0.05, seed=0))


def test_scatter_config_validation():
    with pytest.raises(ValueError):
        ScatterConfig(sigma=0.0)


def test_problem_lookup():
    assert problem_by_name("acoustic").n_fields == 2
    with pytest.raises(KeyError):
        problem_by_name("burgers")
