import math

import numpy as np
import pytest

from rbfadvect import timestep
from rbfadvect.diagnostics import EnergyRecorder
from rbfadvect.interpolation import build_nodal_basis, equidistant_centers
from rbfadvect.kernels import cubic
from rbfadvect.operators import SemidiscreteOperator, sat_1d
from rbfadvect.quadrature import QuadratureRule
from rbfadvect.runner import RunConfig, build_run
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


@pytest.fixture()
def stagewise(monkeypatch):
    """Switch integrate to the stagewise reference path for every operator."""
    def use():
        monkeypatch.setattr(timestep, "_plan_blocks", lambda *args: None)
    return use


def _hook_times(op, ti):
    samples = []
    _, trace = integrate(op, np.zeros(op.nb.n), ti, hooks=[lambda t, u: samples.append(t)])
    return samples, trace


def _expected_hook_times(op, ti, steps):
    """t = 0, the time after every record_stride-th step accumulated as t + dt,
    then the landing time."""
    dt = compute_dt(ti.cfl, op.nb.centers.h, op.lambda_max)
    expected, t = [0.0], 0.0
    for step in range(1, steps):
        t += dt
        if step % ti.record_stride == 0:
            expected.append(t)
    return expected + [ti.t_end]


def test_hooks_sampled_on_stride(sat_op, stagewise):
    # The 0.1 run is too short to fuse; the 0.5 run fuses.
    runs = [TimeIntegration(t_end=t_end, record_stride=3) for t_end in (0.1, 0.5)]
    fused = [_hook_times(sat_op, ti) for ti in runs]
    stagewise()
    stage = [_hook_times(sat_op, ti) for ti in runs]
    for ti, (fused_samples, trace), (stage_samples, stage_trace) in zip(runs, fused, stage):
        assert (trace.fused_steps > 0) == (ti.t_end == 0.5)
        assert stage_trace.fused_steps == 0 and stage_trace.steps == trace.steps
        expected = _expected_hook_times(sat_op, ti, trace.steps)
        assert fused_samples == expected
        assert stage_samples == expected
        for counted in (trace, stage_trace):
            assert counted.rhs_evals % 3 == 0
            assert counted.steps == counted.fused_steps + counted.rhs_evals // 3


def test_cost_rule_keeps_large_strides_stagewise(sat_op):
    # One block of 1000 steps would cost more to build than the 1000 steps.
    _, trace = integrate(sat_op, np.zeros(10), TimeIntegration(t_end=1.2, record_stride=1000))
    assert trace.steps > 100 and trace.fused_steps == 0
    # Over 900,000 steps a 1000-step block pays; a 200,000-step one would
    # pay too, but its forcing block would hold 2e6 entries.
    dt = compute_dt(0.1, sat_op.nb.centers.h, sat_op.lambda_max)
    assert timestep._plan_blocks(sat_op, dt, TimeIntegration(t_end=1e4, record_stride=1000))
    assert timestep._plan_blocks(sat_op, dt, TimeIntegration(t_end=1e4, record_stride=200_000)) is None


def test_accurate_dot_rounds_about_once(rng):
    # Rows scaled over 17 decades; a plain product errs by about 6e-16 here.
    for n in (10, 80):
        a = rng.standard_normal((n, n)) * np.exp(rng.uniform(-20, 20, (n, 1)))
        b = rng.standard_normal((n, n))
        exact = a.astype(np.longdouble) @ b.astype(np.longdouble)
        err = np.abs(timestep._accurate_dot(a, b) - exact).max() / np.abs(exact).max()
        assert err <= 1.2e-16


def _relative(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.array_equal(np.isfinite(a), np.isfinite(b))
    finite = np.isfinite(b)
    scale = np.abs(b[finite]).max(initial=0.0)
    return float(np.abs(a[finite] - b[finite]).max(initial=0.0) / scale) if scale else 0.0


def _trajectory(cfg: RunConfig):
    setup = build_run(cfg)
    energy = EnergyRecorder(setup.nb, setup.rule, n_fields=setup.problem.n_fields)
    u, trace = integrate(setup.op, setup.u0, setup.ti, hooks=[energy])
    return u, trace, energy.series


# The long_time_1d benchmark runs, a usual run, FR inflow_bump N=80 and
# criterion 5's FR leg (growing operators: compared to 1e-10).
FUSED_REFERENCE_RUNS = [
    (RunConfig(problem="periodic_sin2", method="sat", kernel="quintic", n=80, t_end=100.0,
               record_stride=20), 1e-12),
    (RunConfig(problem="acoustic", method="sat", kernel="cubic", n=40, t_end=100.0,
               record_stride=100), 1e-12),
    (RunConfig(problem="acoustic", method="sat", kernel="quintic", n=40, t_end=100.0,
               record_stride=100), 1e-12),
    (RunConfig(problem="inflow_bump", method="usual", kernel="quintic", n=80, t_end=0.5), 1e-12),
    (RunConfig(problem="inflow_bump", method="fr", kernel="cubic", n=80, t_end=0.5), 1e-10),
    (RunConfig(problem="inflow_bump", method="fr", kernel="quintic", n=80, t_end=0.5), 1e-10),
    (RunConfig(problem="periodic_sin2", method="fr", kernel="quintic", n=20, t_end=100.0,
               record_stride=500), 1e-10),
]


@pytest.mark.parametrize("cfg, tol", FUSED_REFERENCE_RUNS,
                         ids=[f"{c.problem}-{c.method}-{c.kernel}-N{c.n}" for c, _ in FUSED_REFERENCE_RUNS])
def test_fused_matches_stagewise(cfg, tol, stagewise):
    u_fused, fused, e_fused = _trajectory(cfg)
    stagewise()
    u_stage, stage, e_stage = _trajectory(cfg)
    assert fused.fused_steps > 0 and stage.fused_steps == 0
    assert (fused.steps, fused.t_final) == (stage.steps, stage.t_final)
    assert [t for t, _ in e_fused] == [t for t, _ in e_stage]
    assert _relative(u_fused, u_stage) <= tol
    assert _relative([e for _, e in e_fused], [e for _, e in e_stage]) <= tol


def _growing_op(nb, rate):
    """du/dt = rate u + 1: each step multiplies the state by about S(dt rate)."""
    return SemidiscreteOperator(nb, "growth", 1.0, rate * np.eye(nb.n),
                                [(np.ones(nb.n), lambda t: 1.0)])


@pytest.mark.parametrize("rate, fused_before", [(9000.0, 0), (300.0, 200)])
def test_blow_up_replayed_stagewise(sat_op, stagewise, rate, fused_before):
    # rate 9000 (dt rate = 100) overflows inside the first 100-step block;
    # rate 300 (dt rate = 3.3) grows about 1e120 per block and overflows in the third.
    op = _growing_op(sat_op.nb, rate)
    ti = TimeIntegration(t_end=10.0, record_stride=100)
    with pytest.raises(BlowUpError) as fused:
        integrate(op, np.zeros(10), ti)
    stagewise()
    with pytest.raises(BlowUpError) as stage:
        integrate(op, np.zeros(10), ti)
    got, want = fused.value, stage.value
    assert (got.t, got.step, got.stage) == (want.t, want.step, want.stage)
    assert got.fused_steps == fused_before
    assert got.step == got.fused_steps + got.rhs_evals // 3
    assert fused_before < got.step < fused_before + 100


def test_blow_up_near_overflow_matches_stagewise(stagewise):
    # FR cubic N = 20 grows until a stage overflows (near step 9000; the exact
    # step moves with rounding in the correction system), while the fused
    # result at the end of that block is still finite: the block is replayed
    # because it is near overflow, not because it is non-finite.
    cfg = RunConfig(problem="inflow_bump", method="fr", kernel="cubic", n=20, t_end=100.0)
    errors = []
    for use_stagewise in (False, True):
        if use_stagewise:
            stagewise()
        setup = build_run(cfg)
        with pytest.raises(BlowUpError) as raised:
            integrate(setup.op, setup.u0, setup.ti)
        errors.append(raised.value)
    fused, stage = errors
    assert fused.fused_steps > 0
    assert (fused.t, fused.step, fused.stage) == (stage.t, stage.step, stage.stage)


def test_time_integration_validation():
    with pytest.raises(ValueError):
        TimeIntegration(t_end=-1.0)
    with pytest.raises(ValueError):
        TimeIntegration(t_end=1.0, cfl=0.0)
    with pytest.raises(ValueError):
        TimeIntegration(t_end=1.0, record_stride=0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            TimeIntegration(t_end=bad)
        with pytest.raises(ValueError):
            TimeIntegration(t_end=1.0, cfl=bad)
    with pytest.raises(ValueError):
        TimeIntegration(t_end=1.0, cfl=-math.inf)
