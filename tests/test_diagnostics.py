import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbfadvect.diagnostics import (
    EnergyRecorder,
    RunReport,
    average_order,
    discrete_errors,
    l2_error,
    write_energy_csv,
    write_errors_csv,
)
from rbfadvect.errors import DimensionError
from rbfadvect.interpolation import build_nodal_basis, equidistant_centers
from rbfadvect.kernels import cubic
from rbfadvect.operators import sat_1d
from rbfadvect.problems import inflow_bump
from rbfadvect.runner import RunConfig, build_run
from rbfadvect.timestep import TimeIntegration, integrate


def test_discrete_errors_basics():
    assert discrete_errors([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0)
    l1, linf = discrete_errors([1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0])
    assert l1 == 0.5
    assert linf == 1.0
    with pytest.raises(DimensionError):
        discrete_errors([1.0], [1.0, 2.0])


def test_l2_error_exact_match_and_constant_offset(cubic_basis_10, rule):
    values = cubic_basis_10.centers.points[:, 0]
    assert l2_error(cubic_basis_10, values, lambda x: x, rule) == pytest.approx(0.0, abs=1e-8)
    offset = l2_error(cubic_basis_10, values + 0.3, lambda x: x, rule)
    assert offset == pytest.approx(0.3, abs=1e-8)  # measure-1 domain


def test_l2_error_from_cardinal_rows_is_not_rounding_noise():
    # Quintic N = 80: the float64 coefficient path gives 2.2e-7 for the exact
    # nodal solution and moves by 36% under a 1e-15 relative perturbation.
    setup = build_run(RunConfig(problem="inflow_bump", method="sat", kernel="quintic", n=80,
                                t_end=0.5))
    nb, rule = setup.nb, setup.rule
    exact = lambda x: setup.problem.exact(0.5, x)
    u = exact(nb.centers.points[:, 0])
    perturbed = u * (1.0 + 1e-15 * np.random.default_rng(0).standard_normal(u.size))
    psi = EnergyRecorder(nb, rule).psi
    base = l2_error(nb, u, exact, rule, psi=psi)
    assert base == pytest.approx(1.368e-7, rel=1e-3)
    assert abs(l2_error(nb, perturbed, exact, rule, psi=psi) - base) < 1e-6 * base


def test_average_order_values():
    assert average_order([4e-1, 1e-1, 2.5e-2, 6.25e-3]) == pytest.approx(2.0, abs=1e-12)
    assert average_order([0.3, 0.3, 0.3]) == 0.0
    # The tabulated inflow-bump SAT cubic column averages to 2.2.
    assert average_order([1.5e-1, 1.0e-1, 9.8e-3, 1.5e-3]) == pytest.approx(2.2, abs=0.05)


def test_average_order_rejects_nonpositive():
    with pytest.raises(ValueError):
        average_order([1.0, 0.0])
    with pytest.raises(ValueError):
        average_order([1.0, -2.0])
    with pytest.raises(ValueError):
        average_order([1.0])


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(1e-6, 1e6))
def test_average_order_scaling_invariant(scale):
    errors = np.array([0.5, 0.11, 0.031, 0.0082])
    assert average_order(scale * errors) == pytest.approx(average_order(errors), abs=1e-12)


def test_energy_series_nonnegative_and_nonincreasing_without_data(rule):
    # SAT with g = 0: the recorded energy never increases by more than
    # 1e-8 of the initial energy per step.  Resolution matters: at N = 20
    # the bump is under-resolved and the interpolant's transient sloshing
    # breaks monotonicity, so the check runs on the resolved grids.
    for n in (40, 80):
        nb = build_nodal_basis(equidistant_centers(n), cubic(), 2)
        op = sat_1d(nb, 1.0, g=lambda t: 0.0, rule=rule)
        recorder = EnergyRecorder(nb, rule)
        u0 = inflow_bump().initial(nb.centers.points[:, 0])
        integrate(op, u0, TimeIntegration(t_end=0.4, cfl=0.1, record_stride=1), hooks=[recorder])
        energies = np.array([e for _, e in recorder.series])
        assert np.all(energies >= 0.0)
        assert np.all(np.diff(energies) <= 1e-8 * energies[0])


def test_run_report_id():
    rep = RunReport(problem="inflow_bump", method="sat", kernel="cubic", n=40)
    assert rep.run_id == "inflow_bump-sat-cubic-N40"
    rep2 = RunReport(problem="periodic_sin2", method="usual", kernel="quintic", n=20,
                     sigma=4.0, seed=7)
    assert "sigma4-seed7" in rep2.run_id


def test_csv_writers_deterministic(tmp_path):
    rows = [("p", "sat", "cubic", 10, 0.1, 0.2, 0.15, float("nan"), float("nan"))]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_errors_csv(a, rows)
    write_errors_csv(b, rows)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "problem,method,kernel,N,l1,linf,l2,order_l1,order_linf"
    # NaNs serialize as empty fields
    assert a.read_text().splitlines()[1].endswith(",,")


def test_energy_csv_schema(tmp_path):
    rep = RunReport(problem="p", method="sat", kernel="cubic", n=10)
    rep.energy = [(0.0, 0.375), (0.5, 0.374)]
    path = tmp_path / "energy.csv"
    write_energy_csv(path, [rep])
    lines = path.read_text().splitlines()
    assert lines[0] == "run_id,t,E"
    assert len(lines) == 3
    assert lines[1].startswith("p-sat-cubic-N10,")
