import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbfadvect import diagnostics
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
from rbfadvect.quadrature import quadrature_grid
from rbfadvect.runner import RunConfig, build_run, execute_run
from rbfadvect.timestep import BlowUpError, TimeIntegration, integrate


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
    base = l2_error(nb, u, exact, rule)
    assert base == pytest.approx(1.368e-7, rel=1e-3)
    assert abs(l2_error(nb, perturbed, exact, rule) - base) < 1e-6 * base


def _energies_alone(nb, rule, states, n_fields=1):
    """Reference: each field of each state contracted on its own, the
    evaluation a recorder made per hook call before states were batched."""
    pts, w = quadrature_grid(nb, rule)
    psi = nb.psi_rows(pts) if pts.shape[0] * nb.n <= 2_000_000 else None

    def single(u):
        with np.errstate(over="ignore"):
            if psi is not None:
                return float(w @ (psi @ u) ** 2)
            coeff = nb.coef @ u
            total = 0.0
            for start in range(0, len(w), 4096):
                sl = slice(start, start + 4096)
                total += w[sl] @ (nb.basis_rows(pts[sl]) @ coeff) ** 2
            return float(total)

    n = nb.n
    return [(t, sum(single(u[i * n:(i + 1) * n]) for i in range(n_fields))) for t, u in states]


def _recorded(cfg, monkeypatch, buffered_states=None):
    """(setup, recorder, every hooked (t, u), final state or the BlowUpError)."""
    setup = build_run(cfg)
    n_fields = setup.problem.n_fields
    if buffered_states is not None:
        monkeypatch.setattr(diagnostics, "_BUFFER_ENTRIES", buffered_states * n_fields * setup.nb.n)
    recorder = EnergyRecorder(setup.nb, setup.rule, n_fields)
    states = []
    try:
        u, _ = integrate(setup.op, setup.u0, setup.ti,
                         hooks=[recorder, lambda t, u: states.append((t, u.copy()))])
    except BlowUpError as err:
        u = err
    return setup, recorder, states, u


BATCH_CASES = {
    "1d-cached-rows": (RunConfig(problem="inflow_bump", method="sat", kernel="quintic", n=20,
                                 t_end=0.2), None),
    # 16,900 grid points x 196 centers is above the row cache: chunked passes.
    "2d-chunked": (RunConfig(problem="advect2d", method="usual", kernel="cubic", n=14,
                             record_stride=20), None),
    "acoustic-two-fields": (RunConfig(problem="acoustic", method="sat", kernel="cubic", n=10,
                                      t_end=1.0), None),
    "several-flushes": (RunConfig(problem="acoustic", method="sat", kernel="quintic", n=10,
                                  t_end=1.0, record_stride=2), 3),
}


@pytest.mark.parametrize("case", list(BATCH_CASES))
def test_batched_energies_equal_one_at_a_time(case, monkeypatch):
    cfg, buffered_states = BATCH_CASES[case]
    setup, recorder, states, u = _recorded(cfg, monkeypatch, buffered_states)
    nb, n_fields = setup.nb, setup.problem.n_fields
    assert (recorder.view.psi is None) == (case == "2d-chunked")
    if buffered_states is not None:
        assert len(states) > 3 * buffered_states
    l2 = None
    if setup.problem.exact is not None:
        exact_fn = lambda *x: setup.problem.exact(setup.ti.t_end, *x)
        l2 = recorder.finish(u[:nb.n], exact_fn)
        assert l2 == l2_error(nb, u[:nb.n], exact_fn, setup.rule)
    # Bit for bit, not approximately.
    assert recorder.series == _energies_alone(nb, setup.rule, states, n_fields)
    report = execute_run(cfg)
    assert report.energy == recorder.series
    if l2 is not None:
        assert report.error_l2 == l2


def test_blown_up_run_keeps_samples_before_blow_up(monkeypatch):
    # FR cubic N = 20 overflows in a stage.  The step depends on rounding in
    # the rank-deficient correction system, so the sample count is derived
    # from the run: t = 0 and every stride-th of the steps completed before
    # the failing one.
    cfg = RunConfig(problem="inflow_bump", method="fr", kernel="cubic", n=20, t_end=100.0)
    setup, recorder, states, err = _recorded(cfg, monkeypatch, buffered_states=100)
    assert isinstance(err, BlowUpError)
    assert len(states) == 1 + (err.step - 1) // setup.ti.record_stride
    # The 100-state buffer was evaluated more than 3 times before the blow-up.
    assert len(states) > 3 * 100
    expected = _energies_alone(setup.nb, setup.rule, states)
    np.testing.assert_array_equal(np.array(recorder.series), np.array(expected))
    report = execute_run(cfg)
    assert report.blew_up and report.blowup_step == err.step
    np.testing.assert_array_equal(np.array(report.energy), np.array(expected))


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
