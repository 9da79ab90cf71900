"""Error norms, convergence orders, energy series and conservation residuals.

Reporting conventions: the discrete l1 error is the mean absolute nodal
difference, l-infinity the max; the L2 error integrates the squared
difference between the interpolant and the exact solution by quadrature.
Average orders are means of log2 ratios of successive errors, oriented so
that decreasing errors give positive orders.

The energy and conservation recorders are hooks for the time integrator.
The energy-rate and conservation checks evaluate the semidiscrete
identities at the function level (exact interpolant derivatives under
quadrature, SAT deltas paired by their defining property); re-interpolating
the nodal right-hand-side vector instead would bury the identities under
collocation re-interpolation error several orders of magnitude above the
quadrature floor.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .interpolation import NodalBasis
from .operators import BoundaryRecord, boundary_mismatches, integral_of_rhs, numerical_fluxes
from .quadrature import QuadratureRule, quadrature_view


def discrete_errors(u_num, u_exact) -> tuple[float, float]:
    """(l1, linf) nodal errors: mean and max absolute difference."""
    a = np.asarray(u_num, dtype=float)
    b = np.asarray(u_exact, dtype=float)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    diff = np.abs(a - b)
    return float(diff.mean()), float(diff.max())


def l2_error(nb: NodalBasis, u_num, exact_fn, rule: QuadratureRule) -> float:
    """sqrt of the integrated squared difference u_N - u_exact.

    ``exact_fn`` takes the coordinate arrays (x) or (x, y) and is assumed
    already bound to the evaluation time.  Evaluated on the basis's
    quadrature view: in 1D its cached cardinal rows come from the
    extended-precision coefficients, whereas contracting the float64
    ``nb.coef`` (entries up to 1e9 for quintic N = 80) would leave an L2 of
    rounding noise near 1e-7.
    """
    u_num = np.asarray(u_num, dtype=float)
    return quadrature_view(nb, rule).square_integrals((), u_num, exact_fn)[1]


def average_order(errors) -> float:
    """Mean of o_j = log2(e_j / e_{j+1}) over successive refinements.

    Positive for decreasing errors; raises on nonpositive entries.
    """
    e = np.asarray(errors, dtype=float)
    if e.size < 2:
        raise ValueError("need at least two errors")
    if np.any(e <= 0) or not np.all(np.isfinite(e)):
        raise ValueError("errors must be positive and finite")
    return float(np.mean(np.log2(e[:-1] / e[1:])))


@dataclass
class RunReport:
    """Per-run results in the shape the CSV schemas expect."""

    problem: str
    method: str
    kernel: str
    n: int
    error_l1: float = math.nan
    error_linf: float = math.nan
    error_l2: float = math.nan
    energy: list = field(default_factory=list)        # (t, E) pairs
    conservation: list = field(default_factory=list)  # (t, residual) pairs
    cond_vandermonde: float = math.nan
    cond_correction: float = math.nan
    blew_up: bool = False
    blowup_time: float = math.nan
    blowup_step: int | None = None   # index of the step that left the finite range
    blowup_stage: int | None = None  # its SSPRK stage, 1..3
    failure: str | None = None       # numerical error class that stopped the run
    failure_message: str = ""
    state_max: float = math.nan
    steps: int = 0
    rhs_evals: int = 0     # RHS evaluations of the completed stagewise steps
    fused_steps: int = 0   # steps advanced in fused blocks; steps == fused_steps + rhs_evals / 3
    sigma: float | None = None
    seed: int | None = None
    rng: str | None = None

    @property
    def run_id(self) -> str:
        parts = [self.problem, self.method, self.kernel, f"N{self.n}"]
        if self.sigma is not None:
            parts.append(f"sigma{self.sigma:g}-seed{self.seed}")
        return "-".join(parts)


# Largest number of state entries an EnergyRecorder buffers (0.5 MB).
_BUFFER_ENTRIES = 1 << 16


class EnergyRecorder:
    """Hook collecting (t, int u_N^2) pairs; sums fields for systems.

    A call only copies the state into a bounded buffer.  The buffered
    states are evaluated together, in one pass over the basis's quadrature
    view, when the buffer is full, when ``series`` is read, and in
    ``finish``, which adds the L2 error of the final state to that pass.
    """

    def __init__(self, nb: NodalBasis, rule: QuadratureRule, n_fields: int = 1):
        self.nb = nb
        self.n_fields = n_fields
        self.view = quadrature_view(nb, rule)
        size = n_fields * nb.n
        self._states = np.empty((max(1, _BUFFER_ENTRIES // size), size))
        self._times: list[float] = []
        self._series: list[tuple[float, float]] = []

    def __call__(self, t: float, u: np.ndarray):
        if len(self._times) == self._states.shape[0]:
            self._evaluate()
        self._states[len(self._times)] = u
        self._times.append(t)

    def _evaluate(self, target=None, exact_fn=None):
        k = len(self._times)
        fields = self._states[:k].reshape(k * self.n_fields, self.nb.n)
        energies, l2 = self.view.square_integrals(fields, target, exact_fn)
        totals = energies.reshape(k, self.n_fields).sum(axis=1)
        self._series.extend(zip(self._times, totals.tolist()))
        self._times.clear()
        return l2

    @property
    def series(self) -> list[tuple[float, float]]:
        if self._times:
            self._evaluate()
        return self._series

    def finish(self, u_num, exact_fn) -> float:
        """Evaluate the buffered states and return the L2 error of ``u_num``
        (first-field nodal values) against ``exact_fn``, in one grid pass."""
        return self._evaluate(np.asarray(u_num, dtype=float), exact_fn)


class ConservationRecorder:
    """Hook appending (t, |int L(u) dx - (f_L - f_R)|) for an FR operator's boundary record."""

    def __init__(self, boundary: BoundaryRecord):
        self.boundary = boundary
        self.series: list[tuple[float, float]] = []

    def __call__(self, t: float, u: np.ndarray):
        f_l, f_r, _, _ = numerical_fluxes(self.boundary, u, t)
        residual = abs(integral_of_rhs(self.boundary, u, t) - (f_l - f_r))
        self.series.append((t, residual))


class MaxAbsRecorder:
    """Hook tracking the largest nodal magnitude seen along the trajectory."""

    def __init__(self):
        self.value = 0.0

    def __call__(self, t: float, u: np.ndarray):
        self.value = max(self.value, float(np.abs(u).max()))


class SatRateChecker:
    """Hook recording the SAT energy-rate excess over the continuous bound.

    The rate 2 int u_N L(u) dx is evaluated with the interpolant's exact
    derivative under quadrature and the penalty delta paired by its
    defining property, matching the semidiscrete stability identity.  The
    excess subtracts -tau^2 a g^2 / (1 + 2 tau).
    """

    def __init__(self, op, rule: QuadratureRule):
        self.op = op
        nb = op.nb
        view = quadrature_view(nb, rule)
        self.weights = view.weights
        self.psi = view.psi if view.psi is not None else nb.psi_rows(view.points)
        self.dpsi = nb.psi_deriv_rows(view.points)
        self.series: list[tuple[float, float]] = []

    def __call__(self, t: float, u: np.ndarray):
        bnd = self.op.boundary
        a = bnd.a
        vals = self.psi @ u
        dvals = self.dpsi @ u
        volume = -2.0 * a * float(self.weights @ (vals * dvals))
        u_l, u_r, g_l, g_r = boundary_mismatches(bnd, u, t)
        rate = volume + 2.0 * bnd.tau_l * max(a, 0.0) * u_l * (u_l - g_l)
        rate += 2.0 * bnd.tau_r * min(a, 0.0) * u_r * (u_r - g_r)
        bound = -bnd.tau_l ** 2 * max(a, 0.0) * g_l ** 2 / (1.0 + 2.0 * bnd.tau_l)
        self.series.append((t, rate - bound))


_FLOAT_FMT = "{:.12e}"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return _FLOAT_FMT.format(value)
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_errors_csv(path, entries):
    """entries: (problem, method, kernel, N, l1, linf, l2, order_l1, order_linf)."""
    _write_csv(path, ["problem", "method", "kernel", "N", "l1", "linf", "l2", "order_l1", "order_linf"], entries)


def write_energy_csv(path, reports):
    rows = [(r.run_id, t, e) for r in reports for t, e in r.energy]
    _write_csv(path, ["run_id", "t", "E"], rows)


def write_conservation_csv(path, reports):
    rows = [(r.run_id, t, res) for r in reports for t, res in r.conservation]
    _write_csv(path, ["run_id", "t", "residual"], rows)


def write_conditioning_csv(path, entries):
    """entries: (kernel, N, cond_A)."""
    _write_csv(path, ["kernel", "N", "cond_A"], entries)


def write_corrections_csv(path, entries):
    """entries: (kernel, N, cond_A, max_residual_cL, max_residual_cR)."""
    _write_csv(path, ["kernel", "N", "cond_A", "max_residual_cL", "max_residual_cR"], entries)
