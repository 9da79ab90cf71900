"""Run orchestration: config validation, operator assembly, execution.

``METHODS`` is the one table of which boundary treatment exists for which
problem kind: ``validate_config`` accepts exactly its (kind, method)
pairs, ``build_run`` assembles through it, and the CLI takes its
``--method`` choices from it.  A run integrates the SSPRK scheme with
recording hooks and collects a RunReport.  Blow-ups do not crash a run:
the report comes back flagged with the blow-up time and infinite errors.
In a study, a run whose basis or correction system cannot be built
(NUMERICAL_ERRORS) is flagged the same way.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import (
    ConservationRecorder,
    EnergyRecorder,
    MaxAbsRecorder,
    RunReport,
    average_order,
    discrete_errors,
)
from .errors import (
    ConfigurationError,
    CorrectionBuildError,
    DegenerateCentersError,
    SingularSystemError,
)
from .interpolation import build_nodal_basis, equidistant_centers, grid_centers
from .kernels import kernel_from_name
from .operators import (
    build_fr_operator,
    sat_1d,
    sat_2d,
    sat_acoustic,
    sat_varcoeff_1d,
    usual_1d,
    usual_2d,
)
from .problems import ScatterConfig, problem_by_name, scattered_centers
from .quadrature import QuadratureRule
from .timestep import BlowUpError, TimeIntegration, integrate

# Failures of the linear algebra behind a valid config: the CLI reports them
# with their own exit code, and a study flags the row instead of aborting.
NUMERICAL_ERRORS = (SingularSystemError, DegenerateCentersError, CorrectionBuildError)

# (problem kind, method) -> assemble(problem, nb, cfg, rule), returning the
# SemidiscreteOperator.  Each row looks its assembly function up in this
# module's globals when called, so a rebinding of that global (the
# benchmark's tracer wraps build_fr_operator this way) reaches every run.
METHODS = {
    ("advection1d", "usual"): lambda p, nb, cfg, rule: usual_1d(nb, p.velocity, g=p.boundary),
    ("advection1d", "fr"): lambda p, nb, cfg, rule: build_fr_operator(
        nb, p.velocity, g=p.boundary, rule=rule, tsvd_rtol=cfg.tsvd_rtol),
    ("advection1d", "sat"): lambda p, nb, cfg, rule: sat_1d(
        nb, p.velocity, g=p.boundary, rule=rule, tau_l=cfg.tau_l, tau_r=cfg.tau_r),
    ("varcoeff1d", "sat"): lambda p, nb, cfg, rule: sat_varcoeff_1d(
        nb, p.velocity_fn, p.velocity_prime_fn, p.boundary,
        rule=rule, tau_l=cfg.tau_l, alpha=cfg.alpha_skew),
    ("system1d", "sat"): lambda p, nb, cfg, rule: sat_acoustic(
        nb, p.wave_speed, p.boundary_left, p.boundary_right, rule=rule, r0=cfg.r0, r1=cfg.r1),
    ("advection2d", "usual"): lambda p, nb, cfg, rule: usual_2d(nb, p.velocity),
    ("advection2d", "sat"): lambda p, nb, cfg, rule: sat_2d(nb, p.velocity),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one simulation or study leg."""

    problem: str
    method: str
    kernel: str = "cubic"
    n: int = 40
    m: int | None = None
    cfl: float | None = None
    t_end: float | None = None
    tau_l: float = -1.0
    tau_r: float = -1.0
    r0: float = 0.5
    r1: float = 0.5
    alpha_skew: float = 0.5
    sigma: float | None = None
    seed: int = 0
    quad_points: int = 10
    record_stride: int = 10
    tsvd_rtol: float | None = None


def validate_config(cfg: RunConfig):
    """Reject every documented precondition violation before any allocation."""
    try:
        problem = problem_by_name(cfg.problem)
    except KeyError as err:
        raise ConfigurationError(str(err)) from err
    if (problem.kind, cfg.method) not in METHODS:
        raise ConfigurationError(
            f"method {cfg.method!r} is not available for problem {cfg.problem!r}"
        )
    kern = kernel_from_name(cfg.kernel)  # raises ValueError on bad spec
    if cfg.m is not None and cfg.m < kern.cpd_order:
        raise ConfigurationError(
            f"polynomial degree bound m={cfg.m} is below the kernel CPD order {kern.cpd_order}"
        )
    if cfg.method == "sat" and not cfg.tau_l < -0.5:
        raise ConfigurationError(f"tau_L = {cfg.tau_l} violates the stability bound tau_L < -1/2")
    if problem.kind == "system1d" and not (0 < cfg.r0 < 1 and 0 < cfg.r1 < 1):
        raise ConfigurationError("R0 and R1 must lie in (0, 1)")
    for name in ("cfl", "t_end", "sigma", "alpha_skew", "tau_l", "tau_r"):
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")
    if cfg.cfl is not None and cfg.cfl <= 0:
        raise ConfigurationError("cfl must be positive")
    if cfg.sigma is not None and cfg.sigma <= 0:
        raise ConfigurationError("sigma must be positive")
    if cfg.sigma is not None and problem.kind != "advection1d":
        raise ConfigurationError("scattered centers are only supported for 1D scalar problems")
    if cfg.n < 2:
        raise ConfigurationError("need at least N = 2")
    if not 1 <= cfg.quad_points <= 64:
        raise ConfigurationError("quad_points must lie in 1..64")
    if cfg.t_end is not None and cfg.t_end < 0:
        raise ConfigurationError("t_end must be nonnegative")
    if cfg.record_stride < 1:
        raise ConfigurationError("record_stride must be >= 1")
    return problem, kern


def _default_cfl(cfg: RunConfig, kind: str) -> float:
    if cfg.cfl is not None:
        return cfg.cfl
    # The 2D SAT run needs the reduced CFL for stable computations.
    if kind == "advection2d" and cfg.method == "sat":
        return 0.01
    return 0.1


@dataclass
class RunSetup:
    """Everything assembled and ready to integrate."""

    config: RunConfig
    problem: object
    op: object
    nb: object
    rule: QuadratureRule
    u0: np.ndarray
    ti: TimeIntegration


def build_run(cfg: RunConfig) -> RunSetup:
    problem, kern = validate_config(cfg)
    rule = QuadratureRule(cfg.quad_points)
    if problem.kind == "advection2d":
        centers = grid_centers(cfg.n, cfg.n, problem.domain)
    elif cfg.sigma is not None:
        # Scattered centers lie on [0, 1], the domain of both advection1d problems.
        centers = scattered_centers(cfg.n, ScatterConfig(cfg.sigma, cfg.seed))
    else:
        centers = equidistant_centers(cfg.n, *problem.domain)
    nb = build_nodal_basis(centers, kern, cfg.m, domain=problem.domain)
    op = METHODS[problem.kind, cfg.method](problem, nb, cfg, rule)
    u0 = np.tile(problem.initial(*centers.points.T), problem.n_fields)
    t_end = cfg.t_end if cfg.t_end is not None else problem.t_end
    ti = TimeIntegration(t_end=t_end, cfl=_default_cfl(cfg, problem.kind), record_stride=cfg.record_stride)
    return RunSetup(cfg, problem, op, nb, rule, u0, ti)


def _new_report(cfg: RunConfig, kernel_name: str) -> RunReport:
    return RunReport(
        problem=cfg.problem, method=cfg.method, kernel=kernel_name, n=cfg.n,
        sigma=cfg.sigma, seed=cfg.seed if cfg.sigma is not None else None,
        rng="numpy-pcg64" if cfg.sigma is not None else None,
    )


def execute_run(cfg: RunConfig) -> RunReport:
    """Integrate one configured run and collect all diagnostics."""
    setup = build_run(cfg)
    problem, op, nb, rule = setup.problem, setup.op, setup.nb, setup.rule

    report = _new_report(cfg, nb.kernel.name)
    report.cond_vandermonde = nb.vandermonde_cond
    report.cond_correction = op.cond_correction

    energy = EnergyRecorder(nb, rule, n_fields=problem.n_fields)
    maxabs = MaxAbsRecorder()
    hooks = [energy, maxabs]
    if op.variant == "fr":
        hooks.append(ConservationRecorder(op.boundary))

    u_final = None
    try:
        u_final, trace = integrate(op, setup.u0, setup.ti, hooks)
        report.steps = trace.steps
        report.rhs_evals = trace.rhs_evals
        report.fused_steps = trace.fused_steps
    except BlowUpError as err:
        report.blew_up = True
        report.blowup_time = err.t
        report.blowup_step = err.step
        report.blowup_stage = err.stage
        report.steps = err.step or 0
        report.rhs_evals = err.rhs_evals
        report.fused_steps = err.fused_steps
        report.error_l1 = report.error_linf = report.error_l2 = math.inf

    report.state_max = maxabs.value
    for hook in hooks:
        if isinstance(hook, ConservationRecorder):
            report.conservation = hook.series

    if u_final is not None and problem.exact is not None:
        t_end = setup.ti.t_end
        exact_nodal = problem.exact(t_end, *nb.centers.points.T)
        exact_fn = lambda *x: problem.exact(t_end, *x)
        n_per_field = nb.n
        report.error_l1, report.error_linf = discrete_errors(u_final[:n_per_field], exact_nodal)
        # The L2 error joins the last pass over the buffered energy samples.
        report.error_l2 = energy.finish(u_final[:n_per_field], exact_fn)
    report.energy = energy.series
    return report


def _study_leg(cfg: RunConfig) -> RunReport:
    """execute_run, with a numerical failure flagged like a blow-up."""
    try:
        return execute_run(cfg)
    except NUMERICAL_ERRORS as err:
        report = _new_report(cfg, kernel_from_name(cfg.kernel).name)
        report.failure = type(err).__name__
        report.failure_message = str(err)
        report.error_l1 = report.error_linf = report.error_l2 = math.inf
        return report


def run_study(cfg: RunConfig, n_values):
    """Execute one config across several N, returning reports plus orders.

    Neither a blow-up nor a numerical failure aborts the study: the row
    carries infinite errors, and orders over any non-finite column come
    back as nan.
    """
    reports = [_study_leg(replace(cfg, n=int(n))) for n in n_values]
    orders = {}
    for key in ("error_l1", "error_linf"):
        errs = [getattr(r, key) for r in reports]
        if len(errs) >= 2 and all(math.isfinite(e) and e > 0 for e in errs):
            orders[key] = average_order(errs)
        else:
            orders[key] = math.nan
    return reports, orders
