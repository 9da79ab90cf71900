"""Which rbfadvect callables the benchmark wraps, and the metrics built from them.

Two plans share span names.  ``install_probes`` wraps the few calls that
the end-to-end metrics need (set-up and integration time, step counts);
``install_trace`` wraps the public functions and methods of every module
for the per-layer metrics.  Span names are ``<module>.<function>``;
metric names append the quantity: ``s`` (inclusive), ``self_s``, ``calls``
or a counter.
"""

import numpy as np

from rbfadvect import (
    cli,
    correction,
    diagnostics,
    interpolation,
    kernels,
    linalg,
    operators,
    quadrature,
    runner,
    timestep,
)

# Everything before the first step of a run.  build_run covers the basis,
# operator and correction builds of every run; the conditioning command
# calls the other three directly, through its own bindings.
SETUP_SPANS = (
    "runner.build_run",
    "interpolation.build_nodal_basis",
    "correction.build_corrections",
    "correction.verify_corrections",
)

# A layer that only some workloads use reports calls, not time: a time that
# reads 0 on every run of the other workloads would look like a fixed value.
PER_LAYER = (
    "runner.build_run.s",
    "runner.execute_run.s",
    "interpolation.build_nodal_basis.self_s",
    "interpolation.build_nodal_basis.calls",
    "interpolation.assemble_vandermonde.s",
    "interpolation.eval.self_s",
    "interpolation.eval.rows",
    "interpolation.differentiation_matrix.s",
    "kernels.phi.evals",
    "linalg.lu_factor.s",
    "linalg.lu_factor.calls",
    "linalg.solve.s",
    "linalg.solve.calls",
    "linalg.condition_number.s",
    "quadrature.mass_vector.calls",
    "quadrature.inner_product_matrix.calls",
    "quadrature.grid.points",
    "correction.build_corrections.calls",
    "correction.verify_corrections.calls",
    "operators.init.s",
    "operators.rhs.self_s",
    "operators.rhs.calls",
    "operators.post_step.s",
    "timestep.steps",
    "timestep.ssprk33_step.self_s",
    "timestep.integrate.self_s",
    "diagnostics.hooks.s",
    "diagnostics.hooks.calls",
    "diagnostics.recorder_init.s",
    "diagnostics.l2_error.s",
    "diagnostics.csv.calls",
    "cli.main.calls",
    "trace.overhead_s",
)

COUNTERS = ("interpolation.eval.rows", "kernels.phi.evals", "quadrature.grid.points",
            "timestep.steps")


def unit(metric: str) -> str:
    return "s" if metric.endswith("_s") or metric.endswith(".s") else "count"


def layer_value(spans, metric: str):
    """One per-layer metric of a traced pass (trace.overhead_s excepted)."""
    if metric in COUNTERS:
        return spans.counts.get(metric, 0)
    span, quantity = metric.rsplit(".", 1)
    if quantity == "s":
        return spans.inclusive(span)
    if quantity == "self_s":
        return spans.exclusive(span)
    return spans.calls(span)


def _note_build(tracer):
    def note(args, setup):
        tracer.notes.append((setup.config, setup.nb.n))
    return note


def _count_steps(tracer):
    def count(args, result):
        tracer.counts["timestep.steps"] += result[1].steps
    return count


def install_probes(tracer):
    """Wrap only the bindings the end-to-end metrics read."""
    tracer.patch_attr(runner, "build_run",
                      tracer.spanned(runner.build_run, "runner.build_run", _note_build(tracer)))
    tracer.patch_attr(runner, "integrate",
                      tracer.spanned(runner.integrate, "timestep.integrate", _count_steps(tracer)))
    for span in SETUP_SPANS[1:]:
        name = span.split(".")[1]
        tracer.patch_attr(cli, name, tracer.spanned(getattr(cli, name), span))


def install_trace(tracer):
    """Wrap the public functions and methods of every rbfadvect layer."""
    def count(key, measure):
        def on_return(args, result):
            tracer.counts[key] += measure(args, result)
        return on_return

    def fn(span, func, on_return=None):
        tracer.patch_function(func, tracer.spanned(func, span, on_return))

    def method(span, cls, attr, on_return=None):
        tracer.patch_attr(cls, attr, tracer.spanned(vars(cls)[attr], span, on_return))

    fn("runner.build_run", runner.build_run, _note_build(tracer))
    fn("runner.execute_run", runner.execute_run)

    fn("interpolation.build_nodal_basis", interpolation.build_nodal_basis)
    fn("interpolation.assemble_vandermonde", interpolation.assemble_vandermonde)
    rows = count("interpolation.eval.rows", lambda args, result: result.size)
    for attr in ("basis_rows", "deriv_basis_rows", "psi_rows", "psi_deriv_rows"):
        method("interpolation.eval", interpolation.NodalBasis, attr, rows)
    method("interpolation.differentiation_matrix", interpolation.NodalBasis,
           "differentiation_matrix")

    for attr in ("phi", "d1_over_r"):
        tracer.patch_attr(kernels.Kernel, attr, tracer.counted(
            vars(kernels.Kernel)[attr], "kernels.phi.evals", lambda args, result: np.size(args[1])))

    fn("linalg.lu_factor", linalg.lu_factor)
    fn("linalg.solve", linalg.solve)
    fn("linalg.condition_number", linalg.condition_number)

    fn("quadrature.mass_vector", quadrature.mass_vector)
    fn("quadrature.inner_product_matrix", quadrature.inner_product_matrix)
    points = count("quadrature.grid.points", lambda args, result: len(result[1]))
    for func in (quadrature.quadrature_grid, quadrature.quadrature_grid_1d,
                 quadrature.quadrature_grid_2d):
        fn("quadrature.grid", func, points)

    fn("correction.build_corrections", correction.build_corrections)
    fn("correction.verify_corrections", correction.verify_corrections)

    fn("operators.init", operators.build_fr_operator)
    for cls in vars(operators).values():
        if isinstance(cls, type) and issubclass(cls, operators.SemidiscreteOperator):
            for attr, span in (("__init__", "operators.init"), ("rhs", "operators.rhs"),
                               ("post_step", "operators.post_step")):
                if attr in vars(cls):
                    method(span, cls, attr)

    fn("timestep.integrate", timestep.integrate)
    fn("timestep.ssprk33_step", timestep.ssprk33_step,
       count("timestep.steps", lambda args, result: 1))

    for cls in (diagnostics.EnergyRecorder, diagnostics.MaxAbsRecorder,
                diagnostics.ConservationRecorder):
        method("diagnostics.hooks", cls, "__call__")
        method("diagnostics.recorder_init", cls, "__init__")
    fn("diagnostics.l2_error", diagnostics.l2_error)
    for func in (diagnostics.write_errors_csv, diagnostics.write_energy_csv,
                 diagnostics.write_conservation_csv, diagnostics.write_conditioning_csv,
                 diagnostics.write_corrections_csv):
        fn("diagnostics.csv", func)

    fn("cli.main", cli.main)
