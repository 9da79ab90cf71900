"""The benchmark under benchmarks/ wraps rbfadvect callables by name.

Its tracer raises KeyError (patch_attr) or LookupError (patch_function)
for any wrapped name that went missing, so a renamed function or method
would crash every benchmark run before its first measurement.  These
tests install both wrapping plans, run one short configuration under each
and check the counters the benchmark relies on.
"""

from pathlib import Path

import pytest

from rbfadvect import runner
from rbfadvect.runner import RunConfig

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
CONFIG = RunConfig(problem="inflow_bump", method="sat", kernel="cubic", n=10, t_end=0.01)
# One tiny run per operator assembly function.
ASSEMBLY_CONFIGS = [CONFIG] + [
    RunConfig(problem=problem, method=method, kernel="cubic", n=n, t_end=0.01)
    for problem, method, n in (("inflow_bump", "usual", 6), ("inflow_bump", "fr", 6),
                               ("varcoeff", "sat", 6), ("acoustic", "sat", 6),
                               ("advect2d", "usual", 5), ("advect2d", "sat", 5))
]


# Long enough for integrate to advance stride blocks with the fused step
# product; only the block holding the truncated last step runs stagewise.
FUSED_CONFIG = RunConfig(problem="periodic_sin2", method="sat", kernel="cubic", n=10,
                         t_end=0.5, record_stride=5)


@pytest.fixture()
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import layers
    import tracer

    return layers, tracer


def _traced_run(bench_modules, plan: str, config: RunConfig = CONFIG):
    layers, tracer = bench_modules
    recorder = tracer.Tracer()
    try:
        getattr(layers, plan)(recorder)
        report = runner.execute_run(config)
    finally:
        recorder.restore()
    return report, recorder.take()


def test_probes_bind_and_count_steps(bench_modules):
    report, spans = _traced_run(bench_modules, "install_probes")
    assert report.steps > 0
    assert spans.counts["timestep.steps"] == report.steps
    assert spans.calls("runner.build_run") == 1
    assert spans.calls("timestep.integrate") == 1


def test_trace_binds_every_layer(bench_modules):
    for config in ASSEMBLY_CONFIGS:
        report, spans = _traced_run(bench_modules, "install_trace", config)
        label = f"{config.problem}/{config.method}"
        steps = spans.counts["timestep.steps"]
        assert steps == report.steps > 0, label
        assert spans.calls("operators.init") >= 1, label
        assert spans.calls("operators.rhs") == 3 * steps, label
        # FR builds an auxiliary basis for its correction functions.
        assert spans.calls("interpolation.build_nodal_basis") == (2 if config.method == "fr" else 1), label
        assert spans.counts["interpolation.eval.rows"] > 0, label


def test_fused_run_counts(bench_modules):
    # The probes count steps from the integration trace: fused and stagewise.
    report, spans = _traced_run(bench_modules, "install_probes", FUSED_CONFIG)
    assert report.fused_steps > 0
    assert spans.counts["timestep.steps"] == report.steps
    # The trace counts ssprk33_step calls: the stagewise steps only.
    report, spans = _traced_run(bench_modules, "install_trace", FUSED_CONFIG)
    steps = spans.counts["timestep.steps"]
    assert steps == report.steps - report.fused_steps == report.rhs_evals // 3
    assert spans.calls("operators.rhs") == 3 * steps


def test_restore_unwraps_everything(bench_modules):
    from rbfadvect import interpolation

    original = vars(interpolation.NodalBasis)["basis_rows"]
    _traced_run(bench_modules, "install_trace")
    assert vars(interpolation.NodalBasis)["basis_rows"] is original
    assert not hasattr(runner.execute_run, "__wrapped__")
