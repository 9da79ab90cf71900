"""The method table: every (problem kind, method) row builds, every other pair is refused."""

import pytest

from rbfadvect.errors import ConfigurationError
from rbfadvect.problems import _PROBLEMS, problem_by_name
from rbfadvect.runner import METHODS, RunConfig, build_run

METHOD_NAMES = list(dict.fromkeys(method for _, method in METHODS))


@pytest.mark.parametrize("method", METHOD_NAMES)
@pytest.mark.parametrize("problem", sorted(_PROBLEMS))
def test_build_run_succeeds_exactly_for_table_rows(problem, method):
    cfg = RunConfig(problem=problem, method=method, n=6, t_end=0.01)
    if (problem_by_name(problem).kind, method) in METHODS:
        setup = build_run(cfg)
        assert setup.op.variant.split("-")[0] == method
        assert setup.op.matrix.shape == (setup.u0.size, setup.u0.size)
    else:
        with pytest.raises(ConfigurationError, match="not available"):
            build_run(cfg)
