import numpy as np
import pytest

from rbfadvect.errors import DimensionError, SingularSystemError
from rbfadvect.linalg import condition_number, lu_factor, solve


def lu_solve(m, rhs):
    return solve(lu_factor(m), rhs)


def test_identity_factorization_is_trivial():
    f = lu_factor(np.eye(3))
    assert not f.singular
    np.testing.assert_array_equal(solve(f, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_forced_pivot_swaps_rows():
    # A zero leading entry needs a row exchange.
    f = lu_factor([[0.0, 1.0], [1.0, 0.0]])
    assert not f.singular
    x = solve(f, np.array([2.0, 3.0]))
    np.testing.assert_allclose(x, [3.0, 2.0])


def test_zero_matrix_flags_singular():
    f = lu_factor(np.zeros((2, 2)))
    assert f.singular
    with pytest.raises(SingularSystemError):
        solve(f, np.zeros(2))


def test_singularity_threshold_is_cond_one_over_eps():
    limit = 1.0 / np.finfo(float).eps
    below = np.diag([1.0, 1.0 / (0.99 * limit)])
    above = np.diag([1.0, 1.0 / (1.01 * limit)])
    assert condition_number(below) < limit <= condition_number(above)
    assert not lu_factor(below).singular
    assert lu_factor(above).singular
    # The caller's condition number decides; nan and inf are flagged.
    assert lu_factor(np.zeros((2, 2)), condition_number(np.zeros((2, 2)))).singular
    assert lu_factor(np.eye(2), float("nan")).singular
    assert not lu_factor(np.eye(2), 1.0).singular


def test_lapack_singularity_raises_singular_system_error():
    # An unflagged system that LAPACK still finds exactly singular.
    with pytest.raises(SingularSystemError):
        solve(lu_factor(np.zeros((2, 2)), 1.0), np.ones(2))


def test_solve_identity_and_diagonal():
    np.testing.assert_allclose(lu_solve(np.eye(3), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    np.testing.assert_allclose(lu_solve(np.diag([2.0, 4.0]), [2.0, 4.0]), [1.0, 1.0])


def test_solve_recovers_constructed_solution(rng):
    # Oracle: build the right-hand side from a known x.
    a = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
    x = rng.standard_normal(5)
    got = lu_solve(a, a @ x)
    assert np.abs(got - x).max() <= 1e-10 * max(1.0, np.abs(x).max())


def test_solve_supports_matrix_right_hand_sides(rng):
    a = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    x = rng.standard_normal((6, 3))
    np.testing.assert_allclose(lu_solve(a, a @ x), x, atol=1e-10)


def test_dimension_errors():
    with pytest.raises(DimensionError):
        lu_factor(np.zeros((2, 3)))
    f = lu_factor(np.eye(3))
    with pytest.raises(DimensionError):
        solve(f, np.zeros(4))
    with pytest.raises(DimensionError):
        condition_number(np.zeros((2, 3)))


def test_condition_number_basics():
    assert condition_number(np.eye(4)) == 1.0
    assert condition_number(np.diag([1.0, 1e-6])) == pytest.approx(1e6)
    assert condition_number(np.zeros((2, 2))) == np.inf


def test_condition_number_permutation_invariant(rng):
    a = rng.standard_normal((6, 6))
    perm = rng.permutation(6)
    assert condition_number(a[perm][:, perm]) == pytest.approx(condition_number(a), rel=1e-12)


def test_condition_number_scaling_invariant(rng):
    a = rng.standard_normal((5, 5))
    base = condition_number(a)
    for c in (3.0, -0.25, 1e8):
        assert condition_number(c * a) == pytest.approx(base, rel=1e-12)


def test_correction_matrix_conditioning_is_pathological(cubic_basis_10, rule):
    # The construction matrix for the boundary corrections is structurally
    # rank-deficient (its integral rows sum to the difference of its two
    # boundary rows whenever constants are reproduced), so the computed
    # condition number sits at the rounding floor, far above 1e9.  The
    # acceptance suite compares against the tabulated magnitudes.
    from rbfadvect.correction import build_corrections

    cf = build_corrections(cubic_basis_10, rule)
    assert cf.cond > 1e9
