import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbfadvect.kernels import (
    Kernel,
    cubic,
    gaussian,
    kernel_from_name,
    multiquadric,
    quintic,
    thin_plate,
)

ALL_KERNELS = [cubic(), quintic(), Kernel("phs_odd", k=1), thin_plate(1), thin_plate(2),
               gaussian(1.0), gaussian(2.5), multiquadric(1.0), multiquadric(2.0)]


def test_table_values():
    assert cubic().phi(2.0) == 8.0
    assert gaussian(1.0).phi(0.0) == 1.0
    assert multiquadric(2.0).phi(0.0) == 1.0


def test_first_and_second_derivatives_cubic_quintic():
    # phi'(r) enters every gradient as d1_over_r(r) * r.
    assert cubic().d1_over_r(2.0) * 2.0 == 12.0
    assert quintic().d1_over_r(1.0) * 1.0 == 5.0


def test_cpd_orders_match_kernel_families():
    assert gaussian(1.0).cpd_order == 0
    assert multiquadric(1.0).cpd_order == 1
    assert cubic().cpd_order == 2          # r^3 = r^(2k-1) with k = 2
    assert quintic().cpd_order == 3
    assert thin_plate(1).cpd_order == 2    # r^2 log r
    assert thin_plate(2).cpd_order == 3


def test_finite_difference_oracle_at_fixed_radius():
    h = 1e-6
    for kern in ALL_KERNELS:
        r = 0.7
        fd = (kern.phi(r + h) - kern.phi(r - h)) / (2 * h)
        assert fd == pytest.approx(kern.d1_over_r(r) * r, rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(r=st.floats(0.1, 10.0), idx=st.integers(0, len(ALL_KERNELS) - 1))
def test_derivatives_match_finite_differences(r, idx):
    kern = ALL_KERNELS[idx]
    h = 1e-6
    d1 = kern.d1_over_r(r) * r
    fd1 = (kern.phi(r + h) - kern.phi(r - h)) / (2 * h)
    assert abs(d1 - fd1) <= 1e-5 * max(1.0, abs(d1))


def test_limits_at_zero_radius():
    assert thin_plate(1).phi(0.0) == 0.0
    assert thin_plate(1).d1_over_r(0.0) * 0.0 == 0.0
    assert quintic().d1_over_r(0.0) == 0.0


def test_vectorized_evaluation_matches_scalars():
    r = np.array([0.0, 0.5, 2.0])
    kern = cubic()
    np.testing.assert_allclose(kern.phi(r), [kern.phi(v) for v in r])
    np.testing.assert_allclose(kern.d1_over_r(r), [kern.d1_over_r(v) for v in r])


def test_negative_radius_rejected():
    for kern in (cubic(), gaussian(1.0)):
        with pytest.raises(ValueError):
            kern.phi(-0.1)
        with pytest.raises(ValueError):
            kern.d1_over_r(np.array([0.2, -0.3]))


def test_kernel_from_name():
    assert kernel_from_name("cubic") == cubic()
    assert kernel_from_name("quintic") == quintic()
    assert kernel_from_name("tps2") == thin_plate(2)
    assert kernel_from_name("gaussian epsilon=4").epsilon == 4.0
    assert kernel_from_name("multiquadric,epsilon=2").epsilon == 2.0
    with pytest.raises(ValueError):
        kernel_from_name("wendland")
    with pytest.raises(ValueError):
        kernel_from_name("cubic epsilon=2")  # splines take no shape parameter
    with pytest.raises(ValueError):
        kernel_from_name("gaussian sigma=2")


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Kernel("phs_odd", k=0)
    with pytest.raises(ValueError):
        Kernel("gaussian", epsilon=0.0)
    with pytest.raises(ValueError):
        Kernel("sombrero")
