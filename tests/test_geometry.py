import math

import pytest
from hypothesis import given, settings, strategies as st

from cylbif.geometry import SpaceForm, c_k, radial_drift, s_k, sphere_volume


def taylor_sinh(x, terms=25):
    total, term = 0.0, x
    for i in range(terms):
        total += term
        term *= x * x / ((2 * i + 2) * (2 * i + 3))
    return total


def taylor_cos(x, terms=25):
    total, term = 0.0, 1.0
    for i in range(terms):
        total += term
        term *= -x * x / ((2 * i + 1) * (2 * i + 2))
    return total


def taylor_cosh(x, terms=25):
    total, term = 0.0, 1.0
    for i in range(terms):
        total += term
        term *= x * x / ((2 * i + 1) * (2 * i + 2))
    return total


class TestSpaceForm:
    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError, match="n >= 2"):
            SpaceForm(1, 1.0)

    def test_rejects_flat(self):
        with pytest.raises(ValueError, match="nonzero"):
            SpaceForm(2, 0.0)

    @pytest.mark.parametrize("k", [math.nan, -math.inf, math.inf])
    def test_rejects_nonfinite(self, k):
        with pytest.raises(ValueError, match="k must be finite"):
            SpaceForm(2, k)

    def test_rejects_ball_not_fitting(self):
        with pytest.raises(ValueError, match="pi/sqrt"):
            SpaceForm(2, 12.0)

    def test_general_curvature_accepted(self):
        SpaceForm(2, -3.7)
        SpaceForm(5, 2.5)


class TestWarpingFunctions:
    def test_s_k_sphere_quarter(self):
        assert s_k(SpaceForm(2, 1.0), math.pi / 2) == pytest.approx(1.0, abs=1e-15)

    def test_s_k_hyperbolic_origin(self):
        assert s_k(SpaceForm(2, -1.0), 0.0) == 0.0

    def test_s_k_hyperbolic_against_series(self):
        assert s_k(SpaceForm(2, -1.0), 1.0) == pytest.approx(taylor_sinh(1.0), rel=1e-14)

    def test_c_k_trivial_values(self):
        assert c_k(SpaceForm(2, 1.0), 0.0) == 1.0
        assert c_k(SpaceForm(2, -1.0), 0.0) == 1.0

    def test_c_k_sphere_against_series(self):
        assert c_k(SpaceForm(2, 1.0), 1.0) == pytest.approx(taylor_cos(1.0), rel=1e-14)

    def test_radius_bound_named_in_error(self):
        sf = SpaceForm(2, 4.0)
        with pytest.raises(ValueError, match="pi/sqrt"):
            s_k(sf, 1.6)
        with pytest.raises(ValueError, match="r >= 0"):
            c_k(sf, -0.1)


class TestRadialDrift:
    def test_vanishes_at_sphere_equator(self):
        assert radial_drift(SpaceForm(2, 1.0), math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_hyperbolic_value_against_series(self):
        expected = 2.0 * taylor_cosh(1.0) / taylor_sinh(1.0)
        got = radial_drift(SpaceForm(3, -1.0), 1.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(2.62607057, rel=1e-8)

    def test_near_origin_leading_order(self):
        assert radial_drift(SpaceForm(2, -1.0), 1e-4) == pytest.approx(1e4, rel=1e-6)

    def test_origin_rejected(self):
        with pytest.raises(ValueError, match="r=0"):
            radial_drift(SpaceForm(2, 1.0), 0.0)


class TestSphereVolume:
    def test_circle(self):
        assert sphere_volume(2) == pytest.approx(2 * math.pi, rel=1e-15)

    def test_two_sphere(self):
        assert sphere_volume(3) == pytest.approx(4 * math.pi, rel=1e-15)

    def test_three_sphere(self):
        assert sphere_volume(4) == pytest.approx(2 * math.pi**2, rel=1e-15)

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            sphere_volume(1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=6),
    k=st.floats(min_value=-4.0, max_value=4.0).filter(lambda v: abs(v) > 1e-3),
    frac=st.floats(min_value=1e-3, max_value=0.95),
)
def test_pythagorean_identity(n, k, frac):
    if k > 0 and not 1.0 < math.pi / math.sqrt(k):
        return
    sf = SpaceForm(n, k)
    r = frac * min(sf.r_max, 3.0)
    c, s = c_k(sf, r), s_k(sf, r)
    # machine-level relative to the magnitudes entering the cancellation
    assert abs(c * c + k * s * s - 1.0) <= 1e-14 * (1.0 + c * c + abs(k) * s * s)


@pytest.mark.parametrize("k", [1.0, -1.0, 0.5, -2.0])
def test_derivative_identities_by_central_difference(k):
    sf = SpaceForm(3, k)
    h = 1e-6
    for r in (0.2, 0.7, 1.1):
        if k > 0 and r + h >= sf.r_max:
            continue
        ds = (s_k(sf, r + h) - s_k(sf, r - h)) / (2 * h)
        dc = (c_k(sf, r + h) - c_k(sf, r - h)) / (2 * h)
        assert ds == pytest.approx(c_k(sf, r), rel=1e-8)
        assert dc == pytest.approx(-k * s_k(sf, r), rel=1e-8)


def test_unit_curvature_reduces_to_trig():
    sphere, hyper = SpaceForm(2, 1.0), SpaceForm(2, -1.0)
    for r in (0.1, 0.9, 1.7):
        assert s_k(sphere, r) == math.sin(r)
        assert c_k(sphere, r) == math.cos(r)
        assert s_k(hyper, r) == math.sinh(r)
        assert c_k(hyper, r) == math.cosh(r)
