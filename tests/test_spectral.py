import math

import numpy as np
import pytest

from cylbif.geometry import SpaceForm, radial_drift, s_k, sphere_volume
from cylbif.oracle import fd_lambda1
from cylbif.radial import shoot
from cylbif.spectral import (
    SCAN_START,
    SCAN_STEP,
    _SCAN_BLOCK,
    _profile_integral,
    find_lambda1,
    ground_state,
)

J01_SQUARED = 5.7831859629467845  # first Bessel J0 zero squared: flat-disk eigenvalue


class TestFindLambda1:
    def test_n3_closed_forms(self):
        # v = S_k u reduces the equation to v'' + (lam + k) v = 0 with
        # v(0) = v(1) = 0, so lambda1 = pi^2 - k
        assert find_lambda1(SpaceForm(3, 1.0)) == pytest.approx(math.pi**2 - 1, rel=1e-9)
        assert find_lambda1(SpaceForm(3, -1.0)) == pytest.approx(math.pi**2 + 1, rel=1e-9)

    def test_n2_positive_curvature_below_flat_disk(self):
        lam = find_lambda1(SpaceForm(2, 1.0))
        assert 0.0 < lam < J01_SQUARED

    def test_n2_negative_curvature_above_flat_disk(self):
        assert find_lambda1(SpaceForm(2, -1.0)) > J01_SQUARED

    @pytest.mark.parametrize("k", [1.0, -1.0])
    def test_matches_fd_oracle(self, k):
        sf = SpaceForm(2, k)
        lam = find_lambda1(sf)
        fd = fd_lambda1(sf, 512)
        assert abs(fd.value - lam) / lam < 1e-6
        assert abs(fd.value - lam) <= 3.0 * fd.error

    def test_boundary_value_decreasing_through_crossing(self):
        sf = SpaceForm(2, 1.0)
        lam = find_lambda1(sf)
        assert shoot(sf, lam - 0.01)[0] > 0.0 > shoot(sf, lam + 0.01)[0]

    def test_crossing_beyond_first_scan_block(self):
        # lambda1 of the 16-ball lies past the first batched block of the
        # coarse scan; the root must still be the first crossing
        sf = SpaceForm(16, -1.0)
        lam = find_lambda1(sf)
        assert lam > SCAN_START + _SCAN_BLOCK * SCAN_STEP
        assert np.all(shoot(sf, np.linspace(SCAN_START, lam - 0.01, 64))[0] > 0.0)
        assert shoot(sf, lam + 0.01)[0] < 0.0
        fd = fd_lambda1(sf, 256)
        assert abs(fd.value - lam) <= 3.0 * fd.error

    def test_eigenvalue_decreases_with_curvature(self):
        assert find_lambda1(SpaceForm(2, 1.0)) < find_lambda1(SpaceForm(2, -1.0))
        assert find_lambda1(SpaceForm(3, 1.0)) < find_lambda1(SpaceForm(3, -1.0))


class TestGroundState:
    def test_n3_exact_normalization(self, ground_states):
        # for n=3 the normalization integral is 1/(2 pi^2) exactly, so s = 1/2
        # and phi'(1) = -1/(2 S_k(1))
        for k in (1.0, -1.0):
            gs = ground_states[(3, k)]
            assert gs.s == pytest.approx(0.5, rel=1e-10)
            assert gs.dphi1 == pytest.approx(
                -1.0 / (2.0 * s_k(SpaceForm(3, k), 1.0)), rel=1e-10
            )

    def test_norm_residual_small(self, ground_states):
        for gs in ground_states.values():
            assert gs.norm_residual < 1e-9

    def test_normalization_integral_direct(self, ground_states):
        # independent trapezoid-free check: 2 pi Vol(S^(n-1)) int phi^2 S^(n-1) = 1
        from numpy.polynomial.legendre import leggauss

        gs = ground_states[(2, -1.0)]
        sf = gs.sf
        nodes, weights = leggauss(200)
        r = 0.5 * (nodes + 1.0)
        w = 0.5 * weights
        phi = gs.phi(r)
        sk = np.array([s_k(sf, float(ri)) for ri in r])
        integral = float(np.sum(w * phi * phi * sk ** (sf.n - 1)))
        assert 2.0 * math.pi * sphere_volume(sf.n) * integral == pytest.approx(
            1.0, abs=1e-9
        )

    def test_boundary_second_derivative_identity(self, ground_states):
        for (n, k), gs in ground_states.items():
            drift = radial_drift(SpaceForm(n, k), 1.0)
            assert gs.ddphi1 + drift * gs.dphi1 == 0.0

    def test_dphi1_negative_phi_positive(self, ground_states):
        for gs in ground_states.values():
            assert gs.dphi1 < 0.0
            assert np.all(gs.radial.u[:-1] > 0.0)
            assert abs(gs.radial.u1) < 1e-10

    def test_scaling_linearity_and_uniqueness(self, ground_states):
        # doubling s doubles phi and breaks the unit-mass invariant by 4x;
        # restoring the invariant recovers the original s uniquely
        gs = ground_states[(2, 1.0)]
        integral = _profile_integral(gs.radial, gs.sf)
        mass = 2.0 * math.pi * sphere_volume(gs.sf.n)
        assert mass * gs.s**2 * integral == pytest.approx(1.0, rel=1e-10)
        doubled = mass * (2 * gs.s) ** 2 * integral
        assert doubled == pytest.approx(4.0, rel=1e-10)
        s_restored = 1.0 / math.sqrt(mass * integral)
        assert s_restored == pytest.approx(gs.s, rel=1e-12)

    def test_summary_fields(self, ground_states):
        summary = ground_states[(3, 1.0)].summary()
        assert set(summary) == {"n", "k", "lambda1", "s", "dphi1", "ddphi1", "norm_residual"}
        assert summary["lambda1"] == pytest.approx(math.pi**2 - 1, rel=1e-9)
