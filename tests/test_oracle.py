import math

import numpy as np
import pytest
from scipy.linalg import cholesky_banded

from cylbif.dispersion import sigma_ode
from cylbif.geometry import SpaceForm
from cylbif.oracle import (
    FDGrid,
    _flux_rows,
    fd_dtn_diag,
    fd_dtn_matrix,
    fd_lambda1,
    fd_lambda1_single,
    fd_sigma,
    radial_operator_tridiagonal,
)
from cylbif.spectral import find_lambda1


class TestFDGrid:
    def test_bounds(self):
        FDGrid(16)
        FDGrid(64, 32)
        with pytest.raises(ValueError, match="m >= 16"):
            FDGrid(8)
        with pytest.raises(ValueError, match="even"):
            FDGrid(64, 33)
        with pytest.raises(ValueError, match="even"):
            FDGrid(64, 8)


class TestFDLambda1:
    @pytest.mark.parametrize("k,expected", [(1.0, math.pi**2 - 1), (-1.0, math.pi**2 + 1)])
    def test_n3_closed_form_within_estimate(self, k, expected):
        fd = fd_lambda1(SpaceForm(3, k), 512)
        assert abs(fd.value - expected) <= fd.error

    @pytest.mark.parametrize("k", [1.0, -1.0])
    def test_n2_matches_shooting(self, k):
        sf = SpaceForm(2, k)
        fd = fd_lambda1(sf, 512)
        lam = find_lambda1(sf)
        assert abs(fd.value - lam) / lam < 1e-6

    def test_second_order_convergence(self):
        sf = SpaceForm(2, -1.0)
        ref = find_lambda1(sf)
        errs = [abs(fd_lambda1_single(sf, m) - ref) for m in (128, 256, 512)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.8 <= p <= 2.2 for p in orders)

    @pytest.mark.parametrize("k,m", [(0.7200705196272696, 512), (9.5, 256)])
    def test_smallest_eigenvalue_where_inverse_iteration_stalled(self, k, m):
        # a Rayleigh-quotient stopping test at 1e-14 looped to its step cap
        # on these two; at n = 3, lambda1 = pi^2 - k exactly
        sf = SpaceForm(3, k)
        diag, off = radial_operator_tridiagonal(sf, m)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        coarse = fd_lambda1_single(sf, m)
        assert coarse == pytest.approx(np.linalg.eigvalsh(dense)[0], rel=1e-9)
        exact = math.pi**2 - k
        fine = fd_lambda1_single(sf, 2 * m)
        assert 1.8 <= math.log2(abs(coarse - exact) / abs(fine - exact)) <= 2.2

    def test_discrete_operator_is_spd(self):
        # Cholesky of the symmetric tridiagonal form must succeed
        diag, off = radial_operator_tridiagonal(SpaceForm(3, 1.0), 128)
        band = np.zeros((2, len(diag)))
        band[0, 1:] = off
        band[1, :] = diag
        cholesky_banded(band)  # raises if not SPD


@pytest.mark.parametrize("n,k", [(2, 1.0), (3, -1.0), (4, 2.5)])
def test_symmetric_form_matches_flux_rows(n, k):
    # conjugating by sqrt of the cell measures keeps the diagonal and turns
    # each pair of flux-form off-diagonals into their geometric mean
    lower, diag, upper, _, _ = _flux_rows(SpaceForm(n, k), 64)
    sym_diag, sym_off = radial_operator_tridiagonal(SpaceForm(n, k), 64)
    assert np.array_equal(sym_diag, diag)
    np.testing.assert_allclose(sym_off**2, lower * upper, rtol=1e-14, atol=0.0)


class TestFDSigma:
    def test_converges_to_ode_route_second_order(self, ground_states):
        gs = ground_states[(2, 1.0)]
        sf = SpaceForm(2, 1.0)
        for t_period, j in ((1.7, 1), (2.9, 2)):
            ref = sigma_ode(gs, sf, t_period, j)
            errs = [abs(fd_sigma(gs, sf, t_period, j, m) - ref) for m in (64, 128, 256, 512)]
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
            assert all(1.8 <= p <= 2.2 for p in orders)

    def test_mode_rescaling_to_discretization_error(self, ground_states):
        gs = ground_states[(3, -1.0)]
        sf = SpaceForm(3, -1.0)
        # value at m = 256 with the m/2 refinement estimate |f_m - f_(m/2)| / 3
        a, a_half = fd_sigma(gs, sf, 3.0, 2, 256), fd_sigma(gs, sf, 3.0, 2, 128)
        b, b_half = fd_sigma(gs, sf, 1.5, 1, 256), fd_sigma(gs, sf, 1.5, 1, 128)
        bar_a, bar_b = abs(a - a_half) / 3.0, abs(b - b_half) / 3.0
        assert abs(a - b) <= 3.0 * (bar_a + bar_b) + 1e-10

    def test_vanishes_near_t_star(self, ground_states, bifurcation_reports):
        gs = ground_states[(2, 1.0)]
        sf = SpaceForm(2, 1.0)
        t_star = bifurcation_reports[(2, 1.0)].t_star
        vals = [abs(fd_sigma(gs, sf, t_star, 1, m)) for m in (64, 128, 256)]
        assert vals[2] < vals[0]
        assert vals[2] < 5e-4


class TestFDDtN:
    def test_coupled_matrix_structure(self, ground_states):
        gs = ground_states[(2, 1.0)]
        sf = SpaceForm(2, 1.0)
        matrix = fd_dtn_matrix(gs, sf, 2.5, 32, 32, method="coupled")
        scale = np.linalg.norm(matrix)
        assert np.linalg.norm(matrix - matrix.T) / scale < 5e-3
        assert np.linalg.norm(matrix - np.diag(np.diag(matrix))) / scale < 5e-3

    def test_coupled_agrees_with_per_mode(self, ground_states):
        # the separation-of-variables shortcut must match the genuinely
        # coupled 2D solve
        gs = ground_states[(2, 1.0)]
        sf = SpaceForm(2, 1.0)
        coupled = fd_dtn_matrix(gs, sf, 2.5, 32, 32, method="coupled")
        fast = fd_dtn_matrix(gs, sf, 2.5, 32, 32, method="per_mode")
        assert np.max(np.abs(coupled - fast)) <= 1e-8 * np.max(np.abs(fast))

    def test_diag_matches_sigma_within_bars(self, ground_states):
        gs = ground_states[(2, -1.0)]
        sf = SpaceForm(2, -1.0)
        t_period = 3.0
        m, m_t = 64, 64
        diag = fd_dtn_diag(gs, sf, t_period, m, m_t)
        bar_r = np.abs(diag - fd_dtn_diag(gs, sf, t_period, m // 2, m_t))
        refined_t = fd_dtn_diag(gs, sf, t_period, m, 2 * m_t)[: m_t // 2 - 1]
        bar_t = np.abs(refined_t - diag)
        for j in range(1, m_t // 2):
            target = sigma_ode(gs, sf, t_period, j)
            bar = 2.0 * (bar_r[j - 1] + bar_t[j - 1]) + 1e-8 * (1.0 + abs(target))
            assert abs(diag[j - 1] - target) <= bar

    def test_unknown_method_rejected(self, ground_states):
        gs = ground_states[(2, 1.0)]
        with pytest.raises(ValueError, match="unknown method"):
            fd_dtn_matrix(gs, SpaceForm(2, 1.0), 2.5, 32, 32, method="magic")
