import math

import numpy as np
import pytest

from cylbif.geometry import SpaceForm, s_k, sphere_volume
from cylbif.oracle import fd_lambda1
from cylbif.radial import shoot
from cylbif.spectral import (
    SCAN_START,
    SCAN_STEP,
    _SCAN_BLOCK,
    _profile_integral,
    bracketed_root,
    find_lambda1,
    ground_state,
)

J01_SQUARED = 5.7831859629467845  # first Bessel J0 zero squared: flat-disk eigenvalue


REL = 1e-11


def _width_rule(a, fa, b, fb):
    return b - a <= REL * 0.5 * (a + b)


def _residual_rule(a, fa, b, fb):
    return min(abs(fa), abs(fb)) < 1e-12


def _bisection_count(a, b, root):
    # halvings that take the bracket [a, b] to width REL * root
    return math.ceil(math.log2((b - a) / (REL * root)))


class TestBracketedRoot:
    # (f, a, b, root, evaluation bound under the width rule)
    CASES = {
        "linear": (lambda t: 0.7 - 0.3 * t, 1.0, 3.0, 7.0 / 3.0, 3),
        "steep-exponential": (lambda t: math.exp(20.0 * (t - 1.0)) - 2.0, 0.5, 2.0,
                              1.0 + math.log(2.0) / 20.0, 24),
        "tanh": (lambda t: math.tanh(50.0 * (t - 1.01)), 0.5, 2.0, 1.01, 14),
        # a multiple root defeats regula falsi; the safeguard caps it near
        # twice the bisection count
        "triple-root": (lambda t: (t - 1.3) ** 3, 1.0, 2.0, 1.3, 2 * _bisection_count(1.0, 2.0, 1.3)),
    }

    @staticmethod
    def _solve(f, a, b, done, **kwargs):
        evaluations = []

        def counted(t):
            evaluations.append(t)
            return f(t)

        result = bracketed_root(counted, a, f(a), b, f(b), done, **kwargs)
        return result, evaluations

    @staticmethod
    def _assert_bracket(result, root):
        a, fa, b, fb = result
        if fa == 0.0:  # exact hit
            assert a == b and fb == 0.0
        else:
            assert fa * fb < 0.0
            assert a < b
        assert a - 1e-9 <= root <= b + 1e-9

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_width_rule(self, name):
        f, a, b, root, bound = self.CASES[name]
        result, evaluations = self._solve(f, a, b, _width_rule, min_step=0.5 * REL * a)
        self._assert_bracket(result, root)
        assert _width_rule(*result)
        assert len(evaluations) <= bound
        assert all(a < t < b for t in evaluations)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_residual_rule(self, name):
        f, a, b, root, bound = self.CASES[name]
        result, evaluations = self._solve(f, a, b, _residual_rule)
        self._assert_bracket(result, root)
        assert _residual_rule(*result)
        assert len(evaluations) <= bound

    def test_smooth_root_beats_bisection(self):
        f, a, b, root, _ = self.CASES["steep-exponential"]
        _, evaluations = self._solve(f, a, b, _width_rule, min_step=0.5 * REL * a)
        assert len(evaluations) < _bisection_count(a, b, root) / 2 + 1

    def test_exact_hit_at_trial_point_returns_at_once(self):
        # the first secant of a line lands on its root exactly
        result, evaluations = self._solve(lambda t: t - 1.5, 1.0, 2.0, _width_rule)
        assert result == (1.5, 0.0, 1.5, 0.0)
        assert evaluations == [1.5]

    def test_exact_zero_at_an_end_needs_no_evaluation(self):
        result, evaluations = self._solve(lambda t: t - 1.0, 1.0, 2.0, _width_rule)
        assert result == (1.0, 0.0, 1.0, 0.0)
        assert evaluations == []

    def test_min_step_closes_a_bracket_whose_end_is_the_root(self):
        # b sits on the root, so every secant lands on b; the minimum step
        # moves the other end next to it at once
        f = lambda t: 2.0 - t if t < 2.0 else -1e-30
        result, evaluations = self._solve(f, 1.0, 2.0, _width_rule, min_step=0.5 * REL)
        assert _width_rule(*result) and result[1] * result[3] < 0.0
        assert len(evaluations) == 1
        _, unguarded = self._solve(f, 1.0, 2.0, _width_rule)
        assert len(unguarded) > 10


class TestFindLambda1:
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

    @pytest.mark.parametrize("n, k, reference", [(12, 7.0, 0.04750873059), (8, 9.0, 4.594191e-4)])
    def test_lambda1_below_scan_start(self, n, k, reference):
        # u(1; SCAN_START) < 0 here: the bracket is [0, SCAN_START], with
        # u(1; 0) = 1 because the regular solution at Lam = 0 is constant
        sf = SpaceForm(n, k)
        assert shoot(sf, SCAN_START)[0] < 0.0
        gs = ground_state(sf)
        assert 0.0 < gs.lambda1 < SCAN_START
        assert gs.lambda1 == pytest.approx(reference, rel=1e-6)
        assert gs.norm_residual < 1e-12
        fd = fd_lambda1(sf, 256)
        assert abs(fd.value - gs.lambda1) <= fd.error

    @pytest.mark.parametrize("k", [-2.5, -0.5, 0.5, 2.0])
    @pytest.mark.parametrize("n", [2, 3, 6, 12, 16])
    def test_inside_fd_error_bar(self, n, k):
        sf = SpaceForm(n, k)
        lam = find_lambda1(sf)
        fd = fd_lambda1(sf, 256)
        assert abs(fd.value - lam) <= fd.error
        if n == 3:
            assert lam == pytest.approx(math.pi**2 - k, rel=1e-11)

    def test_ground_state_solve_count(self, monkeypatch):
        # one batched scan block, a few polish steps, one profile solve
        import cylbif.radial as radial

        calls = []
        real_solve_ivp = radial.solve_ivp

        def counting(*args, **kwargs):
            calls.append(None)
            return real_solve_ivp(*args, **kwargs)

        monkeypatch.setattr(radial, "solve_ivp", counting)
        ground_state(SpaceForm(2, 1.0))
        assert len(calls) <= 10


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
