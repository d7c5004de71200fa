import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylbif.errors import GammaPoleError
from cylbif.geometry import SpaceForm
from cylbif.specfun import (
    FORM_BESSEL_I_LARGE_ARGUMENT,
    FORM_FERRERS_P_EDGE_INTEGER,
    FORM_FERRERS_P_EDGE_SINGULAR,
    FORM_FERRERS_P_LARGE_CONICAL,
    FORM_LEGENDRE_P_EDGE_INTEGER,
    FORM_LEGENDRE_P_EDGE_SINGULAR,
    FORM_LEGENDRE_P_LARGE_DEGREE_NEG,
    FORM_LEGENDRE_P_LARGE_DEGREE_POS,
    FORM_LEGENDRE_Q_EDGE_SINGULAR,
    Degree,
    asymptotic_form,
    bessel_i,
    ferrers_p,
    ferrers_p_deriv,
    legendre_p,
    legendre_p_deriv,
    legendre_q,
    log_gamma,
    olver_hyp,
    recip_gamma,
)

# 5-point stencils: truncation O(h^4), roundoff ~ eps/h^2 ~ 4e-10


def five_point_first(f, x, h=5e-4):
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def five_point_second(f, x, h=5e-4):
    return (
        -f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)
    ) / (12 * h * h)


def legendre_ode_residual(fam, m, nu, x, h=5e-4):
    """Relative residual of (1-x^2) w'' - 2x w' + [nu(nu+1) - m^2/(1-x^2)] w."""
    f = lambda t: fam(m, nu, t)
    d1 = five_point_first(f, x, h)
    d2 = five_point_second(f, x, h)
    degree_term = ((nu + 0.5) ** 2 - 0.25).real
    resid = (1 - x * x) * d2 - 2 * x * d1 + (degree_term - m * m / (1 - x * x)) * f(x)
    return abs(resid) / (abs(degree_term * f(x)) + abs(d1) + 1.0)


class TestLogGamma:
    def test_gamma_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_gamma_half(self):
        assert log_gamma(0.5).real == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
        assert log_gamma(0.5).imag == pytest.approx(0.0, abs=1e-14)

    def test_reflection_formula_at_conical_point(self):
        z = complex(-0.5, 3.0)
        rhs = math.pi / cmath.sin(math.pi * z)
        lhs = cmath.exp(log_gamma(z) + log_gamma(1.0 - z))
        assert abs(lhs - rhs) / abs(rhs) < 1e-10

    def test_recurrence_across_reflection_boundary(self):
        # z on the reflection side, z+1 on the direct side: a non-circular check
        z = complex(-0.5, 3.0)
        assert abs(cmath.exp(log_gamma(z + 1.0) - log_gamma(z)) - z) / abs(z) < 1e-12

    def test_pole_signaled(self):
        with pytest.raises(GammaPoleError):
            log_gamma(0.0)
        with pytest.raises(GammaPoleError):
            log_gamma(-3.0)

    def test_recip_gamma_zero_at_poles(self):
        assert recip_gamma(0.0) == 0.0
        assert recip_gamma(-7.0) == 0.0
        assert recip_gamma(1.0) == pytest.approx(1.0, rel=1e-14)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        re=st.floats(min_value=-4.0, max_value=4.0),
        im=st.floats(min_value=-4.0, max_value=4.0),
    )
    def test_recurrence_property(self, re, im):
        z = complex(re, im)
        # precision is not claimed arbitrarily close to the real-axis poles
        if abs(im) < 1e-3 and (re <= 0.2 or abs(re - round(re)) < 1e-3):
            return
        lhs = cmath.exp(log_gamma(z + 1.0) - log_gamma(z))
        assert abs(lhs - z) <= 1e-12 * (1.0 + abs(z))


class TestOlverHyp:
    def test_argument_zero_gives_recip_gamma(self):
        for c in (0.7, 2.0, complex(1.5, 0.5)):
            assert olver_hyp(1.3, -0.4, c, 0.0) == pytest.approx(recip_gamma(c), rel=1e-14)

    def test_terminating_series(self):
        for w in (-0.27, 0.23, 0.49):
            got = olver_hyp(2.0, -1.0, 1.0, w)
            assert got.real == pytest.approx(1.0 - 2.0 * w, rel=1e-14)
            assert got.imag == 0.0

    def test_nonpositive_integer_c_starts_late(self):
        # c = 0: the s = 0 term vanishes through 1/Gamma; series = a b z F(...)
        got = olver_hyp(2.0, -1.0, 0.0, 0.3)
        # (a)_1 (b)_1 z / 1! * F_olver-tail; terminating at s=1: (2)(-1)(0.3)/Gamma(1)
        assert got.real == pytest.approx(-0.6, rel=1e-14)

    def test_conical_coefficients_are_real_products(self):
        # (nu+1+m)(m-nu) = m(m+1) + tau^2 + 1/4 for nu = -1/2 + i tau
        tau = 2.0
        nu = complex(-0.5, tau)
        for m in range(12):
            prod = (nu + 1 + m) * (m - nu)
            expected = m * (m + 1) + tau * tau + 0.25
            assert prod.imag < 1e-15 * abs(prod)
            assert prod.real == pytest.approx(expected, rel=1e-15)

    def test_conical_series_real_through_complex_path(self):
        nu = complex(-0.5, 2.0)
        val = olver_hyp(nu + 1.0, -nu, 1.0, -0.27)
        assert abs(val.imag) < 1e-12 * abs(val)

    def test_region_bound(self):
        with pytest.raises(ValueError, match=r"\|z\| < 1"):
            olver_hyp(1.0, 1.0, 1.0, 1.2)


class TestLegendreP:
    def test_degree_one_is_linear(self):
        for x in (1.1, 1.54, 2.3):
            assert legendre_p(0.0, 1.0, x) == pytest.approx(x, rel=1e-14)

    def test_limit_at_one(self):
        assert legendre_p(0.0, complex(-0.5, 2.0), 1.0 + 1e-12) == pytest.approx(1.0, abs=1e-11)

    def test_conical_ode_residual(self):
        resid = legendre_ode_residual(legendre_p, -0.5, complex(-0.5, 2.0), math.cosh(1.0))
        assert resid < 1e-8

    def test_half_integer_closed_forms(self):
        # P^(-1/2) and P^(1/2) are elementary (DLMF 14.5.14, 14.5.17 analogues)
        nu = 1.3
        for x in (1.2, 1.54, 2.2, 5.0):
            xi = math.acosh(x)
            scale = math.sqrt(2.0 / (math.pi * math.sinh(xi)))
            assert legendre_p(-0.5, nu, x) == pytest.approx(
                scale * math.sinh((nu + 0.5) * xi) / (nu + 0.5), rel=1e-12
            )
            assert legendre_p(0.5, nu, x) == pytest.approx(
                scale * math.cosh((nu + 0.5) * xi), rel=1e-12
            )

    def test_pfaff_path_matches_direct_series(self, monkeypatch):
        # both evaluation paths converge on 1 < x < 3; they must agree there.
        # The switch pinned below 1 or at 3 sends every real degree there
        # through the Pfaff or the direct series.
        import cylbif.specfun as specfun

        for x in (1.5, 2.0, 2.45, 2.9):
            for m, nu in ((0.0, 2.2), (0.5, 1.3), (-1.5, 0.9), (1.0, 1.7)):
                monkeypatch.setattr(specfun, "_PFAFF_SWITCH", 3.0)
                direct = legendre_p(m, nu, x)
                monkeypatch.setattr(specfun, "_PFAFF_SWITCH", 1.0)
                transformed = legendre_p(m, nu, x)
                assert transformed == pytest.approx(direct, rel=1e-13)

    def test_conical_beyond_series_region_rejected(self):
        with pytest.raises(ValueError, match="conical"):
            legendre_p(0.0, complex(-0.5, 1.0), 4.0)

    def test_domain_bound(self):
        with pytest.raises(ValueError, match="x > 1"):
            legendre_p(0.0, 1.0, 0.9)


class TestAgainstMpmath:
    """Both real series forms against mpmath's legenp (type 3: x > 1, type 2:
    Ferrers), within 1e-12 relative."""

    ORDERS = (0.0, 0.5, -0.5, 1.0, 1.5, -1.5, 2.0)

    @staticmethod
    def reference(nu, m, x, kind):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(20):
            return float(mpmath.re(mpmath.legenp(nu, m, x, type=kind)))

    @staticmethod
    def assert_close(got, ref):
        if ref == 0.0:  # terminating integer degree below the order
            assert got == 0.0
        else:
            assert abs(got - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("x", [2.6, 3.0, 5.0, 10.0, 30.0])
    def test_pfaff_branch(self, x):
        for m in self.ORDERS:
            for nu in (0.0, 0.3, 1.0, 2.0, 2.7, 5.5):
                self.assert_close(legendre_p(m, nu, x), self.reference(nu, m, x, 3))

    @pytest.mark.parametrize("nu", [0.3, 2.0, 2.7, complex(-0.5, 0.7), complex(-0.5, 2.0)])
    def test_degree_form(self, nu):
        for m in self.ORDERS:
            for x in (1.1, 1.7, 2.0):
                self.assert_close(legendre_p(m, nu, x), self.reference(nu, m, x, 3))
            for x in (-0.9, -0.3, 0.4, 0.95):
                self.assert_close(ferrers_p(m, nu, x), self.reference(nu, m, x, 2))


class TestLegendreQ:
    def test_connection_formula_residual(self):
        mu, nu, x = 0.5, 1.3, 5.0
        lhs = 2.0 * math.sin(mu * math.pi) / math.pi * legendre_q(mu, nu, x)
        rhs = legendre_p(mu, nu, x) / math.gamma(nu + mu + 1.0) - legendre_p(
            -mu, nu, x
        ) / math.gamma(nu - mu + 1.0)
        assert abs(lhs - rhs) / abs(rhs) < 1e-10

    def test_elementary_closed_form(self):
        # Q^(1/2)_0(x): the series collapses to 2(1 - sqrt(1-y))/y with y = 2/(1-x)
        x = 5.0
        y = 2.0 / (1.0 - x)
        elementary = (
            (x - 1.0) ** -0.75 * (x + 1.0) ** -0.25 * 2.0 * (1.0 - math.sqrt(1.0 - y)) / y
        )
        assert legendre_q(0.5, 0.0, x) == pytest.approx(elementary, rel=1e-13)

    def test_series_region_enforced(self):
        with pytest.raises(ValueError, match="x > 3"):
            legendre_q(0.5, 1.3, 2.0)


class TestFerrersP:
    def test_degree_one_is_linear(self):
        for x in (-0.6, 0.2, 0.54):
            assert ferrers_p(0.0, 1.0, x) == pytest.approx(x, rel=1e-14)

    def test_limit_at_one(self):
        assert ferrers_p(0.0, 1.7, 1.0 - 1e-12) == pytest.approx(1.0, abs=1e-11)

    def test_conical_ode_residual(self):
        resid = legendre_ode_residual(ferrers_p, -0.5, complex(-0.5, 2.0), math.cos(1.0))
        assert resid < 1e-8

    def test_half_integer_closed_forms(self):
        # DLMF 14.5.13/14.5.14: elementary at order +-1/2
        for tau in (1.0, 3.0):
            nu = complex(-0.5, tau)
            for theta in (0.4, 1.0, 2.0):
                x = math.cos(theta)
                scale = math.sqrt(2.0 / (math.pi * math.sin(theta)))
                assert ferrers_p(-0.5, nu, x) == pytest.approx(
                    scale * math.sinh(tau * theta) / tau, rel=1e-12
                )
                assert ferrers_p(0.5, nu, x) == pytest.approx(
                    scale * math.cosh(tau * theta), rel=1e-12
                )

    def test_domain_bound(self):
        with pytest.raises(ValueError, match="-1 < x < 1"):
            ferrers_p(0.0, 1.0, 1.5)


class TestDerivatives:
    def test_linear_degree(self):
        assert legendre_p_deriv(0.0, 1.0, 1.4) == pytest.approx(1.0, rel=1e-13)

    def test_ferrers_quadratic(self):
        # d/dx (3x^2 - 1)/2 = 3x
        assert ferrers_p_deriv(0.0, 2.0, 0.3) == pytest.approx(0.9, rel=1e-13)

    def test_conical_against_central_difference(self):
        nu = complex(-0.5, 2.0)
        x = math.cosh(1.0)
        cd = (legendre_p(-0.5, nu, x + 1e-6) - legendre_p(-0.5, nu, x - 1e-6)) / 2e-6
        assert legendre_p_deriv(-0.5, nu, x) == pytest.approx(cd, rel=1e-6)

    def test_ferrers_conical_against_central_difference(self):
        nu = complex(-0.5, 2.0)
        x = math.cos(1.0)
        cd = (ferrers_p(-0.5, nu, x + 1e-6) - ferrers_p(-0.5, nu, x - 1e-6)) / 2e-6
        assert ferrers_p_deriv(-0.5, nu, x) == pytest.approx(cd, rel=1e-6)


class TestBesselI:
    def test_values_at_zero(self):
        assert bessel_i(0.0, 0.0) == 1.0
        assert bessel_i(1.0, 0.0) == 0.0

    def test_half_integer_closed_form(self):
        x = 2.0
        assert bessel_i(0.5, x) == pytest.approx(
            math.sqrt(2.0 / (math.pi * x)) * math.sinh(x), rel=1e-14
        )

    def test_equation_residual_via_recurrence(self):
        # x^2 I'' + x I' - (x^2 + mu^2) I reduces to the three-term recurrence
        for mu, x in ((0.0, 1.3), (1.0, 2.5), (0.5, 4.0), (2.0, 10.0)):
            resid = (
                x * x * bessel_i(mu + 2.0, x)
                + 2.0 * (mu + 1.0) * x * bessel_i(mu + 1.0, x)
                - x * x * bessel_i(mu, x)
            )
            assert abs(resid) / (x * x * bessel_i(mu, x)) < 1e-10

    def test_overflow_signaled(self):
        from cylbif.errors import ConvergenceError

        with pytest.raises(ConvergenceError, match="overflow"):
            bessel_i(0.0, 800.0)


class TestDegree:
    def test_real_branch(self):
        d = Degree.from_spectral(SpaceForm(2, 1.0), 5.0)
        assert d.value.imag == 0.0 and not d.is_conical

    def test_conical_branch_positive_imag(self):
        d = Degree.from_spectral(SpaceForm(2, -1.0), 6.0)
        assert d.value.real == -0.5
        assert d.value.imag > 0.0 and d.is_conical
        assert d.tau == d.value.imag

    def test_invalid_degree_rejected(self):
        with pytest.raises(ValueError, match="conical"):
            Degree(complex(0.3, 1.0))


class TestIdentities:
    @pytest.mark.parametrize(
        "m,nu",
        [
            (0.0, complex(1.7)),
            (0.5, complex(-0.5, 2.0)),
            (-0.5, complex(2.3)),
            (1.0, complex(-0.5, 1.0)),
            (-1.5, complex(0.9)),
        ],
    )
    def test_ode_residual_grid(self, m, nu):
        for x in (1.2, 1.54, 2.1):
            assert legendre_ode_residual(legendre_p, m, nu, x) < 1e-7
        for x in (-0.4, 0.2, 0.54):
            assert legendre_ode_residual(ferrers_p, m, nu, x) < 1e-7

    def test_conical_realness_through_complex_path(self):
        for tau in (0.5, 2.0, 8.0):
            nu = complex(-0.5, tau)
            for c, w in ((1.0, -0.27), (1.5, 0.23)):
                val = olver_hyp(nu + 1.0, -nu, c, w)
                assert abs(val.imag) < 1e-12 * abs(val)

    @pytest.mark.parametrize("x", [4.0, 5.0, 8.0])
    @pytest.mark.parametrize("mu,nu", [(0.5, 1.3), (0.5, 0.7), (1.5, 0.9)])
    def test_connection_formula_beyond_three(self, x, mu, nu):
        lhs = 2.0 * math.sin(mu * math.pi) / math.pi * legendre_q(mu, nu, x)
        rhs = legendre_p(mu, nu, x) / math.gamma(nu + mu + 1.0) - legendre_p(
            -mu, nu, x
        ) / math.gamma(nu - mu + 1.0)
        assert abs(lhs - rhs) / abs(lhs) < 1e-10

    @pytest.mark.parametrize("mu", [1.0, 2.0])
    @pytest.mark.parametrize("nu", [complex(2.6), complex(-0.5, 2.4)])
    def test_legendre_integer_order_reflection(self, mu, nu):
        for x in (1.3, 1.9):
            ratio = cmath.exp(log_gamma(nu + mu + 1.0) - log_gamma(nu - mu + 1.0))
            lhs = legendre_p(mu, nu, x)
            rhs = ratio * legendre_p(-mu, nu, x)
            assert abs(rhs.imag) < 1e-12 * abs(rhs)
            assert lhs == pytest.approx(rhs.real, rel=1e-10)

    @pytest.mark.parametrize("mu", [1.0, 2.0])
    @pytest.mark.parametrize("nu", [complex(2.6), complex(-0.5, 2.4)])
    def test_ferrers_integer_order_reflection(self, mu, nu):
        for x in (-0.3, 0.54):
            ratio = cmath.exp(log_gamma(nu + mu + 1.0) - log_gamma(nu - mu + 1.0))
            lhs = ferrers_p(mu, nu, x)
            rhs = (-1.0) ** mu * ratio * ferrers_p(-mu, nu, x)
            assert lhs == pytest.approx(rhs.real, rel=1e-10)

    def test_order_shift_product_identity(self):
        for mu in (0.0, 0.5, 1.0):
            for tau in (1.0, 4.0, 16.0):
                nu_star = complex(-0.5, tau)
                prod = (nu_star + mu + 1.0) * (nu_star - mu)
                assert prod.imag == pytest.approx(0.0, abs=1e-12 * abs(prod))
                assert prod.real == pytest.approx(
                    -0.25 - tau * tau - mu - mu * mu, rel=1e-15
                )


class TestAsymptoticForms:
    EPS = 1e-8

    def test_legendre_singular_edge(self):
        x = 1.0 + self.EPS
        ratio = legendre_p(0.5, 1.3, x) / asymptotic_form(
            FORM_LEGENDRE_P_EDGE_SINGULAR, 0.5, 1.3, x
        )
        assert abs(ratio - 1.0) < 1e-3

    def test_legendre_integer_edge(self):
        x = 1.0 + self.EPS
        ratio = legendre_p(1.0, 2.0, x) / asymptotic_form(
            FORM_LEGENDRE_P_EDGE_INTEGER, 1.0, 2.0, x
        )
        assert abs(ratio - 1.0) < 1e-3

    def test_legendre_q_singular_edge_via_connection(self):
        # Q near the edge is reconstructed from the connection formula, since
        # its own series needs x > 3
        mu, nu = 0.5, 1.3
        x = 1.0 + self.EPS
        q_near = (
            math.pi
            / (2.0 * math.sin(mu * math.pi))
            * (
                legendre_p(mu, nu, x) / math.gamma(nu + mu + 1.0)
                - legendre_p(-mu, nu, x) / math.gamma(nu - mu + 1.0)
            )
        )
        ratio = q_near / asymptotic_form(FORM_LEGENDRE_Q_EDGE_SINGULAR, mu, nu, x)
        assert abs(ratio - 1.0) < 1e-3

    def test_ferrers_singular_edge(self):
        x = 1.0 - self.EPS
        ratio = ferrers_p(0.5, 1.3, x) / asymptotic_form(
            FORM_FERRERS_P_EDGE_SINGULAR, 0.5, 1.3, x
        )
        assert abs(ratio - 1.0) < 1e-3

    def test_ferrers_integer_edge(self):
        x = 1.0 - self.EPS
        ratio = ferrers_p(1.0, 2.3, x) / asymptotic_form(
            FORM_FERRERS_P_EDGE_INTEGER, 1.0, 2.3, x
        )
        assert abs(ratio - 1.0) < 1e-3

    def test_large_degree_forms_at_fifty(self):
        nu = 50.0
        x = math.cosh(1.0)
        for mu in (0.0, 0.5):
            ratio = legendre_p(-mu, nu, x) / asymptotic_form(
                FORM_LEGENDRE_P_LARGE_DEGREE_NEG, mu, nu, x
            )
            assert abs(ratio - 1.0) < 1e-2
        for mu in (0.0, 1.0):
            ratio = legendre_p(mu, nu, x) / asymptotic_form(
                FORM_LEGENDRE_P_LARGE_DEGREE_POS, mu, nu, x
            )
            assert abs(ratio - 1.0) < 1e-2

    def test_bessel_large_argument_at_fifty(self):
        for mu in (0.0, 1.0):
            ratio = bessel_i(mu, 50.5) / asymptotic_form(
                FORM_BESSEL_I_LARGE_ARGUMENT, mu, 50.0, math.nan
            )
            assert abs(ratio - 1.0) < 1e-2

    def test_conical_ferrers_at_fifty(self):
        nu = complex(-0.5, 50.0)
        x = math.cos(1.0)
        for mu in (0.0, 0.5):
            ratio = ferrers_p(-mu, nu, x) / asymptotic_form(
                FORM_FERRERS_P_LARGE_CONICAL, mu, nu, x
            )
            assert abs(ratio - 1.0) < 1e-2

    def test_excluded_combinations_rejected(self):
        with pytest.raises(ValueError, match="excluded"):
            asymptotic_form(FORM_FERRERS_P_EDGE_SINGULAR, -0.5, 1.3, 0.9999)
        with pytest.raises(ValueError, match="excluded"):
            asymptotic_form(FORM_LEGENDRE_P_EDGE_SINGULAR, 2.0, 1.3, 1.0001)
        with pytest.raises(ValueError, match="excluded"):
            asymptotic_form(FORM_LEGENDRE_P_EDGE_INTEGER, 1.0, -2.0, 1.0001)

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            asymptotic_form("no-such-form", 0.0, 1.0, 1.5)


class TestArrayKernel:
    """The array form of the real series kernel against its scalar loop,
    member by member and bit for bit."""

    @staticmethod
    def assert_bit_equal(h, beta, c, z):
        """Each member equals its scalar sum; NaN where the scalar loop raises."""
        from cylbif.errors import ConvergenceError
        from cylbif.specfun import _hyp_real

        got = _hyp_real(h, beta, c, z)
        members = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (h, beta, z)))
        assert got.shape == members[0].shape
        scalars = zip(*(m.ravel().tolist() for m in members))
        for value, (hi, bi, zi) in zip(got.ravel().tolist(), scalars):
            try:
                assert value == _hyp_real(hi, bi, c, zi)
            except ConvergenceError:
                assert math.isnan(value)
        return got

    @pytest.mark.parametrize("c", [0.0, -1.0, -2.0])
    def test_gamma_pole_start(self, c):
        betas = np.array([0.04, 1.7, 6.25, 20.0])
        self.assert_bit_equal(0.5, betas, c, np.array([-0.4, 0.3, 0.55, -0.8]))

    def test_conical_beta(self):
        # beta = -tau^2 for nu = -1/2 + i tau: exactly real coefficients
        taus = np.array([0.3, 2.0, 6.0, 12.5])
        self.assert_bit_equal(0.5, -(taus**2), 1.5, np.array([[0.2], [-0.7], [0.93]]))

    def test_terminating_series(self):
        # beta = (s + 1/2)^2 zeroes the ratio at s: a polynomial of degree s + 1
        got = self.assert_bit_equal(0.5, np.array([3.5**2, 0.3, 7.5**2]), 1.0, 0.4)
        assert all(math.isfinite(v) for v in got.tolist())

    def test_degree_and_pfaff_members_mixed(self):
        # one batch as legendre_p builds it beyond x = 2.5: real degrees in the
        # Pfaff form, conical degrees in the degree form
        x, c = 2.8, 0.5
        y, w = (x - 1.0) / (x + 1.0), (1.0 - x) / 2.0
        h = np.array([1.3 + (1.0 + c) / 2.0, 0.5, 4.0 + (1.0 + c) / 2.0, 0.5])
        beta = np.array([((1.0 - c) / 2.0) ** 2, -4.0, ((1.0 - c) / 2.0) ** 2, -0.49])
        self.assert_bit_equal(h, beta, c, np.array([y, w, y, w]))

    def test_term_cap_gives_nan_and_spares_neighbours(self):
        from cylbif.errors import ConvergenceError
        from cylbif.specfun import _hyp_real

        z = np.array([0.3, 0.9999, -0.5])
        got = self.assert_bit_equal(0.5, 2.0, 1.0, z)
        assert math.isnan(got[1]) and math.isfinite(got[0]) and math.isfinite(got[2])
        with pytest.raises(ConvergenceError, match="did not converge"):
            _hyp_real(0.5, 2.0, 1.0, 0.9999)

    @pytest.mark.parametrize("x", [-0.98, 0.3, 1.6, 2.7, 3.5])
    def test_first_kind_batch_matches_scalar_functions(self, x):
        from cylbif.specfun import _first_kind_many

        fam = legendre_p if x > 1.0 else ferrers_p
        nus = [complex(-0.5, 3.0), complex(0.4, 0.0), complex(-0.5, 0.2), complex(6.1, 0.0)]
        for m in (0.0, 1.0, -0.5, 0.5, 2.0):
            got = _first_kind_many(m, nus, x).tolist()
            for value, nu in zip(got, nus):
                try:
                    expected = fam(m, nu, x)
                except ValueError:  # a conical degree beyond the series disk
                    assert x >= 3.0 and nu.imag != 0.0 and math.isnan(value)
                else:
                    assert value == expected
