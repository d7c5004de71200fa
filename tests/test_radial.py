import math

import numpy as np
import pytest

from cylbif.geometry import SpaceForm, c_k, radial_drift, s_k
from cylbif.radial import (
    LG_KAPPA_MIN,
    first_zero,
    frobenius_start,
    liouville_green,
    rk4_shoot,
    shoot,
    solve_regular,
)
from cylbif.specfun import Degree, ferrers_p, legendre_p


class TestFrobeniusStart:
    def test_constant_solution(self):
        u, du = frobenius_start(SpaceForm(2, 1.0), 0.0, 1e-4)
        assert u == 1.0
        assert du == 0.0

    def test_leading_term(self):
        # n=2: u ~ 1 - lam r^2 / 4
        delta = 1e-4
        u, _ = frobenius_start(SpaceForm(2, 1.0), 1.0, delta)
        assert u == pytest.approx(1.0 - delta**2 / 4.0, abs=1e-18)

    def test_delta_bound(self):
        with pytest.raises(ValueError, match="delta"):
            frobenius_start(SpaceForm(2, 1.0), 1.0, 1e-2)
        with pytest.raises(ValueError, match="delta"):
            frobenius_start(SpaceForm(2, 1.0), 1.0, 0.0)

    @pytest.mark.parametrize("n,k,lam", [(2, 1.0, 3.7), (3, -1.0, 9.2), (4, 2.0, 1.1)])
    def test_start_independence(self, n, k, lam):
        # integrating from delta and delta/2 must meet at r = 0.5
        sf = SpaceForm(n, k)
        from scipy.integrate import solve_ivp

        def integrate(delta):
            u0, du0 = frobenius_start(sf, lam, delta)

            def f(r, y):
                drift = (n - 1) * c_k(sf, r) / s_k(sf, r)
                return (y[1], -drift * y[1] - lam * y[0])

            sol = solve_ivp(
                f, (delta, 0.5), (u0, du0), method="DOP853", rtol=1e-12, atol=1e-14
            )
            return sol.y[0, -1]

        a = integrate(1e-4)
        b = integrate(5e-5)
        assert a == pytest.approx(b, rel=1e-9)


class TestSolveRegular:
    def test_zero_parameter_gives_constant(self):
        for k in (1.0, -1.0):
            sol = solve_regular(SpaceForm(3, k), 0.0)
            assert sol.u1 == pytest.approx(1.0, abs=1e-12)
            assert sol.du1 == pytest.approx(0.0, abs=1e-12)

    def test_dual_integrator_agreement(self):
        sf = SpaceForm(2, -1.0)
        u1, du1 = shoot(sf, 5.0)
        r1, rdu1 = rk4_shoot(sf, 5.0)
        assert u1 == pytest.approx(r1, rel=1e-8)
        assert du1 == pytest.approx(rdu1, rel=1e-8)

    def test_half_step_reintegration_stability(self):
        sf = SpaceForm(2, -1.0)
        a1, b1 = rk4_shoot(sf, 5.0, steps=20000)
        a2, b2 = rk4_shoot(sf, 5.0, steps=40000)
        assert a1 == pytest.approx(a2, rel=1e-10)
        assert b1 == pytest.approx(b2, rel=1e-10)

    def test_profile_starts_at_origin_values(self):
        sol = solve_regular(SpaceForm(2, 1.0), 4.0)
        assert sol.r[0] == 0.0
        assert sol.u[0] == 1.0
        assert sol.du[0] == 0.0
        assert len(sol.r) == 512

    def test_profile_matches_endpoint(self):
        sol = solve_regular(SpaceForm(3, -1.0), 7.0)
        assert sol.value(1.0) == pytest.approx(sol.u1, rel=1e-12)
        assert sol.deriv(1.0) == pytest.approx(sol.du1, rel=1e-12)

    def test_determinism_and_linearity_of_shoot(self):
        sf = SpaceForm(2, 1.0)
        assert shoot(sf, 3.3) == shoot(sf, 3.3)

    def test_sturm_comparison(self):
        # larger spectral parameter -> earlier first zero
        sf = SpaceForm(2, -1.0)
        pairs = [(6.5, 13.0), (8.0, 16.0), (20.0, 40.0)]
        for lam_small, lam_large in pairs:
            z_small = first_zero(sf, lam_small, 4.0)
            z_large = first_zero(sf, lam_large, 4.0)
            assert z_small is not None and z_large is not None
            assert z_large < z_small

    def test_first_zero_none_when_no_oscillation(self):
        assert first_zero(SpaceForm(2, -1.0), 0.0, 5.0) is None


class TestSeparatedRepresentation:
    """u(r) S_k^(n/2-1) solves the Legendre equation in x = C_k(r):
    the regular solution must match const * S_k^(-mu) P^(-mu)_nu(C_k(r)),
    mu = (n-2)/2, for either parity of n."""

    @pytest.mark.parametrize(
        "n,k,lam",
        [(2, -1.0, 5.0), (2, 1.0, 5.0), (3, -1.0, 9.0), (3, 1.0, 6.0), (2, -1.0, 0.8),
         (4, -1.0, 5.0)],
    )
    def test_representation_residual(self, n, k, lam):
        sf = SpaceForm(n, k)
        rad = solve_regular(sf, lam)
        mu = (n - 2) / 2.0
        m0 = -mu
        fam = legendre_p if k < 0 else ferrers_p
        nu = Degree.from_spectral(sf, lam)
        r_ref = 0.5
        const = rad.value(r_ref) / (
            s_k(sf, r_ref) ** (1 - n / 2) * fam(m0, nu, c_k(sf, r_ref))
        )
        for r in np.linspace(0.15, 0.95, 9):
            rep = const * s_k(sf, r) ** (1 - n / 2) * fam(m0, nu, c_k(sf, r))
            assert abs(rep - rad.value(r)) / abs(rad.value(r)) < 1e-7

    def test_n3_closed_form_profile(self):
        # v = S_k u solves v'' + (lam + k) v = 0, so u = sin(sqrt(lam+k) r)/(sqrt(lam+k) S_k)
        sf = SpaceForm(3, 1.0)
        lam = 6.0
        kappa = math.sqrt(lam + sf.k)
        rad = solve_regular(sf, lam)
        for r in (0.2, 0.5, 0.8, 1.0):
            exact = math.sin(kappa * r) / (kappa * s_k(sf, r))
            assert rad.value(r) == pytest.approx(exact, rel=1e-10)


def test_representation_gives_the_ground_state_dphi1():
    # both sigma routes take phi'(1) from the ground state; verify's radial
    # group checks it against the closed-form representation matched at r = 0.5
    from cylbif.verify import run_checks

    cases = ((4, -1.0), (6, -1.5), (12, -0.5), (2, -2.9), (3, 8.85))
    results = run_checks(groups=("radial",), cases=cases)
    assert "representation-dphi1" in [r.name for r in results]
    assert [r.name for r in results if not r.passed] == []


class TestLiouvilleGreen:
    @pytest.mark.parametrize("k", [1.0, -1.0, 8.4])
    @pytest.mark.parametrize("kappa", [50.0, 200.0, 1000.0, 5000.0])
    def test_exact_n3_curve(self, k, kappa):
        # n = 3: w = sinh(p r)/S_k(r), so g = p coth p + C_k(1)/S_k(1) with
        # p = sqrt(kappa^2 - k)
        sf = SpaceForm(3, k)
        p = math.sqrt(kappa**2 - k)
        exact = p / math.tanh(p) + c_k(sf, 1.0) / s_k(sf, 1.0)
        g = liouville_green(sf, -(kappa**2))
        assert abs(g - exact) <= 1e-14 * abs(exact)

    @pytest.mark.parametrize(
        "n,k,lam,reference",
        [
            (12, 7.0, -1.1e6, 1022.1691706700654933),
            (2, -1000.0, -1e5, 332.43419228059317193),
        ],
    )
    def test_forty_digit_references(self, n, k, lam, reference):
        # mpmath at 40 digits, through the Legendre/Ferrers representation
        g = liouville_green(SpaceForm(n, k), lam)
        assert abs(g - reference) <= 2e-16 * reference

    @pytest.mark.parametrize("n,k", [(2, 1.0), (2, -1.0), (4, 3.5), (6, -1.5), (12, -0.5)])
    def test_agrees_with_the_integrator(self, n, k):
        sf = SpaceForm(n, k)
        lams = -np.geomspace(LG_KAPPA_MIN, 300.0, 8) ** 2
        values = liouville_green(sf, lams)
        accepted = np.flatnonzero(~np.isnan(values))
        assert accepted.size >= 3 and accepted[-1] == len(lams) - 1
        for i in accepted.tolist():
            w1, dw1 = shoot(sf, lams[i])
            integrated = dw1 / w1 + radial_drift(sf, 1.0)
            assert abs(values[i] - integrated) <= 1e-12 * abs(integrated)
            assert liouville_green(sf, lams[i]) == values[i]  # batch = alone

    def test_refusals(self):
        # below the kappa floor the recessive solution is not negligible; at
        # (12, 7) with kappa = 34 the last two terms are 5e-3 of g (the value
        # is 5e-4 off); at (3, -1000) with kappa = 20 the series diverges
        sf = SpaceForm(3, 1.0)
        assert not math.isnan(liouville_green(sf, -(LG_KAPPA_MIN**2)))
        assert math.isnan(liouville_green(sf, -((LG_KAPPA_MIN * (1.0 - 1e-12)) ** 2)))
        assert math.isnan(liouville_green(sf, 5.0))
        assert math.isnan(liouville_green(SpaceForm(12, 7.0), -(34.0**2)))
        assert math.isnan(liouville_green(SpaceForm(3, -1000.0), -(LG_KAPPA_MIN**2)))
