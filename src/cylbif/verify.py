"""Named property-check suites behind the `verify` CLI subcommand.

Each check returns a CheckResult; a check whose side conditions exclude the
sampled parameters reports itself as skipped with the reason logged instead
of guessing a limiting value.  The test suite under tests/ is the primary
gate; these suites give a fast, scriptable health check of the same
identities.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .bifurcation import find_sigma_zeros, run_bifurcation
from .dispersion import scan, sigma_ode
from .geometry import SpaceForm, c_k, radial_drift, s_k
from .radial import first_zero, rk4_shoot, shoot, solve_regular
from .specfun import (
    FORM_BESSEL_I_LARGE_ARGUMENT,
    FORM_FERRERS_P_EDGE_INTEGER,
    FORM_FERRERS_P_EDGE_SINGULAR,
    FORM_FERRERS_P_LARGE_CONICAL,
    FORM_LEGENDRE_P_EDGE_INTEGER,
    FORM_LEGENDRE_P_EDGE_SINGULAR,
    FORM_LEGENDRE_P_LARGE_DEGREE_NEG,
    FORM_LEGENDRE_P_LARGE_DEGREE_POS,
    FORM_LEGENDRE_Q_EDGE_SINGULAR,
    asymptotic_form,
    bessel_i,
    ferrers_p,
    ferrers_p_deriv,
    legendre_p,
    legendre_p_deriv,
    legendre_q,
    log_gamma,
    olver_hyp,
)
from .spectral import ground_state

DEFAULT_CASES = ((2, 1.0), (2, -1.0), (3, 1.0), (3, -1.0))


@dataclass
class CheckResult:
    group: str
    name: str
    passed: bool
    detail: str
    skipped: bool = False

    @property
    def status(self) -> str:
        return "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")


class _Suite:
    def __init__(self, cases, quick: bool):
        self.cases = tuple(cases)
        self.quick = quick
        self.results: list[CheckResult] = []
        self._gs = {}
        self._bif = {}

    def gs(self, n, k):
        key = (n, k)
        if key not in self._gs:
            self._gs[key] = ground_state(SpaceForm(n, k))
        return self._gs[key]

    def bif(self, n, k):
        key = (n, k)
        if key not in self._bif:
            self._bif[key] = run_bifurcation(self.gs(n, k), SpaceForm(n, k))
        return self._bif[key]

    def record(self, group, name, passed, detail, skipped=False):
        self.results.append(CheckResult(group, name, bool(passed), detail, skipped))

    def check_max(self, group, name, worst, tol):
        self.record(group, name, worst <= tol, f"max residual {worst:.3e} (tol {tol:.1e})")


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


def _geometry(sx: _Suite):
    worst = 0.0
    for n, k in ((2, 1.0), (3, -1.0), (2, -0.7), (4, 2.5)):
        sf = SpaceForm(n, k)
        for r in np.linspace(0.05, min(0.95 * sf.r_max, 2.0), 9):
            worst = max(worst, abs(c_k(sf, r) ** 2 + k * s_k(sf, r) ** 2 - 1.0))
    sx.check_max("geometry", "pythagorean-identity", worst, 1e-13)

    worst = 0.0
    for n, k in ((2, 1.0), (3, -1.0), (2, 0.5)):
        sf = SpaceForm(n, k)
        h = 1e-6
        for r in (0.3, 0.8):
            ds = (s_k(sf, r + h) - s_k(sf, r - h)) / (2 * h)
            dc = (c_k(sf, r + h) - c_k(sf, r - h)) / (2 * h)
            worst = max(worst, abs(ds - c_k(sf, r)) / abs(c_k(sf, r)))
            worst = max(worst, abs(dc + k * s_k(sf, r)) / abs(k * s_k(sf, r)))
    sx.check_max("geometry", "derivative-identities", worst, 1e-8)

    sf = SpaceForm(2, 1.0)
    hf = SpaceForm(2, -1.0)
    worst = max(
        abs(s_k(sf, 0.7) - math.sin(0.7)),
        abs(c_k(sf, 0.7) - math.cos(0.7)),
        abs(s_k(hf, 0.7) - math.sinh(0.7)),
        abs(c_k(hf, 0.7) - math.cosh(0.7)),
    )
    sx.check_max("geometry", "unit-curvature-reduction", worst, 1e-15)


def _gamma(sx: _Suite):
    worst = 0.0
    for z in (0.8, 2.5, complex(1.5, 2.0), complex(-0.5, 3.0), complex(3.0, -1.2)):
        lhs = cmath.exp(log_gamma(z + 1) - log_gamma(z))
        worst = max(worst, abs(lhs - z) / abs(z))
    sx.check_max("gamma", "recurrence", worst, 1e-12)

    z = complex(-0.5, 3.0)
    resid = abs(
        cmath.exp(log_gamma(z) + log_gamma(1 - z)) - math.pi / cmath.sin(math.pi * z)
    ) / abs(math.pi / cmath.sin(math.pi * z))
    sx.check_max("gamma", "reflection", resid, 1e-10)


def _legendre_ode_residual(fam, m, nu, x, h=5e-4) -> float:
    """Relative residual of the second-order equation, 5-point stencils."""
    f = [fam(m, nu, x + i * h) for i in (-2, -1, 0, 1, 2)]
    d1 = (-f[4] + 8 * f[3] - 8 * f[1] + f[0]) / (12 * h)
    d2 = (-f[4] + 16 * f[3] - 30 * f[2] + 16 * f[1] - f[0]) / (12 * h * h)
    degree_term = ((nu + 0.5) ** 2 - 0.25).real  # nu (nu + 1), real for our degrees
    resid = (1 - x * x) * d2 - 2 * x * d1 + (degree_term - m * m / (1 - x * x)) * f[2]
    scale = abs(degree_term * f[2]) + abs(d1) + 1.0
    return abs(resid) / scale


def _legendre_ode(sx: _Suite):
    worst = 0.0
    for m, nu in ((0.0, complex(1.7)), (0.5, complex(-0.5, 2.0)), (-0.5, complex(2.3)),
                  (1.0, complex(-0.5, 1.0)), (-1.5, complex(0.9))):
        for x in (1.2, 1.54, 2.1):
            worst = max(worst, _legendre_ode_residual(legendre_p, m, complex(nu), x))
        for x in (-0.4, 0.2, 0.54):
            worst = max(worst, _legendre_ode_residual(ferrers_p, m, complex(nu), x))
    sx.check_max("legendre-ode", "second-order-equation", worst, 1e-7)


def _connection(sx: _Suite):
    worst = 0.0
    for x in (4.0, 5.0, 8.0):
        for mu, nu in ((0.5, 1.3), (0.5, 0.7), (1.5, 0.9)):
            lhs = 2.0 * math.sin(mu * math.pi) / math.pi * legendre_q(mu, nu, x)
            rhs = legendre_p(mu, nu, x) / math.gamma(nu + mu + 1) - legendre_p(
                -mu, nu, x
            ) / math.gamma(nu - mu + 1)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    sx.check_max("connection-formulas", "first-vs-second-kind", worst, 1e-10)

    x = 5.0
    y = 2.0 / (1.0 - x)
    elementary = (x - 1) ** -0.75 * (x + 1) ** -0.25 * 2 * (1 - math.sqrt(1 - y)) / y
    resid = abs(legendre_q(0.5, 0.0, x) - elementary) / abs(elementary)
    sx.check_max("connection-formulas", "elementary-closed-form", resid, 1e-13)


def _reflection_identities(sx: _Suite):
    worst = 0.0
    for mu in (1.0, 2.0):
        for nu in (complex(2.6), complex(-0.5, 2.4)):
            for x in (1.3, 1.9):
                ratio = cmath.exp(log_gamma(nu + mu + 1) - log_gamma(nu - mu + 1))
                lhs = legendre_p(mu, nu, x)
                rhs = (ratio * legendre_p(-mu, nu, x)).real
                worst = max(worst, abs(lhs - rhs) / (abs(lhs) + 1e-300))
    sx.check_max("reflection-identities", "legendre-integer-order", worst, 1e-10)

    worst = 0.0
    for mu in (1.0, 2.0):
        for nu in (complex(2.6), complex(-0.5, 2.4)):
            for x in (-0.3, 0.54):
                ratio = cmath.exp(log_gamma(nu + mu + 1) - log_gamma(nu - mu + 1))
                lhs = ferrers_p(mu, nu, x)
                rhs = ((-1.0) ** mu * ratio * ferrers_p(-mu, nu, x)).real
                worst = max(worst, abs(lhs - rhs) / (abs(lhs) + 1e-300))
    sx.check_max("reflection-identities", "ferrers-integer-order", worst, 1e-10)


def _derivative_identities(sx: _Suite):
    worst = 0.0
    h = 1e-6
    for m, nu in ((0.0, complex(1.0)), (-0.5, complex(-0.5, 2.0)), (0.5, complex(1.3))):
        for x in (1.3, 1.54):
            ident = legendre_p_deriv(m, nu, x)
            cd = (legendre_p(m, nu, x + h) - legendre_p(m, nu, x - h)) / (2 * h)
            worst = max(worst, abs(ident - cd) / (abs(cd) + 1e-300))
        for x in (0.3, 0.54):
            ident = ferrers_p_deriv(m, nu, x)
            cd = (ferrers_p(m, nu, x + h) - ferrers_p(m, nu, x - h)) / (2 * h)
            worst = max(worst, abs(ident - cd) / (abs(cd) + 1e-300))
    sx.check_max("derivative-identities", "order-raising-vs-central-diff", worst, 1e-6)


def _conical_realness(sx: _Suite):
    worst = 0.0
    for tau in (0.7, 2.4, 9.0):
        nu = complex(-0.5, tau)
        for c, w in ((1.0, -0.27), (1.5, 0.23), (0.5, 0.4)):
            val = olver_hyp(nu + 1, -nu, c, w)
            worst = max(worst, abs(val.imag) / abs(val))
    sx.check_max("conical-realness", "complex-path-imaginary-part", worst, 1e-12)

    worst = 0.0
    for mu in (0.0, 0.5):
        for tau in (1.0, 4.0):
            prod = (complex(-0.5, tau) + mu + 1) * (complex(-0.5, tau) - mu)
            target = -0.25 - tau * tau - mu - mu * mu
            worst = max(worst, abs(prod - target))
    sx.check_max("conical-realness", "order-shift-product", worst, 1e-13)


def _asymptotics(sx: _Suite):
    eps = 1e-8
    checks = [
        ("legendre-p-singular-edge", FORM_LEGENDRE_P_EDGE_SINGULAR, 0.5, complex(1.3), 1 + eps,
         lambda: legendre_p(0.5, 1.3, 1 + eps), 1e-3),
        ("legendre-p-integer-edge", FORM_LEGENDRE_P_EDGE_INTEGER, 1.0, complex(2.0), 1 + eps,
         lambda: legendre_p(1.0, 2.0, 1 + eps), 1e-3),
        ("ferrers-p-singular-edge", FORM_FERRERS_P_EDGE_SINGULAR, 0.5, complex(1.3), 1 - eps,
         lambda: ferrers_p(0.5, 1.3, 1 - eps), 1e-3),
        ("ferrers-p-integer-edge", FORM_FERRERS_P_EDGE_INTEGER, 1.0, complex(2.3), 1 - eps,
         lambda: ferrers_p(1.0, 2.3, 1 - eps), 1e-3),
        ("legendre-q-singular-edge", FORM_LEGENDRE_Q_EDGE_SINGULAR, 0.5, complex(1.3), 1 + eps,
         lambda: math.pi / (2 * math.sin(0.5 * math.pi)) * (
             legendre_p(0.5, 1.3, 1 + eps) / math.gamma(1.3 + 0.5 + 1)
             - legendre_p(-0.5, 1.3, 1 + eps) / math.gamma(1.3 - 0.5 + 1)), 1e-3),
        ("legendre-p-large-degree-neg", FORM_LEGENDRE_P_LARGE_DEGREE_NEG, 0.5, complex(50.0), math.cosh(1.0),
         lambda: legendre_p(-0.5, 50.0, math.cosh(1.0)), 1e-2),
        ("legendre-p-large-degree-pos", FORM_LEGENDRE_P_LARGE_DEGREE_POS, 0.0, complex(50.0), math.cosh(1.0),
         lambda: legendre_p(0.0, 50.0, math.cosh(1.0)), 1e-2),
        ("bessel-i-large-argument", FORM_BESSEL_I_LARGE_ARGUMENT, 0.0, complex(50.0), math.nan,
         lambda: bessel_i(0.0, 50.5), 1e-2),
        ("ferrers-p-large-conical", FORM_FERRERS_P_LARGE_CONICAL, 0.5, complex(-0.5, 50.0), math.cos(1.0),
         lambda: ferrers_p(-0.5, complex(-0.5, 50.0), math.cos(1.0)), 1e-2),
    ]
    for name, form, mu, nu, x, direct, tol in checks:
        approx = asymptotic_form(form, mu, nu, x)
        ratio = direct() / approx
        sx.record("asymptotics", name, abs(ratio - 1.0) <= tol,
                  f"ratio-1 = {ratio - 1.0:.3e} (tol {tol:.0e})")
    # excluded side condition is rejected, not guessed
    try:
        asymptotic_form(FORM_FERRERS_P_EDGE_SINGULAR, -0.5, complex(1.3), 1 - eps)
        sx.record("asymptotics", "excluded-combination", False, "order -1/2 was not rejected")
    except ValueError as exc:
        sx.record("asymptotics", "excluded-combination", True, f"rejected: {exc}", skipped=True)


def _bessel(sx: _Suite):
    # residual through the derivative identity I'_mu = I_(mu+1) + (mu/x) I_mu,
    # which reduces the equation to the three-term recurrence between three
    # independently summed series
    worst = 0.0
    for mu, x in ((0.0, 1.3), (1.0, 2.5), (0.5, 4.0)):
        i0 = bessel_i(mu, x)
        i1 = bessel_i(mu + 1.0, x)
        i2 = bessel_i(mu + 2.0, x)
        resid = x * x * i2 + 2.0 * (mu + 1.0) * x * i1 - x * x * i0
        worst = max(worst, abs(resid) / (x * x * abs(i0)))
    sx.check_max("bessel", "modified-equation", worst, 1e-10)

    exact = math.sqrt(2.0 / (math.pi * 2.0)) * math.sinh(2.0)
    resid = abs(bessel_i(0.5, 2.0) - exact) / exact
    sx.check_max("bessel", "half-integer-closed-form", resid, 1e-14)


def _radial(sx: _Suite):
    # representation cross-check: u = const * S^(1-n/2) f(m0, nu, C_k(r))
    from .dispersion import mode_order
    from .specfun import Degree

    worst = 0.0
    for n, k in sx.cases:
        sf = SpaceForm(n, k)
        lam = 5.0
        rad = solve_regular(sf, lam)
        mu, integer_order = mode_order(n)
        m0 = mu if integer_order else -mu
        fam = legendre_p if k < 0 else ferrers_p
        nu = Degree.from_spectral(sf, lam)
        r_ref = 0.5
        const = rad.value(r_ref) / (
            s_k(sf, r_ref) ** (1 - n / 2) * fam(m0, nu, c_k(sf, r_ref))
        )
        for r in (0.25, 0.7, 0.9):
            rep = const * s_k(sf, r) ** (1 - n / 2) * fam(m0, nu, c_k(sf, r))
            worst = max(worst, abs(rep - rad.value(r)) / abs(rad.value(r)))
    sx.check_max("radial", "separated-representation", worst, 1e-7)

    sf = SpaceForm(2, -1.0)
    u1, du1 = shoot(sf, 5.0)
    r1, rdu1 = rk4_shoot(sf, 5.0)
    worst = max(abs(u1 - r1) / abs(u1), abs(du1 - rdu1) / abs(du1))
    sx.check_max("radial", "dual-integrator", worst, 1e-8)

    a1, b1 = rk4_shoot(sf, 5.0, steps=20000)
    a2, b2 = rk4_shoot(sf, 5.0, steps=40000)
    worst = max(abs(a1 - a2) / abs(a2), abs(b1 - b2) / abs(b2))
    sx.check_max("radial", "half-step-stability", worst, 1e-10)

    z1 = first_zero(sf, 8.0, 4.0)
    z2 = first_zero(sf, 16.0, 4.0)
    sx.record("radial", "sturm-comparison", z2 < z1,
              f"first zeros {z1:.6f} -> {z2:.6f} under parameter increase")

    ua1, _ = shoot(sf, 3.0, delta=1e-4)
    ua2, _ = shoot(sf, 3.0, delta=5e-5)
    sx.check_max("radial", "series-start-consistency", abs(ua1 - ua2) / abs(ua1), 1e-9)


def _spectral(sx: _Suite):
    for k in (1.0, -1.0):
        if (3, k) not in sx.cases:
            continue
        gs = sx.gs(3, k)
        exact = math.pi**2 - k
        sx.check_max("spectral", f"n3-closed-form-k{k:+.0f}",
                     abs(gs.lambda1 - exact) / exact, 1e-9)
    for n, k in sx.cases:
        gs = sx.gs(n, k)
        fd = oracle.fd_lambda1(SpaceForm(n, k), 256)
        ok = abs(fd.value - gs.lambda1) <= 3.0 * fd.error
        sx.record("spectral", f"fd-eigenvalue-n{n}k{k:+.0f}", ok,
                  f"|fd-shoot| = {abs(fd.value - gs.lambda1):.2e} vs bar {3*fd.error:.2e}")
        sx.check_max("spectral", f"norm-residual-n{n}k{k:+.0f}", gs.norm_residual, 1e-9)
        ident = abs(gs.ddphi1 + radial_drift(SpaceForm(n, k), 1.0) * gs.dphi1)
        sx.check_max("spectral", f"boundary-identity-n{n}k{k:+.0f}", ident, 1e-13)
    if (2, 1.0) in sx.cases and (2, -1.0) in sx.cases:
        sx.record("spectral", "eigenvalue-monotonicity-in-k",
                  sx.gs(2, 1.0).lambda1 < sx.gs(2, -1.0).lambda1,
                  f"{sx.gs(2, 1.0).lambda1:.6f} < {sx.gs(2, -1.0).lambda1:.6f}")


def _dual_route(sx: _Suite):
    points = 25 if sx.quick else 200
    for n, k in sx.cases:
        rows = scan(sx.gs(n, k), SpaceForm(n, k), 0.1, 100.0, points).rows()
        # a route failure leaves nan in its row, and nan fails the check
        worst = np.max(
            [abs(r["sigma_ode"] - r["sigma_cf"]) / (1.0 + abs(r["sigma_ode"])) for r in rows]
        )
        sx.check_max("dual-route", f"agreement-n{n}k{k:+.0f}", worst, 1e-7)


def _mode_identity(sx: _Suite):
    n, k = sx.cases[0]
    sf = SpaceForm(n, k)
    gs = sx.gs(n, k)
    worst = 0.0
    for t_period in (2.0, 7.0, 31.0):
        for j in (2, 3, 8):
            a = sigma_ode(gs, sf, t_period, j)
            b = sigma_ode(gs, sf, t_period / j, 1)
            worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    sx.check_max("mode-identity", "rescaling", worst, 1e-12)


def _bifurcation_checks(sx: _Suite):
    for n, k in sx.cases:
        sf = SpaceForm(n, k)
        gs = sx.gs(n, k)
        rep = sx.bif(n, k)
        t_star = rep.t_star
        lo = sigma_ode(gs, sf, 0.05 * t_star)
        hi = sigma_ode(gs, sf, 50.0 * t_star)
        sx.record("limit-signs", f"n{n}k{k:+.0f}", lo > 0.0 > hi,
                  f"sigma(0.05 T*) = {lo:.4g}, sigma(50 T*) = {hi:.4g}")
        sx.record("kernel", f"membership-n{n}k{k:+.0f}", 1 in rep.kernel_modes,
                  f"modes {rep.kernel_modes}")
        sx.record("kernel", f"parity-n{n}k{k:+.0f}", rep.parity.get(1) == "changes",
                  f"parity {rep.parity}")
        sx.record("kernel", f"jmax-positive-n{n}k{k:+.0f}", rep.sigma_at_j_max > 0.0,
                  f"sigma(T*/{rep.j_max}) = {rep.sigma_at_j_max:.4g}")


def _monotonicity_ladder(sx: _Suite):
    taus = (1.0, 2.0, 4.0, 8.0)
    for n in sorted({n for n, _ in sx.cases}):
        sf = SpaceForm(n, -1.0)
        zeros = []
        for tau in taus:
            lam = tau * tau + (n - 1) ** 2 / 4.0  # conical degree -1/2 + i tau
            zeros.append(first_zero(sf, lam, r_max=6.0 / tau + 4.0))
        ok = all(z is not None for z in zeros) and all(
            zeros[i] > zeros[i + 1] for i in range(len(zeros) - 1)
        )
        sx.record("monotonicity-ladder", f"hyperbolic-n{n}", ok,
                  "r0 = " + ", ".join(f"{z:.5f}" for z in zeros))
        sfp = SpaceForm(n, 1.0)
        found = []
        for tau in taus:
            lam = -(tau * tau + (n - 1) ** 2 / 4.0)
            found.append(first_zero(sfp, lam, r_max=0.999 * sfp.r_max))
        if all(z is None for z in found):
            sx.record("monotonicity-ladder", f"spherical-n{n}", True,
                      "no zeros exist on (0, pi): conical profile is strictly "
                      "positive; ladder vacuous, check skipped", skipped=True)
        else:
            ok = all(z is not None for z in found) and all(
                found[i] > found[i + 1] for i in range(len(found) - 1)
            )
            sx.record("monotonicity-ladder", f"spherical-n{n}", ok,
                      "r0 = " + ", ".join("None" if z is None else f"{z:.5f}" for z in found))


def _dtn_structure(sx: _Suite):
    n, k = sx.cases[0]
    sf = SpaceForm(n, k)
    gs = sx.gs(n, k)
    t_period = 2.5
    m = m_t = 32
    coupled = oracle.fd_dtn_matrix(gs, sf, t_period, m, m_t, method="coupled")
    fast = oracle.fd_dtn_matrix(gs, sf, t_period, m, m_t, method="per_mode")
    scale = np.linalg.norm(coupled)
    sym = np.linalg.norm(coupled - coupled.T) / scale
    offdiag = np.linalg.norm(coupled - np.diag(np.diag(coupled))) / scale
    agree = np.max(np.abs(coupled - fast)) / np.max(np.abs(fast))
    sx.check_max("dtn-structure", "symmetry", sym, 5e-3)
    sx.check_max("dtn-structure", "fourier-diagonality", offdiag, 5e-3)
    sx.check_max("dtn-structure", "coupled-vs-per-mode", agree, 1e-8)


def _normalization_invariance(sx: _Suite):
    import copy

    n, k = sx.cases[0]
    sf = SpaceForm(n, k)
    gs = sx.gs(n, k)
    scaled = copy.copy(gs)
    scaled.s = 2.0 * gs.s
    scaled.dphi1 = 2.0 * gs.dphi1
    scaled.ddphi1 = 2.0 * gs.ddphi1

    z1 = find_sigma_zeros(lambda t: sigma_ode(gs, sf, t), 1.0, 20.0, initial_points=64)
    z2 = find_sigma_zeros(lambda t: sigma_ode(scaled, sf, t), 1.0, 20.0, initial_points=64)
    ok = len(z1) == len(z2) and all(
        abs(a.t0 - b.t0) <= 1e-10 * a.t0 for a, b in zip(z1, z2)
    )
    sx.record("normalization-invariance", "zero-locations", ok,
              f"{len(z1)} zero(s); max shift "
              f"{max((abs(a.t0 - b.t0) / a.t0 for a, b in zip(z1, z2)), default=0.0):.2e}")


GROUPS = {
    "geometry": _geometry,
    "gamma": _gamma,
    "legendre-ode": _legendre_ode,
    "connection-formulas": _connection,
    "reflection-identities": _reflection_identities,
    "derivative-identities": _derivative_identities,
    "conical-realness": _conical_realness,
    "asymptotics": _asymptotics,
    "bessel": _bessel,
    "radial": _radial,
    "spectral": _spectral,
    "dual-route": _dual_route,
    "mode-identity": _mode_identity,
    "bifurcation": _bifurcation_checks,
    "monotonicity-ladder": _monotonicity_ladder,
    "dtn-structure": _dtn_structure,
    "normalization-invariance": _normalization_invariance,
}


def run_checks(groups=None, cases=DEFAULT_CASES, quick=True) -> list[CheckResult]:
    """Run the named groups (all by default) and return their results."""
    if groups is None:
        selected = list(GROUPS)
    else:
        unknown = [g for g in groups if g not in GROUPS]
        if unknown:
            raise ValueError(
                f"unknown check group(s) {', '.join(unknown)}; "
                f"available: {', '.join(GROUPS)}"
            )
        selected = list(groups)
    suite = _Suite(cases, quick)
    for name in selected:
        GROUPS[name](suite)
    return suite.results
