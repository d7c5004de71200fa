"""Named property-check suites behind the `verify` CLI subcommand.

These suites are the single source of the property checks: each identity's
inputs and tolerance are listed once, here.  tests/test_verify.py runs every
group on DEFAULT_CASES and requires each result to pass, so the same checks
gate the test suite and back `cylbif verify`.  Each check returns a
CheckResult; a check whose side conditions exclude the sampled parameters
reports itself as skipped with the reason logged instead of guessing a
limiting value.  A check over several inputs reports its worst residual,
and a NaN or infinite residual fails it.
"""

import cmath
import math
from dataclasses import dataclass
from itertools import product

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
    def __init__(self, cases):
        self.cases = tuple(cases)
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

    def check_max(self, group, name, residuals, tol):
        worst = np.max(residuals)  # propagates NaN, so a NaN residual fails
        self.record(group, name, worst <= tol, f"max residual {worst:.3e} (tol {tol:.1e})")


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


def _geometry(sx: _Suite):
    resid = []
    for n, k in ((2, 1.0), (3, -1.0), (2, -0.7), (4, 2.5)):
        sf = SpaceForm(n, k)
        for r in np.linspace(0.05, min(0.95 * sf.r_max, 2.0), 9):
            resid.append(abs(c_k(sf, r) ** 2 + k * s_k(sf, r) ** 2 - 1.0))
    sx.check_max("geometry", "pythagorean-identity", resid, 1e-13)

    resid = []
    h = 1e-6
    for n, k in ((2, 1.0), (3, -1.0), (2, 0.5), (3, 1.0), (3, 0.5), (3, -2.0)):
        sf = SpaceForm(n, k)
        for r in (0.2, 0.3, 0.7, 0.8, 1.1):
            ds = (s_k(sf, r + h) - s_k(sf, r - h)) / (2 * h)
            dc = (c_k(sf, r + h) - c_k(sf, r - h)) / (2 * h)
            resid.append(abs(ds - c_k(sf, r)) / abs(c_k(sf, r)))
            resid.append(abs(dc + k * s_k(sf, r)) / abs(k * s_k(sf, r)))
    sx.check_max("geometry", "derivative-identities", resid, 1e-8)

    # at unit curvature the warping functions are the library's trig and
    # hyperbolic functions themselves, so they agree bit for bit
    sf = SpaceForm(2, 1.0)
    hf = SpaceForm(2, -1.0)
    resid = []
    for r in (0.1, 0.7, 0.9, 1.7):
        resid += [
            abs(s_k(sf, r) - math.sin(r)),
            abs(c_k(sf, r) - math.cos(r)),
            abs(s_k(hf, r) - math.sinh(r)),
            abs(c_k(hf, r) - math.cosh(r)),
        ]
    sx.check_max("geometry", "unit-curvature-reduction", resid, 0.0)


def _gamma(sx: _Suite):
    resid = []
    for z in (0.8, 2.5, complex(1.5, 2.0), complex(-0.5, 3.0), complex(3.0, -1.2)):
        lhs = cmath.exp(log_gamma(z + 1) - log_gamma(z))
        resid.append(abs(lhs - z) / abs(z))
    sx.check_max("gamma", "recurrence", resid, 1e-12)

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
    resid = []
    for m, nu in ((0.0, complex(1.7)), (0.5, complex(-0.5, 2.0)), (-0.5, complex(2.3)),
                  (1.0, complex(-0.5, 1.0)), (-1.5, complex(0.9))):
        for x in (1.2, 1.54, 2.1):
            resid.append(_legendre_ode_residual(legendre_p, m, nu, x))
        for x in (-0.4, 0.2, 0.54):
            resid.append(_legendre_ode_residual(ferrers_p, m, nu, x))
    sx.check_max("legendre-ode", "second-order-equation", resid, 1e-7)


def _connection(sx: _Suite):
    resid = []
    for x in (4.0, 5.0, 8.0):
        for mu, nu in ((0.5, 1.3), (0.5, 0.7), (1.5, 0.9)):
            lhs = 2.0 * math.sin(mu * math.pi) / math.pi * legendre_q(mu, nu, x)
            rhs = legendre_p(mu, nu, x) / math.gamma(nu + mu + 1) - legendre_p(
                -mu, nu, x
            ) / math.gamma(nu - mu + 1)
            resid.append(abs(lhs - rhs) / abs(lhs))
    sx.check_max("connection-formulas", "first-vs-second-kind", resid, 1e-10)

    x = 5.0
    y = 2.0 / (1.0 - x)
    elementary = (x - 1) ** -0.75 * (x + 1) ** -0.25 * 2 * (1 - math.sqrt(1 - y)) / y
    resid = abs(legendre_q(0.5, 0.0, x) - elementary) / abs(elementary)
    sx.check_max("connection-formulas", "elementary-closed-form", resid, 1e-13)


def _reflection_identities(sx: _Suite):
    # the Legendre right side is real in exact arithmetic; its computed
    # imaginary part has its own, tighter bound
    resid, imag = [], []
    for mu in (1.0, 2.0):
        for nu in (complex(2.6), complex(-0.5, 2.4)):
            for x in (1.3, 1.9):
                ratio = cmath.exp(log_gamma(nu + mu + 1) - log_gamma(nu - mu + 1))
                lhs = legendre_p(mu, nu, x)
                rhs = ratio * legendre_p(-mu, nu, x)
                resid.append(abs(lhs - rhs.real) / (abs(lhs) + 1e-300))
                imag.append(abs(rhs.imag) / abs(rhs))
    worst, worst_imag = np.max(resid), np.max(imag)
    sx.record("reflection-identities", "legendre-integer-order",
              worst <= 1e-10 and worst_imag <= 1e-12,
              f"max residual {worst:.3e} (tol 1.0e-10), "
              f"max |Im rhs|/|rhs| {worst_imag:.3e} (tol 1.0e-12)")

    resid = []
    for mu in (1.0, 2.0):
        for nu in (complex(2.6), complex(-0.5, 2.4)):
            for x in (-0.3, 0.54):
                ratio = cmath.exp(log_gamma(nu + mu + 1) - log_gamma(nu - mu + 1))
                lhs = ferrers_p(mu, nu, x)
                rhs = ((-1.0) ** mu * ratio * ferrers_p(-mu, nu, x)).real
                resid.append(abs(lhs - rhs) / (abs(lhs) + 1e-300))
    sx.check_max("reflection-identities", "ferrers-integer-order", resid, 1e-10)


def _derivative_identities(sx: _Suite):
    resid = []
    h = 1e-6
    for m, nu in ((0.0, complex(1.0)), (-0.5, complex(-0.5, 2.0)), (0.5, complex(1.3))):
        for x in (1.3, 1.54, math.cosh(1.0)):
            ident = legendre_p_deriv(m, nu, x)
            cd = (legendre_p(m, nu, x + h) - legendre_p(m, nu, x - h)) / (2 * h)
            resid.append(abs(ident - cd) / (abs(cd) + 1e-300))
        for x in (0.3, 0.54, math.cos(1.0)):
            ident = ferrers_p_deriv(m, nu, x)
            cd = (ferrers_p(m, nu, x + h) - ferrers_p(m, nu, x - h)) / (2 * h)
            resid.append(abs(ident - cd) / (abs(cd) + 1e-300))
    sx.check_max("derivative-identities", "order-raising-vs-central-diff", resid, 1e-6)


def _conical_realness(sx: _Suite):
    resid = []
    for tau in (0.5, 0.7, 2.0, 2.4, 8.0, 9.0):
        nu = complex(-0.5, tau)
        for c, w in ((1.0, -0.27), (1.5, 0.23), (0.5, 0.4)):
            val = olver_hyp(nu + 1, -nu, c, w)
            resid.append(abs(val.imag) / abs(val))
    sx.check_max("conical-realness", "complex-path-imaginary-part", resid, 1e-12)

    resid = []
    for mu in (0.0, 0.5, 1.0):
        for tau in (1.0, 4.0, 16.0):
            prod = (complex(-0.5, tau) + mu + 1) * (complex(-0.5, tau) - mu)
            target = -0.25 - tau * tau - mu - mu * mu
            resid.append(abs(prod - target) / abs(target))
    sx.check_max("conical-realness", "order-shift-product", resid, 1e-15)


def _asymptotics(sx: _Suite):
    eps = 1e-8
    ch, cs, conical = math.cosh(1.0), math.cos(1.0), complex(-0.5, 50.0)
    # name: (form, tol, [(direct value, mu, nu, x), ...])
    checks = {
        "legendre-p-singular-edge": (FORM_LEGENDRE_P_EDGE_SINGULAR, 1e-3, [
            (legendre_p(0.5, 1.3, 1 + eps), 0.5, 1.3, 1 + eps)]),
        "legendre-p-integer-edge": (FORM_LEGENDRE_P_EDGE_INTEGER, 1e-3, [
            (legendre_p(1.0, 2.0, 1 + eps), 1.0, 2.0, 1 + eps)]),
        "ferrers-p-singular-edge": (FORM_FERRERS_P_EDGE_SINGULAR, 1e-3, [
            (ferrers_p(0.5, 1.3, 1 - eps), 0.5, 1.3, 1 - eps)]),
        "ferrers-p-integer-edge": (FORM_FERRERS_P_EDGE_INTEGER, 1e-3, [
            (ferrers_p(1.0, 2.3, 1 - eps), 1.0, 2.3, 1 - eps)]),
        # Q near the edge comes from the connection formula, since its own
        # series needs x > 3
        "legendre-q-singular-edge": (FORM_LEGENDRE_Q_EDGE_SINGULAR, 1e-3, [
            (math.pi / (2 * math.sin(0.5 * math.pi)) * (
                legendre_p(0.5, 1.3, 1 + eps) / math.gamma(1.3 + 0.5 + 1)
                - legendre_p(-0.5, 1.3, 1 + eps) / math.gamma(1.3 - 0.5 + 1)),
             0.5, 1.3, 1 + eps)]),
        "legendre-p-large-degree-neg": (FORM_LEGENDRE_P_LARGE_DEGREE_NEG, 1e-2, [
            (legendre_p(-mu, 50.0, ch), mu, 50.0, ch) for mu in (0.0, 0.5)]),
        "legendre-p-large-degree-pos": (FORM_LEGENDRE_P_LARGE_DEGREE_POS, 1e-2, [
            (legendre_p(mu, 50.0, ch), mu, 50.0, ch) for mu in (0.0, 1.0)]),
        "bessel-i-large-argument": (FORM_BESSEL_I_LARGE_ARGUMENT, 1e-2, [
            (bessel_i(mu, 50.5), mu, 50.0, math.nan) for mu in (0.0, 1.0)]),
        "ferrers-p-large-conical": (FORM_FERRERS_P_LARGE_CONICAL, 1e-2, [
            (ferrers_p(-mu, conical, cs), mu, conical, cs) for mu in (0.0, 0.5)]),
    }
    for name, (form, tol, members) in checks.items():
        dev = np.array([value / asymptotic_form(form, mu, nu, x) - 1.0
                        for value, mu, nu, x in members])
        worst = dev[np.argmax(np.abs(dev))]  # the first NaN, if any
        sx.record("asymptotics", name, abs(worst) <= tol,
                  f"ratio-1 = {worst:.3e} (tol {tol:.0e})")
    # an excluded side condition or an unknown form is rejected, not guessed
    missed = []
    for form, mu, nu, x, reason in (
        (FORM_FERRERS_P_EDGE_SINGULAR, -0.5, 1.3, 1 - eps, "excluded"),
        (FORM_FERRERS_P_EDGE_SINGULAR, -0.5, 1.3, 0.9999, "excluded"),
        (FORM_LEGENDRE_P_EDGE_SINGULAR, 2.0, 1.3, 1.0001, "excluded"),
        (FORM_LEGENDRE_P_EDGE_INTEGER, 1.0, -2.0, 1.0001, "excluded"),
        ("no-such-form", 0.0, 1.0, 1.5, "unknown"),
    ):
        try:
            asymptotic_form(form, mu, nu, x)
        except ValueError as exc:
            if reason in str(exc):
                continue
        missed.append(f"{form}(mu={mu}, nu={nu}, x={x})")
    sx.record("asymptotics", "excluded-combination", not missed,
              "not rejected: " + "; ".join(missed) if missed else
              "5 excluded or unknown inputs rejected")


def _bessel(sx: _Suite):
    # residual through the derivative identity I'_mu = I_(mu+1) + (mu/x) I_mu,
    # which reduces the equation to the three-term recurrence between three
    # independently summed series
    resid = []
    for mu, x in ((0.0, 1.3), (1.0, 2.5), (0.5, 4.0), (2.0, 10.0)):
        i0 = bessel_i(mu, x)
        i1 = bessel_i(mu + 1.0, x)
        i2 = bessel_i(mu + 2.0, x)
        resid.append(abs(x * x * i2 + 2.0 * (mu + 1.0) * x * i1 - x * x * i0) / (x * x * abs(i0)))
    sx.check_max("bessel", "modified-equation", resid, 1e-10)

    exact = math.sqrt(2.0 / (math.pi * 2.0)) * math.sinh(2.0)
    resid = abs(bessel_i(0.5, 2.0) - exact) / exact
    sx.check_max("bessel", "half-integer-closed-form", resid, 1e-14)


def _representation(sf: SpaceForm, lam: float):
    """The regular solution u(r) = S_k^(-mu) P^(-mu)_nu(C_k(r)), mu = (n-2)/2,
    nu = nu*(lam), and sqrt|k| S_k(1)^(-mu) P^(-mu+1)_nu(C_k(1)), which is
    u'(1) wherever u(1) = 0."""
    order = -(sf.n - 2) / 2.0
    fam = legendre_p if sf.k < 0 else ferrers_p
    nu = Degree.from_spectral(sf, lam)

    def u(r):
        return s_k(sf, r) ** order * fam(order, nu, c_k(sf, r))

    du1 = math.sqrt(abs(sf.k)) * s_k(sf, 1.0) ** order * fam(order + 1.0, nu, c_k(sf, 1.0))
    return u, du1


def _radial(sx: _Suite):
    # the regular solution at Lam = 5 of each case, and at six fixed
    # (n, k, Lam) of either parity of n and either sign of k
    resid = []
    fixed = ((2, -1.0, 5.0), (2, 1.0, 5.0), (3, -1.0, 9.0), (3, 1.0, 6.0), (2, -1.0, 0.8),
             (4, -1.0, 5.0))
    for n, k, lam in [*((n, k, 5.0) for n, k in sx.cases), *fixed]:
        sf = SpaceForm(n, k)
        rad = solve_regular(sf, lam)
        u, _ = _representation(sf, lam)
        const = rad.value(0.5) / u(0.5)
        for r in (0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.7, 0.75, 0.85, 0.9, 0.95):
            resid.append(abs(const * u(r) - rad.value(r)) / abs(rad.value(r)))
    sx.check_max("radial", "separated-representation", resid, 1e-7)

    # the representation matched to the ground state at r = 0.5 gives phi'(1)
    # independently of the profile's boundary derivative
    resid = []
    for n, k in sx.cases:
        gs = sx.gs(n, k)
        u, du1 = _representation(SpaceForm(n, k), gs.lambda1)
        dphi1 = gs.phi(0.5) / u(0.5) * du1
        resid.append(abs(dphi1 - gs.dphi1) / abs(gs.dphi1))
    sx.check_max("radial", "representation-dphi1", resid, 1e-9)

    sf = SpaceForm(2, -1.0)
    u1, du1 = shoot(sf, 5.0)
    r1, rdu1 = rk4_shoot(sf, 5.0)
    sx.check_max("radial", "dual-integrator",
                 [abs(u1 - r1) / abs(u1), abs(du1 - rdu1) / abs(du1)], 1e-8)

    a1, b1 = rk4_shoot(sf, 5.0, steps=20000)
    a2, b2 = rk4_shoot(sf, 5.0, steps=40000)
    sx.check_max("radial", "half-step-stability",
                 [abs(a1 - a2) / abs(a2), abs(b1 - b2) / abs(b2)], 1e-10)

    # a larger spectral parameter gives an earlier first zero
    pairs = [(first_zero(sf, lam, 4.0), first_zero(sf, 2.0 * lam, 4.0))
             for lam in (6.5, 8.0, 20.0)]
    sx.record("radial", "sturm-comparison",
              all(None not in pair and pair[1] < pair[0] for pair in pairs),
              "first zeros " + ", ".join(
                  " -> ".join("None" if z is None else f"{z:.6f}" for z in pair) for pair in pairs
              ) + " under parameter doubling")

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
        # within 3 error bars at m = 256 and 512, and within 1e-6 relative
        # at m = 512
        ok, parts = True, []
        for m in (256, 512):
            fd = oracle.fd_lambda1(SpaceForm(n, k), m)
            diff = abs(fd.value - gs.lambda1)
            bound = 3.0 * fd.error if m == 256 else min(3.0 * fd.error, 1e-6 * gs.lambda1)
            ok = ok and diff <= bound
            parts.append(f"m={m}: |fd-shoot| = {diff:.2e} vs {bound:.2e}")
        sx.record("spectral", f"fd-eigenvalue-n{n}k{k:+.0f}", ok, "; ".join(parts))
        sx.check_max("spectral", f"norm-residual-n{n}k{k:+.0f}", gs.norm_residual, 1e-9)
        ident = abs(gs.ddphi1 + radial_drift(SpaceForm(n, k), 1.0) * gs.dphi1)
        sx.check_max("spectral", f"boundary-identity-n{n}k{k:+.0f}", ident, 0.0)
    pairs = [(sx.gs(n, 1.0).lambda1, sx.gs(n, -1.0).lambda1)
             for n in sorted({n for n, _ in sx.cases})
             if (n, 1.0) in sx.cases and (n, -1.0) in sx.cases]
    if pairs:
        sx.record("spectral", "eigenvalue-monotonicity-in-k", all(a < b for a, b in pairs),
                  "; ".join(f"{a:.6f} < {b:.6f}" for a, b in pairs))


def _dual_route(sx: _Suite):
    for n, k in sx.cases:
        rows = scan(sx.gs(n, k), SpaceForm(n, k), 0.1, 100.0, 200).rows()
        # a route failure leaves nan in its row, and nan fails the check
        resid = [abs(r["sigma_ode"] - r["sigma_cf"]) / (1.0 + abs(r["sigma_ode"])) for r in rows]
        sx.check_max("dual-route", f"agreement-n{n}k{k:+.0f}", resid, 1e-7)


def _mode_identity(sx: _Suite):
    n, k = sx.cases[0]
    sf = SpaceForm(n, k)
    gs = sx.gs(n, k)
    resid = []
    for t_period, j in [*product((1.7, 4.0, 23.0), range(2, 9)),
                        *product((2.0, 7.0, 31.0), (2, 3, 8))]:
        a = sigma_ode(gs, sf, t_period, j)
        b = sigma_ode(gs, sf, t_period / j, 1)
        resid.append(abs(a - b) / (1.0 + abs(a)))
    sx.check_max("mode-identity", "rescaling", resid, 1e-12)


def _bifurcation_checks(sx: _Suite):
    for n, k in sx.cases:
        sf = SpaceForm(n, k)
        gs = sx.gs(n, k)
        rep = sx.bif(n, k)
        t_star = rep.t_star
        lo = sigma_ode(gs, sf, 0.05 * t_star)
        lo_fixed = sigma_ode(gs, sf, 0.15)
        hi = sigma_ode(gs, sf, 50.0 * t_star)
        hi_fixed = sigma_ode(gs, sf, 150.0)
        sx.record("limit-signs", f"n{n}k{k:+.0f}", lo > 0.0 and lo_fixed > 0.0 and hi < 0.0 and hi_fixed < 0.0,
                  f"sigma(0.05 T*) = {lo:.4g}, sigma(0.15) = {lo_fixed:.4g}, "
                  f"sigma(50 T*) = {hi:.4g}, sigma(150) = {hi_fixed:.4g}")
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


def run_checks(groups=None, cases=DEFAULT_CASES) -> list[CheckResult]:
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
    suite = _Suite(cases)
    for name in selected:
        GROUPS[name](suite)
    return suite.results
