"""The dispersion relation sigma_j(T) of the linearized boundary operator.

For the Fourier mode cos(2 pi j t / T) the linearization reduces to a radial
boundary-value problem with shifted spectral parameter

    Lam_j = lambda1 - (2 pi j / T)^2  <  lambda1,

whose continuous-at-the-origin solution c_j carries c_j(1) = -phi'(1) and

    sigma_j(T) = c_j'(1) + phi''(1).

Two independent evaluation routes are provided:

* ``sigma_ode``     -- solve the shifted radial ODE and form
                       -phi'(1) [w'(1)/w(1) + (n-1) C_k(1)/S_k(1)];
* ``sigma_closed``  -- the closed-form expressions in Legendre (k < 0) or
                       Ferrers (k > 0) functions of degree
                       nu* = -1/2 + sqrt((n-1)^2/4 + Lam_j/k) at x = C_k(1),
                       with order mu = (n-2)/2 (integer for even n) or -mu
                       (odd n), and the representation coefficient matched to
                       the ground state in the interior.

Agreement between the routes at every (T, j) is the package's central
correctness property.
"""

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DegeneracyError
from .geometry import SpaceForm, c_k, radial_drift, s_k
from .spectral import GroundState
from .specfun import Degree, ferrers_p, legendre_p
from .radial import shoot

AGREEMENT_RTOL = 1e-7
T_HI_CAP = 200.0

ROUTE_ODE = "ode"
ROUTE_CLOSED = "closed_form"


def mode_order(n: int) -> tuple[float, bool]:
    """(mu, is_integer) with mu = (n-2)/2; integer orders for even n."""
    mu = (n - 2) / 2.0
    return mu, n % 2 == 0


def shifted_lambda(gs: GroundState, t_period: float, j: int) -> float:
    if t_period <= 0.0:
        raise ValueError(f"period must satisfy T > 0, got T={t_period}")
    if j < 1:
        raise ValueError(f"mode index must satisfy j >= 1, got j={j}")
    return gs.lambda1 - (2.0 * math.pi * j / t_period) ** 2


def sigma_reduced(
    gs: GroundState,
    sf: SpaceForm,
    t_period: float | np.ndarray,
    j: int = 1,
    rtol: float = 1e-12,
    atol: float = 1e-14,
) -> float | np.ndarray:
    """Normalization-free form w'(1)/w(1) + (n-1) C_k(1)/S_k(1).

    Shares its zeros with sigma (sigma = -phi'(1) * reduced, -phi'(1) > 0);
    preferred for root finding because it does not depend on s.  An ndarray
    of periods is one batched radial solve; if that solve fails, each member
    is solved on its own, so the first failing member raises its own error.
    """
    if np.ndim(t_period) == 0:
        lam = shifted_lambda(gs, t_period, j)
        return _reduced(sf, *shoot(sf, lam, rtol=rtol, atol=atol), t_period, j)
    periods = np.asarray(t_period, dtype=float).tolist()
    lams = [shifted_lambda(gs, t, j) for t in periods]
    boundary = _shoot_batch(sf, lams, rtol=rtol, atol=atol)
    return np.array(
        [
            _reduced(sf, *(wb or shoot(sf, lam, rtol=rtol, atol=atol)), t, j)
            for t, lam, wb in zip(periods, lams, boundary)
        ]
    )


def _shoot_batch(sf: SpaceForm, lams: list[float], **tol) -> list:
    """(w(1), w'(1)) per member from one batched solve, or None per member when
    the batch fails (a member whose solution overflows fails it whole)."""
    try:
        w1, dw1 = shoot(sf, np.array(lams), **tol)
    except ConvergenceError:
        return [None] * len(lams)
    return list(zip(w1.tolist(), dw1.tolist()))


def _reduced(sf: SpaceForm, w1: float, dw1: float, t_period: float, j: int) -> float:
    """The reduced form from the boundary values (w(1), w'(1)) of one solve."""
    if abs(w1) < 1e-12 * abs(dw1):
        raise DegeneracyError(
            f"w(1) ~ 0 at T={t_period}, j={j}: shifted parameter hit a Dirichlet "
            "eigenvalue, which contradicts Lam_j < lambda1"
        )
    return dw1 / w1 + radial_drift(sf, 1.0)


def sigma_ode(
    gs: GroundState, sf: SpaceForm, t_period: float | np.ndarray, j: int = 1
) -> float | np.ndarray:
    """sigma_j(T) through the shifted radial ODE solve (batched like sigma_reduced)."""
    return -gs.dphi1 * sigma_reduced(gs, sf, t_period, j)


# ---------------------------------------------------------------------------
# closed-form route
# ---------------------------------------------------------------------------


@dataclass
class _ClosedFormContext:
    """Per-ground-state constants of the closed-form route."""

    mu: float
    integer_order: bool
    x1: float
    s1_pow: float  # S_k(1)^(1 - n/2)
    s1_pow_n2: float  # S_k(1)^(-n/2)
    sqrt_abs_k: float
    nu: Degree
    s_rep: float
    f_up_nu: float  # family(order+1 of the representation, nu, x1)


_CF_CACHE: "weakref.WeakKeyDictionary[GroundState, _ClosedFormContext]" = (
    weakref.WeakKeyDictionary()
)


def _family(sf: SpaceForm):
    return legendre_p if sf.k < 0 else ferrers_p


def _closed_form_context(gs: GroundState, sf: SpaceForm) -> _ClosedFormContext:
    ctx = _CF_CACHE.get(gs)
    if ctx is not None:
        return ctx
    n, k = sf.n, sf.k
    mu, integer_order = mode_order(n)
    fam = _family(sf)
    nu = Degree.from_spectral(sf, gs.lambda1)
    x1 = c_k(sf, 1.0)
    s1 = s_k(sf, 1.0)
    m0 = mu if integer_order else -mu

    # Representation coefficient: match phi = s_rep S_k^(1-n/2) f(m0, nu, C_k(r))
    # against the ground-state profile at an interior point, then confirm the
    # represented phi is positive on (0, 1) rather than trusting sign
    # bookkeeping in the case formulas.
    r_match = 0.5
    base = s_k(sf, r_match) ** (1.0 - n / 2.0) * fam(m0, nu, c_k(sf, r_match))
    s_rep = gs.phi(r_match) / base
    for r in np.linspace(0.08, 0.92, 12):
        rep = s_rep * s_k(sf, r) ** (1.0 - n / 2.0) * fam(m0, nu, c_k(sf, r))
        if not rep > 0.0:
            raise DegeneracyError(
                f"represented eigenfunction not positive at r={r:.3g} "
                f"(value {rep:.3g}); representation order {m0}"
            )
    f_up_nu = fam(m0 + 1.0, nu, x1)
    ctx = _ClosedFormContext(
        mu=mu,
        integer_order=integer_order,
        x1=x1,
        s1_pow=s1 ** (1.0 - n / 2.0),
        s1_pow_n2=s1 ** (-n / 2.0),
        sqrt_abs_k=math.sqrt(abs(k)),
        nu=nu,
        s_rep=s_rep,
        f_up_nu=f_up_nu,
    )
    _CF_CACHE[gs] = ctx
    return ctx


def sigma_closed(gs: GroundState, sf: SpaceForm, t_period: float, j: int = 1) -> float:
    """sigma_j(T) through the closed-form case table.

    k < 0, integer mu:      c'(1) = s k S^(1-n/2) P^(mu+1)_nu P^(mu+1)_nu* / P^mu_nu*
    k > 0, integer mu:      same with Ferrers functions and a leading minus
    k < 0, half-integer mu: c'(1) = A [sqrt(-k) S^(1-n/2) P^(-mu+1)_nu*
                                       - 2 mu C_k(1) S^(-n/2) P^(-mu)_nu*],
                            A = -s sqrt(-k) P^(-mu+1)_nu / P^(-mu)_nu*
    k > 0, half-integer mu: same with Ferrers functions and sqrt(k)

    with all functions evaluated at x = C_k(1).
    """
    ctx = _closed_form_context(gs, sf)
    lam = shifted_lambda(gs, t_period, j)
    nu_star = Degree.from_spectral(sf, lam)
    fam = _family(sf)
    mu = ctx.mu
    if ctx.integer_order:
        den = fam(mu, nu_star, ctx.x1)
        if den == 0.0:
            raise DegeneracyError(
                f"representation denominator vanished at T={t_period}, j={j}"
            )
        num = ctx.f_up_nu * fam(mu + 1.0, nu_star, ctx.x1)
        lead = sf.k if sf.k < 0 else -sf.k
        c1p = lead * ctx.s_rep * ctx.s1_pow * num / den
    else:
        den = fam(-mu, nu_star, ctx.x1)
        if den == 0.0:
            raise DegeneracyError(
                f"representation denominator vanished at T={t_period}, j={j}"
            )
        a_const = -ctx.s_rep * ctx.sqrt_abs_k * ctx.f_up_nu / den
        c1p = a_const * (
            ctx.sqrt_abs_k * ctx.s1_pow * fam(-mu + 1.0, nu_star, ctx.x1)
            - 2.0 * mu * ctx.x1 * ctx.s1_pow_n2 * den
        )
    return c1p + gs.ddphi1


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


@dataclass
class DispersionSample:
    """One evaluation of sigma_j(T) with the route recorded."""

    t_period: float
    j: int
    sigma: float
    route: str
    nu_star: complex
    sigma_reduced: float | None = None
    error: str | None = None


@dataclass
class DispersionCurve:
    """Paired-route samples of sigma_j over a strictly increasing T grid."""

    n: int
    k: float
    j: int
    samples: list[DispersionSample] = field(default_factory=list)

    CSV_HEADER = (
        "n,k,j,T,sigma_ode,sigma_cf,sigma_reduced,nu_star_re,nu_star_im,agree_flag"
    )

    def rows(self):
        """Merge the per-T route pairs into CSV-ready dicts."""
        by_t: dict[float, dict] = {}
        for s in self.samples:
            row = by_t.setdefault(
                s.t_period,
                {
                    "n": self.n,
                    "k": self.k,
                    "j": self.j,
                    "T": s.t_period,
                    "sigma_ode": math.nan,
                    "sigma_cf": math.nan,
                    "sigma_reduced": math.nan,
                    "nu_star_re": s.nu_star.real,
                    "nu_star_im": s.nu_star.imag,
                    "error": None,
                },
            )
            if s.route == ROUTE_ODE:
                row["sigma_ode"] = s.sigma
                if s.sigma_reduced is not None:
                    row["sigma_reduced"] = s.sigma_reduced
            else:
                row["sigma_cf"] = s.sigma
            if s.error:
                row["error"] = s.error
        out = []
        for t_period in sorted(by_t):
            row = by_t[t_period]
            ode, cf = row["sigma_ode"], row["sigma_cf"]
            row["agree_flag"] = bool(
                math.isfinite(ode)
                and math.isfinite(cf)
                and abs(ode - cf) <= AGREEMENT_RTOL * (1.0 + abs(ode))
            )
            out.append(row)
        return out

    def csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for row in self.rows():
            lines.append(
                ",".join(
                    [
                        str(row["n"]),
                        format(row["k"], ".17g"),
                        str(row["j"]),
                        format(row["T"], ".17g"),
                        format(row["sigma_ode"], ".17g"),
                        format(row["sigma_cf"], ".17g"),
                        format(row["sigma_reduced"], ".17g"),
                        format(row["nu_star_re"], ".17g"),
                        format(row["nu_star_im"], ".17g"),
                        "true" if row["agree_flag"] else "false",
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.csv_text())


def _scan_point(gs, sf, t_period, j, lam, boundary) -> tuple[DispersionSample, ...]:
    """Both routes at one T, each failure recorded in its own sample.

    boundary is (w(1), w'(1)) from the batched solve, or None to solve this
    member on its own.
    """
    nu_star = complex(Degree.from_spectral(sf, lam))
    ode = DispersionSample(t_period, j, math.nan, ROUTE_ODE, nu_star)
    closed = DispersionSample(t_period, j, math.nan, ROUTE_CLOSED, nu_star)
    try:
        ode.sigma_reduced = _reduced(sf, *(boundary or shoot(sf, lam)), t_period, j)
        ode.sigma = -gs.dphi1 * ode.sigma_reduced
    except Exception as exc:  # recorded in-line, scan continues
        ode.error = str(exc)
    try:
        closed.sigma = sigma_closed(gs, sf, t_period, j)
    except Exception as exc:
        closed.error = str(exc)
    return ode, closed


def scan(
    gs: GroundState,
    sf: SpaceForm,
    t_lo: float,
    t_hi: float,
    points: int,
    j: int = 1,
    t_hi_cap: float = T_HI_CAP,
) -> DispersionCurve:
    """Log-spaced dual-route scan of sigma_j on [t_lo, t_hi].

    The upper end is capped (default 200): arbitrarily large periods only
    probe the degenerate T -> infinity regime.  The ODE route of the whole
    grid is one batched radial solve; if that solve fails (a member whose
    solution overflows fails the batch), each member is solved on its own so
    a failure stays with its sample.  Samples come in increasing T order.
    """
    if not 0.0 < t_lo < t_hi:
        raise ValueError(f"need 0 < t_lo < t_hi, got t_lo={t_lo}, t_hi={t_hi}")
    if t_hi > t_hi_cap:
        raise ValueError(f"t_hi={t_hi} exceeds the cap {t_hi_cap}")
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    if j < 1:
        raise ValueError(f"mode index must satisfy j >= 1, got j={j}")
    grid = np.geomspace(t_lo, t_hi, points)
    grid[0], grid[-1] = t_lo, t_hi  # exact endpoints
    periods = grid.tolist()
    lams = [shifted_lambda(gs, t, j) for t in periods]
    curve = DispersionCurve(n=sf.n, k=sf.k, j=j)
    for t_period, lam, wb in zip(periods, lams, _shoot_batch(sf, lams)):
        curve.samples.extend(_scan_point(gs, sf, t_period, j, lam, wb))
    return curve
