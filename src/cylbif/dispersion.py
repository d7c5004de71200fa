"""The dispersion relation sigma_j(T) of the linearized boundary operator.

For the Fourier mode cos(2 pi j t / T) the linearization reduces to a radial
boundary-value problem with shifted spectral parameter

    Lam_j = lambda1 - (2 pi j / T)^2  <  lambda1,

whose regular solution w gives sigma_j(T) = -phi'(1) g(Lam_j), with the
reduced curve g = w'(1)/w(1) + (n-1) C_k(1)/S_k(1).  Two independent routes
evaluate g:

* ``sigma_ode``     -- solve the shifted radial ODE for w, or, for
                       Lam_j = -kappa^2 deep enough that the solve is
                       stiff, take g from the Liouville-Green expansion
                       (radial.liouville_green);
* ``sigma_closed``  -- w = S_k^(-mu) P^(-mu)_nu*(C_k(r)), mu = (n-2)/2, with
                       Legendre (k < 0) or Ferrers (k > 0) functions of degree
                       nu* = -1/2 + sqrt((n-1)^2/4 + Lam_j/k).  The identity
                       (x^2-1) dP^m/dx = (x^2-1)^(1/2) P^(m+1) + m x P^m, with
                       dx/dr = -k S_k and x^2-1 = |k| S_k^2 (same signs for
                       Ferrers functions), gives
                       g = sqrt|k| P^(-mu+1)_nu*(x1) / P^(-mu)_nu*(x1) + C_k(1)/S_k(1)
                       at x1 = C_k(1), a function of (n, k, Lam_j) alone.

sigma_ode, sigma_closed and scan each apply the ground state's -phi'(1)
once.  Agreement between the routes at every (T, j) is the package's central
correctness property.  Each route has one outcome path (_ode_outcomes,
_closed_outcomes) that takes the periods (for error texts) with their Lam_j
and yields, member by member, g or the exception that member's own
evaluation raises.

On the ODE route, each member first meets the Liouville-Green acceptance
rule: kappa = sqrt(-Lam_j) >= 20, where the neglected recessive solution is
below e^(-40), and the last two of the 13 terms in 1/kappa below 1e-14 |g|,
under the integrator's rtol of 1e-12.  An accepted member takes that value,
the same alone as in any batch; it is what keeps the integrator away from
the stiff, overflowing solves at small T / j.  The remaining members, two or
more, are one batched radial solve; a single one, and each member of a
failed batch, is solved on its own.  On the closed-form route each order
is one specfun._first_kind_many call, which sums each member's series once
and returns its value or its own error; a vanishing denominator is a
DegeneracyError and a value that overflows a ConvergenceError.  The public
functions raise the first failing member's error; a scan records each in
its sample.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DegeneracyError
from .geometry import SpaceForm, c_k, radial_drift, s_k
from .spectral import GroundState
from .specfun import Degree, _first_kind_many
from .radial import liouville_green, shoot

AGREEMENT_RTOL = 1e-7
T_HI_CAP = 200.0

ROUTE_ODE = "ode"
ROUTE_CLOSED = "closed_form"


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
) -> float | np.ndarray:
    """Normalization-free form w'(1)/w(1) + (n-1) C_k(1)/S_k(1).

    Shares its zeros with sigma (sigma = -phi'(1) * reduced, -phi'(1) > 0);
    preferred for root finding because it does not depend on s.  Evaluated
    as _ode_outcomes lays out.
    """
    return _evaluate(_ode_outcomes, gs, sf, t_period, j)


def _evaluate(outcomes, gs: GroundState, sf: SpaceForm, t_period, j: int):
    """A route's value: a float for a float period, else an ndarray, each
    member's Lam_j mapped once; the first failing member raises its error."""
    scalar = np.ndim(t_period) == 0
    periods = [t_period] if scalar else np.asarray(t_period, dtype=float).tolist()
    lams = [shifted_lambda(gs, t, j) for t in periods]
    values = []
    for outcome in outcomes(sf, periods, lams, j):
        if isinstance(outcome, Exception):
            raise outcome
        values.append(outcome)
    return values[0] if scalar else np.array(values)


def _ode_outcomes(sf: SpaceForm, periods: list, lams: list, j: int):
    """The reduced form of each member in order, or the exception its own
    solve raises.  A member that radial.liouville_green accepts takes its
    value.  The others are solved: two or more in one batched solve; a
    single one, and each member of a failed batch, on its own.  An
    overflowing solve fails with its ConvergenceError alone: floating-point
    warnings are silenced for each solve, never across a yield."""
    asymptotic = liouville_green(sf, np.array(lams)).tolist()
    solved = [lam for lam, g in zip(lams, asymptotic) if math.isnan(g)]
    boundary = iter(_shoot_batch(sf, solved) if len(solved) > 1 else [None])
    for t_period, lam, g in zip(periods, lams, asymptotic):
        if not math.isnan(g):
            yield g
            continue
        wb = next(boundary)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                w1, dw1 = wb or shoot(sf, lam)
            outcome = _reduced(sf, w1, dw1, t_period, j)
        except Exception as exc:  # the member's own outcome
            outcome = exc
        yield outcome


def _shoot_batch(sf: SpaceForm, lams: list[float]) -> list:
    """(w(1), w'(1)) per member from one batched solve, or None per member when
    the batch fails (a member whose solution overflows fails it whole, with
    its floating-point warnings silenced)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            w1, dw1 = shoot(sf, np.array(lams))
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


def sigma_closed(
    gs: GroundState, sf: SpaceForm, t_period: float | np.ndarray, j: int = 1
) -> float | np.ndarray:
    """sigma_j(T) through the closed-form reduced curve
    g = sqrt|k| P^(-mu+1)_nu*(x1) / P^(-mu)_nu*(x1) + C_k(1)/S_k(1), times
    -phi'(1).  Evaluated as _closed_outcomes lays out."""
    return -gs.dphi1 * _evaluate(_closed_outcomes, gs, sf, t_period, j)


def _closed_outcomes(sf: SpaceForm, periods: list, lams: list, j: int):
    """The reduced curve of each member in order, or the exception its own
    evaluation raises: its series' error, then a DegeneracyError where the
    denominator vanishes, then a ConvergenceError naming the overflow.  Each
    order is one _first_kind_many call, the raised one where den is usable."""
    order = -(sf.n - 2) / 2.0  # -mu
    x1 = c_k(sf, 1.0)
    root, cot = math.sqrt(abs(sf.k)), x1 / s_k(sf, 1.0)
    nus = [Degree.from_spectral(sf, lam).value for lam in lams]
    dens = _first_kind_many(order, nus, x1)
    usable = [i for i, den in enumerate(dens) if not isinstance(den, Exception) and den != 0.0]
    ups = dict(zip(usable, _first_kind_many(order + 1.0, [nus[i] for i in usable], x1)))
    for i, (t_period, den) in enumerate(zip(periods, dens)):
        up = ups.get(i, den)  # den's own error where up was not summed
        if den == 0.0:
            outcome = DegeneracyError(f"closed-form denominator vanished at T={t_period}, j={j}")
        elif isinstance(up, Exception):
            outcome = up
        else:
            outcome = root * up / den + cot
            if not math.isfinite(outcome):
                outcome = ConvergenceError(
                    f"closed form overflows at T={t_period}, j={j}: "
                    f"P^(-mu)_nu* = {den!r}, P^(-mu+1)_nu* = {up!r}"
                )
        yield outcome


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


def check_scan_args(t_lo: float, t_hi: float, points: int, j: int) -> None:
    """Raise ValueError unless 0 < t_lo < t_hi <= T_HI_CAP, points >= 2 and j >= 1."""
    if not 0.0 < t_lo < t_hi:
        raise ValueError(f"need 0 < t_lo < t_hi, got t_lo={t_lo}, t_hi={t_hi}")
    if t_hi > T_HI_CAP:
        raise ValueError(f"t_hi={t_hi} exceeds the cap {T_HI_CAP}")
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    if j < 1:
        raise ValueError(f"mode index must satisfy j >= 1, got j={j}")


def scan(
    gs: GroundState,
    sf: SpaceForm,
    t_lo: float,
    t_hi: float,
    points: int,
    j: int = 1,
) -> DispersionCurve:
    """Log-spaced dual-route scan of sigma_j on [t_lo, t_hi].

    The upper end is capped at T_HI_CAP: arbitrarily large periods only
    probe the degenerate T -> infinity regime.  Both routes evaluate the
    whole grid through their outcome paths, and a member's error stays with
    its sample.  Samples come in increasing T order.
    """
    check_scan_args(t_lo, t_hi, points, j)
    grid = np.geomspace(t_lo, t_hi, points)
    grid[0], grid[-1] = t_lo, t_hi  # exact endpoints
    periods = grid.tolist()
    lams = [shifted_lambda(gs, t, j) for t in periods]
    curve = DispersionCurve(n=sf.n, k=sf.k, j=j)
    for t_period, lam, reduced, closed in zip(
        periods,
        lams,
        _ode_outcomes(sf, periods, lams, j),
        _closed_outcomes(sf, periods, lams, j),
    ):
        nu_star = complex(Degree.from_spectral(sf, lam))
        ode = DispersionSample(t_period, j, math.nan, ROUTE_ODE, nu_star)
        cf = DispersionSample(t_period, j, math.nan, ROUTE_CLOSED, nu_star)
        if isinstance(reduced, Exception):
            ode.error = str(reduced)
        else:
            ode.sigma_reduced, ode.sigma = reduced, -gs.dphi1 * reduced
        if isinstance(closed, Exception):
            cf.error = str(closed)
        else:
            cf.sigma = -gs.dphi1 * closed
        curve.samples += (ode, cf)
    return curve
