"""Ground state of the unit geodesic ball: lambda1, profile, boundary data.

lambda1 is the smallest Lam > 0 for which the regular radial solution
vanishes at r = 1, found by a coarse scan and a bracket-safe bisection/secant
polish on u(1; Lam).  The eigenfunction phi = s * u is normalized so that

    2 pi * Vol(S^(n-1)) * int_0^1 phi^2 S_k(r)^(n-1) dr = 1,

i.e. unit L^2 mass on the period-2pi cylinder over the ball.  phi''(1)
follows from the ODE at the boundary: phi''(1) = -(n-1)(C_k/S_k)(1) phi'(1).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .geometry import SpaceForm, radial_drift, sphere_volume
from .radial import RadialSolution, shoot, solve_regular

SCAN_START = 0.05
SCAN_STEP = 0.25
SCAN_CAP = 500.0
_SCAN_BLOCK = 400  # grid points per batched solve of the coarse scan (Lam < 100 first)
ROOT_TOL = 1e-12


def find_lambda1(sf: SpaceForm, cap: float = SCAN_CAP) -> float:
    """Smallest Lam > 0 with u(1; Lam) = 0 for the regular solution.

    Coarse scan from SCAN_START in steps of SCAN_STEP locates the first sign
    change of u(1; Lam); bisection plus secant polish drives |u(1)| below
    ROOT_TOL.  u(1; Lam) decreases through the crossing (simple eigenvalue).
    The scan grid is shot _SCAN_BLOCK points at a time by one batched solve,
    so its cost hardly depends on where lambda1 lies.
    """
    grid = [SCAN_START]
    while grid[-1] < cap:
        grid.append(grid[-1] + SCAN_STEP)
    for start in range(0, len(grid) - 1, _SCAN_BLOCK):
        lams = grid[start : start + _SCAN_BLOCK + 1]  # blocks overlap by one point
        u1 = shoot(sf, np.array(lams))[0].tolist()
        if start == 0 and u1[0] <= 0.0:
            raise ConvergenceError(f"u(1) not positive at scan start Lam={SCAN_START}")
        cross = [i for i in range(len(lams) - 1) if u1[i] * u1[i + 1] < 0.0]
        if cross:
            i = cross[0]
            lam_lo, f_lo, lam_hi, f_hi = lams[i], u1[i], lams[i + 1], u1[i + 1]
            break
    else:
        raise ConvergenceError(
            f"no sign change of u(1; Lam) found for Lam <= {cap} (n={sf.n}, k={sf.k})"
        )

    # Bisection to a narrow bracket, then secant steps kept inside it.
    a, fa, b, fb = lam_lo, f_lo, lam_hi, f_hi
    for _ in range(30):
        mid = 0.5 * (a + b)
        fm = shoot(sf, mid)[0]
        if fa * fm <= 0.0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    lam_prev, f_prev = a, fa
    lam_cur, f_cur = b, fb
    for _ in range(60):
        if abs(f_cur) < ROOT_TOL:
            return lam_cur
        denom = f_cur - f_prev
        if denom == 0.0:
            break
        lam_next = lam_cur - f_cur * (lam_cur - lam_prev) / denom
        if not a <= lam_next <= b:
            lam_next = 0.5 * (a + b)
        f_next = shoot(sf, lam_next)[0]
        if fa * f_next <= 0.0:
            b, fb = lam_next, f_next
        else:
            a, fa = lam_next, f_next
        lam_prev, f_prev = lam_cur, f_cur
        lam_cur, f_cur = lam_next, f_next
    if abs(f_cur) < 1e-10:
        return lam_cur
    raise ConvergenceError(
        f"eigenvalue polish stalled at Lam={lam_cur} with |u(1)|={abs(f_cur):.3g}"
    )


def _profile_integral(
    rad: RadialSolution, sf: SpaceForm, panels: int | None = None, order: int = 5
) -> float:
    """int_0^1 u^2 S_k^(n-1) dr by composite Gauss-Legendre on the profile.

    Defaults to the resampled profile's own interval structure; passing
    panels uses an independent uniform partition (for residual checks).  The
    [0, delta) remainder is the analytic leading term delta^n / n.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    r = rad.r if panels is None else np.linspace(0.0, 1.0, panels + 1)
    lo, hi = r[:-1], r[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()
    pts = np.clip(pts, rad.delta, 1.0)
    u = rad.value(pts)
    root = math.sqrt(abs(sf.k))
    sk = np.sinh(root * pts) / root if sf.k < 0 else np.sin(root * pts) / root
    integral = float(np.sum(wts * u * u * sk ** (sf.n - 1)))
    # analytic [0, delta) tail: u ~ 1, S_k ~ r
    integral += rad.delta**sf.n / sf.n
    return integral


@dataclass(eq=False)
class GroundState:
    """First Dirichlet eigenpair of the unit ball with normalization data."""

    sf: SpaceForm
    lambda1: float
    s: float
    dphi1: float
    ddphi1: float
    norm_residual: float
    radial: RadialSolution

    def phi(self, r):
        """Normalized eigenfunction phi(r) = s * u(r)."""
        return self.s * self.radial.value(r)

    def dphi(self, r):
        return self.s * self.radial.deriv(r)

    def summary(self) -> dict:
        return {
            "n": self.sf.n,
            "k": self.sf.k,
            "lambda1": self.lambda1,
            "s": self.s,
            "dphi1": self.dphi1,
            "ddphi1": self.ddphi1,
            "norm_residual": self.norm_residual,
        }


def ground_state(sf: SpaceForm) -> GroundState:
    """Compute lambda1, solve the profile, fix s > 0, and check invariants."""
    lam1 = find_lambda1(sf)
    rad = solve_regular(sf, lam1)
    if np.any(rad.u[:-1] <= 0.0):
        raise ConvergenceError(
            "regular solution at lambda1 has an interior zero; not a ground state"
        )
    integral = _profile_integral(rad, sf)
    s = 1.0 / math.sqrt(2.0 * math.pi * sphere_volume(sf.n) * integral)
    dphi1 = s * rad.du1
    if not dphi1 < 0.0:
        raise ConvergenceError(f"phi'(1) must be negative, got {dphi1}")
    ddphi1 = -radial_drift(sf, 1.0) * dphi1
    # residual from an independent quadrature rule so it reflects real error
    check = _profile_integral(rad, sf, panels=257, order=7)
    norm_residual = abs(2.0 * math.pi * sphere_volume(sf.n) * s * s * check - 1.0)
    return GroundState(
        sf=sf,
        lambda1=lam1,
        s=s,
        dphi1=dphi1,
        ddphi1=ddphi1,
        norm_residual=norm_residual,
        radial=rad,
    )
