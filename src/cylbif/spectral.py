"""Ground state of the unit geodesic ball: lambda1, profile, boundary data.

lambda1 is the smallest Lam > 0 for which the regular radial solution
vanishes at r = 1, found by a coarse scan that brackets the first sign change
of u(1; Lam) and a polish of that bracket by bracketed_root, a safeguarded
Illinois regula falsi that the bifurcation search shares.  The eigenfunction
phi = s * u is normalized so that

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


def bracketed_root(
    f, a: float, fa: float, b: float, fb: float, done, min_step: float = 0.0
) -> tuple[float, float, float, float]:
    """Shrink a sign-change bracket of f until done(a, fa, b, fb) holds.

    fa and fb are f(a) and f(b) with a < b and strictly opposite signs.  Each
    step is Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971): the
    secant of the bracket ends, with the value of an end kept twice in a row
    halved.  Near a simple root this converges superlinearly.  Whenever the
    bracket is still wider than bisection at half speed would have left it
    (three steps of grace), the step bisects instead, so a multiple or badly
    scaled root costs at most about twice the bisection count.  Trial points
    stay min_step inside the bracket (Dekker's rule), so an end that already
    sits on the root closes a width-based rule with one more step.

    The bracket keeps a strict sign change throughout; an exact zero at an
    end or a trial point returns at once as (x, 0, x, 0).  Returns the final
    (a, fa, b, fb); it also stops when the bracket cannot shrink in floating
    point.
    """
    if fa == 0.0:
        return a, fa, a, fa
    if fb == 0.0:
        return b, fb, b, fb
    ga, gb = fa, fb  # interpolation weights: f at the ends, Illinois-halved
    kept = 0  # +1 if the last step kept a, -1 if it kept b
    width0, steps = b - a, 0
    while not done(a, fa, b, fb):
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        x = min(max(b - gb * (b - a) / (gb - ga), a + min_step), b - min_step)
        if b - a > width0 * 0.5 ** ((steps - 3) / 2) or not a < x < b:
            x = mid
        fx = f(x)
        steps += 1
        if fx == 0.0:
            return x, fx, x, fx
        if (fx < 0.0) == (fa < 0.0):
            a, fa, ga = x, fx, fx
            if kept < 0:
                gb *= 0.5
            kept = -1
        else:
            b, fb, gb = x, fx, fx
            if kept > 0:
                ga *= 0.5
            kept = 1
    return a, fa, b, fb


def find_lambda1(sf: SpaceForm) -> float:
    """Smallest Lam > 0 with u(1; Lam) = 0 for the regular solution.

    A coarse scan from Lam = 0 (where the regular solution is the constant 1),
    then from SCAN_START in steps of SCAN_STEP, locates the first sign change
    of u(1; Lam); bracketed_root polishes it until |u(1)| < ROOT_TOL.  The
    scan grid is shot _SCAN_BLOCK points at a time by one batched solve, so
    its cost hardly depends on where lambda1 lies.
    """
    grid = [SCAN_START]
    while grid[-1] < SCAN_CAP:
        grid.append(grid[-1] + SCAN_STEP)
    for start in range(0, len(grid) - 1, _SCAN_BLOCK):
        lams = grid[start : start + _SCAN_BLOCK + 1]  # blocks overlap by one point
        u1 = shoot(sf, np.array(lams))[0].tolist()
        if start == 0:
            lams, u1 = [0.0, *lams], [1.0, *u1]
        i = next((i for i, u in enumerate(u1) if u <= 0.0), None)
        if i is not None:
            break
    else:
        raise ConvergenceError(
            f"no sign change of u(1; Lam) found for Lam <= {SCAN_CAP} (n={sf.n}, k={sf.k})"
        )

    a, fa, b, fb = bracketed_root(
        lambda lam: shoot(sf, lam)[0],
        lams[i - 1], u1[i - 1], lams[i], u1[i],
        lambda a, fa, b, fb: min(abs(fa), abs(fb)) < ROOT_TOL,
    )
    lam, f = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
    if abs(f) < 1e-10:
        return lam
    raise ConvergenceError(f"eigenvalue polish stalled at Lam={lam} with |u(1)|={abs(f):.3g}")


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
