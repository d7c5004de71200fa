"""Regular solutions of the radial equation u'' + (n-1)(C_k/S_k) u' + lam u = 0.

The origin is a regular singular point; the bounded solution (normalized to
u(0) = 1) is launched a small distance delta away by its even Taylor
expansion and continued to r = 1 with an adaptive high-order Runge-Kutta
integrator.  The same engine serves the ground-state profile (lam = lambda1)
and the mode equations (lam = lambda1 - (2 pi j / T)^2); a whole array of
mode parameters is integrated as one stacked linear system.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

from .errors import ConvergenceError
from .geometry import SpaceForm

DEFAULT_DELTA = 1e-6
DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-14
PROFILE_POINTS = 512


def _series_coeffs(sf: SpaceForm, lam: float) -> tuple[float, float]:
    """Coefficients of u(r) = 1 + a2 r^2 + a4 r^4 + O(r^6) at the origin.

    Substituting the drift expansion (n-1)/r - (n-1) k r/3 + O(r^3) into the
    ODE gives a2 = -lam/(2n) and a4 = lam (lam - 2k(n-1)/3) / (8n(n+2)).
    """
    n, k = sf.n, sf.k
    a2 = -lam / (2.0 * n)
    a4 = lam * (lam - 2.0 * k * (n - 1) / 3.0) / (8.0 * n * (n + 2))
    return a2, a4


def frobenius_start(sf: SpaceForm, lam: float, delta: float) -> tuple[float, float]:
    """(u(delta), u'(delta)) of the regular solution with u(0) = 1."""
    if not 0.0 < delta <= 1e-3:
        raise ValueError(f"series start requires 0 < delta <= 1e-3, got delta={delta}")
    a2, a4 = _series_coeffs(sf, lam)
    u = 1.0 + a2 * delta * delta + a4 * delta**4
    du = 2.0 * a2 * delta + 4.0 * a4 * delta**3
    return u, du


def _rhs(sf: SpaceForm, lam):
    """Right-hand side for a scalar lam, as a tuple (an array per call costs more
    than the arithmetic of two components), or for an ndarray of m values on
    the state [u_0 .. u_(m-1), u'_0 .. u'_(m-1)]."""
    n, k = sf.n, sf.k
    root = math.sqrt(abs(k))
    cos, sin = (math.cosh, math.sinh) if k < 0 else (math.cos, math.sin)
    if np.ndim(lam) == 0:

        def f(r, y):
            drift = (n - 1) * root * cos(root * r) / sin(root * r)
            return (y[1], -drift * y[1] - lam * y[0])

    else:
        m = len(lam)

        def f(r, y):
            drift = (n - 1) * root * cos(root * r) / sin(root * r)
            return np.concatenate((y[m:], -drift * y[m:] - lam * y[:m]))

    return f


def _integrate(
    sf: SpaceForm, lam, r_end: float, delta: float, rtol: float, atol: float, **options
):
    """One DOP853 solve of the regular solution(s) from the series start to r_end.
    An ndarray lam shares one step sequence: the error norm is an RMS over the
    whole state, so the stiffest member sets the steps."""
    u0, du0 = frobenius_start(sf, lam, delta)
    sol = solve_ivp(
        _rhs(sf, lam), (delta, r_end), np.hstack((u0, du0)), method="DOP853",
        rtol=rtol, atol=atol, **options,
    )
    if not sol.success:
        raise ConvergenceError(
            f"radial integration failed near r={sol.t[-1]:.6g}: {sol.message}"
        )
    return sol


def shoot(
    sf: SpaceForm,
    lam: float | np.ndarray,
    delta: float = DEFAULT_DELTA,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """(u(1), u'(1)) of the regular solution, without storing the profile.

    For an ndarray lam, one batched solve returns a pair of arrays.
    """
    u1, du1 = np.split(_integrate(sf, lam, 1.0, delta, rtol, atol).y[:, -1], 2)
    if np.ndim(lam):
        return u1, du1
    return float(u1[0]), float(du1[0])


@dataclass(eq=False)
class RadialSolution:
    """Regular solution with boundary values and a resampled profile.

    The profile holds PROFILE_POINTS uniform samples of (r, u, u') on [0, 1];
    inside [0, delta) values come from the origin expansion, outside from a
    cubic Hermite interpolant of the integrator output.
    """

    sf: SpaceForm
    lam: float
    u1: float
    du1: float
    delta: float
    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    _u_spline: CubicHermiteSpline = field(repr=False)
    _du_spline: CubicHermiteSpline = field(repr=False)

    def value(self, r):
        """u(r) for scalar or array r in [0, 1]."""
        r = np.asarray(r, dtype=float)
        a2, a4 = _series_coeffs(self.sf, self.lam)
        inner = 1.0 + a2 * r**2 + a4 * r**4
        outer = self._u_spline(np.clip(r, self.delta, 1.0))
        out = np.where(r < self.delta, inner, outer)
        return float(out) if out.ndim == 0 else out

    def deriv(self, r):
        """u'(r) for scalar or array r in [0, 1]."""
        r = np.asarray(r, dtype=float)
        a2, a4 = _series_coeffs(self.sf, self.lam)
        inner = 2.0 * a2 * r + 4.0 * a4 * r**3
        outer = self._du_spline(np.clip(r, self.delta, 1.0))
        out = np.where(r < self.delta, inner, outer)
        return float(out) if out.ndim == 0 else out


def solve_regular(
    sf: SpaceForm,
    lam: float,
    delta: float = DEFAULT_DELTA,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    points: int = PROFILE_POINTS,
) -> RadialSolution:
    """Integrate the regular solution on [delta, 1] and resample its profile.

    The uniform resampling evaluates the integrator's own dense output, so
    the stored samples carry the integration accuracy; the cubic Hermite
    interpolant between them is then accurate to O((1/points)^4).
    """
    sol = _integrate(sf, lam, 1.0, delta, rtol, atol, dense_output=True)
    f = _rhs(sf, lam)
    r_grid = np.linspace(0.0, 1.0, points)
    t = np.unique(np.concatenate([[delta], r_grid[r_grid > delta], [1.0]]))
    u, du = sol.sol(t)
    u[-1], du[-1] = sol.y[0, -1], sol.y[1, -1]  # exact endpoint state
    ddu = np.array([f(ri, (ui, dui))[1] for ri, ui, dui in zip(t, u, du)])
    u_spline = CubicHermiteSpline(t, u, du)
    du_spline = CubicHermiteSpline(t, du, ddu)
    result = RadialSolution(
        sf=sf,
        lam=lam,
        u1=float(u[-1]),
        du1=float(du[-1]),
        delta=delta,
        r=r_grid,
        u=np.empty(points),
        du=np.empty(points),
        _u_spline=u_spline,
        _du_spline=du_spline,
    )
    result.u[:] = result.value(r_grid)
    result.du[:] = result.deriv(r_grid)
    return result


def rk4_shoot(
    sf: SpaceForm, lam: float, delta: float = 1e-3, steps: int = 20000
) -> tuple[float, float]:
    """(u(1), u'(1)) by a fixed-step classical RK4 march.

    Deliberately independent of the adaptive integrator; used as the
    dual-integrator cross-check.  Starts at a larger delta so the first step
    does not straddle the steep 1/r drift region.
    """
    u, du = frobenius_start(sf, lam, delta)
    f = _rhs(sf, lam)
    h = (1.0 - delta) / steps
    r = delta
    y = (u, du)
    for _ in range(steps):
        k1 = f(r, y)
        k2 = f(r + 0.5 * h, (y[0] + 0.5 * h * k1[0], y[1] + 0.5 * h * k1[1]))
        k3 = f(r + 0.5 * h, (y[0] + 0.5 * h * k2[0], y[1] + 0.5 * h * k2[1]))
        k4 = f(r + h, (y[0] + h * k3[0], y[1] + h * k3[1]))
        y = (
            y[0] + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
            y[1] + h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
        )
        r += h
    return y


def first_zero(
    sf: SpaceForm,
    lam: float,
    r_max: float,
    delta: float = DEFAULT_DELTA,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> float | None:
    """First zero of the regular solution in (0, r_max], or None if it has none."""
    if not r_max > delta:
        raise ValueError(f"r_max must exceed delta={delta}, got r_max={r_max}")
    if sf.k > 0 and r_max >= sf.r_max:
        raise ValueError(
            f"r_max must stay below pi/sqrt(k) = {sf.r_max:.12g}, got r_max={r_max}"
        )

    def crossing(r, y):
        return y[0]

    crossing.terminal = True
    crossing.direction = 0
    sol = _integrate(sf, lam, r_max, delta, rtol, atol, events=crossing)
    events = sol.t_events[0]
    return float(events[0]) if len(events) else None
