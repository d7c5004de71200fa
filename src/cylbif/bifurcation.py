"""T_star, kernel and parity from the proven shape of sigma, and profiles.

sigma_j(T) = -phi'(1) g(Lam_j), with -phi'(1) > 0, Lam_j = lambda1 -
(2 pi j / T)^2 and the reduced curve g(Lam) = w'(1)/w(1) + (n-1) C_k(1)/S_k(1)
of the regular solution w at Lam.  For Lam < lambda1, w has no zero on
(0, 1], and the Green identity gives

    dg/dLam = -int_0^1 S_k^(n-1) w^2 dr / (S_k(1)^(n-1) w(1)^2) < 0.

Lam_1(T) grows with T, so sigma is strictly decreasing on (0, infinity),
from +infinity at 0+ to -infinity at infinity (Schlenk & Sicbaldi, Adv.
Math. 229, 2012).  Hence:

* sigma has exactly one zero T_star, and it changes sign there;
* sigma(T_star / j) > 0 for every j >= 2, so the kernel of the linearized
  operator at T_star (the modes j with sigma(T_star / j) = 0) is {1}.

find_sigma_zeros brackets the one zero on a grid, checks the grid for
strict decrease and refines the single sign-change cell.  run_bifurcation
takes the kernel and parity as certificates and spot-checks them at
T_star / 2 and T_star / j_max.  The second probe sits at
Lam = lambda1 - (2 pi j_max / T_star)^2, kappa = sqrt(-Lam) ~ 100-1000,
where the radial solve is stiff and may overflow; sigma_reduced takes it
from the Liouville-Green expansion of w'/w instead (dispersion lays out the
acceptance rule), so only T_star / 2 is a radial solve.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dispersion import sigma_reduced
from .errors import NumericalError
from .geometry import SpaceForm
from .spectral import GroundState, bracketed_root

WIDEN_LO = 1e-3
WIDEN_HI = 1e4
INITIAL_POINTS = 16
ZERO_WIDTH_REL = 1e-11
J_MAX_DEFAULT = 64

PARITY_CHANGES = "changes"


@dataclass
class SigmaZero:
    """A zero of sigma: location, whether the sign flips, bracket width."""

    t0: float
    sign_change: bool
    width: float


def _refine_zero(producer, a, b, fa, fb) -> SigmaZero:
    """Shrink a sign-change bracket to width ZERO_WIDTH_REL * its midpoint."""
    a, _, b, _ = bracketed_root(
        producer, a, fa, b, fb,
        lambda a, fa, b, fb: b - a <= ZERO_WIDTH_REL * 0.5 * (a + b),
        min_step=0.5 * ZERO_WIDTH_REL * a,
    )
    return SigmaZero(t0=0.5 * (a + b), sign_change=True, width=b - a)


def _check_window(t_lo: float, t_hi: float) -> None:
    if not 0.0 < t_lo < t_hi < math.inf:
        raise ValueError(f"need 0 < t_lo < t_hi < inf, got t_lo={t_lo}, t_hi={t_hi}")


def find_sigma_zeros(
    producer: Callable[[float | np.ndarray], float | np.ndarray],
    t_lo: float,
    t_hi: float,
    initial_points: int = INITIAL_POINTS,
) -> list[SigmaZero]:
    """The zero of a strictly decreasing producer, as a one-element list.

    producer is called once with a log grid of initial_points periods on
    [t_lo, t_hi] as an ndarray and must return the values elementwise; every
    other call passes a float.  If the grid's ends do not bracket the zero,
    the window is widened from the end on the wrong side by halving (down to
    WIDEN_LO) or doubling (up to WIDEN_HI) until the sign flips; failure
    raises, since the limits at 0+ and +infinity force a sign change.  Grid
    values that are not strictly decreasing raise, naming the first T where
    the decrease fails.  The one sign-change cell is shrunk by
    spectral.bracketed_root (safeguarded Illinois regula falsi) to width at
    most ZERO_WIDTH_REL * T0, so width is a certified bracket.
    """
    _check_window(t_lo, t_hi)
    grid = np.geomspace(t_lo, t_hi, initial_points)
    vals = np.full(grid.shape, producer(grid), dtype=float)
    t, v = grid.tolist(), vals.tolist()
    a, fa, b, fb = t[0], v[0], t[-1], v[-1]
    while fa <= 0.0:
        if a <= WIDEN_LO:
            raise NumericalError(
                f"sigma not positive anywhere down to T={WIDEN_LO}; "
                "contradicts the small-T limit"
            )
        b, fb = a, fa
        a = max(a / 2.0, WIDEN_LO)
        fa = producer(a)
    while fb > 0.0:
        if b >= WIDEN_HI:
            raise NumericalError(
                f"sigma not negative anywhere up to T={WIDEN_HI}; "
                "contradicts the large-T limit"
            )
        a, fa = b, fb
        b = min(b * 2.0, WIDEN_HI)
        fb = producer(b)
    rising = np.flatnonzero(~(np.diff(vals) < 0.0))
    if rising.size:
        i = int(rising[0]) + 1
        raise NumericalError(
            f"sigma not strictly decreasing at T={t[i]!r} "
            f"({v[i - 1]!r} at T={t[i - 1]!r}, then {v[i]!r}); "
            "contradicts the monotonicity of sigma"
        )
    if (a, b) == (t[0], t[-1]):  # not widened: the grid's sign-change cell
        i = int(np.count_nonzero(vals > 0.0))  # v[:i] > 0 >= v[i:]
        a, fa, b, fb = t[i - 1], v[i - 1], t[i], v[i]
    return [_refine_zero(producer, a, b, fa, fb)]


@dataclass
class DomainProfile:
    """One period of the first-order boundary profile rho(t) = 1 + eps cos(2 pi t / T)."""

    t_star: float
    epsilon: float
    t: np.ndarray
    rho: np.ndarray
    n: int | None = None
    k: float | None = None

    def csv_text(self) -> str:
        return "t,rho\n" + "".join(f"{ti:.17g},{ri:.17g}\n" for ti, ri in zip(self.t, self.rho))

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.csv_text())


def check_profile_args(epsilon: float, samples: int) -> None:
    """Raise ValueError unless 0 <= epsilon < 0.5 and samples >= 8.

    epsilon is capped below 0.5: the construction is first-order, valid for
    small amplitudes only.
    """
    if not 0.0 <= epsilon < 0.5:
        raise ValueError(f"amplitude must satisfy 0 <= epsilon < 0.5, got {epsilon}")
    if samples < 8:
        raise ValueError(f"samples must be >= 8, got {samples}")


def domain_profile(
    t_star: float,
    epsilon: float,
    samples: int,
    n: int | None = None,
    k: float | None = None,
) -> DomainProfile:
    """Uniformly sampled linear-order profile over one period.

    epsilon = 0 returns the unperturbed cylinder.
    """
    check_profile_args(epsilon, samples)
    if not 0.0 < t_star < math.inf:
        raise ValueError(f"period must be positive and finite, got {t_star}")
    t = np.arange(samples) * (t_star / samples)
    rho = 1.0 + epsilon * np.cos(2.0 * math.pi * t / t_star)
    return DomainProfile(t_star=t_star, epsilon=epsilon, t=t, rho=rho, n=n, k=k)


@dataclass
class BifurcationReport:
    """The zero of sigma at T_star, with its kernel and parity certificates."""

    n: int
    k: float
    lambda1: float
    t_star: float
    zeros: list[SigmaZero]
    kernel_modes: list[int]
    parity: dict[int, str]
    sigma_at_j_max: float
    j_max: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "lambda1": self.lambda1,
            "T_star": self.t_star,
            "zeros": [
                {
                    "T0": z.t0,
                    "sign_change": z.sign_change,
                    "width": z.width,
                }
                for z in self.zeros
            ],
            "kernel_modes": self.kernel_modes,
            "parity": {str(j): flag for j, flag in self.parity.items()},
            "sigma_at_j_max": self.sigma_at_j_max,
            "j_max": self.j_max,
        }


def check_bifurcation_args(t_lo: float, t_hi: float, j_max: int) -> None:
    """Raise ValueError unless j_max >= 1 and 0 < t_lo < t_hi < inf."""
    if j_max < 1:
        raise ValueError(f"largest kernel mode must satisfy j_max >= 1, got j_max={j_max}")
    _check_window(t_lo, t_hi)


def run_bifurcation(
    gs: GroundState,
    sf: SpaceForm,
    t_lo: float = 0.5,
    t_hi: float = 50.0,
    j_max: int = J_MAX_DEFAULT,
) -> BifurcationReport:
    """Full bifurcation pipeline on the reduced (normalization-free) curve.

    The zero is located on sigma_reduced, which shares sigma's zeros and
    sign.  Kernel [1] and a sign-changing crossing follow from the strict
    decrease of sigma; one batched solve spot-checks sigma(T_star / j) > 0
    at j = 2 and j = j_max, and raises if either is not positive.
    """
    check_bifurcation_args(t_lo, t_hi, j_max)

    def producer(t_period: float | np.ndarray) -> float | np.ndarray:
        return sigma_reduced(gs, sf, t_period, 1)

    zeros = find_sigma_zeros(producer, t_lo, t_hi)
    t_star = zeros[0].t0
    if j_max == 1:
        sigma_at_j_max = producer(t_star)
    else:
        spot = producer(t_star / np.array([2.0, j_max]))
        if not np.all(spot > 0.0):
            raise NumericalError(
                f"sigma(T_star/j) = {spot.tolist()} at j = 2, {j_max} is not positive; "
                f"contradicts the monotonicity of sigma (T_star={t_star!r})"
            )
        sigma_at_j_max = float(spot[-1])
    return BifurcationReport(
        n=sf.n,
        k=sf.k,
        lambda1=gs.lambda1,
        t_star=t_star,
        zeros=zeros,
        kernel_modes=[1],
        parity={1: PARITY_CHANGES},
        sigma_at_j_max=sigma_at_j_max,
        j_max=j_max,
    )
