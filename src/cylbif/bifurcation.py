"""Zeros of the dispersion relation, T_star selection, kernel and profiles.

sigma is positive for small T and negative for large T, so it has at least
one sign-changing zero; T_star is the smallest such zero.  The kernel of the
linearized operator at T_star collects every mode j with sigma(T_star/j) = 0
(mode j sees the fundamental curve at period T/j).  Zeros where sigma merely
touches 0 cannot be certified numerically; they are reported as suspected
tangential and never influence T_star.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dispersion import sigma_reduced
from .errors import NumericalError
from .geometry import SpaceForm, radial_drift
from .spectral import GroundState, bracketed_root

WIDEN_LO = 1e-3
WIDEN_HI = 1e4
INITIAL_POINTS = 512
ZERO_WIDTH_REL = 1e-11
TANGENTIAL_TOL = 1e-8
KERNEL_TOL = 1e-8
J_MAX_DEFAULT = 64

PARITY_CHANGES = "changes"
PARITY_DOES_NOT_CHANGE = "does_not_change"
PARITY_INDETERMINATE = "indeterminate"


@dataclass
class SigmaZero:
    """A zero of sigma: location, whether the sign flips, bracket width."""

    t0: float
    sign_change: bool
    width: float
    sigma_min: float | None = None  # |sigma| at a suspected tangential zero


def _refine_zero(producer, a, b, fa, fb) -> SigmaZero:
    """Shrink a sign-change bracket to width ZERO_WIDTH_REL * its midpoint."""
    a, _, b, _ = bracketed_root(
        producer, a, fa, b, fb,
        lambda a, fa, b, fb: b - a <= ZERO_WIDTH_REL * 0.5 * (a + b),
        min_step=0.5 * ZERO_WIDTH_REL * a,
    )
    return SigmaZero(t0=0.5 * (a + b), sign_change=True, width=b - a)


def _golden_min_abs(producer, a, b, rel=1e-9) -> tuple[float, float]:
    """Golden-section minimum of |producer| on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = abs(producer(x1)), abs(producer(x2))
    while (b - a) > rel * 0.5 * (a + b):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = abs(producer(x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = abs(producer(x2))
    xm = 0.5 * (a + b)
    return xm, abs(producer(xm))


def find_sigma_zeros(
    producer: Callable[[float | np.ndarray], float | np.ndarray],
    t_lo: float,
    t_hi: float,
    initial_points: int = INITIAL_POINTS,
) -> list[SigmaZero]:
    """All sign-change zeros of producer on a widened window, plus suspects.

    The window is auto-widened (down to WIDEN_LO, up to WIDEN_HI) until
    producer(t_lo) > 0 > producer(t_hi); failure to achieve that raises,
    since the limits at 0+ and +infinity force a sign change.  Sign-change
    brackets on a log grid are shrunk by spectral.bracketed_root (safeguarded
    Illinois regula falsi) to width at most ZERO_WIDTH_REL * T0, so width is
    a certified bracket.  Local minima of |sigma| that refine to essentially
    zero without a sign flip are reported as suspected tangential.

    producer is called once with the whole grid as an ndarray and must return
    the values elementwise; every other call (widening, bracket refinement,
    tangential search) passes a float.  Grid values pick bracket signs and
    candidate minima, and seed the first regula falsi step of each bracket.
    """
    if not 0.0 < t_lo < t_hi:
        raise ValueError(f"need 0 < t_lo < t_hi, got t_lo={t_lo}, t_hi={t_hi}")
    lo, hi = t_lo, t_hi
    f_lo = producer(lo)
    while f_lo <= 0.0:
        if lo <= WIDEN_LO:
            raise NumericalError(
                f"sigma not positive anywhere down to T={WIDEN_LO}; "
                "contradicts the small-T limit"
            )
        lo = max(lo / 2.0, WIDEN_LO)
        f_lo = producer(lo)
    f_hi = producer(hi)
    while f_hi >= 0.0:
        if hi >= WIDEN_HI:
            raise NumericalError(
                f"sigma not negative anywhere up to T={WIDEN_HI}; "
                "contradicts the large-T limit"
            )
        hi = min(hi * 2.0, WIDEN_HI)
        f_hi = producer(hi)

    grid = np.geomspace(lo, hi, initial_points)
    vals = np.asarray(producer(grid), dtype=float)

    zeros: list[SigmaZero] = []
    bracket_cells = set()
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            continue  # handled as an exact hit below
        if vals[i] * vals[i + 1] < 0.0:
            bracket_cells.add(i)
            zeros.append(
                _refine_zero(
                    producer, float(grid[i]), float(grid[i + 1]), vals[i], vals[i + 1]
                )
            )
    for i in range(1, len(grid) - 1):
        if vals[i] == 0.0:
            flips = vals[i - 1] * vals[i + 1] < 0.0
            zeros.append(
                SigmaZero(
                    t0=float(grid[i]),
                    sign_change=bool(flips),
                    width=0.0,
                    sigma_min=None if flips else 0.0,
                )
            )

    # suspected tangential zeros: interior |sigma| minima with no sign flip
    for i in range(1, len(grid) - 1):
        if i in bracket_cells or (i - 1) in bracket_cells or vals[i] == 0.0:
            continue
        if abs(vals[i]) < abs(vals[i - 1]) and abs(vals[i]) < abs(vals[i + 1]):
            t_min, f_min = _golden_min_abs(producer, float(grid[i - 1]), float(grid[i + 1]))
            local_scale = max(abs(vals[i - 1]), abs(vals[i + 1]))
            if f_min < TANGENTIAL_TOL * (1.0 + local_scale):
                zeros.append(
                    SigmaZero(t0=t_min, sign_change=False, width=0.0, sigma_min=f_min)
                )

    zeros.sort(key=lambda z: z.t0)
    return zeros


def select_t_star(zeros: list[SigmaZero]) -> float:
    """Smallest zero at which sigma changes sign."""
    changing = [z.t0 for z in zeros if z.sign_change]
    if not changing:
        raise ValueError("no sign-changing zero supplied")
    return min(changing)


def kernel_modes(
    producer: Callable[[float | np.ndarray], float | np.ndarray],
    t_star: float,
    j_max: int = J_MAX_DEFAULT,
    scale: float = 1.0,
    tight_producer: Callable[[float], float] | None = None,
) -> tuple[list[int], list[float]]:
    """Modes j in 1..j_max with sigma(t_star / j) = 0 within KERNEL_TOL * scale,
    and the probe values sigma(t_star / j), j = 2..j_max.

    j = 1 is a member by construction.  Any extra candidate is re-evaluated
    with the tightened producer (when given) before being admitted.

    producer is called once with the ndarray t_star / [2, ..., j_max] and
    must return the values elementwise; tight_producer gets a float per
    candidate.
    """
    modes = [1]
    probes = np.asarray(producer(t_star / np.arange(2, j_max + 1)), dtype=float).tolist()
    for j, value in enumerate(probes, start=2):
        if abs(value) < KERNEL_TOL * scale:
            if tight_producer is not None:
                if abs(tight_producer(t_star / j)) >= 10.0 * KERNEL_TOL * scale:
                    continue
            modes.append(j)
    return modes, probes


def crossing_parity(producer: Callable[[float], float], t_star: float, j: int = 1) -> str:
    """Whether sigma_j changes sign across T_star, probed at two step sizes."""
    flips = []
    for h in (1e-4, 1e-5):
        lo = producer(t_star * (1.0 - h) / j)
        hi = producer(t_star * (1.0 + h) / j)
        flips.append((lo > 0.0) != (hi > 0.0))
    if flips[0] != flips[1]:
        return PARITY_INDETERMINATE
    return PARITY_CHANGES if flips[0] else PARITY_DOES_NOT_CHANGE


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


def domain_profile(
    t_star: float,
    epsilon: float,
    samples: int,
    n: int | None = None,
    k: float | None = None,
) -> DomainProfile:
    """Uniformly sampled linear-order profile over one period.

    epsilon is capped below 0.5: the construction is first-order, valid for
    small amplitudes only.  epsilon = 0 returns the unperturbed cylinder.
    """
    if not 0.0 <= epsilon < 0.5:
        raise ValueError(f"amplitude must satisfy 0 <= epsilon < 0.5, got {epsilon}")
    if samples < 8:
        raise ValueError(f"samples must be >= 8, got {samples}")
    if t_star <= 0.0:
        raise ValueError(f"period must be positive, got {t_star}")
    t = np.arange(samples) * (t_star / samples)
    rho = 1.0 + epsilon * np.cos(2.0 * math.pi * t / t_star)
    return DomainProfile(t_star=t_star, epsilon=epsilon, t=t, rho=rho, n=n, k=k)


@dataclass
class BifurcationReport:
    """Zeros of sigma, the selected T_star, kernel structure, parity flags."""

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
                    **({"sigma_min": z.sigma_min} if z.sigma_min is not None else {}),
                }
                for z in self.zeros
            ],
            "kernel_modes": self.kernel_modes,
            "parity": {str(j): flag for j, flag in self.parity.items()},
            "sigma_at_j_max": self.sigma_at_j_max,
            "j_max": self.j_max,
        }


def run_bifurcation(
    gs: GroundState,
    sf: SpaceForm,
    t_lo: float = 0.5,
    t_hi: float = 50.0,
    j_max: int = J_MAX_DEFAULT,
) -> BifurcationReport:
    """Full bifurcation pipeline on the reduced (normalization-free) curve.

    Roots are located on sigma_reduced, whose zeros coincide with sigma's;
    the kernel tolerance is scaled by the natural size of the reduced curve.
    """
    if j_max < 1:
        raise ValueError(f"largest kernel mode must satisfy j_max >= 1, got j_max={j_max}")

    def producer(t_period: float | np.ndarray) -> float | np.ndarray:
        return sigma_reduced(gs, sf, t_period, 1)

    def tight_producer(t_period: float) -> float:
        return sigma_reduced(gs, sf, t_period, 1, rtol=1e-13, atol=1e-15)

    zeros = find_sigma_zeros(producer, t_lo, t_hi)
    t_star = select_t_star(zeros)
    scale = 1.0 + radial_drift(sf, 1.0)
    modes, probes = kernel_modes(
        producer, t_star, j_max=j_max, scale=scale, tight_producer=tight_producer
    )
    parity = {j: crossing_parity(producer, t_star, j) for j in modes}
    # the last kernel probe is sigma(t_star / j_max); j_max = 1 has no probes
    sigma_at_j_max = probes[-1] if probes else producer(t_star)
    return BifurcationReport(
        n=sf.n,
        k=sf.k,
        lambda1=gs.lambda1,
        t_star=t_star,
        zeros=zeros,
        kernel_modes=modes,
        parity=parity,
        sigma_at_j_max=sigma_at_j_max,
        j_max=j_max,
    )
