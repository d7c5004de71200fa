"""Space-form primitives: warping functions, radial drift, sphere volumes.

A simply connected space of constant sectional curvature k is described in
polar coordinates by the metric dr^2 + S_k(r)^2 dtheta^2, where S_k is the
curvature-scaled sine.  Everything downstream (radial ODEs, closed-form
solutions, finite differences) is built from S_k, C_k and the radial drift
coefficient (n-1) C_k / S_k of the Laplacian.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SpaceForm:
    """Ambient geometry: dimension n >= 2 and finite curvature k != 0.

    For k > 0 the space closes up at radius pi/sqrt(k); the unit geodesic
    ball must fit, which bounds k < pi^2.
    """

    n: int
    k: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dimension must satisfy n >= 2, got n={self.n}")
        if not math.isfinite(self.k) or self.k == 0:
            raise ValueError(f"curvature k must be finite and nonzero, got k={self.k}")
        if self.k > 0 and not 1.0 < math.pi / math.sqrt(self.k):
            raise ValueError(
                f"unit ball does not fit: need pi/sqrt(k) > 1, got k={self.k} "
                f"(max admissible k is pi^2 ~ {math.pi**2:.6f})"
            )

    @property
    def r_max(self) -> float:
        """Upper end of the radial coordinate range (pi/sqrt(k) or infinity)."""
        return math.pi / math.sqrt(self.k) if self.k > 0 else math.inf

    def _check_radius(self, r: float) -> None:
        if r < 0:
            raise ValueError(f"radius must satisfy r >= 0, got r={r}")
        if self.k > 0 and r >= self.r_max:
            raise ValueError(
                f"radius must satisfy r < pi/sqrt(k) = {self.r_max:.12g}, got r={r}"
            )


def s_k(sf: SpaceForm, r: float) -> float:
    """Curvature-scaled sine: sinh(sqrt(-k) r)/sqrt(-k) for k<0, sin(sqrt(k) r)/sqrt(k) for k>0."""
    sf._check_radius(r)
    root = math.sqrt(abs(sf.k))
    if sf.k < 0:
        return math.sinh(root * r) / root
    return math.sin(root * r) / root


def c_k(sf: SpaceForm, r: float) -> float:
    """Curvature-scaled cosine: cosh(sqrt(-k) r) for k<0, cos(sqrt(k) r) for k>0."""
    sf._check_radius(r)
    root = math.sqrt(abs(sf.k))
    if sf.k < 0:
        return math.cosh(root * r)
    return math.cos(root * r)


def radial_drift(sf: SpaceForm, r: float) -> float:
    """First-order coefficient (n-1) C_k(r)/S_k(r) of the radial Laplacian.

    Behaves as (n-1)/r near the origin; the origin itself is rejected, the
    ODE solver owns the singular point through its series start.
    """
    if r == 0:
        raise ValueError("radial drift is singular at r=0; use the series start there")
    sf._check_radius(r)
    return (sf.n - 1) * c_k(sf, r) / s_k(sf, r)


def sphere_volume(n: int) -> float:
    """Surface measure of the unit (n-1)-sphere: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 2:
        raise ValueError(f"dimension must satisfy n >= 2, got n={n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
