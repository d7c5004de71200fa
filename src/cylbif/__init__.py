"""Dispersion relation and bifurcation data for the overdetermined first-eigenvalue
problem on solid cylinders over geodesic balls in constant-curvature spaces.

The pipeline computes, for a space form of dimension n and curvature k:

* the ground state of the unit geodesic ball (first Dirichlet eigenvalue,
  radial profile, boundary derivatives, normalization constant),
* the dispersion relation sigma_j(T) of the linearized boundary operator on
  the Fourier mode cos(2*pi*j*t/T), by two independent routes (a radial ODE
  solve and closed-form Legendre/Ferrers expressions),
* the zero T_star of sigma, unique because sigma is strictly decreasing in
  T, with the kernel {1} and the sign-changing crossing that this shape
  certifies, and first-order periodic domain profiles,
* independent finite-difference cross-checks for every headline quantity.
"""

from .geometry import SpaceForm, s_k, c_k, radial_drift, sphere_volume
from .specfun import (
    Degree,
    legendre_p,
    legendre_q,
    ferrers_p,
    legendre_p_deriv,
    ferrers_p_deriv,
    bessel_i,
    olver_hyp,
    log_gamma,
    recip_gamma,
)
from .radial import RadialSolution, frobenius_start, solve_regular, shoot
from .spectral import GroundState, find_lambda1, ground_state
from .dispersion import DispersionCurve, DispersionSample, sigma_ode, sigma_closed, scan
from .bifurcation import (
    BifurcationReport,
    DomainProfile,
    SigmaZero,
    find_sigma_zeros,
    domain_profile,
    run_bifurcation,
)
from .errors import ConvergenceError, DegeneracyError, GammaPoleError, NumericalError

__version__ = "0.1.0"

__all__ = [
    "SpaceForm",
    "s_k",
    "c_k",
    "radial_drift",
    "sphere_volume",
    "Degree",
    "legendre_p",
    "legendre_q",
    "ferrers_p",
    "legendre_p_deriv",
    "ferrers_p_deriv",
    "bessel_i",
    "olver_hyp",
    "log_gamma",
    "recip_gamma",
    "RadialSolution",
    "frobenius_start",
    "solve_regular",
    "shoot",
    "GroundState",
    "find_lambda1",
    "ground_state",
    "DispersionCurve",
    "DispersionSample",
    "sigma_ode",
    "sigma_closed",
    "scan",
    "BifurcationReport",
    "DomainProfile",
    "SigmaZero",
    "find_sigma_zeros",
    "domain_profile",
    "run_bifurcation",
    "ConvergenceError",
    "DegeneracyError",
    "GammaPoleError",
    "NumericalError",
]
