"""Independent finite-difference verification of the spectral pipeline.

Everything here deliberately avoids the shooting integrator and the special
functions: the radial operator -(S_k^(n-1) u')' / S_k^(n-1) is discretized
in conservative (flux) form on a uniform grid, with the origin cell closed
by a zero flux (S_k^(n-1) vanishes there) and Dirichlet data at r = 1.

* fd_lambda1    -- smallest eigenvalue of the symmetric tridiagonal form by
                   LAPACK bisection, Richardson-extrapolated over m and 2m.
* fd_sigma      -- boundary-value solve of the shifted equation with a
                   fourth-order one-sided boundary derivative.
* fd_dtn_matrix -- the discrete map v -> H_T(v) on even zero-mean boundary
                   data, assembled per Fourier mode (fast path) or from a
                   fully coupled 2D sparse solve (validation path).

All oracle values carry refinement-based error estimates; callers compare
against estimate-inflated tolerances, never machine epsilon.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.sparse.linalg import splu

from .errors import DegeneracyError
from .geometry import SpaceForm, s_k
from .spectral import GroundState


@dataclass(frozen=True)
class FDGrid:
    """Uniform radial grid with m intervals; optional periodic t grid."""

    m: int
    m_t: int | None = None

    def __post_init__(self):
        if self.m < 16:
            raise ValueError(f"radial intervals must satisfy m >= 16, got m={self.m}")
        if self.m_t is not None:
            if self.m_t < 16 or self.m_t % 2 != 0:
                raise ValueError(
                    f"time intervals must be even and >= 16, got m_t={self.m_t}"
                )

    @property
    def h(self) -> float:
        return 1.0 / self.m


def _flux_weights(sf: SpaceForm, m: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Half-node fluxes a_(i+1/2) = S_k^(n-1) and cell measures w_i.

    Cell 0 is [0, h/2]; its average weight uses a Simpson rule so the scheme
    keeps second order through the coordinate singularity.
    """
    h = 1.0 / m
    n = sf.n
    a = np.array([s_k(sf, (i + 0.5) * h) ** (n - 1) for i in range(m)])
    w = np.empty(m)
    w[1:] = np.array([s_k(sf, i * h) ** (n - 1) for i in range(1, m)])
    w[0] = (0.5 / 6.0) * (4.0 * s_k(sf, h / 4.0) ** (n - 1) + s_k(sf, h / 2.0) ** (n - 1))
    return a, w, h


def radial_operator_tridiagonal(sf: SpaceForm, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric tridiagonal form (diag, off) of the radial operator.

    Obtained from the flux-form rows by conjugating with sqrt of the cell
    measures; symmetric positive definite by construction.
    """
    FDGrid(m)
    a, w, h = _flux_weights(sf, m)
    diag = np.empty(m)
    diag[0] = a[0] / (h * h * w[0])
    diag[1:] = (a[:-1] + a[1:]) / (h * h * w[1:])
    off = -a[: m - 1] / (h * h * np.sqrt(w[: m - 1] * w[1:]))
    return diag, off


def fd_lambda1_single(sf: SpaceForm, m: int) -> float:
    """Smallest discrete eigenvalue at a single resolution m."""
    diag, off = radial_operator_tridiagonal(sf, m)
    return float(
        eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0))[0]
    )


@dataclass(frozen=True)
class FDLambda:
    """Richardson-extrapolated eigenvalue with a refinement error estimate."""

    value: float
    error: float
    coarse: float
    fine: float
    m: int


def fd_lambda1(sf: SpaceForm, m: int) -> FDLambda:
    """Richardson extrapolation of the discrete eigenvalue over m and 2m."""
    coarse = fd_lambda1_single(sf, m)
    fine = fd_lambda1_single(sf, 2 * m)
    value = (4.0 * fine - coarse) / 3.0
    error = abs(fine - coarse) / 3.0 + 1e-12 * abs(value)
    return FDLambda(value=value, error=error, coarse=coarse, fine=fine, m=m)


def _solve_shifted_bvp(
    sf: SpaceForm, shift: float, boundary: float, m: int
) -> np.ndarray:
    """Solve (A - shift) w = 0 with w(1) = boundary; returns w on all m+1 nodes."""
    a, w, h = _flux_weights(sf, m)
    lower = np.zeros(m)
    diag = np.empty(m)
    upper = np.zeros(m)
    diag[0] = a[0] / (h * h * w[0]) - shift
    upper[0] = -a[0] / (h * h * w[0])
    for i in range(1, m):
        lower[i] = -a[i - 1] / (h * h * w[i])
        diag[i] = (a[i - 1] + a[i]) / (h * h * w[i]) - shift
        if i < m - 1:
            upper[i] = -a[i] / (h * h * w[i])
    rhs = np.zeros(m)
    rhs[m - 1] = a[m - 1] * boundary / (h * h * w[m - 1])
    ab = np.zeros((3, m))
    ab[0, 1:] = upper[: m - 1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    try:
        interior = solve_banded((1, 1), ab, rhs)
    except Exception as exc:
        raise DegeneracyError(f"shifted boundary-value system singular: {exc}") from exc
    if not np.all(np.isfinite(interior)):
        raise DegeneracyError("shifted boundary-value solve produced non-finite values")
    return np.concatenate([interior, [boundary]])


def _boundary_derivative(w: np.ndarray, h: float) -> float:
    """Fourth-order one-sided derivative at the last node."""
    return (
        25.0 * w[-1] - 48.0 * w[-2] + 36.0 * w[-3] - 16.0 * w[-4] + 3.0 * w[-5]
    ) / (12.0 * h)


def fd_sigma(gs: GroundState, sf: SpaceForm, t_period: float, j: int, m: int) -> float:
    """sigma_j(T) from a finite-difference solve of the shifted equation."""
    FDGrid(m)
    if t_period <= 0.0 or j < 1:
        raise ValueError(f"need T > 0 and j >= 1, got T={t_period}, j={j}")
    shift = gs.lambda1 - (2.0 * math.pi * j / t_period) ** 2
    w = _solve_shifted_bvp(sf, shift, -gs.dphi1, m)
    return _boundary_derivative(w, 1.0 / m) + gs.ddphi1


def fd_sigma_estimate(
    gs: GroundState, sf: SpaceForm, t_period: float, j: int, m: int
) -> tuple[float, float]:
    """(value at m, refinement error estimate from the m/2 solve)."""
    fine = fd_sigma(gs, sf, t_period, j, m)
    coarse = fd_sigma(gs, sf, t_period, j, m // 2)
    return fine, abs(fine - coarse) / 3.0


def _discrete_time_eigenvalue(j: int, m_t: int, h_t: float) -> float:
    """Eigenvalue of the periodic second difference on mode cos(2 pi j l / m_t)."""
    return -(2.0 - 2.0 * math.cos(2.0 * math.pi * j / m_t)) / (h_t * h_t)


def fd_dtn_diag(
    gs: GroundState, sf: SpaceForm, t_period: float, m: int, m_t: int
) -> np.ndarray:
    """Diagonal of the discrete boundary map in the cos basis (fast path).

    The t discretization is translation invariant, so the 2D system decouples
    exactly into per-mode radial solves with the discrete time eigenvalue as
    the shift; this is what the fully coupled solve must reproduce.
    """
    FDGrid(m, m_t)
    h_t = t_period / m_t
    out = np.empty(m_t // 2 - 1)
    for j in range(1, m_t // 2):
        shift = gs.lambda1 + _discrete_time_eigenvalue(j, m_t, h_t)
        w = _solve_shifted_bvp(sf, shift, -gs.dphi1, m)
        out[j - 1] = _boundary_derivative(w, 1.0 / m) + gs.ddphi1
    return out


def fd_dtn_matrix(
    gs: GroundState,
    sf: SpaceForm,
    t_period: float,
    m: int,
    m_t: int,
    method: str = "per_mode",
) -> np.ndarray:
    """Discrete map v -> H_T(v) in the basis cos(2 pi j t / T), j = 1..m_t/2-1.

    method="per_mode" exploits the exact Fourier decoupling (fast, diagonal
    by construction); method="coupled" assembles the matrix from a fully
    coupled 2D sparse solve per basis vector, so symmetry and diagonality are
    outputs rather than inputs.  The j = 0 component is excluded throughout
    (inputs have zero mean), which keeps the system away from the lambda1
    resonance.
    """
    FDGrid(m, m_t)
    n_modes = m_t // 2 - 1
    if method == "per_mode":
        return np.diag(fd_dtn_diag(gs, sf, t_period, m, m_t))
    if method != "coupled":
        raise ValueError(f"unknown method {method!r}; use 'per_mode' or 'coupled'")

    a, w, h = _flux_weights(sf, m)
    h_t = t_period / m_t
    # radial flux-form operator (m x m, rows scaled by cell measures)
    lower = np.zeros(m)
    diag = np.empty(m)
    upper = np.zeros(m)
    diag[0] = a[0] / (h * h * w[0])
    upper[0] = -a[0] / (h * h * w[0])
    for i in range(1, m):
        lower[i] = -a[i - 1] / (h * h * w[i])
        diag[i] = (a[i - 1] + a[i]) / (h * h * w[i])
        if i < m - 1:
            upper[i] = -a[i] / (h * h * w[i])
    radial = sp.diags(
        [lower[1:], diag, upper[: m - 1]], offsets=[-1, 0, 1], format="csr"
    )
    ones = np.ones(m_t)
    d_t2 = sp.diags(
        [ones[:-1], -2.0 * ones, ones[:-1]], offsets=[-1, 0, 1], format="lil"
    )
    d_t2[0, m_t - 1] = 1.0
    d_t2[m_t - 1, 0] = 1.0
    d_t2 = (d_t2 / (h_t * h_t)).tocsr()
    system = (
        sp.kron(sp.identity(m_t, format="csr"), radial, format="csr")
        - sp.kron(d_t2, sp.identity(m, format="csr"), format="csr")
        - gs.lambda1 * sp.identity(m * m_t, format="csr")
    )
    try:
        lu = splu(system.tocsc())
    except Exception as exc:
        raise DegeneracyError(f"coupled 2D system factorization failed: {exc}") from exc

    t_nodes = np.arange(m_t)
    if n_modes < 1:
        raise ValueError("m_t too small to carry any nonzero mode")
    matrix = np.empty((n_modes, n_modes))
    for j in range(1, m_t // 2):
        bc = -gs.dphi1 * np.cos(2.0 * math.pi * j * t_nodes / m_t)
        rhs = np.zeros(m * m_t)
        rhs[(m - 1)::m] = a[m - 1] * bc / (h * h * w[m - 1])
        psi = lu.solve(rhs)
        if not np.all(np.isfinite(psi)):
            raise DegeneracyError("coupled 2D solve produced non-finite values")
        psi = psi.reshape(m_t, m)
        full = np.hstack([psi, bc[:, None]])  # append boundary column
        dpsi = (
            25.0 * full[:, -1]
            - 48.0 * full[:, -2]
            + 36.0 * full[:, -3]
            - 16.0 * full[:, -4]
            + 3.0 * full[:, -5]
        ) / (12.0 * h)
        h_of_e = dpsi + gs.ddphi1 * np.cos(2.0 * math.pi * j * t_nodes / m_t)
        for jp in range(1, m_t // 2):
            matrix[jp - 1, j - 1] = (
                2.0 / m_t * float(h_of_e @ np.cos(2.0 * math.pi * jp * t_nodes / m_t))
            )
    return matrix


def save_matrix_csv(matrix: np.ndarray, path) -> None:
    """Dump a dense matrix as CSV for offline inspection."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.atleast_2d(matrix):
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
