"""Special functions for the dispersion pipeline.

Associated Legendre functions on (1, oo), Ferrers functions on (-1, 1)
(including conical degree -1/2 + i*tau), modified Bessel I, the complex
log-gamma, and the hypergeometric series in Olver's normalization

    F_olver(a, b; c; z) = sum_s (a)_s (b)_s / Gamma(c+s) * z^s / s!,

which stays well defined when c is a non-positive integer (DLMF 15.2.2).
The first-kind functions are evaluated through

    P^m_nu(x)  = ((x-1)/(x+1))^(-m/2) F_olver(nu+1, -nu; 1-m; (1-x)/2)   x > 1
    Pf^m_nu(x) = ((1+x)/(1-x))^(m/2)  F_olver(nu+1, -nu; 1-m; (1-x)/2)   |x| < 1

(DLMF 14.3.1, 14.3.6).  For degrees of the form nu = -1/2 + i*tau every
series coefficient is real, because (nu+1+s)(s-nu) = (s+1/2)^2 + tau^2; the
implementation exploits this so conical values are exactly real.

Direct summation converges for |1-x|/2 < 1.  Beyond that (x > 2.5, reached
by the dispersion route at k < ~-2.456) a Pfaff transformation moves the
argument to (x-1)/(x+1) < 1, at the price of requiring a real degree.  One
plan, _series_plan, fixes for each (m, nu, x) the prefactor, the form (direct,
Pfaff, or refused) and the series arguments; _first_kind_many follows it for
a list of degrees, and legendre_p/ferrers_p are its one-member case.  Both
real forms are summed by one kernel, _hyp_real; the complex olver_hyp is the
reference behind legendre_q and the realness checks.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GammaPoleError
from .geometry import SpaceForm

# Series truncation: stop after 3 consecutive terms below 1e-17 x the largest
# partial-sum magnitude (guards against a single internal zero term).
_TERM_CUTOFF = 1e-17
_QUIET_TERMS = 3
_MAX_TERMS = 10000

# Direct series for P^m_nu(x) is used below this x; the Pfaff form above it.
_PFAFF_SWITCH = 2.5


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

# Lanczos approximation, g = 7, 9 coefficients (~15 significant digits).
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma via Lanczos, with reflection for Re(z) < 1/2.

    Raises GammaPoleError at non-positive integers so that reciprocals can be
    mapped to exact zeros by the caller.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise GammaPoleError(f"Gamma pole at z={z}")
    if z.real < 0.5:
        # log Gamma(z) = log(pi / sin(pi z)) - log Gamma(1 - z)
        return cmath.log(math.pi) - cmath.log(cmath.sin(math.pi * z)) - log_gamma(1.0 - z)
    zz = z - 1.0
    acc = complex(_LANCZOS_COEFFS[0])
    for i, coeff in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += coeff / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (zz + 0.5) * cmath.log(t) - t + cmath.log(acc)


def recip_gamma(z: complex) -> complex:
    """1/Gamma(z); exactly 0 at the poles (entire-function convention)."""
    try:
        return cmath.exp(-log_gamma(z))
    except GammaPoleError:
        return 0.0 + 0.0j


# ---------------------------------------------------------------------------
# hypergeometric series, Olver normalization
# ---------------------------------------------------------------------------


def olver_hyp(a: complex, b: complex, c: complex, z: complex) -> complex:
    """F_olver(a, b; c; z) by direct summation on |z| < 1.

    When c is a non-positive integer the terms with a Gamma pole in the
    denominator vanish and summation starts at s = 1 - c.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if abs(z) >= 1.0:
        raise ValueError(f"series argument must satisfy |z| < 1, got |z|={abs(z):.6g}")
    if _is_nonpositive_integer(c):
        s0 = int(round(1.0 - c.real))
        term = complex(1.0)
        for i in range(s0):
            term *= (a + i) * (b + i)
        term *= z**s0 / math.factorial(s0)
    else:
        s0 = 0
        term = cmath.exp(-log_gamma(c))
    total = term
    largest = abs(total)
    quiet = 0
    s = s0
    while s < _MAX_TERMS:
        term = term * (a + s) * (b + s) * z / ((c + s) * (s + 1.0))
        total += term
        if abs(total) > largest:
            largest = abs(total)
        if abs(term) <= _TERM_CUTOFF * largest:
            quiet += 1
            if quiet >= _QUIET_TERMS:
                return total
        else:
            quiet = 0
        s += 1
    raise ConvergenceError(
        f"hypergeometric series did not converge within {_MAX_TERMS} terms "
        f"(a={a}, b={b}, c={c}, z={z})",
        residual=abs(term) / largest if largest > 0 else math.inf,
    )


def _degree_beta(nu: complex) -> float:
    """(nu + 1/2)^2 as a real number, valid for real or conical degrees."""
    if nu.imag == 0.0:
        return (nu.real + 0.5) ** 2
    if nu.real != -0.5 or nu.imag < 0.0:
        raise ValueError(
            f"degree must be real or conical (-1/2 + i*tau, tau > 0), got nu={nu}"
        )
    return -(nu.imag**2)


def _first_index(c: float) -> int:
    """Index of the first series term: 1 - c at a non-positive integer c, whose
    Gamma-pole terms vanish, else 0."""
    return int(round(1.0 - c)) if c <= 0.0 and c == round(c) else 0


def _first_term(h: float, beta: float, c: float, z: float, s0: int) -> float:
    """The series term t_(s0) of _hyp_real."""
    if s0 == 0:
        return 1.0 / math.gamma(c)
    term = 1.0
    for i in range(s0):
        term *= (i + h) ** 2 - beta
    return term * (z**s0 / math.factorial(s0))


def _hyp_real(h, beta, c: float, z):
    """sum_s t_s with t_(s+1)/t_s = ((s+h)^2 - beta) z / ((c+s)(s+1)), real c, z.

    This is F_olver(a, b; c; z) for any a, b with (a+s)(b+s) = (s+h)^2 - beta,
    started at t_0 = 1/Gamma(c); at a non-positive integer c the Gamma-pole
    terms vanish and summation starts at s = 1 - c.

    Any of h, beta and z may be an ndarray, the three broadcast together
    (c stays scalar): _hyp_real_array sums them, a member at the term cap NaN
    instead of raising.  The scalar loop stays for float arguments, since one
    member costs ~50x more through the array loop.
    """
    # isinstance, not np.ndim: np.ndim of a float costs ~1-2 us, a third of
    # a short scalar series
    if isinstance(beta, np.ndarray) or isinstance(h, np.ndarray) or isinstance(z, np.ndarray):
        return _hyp_real_array(h, beta, c, z)[0]
    s0 = _first_index(c)
    term = _first_term(h, beta, c, z, s0)
    total = term
    largest = abs(total)
    quiet = 0
    s = s0
    while s < _MAX_TERMS:
        q = s + h  # q * q: exact for the degree form (q = s + 1/2), cheaper than q ** 2
        term = term * ((q * q - beta) * z) / ((c + s) * (s + 1.0))
        total += term
        if abs(total) > largest:
            largest = abs(total)
        if abs(term) <= _TERM_CUTOFF * largest:
            quiet += 1
            if quiet >= _QUIET_TERMS:
                return total
        else:
            quiet = 0
        s += 1
    raise ConvergenceError(
        f"hypergeometric series did not converge within {_MAX_TERMS} terms",
        residual=abs(term) / largest if largest > 0 else math.inf,
    )


def _hyp_real_array(h, beta, c: float, z) -> tuple[np.ndarray, dict]:
    """_hyp_real over broadcast ndarrays: numpy across the members, the loop
    over s sequential, each member bit-equal to its scalar sum (same float
    operations and stopping rule).  Returns the sums, NaN for a member at the
    term cap, and {flat index: the scalar error's residual} of those."""
    parts = [np.asarray(a, dtype=float) for a in (h, beta, z)]
    shape = np.broadcast_shapes(*(a.shape for a in parts))
    members = [np.broadcast_to(a, shape).ravel() for a in parts]
    s0 = _first_index(c)
    term = np.array(
        [
            _first_term(hi, bi, c, zi, s0)
            for hi, bi, zi in zip(*(m.tolist() for m in members))
        ]
    )
    # a column with one value throughout stays a float in the loop: fewer
    # array operations per term
    h, beta, z = (float(m[0]) if m.size and (m == m[0]).all() else m for m in members)
    out = np.full(term.size, np.nan)
    index = np.arange(term.size)
    total = term.copy()
    largest = np.abs(total)
    quiet = np.zeros(term.size, dtype=int)
    with np.errstate(all="ignore"):  # the scalar loop overflows silently too
        for s in range(s0, _MAX_TERMS):
            if not index.size:
                break
            q = s + h
            term *= (q * q - beta) * z
            term /= (c + s) * (s + 1.0)
            total += term
            # fmax, like the scalar max, keeps largest where the total is NaN
            np.fmax(largest, np.abs(total), out=largest)
            quiet += 1
            quiet *= np.abs(term) <= _TERM_CUTOFF * largest
            stop = quiet >= _QUIET_TERMS
            if stop.any():
                out[index[stop]] = total[stop]
                live = ~stop
                index, term, total, largest, quiet = (
                    a[live] for a in (index, term, total, largest, quiet)
                )
                h, beta, z = (a[live] if np.ndim(a) else a for a in (h, beta, z))
        residual = np.where(largest > 0, np.abs(term) / largest, math.inf)
    return out.reshape(shape), dict(zip(index.tolist(), residual.tolist()))


# ---------------------------------------------------------------------------
# degrees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Degree:
    """Legendre/Ferrers degree nu = -1/2 + sqrt((n-1)^2/4 + lam/k).

    The square root takes the branch with nonnegative imaginary part, so nu is
    either real or conical (-1/2 + i*tau with tau > 0).
    """

    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))
        _degree_beta(self.value)  # validates the real-or-conical constraint

    @classmethod
    def from_spectral(cls, sf: SpaceForm, lam: float) -> "Degree":
        radicand = (sf.n - 1) ** 2 / 4.0 + lam / sf.k
        if radicand >= 0.0:
            return cls(complex(-0.5 + math.sqrt(radicand), 0.0))
        return cls(complex(-0.5, math.sqrt(-radicand)))

    @property
    def is_conical(self) -> bool:
        return self.value.imag != 0.0

    @property
    def tau(self) -> float:
        """Imaginary part of a conical degree."""
        if not self.is_conical:
            raise ValueError(f"degree {self.value} is real, tau undefined")
        return self.value.imag

    def __complex__(self) -> complex:
        return self.value


def _coerce_degree(nu) -> complex:
    if isinstance(nu, Degree):
        return nu.value
    return complex(nu)


# ---------------------------------------------------------------------------
# Legendre / Ferrers functions of the first and second kind
# ---------------------------------------------------------------------------


def legendre_p(m: float, nu, x: float) -> float:
    """Associated Legendre function of the first kind, P^m_nu(x) on x > 1.

    Any real order m (DLMF notation P with order -mu and mu replaced by -m),
    summed as _series_plan lays out.
    """
    nu = _coerce_degree(nu)
    if not x > 1.0:
        raise ValueError(f"argument must satisfy x > 1, got x={x}")
    return _first_kind(m, nu, x)


def ferrers_p(m: float, nu, x: float) -> float:
    """Ferrers function of the first kind, P^m_nu(x) on -1 < x < 1 (DLMF 14.3.1)."""
    nu = _coerce_degree(nu)
    if not -1.0 < x < 1.0:
        raise ValueError(f"argument must satisfy -1 < x < 1, got x={x}")
    return _first_kind(m, nu, x)


def _series_plan(m: float, nu: complex, x: float) -> tuple:
    """How P^m_nu(x) is summed: Ferrers on -1 < x < 1, Legendre on x > 1.

    Returns (prefactor, scale, h, beta, z, form).  The value is
    prefactor * (scale * S), S the _hyp_real sum of (h, beta, 1 - m, z);
    form = (name, degree, argument name, argument) labels a failing series.
    Real degrees take the direct series up to x = 2.5 and the Pfaff form
    beyond it; conical degrees take the direct series on its whole disk,
    x < 3, and are refused with a ValueError from x = 3 on.
    """
    if x < 1.0:
        prefactor = ((1.0 + x) / (1.0 - x)) ** (m / 2.0)
    else:
        prefactor = ((x - 1.0) / (x + 1.0)) ** (-m / 2.0)
    if nu.imag == 0.0 and x > _PFAFF_SWITCH:
        # F(a, b; c; w) = (1-w)^(-a) F(a, c-b; c; w/(w-1)) moves the argument
        # to y = (x-1)/(x+1) in (0, 1); with a = nu+1 and c-b = c+nu,
        # (a+s)(c-b+s) = (s+h)^2 - ((1-c)/2)^2 for h = nu + (1+c)/2.  Real
        # degree only: for conical ones these coefficients are not real.
        nu, c = nu.real, 1.0 - m
        scale = ((x + 1.0) / 2.0) ** (-(nu + 1.0))
        h, beta, y = nu + (1.0 + c) / 2.0, ((1.0 - c) / 2.0) ** 2, (x - 1.0) / (x + 1.0)
        return prefactor, scale, h, beta, y, ("Pfaff", nu, "x", x)
    if x >= 3.0:
        raise ValueError(
            f"conical degree nu={nu} supported only for x < 3 (series disk), got x={x}"
        )
    # F_olver(nu+1, -nu; c; w): (nu+1+s)(s-nu) = (s+1/2)^2 - (nu+1/2)^2 is
    # real for real and conical degrees
    w = (1.0 - x) / 2.0
    return prefactor, 1.0, 0.5, _degree_beta(nu), w, ("degree", nu, "w", w)


def _first_kind(m: float, nu: complex, x: float) -> float:
    """P^m_nu(x) for the domain-checked scalar functions: raises its error."""
    (outcome,) = _first_kind_many(m, [nu], x)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _first_kind_many(m: float, nus: list[complex], x: float) -> list:
    """legendre_p (x > 1) or ferrers_p (-1 < x < 1) of order m at one x for a
    list of degrees: per member its value or its own error, the plan's
    refusal (ValueError) or the term cap (ConvergenceError naming the form).
    Each series is summed once, a single one by the scalar _hyp_real loop,
    two or more in one _hyp_real_array call, bit-equal either way."""
    c = 1.0 - m
    outcomes = []
    for nu in nus:
        try:
            outcomes.append(_series_plan(m, nu, x))
        except ValueError as exc:  # refused
            outcomes.append(exc)
    summed = [i for i, plan in enumerate(outcomes) if isinstance(plan, tuple)]
    if len(summed) == 1:
        _, _, h, beta, z, _ = outcomes[summed[0]]
        try:
            sums, capped = [_hyp_real(h, beta, c, z)], {}
        except ConvergenceError as exc:
            sums, capped = [math.nan], {0: exc.residual}
    elif summed:
        h, beta, z = np.array([outcomes[i][2:5] for i in summed]).T
        sums, capped = _hyp_real_array(h, beta, c, z)
    for r, i in enumerate(summed):
        prefactor, scale, _, _, _, (name, degree, arg_name, arg) = outcomes[i]
        outcomes[i] = prefactor * (scale * float(sums[r]))
        if r in capped:
            outcomes[i] = ConvergenceError(
                f"{name}-form hypergeometric series did not converge within "
                f"{_MAX_TERMS} terms (nu={degree}, c={c}, {arg_name}={arg})",
                residual=capped[r],
            )
    return outcomes


def legendre_q(mu: float, nu: float, x: float) -> float:
    """Second-kind Legendre function in Olver's normalization, Q^mu_nu(x).

        Q^mu_nu(x) = 2^nu Gamma(nu+1) (x-1)^(mu/2-nu-1) (x+1)^(-mu/2)
                     * F_olver(nu+1, nu-mu+1; 2nu+2; 2/(1-x))

    Series region |2/(1-x)| < 1, i.e. x > 3; used for identity testing only.
    Real nu > -1 (the Gamma(nu+1) factor).
    """
    if not x > 3.0:
        raise ValueError(f"argument must satisfy x > 3 (series region), got x={x}")
    if isinstance(nu, complex) or isinstance(nu, Degree):
        nu = _coerce_degree(nu)
        if nu.imag != 0.0:
            raise ValueError("legendre_q supports real degrees only")
        nu = nu.real
    if nu <= -1.0:
        raise ValueError(f"degree must satisfy nu > -1, got nu={nu}")
    y = 2.0 / (1.0 - x)
    series = olver_hyp(nu + 1.0, nu - mu + 1.0, 2.0 * nu + 2.0, y)
    if abs(series.imag) > 1e-12 * abs(series):
        raise ConvergenceError(f"legendre_q lost realness: {series}")
    front = 2.0**nu * math.gamma(nu + 1.0) * (x - 1.0) ** (mu / 2.0 - nu - 1.0)
    return front * (x + 1.0) ** (-mu / 2.0) * series.real


def legendre_p_deriv(m: float, nu, x: float) -> float:
    """d/dx P^m_nu(x) through the order-raising identity

        (P^m_nu)'(x) = [sqrt(x^2-1) P^(m+1)_nu(x) + m x P^m_nu(x)] / (x^2 - 1).
    """
    return (
        math.sqrt(x * x - 1.0) * legendre_p(m + 1.0, nu, x)
        + m * x * legendre_p(m, nu, x)
    ) / (x * x - 1.0)


def ferrers_p_deriv(m: float, nu, x: float) -> float:
    """d/dx of the Ferrers P^m_nu via the analogous order-raising identity."""
    return (
        math.sqrt(1.0 - x * x) * ferrers_p(m + 1.0, nu, x)
        + m * x * ferrers_p(m, nu, x)
    ) / (x * x - 1.0)


def bessel_i(mu: float, x: float) -> float:
    """Modified Bessel function of the first kind by its ascending series."""
    if mu < 0:
        raise ValueError(f"order must satisfy mu >= 0, got mu={mu}")
    if x < 0:
        raise ValueError(f"argument must satisfy x >= 0, got x={x}")
    if x > 700.0:
        raise ConvergenceError(f"bessel_i overflows for x={x} (limit 700)")
    if x == 0.0:
        return 1.0 if mu == 0.0 else 0.0
    half = 0.5 * x
    term = half**mu / math.gamma(mu + 1.0)
    total = term
    s = 0
    while s < _MAX_TERMS:
        term *= half * half / ((s + 1.0) * (s + 1.0 + mu))
        total += term
        if term <= 1e-18 * total:
            return total
        s += 1
    raise ConvergenceError(f"bessel_i series did not converge (mu={mu}, x={x})")


# ---------------------------------------------------------------------------
# leading-order asymptotic forms
# ---------------------------------------------------------------------------

FORM_LEGENDRE_P_EDGE_SINGULAR = "legendre-p-edge-singular"
FORM_LEGENDRE_P_EDGE_INTEGER = "legendre-p-edge-integer"
FORM_LEGENDRE_Q_EDGE_SINGULAR = "legendre-q-edge-singular"
FORM_FERRERS_P_EDGE_SINGULAR = "ferrers-p-edge-singular"
FORM_FERRERS_P_EDGE_INTEGER = "ferrers-p-edge-integer"
FORM_LEGENDRE_P_LARGE_DEGREE_NEG = "legendre-p-large-degree-neg-order"
FORM_LEGENDRE_P_LARGE_DEGREE_POS = "legendre-p-large-degree-pos-order"
FORM_BESSEL_I_LARGE_ARGUMENT = "bessel-i-large-argument"
FORM_FERRERS_P_LARGE_CONICAL = "ferrers-p-large-conical"

ASYMPTOTIC_FORMS = (
    FORM_LEGENDRE_P_EDGE_SINGULAR,
    FORM_LEGENDRE_P_EDGE_INTEGER,
    FORM_LEGENDRE_Q_EDGE_SINGULAR,
    FORM_FERRERS_P_EDGE_SINGULAR,
    FORM_FERRERS_P_EDGE_INTEGER,
    FORM_LEGENDRE_P_LARGE_DEGREE_NEG,
    FORM_LEGENDRE_P_LARGE_DEGREE_POS,
    FORM_BESSEL_I_LARGE_ARGUMENT,
    FORM_FERRERS_P_LARGE_CONICAL,
)


def _is_positive_integer(v: float) -> bool:
    return v > 0 and v == round(v)


def _require(cond: bool, condition: str):
    if not cond:
        raise ValueError(f"parameter combination excluded: requires {condition}")


def asymptotic_form(which: str, mu: float, nu, x: float) -> float:
    """Leading-order asymptotic value of the named form (DLMF 14.8, 14.15.13).

    Edge forms approximate the function as x -> 1 (from above for Legendre,
    below for Ferrers); large-degree forms approximate it for large real
    degree or large conical parameter.  Excluded parameter combinations are
    rejected with the violated side condition named.
    """
    nu = _coerce_degree(nu)

    if which == FORM_LEGENDRE_P_EDGE_SINGULAR:
        _require(mu > 0 and not _is_positive_integer(mu), "order mu > 0 and mu not a positive integer")
        _require(x > 1.0, "x > 1")
        return (2.0 / (x - 1.0)) ** (mu / 2.0) / math.gamma(1.0 - mu)

    if which == FORM_LEGENDRE_P_EDGE_INTEGER:
        _require(_is_positive_integer(mu), "order mu a positive integer")
        _require(nu.imag == 0.0, "real degree")
        _require(
            not _is_positive_integer(-(nu.real + mu)) and not _is_positive_integer(-(nu.real - mu)),
            "-(nu +/- mu) not a positive integer",
        )
        _require(x > 1.0, "x > 1")
        ratio = math.gamma(nu.real + mu + 1.0) / math.gamma(nu.real - mu + 1.0)
        return ratio / math.factorial(int(mu)) * ((x - 1.0) / 2.0) ** (mu / 2.0)

    if which == FORM_LEGENDRE_Q_EDGE_SINGULAR:
        _require(mu > 0, "order Re(mu) > 0")
        _require(nu.imag == 0.0, "real degree")
        _require(not _is_positive_integer(-(nu.real + mu)), "-(nu + mu) not a positive integer")
        _require(x > 1.0, "x > 1")
        return math.gamma(mu) / (2.0 * math.gamma(nu.real + mu + 1.0)) * (2.0 / (x - 1.0)) ** (mu / 2.0)

    if which == FORM_FERRERS_P_EDGE_SINGULAR:
        _require(mu > 0 and not _is_positive_integer(mu), "order mu > 0 and mu not a positive integer")
        _require(-1.0 < x < 1.0, "-1 < x < 1")
        return (2.0 / (1.0 - x)) ** (mu / 2.0) / math.gamma(1.0 - mu)

    if which == FORM_FERRERS_P_EDGE_INTEGER:
        _require(_is_positive_integer(mu), "order mu a positive integer")
        _require(nu.imag == 0.0, "real degree")
        nr = nu.real
        excluded = {mu - 1.0 - i for i in range(int(2 * mu))}
        _require(nr not in excluded, "nu not in {mu-1, mu-2, ..., -mu}")
        _require(-1.0 < x < 1.0, "-1 < x < 1")
        ratio = math.gamma(nr + mu + 1.0) / math.gamma(nr - mu + 1.0)
        return (-1.0) ** int(mu) * ratio / math.factorial(int(mu)) * ((1.0 - x) / 2.0) ** (mu / 2.0)

    if which == FORM_LEGENDRE_P_LARGE_DEGREE_NEG:
        # P^(-mu)_nu(cosh xi) ~ nu^(-mu) (xi/sinh xi)^(1/2) I_mu((nu+1/2) xi)
        _require(mu >= 0, "order mu >= 0")
        _require(nu.imag == 0.0 and nu.real > 0, "large positive real degree")
        _require(x > 1.0, "x > 1")
        xi = math.acosh(x)
        return nu.real ** (-mu) * math.sqrt(xi / math.sinh(xi)) * bessel_i(mu, (nu.real + 0.5) * xi)

    if which == FORM_LEGENDRE_P_LARGE_DEGREE_POS:
        _require(mu >= 0 and mu == round(mu), "order mu a nonnegative integer")
        _require(nu.imag == 0.0 and nu.real > 0, "large positive real degree")
        _require(x > 1.0, "x > 1")
        xi = math.acosh(x)
        return nu.real ** mu * math.sqrt(xi / math.sinh(xi)) * bessel_i(mu, (nu.real + 0.5) * xi)

    if which == FORM_BESSEL_I_LARGE_ARGUMENT:
        # I_mu(nu + 1/2) ~ e^(nu+1/2) / sqrt(pi (2 nu + 1)); x is ignored.
        _require(nu.imag == 0.0 and nu.real > 0, "large positive real degree")
        z = nu.real + 0.5
        return math.exp(z) / math.sqrt(math.pi * (2.0 * nu.real + 1.0))

    if which == FORM_FERRERS_P_LARGE_CONICAL:
        # P^(-mu)_(-1/2+i tau)(cos theta) ~ tau^(-mu) (theta/sin theta)^(1/2) I_mu(tau theta)
        _require(mu >= 0, "order mu >= 0")
        _require(nu.imag > 0, "conical degree")
        _require(-1.0 < x < 1.0, "-1 < x < 1")
        theta = math.acos(x)
        tau = nu.imag
        return tau ** (-mu) * math.sqrt(theta / math.sin(theta)) * bessel_i(mu, tau * theta)

    raise ValueError(f"unknown asymptotic form {which!r}; known: {', '.join(ASYMPTOTIC_FORMS)}")
