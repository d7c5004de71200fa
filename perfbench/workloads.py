"""Seeded inputs, operations and correctness gates of the benchmark workloads.

Every workload is a sequence of rounds.  A round holds a fixed design of
strata (which input sizes and regimes it covers) and the seed draws the
values inside them.  The cost of an op follows its inputs (a stiff scan
window, a large ``lambda1``), so the draws are balanced: discrete inputs
(``n``, ``j``) follow a fixed design, continuous ones are Latin-hypercube
samples (one value in each equal bin) or antithetic pairs ``u``, ``1 - u``.
This keeps the work in a round nearly the same from seed to seed while
every seed still gets inputs of its own.

The program sees only the generated ``(n, k, j, window)`` values, through
the public library API, called the way the CLI calls it.
"""

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable

from cylbif import bifurcation, dispersion, oracle, spectral
from cylbif.cli import _json_dumps  # the CLI's JSON output format
from cylbif.geometry import SpaceForm

# T_star pins of the four reference cases (the values frozen in the acceptance
# tests); the gate tolerance is the same 1e-9 relative
PINNED_T_STAR = {
    (2, 1.0): 2.9821661040519363,
    (2, -1.0): 3.1320245985793607,
    (3, 1.0): 2.5091744868294668,
    (3, -1.0): 2.7148011881388054,
}
REFERENCE_CASES = tuple(PINNED_T_STAR)
PIN_RTOL = 1e-9
SIGN_BRACKET_REL = 1e-7

# CLI defaults of `cylbif bifurcate` and `cylbif scan`
BIFURCATE_WINDOW = (0.5, 50.0)
BIFURCATE_J_MAX = 64
SCAN_POINTS = 200

# the resolution `cylbif verify` gives the FD eigenvalue oracle
FD_INTERVALS = 256
N3_RTOL = 1e-9

# |k| below this is the near-flat regime where the closed form loses digits
# (ROADMAP item 4); draws there would fail the dual-route gate, not time it
K_MIN_ABS = 0.1


def _latin(rng: random.Random, m: int) -> list[float]:
    """m uniforms, one in each of m equal bins, in random order."""
    bins = list(range(m))
    rng.shuffle(bins)
    return [(b + rng.random()) / m for b in bins]


def _span(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * u


def _curvature(u: float, lo: float, hi: float) -> float:
    k = _span(u, lo, hi)
    return k if abs(k) >= K_MIN_ABS else math.copysign(K_MIN_ABS, k or 1.0)


# --- bifurcate: one op is ground_state -> run_bifurcation -> report JSON -----

# Drawn cases stay inside the range where the search succeeds: as k grows,
# T_star shrinks and the kernel probe at T_star/64 reaches sqrt(-Lam) ~ 700,
# where the shooting solution overflows ((3, 8.4) fails; (4, 7) reaches 480).
# Their gate also needs the closed form, which refuses k < -3.1.  A case
# costs more as n and k grow (n = 4, k = 4.4: 7 s against 3.3 s at n = 2), so
# the two drawn cases of a round take n = 2 and n = 4 at an antithetic pair
# of k.
BIFURCATE_K = (-3.0, 4.0)


def _bifurcate_round(rng: random.Random, index: int) -> list[dict]:
    """The four reference cases and two drawn ones (613 solves each today)."""
    u = rng.random()
    refs = [{"n": n, "k": k, "reference": True} for n, k in REFERENCE_CASES]
    drawn = [
        {"n": n, "k": _curvature(v, *BIFURCATE_K), "reference": False}
        for n, v in ((2, u), (4, 1.0 - u))
    ]
    return refs[:2] + drawn[:1] + refs[2:] + drawn[1:]


def _run_bifurcate(inp: dict):
    sf = SpaceForm(inp["n"], inp["k"])
    gs = spectral.ground_state(sf)
    t_lo, t_hi = BIFURCATE_WINDOW
    report = bifurcation.run_bifurcation(gs, sf, t_lo=t_lo, t_hi=t_hi, j_max=BIFURCATE_J_MAX)
    return _json_dumps(report.to_dict()), (gs, sf, report)


def _gate_bifurcate(inp: dict, product) -> str | None:
    gs, sf, report = product
    t_star = report.t_star
    if inp["reference"]:
        pin = PINNED_T_STAR[(inp["n"], inp["k"])]
        if not abs(t_star - pin) <= PIN_RTOL * pin:
            return f"T_star {t_star!r} differs from the pin {pin!r}"
    if report.kernel_modes != [1]:
        return f"kernel {report.kernel_modes} is not [1]"
    if report.parity != {1: bifurcation.PARITY_CHANGES}:
        return f"parity {report.parity} is not a sign change"
    below = dispersion.sigma_closed(gs, sf, t_star * (1.0 - SIGN_BRACKET_REL))
    above = dispersion.sigma_closed(gs, sf, t_star * (1.0 + SIGN_BRACKET_REL))
    if not below > 0.0 > above:
        return (
            f"sigma_closed does not change sign across T_star={t_star!r}: "
            f"{below!r} below, {above!r} above"
        )
    return None


# --- scan: one op is ground_state -> 200-point dual-route scan -> CSV --------

# (name, t_lo/j range, t_hi/t_lo range, k range).  Stiffness follows j/t_lo:
# at the stiff stratum the shifted parameter reaches Lam ~ lambda1 - 1.6e4.
# The near-pi^2 stratum makes every sigma_closed call a long Ferrers series
# (x = C_k(1) close to -1); k in (9.1, pi^2) hits the term cap (a known gap).
SCAN_STRATA = (
    ("stiff", (0.05, 0.055), (60.0, 100.0), (-3.0, 6.0)),
    ("broad", (0.3, 2.0 / 3.0), (100.0, 300.0), (-3.0, 6.0)),
    ("near_pi2", (0.3, 0.5), (40.0, 80.0), (8.8, 8.9)),
)
SCAN_N = (2, 3, 4)


def _scan_round(rng: random.Random, index: int) -> list[dict]:
    """Every stratum with every n once; j from a Latin square over both."""
    ops = []
    for s, (name, per_j, ratio, k_range) in enumerate(SCAN_STRATA):
        ks, ts, rs = (_latin(rng, len(SCAN_N)) for _ in range(3))
        for i, n in enumerate(SCAN_N):
            j = 1 + (i + s + index) % 3
            t_lo = j * _span(ts[i], *per_j)
            ops.append(
                {
                    "stratum": name,
                    "n": n,
                    "k": _curvature(ks[i], *k_range),
                    "j": j,
                    "t_lo": t_lo,
                    "t_hi": min(t_lo * _span(rs[i], *ratio), dispersion.T_HI_CAP),
                }
            )
    return ops


def _run_scan(inp: dict):
    sf = SpaceForm(inp["n"], inp["k"])
    gs = spectral.ground_state(sf)
    curve = dispersion.scan(gs, sf, inp["t_lo"], inp["t_hi"], SCAN_POINTS, inp["j"])
    return curve.csv_text(), curve


def _gate_scan(inp: dict, curve) -> str | None:
    rows = curve.rows()
    bad = [row for row in rows if not row["agree_flag"]]
    if not bad:
        return None
    first = bad[0]
    reason = first["error"] or (
        f"routes differ: sigma_ode={first['sigma_ode']!r}, sigma_cf={first['sigma_cf']!r}"
    )
    return f"{len(bad)}/{len(rows)} rows disagree; first at T={first['T']!r}: {reason}"


def route_counts(workload: str, product) -> tuple[int, int]:
    """(route evaluations that recorded an error, route evaluations)."""
    if workload != "scan" or product is None:
        return 0, 0
    return sum(1 for s in product.samples if s.error), len(product.samples)


# --- eigen: one op is ground_state -> summary JSON ---------------------------

# A round runs each n of the ladder at antithetic pairs of k, two ops per
# n and four at the middle n, so the median op falls among four ops of like
# cost.  find_lambda1 scans in fixed 0.25 steps, so an op's cost grows with
# lambda1, which falls with k and grows with n (n = 12, k = -2: 8 s).  The
# cost is convex in k, so the pairs keep the round's cost steady only on a
# narrow k band.  Large k is out anyway: lambda1 drops under the 0.05 scan
# start for large n as k -> pi^2 (n = 12 fails at k = 7).  n >= 25 is left
# out: lambda1 exceeds SCAN_CAP and one such op fails after ~70 s, longer
# than a whole run.
EIGEN_PAIRS = ((2, 1), (3, 1), (6, 2), (9, 1), (12, 1))  # (n, pairs of k)
EIGEN_K = (-0.5, 2.0)


def _eigen_round(rng: random.Random, index: int) -> list[dict]:
    ops = []
    for n, pairs in EIGEN_PAIRS:
        for u in (rng.random() for _ in range(pairs)):
            ops += [{"n": n, "k": _curvature(u, *EIGEN_K)},
                    {"n": n, "k": _curvature(1.0 - u, *EIGEN_K)}]
    return ops


def _run_eigen(inp: dict):
    sf = SpaceForm(inp["n"], inp["k"])
    gs = spectral.ground_state(sf)
    return _json_dumps(gs.summary()), gs


def _gate_eigen(inp: dict, gs) -> str | None:
    fd = oracle.fd_lambda1(gs.sf, FD_INTERVALS)
    if not abs(gs.lambda1 - fd.value) <= fd.error:
        return (
            f"lambda1={gs.lambda1!r} outside the FD oracle {fd.value!r} +- {fd.error:.3g}"
        )
    if inp["n"] == 3:
        exact = math.pi**2 - inp["k"]
        if not abs(gs.lambda1 - exact) <= N3_RTOL * abs(exact):
            return f"lambda1={gs.lambda1!r} is not pi^2 - k = {exact!r}"
    return None


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[random.Random, int], list[dict]]
    run: Callable[[dict], tuple]
    gate: Callable[[dict, object], str | None]
    # wall time of one round on 2 shared vCPUs at the commit that defined the
    # benchmark; sizes the fixed op list of a run from --seconds
    round_seconds: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bifurcate", _bifurcate_round, _run_bifurcate, _gate_bifurcate, 21.0),
        Workload("scan", _scan_round, _run_scan, _gate_scan, 16.0),
        Workload("eigen", _eigen_round, _run_eigen, _gate_eigen, 15.0),
    )
}


def op_inputs(workload: Workload, seed: int, seconds: float) -> list[dict]:
    """The fixed op list of a run: whole rounds drawn from ``seed``.

    A run holds round(seconds / round_seconds) rounds, at least one, so the
    parent and a change do identical work for the same arguments.
    """
    rng = random.Random(seed)
    count = max(1, round(seconds / workload.round_seconds))
    return [inp for index in range(count) for inp in workload.make_round(rng, index)]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Known failures of the program, run by `run.py --gaps` so they show up by
# name.  They are kept out of the timed workloads, on which no op may fail.
KNOWN_GAPS = (
    ("closed-form conical refusal at k=-4", "scan",
     {"n": 2, "k": -4.0, "j": 1, "t_lo": 0.5, "t_hi": 50.0}),
    ("Ferrers term cap at (3, 9.5)", "scan",
     {"n": 3, "k": 9.5, "j": 1, "t_lo": 0.5, "t_hi": 50.0}),
    ("fd_lambda1 inverse iteration at (3, 9.5)", "eigen", {"n": 3, "k": 9.5}),
    ("kernel probe overflow at (3, 8.4)", "bifurcate", {"n": 3, "k": 8.4, "reference": False}),
    ("lambda1 below the scan start at (12, 7)", "eigen", {"n": 12, "k": 7.0}),
)


def warm_up() -> None:
    """Touch every code path once before timing (lazy imports, first-call caches)."""
    sf = SpaceForm(2, 1.0)
    gs = spectral.ground_state(sf)
    dispersion.scan(gs, sf, 1.0, 10.0, 4).csv_text()
