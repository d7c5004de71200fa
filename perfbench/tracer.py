"""Outside-in span recorder for the cylbif layers.

A span is opened around every call into a layer's public functions.  The
functions are replaced, for the duration of a traced pass, in every cylbif
module namespace that binds them: ``shoot`` is looked up in ``radial``,
``spectral`` and ``dispersion``, ``sigma_reduced`` in ``bifurcation``,
``legendre_p``/``ferrers_p`` in ``dispersion``.  Work counts (right-hand-side
evaluations, accepted steps) are read from the ``OdeResult`` that
``solve_ivp`` returns to ``cylbif.radial``.  Nothing under ``src/`` changes.

Spans stay in memory and are written out when the benchmark ends.  A span's
self time is its duration minus the part covered by its child spans.
"""

import functools
import inspect
import sys
import time

LAYERS = ("radial", "spectral", "dispersion", "specfun", "bifurcation")


class Span:
    __slots__ = ("name", "layer", "parent", "op", "start", "end", "rhs_evals", "steps")

    def __init__(self, name: str, parent: int | None, op: int | None):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.rhs_evals = 0
        self.steps = 0


class Tracer:
    """Records nested spans while ``active``; a pass-through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            span = Span(name, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def count_solve(self, sol) -> None:
        """Charge one ``solve_ivp`` result to the innermost open span."""
        if self.active and self._stack:
            span = self.spans[self._stack[-1]]
            span.rhs_evals += int(sol.nfev)
            span.steps += len(sol.t) - 1

    def dump(self) -> list:
        """Spans as ``[name, start, end, parent, op, rhs_evals, steps]`` rows."""
        return [
            [s.name, s.start, s.end, s.parent, s.op, s.rhs_evals, s.steps]
            for s in self.spans
        ]


def instrument(tracer: Tracer) -> list:
    """Route the layers' public functions through ``tracer``; returns the undo list."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cylbif"]
    patches = []

    def patch(owner, attr, replacement):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    for layer in LAYERS:
        mod = sys.modules[f"cylbif.{layer}"]
        public = [
            (name, fn)
            for name, fn in vars(mod).items()
            if not name.startswith("_")
            and inspect.isfunction(fn)
            and fn.__module__ == mod.__name__
        ]
        for name, fn in public:
            wrapped = tracer.wrap(f"{layer}.{name}", fn)
            for m in modules:
                if vars(m).get(name) is fn:
                    patch(m, name, wrapped)

    # the CSV serialisation is timed as its own step of a scan
    curve = sys.modules["cylbif.dispersion"].DispersionCurve
    patch(curve, "csv_text", tracer.wrap("dispersion.csv_text", curve.csv_text))

    radial = sys.modules["cylbif.radial"]
    solve_ivp = radial.solve_ivp

    def counted_solve_ivp(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        tracer.count_solve(sol)
        return sol

    patch(radial, "solve_ivp", counted_solve_ivp)
    return patches


def restore(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def _enclosing(spans: list[Span], index: int, name: str) -> int | None:
    """Index of the nearest ancestor of span ``index`` called ``name``."""
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return parent
        parent = spans[parent].parent
    return None


def _entries(spans: list[Span], layer: str) -> list[int]:
    """Spans that enter ``layer`` from outside it (nested calls not counted)."""
    return [
        i
        for i, s in enumerate(spans)
        if s.layer == layer and (s.parent is None or spans[s.parent].layer != layer)
    ]


def _per_case(spans: list[Span], inner: list[int], outer: str) -> dict[int, int]:
    """Count of ``inner`` spans under each ``outer`` span, keyed by op id."""
    counts = {s.op: 0 for s in spans if s.name == outer}
    for i in inner:
        if _enclosing(spans, i, outer) is not None:
            counts[spans[i].op] += 1
    return counts


def layer_metrics(
    spans: list[Span], ops: int, scan_samples: int, route_errors: int, route_attempts: int
) -> tuple[dict, dict]:
    """Per-layer metrics (per op unless the name says otherwise) and per-case counts."""
    durations = [s.end - s.start for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent is not None:
            covered[s.parent] += durations[i]
    self_time = [d - c for d, c in zip(durations, covered)]

    def self_s(layer):
        return sum(t for t, s in zip(self_time, spans) if s.layer == layer) / ops

    def inclusive_s(name):
        return sum(d for d, s in zip(durations, spans) if s.name == name) / ops

    radial = _entries(spans, "radial")
    rhs_evals = sum(s.rhs_evals for s in spans)
    steps = sum(s.steps for s in spans)
    scan_rhs = sum(
        s.rhs_evals
        for i, s in enumerate(spans)
        if s.rhs_evals and _enclosing(spans, i, "dispersion.scan") is not None
    )
    reduced = [i for i, s in enumerate(spans) if s.name == "dispersion.sigma_reduced"]
    producer = _per_case(spans, reduced, "bifurcation.run_bifurcation")
    lambda1_solves = _per_case(spans, radial, "spectral.find_lambda1")

    def mean(counts):
        return sum(counts.values()) / len(counts) if counts else 0.0

    metrics = {
        "radial.calls": (len(radial) / ops, "count/op"),
        "radial.self_s": (self_s("radial"), "s/op"),
        "radial.rhs_evals": (rhs_evals / ops, "count/op"),
        "radial.steps": (steps / ops, "count/op"),
        "radial.rhs_evals_per_call": (rhs_evals / len(radial) if radial else 0.0, "count"),
        "dispersion.rhs_evals_per_sample": (
            scan_rhs / scan_samples if scan_samples else 0.0, "count"
        ),
        "spectral.ground_state_s": (inclusive_s("spectral.ground_state"), "s/op"),
        "spectral.find_lambda1_s": (inclusive_s("spectral.find_lambda1"), "s/op"),
        "spectral.self_s": (self_s("spectral"), "s/op"),
        "spectral.radial_calls_per_case": (mean(lambda1_solves), "count"),
        "bifurcation.run_s": (inclusive_s("bifurcation.run_bifurcation"), "s/op"),
        "bifurcation.find_sigma_zeros_s": (inclusive_s("bifurcation.find_sigma_zeros"), "s/op"),
        "bifurcation.kernel_modes_s": (inclusive_s("bifurcation.kernel_modes"), "s/op"),
        "bifurcation.crossing_parity_s": (inclusive_s("bifurcation.crossing_parity"), "s/op"),
        "bifurcation.self_s": (self_s("bifurcation"), "s/op"),
        "bifurcation.producer_calls_per_case": (mean(producer), "count"),
        "dispersion.sigma_reduced_calls": (len(reduced) / ops, "count/op"),
        "dispersion.sigma_closed_s": (inclusive_s("dispersion.sigma_closed"), "s/op"),
        "dispersion.scan_self_s": (
            sum(t for t, s in zip(self_time, spans) if s.name == "dispersion.scan") / ops,
            "s/op",
        ),
        "dispersion.csv_s": (inclusive_s("dispersion.csv_text"), "s/op"),
        "dispersion.route_fail_ratio": (
            route_errors / route_attempts if route_attempts else 0.0, "ratio"
        ),
        "specfun.calls": (len(_entries(spans, "specfun")) / ops, "count/op"),
        "specfun.self_s": (self_s("specfun"), "s/op"),
    }
    per_case = {"producer_calls": producer, "lambda1_radial_calls": lambda1_solves}
    return metrics, per_case
