"""cylbif benchmark: closed-loop runs of the public library API.

    python3 perfbench/run.py --workload {bifurcate,scan,eigen} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test   # counts and digests repeat exactly
    python3 perfbench/run.py --gaps        # known failures, reported by name

Run from the repository root; the package is imported from ``src/``.  One
caller in one process starts each op only when the previous one returned.

A run executes a fixed op list drawn from ``--seed``: whole rounds of the
workload, as many as took about ``--seconds`` when the benchmark was
defined (at least one), so the parent and a change do identical work.
``--trace 0`` times each op and reports the end-to-end metrics.
``--trace 1`` runs the list twice, untraced and then traced, and reports
the per-layer metrics and the tracing overhead; the counts repeat exactly.
Correctness gates run after each op, outside its timing and outside the
spans.  Human-readable lines come first; the last line of stdout is one
JSON object.  A record of the inputs, per-op times, output digests and
failure reasons goes to ``perfbench/runs/``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "runs"

if not (SRC / "cylbif" / "__init__.py").is_file():
    sys.exit(f"error: no cylbif sources under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))
import workloads  # noqa: E402
from tracer import Tracer, instrument, layer_metrics, restore  # noqa: E402

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
# a p90 is reported only with at least ten samples beyond it
P90_MIN_SAMPLES = 100
SELF_TEST_OPS = {"bifurcate": 1, "scan": 2, "eigen": 3}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("bifurcate", "scan", "eigen"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--gaps", action="store_true")
    args = parser.parse_args(argv)
    if not (args.self_test or args.gaps or args.workload):
        parser.error("--workload is required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=_child_env(), capture_output=True, text=True,
        check=True, timeout=120,
    )


def setup_seconds(repeats: int) -> list[float]:
    """Wall time of ``import cylbif.cli`` in fresh interpreters."""
    code = "import time\nt = time.perf_counter()\nimport cylbif.cli\nprint(time.perf_counter() - t)"
    _python("-c", code)  # writes the bytecode caches; not timed
    return [float(_python("-c", code).stdout) for _ in range(repeats)]


def import_profile(repeats: int) -> tuple[float, float]:
    """Medians of (scipy.integrate cumulative, cylbif self) import time, from -X importtime."""
    scipy_s, cylbif_s = [], []
    for _ in range(repeats):
        scipy_us, cylbif_us = None, 0
        for line in _python("-X", "importtime", "-c", "import cylbif.cli").stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = (p.strip() for p in line[12:].split("|"))
            if not self_us.isdigit():
                continue  # the header line
            if name == "scipy.integrate" and scipy_us is None:
                scipy_us = int(cumulative_us)
            if name.split(".")[0] == "cylbif":
                cylbif_us += int(self_us)
        scipy_s.append((scipy_us or 0) / 1e6)
        cylbif_s.append(cylbif_us / 1e6)
    return statistics.median(scipy_s), statistics.median(cylbif_s)


def execute(wl, inp: dict, op: int, tracer=None) -> dict:
    """Run one op, then its gate outside the timing and the spans."""
    if tracer is not None:
        tracer.op, tracer.active = op, True
    start = time.perf_counter()
    try:
        text, product = wl.run(inp)
        failure = None
    except Exception as exc:  # one failed op must not end the run
        text, product, failure = None, None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    if failure is None:
        try:
            failure = wl.gate(inp, product)
        except Exception as exc:
            failure = f"gate not evaluable: {type(exc).__name__}: {exc}"
    route_errors, route_attempts = workloads.route_counts(wl.name, product)
    return {
        "op": op,
        "input": inp,
        "seconds": seconds,
        "digest": workloads.digest(text) if text is not None else None,
        "failure": failure,
        "route_errors": route_errors,
        "route_attempts": route_attempts,
    }


def _print_op(rec: dict) -> None:
    status = "ok  " if rec["failure"] is None else "FAIL"
    digest = (rec["digest"] or "-")[:16]
    print(f"op {rec['op']:3d} {status} {rec['seconds']:9.4f} s  sha256:{digest}  "
          f"{json.dumps(rec['input'])}")
    if rec["failure"] is not None:
        print(f"         reason: {rec['failure']}")


def _result(records: list[dict], metrics: dict, extra_ok: bool = True) -> dict:
    failed = sum(r["failure"] is not None for r in records)
    return {
        "correct": failed == 0 and extra_ok,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _save(name: str, payload) -> Path:
    RUNS.mkdir(exist_ok=True)
    path = RUNS / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run_untraced(wl, inputs: list[dict]) -> tuple[dict, dict]:
    setup = setup_seconds(SETUP_REPEATS)
    workloads.warm_up()
    records = []
    for i, inp in enumerate(inputs):
        records.append(execute(wl, inp, i))
        _print_op(records[-1])
    times = [r["seconds"] for r in records]
    timed = sum(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(records) / timed, "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    failed = sum(r["failure"] is not None for r in records)
    print(f"setup_s     {metrics['setup_s'][0]:.4f} s    median of {len(setup)} fresh imports of cylbif.cli")
    print(f"ops_per_s   {metrics['ops_per_s'][0]:.4f} 1/s  {len(records)} ops in {timed:.3f} s of op time")
    print(f"op_p50_s    {metrics['op_p50_s'][0]:.4f} s    {len(times)} samples")
    if len(times) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(times, n=10)[-1]
        print(f"op_p90_s    {p90:.4f} s    {len(times)} samples")
    else:
        print(f"op_p90_s    not reported: {len(times)} samples, needs {P90_MIN_SAMPLES}")
    print(f"fail_ratio  {failed / len(records):.4f}      {failed}/{len(records)} ops failed")
    print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    record = {"setup_s_samples": setup, "ops": records}
    return _result(records, metrics), record


def trace_pass(wl, inputs: list[dict]) -> tuple[list[dict], Tracer, dict, dict]:
    """Run ``inputs`` once with every layer traced; returns records, spans and metrics."""
    tracer = Tracer()
    patches = instrument(tracer)
    try:
        records = [execute(wl, inp, i, tracer) for i, inp in enumerate(inputs)]
    finally:
        restore(patches)
    scan_samples = workloads.SCAN_POINTS * len(inputs) if wl.name == "scan" else 0
    metrics, per_case = layer_metrics(
        tracer.spans, len(inputs), scan_samples,
        sum(r["route_errors"] for r in records), sum(r["route_attempts"] for r in records),
    )
    return records, tracer, metrics, per_case


def run_traced(wl, inputs: list[dict], tag: str) -> tuple[dict, dict]:
    workloads.warm_up()
    plain = [execute(wl, inp, i) for i, inp in enumerate(inputs)]
    traced, tracer, metrics, per_case = trace_pass(wl, inputs)
    for rec in traced:
        _print_op(rec)
    # the same inputs in one process must give byte-identical outputs
    same = [a["digest"] == b["digest"] for a, b in zip(plain, traced)]
    if not all(same):
        print(f"outputs differ between the untraced and traced pass on ops "
              f"{[i for i, ok in enumerate(same) if not ok]}")
    scipy_s, cylbif_s = import_profile(IMPORTTIME_REPEATS)
    metrics["setup.scipy_integrate_s"] = (scipy_s, "s")
    metrics["setup.cylbif_self_s"] = (cylbif_s, "s")
    overhead = sum(r["seconds"] for r in traced) / sum(r["seconds"] for r in plain)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    for what, counts in per_case.items():
        if counts:
            print(f"{what} per case: " + ", ".join(
                f"({inputs[op]['n']}, {inputs[op]['k']:.6g}): {count}"
                for op, count in counts.items()))
    spans_path = _save(f"{tag}-spans.json", tracer.dump())
    print(f"spans: {spans_path.relative_to(HERE.parent)} ({len(tracer.spans)} spans)")
    record = {"untraced": plain, "ops": traced, "per_case": per_case}
    return _result(traced, metrics, all(same)), record


def self_test() -> int:
    """Two traced passes over the same inputs must give equal counts and digests."""
    ok = True
    for wl in workloads.WORKLOADS.values():
        inputs = workloads.op_inputs(wl, 1, 0.0)[: SELF_TEST_OPS[wl.name]]
        passes = []
        for _ in range(2):
            recs, _, metrics, per_case = trace_pass(wl, inputs)
            counts = {k: v for k, (v, unit) in metrics.items() if unit.startswith("count")}
            passes.append(([r["digest"] for r in recs], counts, per_case,
                           [r["failure"] for r in recs]))
        same = passes[0][:3] == passes[1][:3]
        clean = not any(passes[0][3])
        ok = ok and same and clean
        print(f"{wl.name:9s} {'ok  ' if same and clean else 'FAIL'} "
              f"{len(inputs)} ops, counts {passes[0][1]}, per case {passes[0][2]}, "
              f"failures {passes[0][3]}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def gaps() -> int:
    """Run the known failing inputs and print each failure's reason by name."""
    for title, name, inp in workloads.KNOWN_GAPS:
        rec = execute(workloads.WORKLOADS[name], inp, 0)
        print(f"{title}: {rec['failure'] or 'no failure (gap closed?)'}")
    return 0


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if args.self_test:
        return self_test()
    if args.gaps:
        return gaps()
    wl = workloads.WORKLOADS[args.workload]
    print(f"workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    inputs = workloads.op_inputs(wl, args.seed, args.seconds)
    tag = f"{wl.name}-seed{args.seed}"
    if args.trace:
        result, record = run_traced(wl, inputs, tag)
    else:
        result, record = run_untraced(wl, inputs)
    path = _save(f"{tag}-trace{args.trace}.json",
                 {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, **record, "result": result})
    print(f"record: {path.relative_to(HERE.parent)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
