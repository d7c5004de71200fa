"""Command-line interface: eigen, scan, bifurcate, profile, verify.

Exit codes: 0 success, 1 numerical failure, 2 usage error.  Options of the
subcommand may be preloaded from a key=value config file (--config), each
key one of them, and overridden on the command line.  Outputs are
deterministic for identical configuration: JSON keys are sorted and floats
use shortest round-trip formatting.
"""

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .bifurcation import (
    check_bifurcation_args,
    check_profile_args,
    domain_profile,
    run_bifurcation,
)
from .dispersion import check_scan_args, scan
from .errors import NumericalError
from .geometry import SpaceForm
from .spectral import ground_state
from .verify import DEFAULT_CASES, GROUPS, run_checks


def _load_config(path: str) -> dict:
    """Parse a key=value config file; '#' starts a comment, JSON values are typed."""
    out = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass
        out[key.replace("-", "_")] = value
    return out


def _resolve_out(path: str | None) -> Path | None:
    """Apply the only supported environment override: the output directory."""
    if path is None:
        return None
    out = Path(path)
    base = os.environ.get("CYLBIF_OUT_DIR")
    if base and not out.is_absolute():
        out = Path(base) / out
    return out


def _emit(text: str, path: str | None) -> None:
    resolved = _resolve_out(path)
    if resolved is not None:
        resolved.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _require_case(args) -> SpaceForm:
    if args.n is None or args.k is None:
        raise ValueError("both --n and --k are required (flag or config file)")
    return SpaceForm(args.n, args.k)


def cmd_eigen(args) -> int:
    sf = _require_case(args)
    gs = ground_state(sf)
    _emit(_json_dumps(gs.summary()), args.json_out)
    return 0


def cmd_scan(args) -> int:
    sf = _require_case(args)
    check_scan_args(args.tlo, args.thi, args.points, args.j)
    gs = ground_state(sf)
    curve = scan(gs, sf, args.tlo, args.thi, args.points, j=args.j)
    _emit(curve.csv_text(), args.csv_out)
    rows = curve.rows()
    bad = [row for row in rows if not row["agree_flag"]]
    if bad:
        row = bad[0]
        reason = row["error"] or f"routes differ by {abs(row['sigma_ode'] - row['sigma_cf']):.3g}"
        print(f"{len(bad)}/{len(rows)} rows disagree; first at T={row['T']!r}: {reason}",
              file=sys.stderr)
    return 1 if bad else 0


def cmd_bifurcate(args) -> int:
    sf = _require_case(args)
    check_profile_args(args.epsilon, args.profile_samples)  # with or without --profile-out
    check_bifurcation_args(args.tlo, args.thi, args.jmax)
    gs = ground_state(sf)
    report = run_bifurcation(gs, sf, t_lo=args.tlo, t_hi=args.thi, j_max=args.jmax)
    _emit(_json_dumps(report.to_dict()), args.report_out)
    if args.profile_out:
        prof = domain_profile(
            report.t_star, args.epsilon, args.profile_samples, n=sf.n, k=sf.k
        )
        _emit(prof.csv_text(), args.profile_out)
    return 0


def cmd_profile(args) -> int:
    sf = _require_case(args)
    if args.tstar is not None:
        t_star = args.tstar
    else:
        t_star = run_bifurcation(ground_state(sf), sf).t_star
    prof = domain_profile(t_star, args.epsilon, args.samples, n=sf.n, k=sf.k)
    _emit(prof.csv_text(), args.csv_out)
    return 0


def _parse_cases(text: str):
    cases = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            n_str, k_str = chunk.split(",")
            cases.append((int(n_str), float(k_str)))
        except ValueError:
            raise ValueError(f"--cases: malformed pair {chunk!r}, expected n,k") from None
    if not cases:
        raise ValueError("--cases is empty; give semicolon-separated n,k pairs")
    return tuple(cases)


def cmd_verify(args) -> int:
    groups = None
    if args.only is not None:
        if not args.only.strip():
            raise ValueError("--only is empty; give comma-separated check groups")
        groups = args.only.split(",")
    cases = DEFAULT_CASES if args.cases is None else _parse_cases(args.cases)
    results = run_checks(groups=groups, cases=cases)
    if args.format == "json":
        payload = [
            {
                "group": r.group,
                "name": r.name,
                "status": r.status,
                "passed": r.passed,
                "skipped": r.skipped,
                "detail": r.detail,
            }
            for r in results
        ]
        _emit(_json_dumps(payload), None)
    else:
        width = max(len(f"{r.group}::{r.name}") for r in results)
        for r in results:
            sys.stdout.write(f"{r.status:4s}  {r.group + '::' + r.name:{width}s}  {r.detail}\n")
        n_fail = sum(not r.passed and not r.skipped for r in results)
        n_skip = sum(r.skipped for r in results)
        sys.stdout.write(
            f"{len(results)} checks: {len(results) - n_fail - n_skip} passed, "
            f"{n_fail} failed, {n_skip} skipped\n"
        )
    return 1 if any(not r.passed and not r.skipped for r in results) else 0


def build_parser(config_defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylbif",
        allow_abbrev=False,
        description=(
            "Dispersion relation and bifurcation pipeline for the overdetermined "
            "eigenvalue problem on constant-curvature cylinders."
        ),
    )
    parser.add_argument(
        "--config",
        help="key=value file supplying option defaults (CLI flags override)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = dict(formatter_class=argparse.ArgumentDefaultsHelpFormatter, allow_abbrev=False)

    def add_case_args(p):
        # not argparse-required so a --config file can supply them
        p.add_argument("--n", type=int, default=None, help="ambient dimension (>= 2)")
        p.add_argument("--k", type=float, default=None, help="sectional curvature (nonzero)")

    p_eigen = sub.add_parser("eigen", help="ground state of the unit geodesic ball", **fmt)
    add_case_args(p_eigen)
    p_eigen.add_argument("--json-out", help="write the JSON summary here instead of stdout")
    p_eigen.set_defaults(func=cmd_eigen)

    p_scan = sub.add_parser("scan", help="dual-route dispersion scan (CSV)", **fmt)
    add_case_args(p_scan)
    p_scan.add_argument("--tlo", type=float, default=0.5, help="lower period bound")
    p_scan.add_argument("--thi", type=float, default=50.0, help="upper period bound (cap 200)")
    p_scan.add_argument("--points", type=int, default=200, help="number of log-spaced samples (>= 2)")
    p_scan.add_argument("--j", type=int, default=1, help="Fourier mode index (>= 1)")
    p_scan.add_argument("--csv-out", help="write the CSV here instead of stdout")
    p_scan.set_defaults(func=cmd_scan)

    p_bif = sub.add_parser("bifurcate", help="zeros of sigma, T_star, kernel data (JSON)", **fmt)
    add_case_args(p_bif)
    p_bif.add_argument("--tlo", type=float, default=0.5, help="initial window lower end")
    p_bif.add_argument("--thi", type=float, default=50.0, help="initial window upper end")
    p_bif.add_argument("--jmax", type=int, default=64, help="largest kernel mode probed")
    p_bif.add_argument("--epsilon", type=float, default=0.1,
                       help="profile amplitude (0 <= eps < 0.5)")
    p_bif.add_argument("--profile-samples", type=int, default=256,
                       help="profile samples per period (>= 8)")
    p_bif.add_argument("--report-out", help="write the JSON report here instead of stdout")
    p_bif.add_argument("--profile-out", help="also write a domain-profile CSV here")
    p_bif.set_defaults(func=cmd_bifurcate)

    p_prof = sub.add_parser("profile", help="first-order domain profile (CSV)", **fmt)
    add_case_args(p_prof)
    p_prof.add_argument("--tstar", type=float, default=None,
                        help="period to use; computed from the pipeline when omitted")
    p_prof.add_argument("--epsilon", type=float, default=0.1)
    p_prof.add_argument("--samples", type=int, default=256)
    p_prof.add_argument("--csv-out", help="write the CSV here instead of stdout")
    p_prof.set_defaults(func=cmd_profile)

    p_ver = sub.add_parser("verify", help="run the property-check suites", **fmt)
    p_ver.add_argument("--only", help=f"comma-separated subset of: {', '.join(GROUPS)}")
    p_ver.add_argument("--cases", help="semicolon-separated n,k pairs (default all four)")
    p_ver.add_argument("--format", choices=("table", "json"), default="table")
    p_ver.set_defaults(func=cmd_verify)

    if config_defaults:
        # subparsers parse into a fresh namespace, so defaults must live there;
        # a key that no option of the chosen subcommand takes fails the run
        for p in (p_eigen, p_scan, p_bif, p_prof, p_ver):
            p.set_defaults(**config_defaults)
            options = {action.dest for action in p._actions}
            stray = [key for key in config_defaults if key not in options]
            if stray:
                p.set_defaults(func=functools.partial(_reject_config_key, stray[0], p.prog))
    return parser


def _reject_config_key(key: str, prog: str, args):
    raise ValueError(f"--config key {key!r} is not an option of {prog}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)

    # config file supplies defaults; explicit flags win
    pre = argparse.ArgumentParser(prog="cylbif", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    config_path = pre.parse_known_args(argv)[0].config
    config = None
    if config_path is not None:
        try:
            config = _load_config(config_path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    parser = build_parser(config)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
