"""Command-line front end.

Subcommands: theta-roots, zeros, moment (alias verify), cmoment, coeff,
identities. Reports are JSON by default (top-level "schema": "1", every float
at 17 significant digits; moment/verify and coeff print the fields of their
report dataclass in declaration order); `zeros --csv` emits the zeros table
instead.
Output is byte-identical across runs: no timestamps, no environment echoes,
deterministic numerics underneath. Nothing is threaded. `--workers N` is
still accepted (a positive int) and has no effect: the benchmark's
workloads (perfbench/workloads.py) still pass it.

Exit codes: 0 success, 2 validation error (bad flags or domain
preconditions), 3 numerical alarm (census failure, branch error,
imaginary leak, lost convergence); alarms print a one-line JSON
diagnostic to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .coeffs import breakdown, identity_sweep
from .errors import DomainError, NumericalAlarm, PoleProximityError
from .moments import (
    _check_quadrature_args,
    continuous_moment,  # noqa: F401  perfbench/tracer.py wraps cli.continuous_moment
    find_zeros,
    hall_prediction,
    moment_report,
    quadrature_report,
)
from .thetaroots import trunc_exp_roots


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _render_json(value, out: list[str]) -> None:
    if isinstance(value, dict):
        out.append("{")
        for i, (key, v) in enumerate(value.items()):
            if i:
                out.append(",")
            out.append(f'"{key}":')
            _render_json(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(",")
            _render_json(v, out)
        out.append("]")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, float):
        out.append(_fmt_float(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif value is None:
        out.append("null")
    else:
        escaped = str(value).replace("\\", "\\\\").replace('"', '\\"')
        out.append(f'"{escaped}"')


def render_json(payload: dict) -> str:
    parts: list[str] = []
    _render_json(payload, parts)
    return "".join(parts) + "\n"


def _complex_pair(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_theta_roots(args) -> dict:
    ts = trunc_exp_roots(args.k)
    return {
        "schema": "1",
        "command": "theta-roots",
        "k": ts.k,
        "roots": [_complex_pair(z) for z in ts.roots],
        "residuals": list(ts.residuals),
        "power_sums": {str(u): ts.power_sums[u] for u in sorted(ts.power_sums)},
        "exp_factors": [_complex_pair(z) for z in ts.exp_factors],
    }


def _cmd_zeros(args):
    zl = find_zeros(args.k, args.t_min, args.t_max, args.density)
    if args.csv:
        lines = ["index,gamma,bracket_width"]
        for i, (z, w) in enumerate(zip(zl.zeros, zl.bracket_widths)):
            lines.append(f"{i},{format(z, '.17g')},{format(w, '.17g')}")
        return "\n".join(lines) + "\n"
    return {
        "schema": "1",
        "command": "zeros",
        "k": zl.k,
        "t_lo": zl.t_lo,
        "t_hi": zl.t_hi,
        "density": zl.scan_density,
        "n": len(zl.zeros),
        "zeros": list(zl.zeros),
        "bracket_widths": list(zl.bracket_widths),
    }


def _cmd_moment(args) -> dict:
    r = moment_report(args.j, args.k, args.t_max, args.density)
    return {"schema": "1", "command": args.command, **dataclasses.asdict(r)}


def _cmd_cmoment(args) -> dict:
    # both sides validate their arguments before the integral runs
    _check_quadrature_args(args.j, args.t_max, args.tol)
    hall = hall_prediction(args.j, args.t_max)
    q = quadrature_report(args.j, args.t_max, args.tol)
    return {
        "schema": "1",
        "command": "cmoment",
        "j": args.j,
        "T": args.t_max,
        "value": q.value,
        "hall": hall,
        "ratio": q.value / hall if hall != 0.0 else math.inf,
        "error_estimate": q.error_estimate,
        "panels": q.panels,
        "evaluations": q.evaluations,
    }


def _cmd_coeff(args) -> dict:
    mode = "asymptotic" if args.asymptotic else "finite"
    if mode == "finite" and args.T is None:
        raise DomainError("coeff needs --T in finite mode (or pass --asymptotic)")
    b = breakdown(args.j, args.k, args.T, mode)
    return {"schema": "1", "command": "coeff", **dataclasses.asdict(b)}


def _cmd_identities(args) -> dict:
    reports = identity_sweep(args.j_max, args.k_max)
    flagged = []
    for r in reports:
        tol = 0.0 if r.name in ("combi_sum", "first_term_sum") else 1e-10 * (
            1.0 + abs(r.rhs)
        )
        if r.abs_gap > tol:
            flagged.append(
                {
                    "name": r.name,
                    "params": dict(r.params),
                    "lhs": r.lhs,
                    "rhs": r.rhs,
                    "abs_gap": r.abs_gap,
                }
            )
    return {
        "schema": "1",
        "command": "identities",
        "j_max": args.j_max,
        "k_max": args.k_max,
        "n_checked": len(reports),
        "nonzero_gaps": flagged,
    }


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return v


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hzml",
        description="Discrete and continuous moments of Hardy Z derivatives "
        "over zeros of higher derivatives, with the five-term prediction.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--csv", action="store_true", help="CSV table (zeros only)")
    common.add_argument("--out", metavar="PATH", help="write report to a file")
    # accepted for old command lines and perfbench/workloads.py; no effect
    common.add_argument("--workers", type=_positive_int, help=argparse.SUPPRESS)

    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta-roots", parents=[common],
                       help="root system of the truncated exponential")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("zeros", parents=[common], help="zeros of Z^(k)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t-min", type=float, default=2.0)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--density", type=int, default=6)

    p = sub.add_parser("moment", aliases=["verify"], parents=[common],
                       help="discrete moment over zeros of Z^(k), measured "
                       "against the five-term prediction")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--density", type=int, default=6)

    p = sub.add_parser("cmoment", parents=[common],
                       help="continuous moment of Z^(j) squared")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="relative budget on the summed panel error estimates")

    p = sub.add_parser("coeff", parents=[common],
                       help="five-term coefficient breakdown")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--asymptotic", action="store_true")

    p = sub.add_parser("identities", parents=[common],
                       help="combinatorial identity sweep")
    p.add_argument("--j-max", type=int, default=6)
    p.add_argument("--k-max", type=int, default=6)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.csv and args.command != "zeros":
        ap.error(f"--csv is only defined for the zeros table, not {args.command}")
    try:
        if args.command == "theta-roots":
            payload = _cmd_theta_roots(args)
        elif args.command == "zeros":
            payload = _cmd_zeros(args)
        elif args.command in ("moment", "verify"):
            payload = _cmd_moment(args)
        elif args.command == "cmoment":
            payload = _cmd_cmoment(args)
        elif args.command == "coeff":
            payload = _cmd_coeff(args)
        else:
            payload = _cmd_identities(args)
    except (DomainError, PoleProximityError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 2
    except NumericalAlarm as exc:
        diag = {"schema": "1", "alarm": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(render_json(diag))
        return 3
    text = payload if isinstance(payload, str) else render_json(payload)
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
