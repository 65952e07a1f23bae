"""Sweep the measured/predicted discrete-moment ratio over T.

Each row needs a full zero census of Z^(k) up to T, so the largest heights
dominate the runtime; T=2000 at default density is ~10s per pair.

Usage:
    python3 scripts/moment_trend.py --j 0 --k 1 --heights 500 1000 2000
"""

import argparse

from hzml.moments import moment_report


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--j", type=int, default=0, help="derivative order in the summand")
    ap.add_argument("--k", type=int, default=1, help="zeros of Z^(k) as sample points")
    ap.add_argument(
        "--heights", type=float, nargs="+", default=[500.0, 1000.0, 2000.0]
    )
    ap.add_argument("--density", type=int, default=6)
    args = ap.parse_args()

    print(f"# discrete moment of Z^({args.j}) over zeros of Z^({args.k})")
    print(f"{'T':>8} {'n_zeros':>8} {'measured':>16} {'predicted':>16} {'ratio':>8}")
    for T in args.heights:
        rep = moment_report(args.j, args.k, T, args.density)
        print(
            f"{T:8.0f} {rep.n_zeros_used:8d} {rep.measured:16.6f} "
            f"{rep.predicted:16.6f} {rep.ratio:8.4f}"
        )


if __name__ == "__main__":
    main()
