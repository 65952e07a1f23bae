"""Zero counts, zeros and discrete moments on width-2 windows.

By default, for every seed, the heights H are those of the `window-high`
workload (perfbench/workloads.make_inputs, read only); --heights gives H
directly, and --band LO HI STEP gives H = LO, LO + STEP, ... below HI
(the seed field is then null). Each window runs find_zeros(0, H, H+2) and
discrete_moment(4, .) and writes one JSON line: seed, H, the zeros and the
moment, or the error it raised. With --nzeros each line also carries
mpmath's count nzeros(H+2) - nzeros(H).

Two such files, from two checkouts, are compared with --compare: it prints
the windows whose counts or errors differ, the largest zero shift and the
largest relative moment change, and exits 1 if a count or error differs.

Usage:
    PYTHONPATH=src python3 scripts/window_parity.py --seeds 1-60 206 813 > a.jsonl
    PYTHONPATH=src python3 scripts/window_parity.py --band 1000 10000 45 --nzeros > b.jsonl
    python3 scripts/window_parity.py --compare a.jsonl b.jsonl
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))


def seed_list(specs: list[str]) -> list[int]:
    """Seeds from items like '7' and '1-60'."""
    out = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def benchmark_windows(seeds: list[int]) -> list[tuple[int, float]]:
    """(seed, H) for the window heights of `window-high` at each seed."""
    from workloads import make_inputs

    return [(seed, h) for seed in seeds for h in make_inputs("window-high", seed)["jobs"][0]["heights"]]


def band_heights(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ... below hi."""
    return [lo + i * step for i in range(int((hi - lo) / step) + 1) if lo + i * step < hi]


def run(windows: list[tuple[int | None, float]], nzeros: bool) -> None:
    import mpmath
    from workloads import WINDOW_WIDTH

    from hzml.errors import DomainError, NumericalAlarm
    from hzml.moments import discrete_moment, find_zeros

    for seed, h in windows:
        row = {"seed": seed, "H": h}
        try:
            zl = find_zeros(0, h, h + WINDOW_WIDTH)
            row["zeros"] = list(zl.zeros)
            row["moment"] = discrete_moment(4, zl)
        except (NumericalAlarm, DomainError) as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        if nzeros:
            row["nzeros"] = int(mpmath.nzeros(h + WINDOW_WIDTH) - mpmath.nzeros(h))
        print(json.dumps(row), flush=True)


def compare(path_a: str, path_b: str) -> int:
    def load(path):
        rows = [json.loads(line) for line in Path(path).read_text().splitlines() if line]
        return {(r["seed"], r["H"]): r for r in rows}

    a, b = load(path_a), load(path_b)
    if a.keys() != b.keys():
        print(f"window sets differ: {len(a)} against {len(b)}")
        return 1
    differ = 0
    zero_shift = moment_rel = 0.0
    for key, ra in a.items():
        rb = b[key]
        if ra.get("error") != rb.get("error") or len(ra.get("zeros", [])) != len(rb.get("zeros", [])):
            differ += 1
            print(f"seed {key[0]} H {key[1]}: {ra.get('error') or len(ra['zeros'])} "
                  f"against {rb.get('error') or len(rb['zeros'])}")
            continue
        if "error" in ra:
            continue
        for za, zb in zip(ra["zeros"], rb["zeros"]):
            zero_shift = max(zero_shift, abs(za - zb))
        if ra["moment"] != rb["moment"]:
            moment_rel = max(moment_rel, abs(ra["moment"] - rb["moment"]) / abs(rb["moment"]))
    off = [r for r in b.values() if "nzeros" in r and len(r.get("zeros", [])) != r["nzeros"]]
    print(f"{len(a)} windows, {differ} with a different count or error; "
          f"max zero shift {zero_shift:.3e}, max relative moment change {moment_rel:.3e}")
    if any("nzeros" in r for r in b.values()):
        print(f"{len(off)} windows of the second file miss mpmath's count")
    return 1 if differ else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", nargs="+", default=["1-60"], help="seeds or ranges like 1-60")
    where = ap.add_mutually_exclusive_group()
    where.add_argument("--heights", nargs="+", type=float, metavar="H", help="window heights")
    where.add_argument("--band", nargs=3, type=float, metavar=("LO", "HI", "STEP"),
                       help="window heights LO, LO + STEP, ... below HI")
    ap.add_argument("--nzeros", action="store_true", help="also count zeros with mpmath")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two outputs")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.heights or args.band:
        heights = args.heights or band_heights(*args.band)
        windows = [(None, h) for h in heights]
    else:
        windows = benchmark_windows(seed_list(args.seeds))
    run(windows, args.nzeros)
    return 0


if __name__ == "__main__":
    sys.exit(main())
