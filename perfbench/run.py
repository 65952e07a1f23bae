"""hzml benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-T2k --seed 1 --seconds 23 --trace 0

Run from the root of a checkout that holds ``src/hzml``. The run

1. generates the workload's inputs from the seed (``workloads.py``);
2. times ``import hzml`` plus its first-use caches in several fresh
   interpreters (``setup_s`` is their median);
3. runs the workload closed-loop in a fresh worker interpreter for the
   given seconds, with tracing off;
4. with ``--trace 1``, runs the same inputs again in a second worker with
   the span recorder installed (``tracer.py``), and reports the per-layer
   metrics and the tracing overhead;
5. checks every distinct output against mpmath (``oracles.py``);
6. prints a readable report, then one JSON line with the metrics named in
   BENCHMARK.json: the end-to-end ones with ``--trace 0``, the per-layer
   ones with ``--trace 1``.

A job (or window) that raises or fails its check counts as failed. The
run is ``correct`` when some job succeeded, repeated jobs gave identical
outputs, and the traced run reproduced the untraced outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5
DEADLINE_S = 170.0
ORACLE_RESERVE_S = 20.0
TAIL_BEYOND = 10
# per-layer counts depend only on the inputs and come from the first job;
# every other per-layer value is the median over the traced jobs
COUNT_KEYS = {
    "zetacore.points", "hardyz.calls", "hardyz.points", "hardyz.points_per_call",
    "moments.scan.points", "moments.scan.points_per_zero", "moments.refine.rounds",
    "moments.refine.points", "moments.refine.points_per_zero", "moments.census.doublings",
    "moments.census.margin", "moments.discrete.points", "moments.quad.rounds",
    "moments.quad.panels", "moments.quad.points", "moments.quad.evals_per_panel",
}
# per-layer times of phases that some workload never enters (zero there);
# reported but kept out of the JSON line
REPORT_ONLY = (
    ("moments.scan.s", "s"), ("moments.refine.s", "s"), ("moments.discrete.s", "s"),
    ("moments.quad.s", "s"), ("coeffs.breakdown_s", "s"), ("thetaroots.roots_s", "s"),
    ("cli.self_s", "s"),
)


def _child(spec: dict, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(spec), capture_output=True, text=True,
        timeout=max(timeout, 1.0), env=env, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when that percentile would not even
    reach the median."""
    xs = sorted(values)
    n = len(xs)
    if n > 2 * TAIL_BEYOND:
        return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return xs[-1], 100.0


def _outputs_equal(workload: str, a: dict, b: dict) -> bool:
    if workload != "window-high":
        return a == b
    strip = [[{k: v for k, v in w.items() if k != "s"} for w in o["windows"]] for o in (a, b)]
    return strip[0] == strip[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class Outcome:
    """Failures and oracle gaps of one worker run."""

    def __init__(self, inputs: dict, run: dict):
        workload = inputs["workload"]
        self.notes: list[str] = []
        self.gaps: list[float] = []
        self.deterministic = True
        first: dict[int, dict] = {}
        for d in run["jobs"]:
            ref = first.setdefault(d["job"], d["output"])
            if not _outputs_equal(workload, ref, d["output"]):
                self.deterministic = False
                self.notes.append(f"job {d['job']} gave a different output when repeated")
        problems: dict[int, object] = {}
        for i, out in first.items():
            problem, gaps = oracles.check(workload, inputs["jobs"][i], out, run["samples"][str(i)])
            problems[i] = problem
            self.gaps.extend(gaps)
        if workload == "window-high":
            self.attempted = sum(len(d["output"]["windows"]) for d in run["jobs"])
            self.failed = sum(len(problems[d["job"]]) for d in run["jobs"])
            for i, bad in problems.items():
                self.notes.extend(f"window {w} of job {i} failed: {msg}" for w, msg in sorted(bad.items()))
        else:
            self.attempted = len(run["jobs"])
            self.failed = sum(1 for d in run["jobs"] if problems[d["job"]])
            self.notes.extend(f"job {i} failed: {msg}" for i, msg in problems.items() if msg)


def latencies(workload: str, run: dict) -> list[float]:
    if workload == "window-high":
        return [w["s"] for d in run["jobs"] for w in d["output"]["windows"]]
    return [d["s"] for d in run["jobs"]]


def end_to_end(inputs: dict, setups: list[dict], run: dict, outcome: Outcome) -> tuple[dict, str]:
    lat = latencies(inputs["workload"], run)
    tail_value, tail_pct = tail(lat)
    worst = max(outcome.gaps) if outcome.gaps else math.inf
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "solve_s": statistics.median(d["s"] for d in run["jobs"]),
        "window_s.p50": statistics.median(lat),
        "window_s.tail": tail_value,
        "agree_digits": -math.log10(worst) if worst > 0 else 17.0,
        "ok_share": 1.0 - outcome.failed / outcome.attempted,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    note = (f"window_s.tail is p{tail_pct:.1f} of {len(lat)} samples; "
            f"agree_digits from {len(outcome.gaps)} sample points")
    return metrics, note


def per_layer(setups: list[dict], plain: dict, traced: dict, outcome: Outcome) -> dict:
    layers = traced["layers"]
    out = {}
    for key in layers[0]:
        out[key] = layers[0][key] if key in COUNT_KEYS else statistics.median(l[key] for l in layers)
    out.update(traced["probe"])
    out["zetacore.stieltjes_s"] = statistics.median(s["stieltjes_s"] for s in setups)
    out["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    out["thetaroots.roots_s"] = statistics.median(s["roots_s"] for s in setups)
    out["failed_share"] = outcome.failed / outcome.attempted
    plain_s = statistics.median(d["s"] for d in plain["jobs"])
    traced_s = statistics.median(d["s"] for d in traced["jobs"])
    out["trace.overhead"] = traced_s / plain_s - 1.0
    return out


def _fmt(name: str, value: float, unit: str) -> str:
    return f"# {name:34s} {value!r} {unit}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="toy sizes, for the self-test")
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "hzml" / "__init__.py").is_file():
        sys.stderr.write(f"no hzml sources under {ROOT / 'src'}; run from a checkout of the repository\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    inputs = workloads.make_inputs(args.workload, args.seed, toy=args.toy)
    setups = [_child({"mode": "setup", "k": inputs["k"]}, 60.0) for _ in range(SETUP_RUNS)]

    def budget() -> float:
        return DEADLINE_S - ORACLE_RESERVE_S - (time.perf_counter() - started)

    run_spec = {"mode": "run", "inputs": inputs, "seconds": args.seconds, "trace": False}
    plain = _child(run_spec, budget() / (2 if args.trace else 1))
    traced = None
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.json"
        traced = _child(dict(run_spec, trace=True, spans_path=str(spans_path)), budget())

    outcome = Outcome(inputs, plain)
    reproduced = traced is None or all(
        _outputs_equal(args.workload, plain_job["output"], traced_job["output"])
        for plain_job, traced_job in zip(plain["jobs"], traced["jobs"])
    )
    if not reproduced:
        outcome.notes.append("the traced run changed an output")
    correct = outcome.deterministic and reproduced and outcome.failed < outcome.attempted

    versions = setups[0]["versions"]
    print(f"# hzml benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}{' toy' if args.toy else ''}")
    print(f"# machine: nproc={os.cpu_count()} cpu={_cpu_model()} " +
          " ".join(f"{k}={v}" for k, v in versions.items()))
    print(f"# inputs: {json.dumps(inputs['jobs'])}")
    print(f"# {outcome.attempted} attempted, {outcome.failed} failed "
          f"(failed_share {outcome.failed / outcome.attempted!r} share), "
          f"{len(plain['jobs'])} jobs in {plain['measured_s']:.2f} s")
    print(f"# job seconds: {[round(d['s'], 4) for d in plain['jobs']]}; "
          f"set-up seconds: {[round(s['setup_s'], 4) for s in setups]}")
    for note in outcome.notes:
        print(f"# FAIL {note}")

    if args.trace:
        values = per_layer(setups, plain, traced, outcome)
        wanted = spec["per_layer"]
        print(f"# per-layer metrics, {len(traced['jobs'])} traced jobs, "
              f"{traced['span_count']} spans written to {spans_path.relative_to(ROOT)}")
        for name, unit in REPORT_ONLY:
            print(_fmt(name, values[name], unit))
    else:
        values, note = end_to_end(inputs, setups, plain, outcome)
        wanted = spec["end_to_end"]
        print(f"# {note}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(_fmt(name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
