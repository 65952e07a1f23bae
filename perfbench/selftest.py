"""Self-test of the benchmark at toy sizes (T ~ 200, T ~ 1000 for cmoment,
three windows).

    python3 perfbench/selftest.py

Run from the root of a checkout. It checks that

- every run prints each metric named in BENCHMARK.json exactly once, with
  its unit, in the readable report and in the JSON line, for every
  workload with and without tracing;
- a corrupted result trips the matching correctness check: a zero dropped
  from a window's zero list, a perturbed discrete or continuous moment, a
  ratio outside its window, a zero moved off its bracket;
- ``hzml cmoment`` gives the same bits with workers=1 and workers=2;
- the traced counts repeat exactly when a run is repeated.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def toy_run(workload: str, trace: int) -> list[str] | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    expect(proc.returncode == 0, f"{workload} --trace {trace} exits 0 {proc.stderr[-500:]}")
    return proc.stdout.strip().splitlines() if proc.returncode == 0 else None


def metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            lines = toy_run(workload, trace)
            if lines is None:
                continue
            result = json.loads(lines[-1])
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{label} JSON line has every {key} metric with its unit")
            report = [ln.split() for ln in lines[:-1] if ln.startswith("# ")]
            printed = [(words[1], words[-1]) for words in report if len(words) == 4]
            expect(all(printed.count((n, u)) == 1 for n, u in wanted.items()),
                   f"{label} report prints each metric once with its unit")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label} is correct with no failures")
            if trace:
                again = toy_run(workload, trace)
                if again is not None:
                    counts = [{k: v["value"] for k, v in json.loads(r[-1])["metrics"].items()
                               if v["unit"] == "count"} for r in (lines, again)]
                    expect(counts[0] == counts[1], f"{label} counts repeat exactly")


def corrupted_results() -> None:
    inputs = workloads.make_inputs("window-high", 7, toy=True)
    runner = workloads.Runner("window-high")
    job = inputs["jobs"][0]
    output = runner.run(job)
    samples = runner.samples(job, output, [0.0, 0.5, 0.99])
    problems, gaps = oracles.check("window-high", job, output, samples)
    expect(not problems and len(gaps) == len(samples), "toy windows pass their checks")

    i = next(k for k, w in enumerate(output["windows"]) if w["zeros"])
    dropped = json.loads(json.dumps(output))
    dropped["windows"][i]["zeros"].pop()
    problems, _ = oracles.check("window-high", job, dropped, [])
    expect(i in problems, "a zero dropped from a window's zero list trips the count check")

    w = samples[0]["window"]
    bumped = json.loads(json.dumps(output))
    bumped["windows"][w]["moment"] *= 1 + 1e-6
    problems, _ = oracles.check("window-high", job, bumped, samples)
    expect(w in problems, "a perturbed discrete moment trips the mpmath moment check")

    inputs = workloads.make_inputs("cmoment-T2k", 7, toy=True)
    job = inputs["jobs"][0]
    one = workloads.cli_job(workloads.cmoment_argv(job["T"], workers=1))
    two = workloads.cli_job(workloads.cmoment_argv(job["T"], workers=2))
    expect(one == two and one["rc"] == 0, "cmoment gives the same bits with workers=1 and 2")
    problem, _ = oracles.check("cmoment-T2k", job, two, [])
    expect(problem is None, "toy cmoment passes its check")
    report = json.loads(two["text"])
    report["value"] *= 1.05
    problem, _ = oracles.check("cmoment-T2k", job, {"rc": 0, "text": json.dumps(report)}, [])
    expect(problem is not None, "a continuous moment 5% off trips the criterion-05 check")

    inputs = workloads.make_inputs("verify-T2k", 7, toy=True)
    job = inputs["jobs"][0]
    runner = workloads.Runner("verify-T2k")
    output = runner.run(job)
    samples = runner.samples(job, output, inputs["samples"])
    problem, _ = oracles.check("verify-T2k", job, output, samples)
    expect(problem is None, "toy verify passes its checks")
    report = json.loads(output["text"])
    report["ratio"] = 1.5
    problem, _ = oracles.check("verify-T2k", job, {"rc": 0, "text": json.dumps(report)}, samples)
    expect(problem is not None, "a ratio outside [0.75, 1.25] trips the criterion-08 check")
    moved = [dict(samples[0], t=samples[0]["t"] + 1e-6)]
    problem, _ = oracles.check("verify-T2k", job, output, moved)
    expect(problem is not None, "a zero moved off its bracket trips the sign-change check")


def main() -> int:
    corrupted_results()
    metric_names()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
