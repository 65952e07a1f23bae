"""Child process of the benchmark: one fresh interpreter per use.

Reads a JSON spec on stdin and prints one JSON result line on stdout.

mode "setup": time ``import hzml`` plus its first-use caches
    (``stieltjes_table()`` with its cross-check, and ``trunc_exp_roots(k)``
    when the workload has a root system), and report library versions.
mode "run": warm up, then run the workload's jobs back to back until the
    given number of seconds has passed (at least one job). Untraced, then
    evaluate the oracle sample points; traced, derive the per-layer metrics
    and time the zeta probe. Report the peak resident memory either way.

hzml must be importable, e.g. with PYTHONPATH=src.
"""

from __future__ import annotations

import json
import sys
import time


def setup(spec: dict) -> dict:
    t0 = time.perf_counter()
    import hzml
    from hzml import thetaroots, zetacore

    t1 = time.perf_counter()
    zetacore.stieltjes_table()
    t2 = time.perf_counter()
    if spec["k"]:
        thetaroots.trunc_exp_roots(spec["k"])
    t3 = time.perf_counter()

    import mpmath
    import numpy

    return {
        "setup_s": t3 - t0,
        "import_s": t1 - t0,
        "stieltjes_s": t2 - t1,
        "roots_s": t3 - t2 if spec["k"] else 0.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "hzml": hzml.__version__,
        },
    }


PROBE_ORDERS = (0, 1, 4)
PROBE_REPEATS = 3


def probe_zeta(heights: list[float]) -> dict[str, float]:
    """Microseconds per point of ``zeta_jets`` at jet orders 0, 1 and 4 on
    the workload's probe heights (median of a few repeats)."""
    import statistics

    import numpy as np

    from hzml import zetacore

    s = 0.5 + 1j * np.array(heights)
    out = {}
    for mu in PROBE_ORDERS:
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            zetacore.zeta_jets(s, mu)
            times.append(time.perf_counter() - t0)
        out[f"zetacore.us_per_point.mu{mu}"] = statistics.median(times) / len(heights) * 1e6
    return out


def run(spec: dict) -> dict:
    import resource

    import tracer as tracing
    import workloads

    inputs = spec["inputs"]
    runner = workloads.Runner(inputs["workload"])
    tracer = None
    if spec["trace"]:
        from hzml import cli, coeffs, hardyz, moments

        tracer = tracing.Tracer()
        tracer.install({"cli": cli, "moments": moments, "hardyz": hardyz, "coeffs": coeffs})
    runner.warm()

    jobs = inputs["jobs"]
    done = []
    marks = []
    start = time.perf_counter()
    while True:
        index = len(done) % len(jobs)
        marks.append(len(tracer.spans) if tracer else 0)
        span = tracer.open("bench.job") if tracer else None
        t0 = time.perf_counter()
        output = runner.run(jobs[index])
        done.append({"job": index, "s": time.perf_counter() - t0, "output": output})
        if span is not None:
            tracer.close(span)
            span["attrs"] = {"job": index, "run": len(done) - 1}
        if time.perf_counter() - start >= spec["seconds"]:
            break
    measured_s = time.perf_counter() - start

    result = {"jobs": done, "measured_s": measured_s}
    if tracer is not None:
        tracer.restore()
        marks.append(len(tracer.spans))
        result["layers"] = [
            tracing.layer_metrics(tracer.spans[a:b]) for a, b in zip(marks, marks[1:])
        ]
        result["span_count"] = len(tracer.spans)
        with open(spec["spans_path"], "w") as fh:
            json.dump(tracer.spans, fh)
        result["probe"] = probe_zeta(workloads.probe_heights(inputs))
    else:
        first = {}
        for d in done:
            first.setdefault(d["job"], d["output"])
        result["samples"] = {
            str(i): runner.samples(jobs[i], out, inputs["samples"]) for i, out in sorted(first.items())
        }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main() -> int:
    spec = json.loads(sys.stdin.read())
    result = setup(spec) if spec["mode"] == "setup" else run(spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
