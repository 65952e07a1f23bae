"""Seeded inputs and job runners for the three hzml workloads.

Every workload is single-process and closed-loop: one job at a time, the
next one starting when the previous one returns. The program only ever
sees the generated heights; the seed stays with the benchmark.

verify-T2k   ``hzml verify --j 0 --k 1 --t-max T`` (workers=1) through
             ``hzml.cli.main``. Zero refinement is most of the time, so it
             shows refinement work (ROADMAP item 2) and no quadrature.
cmoment-T2k  ``hzml cmoment --j 0 --t-max T --workers 2``. No zero
             finding: it isolates the quadrature and its thread split
             (ROADMAP item 5).
window-high  width-2 windows at heights H in [20000, 48000]: each calls
             ``find_zeros(0, H, H+2)`` then ``discrete_moment(4, zl)``
             (workers=1). The per-point cost of the EM engine at large t
             dominates (ROADMAP items 3 and 4).

T is drawn from [1900, 2100] and the window heights from [20000, 48000],
one value per equal-width stratum, so every run covers its range evenly
and a run's median job sits near the middle whatever the seed.

``Runner`` executes inside the worker process and imports hzml lazily, so
the parent and the setup children control when hzml is first imported.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import time

T_RANGE = (1900.0, 2100.0)
# criterion 05's 2% holds from T = 1000 up; near T = 200 the main term of
# the continuous moment is about 3% off, so the toy cmoment runs at 1000
T_RANGE_TOY = {"verify-T2k": (190.0, 210.0), "cmoment-T2k": (990.0, 1010.0)}
H_RANGE = (20000.0, 48000.0)
WINDOW_WIDTH = 2.0
N_T_STRATA = 3
N_WINDOWS = 24
N_WINDOWS_TOY = 3
N_SAMPLES = {"verify-T2k": 6, "cmoment-T2k": 16, "window-high": 16}
N_PROBE = 32
PROBE_STEP = 0.05
WARM_T = 300.0
WARM_H = 20000.5

NAMES = ("verify-T2k", "cmoment-T2k", "window-high")


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    width = (hi - lo) / n
    return [round(lo + width * (i + rng.random()), 3) for i in range(n)]


def make_inputs(workload: str, seed: int, toy: bool = False) -> dict:
    """The workload's inputs as plain data, a pure function of (workload, seed).

    ``jobs`` lists the distinct jobs; the worker cycles through them.
    ``samples`` holds fractions in [0, 1) that pick the points the oracles
    check (zeros by rank, or heights in [2, T]).
    """
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "window-high":
        n = N_WINDOWS_TOY if toy else N_WINDOWS
        jobs = [{"heights": _strata(rng, *H_RANGE, n)}]
        k = 0
    else:
        low, mid, high = _strata(rng, *(T_RANGE_TOY[workload] if toy else T_RANGE), N_T_STRATA)
        # middle stratum first: then a run's median job is a middle-stratum
        # job for any number of jobs from 3 up
        jobs = [{"T": mid}, {"T": low}, {"T": high}]
        k = 1 if workload == "verify-T2k" else None
    samples = [rng.random() for _ in range(N_SAMPLES[workload])]
    return {"workload": workload, "seed": seed, "k": k, "jobs": jobs, "samples": samples}


def probe_heights(inputs: dict) -> list[float]:
    """A batch of points 0.05 apart at the median height the workload
    evaluates Z at, close enough to share one Euler-Maclaurin truncation,
    as the points of a scan or refinement batch do."""
    job = inputs["jobs"][0]
    centre = job["T"] / 2 if "T" in job else statistics.median(job["heights"])
    return [centre + PROBE_STEP * i for i in range(N_PROBE)]


def cli_job(argv: list[str]) -> dict:
    """Run ``hzml`` in-process: exit code, and stdout (stderr if it failed)."""
    from hzml import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "text": out.getvalue() if rc == 0 else err.getvalue()}


def verify_argv(T: float) -> list[str]:
    return ["verify", "--j", "0", "--k", "1", "--t-max", repr(T), "--workers", "1"]


def cmoment_argv(T: float, workers: int = 2) -> list[str]:
    return ["cmoment", "--j", "0", "--t-max", repr(T), "--workers", str(workers)]


class Runner:
    """Runs one workload's jobs in the worker and gathers oracle inputs.

    ``run(job)`` returns the job's output as plain data, and for a window
    sweep the per-window latencies. ``samples(job, output, fractions)``
    evaluates the program's Z^(j) at the points the oracles check; it runs
    after the timed loop.
    """

    def __init__(self, workload: str):
        from hzml import moments

        self.workload = workload
        self.moments = moments
        self._zeros: dict[float, tuple] = {}
        if workload == "verify-T2k":
            # keep each job's zero list for the sign-change oracle; the CLI
            # report does not carry the zeros
            original = moments.find_zeros_certified

            def keep(k, T, *args, **kwargs):
                zl, dev = original(k, T, *args, **kwargs)
                self._zeros[float(T)] = (zl.zeros, zl.bracket_widths)
                return zl, dev

            moments.find_zeros_certified = keep

    def warm(self) -> None:
        if self.workload == "verify-T2k":
            cli_job(verify_argv(WARM_T))
        elif self.workload == "cmoment-T2k":
            cli_job(cmoment_argv(WARM_T))
        else:
            self._window(WARM_H)

    def run(self, job: dict) -> dict:
        if self.workload == "verify-T2k":
            return cli_job(verify_argv(job["T"]))
        if self.workload == "cmoment-T2k":
            return cli_job(cmoment_argv(job["T"]))
        return {"windows": [self._window(h) for h in job["heights"]]}

    def _window(self, h: float) -> dict:
        from hzml.errors import DomainError, NumericalAlarm

        t0 = time.perf_counter()
        try:
            zl = self.moments.find_zeros(0, h, h + WINDOW_WIDTH)
            value = self.moments.discrete_moment(4, zl)
        except (NumericalAlarm, DomainError) as exc:
            return {"H": h, "s": time.perf_counter() - t0, "error": f"{type(exc).__name__}: {exc}"}
        return {"H": h, "s": time.perf_counter() - t0, "zeros": list(zl.zeros), "moment": value}

    def samples(self, job: dict, output: dict, fractions: list[float]) -> list[dict]:
        import numpy as np

        from hzml.hardyz import z_deriv_many

        if self.workload == "verify-T2k":
            if output["rc"] != 0:
                return []
            zeros, widths = self._zeros[float(job["T"])]
            picks = sorted({int(f * len(zeros)) for f in fractions})
            gammas = [zeros[i] for i in picks]
            ours = z_deriv_many(np.array(gammas), 0)
            return [{"t": g, "width": widths[i], "j": 0, "ours": float(v)}
                    for g, i, v in zip(gammas, picks, ours)]
        if self.workload == "cmoment-T2k":
            ts = [2.0 + f * (job["T"] - 2.0) for f in fractions]
            ours = z_deriv_many(np.array(ts), 0)
            return [{"t": t, "j": 0, "ours": float(v)} for t, v in zip(ts, ours)]
        windows = output["windows"]
        picks = sorted({int(f * len(windows)) for f in fractions})
        out = []
        for i in picks:
            zeros = windows[i].get("zeros", [])
            if zeros:
                ours = z_deriv_many(np.array(zeros), 4)
                out.extend({"t": g, "j": 4, "window": i, "ours": float(v)} for g, v in zip(zeros, ours))
        return out
