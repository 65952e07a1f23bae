"""Correctness checks for the benchmark's outputs, with oracles from mpmath.

They run in the parent process after the worker has exited, outside every
timed region. A failed check fails its job (or window); it is never
skipped.

verify-T2k   exit code 0; the measured/predicted ratio inside criterion
             08's window [0.75, 1.25]; at the sampled zeros gamma of Z',
             ``siegelz(derivative=1)`` changes sign across gamma +- 1e-9
             (the scan's bracket width).
cmoment-T2k  exit code 0; the value within 2% of T(log(T/2pi) + 2c_0 - 1)
             with c_0 = Euler's constant (criterion 05).
window-high  each window's zero count equals nzeros(H+2) - nzeros(H); on
             the sampled windows the discrete moment equals the sum of
             ``siegelz(gamma, derivative=4)^2`` over the program's zeros to
             a relative 1e-8.

Every sample point also yields the scaled gap |ours - mpmath| / (1 + |mpmath|)
between the program's Z^(j) and ``siegelz(t, derivative=j)``, which the
benchmark reports as ``agree_digits``. Above t = 1e4 the oracle calls
``mp.rs_z``, the Riemann-Siegel evaluator behind ``siegelz``, directly:
``siegelz`` falls back to its far slower zeta path there for derivative 4
(about 1.6 s a point against 0.2 s), and the two agree to 17 digits.
"""

from __future__ import annotations

import json
import math

import mpmath

BRACKET = 1e-9
RATIO_WINDOW = (0.75, 1.25)
CMOMENT_REL = 0.02
MOMENT_REL = 1e-8
ORACLE_DPS = 15
RS_MIN_T = 1e4


def _gap(ours: float, ref) -> float:
    return float(abs(mpmath.mpf(ours) - ref) / (1 + abs(ref)))


def _siegelz(t: float, j: int):
    if t > RS_MIN_T:
        return mpmath.mp.rs_z(mpmath.mpf(t), j)
    return mpmath.siegelz(mpmath.mpf(t), derivative=j)


def check_verify(job: dict, output: dict, samples: list[dict]) -> tuple[str | None, list[float]]:
    if output["rc"] != 0:
        return f"exit code {output['rc']}: {output['text'].strip()}", []
    ratio = json.loads(output["text"])["ratio"]
    gaps = []
    problems = []
    if not (isinstance(ratio, float) and RATIO_WINDOW[0] <= ratio <= RATIO_WINDOW[1]):
        problems.append(f"ratio {ratio} outside {list(RATIO_WINDOW)}")
    for s in samples:
        t = mpmath.mpf(s["t"])
        lo = mpmath.siegelz(t - BRACKET, derivative=1)
        hi = mpmath.siegelz(t + BRACKET, derivative=1)
        if lo * hi >= 0:
            problems.append(f"Z' keeps its sign across {s['t']!r} +- {BRACKET}")
        gaps.append(_gap(s["ours"], _siegelz(s["t"], s["j"])))
    return ("; ".join(problems) or None), gaps


def check_cmoment(job: dict, output: dict, samples: list[dict]) -> tuple[str | None, list[float]]:
    if output["rc"] != 0:
        return f"exit code {output['rc']}: {output['text'].strip()}", []
    T = job["T"]
    value = json.loads(output["text"])["value"]
    ref = T * (math.log(T / (2 * math.pi)) + 2 * float(mpmath.euler) - 1)
    problem = None
    if not (isinstance(value, float) and abs(value - ref) <= CMOMENT_REL * ref):
        problem = f"cmoment {value} not within {CMOMENT_REL:.0%} of {ref}"
    return problem, [_gap(s["ours"], _siegelz(s["t"], s["j"])) for s in samples]


def check_windows(job: dict, output: dict, samples: list[dict]) -> tuple[dict[int, str], list[float]]:
    """Window index -> problem, for the windows that fail."""
    problems: dict[int, str] = {}
    for i, w in enumerate(output["windows"]):
        if "error" in w:
            problems[i] = w["error"]
            continue
        expected = mpmath.nzeros(w["H"] + 2.0) - mpmath.nzeros(w["H"])
        if len(w["zeros"]) != expected:
            problems[i] = f"{len(w['zeros'])} zeros in ({w['H']}, {w['H'] + 2.0}], mpmath counts {expected}"
    gaps = []
    sums: dict[int, mpmath.mpf] = {}
    for s in samples:
        ref = _siegelz(s["t"], s["j"])
        gaps.append(_gap(s["ours"], ref))
        sums[s["window"]] = sums.get(s["window"], mpmath.mpf(0)) + ref * ref
    for i, ref_sum in sums.items():
        got = output["windows"][i]["moment"]
        if abs(got - ref_sum) > MOMENT_REL * abs(ref_sum):
            problems.setdefault(i, f"moment {got} differs from mpmath's {mpmath.nstr(ref_sum, 17)}")
    return problems, gaps


def check(workload: str, job: dict, output: dict, samples: list[dict]):
    with mpmath.workdps(ORACLE_DPS):
        if workload == "verify-T2k":
            return check_verify(job, output, samples)
        if workload == "cmoment-T2k":
            return check_cmoment(job, output, samples)
        return check_windows(job, output, samples)
