"""In-memory span recorder for the traced run, and the per-layer metrics
derived from its spans.

The recorder replaces module attributes of hzml that other hzml modules
look up at call time (for example ``moments.z_deriv_many`` or
``hardyz.zeta_jets``) with wrappers that open a span around the call. The
program itself is not modified; the wrappers live only in the traced
worker process and are removed by ``restore``.

A span is a dict with name, start, end, parent id, thread id and a few
count attributes taken from the call's arguments or result. Spans opened
on a pool thread with an empty stack take as parent the innermost open
span of the thread that created the tracer: the benchmark runs one job at
a time, so that span is the batched call that handed out the chunk.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import defaultdict

SELF_TIMED = ("cli", "moments", "hardyz", "chiomega", "zetacore")
KERNEL_LAYERS = ("zetacore", "chiomega")
HARDYZ_ENTRIES = ("hardyz.z_deriv_many", "hardyz.z_core")
BATCHED_CALLS = ("moments.z_core_batch", "hardyz.z_deriv_many")
DISCRETE_PARENTS = ("moments.moment_report", "moments.discrete_moment")
POOL_MIN_POINTS = 512  # batches this size or smaller run on the calling thread


def _size(a) -> int:
    return int(getattr(a, "size", None) or len(a))


def _arg(args, kwargs, index, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


# (module name, attribute, span name, attrs(args, kwargs, result) -> dict)
BOUNDARIES = (
    ("cli", "moment_report", "moments.moment_report", None),
    ("cli", "continuous_moment", "moments.continuous_moment", None),
    ("cli", "hall_prediction", "moments.hall_prediction", None),
    ("moments", "find_zeros_certified", "moments.census",
     lambda a, k, r: {"T": float(_arg(a, k, 1, "T", 0.0)), "deviation": float(r[1])}),
    ("moments", "find_zeros", "moments.find_zeros",
     lambda a, k, r: {"zeros": len(r.zeros)}),
    ("moments", "discrete_moment", "moments.discrete_moment",
     lambda a, k, r: {"points": len(_arg(a, k, 1, "zl", None).zeros)}),
    ("moments", "_panel_integrals", "moments.panel_integrals",
     lambda a, k, r: {"panels": _size(a[0]), "points": _size(a[0]) * _size(a[3][0])}),
    ("moments", "_z_core_batch", "moments.z_core_batch",
     lambda a, k, r: {"points": _size(a[0]), "workers": int(_arg(a, k, 2, "workers", 1))}),
    ("moments", "breakdown", "coeffs.breakdown", None),
    ("moments", "stieltjes", "zetacore.stieltjes", None),
    ("moments", "z_deriv_many", "hardyz.z_deriv_many",
     lambda a, k, r: {"points": _size(a[0]), "workers": int(_arg(a, k, 3, "workers", 1))}),
    ("moments", "_z_core", "hardyz.z_core", lambda a, k, r: {"points": _size(a[0])}),
    ("hardyz", "zeta_jets", "zetacore.zeta_jets",
     lambda a, k, r: {"points": _size(a[0]), "mu": int(_arg(a, k, 1, "mu_max", 0))}),
    ("hardyz", "omega_jets", "chiomega.omega_jets", None),
    ("hardyz", "phase_theta", "chiomega.phase_theta", None),
    ("coeffs", "trunc_exp_roots", "thetaroots.trunc_exp_roots", None),
)


class Tracer:
    """Records spans from any thread; ``install`` wraps the boundaries."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._home = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> dict:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks[tid]
            if stack:
                parent = stack[-1]
            else:
                home = self._stacks[self._home]
                parent = home[-1] if tid != self._home and home else None
            span = {"id": len(self.spans), "name": name, "parent": parent,
                    "thread": tid, "start": 0.0, "end": 0.0, "attrs": {}}
            self.spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
        return span

    def close(self, span: dict) -> None:
        end = time.perf_counter()
        with self._lock:
            span["end"] = end
            self._stacks[span["thread"]].pop()

    def wrap(self, module, attr: str, name: str, attrs=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def install(self, modules: dict) -> None:
        for mod, attr, name, attrs in BOUNDARIES:
            self.wrap(modules[mod], attr, name, attrs)
        self.wrap(modules["cli"], "main", "cli.main")

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def _covered(interval: tuple[float, float], children: list[dict]) -> float:
    """Length of the part of ``interval`` that the children's spans cover."""
    lo, hi = interval
    parts = sorted((max(c["start"], lo), min(c["end"], hi)) for c in children)
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in parts:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and times for the spans of one job.

    Counts depend only on the job's inputs, so they repeat exactly between
    runs of the same seed. Times are seconds of self time unless named
    otherwise.
    """
    by_id = {s["id"]: s for s in spans}
    kids = defaultdict(list)
    for s in spans:
        if s["parent"] in by_id:
            kids[s["parent"]].append(s)
    for v in kids.values():
        v.sort(key=lambda s: s["start"])
    # self time: duration minus the part of it that child spans cover
    layer_self = defaultdict(float)
    for s in spans:
        own = (s["end"] - s["start"]) - _covered((s["start"], s["end"]), kids[s["id"]])
        layer_self[layer_of(s["name"])] += own

    def named(name):
        return [s for s in spans if s["name"] == name]

    def dur(s):
        return s["end"] - s["start"]

    def ancestor(s, names):
        p = by_id.get(s["parent"])
        while p is not None:
            if p["name"] in names:
                return p
            p = by_id.get(p["parent"])
        return None

    m: dict[str, float] = {}
    for layer in SELF_TIMED:
        m[f"{layer}.self_s"] = layer_self[layer]

    zeta = named("zetacore.zeta_jets")
    m["zetacore.points"] = sum(s["attrs"]["points"] for s in zeta)

    entries = [s for s in spans if s["name"] in HARDYZ_ENTRIES]
    m["hardyz.calls"] = len(entries)
    m["hardyz.points"] = sum(s["attrs"]["points"] for s in entries)
    m["hardyz.points_per_call"] = _ratio(m["hardyz.points"], m["hardyz.calls"])

    # share of worker capacity spent in the numeric kernels during batched Z calls
    busy = capacity = 0.0
    batched = [s for s in spans if s["name"] in BATCHED_CALLS and ancestor(s, BATCHED_CALLS) is None]
    batched_ids = {s["id"] for s in batched}
    for s in batched:
        a = s["attrs"]
        capacity += dur(s) * (a["workers"] if a["workers"] > 1 and a["points"] > POOL_MIN_POINTS else 1)
    for s in spans:
        if layer_of(s["name"]) in KERNEL_LAYERS and ancestor(s, KERNEL_LAYERS) is None:
            top = ancestor(s, BATCHED_CALLS)
            if top is not None and top["id"] in batched_ids:
                busy += dur(s)
    m["hardyz.threads.busy_ratio"] = _ratio(busy, capacity)

    scan_pts = refine_pts = rounds = zeros = 0
    scan_s = refine_s = 0.0
    for fz in named("moments.find_zeros"):
        zcalls = [c for c in kids[fz["id"]] if c["name"] == "hardyz.z_deriv_many"]
        zeros += fz["attrs"]["zeros"]
        if not zcalls:
            continue
        scan_pts += zcalls[0]["attrs"]["points"]
        scan_s += zcalls[0]["end"] - fz["start"]
        refine_s += fz["end"] - zcalls[0]["end"]
        rounds += len(zcalls) - 1
        refine_pts += sum(c["attrs"]["points"] for c in zcalls[1:])
    m["moments.scan.points"] = scan_pts
    m["moments.scan.points_per_zero"] = _ratio(scan_pts, zeros)
    m["moments.scan.s"] = scan_s
    m["moments.refine.rounds"] = rounds
    m["moments.refine.points"] = refine_pts
    m["moments.refine.points_per_zero"] = _ratio(refine_pts, zeros)
    m["moments.refine.s"] = refine_s

    census = named("moments.census")
    m["moments.census.doublings"] = sum(
        sum(1 for c in kids[s["id"]] if c["name"] == "moments.find_zeros") - 1 for s in census
    )
    margins = [10.0 + 2.0 * math.log(s["attrs"]["T"]) - abs(s["attrs"]["deviation"]) for s in census]
    m["moments.census.margin"] = min(margins) if margins else 0.0

    discrete = [
        s for s in named("hardyz.z_deriv_many")
        if by_id.get(s["parent"], {}).get("name") in DISCRETE_PARENTS
    ]
    m["moments.discrete.points"] = sum(s["attrs"]["points"] for s in discrete)
    m["moments.discrete.s"] = sum((dur(s) for s in discrete), 0.0)

    quad_rounds = quad_panels = quad_points = panel_points = 0
    quad_s = 0.0
    for cm in named("moments.continuous_moment"):
        quad_s += dur(cm)
        panels = [c for c in kids[cm["id"]] if c["name"] == "moments.panel_integrals"]
        quad_rounds += len(panels) // 2  # each round integrates coarse and fine rules
        if panels:
            quad_panels += panels[0]["attrs"]["panels"]
        panel_points += sum(s["attrs"]["points"] for s in panels)
        quad_points += sum(
            s["attrs"]["points"] for s in entries
            if ancestor(s, ("moments.continuous_moment",)) is cm and ancestor(s, HARDYZ_ENTRIES) is None
        )
    m["moments.quad.rounds"] = quad_rounds
    m["moments.quad.panels"] = quad_panels
    m["moments.quad.points"] = quad_points
    m["moments.quad.evals_per_panel"] = _ratio(panel_points, quad_panels)
    m["moments.quad.s"] = quad_s

    m["coeffs.breakdown_s"] = sum((dur(s) for s in named("coeffs.breakdown")), 0.0)
    return m

