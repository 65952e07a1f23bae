"""Zero isolation, discrete and continuous moments, and the continuous-
moment prediction polynomial.

Zeros of Z^(k) sit in near-regular gaps 2 pi / log(t/2pi); the scanner
samples several points per expected gap with z_deriv_many and brackets
sign changes. Each bracket is refined on its own by safeguarded Newton
on z_pair_many, which gives Z^(k) and Z^(k+1) from one jet pass, and the
converged point is checked with the scan's evaluator at the ends of a
bracket of width 1e-9 around it (see _refine). A census against

    N(T) ~ (T/2pi) log(T/2pi) - T/2pi

guards against missed zeros (bound 10 + 2 log T), auto-doubling the
density up to three times before raising an alarm.

The continuous moment integrates Z^(j)(t)^2 over [2, T] with a 15-point
Gauss-Kronrod rule on panels no wider than half the local gap, plus one
fixed 64-point Gauss-Legendre rule on the awkward [0, 2] sliver. The
7-point Gauss rule embedded in the Kronrod nodes gives each panel an error
estimate |K15 - G7| from the same Z values, and one budget covers the
whole integral: the sum of the estimates must be at most tol times the
total, and only panels above their share of that budget are halved. The
prediction side is Hall's

    (1/(4^j(2j+1))) T P_{2j+1}(log(T/2pi)),
    P_{2j+1}(x) = W_{2j+1}(x) + (4j+2) sum_n C(2j,n)(-2)^n c_n W_{2j-n}(x),

with W_g(v) = sum_i (-1)^i (g!/(g-i)!) v^{g-i} and Stieltjes constants
c_n.

Everything here is bit-deterministic for any batch split: grids and
panels are built sequentially, each point's value depends only on the
point, each zero's refinement depends only on its own bracket, and merges
happen in fixed ascending order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import breakdown
from .errors import CompletenessAlarm, DomainError, QuadratureError
from .hardyz import (
    K_CAP,
    _check_leak,
    _z_core,
    map_chunks,
    window_log,
    z_deriv_many,
    z_pair_many,
)
from .zetacore import T_CAP, stieltjes

# Gauss-Kronrod 7/15 on [-1, 1] (QUADPACK qk15): the abscissae x_1..x_7 >= 0
# of the Kronrod rule with their weights, and the weights of the 7-point
# Gauss rule, whose nodes are x_1, x_3, x_5, x_7 = 0
_XK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
# (nodes, Kronrod weights, Gauss weights) in ascending node order; the Gauss
# nodes are nodes[1::2]
_GK15 = (
    np.array([-x for x in _XK[:-1]] + list(reversed(_XK))),
    np.array(_WK[:-1] + tuple(reversed(_WK))),
    np.array(_WG[:-1] + tuple(reversed(_WG))),
)
_GL64 = np.polynomial.legendre.leggauss(64)
_BRACKET_WIDTH = 1e-9
_NEWTON_STEP = 0.25 * _BRACKET_WIDTH
_MAX_DOUBLINGS = 3
_MAX_REFINE_ROUNDS = 14
# Bound on the panels one refinement round may evaluate: the first round at
# T_CAP has 127,039 panels, so even a round that halves every one of them
# fits, while a tol that no panel can meet stops here instead of doubling
# the panel count (and the memory) 14 times.
_MAX_PANELS = 1 << 18
# Bound on the points of one zero scan, checked before the grid is built:
# density 48, the census's deepest doubling from the default 6, needs
# ~3.4M points at T_CAP.
_MAX_SCAN_POINTS = 1 << 22
HALL_G_CAP = 20


@dataclass(frozen=True)
class ZeroList:
    k: int
    t_lo: float
    t_hi: float
    zeros: tuple[float, ...]
    bracket_widths: tuple[float, ...]
    scan_density: int


@dataclass(frozen=True)
class HallPolynomial:
    """P_{2j+1} in the monomial basis; coefficients[i] multiplies x^i."""

    j: int
    coefficients: tuple[float, ...]

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class MomentReport:
    """The measured moment against the prediction.

    max_imag_leak is the largest scaled imaginary residue |Im w| / (1 + |Re w|)
    of the Z^(j) values on the Euler-Maclaurin path (heights below 1e3). The
    Riemann-Siegel values above are real and count as 0; a non-finite value
    on either path still fails the guard with BranchError."""

    j: int
    k: int
    T: float
    measured: float
    predicted: float
    ratio: float
    n_zeros_used: int
    count_expected: float
    count_deviation: float
    max_imag_leak: float


def _local_gap_log(t: float) -> float:
    # clamp keeps the step finite below t = 2 pi where log(t/2pi) <= 0
    return max(math.log(t / (2.0 * math.pi)), 0.7)


def _neumaier(values) -> float:
    acc = 0.0
    comp = 0.0
    for v in values:
        s = acc + v
        if abs(acc) >= abs(v):
            comp += (acc - s) + v
        else:
            comp += (v - s) + acc
        acc = s
    return float(acc + comp)


def count_expected(T: float) -> float:
    """Main term of the zero count: (T/2pi) log(T/2pi) - T/2pi."""
    r = T / (2.0 * math.pi)
    return r * math.log(r) - r


def _final_bracket(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[a, b] around x with b - a <= 1e-9 exactly (x +- 5e-10 can round to
    a wider interval), kept inside the evaluator's domain."""
    a = np.maximum(x - 0.5 * _BRACKET_WIDTH, 2.0)
    b = np.minimum(a + _BRACKET_WIDTH, T_CAP)
    b = np.where(b - a > _BRACKET_WIDTH, np.nextafter(b, a), b)
    return a, b


def _refine(k, lo, hi, flo, fhi) -> tuple[np.ndarray, np.ndarray]:
    """Zeros and bracket widths for the sign-change brackets [lo, hi] of
    Z^(k), whose scan values are flo and fhi.

    Safeguarded Newton on z_pair_many, started at the regula-falsi point.
    Each round evaluates only the points still active; each point moves the
    end of its bracket that has the sign of Z^(k) at the new point, then
    takes the Newton step, or bisects if that step lies outside the bracket
    or does not halve the previous step. A point stops when its own step is
    at most 2.5e-10, so its result depends on its values alone. Stopped
    points are checked with z_deriv_many(., k), the scan's evaluator, at
    the ends of a bracket of width 1e-9 centred on the iterate; a point
    that fails the check goes back into the loop and bisects until its
    bracket is that narrow.
    """
    lo, hi = lo.copy(), hi.copy()
    sgn = np.sign(flo)
    x = lo - flo * (hi - lo) / (fhi - flo)
    step = hi - lo
    bisect = np.zeros(lo.size, dtype=bool)
    zeros = np.empty(lo.size)
    widths = np.empty(lo.size)
    active = np.arange(lo.size)
    stopped = active[:0]
    while active.size:
        xa = x[active]
        f, fp = z_pair_many(xa, k)
        same = np.sign(f) == sgn[active]
        lo[active] = np.where(same | (f == 0.0), xa, lo[active])
        hi[active] = np.where(same, hi[active], xa)
        la, ha = lo[active], hi[active]
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = xa - f / fp
        newton = (
            ~bisect[active]
            & (xn >= la)
            & (xn <= ha)
            & (np.abs(xn - xa) <= 0.5 * step[active])
        )
        x[active] = np.where(newton, xn, 0.5 * (la + ha))
        step[active] = np.abs(x[active] - xa)
        done = np.where(
            bisect[active], ha - la <= _BRACKET_WIDTH, step[active] <= _NEWTON_STEP
        )
        halved = active[done & bisect[active]]
        zeros[halved] = 0.5 * (lo[halved] + hi[halved])
        widths[halved] = hi[halved] - lo[halved]
        stopped = np.concatenate([stopped, active[done & ~bisect[active]]])
        active = active[~done]
        if active.size == 0 and stopped.size:
            pts, stopped = stopped, stopped[:0]
            a, b = _final_bracket(x[pts])
            v = z_deriv_many(np.concatenate([a, b]), k)
            va, vb = v[: pts.size], v[pts.size :]
            ok = (va * vb < 0.0) | (va == 0.0) | (vb == 0.0)
            zeros[pts[ok]] = 0.5 * (a[ok] + b[ok])
            widths[pts[ok]] = b[ok] - a[ok]
            active = pts[~ok]
            bisect[active] = True
            x[active] = 0.5 * (lo[active] + hi[active])
    return zeros, widths


def _check_scan_args(k: int, t_lo: float, t_hi: float, density: int) -> None:
    if not (0 <= k <= K_CAP):
        raise DomainError(f"k={k} outside 0..{K_CAP}")
    if not (2.0 <= t_lo < t_hi <= T_CAP):
        raise DomainError(f"need 2 <= t_lo < t_hi <= {T_CAP}")
    if density < 4:
        raise DomainError("density must be >= 4")
    # the grid step 2 pi / (log * density) is smallest at t_hi, so this
    # bounds the grid's length from above
    points = density * _local_gap_log(t_hi) * (t_hi - t_lo) / (2.0 * math.pi)
    if points > _MAX_SCAN_POINTS:
        raise DomainError(
            f"density {density} needs ~{points:.3g} scan points, above the bound "
            f"{_MAX_SCAN_POINTS}"
        )


def find_zeros(k: int, t_lo: float, t_hi: float, density: int = 6) -> ZeroList:
    """Zeros of Z^(k) on [t_lo, t_hi]: a sign scan at `density` points per
    expected gap, then safeguarded Newton inside each sign-change bracket.

    Every zero is the midpoint of a bracket of width at most 1e-9 across
    which z_deriv_many(., k) changes sign (width 0 where a scan point is an
    exact zero). The scan misses pairs of zeros closer than its step. A
    density whose grid would exceed 2^22 points raises DomainError.
    """
    _check_scan_args(k, t_lo, t_hi, density)

    grid = [t_lo]
    t = t_lo
    while t < t_hi:
        t += 2.0 * math.pi / (_local_gap_log(t) * density)
        grid.append(min(t, t_hi))
    pts = np.array(grid)
    vals = z_deriv_many(pts, k)

    exact_hits = [float(pts[i]) for i in np.nonzero(vals == 0.0)[0]]
    flip = np.nonzero((vals[:-1] * vals[1:]) < 0.0)[0]
    zeros, widths = _refine(k, pts[flip], pts[flip + 1], vals[flip], vals[flip + 1])

    found = list(zip(zeros, widths))
    found.extend((z, 0.0) for z in exact_hits)
    found.sort()
    return ZeroList(
        k=k,
        t_lo=float(t_lo),
        t_hi=float(t_hi),
        zeros=tuple(float(z) for z, _ in found),
        bracket_widths=tuple(float(w) for _, w in found),
        scan_density=density,
    )


def count_check(zl: ZeroList, T: float) -> float:
    """found_count - count_expected(T); the caller judges the bound."""
    return len(zl.zeros) - count_expected(T)


def count_bound(T: float) -> float:
    return 10.0 + 2.0 * math.log(T)


def find_zeros_certified(k: int, T: float, density: int = 6) -> tuple[ZeroList, float]:
    """Zeros of Z^(k) on (2, T] with the census guard, doubling the scan
    density up to three times before declaring the list incomplete."""
    d = density
    for _ in range(_MAX_DOUBLINGS + 1):
        zl = find_zeros(k, 2.0, T, d)
        dev = count_check(zl, T)
        if abs(dev) <= count_bound(T):
            return zl, dev
        d *= 2
    raise CompletenessAlarm(
        f"zero census off by {dev:+.1f} (bound {count_bound(T):.1f}) "
        f"for k={k}, T={T} even at density {d // 2}"
    )


def discrete_moment(j: int, zl: ZeroList) -> float:
    """sum over gamma in zl of Z^(j)(gamma)^2, compensated, ascending."""
    if not (0 <= j <= K_CAP):
        raise DomainError(f"j={j} outside 0..{K_CAP}")
    if not zl.zeros:
        return 0.0
    vals = z_deriv_many(np.array(zl.zeros), j)
    return _neumaier(v * v for v in vals)


def _panel_integrals(
    edges_lo: np.ndarray,
    edges_hi: np.ndarray,
    j: int,
    rule,
) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod value and error estimate |K - G| of Z^(j)^2 on each panel,
    for a rule (nodes, Kronrod weights, Gauss weights) whose Gauss nodes
    are nodes[1::2]."""
    nodes, wk, wg = rule
    half = 0.5 * (edges_hi - edges_lo)
    mids = 0.5 * (edges_hi + edges_lo)
    pts = (mids[:, None] + half[:, None] * nodes[None, :]).ravel()
    vals, leak = _z_core_batch(pts, j)
    _check_leak(leak)
    sq = (vals * vals).reshape(len(edges_lo), len(nodes))
    # fixed-length axis reductions keep panel values independent of the
    # panel count and batch split
    kronrod = half * np.sum(sq * wk[None, :], axis=1)
    gauss = half * np.sum(sq[:, 1::2] * wg[None, :], axis=1)
    return kronrod, np.abs(kronrod - gauss)


def _z_core_batch(pts, j):
    return map_chunks(lambda c: _z_core(c, j), pts)


@dataclass(frozen=True)
class QuadratureReport:
    """How continuous_moment computed its value.

    error_estimate is the sum of |K15 - G7| over the panels on [2, T] (the
    [0, 2] sliver has no estimate); panels is the final panel count,
    rounds the number of Kronrod passes over new panels, and evaluations
    the number of Z values, the sliver's 64 included."""

    value: float
    error_estimate: float
    tol: float
    panels: int
    rounds: int
    evaluations: int


def _panel_grid(T: float) -> tuple[np.ndarray, np.ndarray]:
    """Edges of the first-round panels on [2, T], each at most half the
    local zero gap wide."""
    edges = [2.0]
    t = 2.0
    while t < T:
        t += math.pi / _local_gap_log(t)
        edges.append(min(t, T))
    return np.array(edges[:-1]), np.array(edges[1:])


def _check_quadrature_args(j: int, T: float, tol: float) -> None:
    if not (0 <= j <= K_CAP):
        raise DomainError(f"j={j} outside 0..{K_CAP}")
    if not (0.0 < T <= T_CAP):
        raise DomainError(f"need 0 < T <= {T_CAP}")
    if not (0.0 < tol < math.inf):
        raise DomainError(f"need 0 < tol < inf, got {tol}")


def quadrature_report(j: int, T: float, tol: float = 1e-9) -> QuadratureReport:
    """Integral of Z^(j)(t)^2 over [0, T], with its error estimate and
    evaluation counts.

    Gauss-Kronrod 7/15 on panels of [2, T] no wider than half the local
    zero gap; one 64-point Gauss-Legendre rule covers [0, 2]. The result
    is accepted once the summed panel estimates sum |K15 - G7| are at most
    tol * |total|; until then every panel whose estimate exceeds its share
    tol * |total| / n_panels is halved, and only the new halves are
    evaluated. Every batch of Z values passes the branch check of
    z_deriv_many: a residue above 1e-8, or any non-finite value, raises
    BranchError. tol must be positive and finite; a round that would
    evaluate more than 2^18 panels, or a 15th round, raises
    QuadratureError.
    """
    _check_quadrature_args(j, T, tol)

    sliver_hi = min(T, 2.0)
    nodes, weights = _GL64
    half = 0.5 * sliver_hi
    vals, leak = _z_core(half + half * nodes, j)
    _check_leak(leak)
    sliver = float(half * np.dot(vals * vals, weights))
    evaluations = len(nodes)
    if T <= 2.0:
        return QuadratureReport(sliver, 0.0, tol, 0, 0, evaluations)

    new_lo, new_hi = _panel_grid(T)
    lo = hi = value = err = np.empty(0)
    for rounds in range(1, _MAX_REFINE_ROUNDS + 1):
        if len(new_lo) > _MAX_PANELS:
            raise QuadratureError(
                f"panel refinement needs {len(new_lo)} panels, above the bound {_MAX_PANELS}"
            )
        new_value, new_err = _panel_integrals(new_lo, new_hi, j, _GK15)
        evaluations += new_value.size * len(_GK15[0])
        lo, hi = np.concatenate([lo, new_lo]), np.concatenate([hi, new_hi])
        value = np.concatenate([value, new_value])
        err = np.concatenate([err, new_err])
        # fsum rounds the exact sum once, so neither the panel order nor
        # the batch split can change a bit
        total = math.fsum([sliver, *value])
        estimate = math.fsum(err)
        budget = tol * abs(total)
        if not (estimate <= budget):
            split = ~(err <= budget / len(lo))
            mid = 0.5 * (lo[split] + hi[split])
            new_lo = np.concatenate([lo[split], mid])
            new_hi = np.concatenate([mid, hi[split]])
            lo, hi, value, err = lo[~split], hi[~split], value[~split], err[~split]
            continue
        return QuadratureReport(total, estimate, tol, len(lo), rounds, evaluations)
    raise QuadratureError(
        f"panel refinement stalled with {len(new_lo)} panels outstanding"
    )


def continuous_moment(j: int, T: float, tol: float = 1e-9) -> float:
    """Integral of Z^(j)(t)^2 over [0, T]: the value of
    quadrature_report(j, T, tol), which documents the rule, the error
    budget and the errors raised."""
    return quadrature_report(j, T, tol).value


def hall_W(g: int, v: float) -> float:
    """W_g(v) = e^{-v} integral_0^{e^v} (log u)^g du in closed form."""
    if not (0 <= g <= HALL_G_CAP):
        raise DomainError(f"g={g} outside 0..{HALL_G_CAP}")
    acc = 0.0
    for i in range(g + 1):
        acc = acc * v + (-1) ** i * math.factorial(g) // math.factorial(g - i)
    return acc


def _w_coefficients(g: int) -> list[int]:
    """Integer coefficients of W_g; index i multiplies v^i."""
    return [
        (-1) ** (g - i) * math.factorial(g) // math.factorial(i) for i in range(g + 1)
    ]


def hall_polynomial(j: int) -> HallPolynomial:
    if not (0 <= j <= K_CAP):
        raise DomainError(f"j={j} outside 0..{K_CAP}")
    deg = 2 * j + 1
    coeffs = [0.0] * (deg + 1)
    for i, c in enumerate(_w_coefficients(deg)):
        coeffs[i] += float(c)
    for n in range(2 * j + 1):
        scale = (4 * j + 2) * math.comb(2 * j, n) * (-2) ** n * stieltjes(n)
        for i, c in enumerate(_w_coefficients(2 * j - n)):
            coeffs[i] += scale * c
    return HallPolynomial(j=j, coefficients=tuple(coeffs))


def hall_prediction(j: int, T: float) -> float:
    """T P_{2j+1}(log(T/2pi)) / (4^j (2j+1))."""
    poly = hall_polynomial(j)
    return T * poly(window_log(T)) / (4.0**j * (2 * j + 1))


def interlacing_report(
    zl_lo: ZeroList, zl_hi: ZeroList
) -> tuple[int, list[tuple[float, float, int]]]:
    """Count zeros of the higher derivative between consecutive zeros of
    the lower one; returns (n_gaps_checked, violations) where each
    violation is (gap_lo, gap_hi, count_inside)."""
    if zl_hi.k != zl_lo.k + 1:
        raise DomainError("need derivative orders k and k+1")
    gaps = list(zip(zl_lo.zeros[:-1], zl_lo.zeros[1:]))
    marks = np.array(zl_hi.zeros)
    violations = []
    for a, b in gaps:
        n = int(np.searchsorted(marks, b) - np.searchsorted(marks, a))
        if n != 1:
            violations.append((a, b, n))
    return len(gaps), violations


def moment_report(j: int, k: int, T: float, density: int = 6) -> MomentReport:
    """Measured discrete moment against the five-term finite-T prediction."""
    if not (0 <= j <= K_CAP):
        raise DomainError(f"j={j} outside 0..{K_CAP}")
    # the prediction's domain (T >= 100) is narrower than the census's:
    # check both before the census runs
    _check_scan_args(k, 2.0, T, density)
    predicted = breakdown(j, k, T, "finite").total
    zl, dev = find_zeros_certified(k, T, density)
    if zl.zeros:
        vals, leak = z_deriv_many(np.array(zl.zeros), j, return_diag=True)
        measured = _neumaier(v * v for v in vals)
    else:
        measured, leak = 0.0, 0.0
    return MomentReport(
        j=j,
        k=k,
        T=float(T),
        measured=measured,
        predicted=predicted,
        ratio=measured / predicted if predicted != 0.0 else math.inf,
        n_zeros_used=len(zl.zeros),
        count_expected=count_expected(T),
        count_deviation=dev,
        max_imag_leak=float(leak),
    )
