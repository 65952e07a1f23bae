"""Phases reduced mod 2 pi: t log n for the Dirichlet terms, and theta(t).

Phases reach t log n ~ 5e5 radians, where a double product would already
lose ~|t log n| 1e-16. So every phase is taken in turns (units of 2 pi)
against one table of u = log n / 2 pi for n = 1..55,008, every n the strip
can ask for (_log_table), and reduced exactly (_reduce_turns): a phase is
within 2.3e-16 radians of t log n mod 2 pi in double, and 8e-18 in
longdouble, at every height up to the cap.

The table is built on first use in double-double (Dekker 1971), in chunks
of 4,096 n, in about 35 ms: with n = 2^e x, x in [1/sqrt 2, sqrt 2),
log n = e log 2 + 2 atanh((x - 1) / (x + 1)) from 23 terms of the atanh
series. Every row is the correctly rounded double, or exact split, of the
true value (tested against 40-digit decimal logs).

theta(t) takes the table at n = rint(t) (theta_reduced). Its Stirling
series, differentiated termwise, gives the jet of theta: 17-84 us a call
for orders 1-9 at one point, where chiomega.psi_jets takes 100-570 us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

# Double-double constants (hi, lo): the value rounded to double, and the rest
_LOG2 = (0.6931471805599453, 2.3190468138462996e-17)
_TWO_PI = (6.283185307179586, 2.4492935982947064e-16)
_INV_TWO_PI = (0.15915494309189535, -9.839338337591243e-18)
# (1 + log 2 pi) / 2 pi
_THETA_C = (0.4516621630061743, -2.7701111770925096e-17)

# 2 pi as hi + lo doubles with hi a multiple of 2^-15 (18 bits), so that hi
# times a multiple of 2^-36 below 1/2 in magnitude is exact
_TWO_PI_HI = float(np.rint(_TWO_PI[0] * 2.0**15) / 2.0**15)
_TWO_PI_LO = (_TWO_PI[0] - _TWO_PI_HI) + _TWO_PI[1]

# atanh(z) = z sum_i z^(2i) / (2i + 1); 23 terms reach 1e-33 for |z| <= 0.172
_ATANH_TERMS = 23
# n per step of the table build: its temporaries stay near 1 MB
_BUILD_CHUNK = 4096

# theta(t) = (t/2) log(t / 2 pi) - t/2 - pi/8 + sum_k b_k t^(1-2k), with
# b_k = (1 - 2^(1-2k)) |B_2k| / (4k (2k-1)); the next term, 127/(430080 t^7),
# is below 1.3e-19 for t >= 157, and its r-th derivative below 6e-16 of
# theta^(r) for r <= 9
_THETA_STIRLING = (1.0 / 48.0, 7.0 / 5760.0, 31.0 / 80640.0)


# Double-double arithmetic on arrays: a value is a pair (hi, lo) with
# |lo| <= ulp(hi) / 2, good to ~1e-32 relative.
def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    p = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_mul(xh, xl, yh, yl):
    p, e = _two_prod(xh, yh)
    return _two_sum(p, e + (xh * yl + xl * yh))


def _dd_add(xh, xl, yh, yl):
    s, e = _two_sum(xh, yh)
    return _two_sum(s, e + (xl + yl))


def _split(hi, lo):
    """(v_hi, v_lo, v) of the double-double v = hi + lo, |v| < 2: v rounded
    to a multiple of 2^-29 (at most 30 bits), the rest rounded to double,
    and v rounded to double. The format _reduce_turns takes."""
    v_hi = np.rint(hi * 2.0**29) / 2.0**29
    return v_hi, (hi - v_hi) + lo, hi


@dataclass(frozen=True)
class _LogTable:
    """Rows indexed n - 1: u = log n / 2 pi as _split's (u_hi, u_lo, u) and
    as the double-double u + u_tail, and log n as logn + logn_lo."""

    u_hi: np.ndarray
    u_lo: np.ndarray
    u: np.ndarray
    u_tail: np.ndarray
    logn: np.ndarray
    logn_lo: np.ndarray


@lru_cache(maxsize=1)
def _log_table() -> _LogTable:
    """The one table of log n / 2 pi (module docstring), built on first use."""
    # zetacore imports this module, so its truncation rule is read here
    from .zetacore import MU_CAP, T_CAP, _n_terms

    n_max = _n_terms(T_CAP, MU_CAP)
    inv_odd = [Fraction(1, 2 * i + 1) for i in range(_ATANH_TERMS)]
    coef = [(float(c), float(c - Fraction(float(c)))) for c in inv_odd]
    rows = np.empty((6, n_max))
    for lo in range(0, n_max, _BUILD_CHUNK):
        n = np.arange(lo + 1, min(lo + _BUILD_CHUNK, n_max) + 1, dtype=float)
        e = np.frexp(math.sqrt(2.0) * n)[1] - 1
        d = n - np.ldexp(1.0, e)
        s = n + np.ldexp(1.0, e)
        # z = d / s to double-double
        zh = d / s
        p, err = _two_prod(zh, s)
        z = _two_sum(zh, ((d - p) - err) / s)
        w = _dd_mul(*z, *z)
        acc = coef[-1]
        for c in reversed(coef[:-1]):
            acc = _dd_add(*_dd_mul(*acc, *w), *c)
        ah, al = _dd_mul(*z, *acc)
        logn = _dd_add(*_dd_mul(e.astype(float), 0.0, *_LOG2), 2.0 * ah, 2.0 * al)
        uh, ul = _dd_mul(*logn, *_INV_TWO_PI)
        rows[:, lo : lo + n.size] = (*_split(uh, ul), ul, *logn)
    rows.flags.writeable = False
    return _LogTable(*rows)


def _reduce_turns(t: np.ndarray, u_hi, u_lo, u) -> tuple[np.ndarray, np.ndarray]:
    """t u mod 1 as (x, corr), with x + corr the reduced value in turns;
    t broadcasts against (u_hi, u_lo, u), the split of u by _split.

    The reduction is exact in double arithmetic (Dekker's split): with
    t_hi = rint(128 t)/128, at most 23 bits since |t| <= T_CAP < 2^16, the
    product t_hi u_hi of at most 53 bits is exact, and so is x, its
    difference from the nearest integer: a multiple of 2^-36 in [-1/2, 1/2].
    What is left, corr = t_hi u_lo + t_lo u with t_lo = t - t_hi, is below
    0.01 turns and carries ~1e-18 turns of roundoff."""
    t_hi = np.rint(128.0 * t) / 128.0
    x = t_hi * u_hi
    x -= np.rint(x)
    corr = t_hi * u_lo
    corr += (t - t_hi) * u
    return x, corr


def _turns_to_radians(x: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """2 pi (x + corr) in double for x from _reduce_turns, rounded once: x times
    2pi_hi (a multiple of 2^-15 with 18 bits) is exact, and only the small
    rest is scaled by a rounded 2 pi. (Scaling x + corr by a double 2 pi
    rounds twice and adds an error proportional to x; at t ~ 2000 that made
    zeta on the line 2.5x less accurate.) Works in place: the result is x,
    and corr is overwritten."""
    corr *= 2.0 * math.pi
    corr += _TWO_PI_LO * x
    x *= _TWO_PI_HI
    x += corr
    return x


def _theta_split(n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v_hi, v_lo, v) of v = (log(n / 2 pi) - 1) / 2 pi, split by _split,
    for integers 1 <= n <= 55,008 given as doubles."""
    tab = _log_table()
    i = n.astype(int) - 1
    return _split(*_dd_add(tab.u[i], tab.u_tail[i], -_THETA_C[0], -_THETA_C[1]))


def theta_reduced(t: np.ndarray) -> np.ndarray:
    """The Riemann-Siegel theta(t) mod 2 pi, in about [-pi - 1, pi + 1], for
    157 <= t <= T_CAP, to a few 1e-16 radians. With n = rint(t),

        theta(t) = (t/2) (log(n / 2 pi) - 1) + (t/2) log1p((t - n) / n)
                   - pi/8 + 1/(48 t) + 7/(5760 t^3) + 31/(80640 t^5) + ...,

    where the first term is reduced exactly (_theta_split, _reduce_turns);
    the rest, below 0.7 radians, joins its small part before the one
    scaling by 2 pi."""
    t = np.asarray(t, dtype=float)
    n = np.rint(t)
    x, corr = _reduce_turns(0.5 * t, *_theta_split(n))
    small = 0.5 * t * np.log1p((t - n) / n) - math.pi / 8.0
    for k, b in enumerate(_THETA_STIRLING, start=1):
        small += b * t ** (1 - 2 * k)
    return _turns_to_radians(x, corr + small / (2.0 * math.pi))


def theta_derivatives(t: np.ndarray, m: int) -> np.ndarray:
    """theta^(r)(t) for r = 1..m, shape (P, m), from the Stirling series
    differentiated termwise (valid for t >= 157)."""
    t = np.asarray(t, dtype=float)
    out = np.empty((t.shape[0], m))
    for r in range(1, m + 1):
        if r == 1:
            col = 0.5 * np.log(t / (2.0 * math.pi))
        else:
            col = (0.5 * (-1) ** r * math.factorial(r - 2)) * t ** (1 - r)
        for k, b in enumerate(_THETA_STIRLING, start=1):
            # d^r/dt^r t^(1-2k) = (1-2k)(-2k)...(2-2k-r) t^(1-2k-r)
            col = col + (b * (-1) ** r * math.perm(2 * k + r - 2, r)) * t ** (1 - 2 * k - r)
        out[:, r - 1] = col
    return out
