"""Hardy's Z and its derivatives on the critical line by the Riemann-Siegel
formula.

With a = sqrt(t / 2 pi), N = floor(a) and p = a - N,

    Z(t) = 2 sum_{n<=N} n^(-1/2) cos(theta(t) - t log n)
           + (-1)^(N-1) sum_{k=0}^{4} C_k(p) a^(-1/2-k) + O(a^(-11/2)),

where C_k are Gabcke's combinations of the derivatives of

    Psi(p) = cos 2 pi (p^2 - p - 1/16) / cos 2 pi p

(Gabcke 1979; Arias de Reyna, Math. Comp. 2011). Both parts are carried as
real jets in h at t + h with N held fixed, so one pass gives Z^(0..m)(t):
the main sum as 2 Re[E(h) S(h)], with S_a the order-a Dirichlet weights
(kappa - log n)^a / a! centred on kappa = theta'(t) and E(h) the jet of
exp(i (theta(t + h) - theta(t) - kappa h)), which starts at order 2; the
remainder by composing the Taylor series of C_k at p with the binomial
series of p(t + h) - p and a(t + h)^(-1/2-k) in h / t.

theta(t) and t log n enter the main sum at first order, so both are
reduced mod 2 pi in split double (zetacore._reduce_turns, as for the
Euler-Maclaurin phases). For theta, with n = rint(t),

    theta(t) = (t/2) (log(n / 2 pi) - 1) + (t/2) log1p((t - n) / n)
               - pi/8 + 1/(48 t) + 7/(5760 t^3) + 31/(80640 t^5) + ...,

and (log(n / 2 pi) - 1) / 2 pi, like log n / 2 pi for n <= 89, is rounded
once from a 40-digit decimal value before the split. The same Stirling
series, differentiated termwise, gives the jet of theta: 17-84 us a call
for orders 1-9 at one point, where chiomega.psi_jets would take 100-570 us,
more than the rest of the kernel.

Psi is even in x = p - 1/2 and entire; its Taylor series in x to degree 72
(_PSI_COEFFS) gives Psi^(e) for e <= 12 + 9 to double precision on
|x| <= 1/2. Every quantity is a function of the point alone, and the sums
over n run per truncation N, so a point's bits do not depend on the batch.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .zetacore import T_CAP, _reduce_turns, _turns_to_radians

# Taylor coefficients of Psi(1/2 + x) in x^0, x^2, ..., x^72: the series
# quotient -cos(2 pi (x^2 - 5/16)) / cos(2 pi x) at 80 digits (mpmath),
# rounded to double
_PSI_COEFFS = (
    0.3826834323650898,
    1.7489618723100817,
    2.118025207685496,
    -0.8707216670511481,
    -3.4733112243465167,
    -1.6626947308999325,
    1.216731288919232,
    1.3014304161007977,
    0.03051102182736167,
    -0.3755803051545095,
    -0.1085784416564066,
    0.051832902999549624,
    0.029999480619902277,
    -0.0022759396706125644,
    -0.004382647416580339,
    -0.0004064230183729847,
    0.0004006097785422114,
    8.971057991388841e-05,
    -2.3025650027239108e-05,
    -9.380006601906792e-06,
    6.323514947609108e-07,
    6.551022819231502e-07,
    2.210523745552697e-08,
    -3.322316176445629e-08,
    -3.734910989933656e-09,
    1.2445067060797738e-09,
    2.476820537650219e-10,
    -3.284272816891627e-11,
    -1.1305406852298404e-11,
    4.565463979588694e-13,
    3.9598480945249214e-13,
    7.849566221259617e-15,
    -1.1059043150991233e-14,
    -7.738543987641508e-16,
    2.4857755550271373e-16,
    3.0514797188827216e-17,
    -4.414297887793303e-18,
)

# C_k(p) = sum over (d, w) of w Psi^(d)(p), k = 0..4 (Gabcke)
_PI2 = math.pi**2
_C_TERMS = (
    ((0, 1.0),),
    ((3, -1.0 / (96.0 * _PI2)),),
    ((2, 1.0 / (64.0 * _PI2)), (6, 1.0 / (18432.0 * _PI2**2))),
    (
        (1, -1.0 / (64.0 * _PI2)),
        (5, -1.0 / (3840.0 * _PI2**2)),
        (9, -1.0 / (5308416.0 * _PI2**3)),
    ),
    (
        (0, 1.0 / (128.0 * _PI2)),
        (4, 19.0 / (24576.0 * _PI2**2)),
        (8, 11.0 / (5898240.0 * _PI2**3)),
        (12, 1.0 / (2038431744.0 * _PI2**4)),
    ),
)
_C_ORDER = 12  # highest Psi derivative in any C_k

# theta(t) = (t/2) log(t / 2 pi) - t/2 - pi/8 + sum_k b_k t^(1-2k), with
# b_k = (1 - 2^(1-2k)) |B_2k| / (4k (2k-1)); the next term, 127/(430080 t^7),
# is below 1e-28 for t >= 1e4
_THETA_STIRLING = (1.0 / 48.0, 7.0 / 5760.0, 31.0 / 80640.0)

_PI_DIGITS = "3.14159265358979323846264338327950288419716939937510582097494459"

# the jets go to order 9 = K_CAP + 1
_M_CAP = 9


def _falling(e: float, r: int) -> float:
    """e (e - 1) ... (e - r + 1)."""
    out = 1.0
    for i in range(r):
        out *= e - i
    return out


def _binomial_series(alpha: float, m: int) -> list[float]:
    """Coefficients of u^0..u^m in (1 + u)^alpha."""
    return [_falling(alpha, r) / math.factorial(r) for r in range(m + 1)]


def _psi_derivative_table() -> np.ndarray:
    """B[e, j]: Psi^(e)(1/2 + x) = sum_j B[e, j] y^j, times x for odd e,
    with y = x^2, for e = 0..12 + 9."""
    tab = np.zeros((_C_ORDER + _M_CAP + 1, len(_PSI_COEFFS)))
    for e in range(tab.shape[0]):
        for i, c in enumerate(_PSI_COEFFS):
            if 2 * i >= e:
                tab[e, i - (e + 1) // 2] = c * float(math.perm(2 * i, e))
    return tab


def _c_derivative_table() -> np.ndarray:
    """W[k, r, e]: C_k^(r) = sum_e W[k, r, e] Psi^(e), for r = 0..9."""
    tab = np.zeros((len(_C_TERMS), _M_CAP + 1, _C_ORDER + _M_CAP + 1))
    for k, terms in enumerate(_C_TERMS):
        for r in range(_M_CAP + 1):
            for d, w in terms:
                tab[k, r, d + r] = w
    return tab


def _remainder_tensor() -> np.ndarray:
    """T[k, r, l] / r!: the coefficient of u^l in (1 + u)^(-1/4 - k/2)
    times ((1 + u)^(1/2) - 1)^r, divided by r!, for k = 0..4 and
    r, l = 0..9."""
    m1 = _M_CAP + 1
    half = _binomial_series(0.5, _M_CAP)
    half[0] = 0.0
    powers = [[1.0] + [0.0] * _M_CAP]
    for _ in range(_M_CAP):
        prev = powers[-1]
        powers.append([sum(prev[i] * half[l - i] for i in range(l + 1)) for l in range(m1)])
    out = np.zeros((len(_C_TERMS), m1, m1))
    for k in range(len(_C_TERMS)):
        beta = _binomial_series(-0.25 - 0.5 * k, _M_CAP)
        for r in range(m1):
            for l in range(m1):
                out[k, r, l] = sum(beta[i] * powers[r][l - i] for i in range(l + 1))
            out[k, r] /= math.factorial(r)
    return out


_PSI_TABLE = _psi_derivative_table()
_C_TABLE = _c_derivative_table()
_REMAINDER = _remainder_tensor()


# N at the height cap: the main sums need log n for n <= 89
_N_MAX = math.isqrt(int(T_CAP / (2.0 * math.pi)))


def _split_turns(v: Decimal) -> tuple[float, float, float]:
    """(v_hi, v_lo, v) for zetacore._reduce_turns: v rounded to a multiple
    of 2^-29 (at most 30 bits for |v| < 2), the rest, and v rounded to
    double, from a 40-digit decimal v."""
    v_hi = (v * 2**29).to_integral_value() / 2**29
    return float(v_hi), float(v - v_hi), float(v)


def _two_pi() -> Decimal:
    return 2 * Decimal(_PI_DIGITS)


@lru_cache(maxsize=1)
def _log_turns() -> np.ndarray:
    """Rows u_hi, u_lo, u (u = log n / 2 pi, split by _split_turns) and
    log n, for n = 1.._N_MAX, from 40-digit decimal logs. The
    Euler-Maclaurin table rounds u to 64 bits, which leaves up to ~1e-14
    radians in t log n at the height cap."""
    with localcontext() as ctx:
        ctx.prec = 40
        rows = [
            (*_split_turns(Decimal(n).ln() / _two_pi()), float(Decimal(n).ln()))
            for n in range(1, _N_MAX + 1)
        ]
    tab = np.array(rows).T.copy()
    tab.flags.writeable = False
    return tab


# a miss costs ~70 us (a decimal log); a width-2 window needs 3 values of n
@lru_cache(maxsize=4096)
def _theta_turns(n: int) -> tuple[float, float, float]:
    """(log(n / 2 pi) - 1) / 2 pi, split by _split_turns."""
    with localcontext() as ctx:
        ctx.prec = 40
        return _split_turns(((Decimal(n) / _two_pi()).ln() - 1) / _two_pi())


def theta_reduced(t: np.ndarray) -> np.ndarray:
    """The Riemann-Siegel theta(t) mod 2 pi, in about [-pi - 1, pi + 1], for
    1e3 <= t <= T_CAP, to a few 1e-16 radians.

    (t/2) (log(n / 2 pi) - 1) with n = rint(t) is reduced exactly
    (zetacore._reduce_turns); the rest of the Stirling series, below 0.7
    radians, joins its small part before the one scaling by 2 pi."""
    t = np.asarray(t, dtype=float)
    n = np.rint(t)
    v_hi, v_lo, v = np.array([_theta_turns(int(k)) for k in n.tolist()]).reshape(-1, 3).T
    x, corr = _reduce_turns(0.5 * t, v_hi, v_lo, v)
    small = 0.5 * t * np.log1p((t - n) / n) - math.pi / 8.0
    for k, b in enumerate(_THETA_STIRLING, start=1):
        small += b * t ** (1 - 2 * k)
    return _turns_to_radians(x, corr + small / (2.0 * math.pi))


def theta_derivatives(t: np.ndarray, m: int) -> np.ndarray:
    """theta^(r)(t) for r = 1..m, shape (P, m), from the Stirling series
    differentiated termwise (valid for t >= 1e3)."""
    t = np.asarray(t, dtype=float)
    out = np.empty((t.shape[0], m))
    for r in range(1, m + 1):
        if r == 1:
            col = 0.5 * np.log(t / (2.0 * math.pi))
        else:
            col = (0.5 * (-1) ** r * math.factorial(r - 2)) * t ** (1 - r)
        for k, b in enumerate(_THETA_STIRLING, start=1):
            col = col + (b * _falling(1 - 2 * k, r)) * t ** (1 - 2 * k - r)
        out[:, r - 1] = col
    return out


def psi_derivatives(p: np.ndarray, e_max: int) -> np.ndarray:
    """Psi^(e)(p) for e = 0..e_max <= 21, shape (P, e_max + 1), from the
    degree-72 Taylor series about p = 1/2."""
    x = np.asarray(p, dtype=float) - 0.5
    ypow = (x * x)[:, None] ** np.arange(len(_PSI_COEFFS))
    out = np.sum(ypow[:, None, :] * _PSI_TABLE[None, : e_max + 1], axis=2)
    out[:, 1::2] *= x[:, None]
    return out


def _main_sum(t: np.ndarray, n_terms: int, m: int, dtheta: np.ndarray) -> np.ndarray:
    """Taylor coefficients in h of 2 Re[e^(i theta(t+h)) sum_{n<=N}
    n^(-1/2) e^(-i (t+h) log n)], shape (P, m+1), for one N."""
    u_hi, u_lo, u, logn = _log_turns()[:, :n_terms]
    phase = theta_reduced(t)[:, None] - _turns_to_radians(*_reduce_turns(t[:, None], u_hi, u_lo, u))
    scale = np.exp(-0.5 * logn)
    re = np.cos(phase) * scale
    im = np.sin(phase) * scale
    dist = dtheta[:, :1] - logn[None, :]
    # S_a = i^a sum_n n^(-1/2) e^(i phase) (kappa - log n)^a / a!
    s = np.empty((t.shape[0], m + 1), dtype=complex)
    weight = np.ones_like(dist)
    for a in range(m + 1):
        if a:
            weight = weight * dist / a
        s[:, a] = (1j**a) * (np.sum(re * weight, axis=1) + 1j * np.sum(im * weight, axis=1))
    # E = exp(i g) with g(h) = sum_{r>=2} theta^(r) h^r / r!: E_0 = 1,
    # E_1 = 0, a E_a = sum_j j (i g_j) E_(a-j)
    ig = 1j * dtheta / np.array([math.factorial(r) for r in range(1, dtheta.shape[1] + 1)])
    e = np.zeros((t.shape[0], m + 1), dtype=complex)
    e[:, 0] = 1.0
    for a in range(2, m + 1):
        e[:, a] = sum(j * ig[:, j - 1] * e[:, a - j] for j in range(2, a + 1)) / a
    out = np.empty((t.shape[0], m + 1))
    for a in range(m + 1):
        out[:, a] = 2.0 * sum(e[:, i] * s[:, a - i] for i in range(a + 1) if i != 1).real
    return out


def _remainder(t: np.ndarray, a: np.ndarray, n_terms: int, m: int) -> np.ndarray:
    """Taylor coefficients in h of (-1)^(N-1) sum_k C_k(p) a^(-1/2-k) at
    t + h, with p = a - N, shape (P, m+1), for one N.

    With u = h/t, p(t + h) - p = a ((1 + u)^(1/2) - 1) and
    a(t + h)^(-1/2-k) = a^(-1/2-k) (1 + u)^(-1/4-k/2), so the coefficient
    of h^l is t^-l sum_{k,r} C_k^(r)(p) a^(r-1/2-k) T[k, r, l] / r!."""
    m1 = m + 1
    n_c = len(_C_TERMS)
    psi = psi_derivatives(a - n_terms, _C_ORDER + m)
    ctab = _C_TABLE[:, :m1, : _C_ORDER + m1].reshape(n_c * m1, -1)
    v = np.sum(psi[:, None, :] * ctab[None], axis=2)
    expo = (np.arange(m1)[None, :] - 0.5 - np.arange(n_c)[:, None]).ravel()
    v *= a[:, None] ** expo
    tensor = _REMAINDER[:, :m1, :m1].reshape(n_c * m1, m1).T
    out = np.sum(v[:, None, :] * tensor[None], axis=2)
    out *= t[:, None] ** -np.arange(m1, dtype=float)
    return out if n_terms % 2 else -out


# rows of one chunk: the (rows, 22, 37) Psi temporaries stay below 4 MB
_CHUNK_ROWS = 512


def rs_z_jets(t: np.ndarray, m: int) -> np.ndarray:
    """Z^(r)(t) for r = 0..m <= 9, shape (P, m+1), for critical-line heights
    1e4 <= t <= T_CAP (below 1e4 the truncation after C_4 costs more than
    1e-12). Points are grouped by N = floor(sqrt(t / 2 pi)), which sets both
    the length of the main sum and the sign of the remainder, and p = a - N
    is taken from the same a."""
    if not (0 <= m <= _M_CAP):
        raise DomainError(f"jet order m={m} outside 0..{_M_CAP}")
    t = np.ascontiguousarray(np.asarray(t, dtype=float).ravel())
    a = np.sqrt(t / (2.0 * math.pi))
    big_n = np.floor(a).astype(int)
    fact = np.array([math.factorial(r) for r in range(m + 1)], dtype=float)
    out = np.empty((t.shape[0], m + 1))
    for n_terms in np.unique(big_n).tolist():
        idx = np.nonzero(big_n == n_terms)[0]
        for lo in range(0, idx.size, _CHUNK_ROWS):
            rows = idx[lo : lo + _CHUNK_ROWS]
            tr = t[rows]
            jet = _main_sum(tr, n_terms, m, theta_derivatives(tr, max(m, 1)))
            jet += _remainder(tr, a[rows], n_terms, m)
            out[rows] = jet * fact
    return out
