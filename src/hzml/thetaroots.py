"""Roots of the truncated exponential series and their power sums.

E_k(theta) = sum_{mu=0}^k theta^mu / mu! has k simple complex roots,
conjugate-closed, one real (negative) root iff k is odd. Root finding takes
the companion-matrix eigenvalues of the k!-scaled integer-coefficient
polynomial (numpy.roots, in double), then polishes each by high-precision
Newton. Power sums sum_g theta_g^n follow two roads: exactly from the
coefficients, by one Newton-Girard recurrence that serves both signs of n
(on k! E_k for n > 0, integers; on the reversed polynomial for n < 0,
Fractions), and numerically from the roots; the exact road is primary,
the root road a cross-check.

Reversed polynomial: theta^k E_k(1/theta) = sum_i theta^{k-i} / i!, monic
with coefficient 1/i! on x^{k-i}, whose roots are the 1/theta_g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, ImaginaryLeakError
from .hardyz import window_log

# mpmath is imported where it is used, so `import hzml` does not load it
K_ROOT_CAP = 40
_POLISH_DPS = 50
_HP_DIGITS = 33


def trunc_exp(z: np.ndarray, j: int) -> np.ndarray:
    """E_j evaluated by Horner; complex in, complex out."""
    z = np.asarray(z, dtype=complex)
    acc = np.full(z.shape, 1.0 / math.factorial(j), dtype=complex)
    for mu in range(j - 1, -1, -1):
        acc = acc * z + 1.0 / math.factorial(mu)
    return acc


def _newton_girard(c: list, n_max: int) -> list:
    """p_1..p_n_max of the roots of the monic x^k + c_1 x^{k-1} + ... + c_k
    (c_0 = 1 unused): p_n = -sum_{i=1}^{min(n-1,k)} c_i p_{n-i} - n c_n, the
    last term only for n <= k. Integer c give integer p, Fraction c exact
    Fractions."""
    k = len(c) - 1
    p: list = []
    for n in range(1, n_max + 1):
        acc = n * c[n] if n <= k else 0
        for i in range(1, min(n - 1, k) + 1):
            acc += c[i] * p[n - i - 1]
        p.append(-acc)
    return p


@lru_cache(maxsize=None)
def exact_power_sums(k: int, u_max: int) -> tuple[Fraction, ...]:
    """p_1..p_u_max for the inverse roots, exact; index u-1 holds p_u.

    Newton-Girard on the monic reversed polynomial, c_i = 1/i!.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    return tuple(
        _newton_girard([Fraction(1, math.factorial(i)) for i in range(k + 1)], u_max)
    )


@lru_cache(maxsize=None)
def root_power_sums(k: int, n_max: int) -> tuple[int, ...]:
    """sum_g theta_g^n for n = 1..n_max, exact integers; index n-1 holds n.

    Newton-Girard on the monic integer polynomial k! E_k, c_i = k!/(k-i)!.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    c = [math.factorial(k) // math.factorial(k - i) for i in range(k + 1)]
    return tuple(_newton_girard(c, n_max))


@dataclass(frozen=True)
class ThetaSystem:
    """The k roots of E_k with residuals, power sums, and exp-factors.

    power_sums holds the exact coefficient-side values (floated) for
    u = 1..2k+2; power_sum() recomputes from the roots as a cross-check.
    _roots_hp carries each root to 33 digits so inverse powers up to
    u = 2k+2 survive the conjugate-pair cancellation.
    """

    k: int
    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    power_sums: dict[int, float]
    exp_factors: tuple[complex, ...]
    _roots_hp: tuple[tuple[str, str], ...]

    def roots_hp(self) -> list:
        import mpmath as mp

        # parse at full precision regardless of the ambient mpmath context,
        # otherwise the 33-digit strings silently round to doubles
        with mp.workdps(_POLISH_DPS):
            return [mp.mpc(mp.mpf(re), mp.mpf(im)) for re, im in self._roots_hp]


def _polish(k: int, z0: complex):
    import mpmath as mp

    with mp.workdps(_POLISH_DPS):
        coeffs = [mp.mpf(1) / mp.factorial(mu) for mu in range(k + 1)]
        dcoeffs = coeffs[:-1] if k > 1 else [mp.mpf(1)]

        def horner(cs, z):
            acc = cs[-1]
            for c in reversed(cs[:-1]):
                acc = acc * z + c
            return acc

        z = mp.mpc(z0)
        for _ in range(12):
            step = horner(coeffs, z) / horner(dcoeffs, z)
            z = z - step
            if abs(step) <= mp.mpf(10) ** (-_POLISH_DPS + 4) * (1 + abs(z)):
                break
        return z


@lru_cache(maxsize=None)
def trunc_exp_roots(k: int) -> ThetaSystem:
    """Root system of E_k for 1 <= k <= 40, deterministically ordered."""
    if not (1 <= k <= K_ROOT_CAP):
        raise DomainError(f"k={k} outside 1..{K_ROOT_CAP}")
    import mpmath as mp

    # double eigenvalues are within 1e-6 of the roots up to k = 40, deep
    # inside each root's ~1.4-wide Newton basin
    raw = np.roots([math.factorial(k) / math.factorial(mu) for mu in range(k, -1, -1)])
    polished = [_polish(k, complex(z)) for z in raw]

    # conjugate closure is enforced structurally: keep the real root (odd k)
    # and the upper-half roots, mirror the rest
    # mirroring must stay at polish precision: an mpc built at ambient dps
    # would round the conjugates to doubles before the strings are cut
    with mp.workdps(_POLISH_DPS):
        reals = [z.real for z in polished if abs(z.imag) < 1e-6 * (1 + abs(z.real))]
        upper = [z for z in polished if z.imag >= 1e-6 * (1 + abs(z.real))]
        if len(reals) != k % 2 or len(reals) + 2 * len(upper) != k:
            raise ConvergenceError(
                f"root classification failed for k={k}: "
                f"{len(reals)} real + 2*{len(upper)} conjugate"
            )
        full = [mp.mpc(r, 0) for r in reals]
        for z in upper:
            full.append(z)
            full.append(mp.mpc(z.real, -z.imag))

        entries = sorted(
            ((complex(float(z.real), float(z.imag)), z) for z in full),
            key=lambda e: (e[0].real, e[0].imag),
        )
        roots = tuple(e[0] for e in entries)
        hp = tuple(
            (mp.nstr(e[1].real, _HP_DIGITS), mp.nstr(e[1].imag, _HP_DIGITS))
            for e in entries
        )

    res = tuple(float(abs(v)) for v in trunc_exp(np.array(roots), k))
    bound = 1e-12 * math.factorial(k)
    if max(res) > bound:
        raise ConvergenceError(f"residual {max(res):.3e} above {bound:.3e} for k={k}")

    exact = exact_power_sums(k, 2 * k + 2)
    psums = {u: float(exact[u - 1]) for u in range(1, 2 * k + 3)}
    expf = tuple(complex(v) for v in np.exp(-2.0 * np.array(roots)))
    return ThetaSystem(
        k=k,
        roots=roots,
        residuals=res,
        power_sums=psums,
        exp_factors=expf,
        _roots_hp=hp,
    )


def power_sum(ts: ThetaSystem, u: int) -> float:
    """Root-side sum_g theta_g^{-u}; conjugate closure pushes the imaginary
    part below 1e-10, checked then dropped."""
    if not (1 <= u <= 2 * ts.k + 2):
        raise DomainError(f"u={u} outside 1..{2 * ts.k + 2}")
    import mpmath as mp

    with mp.workdps(_POLISH_DPS):
        acc = mp.fsum(z ** (-u) for z in ts.roots_hp())
        re = float(acc.real)
        im = float(acc.imag)
    if abs(im) > 1e-10:
        raise ImaginaryLeakError(f"power sum u={u} leaks imaginary part {im:.3e}")
    return re


def z_from_theta(theta: complex, T: float) -> complex:
    """First-order zero location 1 - 2 theta / log(T / 2 pi)."""
    return 1.0 - 2.0 * complex(theta) / window_log(T)
