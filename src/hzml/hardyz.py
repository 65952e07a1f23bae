"""Hardy's Z-function and its derivatives off and on the critical line.

Z_0 = zeta and Z_k = Z_{k-1}' - (1/2) omega Z_{k-1} unrolls to the binomial
form

    Z_k(s) = sum_{mu=0}^{k} C(k, mu) f_{k-mu}(s) zeta^(mu)(s),

where f_0 = 1 and f_k = f_{k-1}' - (1/2) omega f_{k-1} are polynomials in
omega and its derivatives (f_1 = -omega/2, f_2 = -omega'/2 + omega^2/4, ...).
The monomial dictionaries for the f_k are built once, exactly, in rational
arithmetic. On the critical line

    Z^(k)(t) = i^k chi(1/2 + it)^(-1/2) Z_k(1/2 + it)

is real; the imaginary residue is the branch diagnostic.

The windowed companion replaces each f_{k-mu} by its leading growth
(L/2)^{k-mu} with L = log(T / 2 pi):

    script_Z_k(s, T) = sum_mu C(k, mu) (L/2)^{k-mu} zeta^(mu)(s),

whose zeros near s = 1 seed the root system used by the coefficient
formulas.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .chiomega import chi_many, omega_jets, phase_theta
from .errors import BranchError, ConvergenceError, DomainError
from .zetacore import T_CAP, EvalConfig, zeta_deriv, zeta_jets

K_CAP = 8
_LEAK_BOUND = 1e-8
_POOL_MIN_POINTS = 512
_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class FkJet:
    """Values f_0(s)..f_k(s) of the omega-polynomial coefficients."""

    s: complex
    k: int
    values: tuple[complex, ...]


@dataclass(frozen=True)
class ZkValue:
    s: complex
    k: int
    value: complex


def _mono_mul_w0(mono: Monomial) -> Monomial:
    if not mono:
        return (1,)
    return (mono[0] + 1,) + mono[1:]


def _poly_derivative(poly: dict[Monomial, Fraction]) -> dict[Monomial, Fraction]:
    out: dict[Monomial, Fraction] = {}
    for mono, c in poly.items():
        for i, e in enumerate(mono):
            if e == 0:
                continue
            lst = list(mono)
            lst[i] -= 1
            if i + 1 < len(lst):
                lst[i + 1] += 1
            else:
                lst.append(1)
            key = tuple(lst)
            out[key] = out.get(key, Fraction(0)) + c * e
    return {m: c for m, c in out.items() if c}


@lru_cache(maxsize=None)
def fk_polynomials(k: int) -> tuple[dict[Monomial, Fraction], ...]:
    """Monomial dictionaries for f_0..f_k; key (e_0, e_1, ...) means
    prod_i omega^(i) raised to e_i."""
    if k < 0:
        raise DomainError("k must be nonnegative")
    polys: list[dict[Monomial, Fraction]] = [{(): Fraction(1)}]
    for _ in range(k):
        prev = polys[-1]
        nxt = _poly_derivative(prev)
        for mono, c in prev.items():
            key = _mono_mul_w0(mono)
            nxt[key] = nxt.get(key, Fraction(0)) - c / 2
        polys.append({m: c for m, c in nxt.items() if c})
    return tuple(polys)


def _fk_values(omega: np.ndarray, k: int) -> np.ndarray:
    """Evaluate f_0..f_k on omega jets of shape (P, >= k); returns (P, k+1)."""
    p = omega.shape[0] if k > 0 else None
    polys = fk_polynomials(k)
    if k == 0:
        return np.ones((1 if p is None else p, 1), dtype=complex)
    out = np.empty((omega.shape[0], k + 1), dtype=complex)
    powers: dict[tuple[int, int], np.ndarray] = {}

    def var_power(i: int, e: int) -> np.ndarray:
        key = (i, e)
        if key not in powers:
            if e == 1:
                powers[key] = omega[:, i]
            else:
                powers[key] = var_power(i, e - 1) * omega[:, i]
        return powers[key]

    for r, poly in enumerate(polys):
        acc = np.zeros(omega.shape[0], dtype=complex)
        for mono, c in poly.items():
            term = np.full(omega.shape[0], float(c), dtype=complex)
            for i, e in enumerate(mono):
                if e:
                    term = term * var_power(i, e)
            acc += term
        out[:, r] = acc
    return out


def fk_jet(s: complex, k: int) -> FkJet:
    """f_0(s)..f_k(s) at a single point; k <= 8."""
    if not (0 <= k <= K_CAP):
        raise DomainError(f"k={k} outside 0..{K_CAP}")
    if k == 0:
        return FkJet(s=complex(s), k=0, values=(1.0 + 0.0j,))
    om = omega_jets(np.array([s]), k - 1)
    vals = _fk_values(om, k)[0]
    return FkJet(s=complex(s), k=k, values=tuple(complex(v) for v in vals))


def zk_many(s: np.ndarray, k: int, cfg: EvalConfig | None = None) -> np.ndarray:
    """Z_k(s) on a batch via the binomial form."""
    if not (0 <= k <= K_CAP):
        raise DomainError(f"k={k} outside 0..{K_CAP}")
    s = np.asarray(s, dtype=complex).ravel()
    zj = zeta_jets(s, k, cfg)
    if k == 0:
        return zj[:, 0].copy()
    return _binomial_sum(zj, _fk_values(omega_jets(s, k - 1), k), k)


def _binomial_sum(zj: np.ndarray, fvals: np.ndarray, k: int) -> np.ndarray:
    """Z_k = sum_mu C(k, mu) f_{k-mu} zeta^(mu) from zeta jets and f values."""
    out = np.zeros(zj.shape[0], dtype=complex)
    for mu in range(k + 1):
        out += math.comb(k, mu) * fvals[:, k - mu] * zj[:, mu]
    return out


def zk_value(s: complex, k: int, cfg: EvalConfig | None = None) -> ZkValue:
    return ZkValue(s=complex(s), k=k, value=complex(zk_many(np.array([s]), k, cfg)[0]))


def _leak(w: np.ndarray) -> np.ndarray:
    """Scaled imaginary residue |Im w| / (1 + |Re w|); NaN wherever w is not
    finite, so a guard written as `not leak <= bound` rejects it."""
    with np.errstate(invalid="ignore"):
        return np.where(np.isfinite(w), np.abs(w.imag) / (1.0 + np.abs(w.real)), np.nan)


def _z_core(
    t: np.ndarray, j: int, cfg: EvalConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Z^(j)(t) plus the scaled imaginary-residue diagnostic; no lower
    t-bound so the [0, 2] quadrature sliver can reuse it."""
    s = 0.5 + 1j * t
    w = _I_POW[j % 4] * np.exp(1j * phase_theta(t)) * zk_many(s, j, cfg)
    return w.real, _leak(w)


def _z_pair_core(
    t: np.ndarray, k: int, cfg: EvalConfig | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z^(k)(t), Z^(k+1)(t) and the larger of their residues, from one
    zeta jet of order k+1 and one omega jet of order k."""
    s = 0.5 + 1j * t
    zj = zeta_jets(s, k + 1, cfg)
    fvals = _fk_values(omega_jets(s, k), k + 1)
    rot = np.exp(1j * phase_theta(t))
    w0 = _I_POW[k % 4] * rot * _binomial_sum(zj, fvals, k)
    w1 = _I_POW[(k + 1) % 4] * rot * _binomial_sum(zj, fvals, k + 1)
    return w0.real, w1.real, np.maximum(_leak(w0), _leak(w1))


def map_chunks(fn, t: np.ndarray, workers: int) -> tuple[np.ndarray, ...]:
    """fn(t), where fn maps a batch of points to a tuple of per-point arrays.

    Above 512 points and with workers > 1 the batch is split into 4 chunks
    per worker and run on a thread pool (the numpy kernels release the GIL);
    the parts are joined in order. fn must be pure per point, which makes
    the result bitwise independent of the split.
    """
    if workers > 1 and t.size > _POOL_MIN_POINTS:
        chunks = np.array_split(t, workers * 4)
        with ThreadPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(fn, chunks))
        return tuple(np.concatenate(col) for col in zip(*parts))
    return fn(t)


def _line_points(t, j: int) -> np.ndarray:
    if not (0 <= j <= K_CAP):
        raise DomainError(f"j={j} outside 0..{K_CAP}")
    t = np.asarray(t, dtype=float).ravel()
    if t.size and (t.min() < 2.0 or t.max() > T_CAP):
        raise DomainError(f"t must lie in [2, {T_CAP}]")
    return t


def _check_leak(leak: np.ndarray) -> float:
    max_leak = float(leak.max()) if leak.size else 0.0
    if not max_leak <= _LEAK_BOUND:
        cause = (
            "a value is not finite"
            if math.isnan(max_leak)
            else "chi^(-1/2) branch is broken"
        )
        raise BranchError(
            f"imaginary residue {max_leak:.3e} exceeds {_LEAK_BOUND:.1e}; {cause}"
        )
    return max_leak


def z_deriv_many(
    t: np.ndarray,
    j: int,
    cfg: EvalConfig | None = None,
    workers: int = 1,
    return_diag: bool = False,
):
    """Z^(j) on a batch of critical-line heights with the branch check.

    Results are bitwise independent of the worker count: every point's value
    is a pure function of the point alone. A residue above 1e-8, or any
    non-finite value, raises BranchError.
    """
    t = _line_points(t, j)
    vals, leak = map_chunks(lambda c: _z_core(c, j, cfg), t, workers)
    max_leak = _check_leak(leak)
    if return_diag:
        return vals, max_leak
    return vals


def z_pair_many(
    t: np.ndarray,
    k: int,
    cfg: EvalConfig | None = None,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """(Z^(k), Z^(k+1)) on a batch of critical-line heights, 0 <= k <= 8,
    from one zeta_jets(s, k+1) / omega_jets(s, k) / phase_theta pass.

    The order-k values agree with z_deriv_many(t, k) to roundoff, not
    bitwise: the jet order sets the Euler-Maclaurin length and, from order
    4 up, the precision path. The branch check covers both orders.
    """
    t = _line_points(t, k)
    vals, dvals, leak = map_chunks(lambda c: _z_pair_core(c, k, cfg), t, workers)
    _check_leak(leak)
    return vals, dvals


def z_deriv(t: float, j: int, cfg: EvalConfig | None = None) -> float:
    """j-th derivative of Hardy's Z at height t (2 <= t <= 5e4, j <= 8)."""
    return float(z_deriv_many(np.array([float(t)]), j, cfg)[0])


def fe_residual(s: complex, k: int, cfg: EvalConfig | None = None) -> float:
    """Scaled defect of Z_k(s) = (-1)^k chi(s) Z_k(1-s)."""
    if not (0 <= k <= K_CAP):
        raise DomainError(f"k={k} outside 0..{K_CAP}")
    lhs = zk_many(np.array([s]), k, cfg)[0]
    rhs = (-1.0) ** k * chi_many(np.array([s]))[0] * zk_many(np.array([1.0 - s]), k, cfg)[0]
    return float(abs(lhs - rhs) / (1.0 + abs(lhs)))


def window_log(T: float) -> float:
    """L = log(T / 2 pi), the window scale; requires T >= 10."""
    if T < 10.0:
        raise DomainError("window parameter T must be >= 10")
    return math.log(T / (2.0 * math.pi))


def script_zk(s: complex, k: int, T: float, cfg: EvalConfig | None = None) -> complex:
    """Windowed sum_mu C(k,mu) (L/2)^(k-mu) zeta^(mu)(s)."""
    if not (0 <= k <= K_CAP):
        raise DomainError(f"k={k} outside 0..{K_CAP}")
    half_l = 0.5 * window_log(T)
    jets = zeta_jets(np.array([s]), k, cfg)[0]
    return complex(
        sum(math.comb(k, mu) * half_l ** (k - mu) * jets[mu] for mu in range(k + 1))
    )


def script_zk_root(
    k: int,
    T: float,
    seed: complex,
    cfg: EvalConfig | None = None,
    max_iter: int = 40,
    tol: float = 1e-12,
) -> complex:
    """Newton refinement of a zero of script_Z_k(., T) from a seed.

    The derivative shifts every zeta order up by one, so each step costs one
    jet evaluation at mu_max = k + 1.
    """
    if not (0 <= k <= K_CAP):
        raise DomainError(f"k={k} outside 0..{K_CAP}")
    half_l = 0.5 * window_log(T)
    z = complex(seed)
    for _ in range(max_iter):
        jets = zeta_jets(np.array([z]), k + 1, cfg)[0]
        val = sum(math.comb(k, mu) * half_l ** (k - mu) * jets[mu] for mu in range(k + 1))
        dval = sum(
            math.comb(k, mu) * half_l ** (k - mu) * jets[mu + 1] for mu in range(k + 1)
        )
        step = val / dval
        z -= step
        if abs(step) <= tol * (1.0 + abs(z)):
            return z
    raise ConvergenceError(f"script_zk root iteration stalled at {z}")
