"""Hardy's Z-function and its derivatives off and on the critical line.

Z_0 = zeta and Z_k = Z_{k-1}' - (1/2) omega Z_{k-1} unrolls to the binomial
form

    Z_k(s) = sum_{mu=0}^{k} C(k, mu) f_{k-mu}(s) zeta^(mu)(s),

where f_0 = 1 and f_k = f_{k-1}' - (1/2) omega f_{k-1} are polynomials in
omega and its derivatives (f_1 = -omega/2, f_2 = -omega'/2 + omega^2/4, ...).
They are evaluated pointwise from one omega jet by the derivative recursion
f_r = sum_{i<r} C(r-1, i) (-omega^(i)/2) f_{r-1-i}, and one zeta jet of order
m gives Z_j, ..., Z_m together. The same sum holds with zeta^(mu) replaced
by the derivatives of exp(kappa h) zeta(s + h) and f by those of
exp(-kappa h) f(h), which the recursion gives with omega/2 + kappa for
omega/2. From order 4 up the zeta jets come centred that way
(zetacore.zeta_jets_centred): on the line kappa is close to theta', so f_r
stays O(1) and the sum no longer cancels terms of size (log t)^k down to
Z^(k). With plain jets that cancellation cost up to 4e-12 absolute at the
zeros of Z^(4) near t = 4e4 even from longdouble sums rounded to double.
On the critical line

    Z^(k)(t) = i^k chi(1/2 + it)^(-1/2) Z_k(1/2 + it)

is real; the imaginary residue is the branch diagnostic.

That is the Euler-Maclaurin (EM) path, and it does O(t) work a point. On
the critical line from t = 2 pi 5^2 = 157.08 (_RS_MIN_T) up, Z^(j)(t)
comes instead from the Riemann-Siegel jets (riemann_siegel.rs_z_jets): N =
floor(sqrt(t / 2 pi)) = 5..89 terms plus Gabcke's remainder C_0..C_K, with
K = 12 at N = 5 down to 5 from N = 60 (riemann_siegel.correction_terms),
in one pass for every order. They are real, so a residue is reported for EM
points only; a non-finite value still reads NaN and fails the guard.
_line_core is the one place that routes, point by point, so z_deriv_many,
z_pair_many and everything built on them (zero scans, refinement, discrete
moments, the quadrature) take the same evaluator at the same height.
Against mpmath's siegelz formula (scaled 1 + |Z^(j)|), N steps included,
the Riemann-Siegel jets are within 1.4e-15 for j <= 1 at 96 heights in
[157, 1e3] (EM 5.6e-15) and 3.0e-15 at 100 in [1e3, 1e4] (EM 2.8e-15).
They cost 1-3 us a point against EM's 5-33 us on [157, 1e3] and 120-220
us at 9000 (orders 0-4, batches of 3,000), and theta's Stirling series
(phase.theta_reduced) holds from 157: hence the crossover where N first
reaches 5. EM keeps the line below it,
the quadrature's [0, 2] sliver, and every point off the line (zk_many,
fe_residual, script_zk). Both reduce t log n mod 2 pi exactly against
phase's one table of log n / 2 pi; EM's imaginary residue (5.9e-14 at T
= 2000) is the size of the error of its e^(i theta) (chiomega.phase_theta).

Nothing is threaded: every batch runs on the calling thread, and each
point's value is a pure function of the point, so results are bitwise
independent of how a batch is split.

The windowed companion replaces each f_{k-mu} by its leading growth
(L/2)^{k-mu} with L = log(T / 2 pi):

    script_Z_k(s, T) = sum_mu C(k, mu) (L/2)^{k-mu} zeta^(mu)(s),

whose zeros near s = 1 seed the root system used by the coefficient
formulas.
"""

from __future__ import annotations

import math

import numpy as np

from .chiomega import chi_many, omega_jets, phase_theta
from .errors import BranchError, ConvergenceError, DomainError
from .riemann_siegel import _N_SPAN, rs_z_jets
from .zetacore import T_CAP, zeta_jets, zeta_jets_centred

K_CAP = 8
# Critical-line heights from here up take the Riemann-Siegel jets (see the
# module docstring): where N = floor(sqrt(t / 2 pi)) first reaches the
# kernel's lowest truncation, a double at which rs_z_jets already finds N = 5
_RS_MIN_T = 2.0 * math.pi * _N_SPAN[0] ** 2
_LEAK_BOUND = 1e-8
_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _f_values(s: np.ndarray, m: int, kappa=0.0) -> np.ndarray:
    """f_0(s)..f_m(s), shape (P, m+1), by the Leibniz form of the recursion,

        f_r = sum_{i<r} C(r-1, i) (-omega^(i)/2) f_{r-1-i},

    which needs omega_jets(s, m-1) and no derivative of any f. With a shift
    kappa (scalar or per point) omega/2 becomes omega/2 + kappa, which gives
    the coefficients of exp(-kappa h) f(h): the f that pair with the
    centred zeta jets."""
    f = np.ones((s.shape[0], m + 1), dtype=complex)
    if m:
        h = -0.5 * omega_jets(s, m - 1)
        h[:, 0] -= kappa
        for r in range(1, m + 1):
            f[:, r] = sum(
                math.comb(r - 1, i) * h[:, i] * f[:, r - 1 - i] for i in range(r)
            )
    return f


def _zk_columns(s: np.ndarray, j: int, m: int) -> np.ndarray:
    """Z_j(s)..Z_m(s), shape (P, m-j+1), from one zeta_jets_centred(s, m)
    pass, paired with the f of the same shift."""
    zj, kappa = zeta_jets_centred(s, m)
    f = _f_values(s, m, kappa)
    out = np.empty((s.shape[0], m - j + 1), dtype=complex)
    for k in range(j, m + 1):
        out[:, k - j] = sum(
            math.comb(k, mu) * f[:, k - mu] * zj[:, mu] for mu in range(k + 1)
        )
    return out


def zk_many(s: np.ndarray, k: int) -> np.ndarray:
    """Z_k(s) on a batch via the binomial form."""
    if not (0 <= k <= K_CAP):
        raise DomainError(f"k={k} outside 0..{K_CAP}")
    return _zk_columns(np.asarray(s, dtype=complex).ravel(), k, k)[:, 0]


def _leak(w: np.ndarray) -> np.ndarray:
    """Scaled imaginary residue |Im w| / (1 + |Re w|); NaN wherever w is not
    finite, so a guard written as `not leak <= bound` rejects it."""
    with np.errstate(invalid="ignore"):
        return np.where(np.isfinite(w), np.abs(w.imag) / (1.0 + np.abs(w.real)), np.nan)


def _em_line_core(t: np.ndarray, j: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Z^(j)(t)..Z^(m)(t), shape (P, m-j+1), from the Euler-Maclaurin zeta
    jets, and each point's largest scaled imaginary residue; no lower
    t-bound so the [0, 2] quadrature sliver can reuse it."""
    s = 0.5 + 1j * t
    rot = np.exp(1j * phase_theta(t))
    i_pow = np.array([_I_POW[k % 4] for k in range(j, m + 1)])
    w = i_pow[None, :] * rot[:, None] * _zk_columns(s, j, m)
    return w.real, _leak(w).max(axis=1)


def _line_core(t: np.ndarray, j: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Z^(j)(t)..Z^(m)(t), shape (P, m-j+1), and each point's largest scaled
    imaginary residue: the one place that picks the evaluator, per point.

    Heights t >= _RS_MIN_T take the Riemann-Siegel jets, which are real, so
    their residue is 0 (NaN where a value is not finite); all others take
    _em_line_core."""
    rs = t >= _RS_MIN_T
    if not rs.any():
        return _em_line_core(t, j, m)
    vals = np.empty((t.size, m - j + 1))
    leak = np.empty(t.size)
    z = rs_z_jets(t[rs], m)[:, j:]
    vals[rs], leak[rs] = z, _leak(z).max(axis=1)
    if not rs.all():
        vals[~rs], leak[~rs] = _em_line_core(t[~rs], j, m)
    return vals, leak


def _z_core(t: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Z^(j)(t) plus the scaled imaginary-residue diagnostic."""
    vals, leak = _line_core(t, j, j)
    return vals[:, 0], leak


def _line_points(t, j: int) -> np.ndarray:
    if not (0 <= j <= K_CAP):
        raise DomainError(f"j={j} outside 0..{K_CAP}")
    t = np.asarray(t, dtype=float).ravel()
    if t.size and not (np.isfinite(t).all() and t.min() >= 2.0 and t.max() <= T_CAP):
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


def z_deriv_many(t: np.ndarray, j: int, return_diag: bool = False):
    """Z^(j) on a batch of critical-line heights with the branch check;
    non-finite heights, and heights outside [2, T_CAP], raise DomainError.

    Results are bitwise independent of how the batch is split: every point's
    value is a pure function of the point alone. A residue above 1e-8, or any
    non-finite value, raises BranchError.
    """
    t = _line_points(t, j)
    vals, leak = _z_core(t, j)
    max_leak = _check_leak(leak)
    if return_diag:
        return vals, max_leak
    return vals


def z_pair_many(t: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(Z^(k), Z^(k+1)) on a batch of critical-line heights, 0 <= k <= 8,
    from one jet pass of order k+1: below t = _RS_MIN_T one
    zeta_jets_centred(s, k+1) / omega_jets(s, k) / phase_theta pass, from
    there up one rs_z_jets(t, k+1) pass.

    The order-k values agree with z_deriv_many(t, k) to roundoff, not
    bitwise. On the EM path the jet order sets the Euler-Maclaurin length
    and the centring shift, for k = 3 it also starts the centring, and for
    k = 4 it switches the zeta jets from the double to the longdouble path
    (zetacore._longdouble_points). The branch check covers both orders.
    """
    t = _line_points(t, k)
    vals, leak = _line_core(t, k, k + 1)
    _check_leak(leak)
    return vals[:, 0], vals[:, 1]


def z_deriv(t: float, j: int) -> float:
    """j-th derivative of Hardy's Z at height t (2 <= t <= 5e4, j <= 8)."""
    return float(z_deriv_many(np.array([float(t)]), j)[0])


def fe_residual(s: complex, k: int) -> float:
    """Scaled defect of Z_k(s) = (-1)^k chi(s) Z_k(1-s)."""
    if not (0 <= k <= K_CAP):
        raise DomainError(f"k={k} outside 0..{K_CAP}")
    lhs = zk_many(np.array([s]), k)[0]
    rhs = (-1.0) ** k * chi_many(np.array([s]))[0] * zk_many(np.array([1.0 - s]), k)[0]
    return float(abs(lhs - rhs) / (1.0 + abs(lhs)))


def window_log(T: float) -> float:
    """L = log(T / 2 pi), the window scale; requires T >= 10."""
    if T < 10.0:
        raise DomainError("window parameter T must be >= 10")
    return math.log(T / (2.0 * math.pi))


def script_zk(s: complex, k: int, T: float) -> complex:
    """Windowed sum_mu C(k,mu) (L/2)^(k-mu) zeta^(mu)(s)."""
    if not (0 <= k <= K_CAP):
        raise DomainError(f"k={k} outside 0..{K_CAP}")
    half_l = 0.5 * window_log(T)
    jets = zeta_jets(np.array([s]), k)[0]
    return complex(
        sum(math.comb(k, mu) * half_l ** (k - mu) * jets[mu] for mu in range(k + 1))
    )


def script_zk_root(
    k: int,
    T: float,
    seed: complex,
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
        jets = zeta_jets(np.array([z]), k + 1)[0]
        val = sum(math.comb(k, mu) * half_l ** (k - mu) * jets[mu] for mu in range(k + 1))
        dval = sum(
            math.comb(k, mu) * half_l ** (k - mu) * jets[mu + 1] for mu in range(k + 1)
        )
        step = val / dval
        z -= step
        if abs(step) <= tol * (1.0 + abs(z)):
            return z
    raise ConvergenceError(f"script_zk root iteration stalled at {z}")
