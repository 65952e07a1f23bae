"""The functional-equation factor chi and its logarithmic derivative omega.

chi(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) satisfies
zeta(s) = chi(s) zeta(1-s) and chi(s) chi(1-s) = 1. Everything here works in
the log domain so the sin/Gamma growth along the strip cancels before any
exponential is taken.

omega(s) = chi'(s)/chi(s) = log 2pi - psi(s) + (pi/2) tan(pi s/2),
obtained by differentiating log chi and applying the digamma reflection
formula; on the critical line omega(1/2 + it) = -2 theta'(t) ~ -log(t/2pi).
Derivatives of omega to order m feed the f_k recursion, so psi and
tan(pi s/2) both come with jet evaluators.

All kernels are per-point deterministic: shift counts and branch choices
depend only on the individual point, never on the batch around it.
"""

from __future__ import annotations

import math

import numpy as np

from .bernoulli import bernoulli_float
from .errors import DomainError, PoleProximityError
from .jets import derivatives_from_jet, jet_inv, jet_mul

_LOG_2PI = math.log(2.0 * math.pi)
_SHIFT_RADIUS = 18.0
_STIRLING_TERMS = 10  # for log Gamma
_PSI_TERMS = 16  # for psi^(r)
M_CAP = 12


def _shift_counts(z: np.ndarray) -> np.ndarray:
    need = np.abs(z) < _SHIFT_RADIUS
    k = np.where(need, np.ceil(_SHIFT_RADIUS - z.real), 0.0)
    return np.maximum(k, 0.0).astype(int)


def log_gamma(z: np.ndarray) -> np.ndarray:
    """log Gamma via upward recursion into |z| >= 18 plus a Stirling tail.

    For Re z > 0 this is the principal (continuous) branch; elsewhere the
    branch is whatever the recursion accumulates, which is irrelevant to the
    exp'd quantities built on top.
    """
    z = np.asarray(z, dtype=complex)
    k = _shift_counts(z)
    acc = np.zeros_like(z)
    for j in range(int(k.max()) if k.size else 0):
        mask = j < k
        acc[mask] += np.log(z[mask] + j)
    w = z + k
    res = (w - 0.5) * np.log(w) - w + 0.5 * _LOG_2PI
    winv = 1.0 / w
    winv2 = winv * winv
    wp = winv
    for r in range(1, _STIRLING_TERMS + 1):
        res += (bernoulli_float(2 * r) / ((2 * r) * (2 * r - 1))) * wp
        wp = wp * winv2
    return res - acc


def psi_jets(z: np.ndarray, m: int) -> np.ndarray:
    """psi^(r)(z_p) for r = 0..m, shape (P, m+1).

    Asymptotic series after shifting to |w| >= 18:
    psi^(r)(w) = (-1)^(r-1)(r-1)! w^-r + (1/2)(-1)^(r-1) r! w^-(r+1)
                 - (-1)^r sum_i B_2i [(2i+r-1)!/(2i)!] w^-(2i+r).
    """
    z = np.asarray(z, dtype=complex)
    p = z.shape[0]
    k = _shift_counts(z)
    out = np.zeros((p, m + 1), dtype=complex)

    # shift corrections: psi^(r)(z) = psi^(r)(z+k) - sum_j (-1)^r r! (z+j)^-(r+1)
    for j in range(int(k.max()) if k.size else 0):
        mask = j < k
        inv = 1.0 / (z[mask] + j)
        invp = inv.copy()
        sign_fact = 1.0
        for r in range(m + 1):
            if r:
                sign_fact *= -r
            out[mask, r] -= sign_fact * invp
            invp = invp * inv
    w = z + k
    winv = 1.0 / w
    logw = np.log(w)
    winv2 = winv * winv
    for r in range(m + 1):
        if r == 0:
            asym = logw - 0.5 * winv
        else:
            sgn = (-1.0) ** (r - 1)
            asym = sgn * math.factorial(r - 1) * winv ** r
            asym += 0.5 * sgn * math.factorial(r) * winv ** (r + 1)
        bern = np.zeros_like(w)
        wp = winv ** (r + 2) if r else winv2
        for i in range(1, _PSI_TERMS + 1):
            coeff = bernoulli_float(2 * i) * (
                math.factorial(2 * i + r - 1) / math.factorial(2 * i)
            )
            bern += coeff * wp
            wp = wp * winv2
        out[:, r] += asym - (-1.0) ** r * bern
    return out


_TAN_POLYS: list[np.ndarray] = [np.array([0.0, 1.0])]


def _tan_poly(r: int) -> np.ndarray:
    """Integer coefficients of P_r with d^r/dx^r tan = P_r(tan),
    P_0 = x, P_{r+1} = (1 + x^2) P_r'."""
    while len(_TAN_POLYS) <= r:
        cur = _TAN_POLYS[-1]
        dcur = cur[1:] * np.arange(1, len(cur))
        nxt = np.zeros(len(dcur) + 2)
        nxt[: len(dcur)] += dcur
        nxt[2:] += dcur
        _TAN_POLYS.append(nxt)
    return _TAN_POLYS[r]


def _tan_jets_series(s: np.ndarray, m: int) -> np.ndarray:
    """Derivatives of tan(pi s/2) for Im s >= 1 via q = exp(i pi s):
    tan(pi s/2) = i (1 - q)/(1 + q), expanded as a jet in h."""
    q0 = np.exp(1j * math.pi * s)
    qjet = np.empty((s.shape[0], m + 1), dtype=complex)
    qjet[:, 0] = q0
    for a in range(1, m + 1):
        qjet[:, a] = qjet[:, a - 1] * (1j * math.pi) / a
    num = -qjet.copy()
    num[:, 0] += 1.0
    den = qjet.copy()
    den[:, 0] += 1.0
    w = jet_mul(num, jet_inv(den))
    return derivatives_from_jet(1j * w)


def tan_half_pi_jets(s: np.ndarray, m: int) -> np.ndarray:
    """d^r/ds^r tan(pi s / 2) for r = 0..m, shape (P, m+1)."""
    s = np.asarray(s, dtype=complex)
    nearest_odd = 2.0 * np.round((s.real - 1.0) / 2.0) + 1.0
    if np.any(np.abs(s - nearest_odd) < 1e-3):
        raise PoleProximityError("within 1e-3 of a pole of tan(pi s/2)")
    out = np.empty((s.shape[0], m + 1), dtype=complex)
    t = s.imag
    up = t >= 1.0
    dn = t <= -1.0
    mid = ~(up | dn)
    if np.any(up):
        out[up] = _tan_jets_series(s[up], m)
    if np.any(dn):
        out[dn] = np.conj(_tan_jets_series(np.conj(s[dn]), m))
    if np.any(mid):
        x = np.tan(math.pi * s[mid] / 2.0)
        for r in range(m + 1):
            coeffs = _tan_poly(r)
            val = np.zeros_like(x)
            for c in coeffs[::-1]:
                val = val * x + c
            out[mid, r] = (math.pi / 2.0) ** r * val
    return out


def omega_jets(s: np.ndarray, m: int) -> np.ndarray:
    """omega^(r)(s_p) for r = 0..m, shape (P, m+1)."""
    if not (0 <= m <= M_CAP):
        raise DomainError(f"jet order m={m} outside 0..{M_CAP}")
    s = np.asarray(s, dtype=complex)
    if np.any(np.abs(s) < 1e-3):
        raise PoleProximityError("omega has a pole at s = 0 (psi pole)")
    out = -psi_jets(s, m) + (math.pi / 2.0) * tan_half_pi_jets(s, m)
    out[:, 0] += _LOG_2PI
    return out


def phase_theta(t: np.ndarray | float) -> np.ndarray:
    """Continuous argument theta(t) with chi(1/2 + it)^(-1/2) = e^{i theta(t)}
    (the Riemann-Siegel theta): Im log Gamma(1/4 + it/2) - (t/2) log pi.

    log_gamma is single-valued and continuous on Re z > 0, so the branch is
    recomputed from scratch on every call; no state is carried between calls.
    """
    t = np.asarray(t, dtype=float)
    z = 0.25 + 0.5j * t
    return log_gamma(z).imag - 0.5 * t * math.log(math.pi)


def _log_sin(z: np.ndarray) -> np.ndarray:
    """log sin(z), branch unspecified, safe for |Im z| up to ~1e5."""
    out = np.empty_like(z)
    im = z.imag
    up = im >= 1.0
    dn = im <= -1.0
    mid = ~(up | dn)
    if np.any(up):
        zz = z[up]
        out[up] = -math.log(2.0) + 0.5j * math.pi - 1j * zz + np.log1p(-np.exp(2j * zz))
    if np.any(dn):
        zz = np.conj(z[dn])
        out[dn] = np.conj(
            -math.log(2.0) + 0.5j * math.pi - 1j * zz + np.log1p(-np.exp(2j * zz))
        )
    if np.any(mid):
        with np.errstate(divide="ignore"):
            out[mid] = np.log(np.sin(z[mid]))
    return out


def chi_many(s: np.ndarray) -> np.ndarray:
    """chi on a batch; log-domain assembly so nothing overflows en route."""
    s = np.asarray(s, dtype=complex)
    if np.any(np.abs(s - 1.0) < 1e-6):
        raise PoleProximityError("chi has a pole at s = 1")
    logchi = (
        s * math.log(2.0)
        + (s - 1.0) * math.log(math.pi)
        + _log_sin(math.pi * s / 2.0)
        + log_gamma(1.0 - s)
    )
    finite = np.isfinite(logchi.real)
    if np.any(logchi.real[finite] > 700.0):
        raise OverflowError("log-domain chi exponent exceeds double range")
    return np.exp(logchi)


def chi(s: complex) -> complex:
    return complex(chi_many(np.array([s]))[0])

