"""Five-term discrete-moment prediction and its combinatorial identities.

The predicted value of sum_{0<gamma_k<=T} |Z^(j)(gamma_k)|^2 splits into
five terms over T L^{2j+2}, L = log(T/2pi), driven by the inverse power
sums S_u = sum_g theta_g^{-u} of the truncated-exponential roots:

    delta_{0,k} / (2^{2j+1}(2j+1) pi)
  - (k+1)(1+(-1)^j) / (2^{2j+2}(j+1)^2 pi)
  + sum_{u=1}^{j} (-1)^u j! S_{u+1} / ((2j+1-u)(j-u)! 2^{2j+1} pi)
  + (-1)^{j+1} (j!)^2 S_{2j+2} / (2^{2j+2} pi)
  + (-1)^j (j!)^2 sum_g x_g theta_g^{-(2j+2)} E_j(theta_g)^2 / (2^{2j+2} pi)

with x_g = (T/2pi)^{z_g-1} in finite mode and e^{-2 theta_g} in asymptotic
mode; under the first-order location z_g = 1 - 2 theta_g / L the two
coincide exactly. Empty-sum conventions: the u-sum vanishes for j=0, and
all root-driven terms vanish for k=0.

The first four terms are rational multiples of 1/pi and are accumulated in
exact rational arithmetic, so the diagonal cancellation C_{k,k} = 0 comes
out as a literal zero rather than a small float.

raw_assembled_total() rebuilds the same value from the pre-simplification
nested sums (the (mu, nu, lambda, g) quadruple sum split at
u = mu + nu + 1 - lambda), which is the end-to-end oracle for every
simplification step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, ImaginaryLeakError
from .hardyz import window_log
from .thetaroots import exact_power_sums, trunc_exp_roots, z_from_theta

J_CAP = 12
K_COEFF_CAP = 25


@dataclass(frozen=True)
class CoefficientBreakdown:
    j: int
    k: int
    T: float
    mode: str
    L: float
    term_delta: float
    term_cg: float
    term_u: float
    term_p2j2: float
    term_exp: float
    total: float
    per_TL: float


@dataclass(frozen=True)
class IdentityReport:
    name: str
    params: dict = field(compare=False)
    lhs: float = 0.0
    rhs: float = 0.0
    abs_gap: float = 0.0


def _rational_terms(j: int, k: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Coefficients of T L^{2j+2} / pi for the four root-free terms."""
    q_delta = Fraction(1, 2 ** (2 * j + 1) * (2 * j + 1)) if k == 0 else Fraction(0)
    q_cg = -Fraction((k + 1) * (1 + (-1) ** j), 2 ** (2 * j + 2) * (j + 1) ** 2)
    q_u = Fraction(0)
    q_p = Fraction(0)
    if k >= 1:
        p = exact_power_sums(k, 2 * j + 2)
        for u in range(1, j + 1):
            q_u += (
                Fraction(math.factorial(j) * (-1) ** u,
                         (2 * j + 1 - u) * math.factorial(j - u))
                * p[u]
            )
        q_u /= 2 ** (2 * j + 1)
        q_p = Fraction((-1) ** (j + 1) * math.factorial(j) ** 2, 2 ** (2 * j + 2)) * p[
            2 * j + 1
        ]
    return q_delta, q_cg, q_u, q_p


def _exp_term_sum(j: int, k: int) -> float:
    """sum_g x_g theta_g^{-(2j+2)} E_j(theta_g)^2 with the conjugate check;
    x_g = e^{-2 theta_g} in both modes."""
    ts = trunc_exp_roots(k)
    roots = np.array(ts.roots)
    factors = np.array(ts.exp_factors)
    ej = ts.partial_sums(j)
    acc = complex(np.sum(factors * roots ** (-(2 * j + 2)) * ej * ej))
    if abs(acc.imag) > 1e-9 * (1.0 + abs(acc.real)):
        raise ImaginaryLeakError(
            f"exp-term sum leaks imaginary part {acc.imag:.3e} at j={j}, k={k}"
        )
    return acc.real


def breakdown(
    j: int,
    k: int,
    T: float | None = None,
    mode: str = "finite",
) -> CoefficientBreakdown:
    """Five-term prediction at (j, k).

    Finite mode needs T >= 100; asymptotic mode defaults T to 1e6 for the
    term/total scaling while per_TL stays T-free.
    """
    if mode not in ("finite", "asymptotic"):
        raise DomainError(f"unknown mode {mode!r}")
    if not (0 <= j <= J_CAP):
        raise DomainError(f"j={j} outside 0..{J_CAP}")
    if not (0 <= k <= K_COEFF_CAP):
        raise DomainError(f"k={k} outside 0..{K_COEFF_CAP}")
    if mode == "finite":
        if T is None or T < 100.0:
            raise DomainError("finite mode needs T >= 100")
    elif T is None:
        T = 1.0e6
    L = window_log(T)
    scale = T * L ** (2 * j + 2)

    q_delta, q_cg, q_u, q_p = _rational_terms(j, k)
    if k == 0 or j == k:
        d_exp = 0.0  # E_k(theta_g) = 0 by the defining equation when j = k
    else:
        coef = (-1) ** j * math.factorial(j) ** 2 / 2 ** (2 * j + 2)
        d_exp = coef * _exp_term_sum(j, k) / math.pi

    term_delta = float(q_delta) / math.pi * scale
    term_cg = float(q_cg) / math.pi * scale
    term_u = float(q_u) / math.pi * scale
    term_p2j2 = float(q_p) / math.pi * scale
    term_exp = d_exp * scale
    total = term_delta + term_cg + term_u + term_p2j2 + term_exp
    # cancellation-safe normalization: rationals summed exactly first
    per_tl = float(q_delta + q_cg + q_u + q_p) / math.pi + d_exp
    return CoefficientBreakdown(
        j=j,
        k=k,
        T=float(T),
        mode=mode,
        L=L,
        term_delta=term_delta,
        term_cg=term_cg,
        term_u=term_u,
        term_p2j2=term_p2j2,
        term_exp=term_exp,
        total=total,
        per_TL=per_tl,
    )


def asymptotic_coefficient(j: int, k: int) -> float:
    """C_{j,k} with the prediction written as C_{j,k} T L^{2j+2}."""
    a = breakdown(j, k, 1.0e6, "asymptotic").per_TL
    b = breakdown(j, k, 1.0e9, "asymptotic").per_TL
    if abs(a - b) > 1e-14 * (1.0 + abs(a)):
        raise DomainError("asymptotic coefficient picked up a T dependence")
    return a


def combi_sum(j: int, u: int) -> IdentityReport:
    """Alternating binomial double sum against (-1)^{j+1} C(2j-u, j) {1+(-1)^u}.

    Exact integer arithmetic on both sides; any nonzero gap is a genuine
    identity failure, not roundoff.
    """
    if not (0 <= u <= j <= 15):
        raise DomainError("need 0 <= u <= j <= 15")
    lhs = 0
    for mu in range(j - u + 1):
        for nu in range(min(j, 2 * j + 1 - u - mu) + 1):
            e = 2 * j + 1 - u - mu - nu
            lhs += math.comb(2 * j + 1 - u, mu) * math.comb(2 * j + 1 - u - mu, nu) * (
                -2
            ) ** e
    rhs = (-1) ** (j + 1) * math.comb(2 * j - u, j) * (1 + (-1) ** u)
    return IdentityReport(
        name="combi_sum",
        params={"j": j, "u": u},
        lhs=float(lhs),
        rhs=float(rhs),
        abs_gap=float(abs(lhs - rhs)),
    )


def first_term_sum(j: int) -> IdentityReport:
    """Beta-kernel double sum against (1+(-1)^j) / (2^{2j+2}(j+1)^2), exact."""
    if not (0 <= j <= 15):
        raise DomainError("need 0 <= j <= 15")
    lhs = Fraction(0)
    for mu in range(j + 1):
        for nu in range(j + 1):
            lhs += (
                math.comb(j, mu)
                * math.comb(j, nu)
                * Fraction(math.factorial(mu) * math.factorial(nu),
                           math.factorial(mu + nu + 2))
                * Fraction(-1, 2) ** (2 * j - mu - nu)
            )
    rhs = Fraction(1 + (-1) ** j, 2 ** (2 * j + 2) * (j + 1) ** 2)
    return IdentityReport(
        name="first_term_sum",
        params={"j": j},
        lhs=float(lhs),
        rhs=float(rhs),
        abs_gap=float(abs(lhs - rhs)),
    )


def _raw_quadruple_piece(j: int, ts_roots: np.ndarray, terms) -> complex:
    """sum over given (u, mu, nu) triples of the lambda-substituted kernel
    C(j,mu) C(j,nu) mu! nu! (-2)^{mu+nu+1-u} / (mu+nu+1-u)! * p_{u+1}^{root}."""
    acc = 0.0 + 0.0j
    inv_pows: dict[int, complex] = {}
    for u, mu, nu in terms:
        lam = mu + nu + 1 - u
        if lam < 0:
            continue
        if u not in inv_pows:
            inv_pows[u] = complex(np.sum(ts_roots ** (-(u + 1))))
        acc += (
            math.comb(j, mu)
            * math.comb(j, nu)
            * math.factorial(mu)
            * math.factorial(nu)
            * (-2.0) ** lam
            / math.factorial(lam)
            * inv_pows[u]
        )
    return acc


def step4_sums(j: int, k: int) -> list[IdentityReport]:
    """The four pieces of the quadruple sum at u = mu+nu+1-lambda, each
    checked against its closed form on the same root system."""
    if not (0 <= j <= J_CAP):
        raise DomainError(f"j={j} outside 0..{J_CAP}")
    if not (1 <= k <= 10):
        raise DomainError(f"k={k} outside 1..10")
    ts = trunc_exp_roots(k)
    roots = np.array(ts.roots)
    p = exact_power_sums(k, 2 * j + 2)
    fj = math.factorial(j)

    def checked_real(z: complex, name: str) -> float:
        if abs(z.imag) > 1e-9 * (1.0 + abs(z.real)):
            raise ImaginaryLeakError(f"{name} leaks imaginary part {z.imag:.3e}")
        return z.real

    reports = []

    s1_terms = [(0, mu, nu) for mu in range(j + 1) for nu in range(j + 1)]
    lhs1 = checked_real(_raw_quadruple_piece(j, roots, s1_terms), "S1")
    rhs1 = (-1) ** j * 2.0 / (2 * j + 1)
    reports.append(
        IdentityReport("step4_S1", {"j": j, "k": k}, lhs1, rhs1, abs(lhs1 - rhs1))
    )

    s2_terms = [
        (u, mu, nu)
        for u in range(1, j + 1)
        for mu in range(u)
        for nu in range(max(0, u - 1 - mu), j + 1)
    ]
    lhs2 = checked_real(_raw_quadruple_piece(j, roots, s2_terms), "S2")
    rhs2 = (-1) ** j * sum(
        fj / ((2 * j + 1 - u) * math.factorial(j - u)) * (1 - (-1) ** u) * float(p[u])
        for u in range(1, j + 1)
    )
    reports.append(
        IdentityReport("step4_S2", {"j": j, "k": k}, lhs2, rhs2, abs(lhs2 - rhs2))
    )

    s3_terms = [
        (u, mu, nu)
        for u in range(1, j + 1)
        for mu in range(u, j + 1)
        for nu in range(j + 1)
    ]
    lhs3 = checked_real(_raw_quadruple_piece(j, roots, s3_terms), "S3")
    rhs3 = (-1) ** (j + 1) * sum(
        fj / ((2 * j + 1 - u) * math.factorial(j - u)) * (1 + (-1) ** u) * float(p[u])
        for u in range(1, j + 1)
    )
    reports.append(
        IdentityReport("step4_S3", {"j": j, "k": k}, lhs3, rhs3, abs(lhs3 - rhs3))
    )

    s4_terms = [
        (u, mu, nu)
        for u in range(j + 1, 2 * j + 2)
        for mu in range(max(0, u - 1 - j), j + 1)
        for nu in range(max(0, u - 1 - mu), j + 1)
    ]
    lhs4 = checked_real(_raw_quadruple_piece(j, roots, s4_terms), "S4")
    rhs4 = fj**2 * float(p[2 * j + 1])
    reports.append(
        IdentityReport("step4_S4", {"j": j, "k": k}, lhs4, rhs4, abs(lhs4 - rhs4))
    )
    return reports


def raw_assembled_total(j: int, k: int, T: float, mode: str = "finite") -> float:
    """Prediction rebuilt from the pre-simplification sums.

    Diagonal piece + 2 * [(-1)^{j+1}(k+1)(T/2pi)L^{2j+2} FTS(j)
    + (-1)^{j+1}(T/2pi)(L/2)^{2j+2} RAW4 + (-1)^j (T/2pi)(L/2)^{2j+2} EXPRAW]
    where RAW4 is the un-split quadruple sum and EXPRAW the exp-factor
    double sum; agreement with breakdown() validates every closed form at
    once.
    """
    if not (0 <= j <= J_CAP):
        raise DomainError(f"j={j} outside 0..{J_CAP}")
    if not (0 <= k <= 10):
        raise DomainError(f"k={k} outside 0..10")
    L = window_log(T)
    ratio = T / (2.0 * math.pi)
    diag = T * L ** (2 * j + 2) / (2 ** (2 * j + 1) * (2 * j + 1) * math.pi)
    fts = float(first_term_sum(j).lhs)
    acc = (-1.0) ** (j + 1) * (k + 1) * ratio * L ** (2 * j + 2) * fts
    if k >= 1:
        ts = trunc_exp_roots(k)
        roots = np.array(ts.roots)
        raw4 = 0.0 + 0.0j
        for mu in range(j + 1):
            for nu in range(j + 1):
                cc = (
                    math.comb(j, mu)
                    * math.comb(j, nu)
                    * math.factorial(mu)
                    * math.factorial(nu)
                )
                inv = roots ** (-(mu + nu + 2))
                lam_poly = sum(
                    (-2.0 * roots) ** lam / math.factorial(lam)
                    for lam in range(mu + nu + 2)
                )
                raw4 += cc * complex(np.sum(inv * lam_poly))
        factors = (
            np.array(ts.exp_factors)
            if mode == "asymptotic"
            else ratio ** (np.array([z_from_theta(th, T) for th in ts.roots]) - 1.0)
        )
        expraw = 0.0 + 0.0j
        for mu in range(j + 1):
            for nu in range(j + 1):
                cc = (
                    math.comb(j, mu)
                    * math.comb(j, nu)
                    * math.factorial(mu)
                    * math.factorial(nu)
                )
                expraw += cc * complex(np.sum(factors * roots ** (-(mu + nu + 2))))
        for z, name in ((raw4, "RAW4"), (expraw, "EXPRAW")):
            if abs(z.imag) > 1e-9 * (1.0 + abs(z.real)):
                raise ImaginaryLeakError(f"{name} leaks imaginary part {z.imag:.3e}")
        half_l = (0.5 * L) ** (2 * j + 2)
        acc += (-1.0) ** (j + 1) * ratio * half_l * raw4.real
        acc += (-1.0) ** j * ratio * half_l * expraw.real
    return diag + 2.0 * acc


def yildirim_compare(k: int) -> IdentityReport:
    """2 pi C_{0,k} against 1 + 1/k (odd k) or 1 - 3/k (even k)."""
    if not (2 <= k <= K_COEFF_CAP):
        raise DomainError(f"k={k} outside 2..{K_COEFF_CAP}")
    lhs = 2.0 * math.pi * asymptotic_coefficient(0, k)
    rhs = 1.0 + 1.0 / k if k % 2 else 1.0 - 3.0 / k
    return IdentityReport(
        name="yildirim",
        params={"k": k},
        lhs=lhs,
        rhs=rhs,
        abs_gap=abs(lhs - rhs),
    )


def identity_sweep(j_max: int, k_max: int) -> list[IdentityReport]:
    """Every exact identity up to the caps; float-tolerance checks for the
    root-driven ones. Consumers filter on abs_gap."""
    out: list[IdentityReport] = []
    for j in range(min(j_max, 15) + 1):
        for u in range(j + 1):
            out.append(combi_sum(j, u))
        out.append(first_term_sum(j))
    for j in range(min(j_max, 6) + 1):
        for k in range(1, min(k_max, 8) + 1):
            out.extend(step4_sums(j, k))
    return out
