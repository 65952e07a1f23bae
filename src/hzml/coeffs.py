"""Five-term discrete-moment prediction and its combinatorial identities.

The predicted value of sum_{0<gamma_k<=T} |Z^(j)(gamma_k)|^2 splits into
five terms over T L^{2j+2}, L = log(T/2pi), driven by the inverse power
sums S_u = sum_g theta_g^{-u} of the truncated-exponential roots:

    delta_{0,k} / (2^{2j+1}(2j+1) pi)
  - (k+1)(1+(-1)^j) / (2^{2j+2}(j+1)^2 pi)
  + sum_{u=1}^{j} (-1)^u j! S_{u+1} / ((2j+1-u)(j-u)! 2^{2j+1} pi)
  + (-1)^{j+1} (j!)^2 S_{2j+2} / (2^{2j+2} pi)
  + (-1)^j (j!)^2 sum_g x_g theta_g^{-(2j+2)} E_j(theta_g)^2 / (2^{2j+2} pi)

with x_g = (T/2pi)^{z_g-1}; under the first-order location
z_g = 1 - 2 theta_g / L it equals e^{-2 theta_g}, and the prediction uses
e^{-2 theta_g} in both modes. Empty-sum conventions: the u-sum vanishes
for j=0, and all root-driven terms vanish for k=0.

All five coefficients of T L^{2j+2} / pi are exact Fractions, from the
power sums p_n = sum_g theta_g^n of thetaroots (integers for n > 0,
Fractions for n < 0); the exp term is the power series of e^{-2 theta}
summed to a tail below 1e-61. So the diagonal C_{k,k} = 0 is a literal
zero, and per_TL = C_{j,k} is their exact sum rounded once. total is
C_{j,k} T L^{2j+2}, not the sum of the five rounded terms, which can
cancel to far below their size (j >= 11).

raw_assembled_total() rebuilds the same value from the pre-simplification
nested sums (the (mu, nu, lambda, g) quadruple sum split at
u = mu + nu + 1 - lambda) over the floating roots of trunc_exp_roots; it
and step4_sums are the root-side oracle for every simplification step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, ImaginaryLeakError
from .hardyz import window_log
from .thetaroots import exact_power_sums, root_power_sums, trunc_exp_roots, z_from_theta

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


# 1/pi to 40 digits: one product with it leaves every float below within
# an ulp of the exact rational-over-pi value
_INV_PI = Fraction("0.3183098861837906715377675267450287240689")


def _exp_sum(j: int, k: int) -> Fraction:
    """sum_g e^{-2 theta_g} theta_g^{-(2j+2)} E_j(theta_g)^2 from exact power
    sums: sum_{m>=0} (-2)^m/m! sum_{a,b<=j} p_{m+a+b-2j-2} / (a! b!).

    |theta_g| <= k, so stopping at m = ceil(2ek) + 60 leaves a tail below
    1e-61 of the sum. On the diagonal j = k every root's term carries
    E_k(theta_g)^2 = 0, and the exact power sums make the result a literal 0.
    """
    m_max = math.ceil(2 * math.e * k) + 60
    inv = exact_power_sums(k, 2 * J_CAP + 2)
    pos = root_power_sums(k, m_max)

    def p(n: int):
        return pos[n - 1] if n > 0 else inv[-n - 1] if n < 0 else k

    # c[s] = (2j)! sum_{a+b=s; a,b<=j} 1/(a! b!), an integer
    f = math.factorial
    c = [
        sum(f(2 * j) // (f(a) * f(s - a)) for a in range(max(0, s - j), min(s, j) + 1))
        for s in range(2 * j + 1)
    ]
    acc = Fraction(0)
    for m in range(m_max + 1):
        x = sum(c[s] * p(m + s - 2 * j - 2) for s in range(2 * j + 1))
        acc += Fraction((-2) ** m, f(m)) * x
    return acc / f(2 * j)


@lru_cache(maxsize=None)
def _terms(j: int, k: int) -> tuple[Fraction, ...]:
    """Coefficients of T L^{2j+2} / pi for the five terms, exact."""
    q_delta = Fraction(1, 2 ** (2 * j + 1) * (2 * j + 1)) if k == 0 else Fraction(0)
    q_cg = -Fraction((k + 1) * (1 + (-1) ** j), 2 ** (2 * j + 2) * (j + 1) ** 2)
    q_u = Fraction(0)
    q_p = Fraction(0)
    q_exp = Fraction(0)
    if k >= 1:
        p = exact_power_sums(k, 2 * J_CAP + 2)
        for u in range(1, j + 1):
            q_u += (
                Fraction(math.factorial(j) * (-1) ** u,
                         (2 * j + 1 - u) * math.factorial(j - u))
                * p[u]
            )
        q_u /= 2 ** (2 * j + 1)
        coef = Fraction((-1) ** j * math.factorial(j) ** 2, 2 ** (2 * j + 2))
        q_p = -coef * p[2 * j + 1]
        q_exp = coef * _exp_sum(j, k)
    return q_delta, q_cg, q_u, q_p, q_exp


def breakdown(
    j: int,
    k: int,
    T: float | None = None,
    mode: str = "finite",
) -> CoefficientBreakdown:
    """Five-term prediction at (j, k).

    Each term is its exact coefficient over pi, rounded once, times
    T L^{2j+2}; per_TL is C_{j,k}, the exact sum of the five coefficients
    rounded once, and total is per_TL T L^{2j+2}. The mode only sets T:
    finite mode needs T >= 100, asymptotic mode defaults it to 1e6.
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

    q = _terms(j, k)
    term_delta, term_cg, term_u, term_p2j2, term_exp = (
        float(x * _INV_PI) * scale for x in q
    )
    per_tl = float(sum(q) * _INV_PI)
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
        total=per_tl * scale,
        per_TL=per_tl,
    )


def asymptotic_coefficient(j: int, k: int) -> float:
    """C_{j,k} with the prediction written as C_{j,k} T L^{2j+2}: breakdown's
    per_TL, which holds no T."""
    return breakdown(j, k, mode="asymptotic").per_TL


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
