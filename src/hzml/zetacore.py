"""Derivatives of the Riemann zeta function in the critical strip.

The workhorse is Euler-Maclaurin summation carried in jet (truncated Taylor)
arithmetic, so one pass produces zeta(s), zeta'(s), ..., zeta^(mu)(s)
simultaneously:

    zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_{r=1}^{q} B_{2r}/(2r)! * s(s+1)...(s+2r-2) * N^(-s-2r+1)
              + R_q(N, s)

Every piece is expanded in h around s: the Dirichlet terms contribute
n^-s (-log n)^a / a!, the tail is an exponential jet times a geometric jet in
1/(s-1), and the correction polynomials are built by multiplying linear jets.
Both q = 12 and the truncation rule are constants of the module: N is the
least multiple of 16 at or above max(30, |t| (0.5 + 0.05 mu_max)), so it
grows linearly with |t| (at most 55,008, at the height cap with mu_max = 12)
and the first omitted correction term stays far below the 1e-12 absolute
target everywhere in the strip.

That target bounds the truncation remainder only, not roundoff. The phases
t log n mod 2 pi of the Dirichlet terms are reduced exactly against the
one table of log n / 2 pi (phase._log_table, exact double-double splits
for every n the strip can need), so a phase is within 2.3e-16 radians in
double, and 8e-18 on the longdouble path, at every height (_phase_matrix).
The magnitudes, cos/sin and sums then run in double precision up to jet
order 3 and in longdouble from order 4 (for the whole call: the path is a
function of mu_max alone, so batches are grouped by N only). The order-a
sums weight the terms n^-s by (log n)^a / a!, so their roundoff grows with
the order, and hardyz's binomial sum for Z^(k) then cancels terms of size
(log N)^k down to Z^(k). At the zeros of Z^(4) near t = 4e4, scaled
(1 + |Z|), order-4 jets are 4.1e-12 off in double and 3.7e-13 in
longdouble, whose jets are rounded to double before that sum. Near
sigma = -1 at small t the Dirichlet terms n^-sigma (log n)^2 reach ~300
while zeta'' itself is ~0.1: measured against mpmath, zeta'' at
-0.9453125 - 2i is off by 1.5e-12 (on the longdouble path by 4e-16), and
raising q to 20 changes no bit.
The bound the tests check is 1e-11 * max(max_d |zeta^(d)(s)|, 1)
(tests/test_zetacore.py, test_jets_match_mpmath and test_conjugate_symmetry).

Which points these jets serve: every point off the critical line, and on
the line the heights below 2 pi 5^2 = 157.08. From there up hardyz takes
Z^(j) on the line from the Riemann-Siegel jets (riemann_siegel), which
need floor(sqrt(t / 2 pi)) = 5..89 terms where these need N ~ (0.5 + 0.05
mu) t; with the remainder through C_12..C_5 they are within 3.0e-15 of
mpmath for Z and Z' on [157, 1e4], where these jets are within 5.6e-15,
at a third of the cost or less (hardyz._RS_MIN_T). The longdouble path
therefore runs on the line only below 157, where Z^(j), j <= 8, is
within 6.2e-13 of mpmath at 160 random heights, and within 3.5e-14 below
t = 30 (tests/test_riemann_siegel.py, test_em_matches_siegelz_below_crossover).

The Stieltjes constants c_0..c_17 are literals: mpmath's values rounded
to double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bernoulli import bernoulli_float
from .errors import DomainError, PoleProximityError
from .jets import derivatives_from_jet, jet_exp_of_scalar, jet_mul, jet_mul_linear
from .phase import _TWO_PI, _log_table, _reduce_turns, _turns_to_radians

SIGMA_MIN = -1.0
SIGMA_MAX = 2.0
T_CAP = 5.0e4
MU_CAP = 12
POLE_RADIUS = 1e-6
# Number q of Euler-Maclaurin correction terms (B_2 .. B_2q).
_BERNOULLI_TERMS = 12

# Dirichlet rows are processed in chunks of at most this many (point, n)
# entries: the phase, magnitude and cos/sin passes are memory bound, and the
# chunk's real temporaries (125 KB each in double) stay in L2 and below
# glibc's 128 KiB mmap threshold, so the heap reuses them. Chunks of 65,536
# entries made z_deriv_many(t, 0), t in [100, 999], 1.25x slower, and of 4M
# entries 1.4x slower.
_CHUNK_ENTRIES = 16_000


@dataclass(frozen=True)
class ComplexPoint:
    """A point s = sigma + i t inside the working strip."""

    sigma: float
    t: float

    def __post_init__(self) -> None:
        if not (SIGMA_MIN < self.sigma < SIGMA_MAX):
            raise DomainError(f"sigma={self.sigma} outside ({SIGMA_MIN}, {SIGMA_MAX})")
        if not (abs(self.t) <= T_CAP and math.isfinite(self.t)):
            raise DomainError(f"|t|={abs(self.t)} exceeds cap {T_CAP}")

    @property
    def s(self) -> complex:
        return complex(self.sigma, self.t)

    @classmethod
    def from_complex(cls, s: complex) -> "ComplexPoint":
        return cls(float(s.real), float(s.imag))


def _validate_points(s: np.ndarray) -> None:
    sig = s.real
    t = s.imag
    if not np.all(np.isfinite(sig)) or not np.all(np.isfinite(t)):
        raise DomainError("non-finite evaluation point")
    if np.any(sig <= SIGMA_MIN) or np.any(sig >= SIGMA_MAX):
        raise DomainError("sigma outside the open strip (-1, 2)")
    if np.any(np.abs(t) > T_CAP):
        raise DomainError(f"|t| exceeds cap {T_CAP}")
    if np.any(np.abs(s - 1.0) < POLE_RADIUS):
        raise PoleProximityError("evaluation point within 1e-6 of s = 1")


def _n_terms(t_abs: float, mu_max: int) -> int:
    # Linear-in-|t| truncation; the mu-dependent bump keeps the differentiated
    # remainder (which gains (log N)^mu) inside the error budget.
    n = max(30, math.ceil(t_abs * (0.5 + 0.05 * mu_max)))
    return 16 * ((n + 15) // 16)


def _phase_matrix(t: np.ndarray, cols: slice, fdtype) -> np.ndarray:
    """t_p * log(n) reduced mod 2 pi into [-pi, pi], shape (P, len(n)), for
    the n of the log table's columns `cols`, returned in fdtype.

    The reduction (phase._reduce_turns) is exact and the table's rows are
    the exact splits of log n / 2 pi, so the phase error is the final
    rounding: 2.3e-16 radians in double, and 8e-18 in longdouble, where
    the parts are added and scaled by 2 pi in longdouble. A double product
    t log n would already lose ~|t log n| * 1e-16 radians."""
    tab = _log_table()
    x, corr = _reduce_turns(t[:, None], tab.u_hi[cols], tab.u_lo[cols], tab.u[cols])
    if fdtype is np.longdouble:
        x = x.astype(np.longdouble)
        x += corr
        x *= np.longdouble(_TWO_PI[0]) + _TWO_PI[1]
        return x
    return _turns_to_radians(x, corr)


def _em_group(sg: np.ndarray, n_terms: int, mu_max: int, use_ld: bool) -> np.ndarray:
    """Derivatives (P, mu_max+1) of zeta at a batch sharing one truncation N.

    log n and the phases t log n mod 2 pi for n <= N are read from the one
    cached log table (_phase_matrix), whatever the path. With use_ld (jet
    order 4 and up, see the module docstring) the magnitudes, cos/sin,
    weights and sums are carried in longdouble; otherwise everything runs
    in double.
    """
    m1 = mu_max + 1
    p = sg.shape[0]
    cdtype = np.clongdouble if use_ld else np.complex128
    fdtype = np.longdouble if use_ld else np.float64
    half = fdtype(0.5)
    coeffs = np.zeros((p, m1), dtype=cdtype)
    sig = sg.real.astype(fdtype)
    sgl = sg.astype(cdtype)

    # Dirichlet block sum_{n<N} n^-s, differentiated termwise. log n is
    # logn + logn_lo, which is logn itself in double.
    tab = _log_table()
    dirichlet = slice(0, n_terms - 1)
    logn = tab.logn[dirichlet].astype(fdtype) + tab.logn_lo[dirichlet]
    weights = np.empty((m1, n_terms - 1), dtype=fdtype)
    weights[0] = 1.0
    for a in range(1, m1):
        weights[a] = weights[a - 1] * (-logn) / fdtype(a)
    rows_per_chunk = max(1, _CHUNK_ENTRIES // n_terms)
    for lo in range(0, p, rows_per_chunk):
        hi = min(lo + rows_per_chunk, p)
        mag = np.exp(-np.multiply.outer(sig[lo:hi], logn))
        phase = _phase_matrix(sg[lo:hi].imag, dirichlet, fdtype)
        bre = mag * np.cos(phase)
        bim = -mag * np.sin(phase)
        for a in range(m1):
            coeffs[lo:hi, a].real = np.sum(bre * weights[a][None, :], axis=1)
            coeffs[lo:hi, a].imag = np.sum(bim * weights[a][None, :], axis=1)

    logN = fdtype(tab.logn[n_terms - 1]) + tab.logn_lo[n_terms - 1]
    phase_n = _phase_matrix(sg.imag, slice(n_terms - 1, n_terms), fdtype)[:, 0]
    npow = np.exp(-sig * logN) * (np.cos(phase_n) - 1j * np.sin(phase_n)).astype(cdtype)
    a0 = jet_exp_of_scalar(npow, -logN, mu_max)

    # midpoint term N^-s / 2
    coeffs += half * a0

    # tail N^(1-s)/(s-1)
    sm1 = sgl - 1.0
    geo = np.empty((p, m1), dtype=cdtype)
    geo[:, 0] = 1.0 / sm1
    for a in range(1, m1):
        geo[:, a] = -geo[:, a - 1] / sm1
    coeffs += jet_mul(a0 * n_terms, geo)

    # Bernoulli corrections with rising-factorial jets s(s+1)...(s+2r-2)
    rising = np.zeros((p, m1), dtype=cdtype)
    rising[:, 0] = sgl
    if m1 > 1:
        rising[:, 1] = 1.0
    scale = fdtype(1.0) / n_terms
    for r in range(1, _BERNOULLI_TERMS + 1):
        if r > 1:
            rising = jet_mul_linear(rising, sgl + (2 * r - 3))
            rising = jet_mul_linear(rising, sgl + (2 * r - 2))
        b = fdtype(bernoulli_float(2 * r)) / math.factorial(2 * r)
        coeffs += (b * scale ** (2 * r - 1)) * jet_mul(rising, a0)

    return derivatives_from_jet(coeffs).astype(np.complex128)


def zeta_jets(s: np.ndarray, mu_max: int) -> np.ndarray:
    """zeta^(mu)(s_p) for mu = 0..mu_max, shape (len(s), mu_max+1).

    Each point's value depends only on the point itself (the truncation
    length is a pure function of |t|, and the precision path of mu_max),
    so any partition of the batch reproduces identical bits.
    """
    if not (0 <= mu_max <= MU_CAP):
        raise DomainError(f"mu_max={mu_max} outside 0..{MU_CAP}")
    s = np.ascontiguousarray(np.asarray(s, dtype=complex).ravel())
    _validate_points(s)

    out = np.empty((s.shape[0], mu_max + 1), dtype=complex)
    lengths = np.array([_n_terms(ta, mu_max) for ta in np.abs(s.imag)])
    use_ld = mu_max >= 4
    for n_terms in sorted(set(lengths.tolist())):
        mask = lengths == n_terms
        out[mask] = _em_group(s[mask], n_terms, mu_max, use_ld)
    return out


def zeta_deriv(s: complex, mu: int = 0) -> complex:
    """mu-th derivative of zeta at a single strip point."""
    if not (0 <= mu <= MU_CAP):
        raise DomainError(f"mu={mu} outside 0..{MU_CAP}")
    return complex(zeta_jets(np.array([s]), mu)[0, mu])


# ---------------------------------------------------------------------------
# Stieltjes constants


@dataclass(frozen=True)
class StieltjesTable:
    """Immutable table of c_0..c_17 around the Laurent expansion
    zeta(s) = 1/(s-1) + sum_n (-1)^n c_n (s-1)^n / n!."""

    values: tuple[float, ...]

    def __getitem__(self, n: int) -> float:
        return self.values[n]


# c_n = float(mpmath.stieltjes(n)), the correctly rounded doubles
_STIELTJES = StieltjesTable(
    values=(
        0.5772156649015329,
        -0.07281584548367673,
        -0.00969036319287232,
        0.002053834420303346,
        0.0023253700654673,
        0.0007933238173010627,
        -0.0002387693454301996,
        -0.000527289567057751,
        -0.0003521233538030395,
        -3.439477441808805e-05,
        0.0002053328149090648,
        0.0002701844395439035,
        0.0001672729121051402,
        -2.7463806603760158e-05,
        -0.00020920926205929996,
        -0.0002834686553202414,
        -0.00019969685830896976,
        2.6277037109918338e-05,
    )
)


def stieltjes_table() -> StieltjesTable:
    """The table of c_0..c_17."""
    return _STIELTJES


def stieltjes(n: int) -> float:
    """c_n for 0 <= n <= 17."""
    if not (0 <= n <= 17):
        raise DomainError("stieltjes supports n = 0..17")
    return _STIELTJES[n]
