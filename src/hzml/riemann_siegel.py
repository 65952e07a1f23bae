"""Hardy's Z and its derivatives on the critical line by the Riemann-Siegel
formula.

With a = sqrt(t / 2 pi), N = floor(a) and p = a - N,

    Z(t) = 2 sum_{n<=N} n^(-1/2) cos(theta(t) - t log n)
           + (-1)^(N-1) sum_{k=0}^{K} C_k(p) a^(-1/2-k) + O(a^(-3/2-K)),

where C_k are Gabcke's remainder terms, C_0 = Psi(p) = cos 2 pi (p^2 - p -
1/16) / cos 2 pi p (Gabcke 1979; Arias de Reyna, Math. Comp. 2011). K is
set per N (correction_terms): 9 at N = 12 (t = 905), down to 6 at N = 39,
and 4 from N = 40 (t = 10053) up. Both parts are carried as real jets in h
at t + h with N held fixed, so one pass gives Z^(0..m)(t): the main sum as
2 Re[E(h) S(h)], with S_a the order-a Dirichlet weights (kappa - log n)^a /
a! centred on kappa = theta'(t) and E(h) the jet of exp(i (theta(t + h) -
theta(t) - kappa h)), which starts at order 2; the remainder by composing
the Taylor series of C_k at p with the binomial series of p(t + h) - p and
a(t + h)^(-1/2-k) in h / t.

Largest gap from mpmath's siegelz formula at 30 digits, scaled
1 + |Z^(j)|, at the heights of test_rs_matches_siegelz_below_1e4 (N steps
included):

    [1e3, 1e4]               j <= 1, 100 points   j <= 4, 20 points
    Riemann-Siegel, K 9..6   3.0e-15              9.2e-15
    Euler-Maclaurin          2.8e-15              1.9e-14

From t = 10053 up, where K = 4, Z is off by up to 6.5e-14 near 1.06e4 and
7e-15 near 2e4.

theta(t) and t log n enter the main sum at first order, so both are
reduced mod 2 pi exactly (phase.theta_reduced, phase._reduce_turns), with
log n / 2 pi from the first N rows of the one table of log n / 2 pi
(phase._log_table) and theta's jet from its Stirling series
(phase.theta_derivatives).

C_k is entire and has the parity of k in x = p - 1/2; its Taylor series in
x (_C_SERIES) gives every C_k^(r), r <= 9, on |x| <= 1/2. Every quantity
is a function of the point alone, and the sums over n run per truncation
N, so a point's bits do not depend on the batch.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .phase import _log_table, _reduce_turns, _turns_to_radians, theta_derivatives, theta_reduced
from .zetacore import T_CAP

# Taylor coefficients of C_k(1/2 + x) for k = 0..12, in x^(k mod 2), x^(2 +
# k mod 2), ...: Arias de Reyna's terms (Math. Comp. 2011, from the Taylor
# coefficients c_2n of F(z) = (e^(pi i (z^2/2 + 3/8)) - i sqrt(2) cos(pi z/2))
# / (2 cos pi z)) regrouped with the Stirling series of theta into Gabcke's
# real C_k, at 200 digits (mpmath), rounded to double. C_0 is Psi. Each
# series stops where the rest changes C_k^(r)(p) a^(-1/2-k) (2 pi a)^-r, for
# r <= 9 and a >= 12, by less than 1e-19.
_C_SERIES = (
    (
        0.3826834323650898, 1.7489618723100817, 2.118025207685496,
        -0.8707216670511481, -3.4733112243465167, -1.6626947308999325,
        1.216731288919232, 1.3014304161007977, 0.03051102182736167,
        -0.3755803051545095, -0.1085784416564066, 0.051832902999549624,
        0.029999480619902277, -0.0022759396706125644, -0.004382647416580339,
        -0.0004064230183729847, 0.0004006097785422114, 8.971057991388841e-05,
        -2.3025650027239108e-05, -9.380006601906792e-06, 6.323514947609108e-07,
    ),
    (
        -0.053650205256750697, 0.11027818741081483, 1.2317200154315227,
        1.2634964862799458, -1.695108997559503, -2.9998711967650102,
        -0.10819944959899208, 1.9407662946212714, 0.7838423561500687,
        -0.5054829667900366, -0.38450723496057976, 0.03747264646531532,
        0.09092026610973176, 0.01044923755006451, -0.012582979651583417,
        -0.003399503721151274, 0.0010410950537714891, 0.0005010949051118486,
        -3.956359669003182e-05, -4.7624592453571896e-05,
    ),
    (
        0.005188542830293168, 0.0012378633552253898, -0.18137505725166997,
        0.14291492748532125, 1.3303391766687565, 0.3522472353403734,
        -2.421001595891951, -1.6760787022538108, 1.3689416723328371,
        1.5539019430222982, -0.1722164273472998, -0.6359068055045431,
        -0.09911649873041208, 0.14033480067387008, 0.04782352019827292,
        -0.017356040641479782, -0.010225012534028593, 0.0009274149159794888,
        0.0013572194372373386, 6.41369012029388e-05, -0.0001230080569819663,
    ),
    (
        -0.0026794321814389136, 0.02995372109103515, -0.042570172541828696,
        -0.28997965779803886, 0.4888831999235446, 1.230855876395746,
        -0.8297560708527408, -2.249763536666567, 0.07845139961005472,
        1.7467492800868893, 0.45968080979749937, -0.6619353471039775,
        -0.31590441036173633, 0.12844792545207495, 0.10073382716626152,
        -0.009530183848825268, -0.019264421687514088, -0.001246463715876929,
        0.0024243969641103086, 0.000437647697741857,
    ),
    (
        0.00046483389361763383, -0.004022642946136188, 0.003847177051796127,
        0.06581175135809486, -0.19604124343694448, -0.20854053686358853,
        0.9507754185141751, 0.5341535312914873, -1.67634944117634,
        -1.076747157875129, 1.235339301656597, 1.0257825340057276,
        -0.40124095793988546, -0.5036663995108304, 0.03573487795502745,
        0.14431763086785418, 0.01509152741790347, -0.026098874779194363,
        -0.006126628379519262, 0.003077503129870841,
    ),
    (
        0.00022686811845737363, 0.0011081246853718388, -0.016218579255550092,
        0.052765034053987414, 0.02570880200903324, -0.38058660440806397,
        0.22531987892642316, 1.0344573316495222, -0.5528257697050813,
        -1.5287712641078073, 0.32828366427719585, 1.229110218540087,
        0.040936939383115295, -0.558604047264202, -0.11241976368059116,
        0.1521267771179559, 0.051737188455280386, -0.025612276897007284,
        -0.012963672514046178,
    ),
    (
        3.369099840108094e-05, -0.00048730387277374067, 0.0034913041151209494,
        -0.010636181410824536, -0.007962052861482919, 0.1237587562368654,
        -0.1849404122581205, -0.30393580239679546, 0.7612833126395632,
        0.4067440568556812, -1.2301721808541708, -0.5117640855696522,
        0.9962463615472547, 0.47056716161861106, -0.4414445866526114,
        -0.25918493310535273, 0.11117688993542343, 0.08794868546608423,
    ),
    (
        6.612479918279905e-05, -0.00044670409577338735, 0.0010840232068089312,
        0.005028543891765806, -0.03886148551530864, 0.07707956741410073,
        0.06355969744063397, -0.4074596273039508, 0.1803375211195864,
        0.8064302485606453, -0.5178358018314444, -0.9482271795820716,
        0.4719558561190385, 0.7154101522815643, -0.19296662747432222,
        -0.3455616621306974,
    ),
    (
        2.4197536136117965e-06, -1.611352277070405e-05, 0.0002171808253299485,
        -0.0023441555503488335, 0.01155263179636765, -0.02392447916109697,
        -0.015530804396368813, 0.16805457215955893, -0.20767893102427126,
        -0.2705105627343296, 0.6603245174239842, 0.17484629360273835,
        -0.9023846153142663, -0.09498217340106974, 0.7024752578716655,
        0.09268759838045737,
    ),
    (
        1.376824100605469e-05, -0.00010836427024418868, 0.0006961287408707673,
        -0.002815328661230075, 0.00521128162812441, 0.007856763175787419,
        -0.06487760215296878, 0.11518596547976107, 0.04895275610619873,
        -0.3984619535620612, 0.238884035084224, 0.5548514525057807,
        -0.5214374827560175, -0.4863022480161819,
    ),
    (
        -2.000102517333251e-07, 1.0991501782401885e-05, -0.00010166242807169727,
        0.0003909897258050479, -0.00026736362667853134, -0.004837981715604847,
        0.024729580718188874, -0.04929616638531094, -0.00011394985522762532,
        0.18470186771797276, -0.25652183258970757, -0.15371365234913448,
        0.5595524945513238,
    ),
    (
        2.1165343104016636e-06, -6.113233459416969e-06, 4.152717215400545e-05,
        -0.00038682933931457095, 0.002373048024098571, -0.008852454011086692,
        0.01741345863882657, -0.0012712916000469617, -0.07959730639378094,
        0.16172806405795673,
    ),
    (
        -1.5083686683859693e-07, 3.451523827064601e-06, -3.163079970682538e-05,
        0.00018477881939289544, -0.0008212214504547484, 0.00262077286534659,
    ),
)

# correction_terms: the truncation after C_K is estimated by C_(K+1)..C_12
# at their largest over p, with a = N, and kept under _TRUNCATION, 10x below
# Euler-Maclaurin's roundoff on Z. From N = 40 (t >= 10053) up K stays 4,
# as it was above 1e4: Z is then off by up to 6.5e-14 (measured against
# mpmath on [10053, 11000]), and those heights keep their cost. N = 39
# starts at t = 9557, where C_4 alone leaves 1.3e-13, so it takes K from
# the estimate.
_TRUNCATION = 1e-16
_K_MIN = 4
_N_K_MIN = 40

# the jets go to order 9 = K_CAP + 1
_M_CAP = 9


def _binomial_series(alpha: float, m: int) -> list[float]:
    """Coefficients of u^0..u^m in (1 + u)^alpha."""
    return [math.prod(alpha - i for i in range(r)) / math.factorial(r) for r in range(m + 1)]


def _series_derivatives(n_c: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """G[(k, r), j] and the rows' parity: C_k^(r)(1/2 + x) = sum_j G[(k, r),
    j] y^j, times x in the odd rows, with y = x^2, for k < n_c and r <= m;
    rows run k-major."""
    width = max(len(c) for c in _C_SERIES)
    g = np.zeros((n_c * (m + 1), width))
    for k in range(n_c):
        for r in range(m + 1):
            for i, c in enumerate(_C_SERIES[k]):
                e = 2 * i + k % 2
                if e >= r:
                    g[k * (m + 1) + r, (e - r) // 2] = c * float(math.perm(e, r))
    odd = np.array([(k + r) % 2 == 1 for k in range(n_c) for r in range(m + 1)])
    return g, odd


def _remainder_tensor(n_c: int, m: int) -> np.ndarray:
    """T[(k, r), l]: the coefficient of u^l in (1 + u)^(-1/4 - k/2) times
    ((1 + u)^(1/2) - 1)^r, divided by r!, for k < n_c and r, l <= m."""
    m1 = m + 1
    half = _binomial_series(0.5, m)
    half[0] = 0.0
    powers = [[1.0] + [0.0] * m]
    for _ in range(m):
        prev = powers[-1]
        powers.append([sum(prev[i] * half[l - i] for i in range(l + 1)) for l in range(m1)])
    out = np.zeros((n_c, m1, m1))
    for k in range(n_c):
        beta = _binomial_series(-0.25 - 0.5 * k, m)
        for r in range(m1):
            for l in range(m1):
                out[k, r, l] = sum(beta[i] * powers[r][l - i] for i in range(l + 1))
            out[k, r] /= math.factorial(r)
    return out.reshape(n_c * m1, m1)


@lru_cache(maxsize=None)
def _remainder_table(n_c: int, m: int):
    """The remainder's tables for C_0..C_(n_c - 1) and jets of order m,
    folded once: _series_derivatives, the exponent r - 1/2 - k of a in each
    row, and _remainder_tensor."""
    g, odd = _series_derivatives(n_c, m)
    expo = (np.arange(m + 1)[None, :] - 0.5 - np.arange(n_c)[:, None]).ravel()
    tables = (g, odd, expo, _remainder_tensor(n_c, m))
    for tab in tables:
        tab.flags.writeable = False
    return tables


def _c_max() -> np.ndarray:
    """max |C_k(p)| over p in [0, 1], k = 0..12, on a grid of 1001 points."""
    x = np.linspace(-0.5, 0.5, 1001)
    return np.array(
        [np.abs(x ** (k % 2) * np.polyval(c[::-1], x * x)).max() for k, c in enumerate(_C_SERIES)]
    )


@lru_cache(maxsize=None)
def correction_terms(n_terms: int) -> int:
    """K, the last Gabcke term C_K kept for truncation N = n_terms: 4 from
    N = 40 up, else the fewest (at least 4) whose omitted terms, each at its
    largest (on the stored series) times N^(-1/2-k), sum below 1e-16: K = 9
    at N = 12 (t >= 905), 8 at N = 13..16, 7 at N = 17..29 and 6 at
    N = 30..39."""
    if n_terms >= _N_K_MIN:
        return _K_MIN
    terms = _c_max() * float(n_terms) ** (-0.5 - np.arange(len(_C_SERIES)))
    k = _K_MIN
    while terms[k + 1 :].sum() > _TRUNCATION:
        k += 1
    return k


def _main_sum(t: np.ndarray, n_terms: int, m: int, dtheta: np.ndarray) -> np.ndarray:
    """Taylor coefficients in h of 2 Re[e^(i theta(t+h)) sum_{n<=N}
    n^(-1/2) e^(-i (t+h) log n)], shape (P, m+1), for one N."""
    tab = _log_table()
    cols = slice(0, n_terms)
    u_hi, u_lo, u, logn = tab.u_hi[cols], tab.u_lo[cols], tab.u[cols], tab.logn[cols]
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
    """Taylor coefficients in h of (-1)^(N-1) sum_{k<=K} C_k(p) a^(-1/2-k)
    at t + h, with p = a - N and K = correction_terms(N), shape (P, m+1),
    for one N.

    With u = h/t, p(t + h) - p = a ((1 + u)^(1/2) - 1) and
    a(t + h)^(-1/2-k) = a^(-1/2-k) (1 + u)^(-1/4-k/2), so the coefficient
    of h^l is t^-l sum_{k,r} C_k^(r)(p) a^(r-1/2-k) T[k, r, l] / r!. Both
    contractions are einsums over each point's own row, so a point's bits do
    not depend on the batch (a BLAS product would not promise that)."""
    g, odd, expo, tensor = _remainder_table(correction_terms(n_terms) + 1, m)
    x = a - n_terms - 0.5
    v = np.einsum("pj,qj->pq", (x * x)[:, None] ** np.arange(g.shape[1]), g)
    v[:, odd] *= x[:, None]
    v *= a[:, None] ** expo
    out = np.einsum("pq,ql->pl", v, tensor)
    out *= t[:, None] ** -np.arange(m + 1, dtype=float)
    return out if n_terms % 2 else -out


# rows of one chunk: the (rows, N) main-sum temporaries stay small
_CHUNK_ROWS = 512
# the truncations N the kernel serves: from N = 12 (t = 905), where
# correction_terms' estimate starts, to N = 89 at the height cap
_N_SPAN = (12, math.isqrt(int(T_CAP / (2.0 * math.pi))))


def rs_z_jets(t: np.ndarray, m: int) -> np.ndarray:
    """Z^(r)(t) for r = 0..m <= 9, shape (P, m+1), for critical-line heights
    1e3 <= t <= T_CAP (theta's Stirling tail holds from there). Points are
    grouped by N = floor(sqrt(t / 2 pi)), which sets the length of the main
    sum, the number of remainder terms and the sign of the remainder, and
    p = a - N is taken from the same a. A group outside N = 12..89 (t below
    905 or above 50,893, or not finite) raises DomainError."""
    if not (0 <= m <= _M_CAP):
        raise DomainError(f"jet order m={m} outside 0..{_M_CAP}")
    t = np.ascontiguousarray(np.asarray(t, dtype=float).ravel())
    a = np.sqrt(t / (2.0 * math.pi))
    big_n = np.floor(a)
    groups = np.unique(big_n)
    if groups.size and not (_N_SPAN[0] <= groups[0] and groups[-1] <= _N_SPAN[1]):
        raise DomainError(f"t outside the Riemann-Siegel range (N = {_N_SPAN[0]}..{_N_SPAN[1]})")
    fact = np.array([math.factorial(r) for r in range(m + 1)], dtype=float)
    out = np.empty((t.shape[0], m + 1))
    for n_terms in groups.astype(int).tolist():
        idx = np.nonzero(big_n == n_terms)[0]
        for lo in range(0, idx.size, _CHUNK_ROWS):
            rows = idx[lo : lo + _CHUNK_ROWS]
            tr = t[rows]
            jet = _main_sum(tr, n_terms, m, theta_derivatives(tr, max(m, 1)))
            jet += _remainder(tr, a[rows], n_terms, m)
            out[rows] = jet * fact
    return out
