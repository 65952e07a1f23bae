"""Riemann-Siegel jets on the critical line.

Oracles: mpmath's siegelz formula (zeta and its derivatives by
Euler-Maclaurin at 30 digits), mpmath's own Riemann-Siegel core (Arias de
Reyna's algorithm, mpmath.functions.rszeta, above 1e4), mpmath's
siegeltheta, and the Euler-Maclaurin line core of this package, which
shares only the phase table with the Riemann-Siegel kernel. The remainder
coefficients are regenerated from the Taylor coefficients of F, which
mpmath's own _coef pins, and C_0..C_4 are checked against Gabcke's closed
forms in the derivatives of Psi.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from mpmath.functions.rszeta import Rzeta_set, _coef

import hzml.hardyz as hz
from hzml.errors import DomainError
from hzml.hardyz import _RS_MIN_T, z_deriv_many, z_pair_many
from hzml.phase import theta_derivatives, theta_reduced
from hzml.riemann_siegel import (
    _C_SERIES,
    _N_SPAN,
    _series_derivatives,
    correction_terms,
    rs_z_jets,
)
from hzml.zetacore import T_CAP

# the jets reach C_k^(9)
_R_MAX = 9


def _f_coefficients(n_terms: int) -> list:
    """c_0, c_2, ..., c_(2 n_terms - 2) of F(z) = (e^(pi i (z^2/2 + 3/8)) -
    i sqrt(2) cos(pi z/2)) / (2 cos pi z), by series division in z^2 (at
    the caller's precision, which must cover the cancellation: the c_2n
    fall like 1e-99 at n = 89)."""
    pi = mp.pi
    num = [
        mp.expjpi(mp.mpf(3) / 8) * (0.5j * pi) ** n / mp.factorial(n)
        - 1j * mp.sqrt(2) * (-1) ** n * (pi / 2) ** (2 * n) / mp.factorial(2 * n)
        for n in range(n_terms)
    ]
    den = [2 * (-1) ** n * pi ** (2 * n) / mp.factorial(2 * n) for n in range(n_terms)]
    c = []
    for n in range(n_terms):
        c.append((num[n] - sum(c[i] * den[n - i] for i in range(n))) / den[0])
    return c


def _c_series(k_max: int, degree: int) -> list:
    """C_k(1/2 + x) = sum_i C[k][i] x^i for k <= k_max, i <= degree.

    Arias de Reyna's k-th term (Math. Comp. 2011, at sigma = 1/2) is
    T_k(p) = sum_l d[k, l] F^(3k - 2l)(1 - 2p) / (pi^(2k - l) (2i)^l), with
    d from his recursion, and the remainder of Z is (-1)^(N-1) a^(-1/2)
    2 Re[e^(i (theta - theta_0)) sum_k T_k a^-k], theta_0 = (t/2) log(t /
    2 pi) - t/2 - pi/8. theta - theta_0 = sum_j b_j t^(1-2j) with t =
    2 pi a^2, so with e^(i (theta - theta_0)) = sum_m e_m a^(-2m),
    C_k = 2 Re sum_m e_m T_(k-2m)."""
    n_c = degree // 2 + 3 * k_max // 2 + 4
    c = _f_coefficients(n_c)
    d = {(0, 0): mp.mpf(1)}
    for n in range(1, k_max + 1):
        for k in range(3 * n // 2 + 1):
            m = 3 * n - 2 * k
            if m:
                d[n, k] = -(m + 1) * d.get((n - 1, k - 2), 0) + d.get((n - 1, k), 0) / (4 * m)
            else:
                d[n, k] = -sum(
                    (-1) ** (k - r) * d[n, r] * mp.factorial(2 * k - 2 * r) / mp.factorial(k - r)
                    for r in range(k)
                )

    def f_derivative(e):
        # F^(e)(-2x) as a series in x
        out = [mp.mpc(0)] * (degree + 1)
        for n in range(n_c):
            if 0 <= 2 * n - e <= degree:
                out[2 * n - e] = c[n] * mp.ff(2 * n, e) * (-2) ** (2 * n - e)
        return out

    terms = []
    for n in range(k_max + 1):
        poly = [mp.mpc(0)] * (degree + 1)
        for l in range(3 * n // 2 + 1):
            w = d[n, l] / (mp.pi ** (2 * n - l) * (2j) ** l)
            poly = [p + w * f for p, f in zip(poly, f_derivative(3 * n - 2 * l))]
        terms.append(poly)
    half = k_max // 2
    delta = [mp.mpf(0)] * (half + 1)
    for j in range(1, (half + 3) // 2):
        b = (1 - mp.mpf(2) ** (1 - 2 * j)) * abs(mp.bernoulli(2 * j)) / (4 * j * (2 * j - 1))
        delta[2 * j - 1] = b * (2 * mp.pi) ** (1 - 2 * j)
    e = [mp.mpc(1)] + [mp.mpc(0)] * half
    for n in range(1, half + 1):
        e[n] = sum(k * 1j * delta[k] * e[n - k] for k in range(1, n + 1)) / n
    return [
        [sum(2 * mp.re(e[m] * terms[k - 2 * m][i]) for m in range(k // 2 + 1)) for i in range(degree + 1)]
        for k in range(k_max + 1)
    ]


def test_f_coefficients_match_mpmath_coef():
    with mp.workdps(50):
        _, _, ref, _ = _coef(mp.mp, 20, mp.mpf(10) ** -45)
    with mp.workdps(120):
        mine = _f_coefficients(20)
    for n in range(20):
        assert abs(mine[n] - ref[2 * n]) <= 1e-40, n


def test_remainder_coefficients_regenerate():
    # the literals, rounded once from 200 digits, and the series in x of
    # every C_k has the parity of k
    with mp.workdps(200):
        series = _c_series(len(_C_SERIES) - 1, 48)
    for k, stored in enumerate(_C_SERIES):
        assert all(c == 0 for c in series[k][1 - k % 2 :: 2]), k
        regenerated = tuple(float(c) for c in series[k][k % 2 :: 2][: len(stored)])
        assert regenerated == stored, k


def test_psi_series_matches_closed_form():
    # C_0 is Psi
    p = np.array([0.0, 0.13, 0.3, 0.77, 0.999])
    x = p - 0.5
    mine = np.polyval(_C_SERIES[0][::-1], x * x)
    with mp.workdps(30):
        ref = [
            float(mp.cos(2 * mp.pi * (v * v - v - mp.mpf(1) / 16)) / mp.cos(2 * mp.pi * v))
            for v in map(mp.mpf, p.tolist())
        ]
    assert np.all(np.abs(mine - ref) <= 1e-15)


def test_remainder_matches_gabcke():
    # C_1..C_4 as Gabcke writes them, in the derivatives of Psi (mpmath's
    # numerical Taylor coefficients of the closed form)
    pi2 = mp.pi**2
    gabcke = (
        ((3, -1 / (96 * pi2)),),
        ((2, 1 / (64 * pi2)), (6, 1 / (18432 * pi2**2))),
        ((1, -1 / (64 * pi2)), (5, -1 / (3840 * pi2**2)), (9, -1 / (5308416 * pi2**3))),
        (
            (0, 1 / (128 * pi2)),
            (4, 19 / (24576 * pi2**2)),
            (8, 11 / (5898240 * pi2**3)),
            (12, 1 / (2038431744 * pi2**4)),
        ),
    )
    g, odd = _series_derivatives(5, 0)
    for p in (0.02, 0.31, 0.5, 0.64, 0.97):
        x = p - 0.5
        mine = (g @ (x * x) ** np.arange(g.shape[1])) * np.where(odd, x, 1.0)
        with mp.workdps(60):
            psi = mp.taylor(
                lambda v: mp.cos(2 * mp.pi * (v * v - v - mp.mpf(1) / 16)) / mp.cos(2 * mp.pi * v),
                mp.mpf(p),
                12,
            )
            for k, terms in enumerate(gabcke, start=1):
                ref = sum(w * psi[d] * mp.factorial(d) for d, w in terms)
                # the series stop where the rest of C_k a^(-1/2-k) is below
                # 1e-19 at a = 12
                assert abs(mine[k] - float(ref)) <= 1e-19 * 12 ** (k + 0.5) + 1e-15 * abs(ref), (p, k)


def test_remainder_series_derivatives_and_tail():
    # every C_k^(r) the jets use, against the 200-digit series cut where
    # the literals stop, and the terms past that change C_k^(r)(p)
    # a^(-1/2-k) (2 pi a)^-r at |x| = 1/2 by less than 1e-19 at a = 12; at
    # a = 5, the lowest truncation, by at most 1.8e-15 for r = 0 (C_12),
    # 1.3e-15 for r = 1 and 1.6e-14 for r = 9 (C_8), measured
    deg = 60
    with mp.workdps(200):
        series = _c_series(len(_C_SERIES) - 1, deg)
    g, odd = _series_derivatives(len(_C_SERIES), _R_MAX)
    x = np.array([-0.5, -0.31, 0.0, 0.2, 0.5])
    mine = (((x * x)[:, None] ** np.arange(g.shape[1])) @ g.T) * np.where(odd, x[:, None], 1.0)
    with mp.workdps(50):
        for k, stored in enumerate(_C_SERIES):
            top = 2 * len(stored) - 1 - (1 - k % 2)
            for r in range(_R_MAX + 1):

                def deriv(xv, lo, hi):
                    return sum(series[k][i] * mp.ff(i, r) * xv ** (i - r) for i in range(max(lo, r), hi))

                ref = [deriv(mp.mpf(v), 0, top + 1) for v in x.tolist()]
                # roundoff scale: the terms' absolute sum at |x| = 1/2
                size = float(sum(abs(series[k][i]) * mp.ff(i, r) / 2 ** (i - r) for i in range(r, top + 1)))
                col = mine[:, k * (_R_MAX + 1) + r]
                assert np.all(np.abs(col - [float(v) for v in ref]) <= 1e-15 * size), (k, r)
                tail = deriv(mp.mpf(0.5), top + 1, deg + 1)
                assert abs(tail) * (2 * math.pi * 12) ** -r * 12 ** (-0.5 - k) <= 1e-19, (k, r)
                at_5 = abs(tail) * (2 * math.pi * 5) ** -r * 5 ** (-0.5 - k)
                assert at_5 <= (2e-15 if r <= 2 else 2e-14), (k, r)


def test_correction_terms_by_truncation():
    # K from the one estimate at every N the kernel serves, capped by the
    # last stored term, C_12
    assert _N_SPAN == (5, 89)
    spans = {12: (5, 6), 11: (7, 7), 10: (8, 8), 9: (9, 12), 8: (13, 16), 7: (17, 29), 6: (30, 59), 5: (60, 89)}
    for k, (lo, hi) in spans.items():
        assert [correction_terms(n) for n in range(lo, hi + 1)] == [k] * (hi - lo + 1), k


def test_rs_matches_siegelz_above_10053():
    # from N = 40 (t = 10053) up the remainder used to stop at C_4 and Z was
    # off by up to 1.1e-13 there; with K from the estimate (6 here) Z and Z'
    # are within 3.0e-15 scaled (1 + |Z^(j)|): measured 1.8e-15 and 2.3e-15
    # at 40 heights in [10053, 11000]
    steps = [2.0 * math.pi * n * n + 1e-9 for n in (40, 41)]
    near = [2.0 * math.pi * (40 + 3e-7) ** 2, 2.0 * math.pi * (41 - 3e-7) ** 2]
    t = np.concatenate([steps, near, np.random.default_rng(5).uniform(10053.1, 1.1e4, 6)])
    mine = rs_z_jets(t, 1)
    for p, tp in enumerate(t.tolist()):
        ref = np.array(_siegelz_jets(tp, 1))
        assert np.all(np.abs(mine[p] - ref) <= 3.0e-15 * (1.0 + np.abs(ref))), tp


@pytest.mark.parametrize("t", [1.0e4, 30000.123, 49999.9, 1000.0, 1062.37, 157.08, 200.7, 500.0, 999.37])
def test_theta_reduced_matches_siegeltheta(t):
    mine = theta_reduced(np.array([t]))[0]
    with mp.workdps(40):
        diff = mp.mpf(mine) - mp.siegeltheta(mp.mpf(t))
        diff -= 2 * mp.pi * mp.nint(diff / (2 * mp.pi))
    assert abs(float(diff)) <= 1e-15


def test_theta_derivatives_match_siegeltheta():
    t = np.array([1.0e3, 1.0e4, 27182.8, T_CAP, 157.08, 200.7, 500.0, 999.37])
    mine = theta_derivatives(t, 9)
    with mp.workdps(30):
        for p, tp in enumerate(t.tolist()):
            for r in range(1, 10):
                ref = float(mp.siegeltheta(mp.mpf(tp), derivative=r))
                assert abs(mine[p, r - 1] - ref) <= 1e-15 * abs(ref), (tp, r)


def _z_jets(theta: list, f: list, scale: float) -> list[float]:
    """Z^(0..m) from theta^(0..m)(t) and the Taylor coefficients f_k in h of
    g(1/2 + i(t + h)), where Z(t + h) = scale Re[e^(i theta(t + h)) g]."""
    m = len(f) - 1
    ig = [1j * theta[r] / mp.factorial(r) for r in range(m + 1)]
    e = [mp.expj(theta[0])] + [0] * m
    for a in range(1, m + 1):
        e[a] = sum(j * ig[j] * e[a - j] for j in range(1, a + 1)) / a
    return [
        float(scale * mp.factorial(a) * mp.re(sum(e[i] * f[a - i] for i in range(a + 1))))
        for a in range(m + 1)
    ]


def _mpmath_z_jets(t: float, m: int) -> list[float]:
    """Z^(0..m)(t) from mpmath's Riemann-Siegel core: Z(t + h) =
    2 Re[e^(i theta(t + h)) R(s + ih)] with R^(k)(s) from Rzeta_set, all
    orders from one call (mp.rs_z takes one call per order). The working
    precision gains the bits that z_half in mpmath.functions.rszeta adds."""
    with mp.workdps(15):
        tm = mp.mpf(t)
        tt = tm / (2 * mp.pi)
        with mp.workprec(mp.mp.prec + int(mp.mag(12 * tt * mp.ln(tt))) + 1):
            rz = Rzeta_set(mp.mp, mp.mpf(0.5) + 1j * tm, range(m + 1))
            theta = [mp.siegeltheta(tm, derivative=r) for r in range(m + 1)]
            return _z_jets(theta, [rz[k] * 1j**k / mp.factorial(k) for k in range(m + 1)], 2)


def _siegelz_jets(t: float, m: int) -> list[float]:
    """Z^(0..m)(t) by mpmath's siegelz formula, Z(t + h) = Re[e^(i theta(t
    + h)) zeta(1/2 + i(t + h))], with zeta^(k) from mpmath's zeta at 30
    digits (Euler-Maclaurin, as siegelz takes below t = 500 prec): one
    zeta call per order, where siegelz(t, derivative=j) makes j + 1."""
    with mp.workdps(30):
        tm = mp.mpf(t)
        s = mp.mpf(0.5) + 1j * tm
        theta = [mp.siegeltheta(tm, derivative=r) for r in range(m + 1)]
        f = [mp.zeta(s, derivative=k) * 1j**k / mp.factorial(k) for k in range(m + 1)]
        return _z_jets(theta, f, 1)


def test_mpmath_jet_oracle_matches_rs_z():
    t = 23456.789
    with mp.workdps(20):
        ref = [float(mp.mp.rs_z(mp.mpf(t), j)) for j in range(5)]
    assert np.allclose(_mpmath_z_jets(t, 4), ref, rtol=1e-14, atol=1e-14)


def test_siegelz_jet_oracle_matches_siegelz():
    t = 1234.567
    mine = _siegelz_jets(t, 4)
    with mp.workdps(30):
        for j in (0, 1, 4):
            ref = float(mp.siegelz(mp.mpf(t), derivative=j))
            assert abs(mine[j] - ref) <= 1e-15 * (1.0 + abs(ref)), j


def _band_heights() -> np.ndarray:
    """96 heights in [_RS_MIN_T, 1e3]: the crossover and its upper
    neighbour; 2 pi n^2 +- 1e-9 for n = 6..12, where N steps from n - 1 to
    n and K drops (12, 11, 10, 9 at N = 6, 7, 8, 9); p within 3e-7 of 0
    and of 1; the rest uniform."""
    steps = [2.0 * math.pi * n * n + d for n in range(6, 13) for d in (-1e-9, 1e-9)]
    near = [2.0 * math.pi * (n + p) ** 2 for n in (5, 7, 9, 11) for p in (3e-7, 1.0 - 3e-7)]
    t = np.array([_RS_MIN_T, np.nextafter(_RS_MIN_T, np.inf)] + steps + near)
    return np.concatenate([t, np.random.default_rng(11).uniform(_RS_MIN_T, 1.0e3, 96 - t.size)])


def test_rs_matches_siegelz_below_1e3():
    # Z^(j) for j <= 1 at 96 heights and j <= 4 at the first 20 (the
    # crossover, the N steps, two heights with p near 0 and 1), scaled
    # (1 + |Z^(j)|): measured 1.4e-15 (Z), 7.1e-16 (Z') and 9.0e-16 (j = 2..4),
    # where Euler-Maclaurin is within 5.6e-15, 1.9e-15 and 8.0e-15
    t = _band_heights()
    n = np.floor(np.sqrt(t / (2.0 * math.pi)))
    assert t.size == 96 and t.min() == _RS_MIN_T and t.max() <= 1.0e3
    assert set(n.astype(int).tolist()) == set(range(5, 13))
    mine = rs_z_jets(t, 4)
    for p, tp in enumerate(t.tolist()):
        m = 4 if p < 20 else 1
        ref = np.array(_siegelz_jets(tp, m))
        scale = 1.0 + np.abs(ref)
        assert np.all(np.abs(mine[p, :2] - ref[:2]) <= 3.0e-15 * scale[:2]), tp
        assert np.all(np.abs(mine[p, : m + 1] - ref) <= 1e-14 * scale), tp


def test_em_matches_siegelz_below_crossover():
    # Below 157.08 the line is Euler-Maclaurin's: Z^(j) for j <= 8 at 20
    # heights in [2, _RS_MIN_T), scaled (1 + |Z^(j)|). Measured 3.0e-13 at
    # all 20 (6.2e-13 at 160 heights, growing with t at j = 7, 8) and
    # 1.9e-14 below t = 30, where N's floor of 32 sums far more terms than
    # t needs. Jets centred on (log N)/2 from order 4 up were 8.4e-13 off at
    # 6.7036 and 1.1e-12 at the worst of these heights
    t = np.concatenate([[6.7036, 26.7595], np.random.default_rng(24).uniform(2.0, _RS_MIN_T, 18)])
    mine = np.stack([z_deriv_many(t, j) for j in range(9)], axis=1)
    for p, tp in enumerate(t.tolist()):
        ref = np.array(_siegelz_jets(tp, 8))
        bound = (1e-13 if tp < 30.0 else 1e-12) * (1.0 + np.abs(ref))
        assert np.all(np.abs(mine[p] - ref) <= bound), (tp, np.abs(mine[p] - ref))


def _low_heights() -> np.ndarray:
    """100 heights in [1e3, 1e4]: 1e3; 2 pi n^2 +- 1e-9, where N
    steps from n - 1 to n (at n = 13, 17 and 30 the number of remainder
    terms drops too); p within 3e-7 of 0 and of 1; the rest uniform."""
    steps = [2.0 * math.pi * n * n + d for n in (13, 14, 17, 22, 30, 35, 39) for d in (-1e-9, 1e-9)]
    near = [2.0 * math.pi * (n + p) ** 2 for n in (15, 26, 37) for p in (3e-7, 1.0 - 3e-7)]
    t = np.array([1.0e3] + steps + near)
    return np.concatenate([t, np.random.default_rng(10).uniform(1.0e3, 1.0e4, 100 - t.size)])


def test_rs_matches_siegelz_below_1e4():
    # Z^(j) for j <= 1 at 100 heights and j <= 4 at the first 20 (the
    # crossover and the N steps), within 1e-14 scaled (1 + |Z^(j)|); for
    # j <= 1 both Riemann-Siegel and Euler-Maclaurin, whose Dirichlet
    # phases are exact to rounding (phase._log_table), are within 3.0e-15
    # (measured: 3.0e-15 and 2.8e-15)
    t = _low_heights()
    assert t.size == 100 and t.min() >= 1.0e3 and t.max() <= 1.0e4
    mine = rs_z_jets(t, 4)
    em = np.stack([hz._em_line_core(t, j, j)[0][:, 0] for j in range(2)], axis=1)
    rs_gap = np.zeros((t.size, 2))
    em_gap = np.zeros((t.size, 2))
    for p, tp in enumerate(t.tolist()):
        m = 4 if p < 20 else 1
        ref = np.array(_siegelz_jets(tp, m))
        scale = 1.0 + np.abs(ref)
        assert np.all(np.abs(mine[p, : m + 1] - ref) <= 1e-14 * scale), tp
        rs_gap[p] = np.abs(mine[p, :2] - ref[:2]) / scale[:2]
        em_gap[p] = np.abs(em[p] - ref[:2]) / scale[:2]
    assert rs_gap.max() <= 3.0e-15 and em_gap.max() <= 3.0e-15, (rs_gap.max(axis=0), em_gap.max(axis=0))


def _rs_test_heights() -> np.ndarray:
    """100 heights in [1e4, T_CAP]: 2 pi n^2 +- 1e-9, where N steps from
    n - 1 to n; p within 1e-6 of 0 and of 1; the rest uniform."""
    steps = [2.0 * math.pi * n * n + d for n in (40, 41, 47, 55, 63, 72, 80, 89) for d in (-1e-9, 1e-9)]
    near = [
        2.0 * math.pi * (n + p) ** 2
        for n in (40, 52, 66, 88)
        for p in (3e-7, 8e-7, 1.0 - 3e-7, 1.0 - 8e-7)
    ]
    t = np.array(steps + near)
    return np.concatenate([t, np.random.default_rng(9).uniform(1.0e4, T_CAP, 100 - t.size)])


def test_rs_heights_reach_the_edges():
    t = _rs_test_heights()
    a = np.sqrt(t / (2.0 * math.pi))
    p = a - np.floor(a)
    assert t.size == 100 and t.min() >= 1.0e4 and t.max() <= T_CAP
    assert np.sum(p < 1e-6) >= 8 and np.sum(p > 1.0 - 1e-6) >= 8


def test_rs_matches_mpmath():
    t = _rs_test_heights()
    mine = rs_z_jets(t, 4)
    for p, tp in enumerate(t.tolist()):
        ref = np.array(_mpmath_z_jets(tp, 4))
        assert np.all(np.abs(mine[p] - ref) <= 1e-12 * (1.0 + np.abs(ref))), tp


@pytest.mark.parametrize("band", [(1.0e4, 1.1e4), (4.8e4, T_CAP), (_RS_MIN_T, 1.2 * _RS_MIN_T)])
def test_rs_matches_euler_maclaurin(band):
    # Z^(j) for j <= 8 from the jets of order j on each side: the
    # Euler-Maclaurin jets of order 8 are less accurate at lower orders
    t = np.random.default_rng(int(band[0])).uniform(*band, 8)
    rs = rs_z_jets(t, 8)
    for j in range(9):
        em = hz._em_line_core(t, j, j)[0][:, 0]
        assert np.all(np.abs(rs[:, j] - em) <= 1e-11 * (1.0 + np.abs(em))), j


def test_rs_domain_by_truncation():
    # N = floor(sqrt(t / 2 pi)) must lie in 5..89: below, theta's Stirling
    # series and the remainder estimates do not hold; above, the main sum
    # would be cut short (at 1e5 it gave 5.3006 for siegelz's 5.8796)
    for t in (math.nan, math.inf, 150.0, 1.0e5):
        with pytest.raises(DomainError):
            rs_z_jets(np.array([2.0e4, t]), 0)
    assert np.isfinite(rs_z_jets(np.array([_RS_MIN_T, 500.0, T_CAP]), 2)).all()


def test_line_core_routes_by_height():
    # the crossover and its two float neighbours: the one below takes
    # Euler-Maclaurin, and the kernel's guard admits the other two
    below, above = np.nextafter(_RS_MIN_T, 0.0), np.nextafter(_RS_MIN_T, np.inf)
    t = np.array([below, _RS_MIN_T, above, 999.999, 2.0e4])
    assert np.floor(np.sqrt(t[1:3] / (2.0 * math.pi))).tolist() == [_N_SPAN[0]] * 2
    vals, leak = hz._line_core(t, 0, 3)
    assert np.array_equal(vals[1:], rs_z_jets(t[1:], 3))
    assert np.array_equal(leak[1:], [0.0, 0.0, 0.0, 0.0])
    em, em_leak = hz._em_line_core(t[:1], 0, 3)
    assert np.array_equal(vals[:1], em) and leak[0] == em_leak[0]


def _straddling_batches() -> list[np.ndarray]:
    """Heights across the crossover 2 pi 5^2 and N = 4..7, where K drops
    from 12 to 11; and across the steps of K from 7 to 6 (N = 29/30, t =
    5655) and from 6 to 5 (N = 59/60, t = 22619)."""
    low = [np.linspace(_RS_MIN_T - 0.5, _RS_MIN_T + 0.5, 9), [180.3, 260.9]]
    high = [np.linspace(5654.4, 5655.4, 9), [6000.3, 22000.1, 23000.7]]
    return [
        np.concatenate(part + [[2.0 * math.pi * n * n + d for n in ns for d in (-1e-9, 1e-9)]])
        for part, ns in ((low, (6, 7)), (high, (30, 60)))
    ]


def test_rs_batch_rows_match_single_points():
    for t, ns in zip(_straddling_batches(), ({4, 5, 6, 7}, {29, 30, 59, 60})):
        n = np.floor(np.sqrt(t / (2.0 * math.pi)))
        assert set(n.astype(int).tolist()) == ns
        for j in (0, 4):
            batch = z_deriv_many(t, j)
            single = np.array([z_deriv_many(t[i : i + 1], j)[0] for i in range(t.size)])
            assert np.array_equal(batch, single), j
        for k in (0, 4, 8):
            batch = np.stack(z_pair_many(t, k), axis=1)
            single = np.array([np.stack(z_pair_many(t[i : i + 1], k), axis=1)[0] for i in range(t.size)])
            assert np.array_equal(batch, single), k
    low = _straddling_batches()[0]
    assert (low < _RS_MIN_T).any() and (low >= _RS_MIN_T).any()


def test_rs_worker_determinism():
    # split into chunks, or reversed, a batch across the crossover (EM/RS at
    # 157.08) and two steps of K (7/6 at 5655, 6/5 at 22619) gives the same
    # bits
    t = np.concatenate(
        [np.linspace(150.0, 165.0, 700), np.linspace(5640.0, 5670.0, 350), np.linspace(22600.0, 22640.0, 350)]
    )
    base = z_deriv_many(t, 1)
    for n in (8, 12):
        parts = [z_deriv_many(c, 1) for c in np.array_split(t, n)]
        assert np.array_equal(np.concatenate(parts), base), n
    assert np.array_equal(z_deriv_many(t[::-1], 1)[::-1], base)
