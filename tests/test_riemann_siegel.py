"""Riemann-Siegel jets on the critical line.

Oracles: mpmath's own Riemann-Siegel core (Arias de Reyna's algorithm,
mpmath.functions.rszeta), mpmath's siegeltheta, and the Euler-Maclaurin
line core of this package, which shares only the phase table with the
Riemann-Siegel kernel.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from mpmath.functions.rszeta import Rzeta_set

import hzml.hardyz as hz
from hzml.hardyz import _RS_MIN_T, z_deriv_many, z_pair_many
from hzml.riemann_siegel import (
    _PSI_COEFFS,
    psi_derivatives,
    rs_z_jets,
    theta_derivatives,
    theta_reduced,
)
from hzml.zetacore import T_CAP


def _psi_series(n_coeffs: int) -> list:
    """Taylor coefficients of Psi(1/2 + x) in x^0, x^2, ...: the series
    quotient -cos(2 pi (x^2 - 5/16)) / cos(2 pi x) in y = x^2, at 80 digits."""
    with mp.workdps(80):
        tp = 2 * mp.pi
        c5, s5 = mp.cos(5 * mp.pi / 8), mp.sin(5 * mp.pi / 8)
        num = [
            -(c5 if k % 2 == 0 else s5) * (-1) ** (k // 2) * tp**k / mp.factorial(k)
            for k in range(n_coeffs)
        ]
        den = [(-1) ** k * tp ** (2 * k) / mp.factorial(2 * k) for k in range(n_coeffs)]
        q = []
        for k in range(n_coeffs):
            q.append((num[k] - sum(q[i] * den[k - i] for i in range(k))) / den[0])
        return q


def test_psi_coefficients_regenerate():
    assert tuple(float(c) for c in _psi_series(37)) == _PSI_COEFFS


def test_psi_series_matches_closed_form():
    p = np.array([0.0, 0.13, 0.3, 0.77, 0.999])
    mine = psi_derivatives(p, 0)[:, 0]
    with mp.workdps(30):
        ref = [
            float(mp.cos(2 * mp.pi * (x * x - x - mp.mpf(1) / 16)) / mp.cos(2 * mp.pi * x))
            for x in map(mp.mpf, p.tolist())
        ]
    assert np.all(np.abs(mine - ref) <= 1e-15)


def test_psi_series_derivatives_and_tail():
    # every derivative the jets use, against the 80-digit series, relative
    # to its largest value on [0, 1]; and the terms past degree 72 change
    # Psi^(21) at |x| = 1/2 by less than 1e-16 of its value there
    q = _psi_series(60)
    x = np.array([-0.5, -0.31, 0.0, 0.2, 0.5])
    mine = psi_derivatives(x + 0.5, 21)

    def deriv(e, xv, lo, hi):
        return sum(
            q[i] * mp.ff(2 * i, e) * xv ** (2 * i - e) for i in range(lo, hi) if 2 * i >= e
        )

    with mp.workdps(50):
        for e in range(22):
            ref = [deriv(e, mp.mpf(v), 0, 60) for v in x.tolist()]
            scale = float(max(abs(r) for r in ref))
            assert np.all(np.abs(mine[:, e] - [float(r) for r in ref]) <= 1e-14 * scale), e
        half = mp.mpf(1) / 2
        tail = deriv(21, half, 37, 60)
        assert abs(tail) <= 1e-16 * abs(deriv(21, half, 0, 60))


@pytest.mark.parametrize("t", [1.0e4, 30000.123, 49999.9])
def test_theta_reduced_matches_siegeltheta(t):
    mine = theta_reduced(np.array([t]))[0]
    with mp.workdps(40):
        diff = mp.mpf(mine) - mp.siegeltheta(mp.mpf(t))
        diff -= 2 * mp.pi * mp.nint(diff / (2 * mp.pi))
    assert abs(float(diff)) <= 1e-15


def test_theta_derivatives_match_siegeltheta():
    t = np.array([1.0e4, 27182.8, T_CAP])
    mine = theta_derivatives(t, 9)
    with mp.workdps(30):
        for p, tp in enumerate(t.tolist()):
            for r in range(1, 10):
                ref = float(mp.siegeltheta(mp.mpf(tp), derivative=r))
                assert abs(mine[p, r - 1] - ref) <= 1e-15 * abs(ref), (tp, r)


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
            f = [rz[k] * 1j**k / mp.factorial(k) for k in range(m + 1)]
            ig = [1j * theta[r] / mp.factorial(r) for r in range(m + 1)]
            e = [mp.expj(theta[0])] + [0] * m
            for a in range(1, m + 1):
                e[a] = sum(j * ig[j] * e[a - j] for j in range(1, a + 1)) / a
            return [
                float(2 * mp.factorial(a) * mp.re(sum(e[i] * f[a - i] for i in range(a + 1))))
                for a in range(m + 1)
            ]


def test_mpmath_jet_oracle_matches_rs_z():
    t = 23456.789
    with mp.workdps(20):
        ref = [float(mp.mp.rs_z(mp.mpf(t), j)) for j in range(5)]
    assert np.allclose(_mpmath_z_jets(t, 4), ref, rtol=1e-14, atol=1e-14)


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


@pytest.mark.parametrize("band", [(1.0e4, 1.1e4), (4.8e4, T_CAP)])
def test_rs_matches_euler_maclaurin(band):
    # Z^(j) for j <= 8 from the jets of order j on each side: the
    # Euler-Maclaurin jets of order 8 are less accurate at lower orders
    t = np.random.default_rng(int(band[0])).uniform(*band, 8)
    rs = rs_z_jets(t, 8)
    for j in range(9):
        em = hz._em_line_core(t, j, j)[0][:, 0]
        assert np.all(np.abs(rs[:, j] - em) <= 1e-11 * (1.0 + np.abs(em))), j


def test_line_core_routes_by_height():
    t = np.array([9999.999, _RS_MIN_T, 2.0e4])
    vals, leak = hz._line_core(t, 0, 3)
    assert np.array_equal(vals[1:], rs_z_jets(t[1:], 3))
    assert np.array_equal(leak[1:], [0.0, 0.0])
    em, em_leak = hz._em_line_core(t[:1], 0, 3)
    assert np.array_equal(vals[:1], em) and leak[0] == em_leak[0]


def _straddling_batch() -> np.ndarray:
    """Heights across the crossover 1e4 and three values of N (39, 40, 41)."""
    edges = [2.0 * math.pi * n * n + d for n in (40, 41) for d in (-1e-9, 1e-9)]
    return np.concatenate([np.linspace(9999.5, 10000.5, 9), edges, [10321.7, 10800.2]])


def test_rs_batch_rows_match_single_points():
    t = _straddling_batch()
    n = np.floor(np.sqrt(t / (2.0 * math.pi)))
    assert set(n.tolist()) == {39.0, 40.0, 41.0}
    assert (t < _RS_MIN_T).any() and (t >= _RS_MIN_T).any()
    for j in (0, 4):
        batch = z_deriv_many(t, j)
        single = np.array([z_deriv_many(t[i : i + 1], j)[0] for i in range(t.size)])
        assert np.array_equal(batch, single), j
    for k in (0, 4, 8):
        batch = np.stack(z_pair_many(t, k), axis=1)
        single = np.array([np.stack(z_pair_many(t[i : i + 1], k), axis=1)[0] for i in range(t.size)])
        assert np.array_equal(batch, single), k


def test_rs_worker_determinism():
    t = np.linspace(9990.0, 10030.0, 700)
    base = z_deriv_many(t, 1)
    for workers in (2, 3):
        assert np.array_equal(z_deriv_many(t, 1, workers=workers), base)
