"""Zeta jets and Stieltjes constants against independent references.

Oracle notes: closed-form values (pi^2/6 etc.) are classical; grids are
cross-checked against mpmath at 30+ digits, which shares no code with the
Euler-Maclaurin pipeline here.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hzml.errors import DomainError, PoleProximityError
from hzml.moments import find_zeros
from hzml.phase import _log_table
from hzml.zetacore import (
    T_CAP,
    _phase_matrix,
    stieltjes,
    stieltjes_table,
    zeta_deriv,
    zeta_jets,
)


def test_zeta_two_closed_form():
    # pi^2/6 probed just inside the open strip edge at sigma = 2
    assert abs(zeta_deriv(1.9999999 + 0.0j, 0) - math.pi**2 / 6) < 1e-6


def test_zeta_near_two_closed_form():
    # strip is open at sigma = 2, so pin the classical value just inside
    with mp.workdps(30):
        ref = complex(mp.zeta(mp.mpf("1.999")))
    assert abs(zeta_deriv(1.999 + 0.0j, 0) - ref) < 1e-12


def test_zeta_half_reference():
    # classical value of zeta(1/2)
    assert abs(zeta_deriv(0.5 + 0.0j, 0) - (-1.4603545088095868)) < 1e-12


@pytest.mark.parametrize(
    "s",
    [
        0.5 + 14.134725j,
        -0.9 + 3.0j,
        1.9 + 100.0j,
        0.1 + 5.7j,
        1.2 - 77.3j,
        0.4 + 250.3j,
    ],
)
@pytest.mark.parametrize("mu", [0, 3, 4, 5, 8])
def test_jets_match_mpmath(s, mu):
    mine = zeta_jets(np.array([s]), mu)[0]
    with mp.workdps(40):
        refs = [complex(mp.zeta(mp.mpc(s), derivative=d)) for d in range(mu + 1)]
    scale = max(max(abs(r) for r in refs), 1.0)
    for d in range(mu + 1):
        assert abs(mine[d] - refs[d]) <= 1e-11 * scale, (s, d)


def test_high_t_accuracy():
    # phase reduction stress: t near the height cap
    for s, mu in ((0.5 + 5000.0j, 3), (1.9 + 49999.0j, 2)):
        mine = zeta_jets(np.array([s]), mu)[0]
        with mp.workdps(30):
            refs = [complex(mp.zeta(mp.mpc(s), derivative=d)) for d in range(mu + 1)]
        scale = max(max(abs(r) for r in refs), 1.0)
        for d in range(mu + 1):
            assert abs(mine[d] - refs[d]) <= 1e-11 * scale, (s, d)


@pytest.mark.parametrize("j", [1, 4])
def test_critical_line_accuracy_near_cap(j):
    # Dirichlet terms decay only like n^-1/2 on the line, and near the cap
    # the sums are longest. Jets of order 1 run in double, of order 4 and 5
    # (the pair of j = 4) in longdouble. For j = 4 the zeros of Z^(4) are
    # checked too, where the scale 1 + |Z| gives no cover: measured 3.7e-13
    # there, single and paired. The public functions take the
    # Riemann-Siegel jets at these heights, so the Euler-Maclaurin core is
    # called directly
    from hzml.hardyz import _em_line_core

    t = [49999.5]
    if j == 4:
        zeros = [z for a in (2.4e4, 4.6e4) for z in find_zeros(4, a, a + 1.5).zeros]
        assert len(zeros) >= 3
        t += zeros
    t = np.array(t)
    with mp.workdps(30):
        ref = np.array([float(mp.mp.rs_z(mp.mpf(x), j)) for x in t.tolist()])
    single = _em_line_core(t, j, j)[0][:, 0]
    paired = _em_line_core(t, j, j + 1)[0][:, 0]
    assert np.all(np.abs(single - ref) <= 1e-12 * (1.0 + np.abs(ref))), (single - ref)
    assert np.all(np.abs(paired - ref) <= 1e-12 * (1.0 + np.abs(ref))), (paired - ref)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_phase_reduction_matches_mpmath(dtype):
    # the exact split needs t_hi = rint(128 t)/128 within 23 bits and
    # u = log n / 2 pi below 2 (so u_hi has at most 30 bits)
    tab = _log_table()
    assert 128 * T_CAP < 2**23
    assert tab.u.max() < 2.0
    cols = slice(0, tab.u.size, 97)
    n = np.arange(1, tab.u.size + 1)[cols].tolist() + [tab.u.size]
    t = np.array([30000.123, 49999.9, -49999.9, 999.37, 2.5])
    got = np.concatenate(
        [_phase_matrix(t, cols, dtype), _phase_matrix(t, slice(-1, None), dtype)],
        axis=1,
    )
    assert got.dtype == dtype
    with mp.workdps(40):
        logn = [mp.log(k) for k in n]
        for p, tp in enumerate(t):
            for q, lg in enumerate(logn):
                x = got[p, q]
                # a longdouble is exactly the sum of two doubles
                gap = mp.mpf(float(x)) + float(x - dtype(float(x))) - tp * lg
                gap -= 2 * mp.pi * mp.nint(gap / (2 * mp.pi))
                assert abs(gap) <= 1e-15, (tp, n[q], float(gap))


def test_batch_matches_scalar_bitwise(monkeypatch):
    import hzml.zetacore as zc

    pts = np.array([0.3 + 21.0j, 1.5 + 300.0j, -0.5 + 9.0j])
    batch = zeta_jets(pts, 3)
    for i, s in enumerate(pts):
        single = zeta_jets(np.array([s]), 3)[0]
        assert np.array_equal(batch[i], single)
    # mixed heights on the line: several truncation groups share the log
    # table, on the double (mu = 1) and the longdouble (mu = 4, 6) path
    line = 0.5 + 1j * np.array([3.0, 900.0, 2.1e4, 4.7e4, -3.0e4, 900.25])
    for mu in (1, 4, 6):
        batch = zeta_jets(line, mu)
        for i, s in enumerate(line):
            assert np.array_equal(batch[i], zeta_jets(np.array([s]), mu)[0]), (s, mu)
    # mixed sigma: the precision path is longdouble iff mu_max >= 4, for the
    # whole call, and a batch is grouped by truncation length alone, so
    # every sigma at one height shares a group
    calls = []
    real_group = zc._em_group

    def group(sg, n_terms, mu_max, use_ld):
        calls.append((n_terms, use_ld))
        return real_group(sg, n_terms, mu_max, use_ld)

    monkeypatch.setattr(zc, "_em_group", group)
    heights = np.array([5.0, 700.0, 700.5, -2.4e4])
    mixed = (np.array([0.5, 0.3, 1.5, -0.5])[:, None] + 1j * heights[None, :]).ravel()
    for mu in (3, 4, 5, 6):
        calls.clear()
        batch = zeta_jets(mixed, mu)
        lengths = {zc._n_terms(abs(h), mu) for h in heights}
        assert sorted(n for n, _ in calls) == sorted(lengths), (mu, calls)
        assert all(ld == (mu >= 4) for _, ld in calls), (mu, calls)
        for i, s in enumerate(mixed):
            assert np.array_equal(batch[i], zeta_jets(np.array([s]), mu)[0]), (s, mu)


@given(
    sigma=st.floats(min_value=-0.95, max_value=1.95),
    t=st.floats(min_value=2.0, max_value=1000.0),
)
@example(sigma=-0.9453125, t=2.0)
@example(sigma=-0.90625, t=2.0)
@settings(max_examples=25, deadline=None)
def test_conjugate_symmetry(sigma, t):
    # Same bound as the mpmath contract in test_jets_match_mpmath: near
    # sigma = -1 the double path (mu <= 3) sums terms n^-sigma (log n)^2 of
    # size ~300 to a result of ~0.1, so zeta'' carries ~1e-12 of roundoff.
    s = complex(sigma, t)
    up = zeta_jets(np.array([s]), 2)[0]
    down = zeta_jets(np.array([s.conjugate()]), 2)[0]
    scale = max(np.max(np.abs(up)), 1.0)
    for d in range(3):
        assert abs(up[d] - down[d].conjugate()) <= 1e-11 * scale, (s, d)


def test_pole_guard():
    with pytest.raises(PoleProximityError):
        zeta_deriv(1.0 + 1e-9j, 0)


def test_strip_bounds():
    with pytest.raises(DomainError):
        zeta_deriv(2.5 + 3.0j, 0)
    with pytest.raises(DomainError):
        zeta_deriv(-1.5 + 3.0j, 0)
    with pytest.raises(DomainError):
        zeta_deriv(0.5 + 6.0e4j, 0)
    with pytest.raises(DomainError):
        zeta_deriv(0.5 + 5.0j, 13)


def test_stieltjes_against_mpmath():
    # the literals are mpmath's values rounded to double, bit for bit
    for n in range(18):
        assert stieltjes(n) == float(mp.stieltjes(n)), n


def test_stieltjes_euler_mascheroni_window():
    c0 = stieltjes(0)
    assert 0.577215 < c0 < 0.577216


def test_stieltjes_table_contract():
    table = stieltjes_table()
    assert len(table) == 18
    assert all(table[n] == stieltjes(n) for n in range(18))


def test_stieltjes_domain():
    with pytest.raises(DomainError):
        stieltjes(18)
    with pytest.raises(DomainError):
        stieltjes(-1)

