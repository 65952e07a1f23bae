"""Zero scanning, discrete and continuous moments, Hall polynomials.

Oracles: the first zeros of Z are classical constants; hall_W is checked
against direct Gauss-Legendre quadrature of its defining integral
int_0^1 (log 1/x)^g x^(v-1) dx * v^(g+1) ... more precisely against
int_0^infty-free recursion anchors and the quadrature of W's generating
integral below; counts follow the Riemann-von Mangoldt main term.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hzml.errors import BranchError, DomainError, QuadratureError
from hzml.hardyz import z_deriv_many
from hzml.moments import (
    _GK15,
    ZeroList,
    _gap_grid,
    continuous_moment,
    count_bound,
    count_check,
    count_expected,
    discrete_moment,
    find_zeros,
    find_zeros_certified,
    hall_W,
    hall_polynomial,
    hall_prediction,
    interlacing_report,
    moment_report,
    quadrature_report,
)
from hzml.zetacore import T_CAP, stieltjes

GAMMA_1 = 14.134725141734693
GAMMA_2 = 21.022039638771555
GAMMA_3 = 25.010857580145688


def quad_W(g, v, n=200):
    # e^x W_g(x) is an antiderivative of x^g e^x, so
    # W_g(v) = e^-v ( (-1)^g g! + int_0^v x^g e^x dx ),
    # and the integral yields to Gauss-Legendre directly
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * v * (x + 1.0)
    w = 0.5 * v * w
    integral = float(np.sum(w * x**g * np.exp(x)))
    return math.exp(-v) * ((-1.0) ** g * math.factorial(g) + integral)


@pytest.mark.parametrize("g", [0, 1, 2, 5, 11, 20])
def test_hall_W_against_quadrature(g):
    for v in (0.5, 3.0, 9.25):
        ref = quad_W(g, v)
        mine = hall_W(g, v)
        assert abs(mine - ref) <= 1e-7 * max(1.0, abs(ref)), (g, v)


def test_hall_W_small_cases():
    assert hall_W(0, 7.3) == 1.0
    assert hall_W(1, 7.3) == pytest.approx(6.3, abs=1e-12)
    assert hall_W(2, 3.0) == pytest.approx(5.0, abs=1e-9)  # 9 - 6 + 2


@given(
    g=st.integers(min_value=1, max_value=20),
    v=st.floats(min_value=0.1, max_value=30.0),
)
@settings(max_examples=40, deadline=None)
def test_hall_W_recurrence(g, v):
    # W_g(v) = v^g - g W_{g-1}(v), from the derivative definition
    lhs = hall_W(g, v)
    rhs = v**g - g * hall_W(g - 1, v)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), v**g)


def test_hall_W_domain():
    with pytest.raises(DomainError):
        hall_W(21, 1.0)
    with pytest.raises(DomainError):
        hall_W(-1, 1.0)


def test_hall_polynomial_first_order():
    # P_1(x) = x - 1 + 2 c_0
    p = hall_polynomial(0)
    assert p.j == 0
    assert p.coefficients == pytest.approx((2.0 * stieltjes(0) - 1.0, 1.0))
    assert p(3.0) == pytest.approx(2.0 + 2.0 * stieltjes(0), abs=1e-12)


@pytest.mark.parametrize("j", [0, 1, 2, 3, 8])
def test_hall_polynomial_monic(j):
    p = hall_polynomial(j)
    assert len(p.coefficients) == 2 * j + 2
    assert p.coefficients[-1] == pytest.approx(1.0, abs=1e-12)


def test_hall_prediction_anchor():
    # at T = 2 pi e the polynomial argument is 1 and j = 0 collapses
    T = 2.0 * math.pi * math.e
    assert hall_prediction(0, T) == pytest.approx(T * 2.0 * stieltjes(0), rel=1e-12)


def test_hall_domain():
    with pytest.raises(DomainError):
        hall_polynomial(9)


def test_count_expected_riemann_von_mangoldt():
    # at T = 2 pi e the main term vanishes
    assert count_expected(2.0 * math.pi * math.e) == pytest.approx(0.0, abs=1e-12)
    # main term at T = 1000 (true count 649; the gap is the omitted 7/8 + S(T))
    assert count_expected(1000.0) == pytest.approx(647.74, abs=0.1)


def test_find_zeros_locates_first_three():
    zl = find_zeros(0, 10.0, 26.0)
    assert zl.k == 0
    assert len(zl.zeros) == 3
    for got, ref in zip(zl.zeros, (GAMMA_1, GAMMA_2, GAMMA_3)):
        assert abs(got - ref) <= 1e-12
    assert max(zl.bracket_widths) <= 1e-9


def test_find_zeros_brackets_are_sign_checked():
    zl = find_zeros(1, 2.0, 600.0)
    z = np.array(zl.zeros)
    w = np.array(zl.bracket_widths)
    assert len(z) > 300
    assert np.all((w > 0.0) & (w <= 1e-9))
    assert np.all(z_deriv_many(z - 0.5 * w, 1) * z_deriv_many(z + 0.5 * w, 1) < 0.0)


def test_find_zeros_failed_check_bisects(monkeypatch):
    # shifting the pair evaluator's Z values by 1e-7 moves every Newton limit
    # ~1e-7 off the zero, so every check with z_deriv_many fails; each point
    # must then bisect its own bracket down to width 1e-9
    import hzml.moments as mo

    real = mo.z_pair_many

    def shifted(t, k):
        vals, dvals = real(t, k)
        return vals + 1e-7, dvals

    monkeypatch.setattr(mo, "z_pair_many", shifted)
    zl = find_zeros(0, 10.0, 26.0)
    assert len(zl.zeros) == 3
    for got, ref in zip(zl.zeros, (GAMMA_1, GAMMA_2, GAMMA_3)):
        assert 1e-9 < abs(got - ref) <= 1e-6
    assert max(zl.bracket_widths) <= 1e-9


def test_find_zeros_non_finite_raises(monkeypatch):
    # NaN jets make every Z value NaN in both windows (mpmath has zeros in
    # each); the scan must raise rather than return an empty list, on the
    # Euler-Maclaurin path below 157.08 and the Riemann-Siegel path above
    import hzml.hardyz as hz

    real_em, real_rs = hz.zeta_jets, hz.rs_z_jets
    monkeypatch.setattr(hz, "zeta_jets", lambda s, m: real_em(s, m) * np.nan)
    monkeypatch.setattr(hz, "rs_z_jets", lambda t, m: real_rs(t, m) * np.nan)
    for lo in (100.0, 45000.0):
        with pytest.raises(BranchError):
            find_zeros(0, lo, lo + 2.0)


def test_find_zeros_empty_window():
    zl = find_zeros(0, 2.0, 14.0)
    assert zl.zeros == ()


def test_find_zeros_derivative_interlaces():
    # exactly one zero of Z' strictly between the first two zeros of Z
    zl = find_zeros(1, GAMMA_1 + 1e-3, GAMMA_2 - 1e-3)
    assert len(zl.zeros) == 1


def test_find_zeros_density_stability():
    # same zeros re-found at doubled scan density, to well under a bracket
    a = find_zeros(0, 50.0, 80.0, density=6)
    b = find_zeros(0, 50.0, 80.0, density=12)
    assert len(a.zeros) == len(b.zeros)
    assert max(abs(x - y) for x, y in zip(a.zeros, b.zeros)) <= 1e-8


def test_find_zeros_worker_determinism(split_batches):
    # with every batch of Z values split 12 ways, the scan and every
    # refinement round give the same zeros and brackets
    base = find_zeros(1, 100.0, 2000.0)
    split_batches(12)
    again = find_zeros(1, 100.0, 2000.0)
    assert again.zeros == base.zeros
    assert again.bracket_widths == base.bracket_widths


def test_find_zeros_domain():
    with pytest.raises(DomainError):
        find_zeros(0, 1.0, 20.0)
    with pytest.raises(DomainError):
        find_zeros(0, 30.0, 20.0)
    with pytest.raises(DomainError):
        find_zeros(0, 10.0, 20.0, density=3)


def _never(*args, **kwargs):
    raise AssertionError("evaluated before the domain check")


def test_find_zeros_rejects_scan_over_point_bound(monkeypatch):
    # the bound is checked from the density before any grid is built. It
    # admits density 48, the census's third doubling from 6, at T_CAP; with
    # it lowered to 1,000, density 6 on [10, 200] (~620 points) runs and
    # density 12 (~1,240) raises before a single Z value
    import hzml.moments as mo

    mo._check_scan_args(0, 2.0, T_CAP, 48)
    with pytest.raises(DomainError):
        mo._check_scan_args(0, 2.0, T_CAP, 96)
    monkeypatch.setattr(mo, "_MAX_SCAN_POINTS", 1000)
    assert len(find_zeros(0, 10.0, 200.0).zeros) == 79
    monkeypatch.setattr(mo, "z_deriv_many", _never)
    with pytest.raises(DomainError, match="scan points"):
        find_zeros(0, 10.0, 200.0, density=12)
    with pytest.raises(DomainError, match="scan points"):
        moment_report(0, 1, 200.0, density=12)


def test_census_matches_main_term():
    for k in (0, 1, 2):
        zl, dev = find_zeros_certified(k, 300.0)
        assert abs(dev) <= count_bound(300.0), k
        assert count_check(zl, 300.0) == dev


def test_discrete_moment_of_own_zeros_vanishes():
    # j = k: summing |Z^(k)|^2 over zeros of Z^(k) itself
    zl = find_zeros(1, 14.0, 120.0)
    m = discrete_moment(1, zl)
    assert 0.0 <= m <= 1e-10 * max(len(zl.zeros), 1)


def test_discrete_moment_monotone_in_window():
    short = find_zeros(0, 14.0, 60.0)
    longer = find_zeros(0, 14.0, 100.0)
    m_short = discrete_moment(1, short)
    m_long = discrete_moment(1, longer)
    assert 0.0 < m_short < m_long


def test_discrete_moment_workers_bitwise(split_batches):
    zl = find_zeros(0, 14.0, 300.0)
    base = discrete_moment(1, zl)
    split_batches(12)
    assert discrete_moment(1, zl) == base


def test_continuous_moment_small_window():
    val = continuous_moment(0, 20.0)
    assert val > 0.0
    bigger = continuous_moment(0, 40.0)
    assert bigger > val


def test_continuous_moment_matches_hall_j0():
    T = 1000.0
    val = continuous_moment(0, T)
    pred = hall_prediction(0, T)
    assert abs(val - pred) / pred < 0.02


def test_continuous_moment_worker_determinism(split_batches):
    base = quadrature_report(1, 200.0)
    assert continuous_moment(1, 200.0) == base.value
    split_batches(12)
    assert quadrature_report(1, 200.0) == base


def _monomial_integral(d):
    return (1.0 - (-1.0) ** (d + 1)) / (d + 1)


def test_gauss_kronrod_rule():
    nodes, wk, wg = _GK15
    assert nodes.size == wk.size == 15 and wg.size == 7
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(wk, wk[::-1]) and np.array_equal(wg, wg[::-1])
    # the Gauss nodes are nodes 1, 3, ..., 13: the 7-point Gauss-Legendre rule
    gx, gw = np.polynomial.legendre.leggauss(7)
    assert np.max(np.abs(nodes[1::2] - gx)) <= 1e-15
    assert np.max(np.abs(wg - gw)) <= 1e-15
    for d in range(23):
        assert abs(np.sum(wk * nodes**d) - _monomial_integral(d)) <= 1e-15, d
    for d in range(14):
        assert abs(np.sum(wg * nodes[1::2] ** d) - _monomial_integral(d)) <= 1e-15, d
    # and neither rule is exact one even degree higher
    assert abs(np.sum(wk * nodes**24) - _monomial_integral(24)) > 1e-12
    assert abs(np.sum(wg * nodes[1::2] ** 14) - _monomial_integral(14)) > 1e-12


@pytest.mark.parametrize("j", [0, 2])
def test_quadrature_error_estimate_bounds_error(j):
    # reference: the same panels under the 64-point Gauss-Legendre rule
    T = 200.0
    rep = quadrature_report(j, T)
    assert rep.rounds == 1
    edges = _gap_grid(2.0, T, 2)
    lo, hi = edges[:-1], edges[1:]
    x, w = np.polynomial.legendre.leggauss(64)
    half = 0.5 * (hi - lo)
    pts = (0.5 * (lo + hi))[:, None] + half[:, None] * x[None, :]
    sq = z_deriv_many(pts.ravel(), j).reshape(pts.shape) ** 2
    panels = half * np.sum(sq * w[None, :], axis=1)
    sliver = quadrature_report(j, 2.0).value
    ref = math.fsum([sliver, *panels])
    assert 0.0 < rep.error_estimate <= rep.tol * rep.value
    assert abs(rep.value - ref) <= rep.error_estimate


def test_quadrature_report_one_round():
    rep = quadrature_report(0, 1000.0)
    assert rep.rounds == 1
    assert rep.panels == len(_gap_grid(2.0, 1000.0, 2)) - 1
    assert rep.evaluations == 15 * rep.panels + 64
    assert rep.tol == 1e-9 and rep.error_estimate <= rep.tol * rep.value
    assert continuous_moment(0, 1000.0) == rep.value


def test_quadrature_refines_only_panels_over_their_share(split_batches):
    # at tol 1e-12 the first round's estimate (4e-11 relative) fails; every
    # halved panel costs two new ones, so evaluations fix the split count
    grid = len(_gap_grid(2.0, 200.0, 2)) - 1
    coarse = quadrature_report(0, 200.0)
    fine = quadrature_report(0, 200.0, tol=1e-12)
    assert fine.rounds >= 2
    assert grid < fine.panels < 2 * grid
    assert fine.evaluations == 64 + 15 * (2 * fine.panels - grid)
    assert fine.error_estimate <= 1e-12 * fine.value
    assert abs(fine.value - coarse.value) <= coarse.error_estimate
    # every round's batch split 12 ways: the same report
    split_batches(12)
    assert quadrature_report(0, 200.0, tol=1e-12) == fine


def test_quadrature_sliver_only():
    rep = quadrature_report(0, 1.5)
    assert (rep.panels, rep.rounds, rep.evaluations) == (0, 0, 64)
    assert rep.error_estimate == 0.0 and rep.value > 0.0


@pytest.mark.parametrize("T", [1.5, 30.0])
def test_continuous_moment_non_finite_raises(monkeypatch, T):
    # NaN zeta jets: T = 1.5 reaches only the [0, 2] sliver, T = 30 the
    # panels too; without the branch check the first returns nan and the
    # second refines to its round cap and raises QuadratureError
    import hzml.hardyz as hz

    real_jets = hz.zeta_jets
    monkeypatch.setattr(hz, "zeta_jets", lambda s, m: real_jets(s, m) * np.nan)
    with pytest.raises(BranchError):
        continuous_moment(0, T)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_continuous_moment_rejects_bad_tol(tol):
    # tol = -1 used to run 14 rounds to 16,384 panels at T = 3 before it
    # raised QuadratureError
    with pytest.raises(DomainError):
        continuous_moment(0, 3.0, tol=tol)


def test_continuous_moment_panel_bound(monkeypatch):
    # a tol that no panel meets halves every panel each round (9, 18, 36,
    # 72, ... at T = 30); with the bound lowered to 64 the round of 72 must
    # not start
    import hzml.moments as mo

    seen = []
    real = mo._panel_integrals

    def spy(lo, hi, j, rule):
        seen.append(len(lo))
        return real(lo, hi, j, rule)

    monkeypatch.setattr(mo, "_MAX_PANELS", 64)
    monkeypatch.setattr(mo, "_panel_integrals", spy)
    with pytest.raises(QuadratureError):
        continuous_moment(0, 30.0, tol=1e-300)
    assert seen[0] == 9 and max(seen) <= 64


def test_interlacing_between_orders():
    zl0 = find_zeros(0, 50.0, 200.0)
    zl1 = find_zeros(1, 50.0, 200.0)
    n_gaps, violations = interlacing_report(zl0, zl1)
    assert n_gaps == len(zl0.zeros) - 1
    assert violations == []


def test_interlacing_flags_a_gap():
    # drop one derivative zero: its gap must be reported as empty
    zl0 = find_zeros(0, 50.0, 120.0)
    zl1 = find_zeros(1, 50.0, 120.0)
    pruned = ZeroList(
        k=1,
        t_lo=zl1.t_lo,
        t_hi=zl1.t_hi,
        zeros=zl1.zeros[:3] + zl1.zeros[4:],
        bracket_widths=zl1.bracket_widths[:3] + zl1.bracket_widths[4:],
        scan_density=zl1.scan_density,
    )
    n_gaps, violations = interlacing_report(zl0, pruned)
    assert len(violations) == 1
    assert violations[0][2] == 0


def test_moment_report_fields():
    rep = moment_report(0, 1, 500.0)
    assert rep.j == 0 and rep.k == 1
    assert rep.n_zeros_used > 0
    assert rep.measured > 0.0
    assert rep.predicted > 0.0
    assert 0.75 <= rep.ratio <= 1.25
    assert abs(rep.count_deviation) <= count_bound(500.0)
    assert rep.max_imag_leak <= 1e-8
