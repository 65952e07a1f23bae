"""Five-term coefficient engine and the identity battery behind it.

Anchors that admit closed forms: C_{0,0} = 0, C_{1,0} = 1/(24 pi),
C_{0,1} = (e^2 - 5)/(4 pi), and the vanishing of the whole diagonal
j = k. The raw-assembly equivalence rebuilds the prediction from the
pre-simplification quadruple sums, exercising every algebraic step at once.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hzml.coeffs import (
    asymptotic_coefficient,
    breakdown,
    combi_sum,
    first_term_sum,
    identity_sweep,
    raw_assembled_total,
    step4_sums,
    yildirim_compare,
)
from hzml.errors import DomainError


def term_scale(b):
    return max(
        abs(b.term_delta), abs(b.term_cg), abs(b.term_u), abs(b.term_p2j2),
        abs(b.term_exp), 1e-300,
    )


def test_anchor_c01_closed_form():
    target = (math.e**2 - 5.0) / (4.0 * math.pi)
    assert abs(asymptotic_coefficient(0, 1) - target) <= 1e-13


def test_anchor_c10_closed_form():
    assert abs(asymptotic_coefficient(1, 0) - 1.0 / (24.0 * math.pi)) <= 1e-15


def test_anchor_c00_vanishes_exactly():
    assert asymptotic_coefficient(0, 0) == 0.0


@pytest.mark.parametrize("k", list(range(13)))
def test_diagonal_vanishes_exactly(k):
    # at j = k the rationals cancel as Fractions and the exp term is
    # definitionally zero, so per_TL is bitwise 0.0
    assert breakdown(k, k, mode="asymptotic").per_TL == 0.0


def test_breakdown_empty_sum_conventions():
    b = breakdown(0, 3, mode="asymptotic")
    assert b.term_u == 0.0  # u-sum is empty at j = 0
    z = breakdown(2, 0, mode="asymptotic")
    assert z.term_u == 0.0 and z.term_p2j2 == 0.0 and z.term_exp == 0.0
    assert z.term_delta != 0.0
    nz = breakdown(2, 1, mode="asymptotic")
    assert nz.term_delta == 0.0  # delta term only survives at k = 0
    diag = breakdown(3, 3, mode="asymptotic")
    assert diag.term_exp == 0.0


def test_per_tl_is_mode_and_T_free():
    a = breakdown(1, 2, 1000.0, "finite").per_TL
    b = breakdown(1, 2, 50000.0, "finite").per_TL
    c = breakdown(1, 2, mode="asymptotic").per_TL
    assert a == b == c


def test_breakdown_total_consistent_with_per_tl():
    b = breakdown(2, 4, 2000.0, "finite")
    scale = b.T * b.L ** (2 * b.j + 2)
    assert b.total == pytest.approx(b.per_TL * scale, rel=1e-12)


def test_breakdown_domain():
    with pytest.raises(DomainError):
        breakdown(13, 1, mode="asymptotic")
    with pytest.raises(DomainError):
        breakdown(1, 26, mode="asymptotic")
    with pytest.raises(DomainError):
        breakdown(1, 2)  # finite mode without T
    with pytest.raises(DomainError):
        breakdown(1, 2, 50.0)
    with pytest.raises(DomainError):
        breakdown(1, 2, 1000.0, "other")


def test_combi_sum_exact_zero_gaps():
    for j in range(13):
        for u in range(j + 1):
            assert combi_sum(j, u).abs_gap == 0.0, (j, u)


def test_combi_sum_hand_recomputation():
    # independent re-coding of the double sum, integer arithmetic
    for j, u in ((1, 0), (4, 2), (7, 5)):
        acc = 0
        for mu in range(j - u + 1):
            top = 2 * j + 1 - u
            for nu in range(min(j, top - mu) + 1):
                acc += (
                    math.comb(top, mu)
                    * math.comb(top - mu, nu)
                    * (-2) ** (top - mu - nu)
                )
        rep = combi_sum(j, u)
        assert rep.lhs == float(acc)
        assert rep.rhs == float((-1) ** (j + 1) * math.comb(2 * j - u, j) * (1 + (-1) ** u))


def test_first_term_sum_exact_zero_gaps():
    for j in range(16):
        assert first_term_sum(j).abs_gap == 0.0, j


def test_first_term_sum_odd_orders_vanish():
    for j in (1, 3, 5):
        assert first_term_sum(j).rhs == 0.0


@pytest.mark.parametrize("j,k", [(0, 1), (2, 3), (4, 5), (6, 8), (3, 1)])
def test_step4_closed_forms(j, k):
    for rep in step4_sums(j, k):
        tol = 1e-10 * (1.0 + abs(rep.rhs))
        assert rep.abs_gap <= tol, (rep.name, j, k)


def test_step4_s1_value():
    # S1 collapses to (-1)^j 2/(2j+1) independent of k
    for k in (1, 4):
        rep = step4_sums(3, k)[0]
        assert rep.name == "step4_S1"
        assert rep.rhs == pytest.approx(-2.0 / 7.0, abs=1e-15)


@pytest.mark.parametrize(
    "j,k", [(0, 1), (1, 2), (0, 3), (2, 5), (4, 2), (1, 1), (3, 3), (2, 0), (5, 4)]
)
def test_raw_assembly_matches_breakdown(j, k):
    T = 1.0e6
    b = breakdown(j, k, T, "finite")
    raw = raw_assembled_total(j, k, T, "finite")
    # off the diagonal the totals agree in relative terms; on it the total
    # cancels exactly, so compare against the largest constituent term
    if j != k:
        assert abs(raw - b.total) <= 1e-9 * abs(b.total), (j, k)
    assert abs(raw - b.total) <= 1e-10 * term_scale(b), (j, k)


def test_raw_assembly_asymptotic_mode():
    b = breakdown(1, 3, 1.0e6, "asymptotic")
    raw = raw_assembled_total(1, 3, 1.0e6, "asymptotic")
    assert abs(raw - b.total) <= 1e-9 * abs(b.total)


def test_yildirim_bounds_and_trend():
    for ks in ((4, 8, 16), (5, 9, 17)):
        gaps = []
        for k in ks:
            rep = yildirim_compare(k)
            assert rep.abs_gap <= 10.0 * math.log(k) / k**2, k
            gaps.append(rep.abs_gap)
        assert gaps[0] > gaps[1] > gaps[2]


def test_yildirim_domain():
    with pytest.raises(DomainError):
        yildirim_compare(1)
    with pytest.raises(DomainError):
        yildirim_compare(26)


def test_identity_sweep_counts_and_gaps():
    reports = identity_sweep(3, 3)
    assert len(reports) == 62
    for rep in reports:
        if rep.name in ("combi_sum", "first_term_sum"):
            assert rep.abs_gap == 0.0, rep
        else:
            assert rep.abs_gap <= 1e-10 * (1.0 + abs(rep.rhs)), rep


@given(
    j=st.integers(min_value=0, max_value=10),
    k=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=30, deadline=None)
def test_exp_term_real_and_finite(j, k):
    b = breakdown(j, k, mode="asymptotic")
    assert math.isfinite(b.term_exp)
    assert math.isfinite(b.per_TL)


def test_u_term_hand_algebra_k1():
    # k = 1 has the single root theta = -1, so p_u = (-1)^u; at j = 2 the
    # u-sum is [2!(-1)/((5-1)1!)] p_2 + [2!/((5-2)0!)] p_3 = -1/2 - 2/3,
    # giving q_u = (-7/6)/2^5 = -7/192
    b = breakdown(2, 1, mode="asymptotic")
    scale = b.T * b.L ** 6
    assert b.term_u == pytest.approx(
        float(Fraction(-7, 192)) / math.pi * scale, rel=1e-12
    )