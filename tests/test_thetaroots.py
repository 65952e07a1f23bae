"""Roots of the truncated exponential and their inverse power sums.

Oracles: closed forms at k = 1, 2 (quadratic formula), Vieta's relations on
the monic rescaling (sum of roots = -k, product = (-1)^k k!), and the exact
rational recurrences for the power sums, whose low-order entries
(p_1 = -1, middle zeros, p_{k+1} = 1/k!) are derivable by hand.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hzml.errors import DomainError, ImaginaryLeakError
from hzml.thetaroots import (
    exact_power_sums,
    power_sum,
    trunc_exp,
    trunc_exp_roots,
    z_from_theta,
)

SAMPLE_KS = (1, 2, 3, 5, 8, 12, 20, 33, 40)


def test_trunc_exp_values():
    z = np.array([0.0 + 0.0j, 1.0 + 0.0j, 2.0 - 3.0j])
    assert np.allclose(trunc_exp(z, 0), 1.0)
    assert np.allclose(trunc_exp(z, 2), 1.0 + z + z * z / 2.0, rtol=1e-15)


def test_k1_root_closed_form():
    ts = trunc_exp_roots(1)
    assert ts.roots == (-1.0 + 0.0j,)
    assert ts.power_sums[1] == -1.0
    assert ts.power_sums[2] == 1.0
    # p_4 = ((-1)^2 + 1)/(1! 2!) = 1
    assert ts.power_sums[4] == pytest.approx(1.0, abs=1e-15)


def test_k2_roots_closed_form():
    # 1 + theta + theta^2/2 = 0  =>  theta = -1 -+ i
    ts = trunc_exp_roots(2)
    got = sorted(ts.roots, key=lambda z: z.imag)
    assert abs(got[0] - (-1.0 - 1.0j)) < 1e-14
    assert abs(got[1] - (-1.0 + 1.0j)) < 1e-14


@pytest.mark.parametrize("k", SAMPLE_KS)
def test_root_count_and_conjugate_closure(k):
    ts = trunc_exp_roots(k)
    assert len(ts.roots) == k
    reals = [z for z in ts.roots if z.imag == 0.0]
    assert len(reals) == k % 2
    key = lambda z: (z.real, z.imag)
    upper = sorted((z for z in ts.roots if z.imag > 0.0), key=key)
    lower = sorted((z.conjugate() for z in ts.roots if z.imag < 0.0), key=key)
    assert upper == lower  # bitwise mirror, not just approximate


@pytest.mark.parametrize("k", SAMPLE_KS)
def test_residual_bound(k):
    ts = trunc_exp_roots(k)
    bound = 1e-12 * math.factorial(k)
    assert max(ts.residuals) <= bound


@pytest.mark.parametrize("k", SAMPLE_KS)
def test_vieta_relations(k):
    # E_k * k! is monic with integer-ratio coefficients k!/mu!
    ts = trunc_exp_roots(k)
    total = sum(ts.roots)
    prod = complex(1.0)
    for z in ts.roots:
        prod *= z
    assert abs(total - (-k)) <= 1e-9 * k
    target = (-1.0) ** k * math.factorial(k)
    assert abs(prod - target) <= 1e-9 * abs(target)


def test_exact_power_sum_table():
    # hand-derivable entries for every k
    for k in (1, 2, 3, 7, 13, 20):
        p = exact_power_sums(k, 2 * k + 2)
        assert p[0] == Fraction(-1)
        for u in range(2, k + 1):
            assert p[u - 1] == 0, (k, u)
        assert p[k] == Fraction(1, math.factorial(k))
        expected_top = Fraction(
            (-1) ** (k + 1) + 1, math.factorial(k) * math.factorial(k + 1)
        )
        assert p[2 * k + 1] == expected_top, k


@pytest.mark.parametrize("k", SAMPLE_KS)
def test_root_side_matches_coefficient_side(k):
    ts = trunc_exp_roots(k)
    for u in range(1, 2 * k + 3):
        exact = ts.power_sums[u]
        from_roots = power_sum(ts, u)
        assert abs(from_roots - exact) <= 1e-9 * max(1.0, abs(exact)), (k, u)


def test_power_sum_domain():
    ts = trunc_exp_roots(3)
    with pytest.raises(DomainError):
        power_sum(ts, 0)
    with pytest.raises(DomainError):
        power_sum(ts, 2 * 3 + 3)


@pytest.mark.parametrize("k", SAMPLE_KS)
def test_partial_sums_vanish_at_own_order(k):
    # double-precision Horner bottoms out at the eps * e^|theta| cancellation
    # floor, so the bound is per root; six orders of headroom over eps
    ts = trunc_exp_roots(k)
    roots = np.array(ts.roots)
    own = np.abs(trunc_exp(roots, k))
    assert np.all(own <= 1e-10 * np.exp(np.abs(roots)))
    # one order down the value is pinned: E_{k-1}(theta_g) = -theta_g^k / k!
    lower = trunc_exp(roots, k - 1)
    expected = -(roots**k) / float(math.factorial(k))
    assert np.all(np.abs(lower - expected) <= 1e-4 * np.abs(expected))


@pytest.mark.parametrize("k", SAMPLE_KS)
def test_exp_factors_match_roots(k):
    ts = trunc_exp_roots(k)
    for z, f in zip(ts.roots, ts.exp_factors):
        assert abs(f - np.exp(-2.0 * z)) <= 1e-12 * abs(f)


def test_exp_factor_equals_finite_window_power():
    # with z_g = 1 - 2 theta/L, (T/2pi)^(z_g - 1) collapses to e^(-2 theta)
    T = 1.0e6
    L = math.log(T / (2.0 * math.pi))
    ts = trunc_exp_roots(4)
    for theta, f in zip(ts.roots, ts.exp_factors):
        zg = z_from_theta(theta, T)
        finite = (T / (2.0 * math.pi)) ** (zg - 1.0)
        assert abs(finite - f) <= 1e-12 * abs(f)
    assert z_from_theta(-1.0, 2.0 * math.pi * math.e) == pytest.approx(3.0, abs=1e-12)
    del L


def test_roots_hp_refine_doubles():
    ts = trunc_exp_roots(9)
    hp = ts.roots_hp()
    for z, z_hp in zip(ts.roots, hp):
        assert abs(complex(z_hp) - z) < 1e-14 * (1.0 + abs(z))
    with mp.workdps(40):
        for z_hp in hp:
            resid = abs(mp.fsum(z_hp**mu / mp.factorial(mu) for mu in range(10)))
            assert resid < mp.mpf("1e-25")


def test_root_cap():
    with pytest.raises(DomainError):
        trunc_exp_roots(41)
    with pytest.raises(DomainError):
        trunc_exp_roots(0)


@given(k=st.integers(min_value=1, max_value=25))
@settings(max_examples=20, deadline=None)
def test_newton_girard_consistency(k):
    # p_u from the recurrence vs direct root-side evaluation, all u
    ts = trunc_exp_roots(k)
    for u in (1, k + 1, 2 * k + 2):
        assert abs(power_sum(ts, u) - ts.power_sums[u]) <= 1e-9 * max(
            1.0, abs(ts.power_sums[u])
        )


def test_imaginary_leak_guard(monkeypatch):
    import hzml.thetaroots as tr

    ts = trunc_exp_roots(4)
    # drop one root of a conjugate pair so the imaginary parts cannot cancel
    broken = tr.ThetaSystem(
        k=4,
        roots=ts.roots,
        residuals=ts.residuals,
        power_sums=ts.power_sums,
        exp_factors=ts.exp_factors,
        _roots_hp=ts._roots_hp[:-1] + (("-2.0", "1.5"),),
    )
    with pytest.raises(ImaginaryLeakError):
        power_sum(broken, 3)
