"""Jet arithmetic and Bernoulli numbers, the layers everything rests on."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hzml.bernoulli import bernoulli_float, bernoulli_fraction
from hzml.errors import DomainError, NumericalAlarm
from hzml.jets import (
    derivatives_from_jet,
    jet_exp_of_scalar,
    jet_inv,
    jet_mul,
    jet_mul_linear,
)

KNOWN_BERNOULLI = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    3: Fraction(0),
    7: Fraction(0),
}


def test_bernoulli_known_values():
    for n, ref in KNOWN_BERNOULLI.items():
        assert bernoulli_fraction(n) == ref, n
        assert bernoulli_float(n) == float(ref), n


def test_bernoulli_vs_zeta_link():
    # |B_2n| = 2 (2n)! zeta(2n) / (2 pi)^(2n)
    import mpmath as mp

    for n in (4, 10, 24):
        ref = 2.0 * math.factorial(n) * float(mp.zeta(n)) / (2.0 * math.pi) ** n
        assert abs(abs(bernoulli_float(n)) - ref) <= 1e-12 * ref, n


def rand_jet(rng, p=3, m=5):
    return rng.standard_normal((p, m + 1)) + 1j * rng.standard_normal((p, m + 1))


def test_jet_mul_against_polymul():
    rng = np.random.default_rng(7)
    a, b = rand_jet(rng), rand_jet(rng)
    out = jet_mul(a, b)
    for p in range(a.shape[0]):
        full = np.polynomial.polynomial.polymul(a[p], b[p])[: a.shape[1]]
        assert np.allclose(out[p], full, rtol=1e-13, atol=1e-13)


def test_jet_mul_linear_agrees_with_general():
    rng = np.random.default_rng(8)
    a = rand_jet(rng)
    lin0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lin = np.zeros_like(a)
    lin[:, 0] = lin0
    lin[:, 1] = 1.0
    assert np.allclose(jet_mul_linear(a, lin0), jet_mul(a, lin), rtol=1e-13)


def test_jet_inv_roundtrip():
    rng = np.random.default_rng(9)
    a = rand_jet(rng)
    a[:, 0] += 3.0  # keep the constant term away from zero
    prod = jet_mul(a, jet_inv(a))
    expect = np.zeros_like(a)
    expect[:, 0] = 1.0
    assert np.allclose(prod, expect, rtol=1e-12, atol=1e-12)


def test_jet_exp_of_scalar_coefficients():
    base = np.array([2.0 + 1.0j])
    rate = -0.7 + 0.2j
    out = jet_exp_of_scalar(base, rate, 6)
    for a in range(7):
        assert np.allclose(out[0, a], base[0] * rate**a / math.factorial(a))


def test_derivatives_from_jet():
    a = np.array([[1.0, 1.0, 1.0, 1.0]], dtype=complex)
    d = derivatives_from_jet(a)
    assert np.allclose(d[0], [1.0, 1.0, 2.0, 6.0])


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_jet_mul_commutes(seed):
    rng = np.random.default_rng(seed)
    a, b = rand_jet(rng, p=2, m=4), rand_jet(rng, p=2, m=4)
    assert np.allclose(jet_mul(a, b), jet_mul(b, a), rtol=1e-13)


def test_error_taxonomy():
    # validation errors are ValueError subclasses, alarms are RuntimeError
    assert issubclass(DomainError, ValueError)
    assert issubclass(NumericalAlarm, RuntimeError)
    from hzml.errors import (
        BranchError,
        CompletenessAlarm,
        ConvergenceError,
        ImaginaryLeakError,
        QuadratureError,
    )

    for alarm in (
        BranchError,
        CompletenessAlarm,
        ConvergenceError,
        ImaginaryLeakError,
        QuadratureError,
    ):
        assert issubclass(alarm, NumericalAlarm)


def test_public_api_importable():
    import hzml

    assert hzml.__version__
    for name in hzml.__all__:
        assert getattr(hzml, name) is not None, name
