"""Gamma-factor machinery: log Gamma, psi jets, tan jets, omega, theta, chi.

Independent oracles: mpmath (loggamma / polygamma / siegeltheta), central
finite differences, and the zeta-quotient form of chi computed by the
Euler-Maclaurin engine, none of which share code with this module.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hzml.chiomega import (
    chi,
    chi_many,
    log_gamma,
    omega_jets,
    phase_theta,
    psi_jets,
    tan_half_pi_jets,
)
from hzml.errors import DomainError, PoleProximityError
from hzml.zetacore import zeta_deriv

EULER_GAMMA = 0.5772156649015329


@pytest.mark.parametrize(
    "z", [0.25 + 7.0j, 3.0 + 0.0j, 0.25 + 25000.0j, 12.5 - 300.0j, 0.5 + 0.5j]
)
def test_log_gamma_principal_branch(z):
    mine = log_gamma(np.array([z]))[0]
    with mp.workdps(35):
        ref = complex(mp.loggamma(mp.mpc(z)))
    assert abs(mine - ref) <= 1e-11 * (1.0 + abs(ref))


@pytest.mark.parametrize("z", [2.0 + 0.0j, 0.5 + 4.0j, 1.5 - 60.0j, 0.25 + 400.0j])
def test_psi_jets_match_polygamma(z):
    m = 6
    mine = psi_jets(np.array([z]), m)[0]
    with mp.workdps(35):
        refs = [complex(mp.psi(r, mp.mpc(z))) for r in range(m + 1)]
    for r in range(m + 1):
        assert abs(mine[r] - refs[r]) <= 1e-11 * (1.0 + abs(refs[r])), r


def test_tan_jets_value_and_slope():
    s = np.array([0.4 + 0.3j, 0.5 + 2.5j, 1.8 - 4.0j])
    jets = tan_half_pi_jets(s, 2)
    x = np.tan(math.pi * s / 2.0)
    assert np.allclose(jets[:, 0], x, rtol=1e-12, atol=1e-12)
    # d/ds tan(pi s/2) = (pi/2)(1 + tan^2)
    assert np.allclose(jets[:, 1], (math.pi / 2.0) * (1.0 + x * x), rtol=1e-12)


def test_tan_jets_finite_difference():
    s0 = 0.4 + 2.5j
    h = 1e-4
    jets = tan_half_pi_jets(np.array([s0]), 3)[0]
    for r in (1, 2):
        lo = tan_half_pi_jets(np.array([s0 - h]), r - 1)[0, r - 1]
        hi = tan_half_pi_jets(np.array([s0 + h]), r - 1)[0, r - 1]
        fd = (hi - lo) / (2.0 * h)
        assert abs(jets[r] - fd) <= 1e-6 * (1.0 + abs(jets[r])), r


def test_tan_pole_guard():
    with pytest.raises(PoleProximityError):
        tan_half_pi_jets(np.array([1.0 + 1e-5j]), 0)
    with pytest.raises(PoleProximityError):
        tan_half_pi_jets(np.array([2.9995 + 0.0j]), 0)


def test_omega_at_two_closed_form():
    # omega(2) = log 2pi - psi(2) = log 2pi - 1 + gamma
    ref = math.log(2.0 * math.pi) - 1.0 + EULER_GAMMA
    val = omega_jets(np.array([2.0 + 0.0j]), 0)[0, 0]
    assert abs(val - ref) < 1e-12
    assert abs(val - 1.4150927313108788) < 1e-12


def test_omega_jets_finite_difference():
    s0 = 0.5 + 30.0j
    h = 1e-4
    jets = omega_jets(np.array([s0]), 2)[0]
    for r in (1, 2):
        lo = omega_jets(np.array([s0 - h]), r - 1)[0, r - 1]
        hi = omega_jets(np.array([s0 + h]), r - 1)[0, r - 1]
        fd = (hi - lo) / (2.0 * h)
        assert abs(jets[r] - fd) <= 1e-6 * (1.0 + abs(jets[r])), r


def test_omega_large_t_asymptote():
    # omega(1/2 + it) ~ -log(t / 2pi) as t grows
    val = omega_jets(np.array([0.5 + 2000.0j]), 0)[0, 0]
    assert abs(val.real - (-math.log(2000.0 / (2.0 * math.pi)))) < 1e-3


def test_omega_pole_guard():
    with pytest.raises(PoleProximityError):
        omega_jets(np.array([1e-4 + 0.0j]), 0)
    with pytest.raises(DomainError):
        omega_jets(np.array([2.0 + 0.0j]), 13)


@pytest.mark.parametrize("t", [5.0, 17.8455995, 100.0, 5000.0, 49999.0])
def test_phase_theta_matches_siegeltheta(t):
    mine = float(phase_theta(t))
    with mp.workdps(35):
        ref = float(mp.siegeltheta(t))
    assert abs(mine - ref) <= 1e-10 * (1.0 + abs(ref))


def test_chi_at_half_is_one():
    assert abs(chi(0.5 + 0.0j) - 1.0) < 1e-12


def test_chi_unimodular_on_line():
    t = np.array([10.0, 100.0, 1000.0, 30000.0])
    vals = chi_many(0.5 + 1j * t)
    assert np.allclose(np.abs(vals), 1.0, rtol=0, atol=1e-11)


def test_chi_matches_zeta_quotient():
    # functional equation zeta(s) = chi(s) zeta(1-s), with zeta from the
    # independent Euler-Maclaurin engine
    for s in (0.3 + 20.0j, 0.5 + 77.0j, 0.8 + 400.0j):
        lhs = zeta_deriv(s, 0)
        rhs = chi(s) * zeta_deriv(1.0 - s, 0)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs)), s


def test_chi_phase_theta_link():
    # chi(1/2 + it) = e^{-2 i theta(t)}
    for t in (12.0, 250.0, 4000.0):
        c = chi(0.5 + 1j * t)
        assert abs(c - np.exp(-2j * phase_theta(t))) < 1e-10, t


def test_chi_pole_guard():
    with pytest.raises(PoleProximityError):
        chi(1.0 + 1e-8j)


@given(
    sigma=st.floats(min_value=-0.8, max_value=1.8),
    t=st.floats(min_value=2.0, max_value=1000.0),
)
@settings(max_examples=25, deadline=None)
def test_chi_reflection_identity(sigma, t):
    s = complex(sigma, t)
    prod = chi(s) * chi(1.0 - s)
    assert abs(prod - 1.0) <= 1e-10
