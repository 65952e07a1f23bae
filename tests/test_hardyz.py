"""Hardy Z derivatives, the shifted-zeta ladder, and the windowed sums.

Oracle strategy:
  * mpmath's siegelz (Riemann-Siegel based, independent algorithm) pins
    Z^(j) for j <= 2 directly.
  * The defining recursion Z_k = Z_{k-1}' - (omega/2) Z_{k-1} is checked
    with Z_{k-1}' obtained by Cauchy-integral differentiation on a small
    circle, which never touches the binomial evaluation path.
  * The f_k of the binomial form are pinned by their closed forms through
    f_3, written out by hand from f_k = f_{k-1}' - (omega/2) f_{k-1}: exactly
    on small-integer omega jets, and to rounding on true ones.
  * Finite differences tie consecutive derivative orders together.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hzml.chiomega import omega_jets
from hzml.errors import BranchError, ConvergenceError, DomainError
from hzml.hardyz import (
    _f_values,
    fe_residual,
    script_zk,
    script_zk_root,
    window_log,
    z_deriv,
    z_deriv_many,
    z_pair_many,
    zk_many,
)
from hzml.moments import find_zeros
from hzml.zetacore import T_CAP, zeta_deriv

GAMMA_1 = 14.134725141734693  # first zero of Z, classical reference


def test_fk_polynomials_low_orders_exact(monkeypatch):
    # small-integer omega jets keep every step of the recursion exact in
    # binary floating point, so f_1..f_3 must equal the closed forms exactly
    # f_1 = -w/2, f_2 = w^2/4 - w'/2, f_3 = -w''/2 + 3 w w'/4 - w^3/8
    import hzml.hardyz as hz

    jets = np.array([[3.0, 5.0, 7.0], [-2.0, 11.0, 1.0], [1.0, -4.0, 9.0]])
    monkeypatch.setattr(hz, "omega_jets", lambda s, m: jets[:, : m + 1].astype(complex))
    f = _f_values(np.zeros(3, dtype=complex), 3)
    for p, (w, w1, w2) in enumerate(jets):
        closed = (1.0, -w / 2, w**2 / 4 - w1 / 2, -w2 / 2 + 3 * w * w1 / 4 - w**3 / 8)
        assert list(f[p]) == list(closed), p


def test_fk_jet_matches_polynomials():
    # the same closed forms on true omega jets, to rounding
    for s in (0.5 + 40.0j, 0.3 + 7.0j, 1.5 - 250.0j):
        w, w1, w2 = omega_jets(np.array([s]), 2)[0]
        f = _f_values(np.array([s]), 3)[0]
        closed = (1.0, -w / 2, w**2 / 4 - w1 / 2, -w2 / 2 + 3 * w * w1 / 4 - w**3 / 8)
        for r, ref in enumerate(closed):
            assert abs(f[r] - ref) <= 1e-14 * (1.0 + abs(ref)), (s, r)


def test_fk_dominant_term_at_large_t():
    # omega derivatives decay like 1/t, so f_k ~ (-omega/2)^k high on the line
    s = 0.5 + 5000.0j
    om0 = omega_jets(np.array([s]), 0)[0, 0]
    f = _f_values(np.array([s]), 3)[0]
    for k in (2, 3):
        lead = (-0.5 * om0) ** k
        assert abs(f[k] - lead) <= 0.01 * abs(lead), k


def test_zk_zero_is_zeta():
    s = 0.3 + 25.0j
    assert zk_many(np.array([s]), 0)[0] == zeta_deriv(s, 0)


@pytest.mark.parametrize("k", range(1, 9))
def test_zk_recursion_via_contour_derivative(k):
    # Z_k(s) = Z_{k-1}'(s) - (omega(s)/2) Z_{k-1}(s), with the derivative from
    # a 64-point Cauchy integral on a radius-0.1 circle
    n, r = 64, 0.1
    phi = 2.0 * math.pi * np.arange(n) / n
    for t in (20.0, 33.7, 61.2):
        s = 0.5 + 1j * t
        ring = s + r * np.exp(1j * phi)
        fz = zk_many(ring, k - 1)
        dval = np.sum(fz * np.exp(-1j * phi)) / (n * r)
        om = omega_jets(np.array([s]), 0)[0, 0]
        f0 = zk_many(np.array([s]), k - 1)[0]
        rhs = dval - 0.5 * om * f0
        lhs = zk_many(np.array([s]), k)[0]
        assert abs(lhs - rhs) <= 1e-7 * (1.0 + abs(lhs)), (k, t)


@pytest.mark.parametrize("t", [14.5, 100.0, 2500.5, 49999.0])
@pytest.mark.parametrize("j", [0, 1, 2])
def test_z_deriv_matches_siegelz(t, j):
    mine = z_deriv(t, j)
    with mp.workdps(30):
        ref = float(mp.siegelz(t, derivative=j))
    assert abs(mine - ref) <= 1e-8 * (1.0 + abs(ref)), (t, j)


def test_z_vanishes_at_first_zero():
    assert abs(z_deriv(GAMMA_1, 0)) < 1e-8


def test_z_prime_zero_from_independent_scan():
    # locate the first stationary point of Z by bisecting a central-difference
    # slope built only from j = 0 values, then ask the j = 1 path about it
    h = 1e-5

    def slope(t):
        return (z_deriv(t + h, 0) - z_deriv(t - h, 0)) / (2.0 * h)

    grid = np.arange(14.5, 21.0, 0.1)
    vals = [slope(t) for t in grid]
    brackets = [
        (grid[i], grid[i + 1])
        for i in range(len(grid) - 1)
        if vals[i] == 0.0 or (vals[i] < 0.0) != (vals[i + 1] < 0.0)
    ]
    assert len(brackets) == 1
    lo, hi = brackets[0]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (slope(lo) < 0.0) != (slope(mid) < 0.0):
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert abs(z_deriv(root, 1)) < 1e-6


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_z_deriv_consistent_with_finite_differences(j):
    h = 1e-3
    stencil = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    offsets = np.array([-2.0 * h, -h, h, 2.0 * h])
    for t0 in (21.3, 55.0, 203.7):
        fd = float(np.dot(stencil, [z_deriv(t0 + d, j - 1) for d in offsets]))
        val = z_deriv(t0, j)
        if abs(val) > 0.1:
            assert abs(val - fd) <= 1e-5 * abs(val), (j, t0)


def test_branch_diagnostic_is_small():
    t = np.linspace(10.0, 4000.0, 700)
    for j in (0, 3, 8):
        vals, leak = z_deriv_many(t, j, return_diag=True)
        assert vals.shape == t.shape
        assert leak <= 1e-8


def test_branch_tripwire_fires(monkeypatch):
    import hzml.hardyz as hz

    real_theta = hz.phase_theta
    monkeypatch.setattr(hz, "phase_theta", lambda t: real_theta(t) + 0.3)
    with pytest.raises(BranchError):
        z_deriv_many(np.linspace(20.0, 21.0, 5), 0)


def _nan_jets(monkeypatch, hz):
    # NaN jets from both evaluators: Euler-Maclaurin below 157.08,
    # Riemann-Siegel from there up
    real_em, real_rs = hz.zeta_jets_centred, hz.rs_z_jets
    monkeypatch.setattr(
        hz, "zeta_jets_centred", lambda s, m: tuple(x * np.nan for x in real_em(s, m))
    )
    monkeypatch.setattr(hz, "rs_z_jets", lambda t, m: real_rs(t, m) * np.nan)


def test_non_finite_values_raise(monkeypatch):
    # a NaN jet makes every Z value NaN, and NaN > bound is False, so the
    # guard must be written the other way round; each evaluator must trip it
    import hzml.hardyz as hz

    _nan_jets(monkeypatch, hz)
    for t in (np.array([50.0, 150.0]), np.array([500.0, 4.5e4])):
        with pytest.raises(BranchError):
            z_deriv_many(t, 0, return_diag=True)
        with pytest.raises(BranchError):
            z_pair_many(t, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_heights_raise(bad):
    # rejected before any kernel runs: no RuntimeWarning, and a NaN cannot
    # pick an evaluator
    import warnings

    t = np.array([3.0e4, bad, 50.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            z_deriv_many(t, 0)
        with pytest.raises(DomainError):
            z_pair_many(t, 4)


@pytest.mark.parametrize("k", [0, 3, 4, 8])
def test_z_pair_matches_single_orders(k):
    # on the line the zeta jets run in double up to order 4 and in
    # longdouble from order 5, so k = 4 pairs a double path (z_deriv_many)
    # with a longdouble one; from order 4 up they are centred (k = 3 pairs
    # plain jets with centred ones). At the zeros of Z^(4) the two orders
    # differ by up to 5e-12, on either path: the log table's rounding of the
    # n that only the longer truncation sums (test_line_double_path_margin
    # compares the paths at one truncation). From t = 157.08 up the public
    # functions take the Riemann-Siegel jets, so those heights and the zeros
    # of Z^(4) are checked on the Euler-Maclaurin core directly
    import hzml.hardyz as hz

    rng = np.random.default_rng(k)
    t = np.concatenate(
        [
            rng.uniform(10.0, 500.0, 30),
            rng.uniform(500.0, 3.0e4, 10),
            rng.uniform(2.0e4, T_CAP, 10),
        ]
    )
    t_em = t[t >= hz._RS_MIN_T]
    if k == 4:
        zeros = [z for a in (2.4e4, 4.6e4) for z in find_zeros(4, a, a + 1.5).zeros]
        assert len(zeros) >= 3
        t = np.concatenate([t, zeros])
        t_em = np.concatenate([t_em, zeros])

    def em_single(x, j):
        return hz._em_line_core(x, j, j)[0][:, 0]

    def em_pair(x, j):
        vals = hz._em_line_core(x, j, j + 1)[0]
        return vals[:, 0], vals[:, 1]

    public = z_pair_many(t, k)
    for pts, (vals, dvals), single in ((t, public, z_deriv_many), (t_em, em_pair(t_em, k), em_single)):
        ref = single(pts, k)
        assert np.all(np.abs(vals - ref) <= 1e-11 * (1.0 + np.abs(ref)))
        if k < 8:
            ref = single(pts, k + 1)
            assert np.all(np.abs(dvals - ref) <= 1e-11 * (1.0 + np.abs(ref)))
    if k == 8:
        # Z^(9) lies past z_deriv_many's cap: 5-point differences of Z^(8)
        dvals = public[1]
        h = 1e-3
        f = {d: z_deriv_many(t[:30] + d * h, 8) for d in (-2, -1, 1, 2)}
        fd = (f[-2] - 8.0 * f[-1] + 8.0 * f[1] - f[2]) / (12.0 * h)
        assert np.all(np.abs(dvals[:30] - fd) <= 1e-5 * np.max(np.abs(fd)))


def test_z_deriv_domain():
    with pytest.raises(DomainError):
        z_deriv(1.5, 0)
    with pytest.raises(DomainError):
        z_deriv(60000.0, 0)
    with pytest.raises(DomainError):
        z_deriv(20.0, 9)


def test_z_deriv_many_empty():
    out = z_deriv_many(np.array([]), 0)
    assert out.size == 0


def test_z_deriv_many_worker_determinism():
    # any split of a batch across the crossover at 157.08, and the reversed
    # batch, gives the same bits
    t = np.linspace(100.0, 300.0, 1200)
    base = z_deriv_many(t, 1)
    for n in (3, 8, 32):
        parts = [z_deriv_many(c, 1) for c in np.array_split(t, n)]
        assert np.array_equal(np.concatenate(parts), base), n
    assert np.array_equal(z_deriv_many(t[::-1], 1)[::-1], base)


@given(split=st.integers(min_value=1, max_value=59))
@settings(max_examples=10, deadline=None)
def test_z_deriv_many_batch_split_invariance(split):
    t = np.linspace(50.0, 60.0, 60)
    whole = z_deriv_many(t, 2)
    parts = np.concatenate([z_deriv_many(t[:split], 2), z_deriv_many(t[split:], 2)])
    assert np.array_equal(whole, parts)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_functional_equation_residual(k):
    for s in (0.3 + 20.0j, 0.5 + 100.0j, 0.7 + 500.0j):
        assert fe_residual(s, k) <= 1e-8, (k, s)


def test_window_log():
    assert window_log(2.0 * math.pi * math.e) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(DomainError):
        window_log(9.9)


def test_script_zk_zero_order_is_zeta():
    s = 0.4 + 30.0j
    assert script_zk(s, 0, 1.0e6) == zeta_deriv(s, 0)


def test_script_zk_laurent_limit():
    # (s-1)^(k+1) script_Z_k(s, T) -> (-1)^k k! as s -> 1
    T = 1.0e6
    for k in (0, 1, 2):
        s = 1.0 + 1e-3
        val = (s - 1.0) ** (k + 1) * script_zk(s, k, T)
        target = (-1.0) ** k * math.factorial(k)
        assert abs(val - target) <= 2e-2 * abs(target), k


def test_script_zk_root_refines_seed():
    from hzml.thetaroots import trunc_exp_roots, z_from_theta

    T = 1.0e6
    L = window_log(T)
    theta = trunc_exp_roots(1).roots[0]  # the single root of 1 + theta
    seed = z_from_theta(theta, T)
    root = script_zk_root(1, T, seed)
    assert abs(root - seed) <= 10.0 / L**2
    assert abs(script_zk(root, 1, T)) < 1e-10


def test_script_zk_root_stall_raises():
    with pytest.raises(ConvergenceError):
        script_zk_root(1, 1.0e6, 0.5 + 14.1j, max_iter=2, tol=1e-15)
