"""The table of log n / 2 pi and the theta split against 40-digit decimals.

Oracle: Python's decimal module at 40 digits, which shares no code with the
double-double build; a split of a decimal value v is (v rounded to a
multiple of 2^-29, the rest, v), each rounded once to double.
"""

import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np

import hzml
from hzml.phase import _INV_TWO_PI, _LOG2, _THETA_C, _TWO_PI, _log_table, _theta_split
from hzml.zetacore import MU_CAP, T_CAP, _n_terms

_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _split_turns(v: Decimal) -> tuple[float, float, float]:
    v_hi = (v * 2**29).to_integral_value() / 2**29
    return float(v_hi), float(v - v_hi), float(v)


def _dd(v: Decimal) -> tuple[float, float]:
    hi = float(v)
    return hi, float(v - Decimal(hi))


def test_literals_match_decimal():
    with localcontext() as ctx:
        ctx.prec = 40
        two_pi = 2 * _PI
        assert _LOG2 == _dd(Decimal(2).ln())
        assert _TWO_PI == _dd(two_pi)
        assert _INV_TWO_PI == _dd(1 / two_pi)
        assert _THETA_C == _dd((1 + two_pi.ln()) / two_pi)


def test_log_table_matches_decimal():
    tab = _log_table()
    n_max = _n_terms(T_CAP, MU_CAP)
    assert tab.u.size == n_max == 55008
    rng = np.random.default_rng(17)
    # every n to 2000, the edges of the former blocks of 256, 1,500 random
    # n and the last row
    edges = [n for b in range(1, n_max // 256 + 1) for n in (256 * b - 1, 256 * b)]
    n = np.unique(np.concatenate([np.arange(1, 2001), edges, rng.integers(2001, n_max, 1500), [n_max]]))
    i = n - 1
    mine = np.stack([tab.u_hi[i], tab.u_lo[i], tab.u[i], tab.logn[i]], axis=1)
    with localcontext() as ctx:
        ctx.prec = 40
        two_pi = 2 * _PI
        logs = [Decimal(k).ln() for k in n.tolist()]
        ref = np.array([(*_split_turns(lg / two_pi), float(lg)) for lg in logs])
        assert np.array_equal(mine, ref)
        # the double-double rows: u + u_tail and logn + logn_lo to ~1e-32
        # relative
        for k, lg in zip(i.tolist(), logs):
            u_gap = lg / two_pi - Decimal(tab.u[k]) - Decimal(tab.u_tail[k])
            log_gap = lg - Decimal(tab.logn[k]) - Decimal(tab.logn_lo[k])
            assert abs(u_gap) <= Decimal("3e-32") * lg and abs(log_gap) <= Decimal("3e-32") * lg, k + 1


def test_theta_split_matches_decimal():
    # (log(n / 2 pi) - 1) / 2 pi on every n below 768 and in [1000, 1600),
    # the ends of every former block of 256 and 1,500 random n up to the
    # height cap
    rng = np.random.default_rng(17)
    edges = [n for b in range(4, 196) for n in (256 * b - 1, 256 * b)]
    n = np.unique(
        np.concatenate(
            [np.arange(1, 768), np.arange(1000, 1600), edges, rng.integers(1600, 50001, 1500), [50000]]
        )
    ).astype(float)
    assert n.size >= 2700 and n.max() <= T_CAP
    mine = np.array(_theta_split(n)).T
    with localcontext() as ctx:
        ctx.prec = 40
        two_pi = 2 * _PI
        ref = np.array([_split_turns(((Decimal(int(v)) / two_pi).ln() - 1) / two_pi) for v in n.tolist()])
    assert np.array_equal(mine, ref)


def test_import_leaves_mpmath_unloaded():
    # mpmath is imported where thetaroots' root finder needs it, not by
    # `import hzml`, and the prediction (exact power sums) never needs it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(hzml.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    for call in ("pass", "hzml.moment_report(0, 1, 300.0)"):
        code = f"import sys, hzml; {call}; print('mpmath' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False", call
