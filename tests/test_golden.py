"""hzml's stdout against the golden outputs in tests/data/golden.json
(written by scripts/make_references.py), compared field by field.

Ints, strings, key order and list lengths must match exactly. Zeros and
their bracket widths are held to 1e-12 in t, and the root residuals only
to their bound 1e-12 k!, not digit by digit. The two error measures are
held in the units of what they measure: error_estimate to 1e-13 of the
integral's value, and max_imag_leak, already scaled by 1 + |Z|, to
1e-13. Every other float is held to 1e-13 relative. Bitwise equality
would tie the file to one libm. Each case prints its largest drift as a
share of its tolerance (run with -s to see it).
"""

import json
import math
from pathlib import Path

import pytest

from hzml.cli import main

GOLDEN = json.loads((Path(__file__).resolve().parent / "data" / "golden.json").read_text())
ZERO_ABS = 1e-12
REL = 1e-13


def _leaves(value, path=()):
    """(path, leaf) pairs of a parsed payload in output order; a dict
    yields its key tuple and a list its length before their entries."""
    if isinstance(value, dict):
        yield path, tuple(value)
        for key, v in value.items():
            yield from _leaves(v, path + (key,))
    elif isinstance(value, list):
        yield path, len(value)
        for i, v in enumerate(value):
            yield from _leaves(v, path + (i,))
    else:
        yield path, value


def _tolerance(field: str, golden: float, payload: dict) -> float:
    if field in ("zeros", "bracket_widths"):
        return ZERO_ABS
    if field == "error_estimate":
        return REL * abs(payload["value"])
    if field == "max_imag_leak":
        return REL
    return REL * abs(golden)


@pytest.mark.parametrize(
    "case", GOLDEN["outputs"], ids=[" ".join(c["argv"]) for c in GOLDEN["outputs"]]
)
def test_golden_output(case, capsys):
    assert main(case["argv"]) == 0
    new = json.loads(capsys.readouterr().out)
    old = json.loads(case["stdout"])
    drift, where = 0.0, None
    for (path, a), (new_path, b) in zip(_leaves(old), _leaves(new)):
        assert path == new_path, (path, new_path)
        numbers = type(a) in (int, float) and type(b) in (int, float)
        if len(path) == 2 and path[0] == "residuals":
            bound = 1e-12 * math.factorial(new["k"])
            assert 0.0 <= b <= bound, (path, b, bound)
            share = b / bound
        elif numbers and float in (type(a), type(b)):
            tol = _tolerance(path[0], a, old)
            assert abs(b - a) <= tol, (path, a, b, tol)
            share = abs(b - a) / tol if tol else 0.0
        else:
            assert a == b and type(a) is type(b), (path, a, b)
            continue
        if share > drift or where is None:
            drift, where = share, path
    print(f"{' '.join(case['argv'])}: largest drift {drift:.3g} of tolerance at {where}")
