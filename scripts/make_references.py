"""Write the reference files of tests/data: the 50-digit values of C_{j,k}
(coefficients.json) and hzml's golden outputs (golden.json).

C_{j,k} = per_TL, the coefficient of T L^{2j+2} in the five-term
prediction, is computed here by the root road alone: mpmath.polyroots of
the integer polynomial k! E_k at high precision, then the five terms as
direct mp sums over the roots,

    delta_{0,k} / (2^{2j+1}(2j+1))
  - (k+1)(1+(-1)^j) / (2^{2j+2}(j+1)^2)
  + sum_{u=1}^{j} (-1)^u j! S_{u+1} / ((2j+1-u)(j-u)! 2^{2j+1})
  + (-1)^{j+1} (j!)^2 S_{2j+2} / 2^{2j+2}
  + (-1)^j (j!)^2 sum_g e^{-2 theta_g} theta_g^{-(2j+2)} E_j(theta_g)^2 / 2^{2j+2}

all over pi, with S_u = sum_g theta_g^{-u}. Nothing of hzml is used, so
the file checks hzml.coeffs.breakdown, which takes the coefficient side
(exact power sums) instead. The terms cancel by up to 15 digits (j = 12,
k = 1), so the sums run at DPS = 80 digits to keep 50 good ones.

golden.json holds hzml's stdout for each command line of GOLDEN_ARGV,
run in-process, with the numpy version and platform that made it;
tests/test_golden.py reruns them and compares field by field. A change
that moves one of these numbers regenerates the file, so the move shows
in its diff.

Usage (about 10 s):
    PYTHONPATH=src python3 scripts/make_references.py   # writes both files
"""

import contextlib
import io
import json
import platform
from pathlib import Path

import mpmath as mp

DPS = 80
DIGITS = 50
J_MAX = 12
K_MAX = 25
DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
OUT = DATA / "coefficients.json"
GOLDEN = DATA / "golden.json"
GOLDEN_ARGV = (
    ("verify", "--j", "0", "--k", "1", "--t-max", "2000"),
    ("cmoment", "--j", "0", "--t-max", "2000"),
    ("zeros", "--k", "1", "--t-max", "2000"),
    ("coeff", "--j", "2", "--k", "3", "--asymptotic"),
    ("coeff", "--j", "12", "--k", "1", "--asymptotic"),
    ("theta-roots", "--k", "40"),
)


def roots(k: int) -> list:
    """The k roots of k! E_k(theta) = sum_mu k!/mu! theta^mu, at DPS."""
    coeffs = [mp.factorial(k) / mp.factorial(mu) for mu in range(k, -1, -1)]
    return mp.polyroots(coeffs, maxsteps=400, extraprec=120)


def per_tl(j: int, k: int, thetas: list) -> mp.mpf:
    """C_{j,k} from the roots of k! E_k (an empty list for k = 0)."""
    fj = mp.factorial(j)
    terms = [-mp.mpf((k + 1) * (1 + (-1) ** j)) / (2 ** (2 * j + 2) * (j + 1) ** 2)]
    if k == 0:
        terms.append(mp.mpf(1) / (2 ** (2 * j + 1) * (2 * j + 1)))
    else:
        def s(u):
            return mp.fsum(th ** (-u) for th in thetas)

        for u in range(1, j + 1):
            terms.append((-1) ** u * fj * s(u + 1) / (
                (2 * j + 1 - u) * mp.factorial(j - u) * 2 ** (2 * j + 1)
            ))
        terms.append((-1) ** (j + 1) * fj**2 * s(2 * j + 2) / 2 ** (2 * j + 2))
        exp_sum = mp.fsum(
            mp.exp(-2 * th) * th ** (-(2 * j + 2))
            * mp.fsum(th**mu / mp.factorial(mu) for mu in range(j + 1)) ** 2
            for th in thetas
        )
        terms.append((-1) ** j * fj**2 * exp_sum / 2 ** (2 * j + 2))
    value = mp.fsum(terms)
    # digits below the roots' precision, scaled by the largest term, are
    # noise: the diagonal j = k, exactly 0, comes out near 1e-85 otherwise
    floor = mp.mpf(10) ** (20 - DPS) * max(abs(t) for t in terms)
    assert abs(mp.im(value)) <= floor, (j, k, value)
    return mp.re(value) / mp.pi if abs(value) > floor else mp.mpf(0)


def table() -> list[dict]:
    rows = []
    with mp.workdps(DPS):
        for k in range(K_MAX + 1):
            thetas = roots(k) if k else []
            for j in range(J_MAX + 1):
                rows.append({"j": j, "k": k, "per_TL": mp.nstr(per_tl(j, k, thetas), DIGITS)})
    return rows


def hzml_stdout(argv) -> str:
    """What `hzml *argv` prints, run in-process."""
    from hzml.cli import main as hzml_main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hzml_main(list(argv))
    assert code == 0, (argv, code)
    return buf.getvalue()


def write_golden() -> None:
    import numpy as np

    payload = {
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "platform": f"{platform.system()} {platform.machine()}",
    }
    rows = ",\n".join(
        "  " + json.dumps({"argv": list(a), "stdout": hzml_stdout(a)}) for a in GOLDEN_ARGV
    )
    head = json.dumps(payload, indent=1)[:-2]
    GOLDEN.write_text(f'{head},\n "outputs": [\n{rows}\n ]\n}}\n')


def main() -> None:
    payload = {
        "quantity": "per_TL = C_{j,k}, coefficient of T L^{2j+2}",
        "method": "mpmath.polyroots of k! E_k, direct sums over the roots",
        "mpmath_version": mp.__version__,
        "dps": DPS,
        "digits": DIGITS,
    }
    rows = ",\n".join("  " + json.dumps(r) for r in table())
    head = json.dumps(payload, indent=1)[:-2]
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(f'{head},\n "values": [\n{rows}\n ]\n}}\n')
    write_golden()


if __name__ == "__main__":
    main()
