"""Command-line contract: payload shapes, formatting, exit codes, and
byte-level determinism of the emitted reports."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

if sys.version_info >= (3, 11):
    import tomllib
else:  # pytest itself depends on tomli before 3.11
    import tomli as tomllib

import hzml
from hzml.cli import _fmt_float, build_parser, main
from hzml.errors import CompletenessAlarm
from hzml.moments import find_zeros


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeff_asymptotic_anchor(capsys):
    code, out, err = run_cli(
        capsys, "coeff", "--j", "0", "--k", "1", "--asymptotic"
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["schema"] == "1"
    assert payload["command"] == "coeff"
    assert payload["mode"] == "asymptotic"
    target = (math.e**2 - 5.0) / (4.0 * math.pi)
    assert abs(payload["per_TL"] - target) < 1e-13


def test_coeff_diagonal_total_zero(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--j", "1", "--k", "1", "--asymptotic")
    assert code == 0
    payload = json.loads(out)
    assert payload["per_TL"] == 0.0
    assert payload["total"] == 0.0


def test_coeff_finite_needs_T(capsys):
    code, out, err = run_cli(capsys, "coeff", "--j", "0", "--k", "1")
    assert code == 2
    assert out == ""
    assert "validation error" in err


def test_zeros_csv_header_only_window(capsys):
    code, out, err = run_cli(capsys, "zeros", "--k", "0", "--t-max", "3", "--csv")
    assert code == 0 and err == ""
    assert out == "index,gamma,bracket_width\n"


def test_zeros_csv_first_zero(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--k", "0", "--t-max", "16", "--csv")
    assert code == 0
    assert "\r" not in out
    lines = out.splitlines()
    assert lines[0] == "index,gamma,bracket_width"
    assert len(lines) == 2
    idx, gamma, width = lines[1].split(",")
    assert idx == "0"
    assert abs(float(gamma) - 14.134725141734693) < 1e-6
    assert float(width) <= 1e-8


def test_zeros_json_round_trips_exactly(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--k", "1", "--t-max", "40")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == len(payload["zeros"])
    zl = find_zeros(1, 2.0, 40.0)
    # .17g is lossless for doubles: parsed floats equal the library's bits
    assert payload["zeros"] == list(zl.zeros)


def test_theta_roots_payload(capsys):
    code, out, _ = run_cli(capsys, "theta-roots", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 2
    roots = [(r["re"], r["im"]) for r in payload["roots"]]
    assert roots == [(-1.0, -1.0), (-1.0, 1.0)]
    assert sorted(payload["power_sums"]) == sorted(str(u) for u in range(1, 7))
    assert payload["power_sums"]["1"] == -1.0


def test_identities_clean_sweep(capsys):
    code, out, _ = run_cli(capsys, "identities", "--j-max", "3", "--k-max", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_checked"] == 62
    assert payload["nonzero_gaps"] == []


def test_cmoment_payload(capsys):
    code, out, _ = run_cli(capsys, "cmoment", "--j", "0", "--t-max", "200")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] > 0.0
    assert payload["hall"] > 0.0
    assert payload["ratio"] == payload["value"] / payload["hall"]


def test_cmoment_reports_quadrature(capsys):
    code, out, _ = run_cli(capsys, "cmoment", "--j", "0", "--t-max", "200")
    assert code == 0
    payload = json.loads(out)
    assert list(payload)[-3:] == ["error_estimate", "panels", "evaluations"]
    assert payload["evaluations"] == 15 * payload["panels"] + 64
    assert 0.0 < payload["error_estimate"] <= 1e-9 * payload["value"]
    for workers in ("2", "4"):
        again = run_cli(capsys, "cmoment", "--j", "0", "--t-max", "200", "--workers", workers)
        assert again == (0, out, "")


def _never(*args, **kwargs):
    raise AssertionError("ran before the domain check")


def test_cmoment_checks_prediction_domain_first(capsys, monkeypatch):
    # Hall's prediction needs T >= 10; the integral must not run first
    import hzml.cli as cli_mod
    import hzml.moments as mo

    monkeypatch.setattr(cli_mod, "quadrature_report", _never)
    monkeypatch.setattr(mo, "_z_core", _never)
    code, out, err = run_cli(capsys, "cmoment", "--j", "0", "--t-max", "9.5")
    assert (code, out) == (2, "")
    assert err == "validation error: window parameter T must be >= 10\n"


def test_moment_checks_prediction_domain_first(capsys, monkeypatch):
    # the finite-T prediction needs T >= 100; the census must not run first
    import hzml.moments as mo

    monkeypatch.setattr(mo, "find_zeros_certified", _never)
    monkeypatch.setattr(mo, "z_deriv_many", _never)
    code, out, err = run_cli(capsys, "moment", "--j", "0", "--k", "1", "--t-max", "50")
    assert (code, out) == (2, "")
    assert err == "validation error: finite mode needs T >= 100\n"


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_cmoment_rejects_bad_tol(capsys, tol):
    code, out, err = run_cli(capsys, "cmoment", "--j", "0", "--t-max", "3", "--tol", tol)
    assert code == 2 and out == ""
    assert "tol" in err


def test_moment_and_verify_agree(capsys):
    args = ["--j", "0", "--k", "1", "--t-max", "300"]
    code_m, out_m, _ = run_cli(capsys, "moment", *args)
    code_v, out_v, _ = run_cli(capsys, "verify", *args)
    assert code_m == code_v == 0
    pm, pv = json.loads(out_m), json.loads(out_v)
    assert pm.pop("command") == "moment"
    assert pv.pop("command") == "verify"
    assert pm == pv


def test_byte_identical_across_runs_and_workers(capsys):
    base = run_cli(capsys, "zeros", "--k", "0", "--t-max", "120")
    again = run_cli(capsys, "zeros", "--k", "0", "--t-max", "120")
    threaded = run_cli(capsys, "zeros", "--k", "0", "--t-max", "120", "--workers", "3")
    assert base == again == threaded


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "theta-roots", "--k", "1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    on_disk = target.read_text()
    code2, stdout_text, _ = run_cli(capsys, "theta-roots", "--k", "1")
    assert on_disk == stdout_text


def test_csv_rejected_outside_zeros(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeff", "--j", "0", "--k", "1", "--asymptotic", "--csv"])
    assert exc.value.code == 2


def test_domain_error_maps_to_exit_2(capsys):
    code, out, err = run_cli(capsys, "moment", "--j", "99", "--k", "1", "--t-max", "300")
    assert code == 2
    assert out == ""
    assert "validation error" in err


def test_alarm_maps_to_exit_3(capsys, monkeypatch):
    import hzml.cli as cli_mod

    def boom(*a, **kw):
        raise CompletenessAlarm("zero census failed to stabilize")

    monkeypatch.setattr(cli_mod, "moment_report", boom)
    code, out, err = run_cli(capsys, "moment", "--j", "0", "--k", "1", "--t-max", "300")
    assert code == 3
    assert out == ""
    diag = json.loads(err)
    assert diag["alarm"] == "CompletenessAlarm"
    assert diag["schema"] == "1"


def test_workers_flag_is_validated_and_hidden(capsys):
    # --workers still parses for old command lines, as a positive int, and
    # no help text offers it
    args = build_parser().parse_args(["zeros", "--k", "0", "--t-max", "3", "--workers", "3"])
    assert args.workers == 3
    with pytest.raises(SystemExit) as exc:
        main(["zeros", "--k", "0", "--t-max", "3", "--workers", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["zeros", "--help"])
    assert "--workers" not in capsys.readouterr().out


def test_float_formatting():
    assert _fmt_float(float("nan")) == '"nan"'
    assert _fmt_float(float("inf")) == '"inf"'
    assert _fmt_float(float("-inf")) == '"-inf"'
    assert _fmt_float(0.1) == "0.10000000000000001"
    assert float(_fmt_float(math.pi)) == math.pi


ANCHOR_ARGS = ("coeff", "--j", "1", "--k", "0", "--asymptotic")


def _console_script_target() -> str:
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["hzml"]


def _subprocess_env() -> dict:
    # Put the tree this process imported hzml from first on the path, so the
    # child runs the code under test rather than some other installed copy.
    env = dict(os.environ)
    src = str(Path(hzml.__file__).resolve().parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")
    return env


def _run_anchor(cmd, tmp_path):
    proc = subprocess.run(
        [*cmd, *ANCHOR_ARGS],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert abs(payload["per_TL"] - 1.0 / (24.0 * math.pi)) < 1e-15


def test_console_entry_point(tmp_path):
    # What the generated console-script wrapper for [project.scripts] runs.
    module, _, attr = _console_script_target().partition(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {attr.split('.')[0]}\n"
        "sys.argv[0] = 'hzml'\n"
        f"sys.exit({attr}())\n"
    )
    _run_anchor([sys.executable, "-c", wrapper], tmp_path)
    _run_anchor([sys.executable, "-m", "hzml.cli"], tmp_path)


@pytest.mark.skipif(
    shutil.which("hzml") is None, reason="hzml console script not installed"
)
def test_installed_console_script(tmp_path):
    _run_anchor([shutil.which("hzml")], tmp_path)
