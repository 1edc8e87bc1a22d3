import json
import os
import subprocess
import sys

import numpy as np
import pytest

from foldedmaps import cli
from foldedmaps.errors import InputError


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# parsing and formatting


def test_parse_complex_accepts_i_and_j():
    assert cli.parse_complex("0.6+0.8i") == 0.6 + 0.8j
    assert cli.parse_complex("0.6+0.8j") == 0.6 + 0.8j
    assert cli.parse_complex("1") == 1.0
    with pytest.raises(InputError):
        cli.parse_complex("zzz")
    for bad in ("nan", "inf", "1+nani"):
        with pytest.raises(InputError):
            cli.parse_complex(bad)


def test_resolution_validation():
    with pytest.raises(InputError):
        cli._validate_resolution(100)
    with pytest.raises(InputError):
        cli._validate_resolution(32)
    assert cli._validate_resolution(256) == 256


def test_float_format_17_digits():
    s = cli.format_json({"x": 1.0 / 3.0})
    assert "0.33333333333333331" in s
    round_trip = json.loads(s)
    assert round_trip["x"] == 1.0 / 3.0


# ---------------------------------------------------------------------------
# degree1


def test_degree1_pass(tmp_path):
    out = tmp_path / "r.json"
    code = run(["degree1", "--c", "0", "--m", "1",
                "--resolution", "128", "--out", str(out)])
    assert code == cli.EXIT_PASS
    rep = json.loads(out.read_text())
    assert rep["pass"] is True
    assert rep["certificate"]["reducedIndex"] == 3
    assert rep["schema"] == "folded-maps/1"


def test_degree1_input_error(tmp_path):
    code = run(["degree1", "--c", "1.5", "--m", "1",
                "--out", str(tmp_path / "x.json")])
    assert code == cli.EXIT_INPUT


def test_degree1_unit_m_accepted(tmp_path):
    out = tmp_path / "r.json"
    code = run(["degree1", "--c", "0.5", "--m", "0.6+0.8i",
                "--resolution", "128", "--out", str(out)])
    assert code == cli.EXIT_PASS


def test_degree1_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["degree1", "--c", "0.3+0.1i", "--m", "1", "--resolution", "128",
         "--out", str(a)])
    run(["degree1", "--c", "0.3+0.1i", "--m", "1", "--resolution", "128",
         "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# degree-d


def _curve_file(tmp_path, p, q, m=1.0 + 0j):
    data = {"p": [[z.real, z.imag] for z in np.atleast_1d(p).astype(complex)],
            "q": [[z.real, z.imag] for z in np.atleast_1d(q).astype(complex)],
            "m": [m.real, m.imag]}
    f = tmp_path / "curve.json"
    f.write_text(json.dumps(data))
    return str(f)


def test_degree_d_matches_degree1(tmp_path):
    c = 0.5
    r0 = np.sqrt(1 - c ** 2)
    curve = _curve_file(tmp_path, [0, r0], [c])
    out_d = tmp_path / "d.json"
    out_1 = tmp_path / "one.json"
    assert run(["degree-d", "--curve", curve, "--resolution", "128",
                "--out", str(out_d)]) == cli.EXIT_PASS
    assert run(["degree1", "--c", "0.5", "--m", "1", "--resolution", "128",
                "--out", str(out_1)]) == cli.EXIT_PASS
    rd = json.loads(out_d.read_text())
    r1 = json.loads(out_1.read_text())
    for key in ("E_u_plus", "E_u_minus", "E_v_plus", "E_v_minus"):
        assert abs(rd["energies"][key] - r1["energies"][key]) < 1e-7
    assert rd["certificate"]["reducedIndex"] == r1["certificate"]["reducedIndex"]
    assert abs(rd["residuals"]["max_residual"]
               - r1["residuals"]["max_residual"]) < 1e-7


def test_degree_d_tier_violation(tmp_path):
    curve = _curve_file(tmp_path, [5.0, 1.0], [0.1])
    code = run(["degree-d", "--curve", curve, "--resolution", "128",
                "--out", str(tmp_path / "x.json")])
    assert code == cli.EXIT_TIER


def test_degree_d_z2_curve(tmp_path):
    curve = _curve_file(tmp_path, [0, 0, 1.0], [0.3])
    out = tmp_path / "r.json"
    assert run(["degree-d", "--curve", curve, "--resolution", "128",
                "--out", str(out)]) == cli.EXIT_PASS
    rep = json.loads(out.read_text())
    assert rep["certificate"]["reducedIndex"] == 7


# ---------------------------------------------------------------------------
# compactify


def test_compactify_table(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["compactify", "--steps", "8", "--m", "1",
                "--resolution", "128", "--out", str(out)]) == cli.EXIT_PASS
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "c_abs,E_uplus,E_uminus,E_total,limit_label"
    rows = [line.split(",") for line in lines[1:]]
    e_plus = [float(r[1]) for r in rows]
    totals = [float(r[3]) for r in rows]
    assert all(a > b for a, b in zip(e_plus, e_plus[1:]))
    assert np.std(totals) < 1e-6


# ---------------------------------------------------------------------------
# certificate


def test_certificate_roundtrip(tmp_path):
    rep_file = tmp_path / "r.json"
    run(["degree1", "--c", "0.5", "--m", "1", "--resolution", "128",
         "--out", str(rep_file)])
    cert_file = tmp_path / "c.json"
    assert run(["certificate", "--bundle", str(rep_file),
                "--out", str(cert_file)]) == cli.EXIT_PASS
    cert = json.loads(cert_file.read_text())
    for key in ("sigmaMin", "aMin", "homotopyMin", "maslovPlus",
                "maslovMinus", "index", "reducedIndex"):
        assert key in cert
    assert cert["pass"] is True
    assert cert["reducedIndex"] == 3


def test_certificate_detects_zeroed_gap(tmp_path):
    rep_file = tmp_path / "r.json"
    run(["degree1", "--c", "0.5", "--m", "1", "--resolution", "128",
         "--out", str(rep_file)])
    rep = json.loads(rep_file.read_text())
    rep["boundary_operator"]["a"][13] = 0.0
    tampered = tmp_path / "t.json"
    tampered.write_text(json.dumps(rep))
    cert_file = tmp_path / "c.json"
    assert run(["certificate", "--bundle", str(tampered),
                "--out", str(cert_file)]) == cli.EXIT_VERIFY
    cert = json.loads(cert_file.read_text())
    assert cert["pass"] is False
    assert cert["argminSample"] == 13


def test_certificate_missing_file(tmp_path):
    assert run(["certificate", "--bundle", str(tmp_path / "nope.json"),
                "--out", "-"]) == cli.EXIT_INPUT


# ---------------------------------------------------------------------------
# non-finite input


def run_subprocess(argv, cwd):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "foldedmaps.cli"] + argv,
                          cwd=cwd, env=env, capture_output=True, text=True)


@pytest.mark.parametrize("case", ["degree1", "degree-d"])
def test_nan_input_is_an_input_error(tmp_path, case):
    if case == "degree1":
        argv = ["degree1", "--c", "nan", "--resolution", "64"]
    else:
        curve = tmp_path / "curve.json"
        curve.write_text('{"p": [[0.0, 0.0], [NaN, 0.0]], "q": [[0.5, 0.0]], '
                         '"m": [1.0, 0.0]}')
        argv = ["degree-d", "--curve", str(curve), "--resolution", "64"]
    proc = run_subprocess(argv + ["--out", str(tmp_path / "r.json")],
                          tmp_path)
    assert proc.returncode == cli.EXIT_INPUT
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error:")
