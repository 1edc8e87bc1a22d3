import copy
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from foldedmaps import cli, moduli
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


def _numpy_floats(obj):
    # the same values with every float an np.float64, so no list takes
    # format_json's all-float fast path
    if type(obj) is float:
        return np.float64(obj)
    if isinstance(obj, dict):
        return {k: _numpy_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_numpy_floats(v) for v in obj)
    return obj


def test_float_list_fast_path_is_byte_identical():
    # signed zeros, the extremes and whole numbers, which %.17g and
    # format(v, ".17g") both print without a decimal point
    floats = [0.1, -0.0, 0.0, 1e-300, 2.0 / 3.0, 1e22, -5.0, 5e-324, 1e308,
              1.0, 2.0 ** 53, 3e16, 12345678.0]
    mixed = [0.1, np.float64(0.2), 3, True, None, -0.0, np.int64(4)]
    nested = [[0.5, 0.25], [np.float64(1.5), 2], {"a": [1.0, -0.0]}, 0.75,
              (0.125, 0.5), [], mixed]
    report = {"floats": floats, "mixed": mixed, "nested": nested,
              "flag": False, "label": "x"}
    for obj in (floats, tuple(floats), mixed, nested, report):
        assert cli.format_json(obj) == cli.format_json(_numpy_floats(obj))
    assert cli.format_json(floats) == \
        "[" + ", ".join(format(v, ".17g") for v in floats) + "]"


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
    assert rep["schema"] == "folded-maps/2"


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_degree_d_tier_violation(tmp_path):
    for p, q in [([5.0, 1.0], [0.1]),       # |w(0)| > 1
                 ([0.3, 1.0], [0.2]),       # not a circle
                 ([0, 1e-7], [1e-8]),       # a circle of radius 1e7
                 ([0, 1e7], [1e-8]),        # a circle of radius 1e-7
                 ([0, 1e200], [0.1]),       # |p_1|^2 overflows
                 ([0, 1e150], [0.1])]:      # P(s) overflows at s = 1e12
        curve = _curve_file(tmp_path, p, q)
        code = run(["degree-d", "--curve", curve, "--resolution", "128",
                    "--out", str(tmp_path / "x.json")])
        assert code == cli.EXIT_TIER
        assert not (tmp_path / "x.json").exists()


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


def test_compactify_keeps_its_own_radial_nodes(tmp_path, monkeypatch):
    # grid.radial_nodes is the degree1 and degree-d setting only
    seen = []
    sample = moduli.compactification_sample
    monkeypatch.setattr(moduli, "compactification_sample",
                        lambda c, m, m_res, nr: seen.append(nr)
                        or sample(c, m, m_res, nr))
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"grid": {"radial_nodes": 8}}')
    outs = []
    for config in ([], ["--config", str(cfg)]):
        outs.append(tmp_path / f"t{len(outs)}.csv")
        assert run(config + ["compactify", "--steps", "2", "--resolution",
                             "64", "--out", str(outs[-1])]) == cli.EXIT_PASS
    assert seen == [cli.COMPACTIFY_RADIAL_NODES] * 2
    assert outs[0].read_bytes() == outs[1].read_bytes()


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


@pytest.fixture(scope="module")
def report64(tmp_path_factory):
    path = tmp_path_factory.mktemp("report") / "r.json"
    assert run(["degree1", "--c", "0.5", "--resolution", "64",
                "--out", str(path)]) == cli.EXIT_PASS
    return json.loads(path.read_text())


MALFORMED_REPORTS = {
    "nan-AF_re": lambda rep: rep["boundary_operator"]["AF_re"].__setitem__(
        5, math.nan),
    "nan-a": lambda rep: rep["boundary_operator"]["a"].__setitem__(
        5, math.nan),
    "nan-plus_re": lambda rep: rep["loops"]["plus_re"].__setitem__(
        5, math.nan),
    "short-a": lambda rep: rep["boundary_operator"].update(
        a=rep["boundary_operator"]["a"][:10]),
    "empty-a": lambda rep: rep["boundary_operator"].update(a=[]),
    "no-loops": lambda rep: rep.pop("loops"),
}


def test_report_has_no_gap_profile_copy(report64):
    assert "gap_profile" not in report64
    assert report64["schema"] == "folded-maps/2"


def test_certificate_reads_schema_1_reports(tmp_path, report64):
    # earlier reports carry the /1 tag and a gap_profile copy of the gap
    old = copy.deepcopy(report64)
    old["schema"] = "folded-maps/1"
    old["gap_profile"] = old["boundary_operator"]["a"]
    certs = []
    for name, rep in (("new", report64), ("old", old)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(rep))
        out = tmp_path / f"{name}-cert.json"
        assert run(["certificate", "--bundle", str(path),
                    "--out", str(out)]) == cli.EXIT_PASS
        certs.append(out.read_text())
    assert certs[0] == certs[1]
    assert json.loads(certs[1])["schema"] == "folded-maps/2"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_certificate_of_large_loop_directions(tmp_path, report64):
    # the indices depend on the phases of the loop directions only, so
    # directions scaled by 1e200 certify exactly like the report itself
    scaled = copy.deepcopy(report64)
    scaled["loops"] = {k: [1e200 * x for x in v]
                       for k, v in scaled["loops"].items()}
    certs = []
    for name, rep in (("plain", report64), ("scaled", scaled)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(rep))
        out = tmp_path / f"{name}-cert.json"
        assert run(["certificate", "--bundle", str(path),
                    "--out", str(out)]) == cli.EXIT_PASS
        certs.append(out.read_text())
    assert certs[0] == certs[1]


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
def test_certificate_rejects_malformed_report(tmp_path, capsys, report64,
                                              case):
    rep = copy.deepcopy(report64)
    MALFORMED_REPORTS[case](rep)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rep))
    capsys.readouterr()
    assert run(["certificate", "--bundle", str(bad),
                "--out", "-"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "Traceback" not in err


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


@pytest.mark.parametrize("target", ["missing-dir", "dev-full"])
@pytest.mark.parametrize("command", ["degree1", "degree-d", "compactify",
                                     "certificate"])
def test_unwritable_out_is_an_input_error(tmp_path, capsys, report64,
                                          command, target):
    # open fails in a missing directory; on /dev/full the write does
    if target == "dev-full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    bundle = tmp_path / "r.json"
    bundle.write_text(json.dumps(report64))
    argv = {"degree1": ["degree1", "--c", "0.3", "--resolution", "64"],
            "degree-d": ["degree-d", "--curve",
                         _curve_file(tmp_path, [0.0, 0.866], 0.5),
                         "--resolution", "64"],
            "compactify": ["compactify", "--steps", "2", "--resolution",
                           "64"],
            "certificate": ["certificate", "--bundle", str(bundle)]}[command]
    out = (str(tmp_path / "missing" / "x.json") if target == "missing-dir"
           else "/dev/full")
    capsys.readouterr()
    assert run(argv + ["--out", out]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {out!r}")
    assert err.count("\n") == 1 and "Traceback" not in err


# ---------------------------------------------------------------------------
# --config


def test_config_does_not_leak_into_later_calls(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tol": {"ellipticity_floor": 1e9}}')
    argv = ["degree1", "--c", "0.3", "--resolution", "64",
            "--out", str(tmp_path / "r.json")]
    assert run(["--config", str(cfg)] + argv) == cli.EXIT_VERIFY
    assert run(argv) == cli.EXIT_PASS


@pytest.mark.parametrize("field", ["stencil_rings", "stencil_spacing",
                                   "outer_ring_s", "energy_s_max",
                                   "energy_s_nodes"])
def test_config_rejects_unknown_grid_field(tmp_path, capsys, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": {"ellipticity_floor": 1e9},
                               "grid": {field: 1}}))
    argv = ["degree1", "--c", "0.3", "--resolution", "64",
            "--out", str(tmp_path / "r.json")]
    assert run(["--config", str(cfg)] + argv) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error:")
    # the tolerance applied before the bad grid field is rolled back too
    assert run(argv) == cli.EXIT_PASS


@pytest.mark.parametrize("text", [
    '{"grid": {"radial_nodes": -1}}',
    '{"grid": {"radial_nodes": 1}}',
    '{"grid": {"radial_nodes": 8.0}}',
    '{"grid": {"radial_nodes": true}}',
    '{"grid": {"boundary_samples": 100}}',
    '{"grid": {"boundary_samples": 16384}}',
    '2.5', '"8"', '[1, 2]', 'null',
    '{"tol": {"ellipticity_floor": null}}',
    '{"tol": {"fold_circularity": "x"}}',
    '{"tol": {"fold_circularity": NaN}}',
    '{"tol": {"fold_circularity": Infinity}}',
    '{"tol": {"fold_circularity": 1' + '0' * 400 + '}}',
    '{"tol": {"fold_circularity": false}}',
    # delta_max and abs_tol are no longer config fields
    '{"tol": {"delta_max": "x"}}',
    '{"tol": {"delta_max": NaN}}',
    '{"tol": {"delta_max": Infinity}}',
    '{"tol": {"delta_max": 1' + '0' * 400 + '}}',
    '{"tol": {"abs_tol": false}}',
    '{"tol": [1e-9]}',
    '{"grid": 4}',
    '{"tolerances": {}}',
])
def test_malformed_config_is_an_input_error(tmp_path, capsys, text):
    # in process: an exception escaping main fails the test like a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run(["--config", str(cfg), "degree1", "--c", "0.3",
                "--resolution", "64", "--out", str(tmp_path / "r.json")]) \
        == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_config_accepts_checked_fields(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tol": {"fold_circularity": 1, "period_tol": 1e-10}, '
                   '"grid": {"radial_nodes": 32}}')
    assert run(["--config", str(cfg), "degree1", "--c", "0.3",
                "--resolution", "64", "--out", str(tmp_path / "r.json")]) \
        == cli.EXIT_PASS


@pytest.mark.parametrize("field", ["abs_tol", "tangent_tol", "eigen_gap",
                                   "sqrt_condition", "delta_max"])
def test_config_rejects_tolerances_no_command_reads(tmp_path, capsys, field):
    # each is a module constant beside its one reader, which no command calls
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": {field: 1e-9}}))
    for argv in (["degree1", "--c", "0.3"], ["compactify", "--steps", "2"]):
        assert run(["--config", str(cfg)] + argv + [
            "--resolution", "64", "--out", str(tmp_path / "r.out")]) \
            == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            f"input error: unknown config field tol.{field}")
        assert not (tmp_path / "r.out").exists()


def test_config_boundary_samples_is_unknown(tmp_path, capsys):
    # the sample count is each command's --resolution, not a config field
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"grid": {"boundary_samples": 64}}')
    for argv in (["degree1", "--c", "0.3"], ["compactify", "--steps", "2"]):
        assert run(["--config", str(cfg)] + argv + [
            "--resolution", "64", "--out", str(tmp_path / "r.out")]) \
            == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: unknown config field "
                              "grid.boundary_samples")
        assert "Traceback" not in err
        assert not (tmp_path / "r.out").exists()


def test_config_integer_fields_reject_bool(tmp_path):
    from foldedmaps.config import CONFIG, load_config
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"grid": {"radial_nodes": true}}')
    grid = CONFIG.grid
    with pytest.raises(ValueError, match="must be an integer"):
        load_config(str(cfg))
    assert CONFIG.grid is grid


# ---------------------------------------------------------------------------
# errors raised inside the computation


def test_linalg_error_is_a_verification_error(tmp_path, capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    capsys.readouterr()
    assert run(["degree1", "--c", "0.3", "--resolution", "64",
                "--out", str(tmp_path / "r.json")]) == cli.EXIT_VERIFY
    err = capsys.readouterr().err
    assert err == "verification error: SVD did not converge\n"
    assert not (tmp_path / "r.json").exists()


def test_error_on_the_pooled_side_keeps_its_exit_code(tmp_path, capsys,
                                                      monkeypatch):
    # the minus side runs on the side pool; its error still reaches main
    from foldedmaps.errors import DomainError

    threads = []
    ladder = moduli._family_ladder

    def failing_minus_ladder(c, m, m_res, side, shared):
        if side < 0:
            threads.append(threading.current_thread().name)
            raise DomainError("minus side rejected")
        return ladder(c, m, m_res, side, shared)

    monkeypatch.setattr(moduli, "_family_ladder", failing_minus_ladder)
    capsys.readouterr()
    assert run(["degree1", "--c", "0.3", "--resolution", "64",
                "--out", str(tmp_path / "r.json")]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "input error: minus side rejected\n"
    assert threads and threads[0].startswith("foldedmaps-side")
    assert not (tmp_path / "r.json").exists()


def test_lower_ball_violation_is_a_verification_error(tmp_path, capsys,
                                                      monkeypatch):
    # a multiplier twice too large puts |f w| above 1 on the lower chart,
    # which is built on the calling thread while the pooled side thread
    # builds v_- from the same multiplier
    from foldedmaps import harmonic, moduli
    from foldedmaps.errors import VerificationError

    threads = []
    samples = harmonic.LaurentField.multiplier_samples
    curve_planes = moduli._curve_planes

    def doubled(self, r=None):
        return 2.0 * samples(self, r)

    def recording(*args):
        try:
            return curve_planes(*args)
        except VerificationError:
            threads.append(threading.current_thread().name)
            raise

    monkeypatch.setattr(harmonic.LaurentField, "multiplier_samples", doubled)
    monkeypatch.setattr(moduli, "_curve_planes", recording)
    curve = _curve_file(tmp_path, [0, 0, 0.8], [0.6])
    capsys.readouterr()
    assert run(["degree-d", "--curve", curve, "--resolution", "64",
                "--out", str(tmp_path / "r.json")]) == cli.EXIT_VERIFY
    err = capsys.readouterr().err
    assert err.startswith("verification error: |f w| exceeds 1 on the "
                          "lower domain")
    assert "Traceback" not in err
    assert threads == [threading.current_thread().name]
    assert not (tmp_path / "r.json").exists()
