"""Tests of the benchmark's own checks, inputs, spans and metric names.

Run from the root of a checkout: python -m pytest -q perfbench
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def good_report(degree=1):
    return {"pass": True, "residuals": {"max_residual": 3e-12},
            "certificate": {"pass": True, "reducedIndex": 4 * degree - 1}}


def test_good_report_passes_every_check():
    for d in (1, 3, 5):
        assert W.check_report(good_report(d), d) == []


@pytest.mark.parametrize("tamper", [
    lambda r: r.update({"pass": False}),
    lambda r: r["certificate"].update({"reducedIndex": 4}),
    lambda r: r["certificate"].update({"pass": False}),
    lambda r: r["residuals"].update({"max_residual": 1e-5}),
    lambda r: r["residuals"].update({"max_residual": float("nan")}),
    lambda r: r.pop("certificate"),
    lambda r: r.pop("residuals"),
])
def test_tampered_report_fails(tamper):
    report = good_report()
    tamper(report)
    assert W.check_report(report, 1)


def test_tampered_report_counts_as_failed_op(tmp_path):
    """The degree1 op reads the report the CLI wrote; a tampered one fails."""
    op = W.Degree1Op([{"c": "0.3+0.1j", "m": "1+0j"}], str(tmp_path))

    class FakeCli:
        def __init__(self, report, rc=0):
            self.report, self.rc = report, rc

        def main(self, argv):
            with open(argv[argv.index("--out") + 1], "w") as fh:
                json.dump(self.report, fh)
            return self.rc

    op.cli = FakeCli(good_report())
    assert op(0)[1] == []
    bad = good_report()
    bad["certificate"]["reducedIndex"] = 7
    op.cli = FakeCli(bad)
    assert op(0)[1]
    op.cli = FakeCli(good_report(), rc=2)
    assert op(0)[1] == ["exit code 2"]


def test_partner_check():
    assert W.check_partner(1e-14) == []
    assert W.check_partner(1e-3)
    assert W.check_partner(float("nan"))


def compactify_csv(e_plus):
    rows = [f"{i / 10},{e},0.5,{e + 0.5},\"(0,1+0j)\"" for i, e in enumerate(e_plus)]
    return "\n".join([W.CSV_HEADER] + rows) + "\n"


def test_compactify_check():
    assert W.check_compactify(compactify_csv([3.0, 2.0, 1.0]), 3) == []
    assert W.check_compactify(compactify_csv([3.0, 3.0, 1.0]), 3)
    assert W.check_compactify(compactify_csv([3.0, 2.0]), 3)
    assert W.check_compactify("c_abs,E\n1,2\n", 1)


def test_inputs_follow_the_seed(tmp_path):
    (tmp_path / "a").mkdir()
    a = W.make_inputs("degree-d-m256", 7, str(tmp_path / "a"))
    b = W.make_inputs("degree-d-m256", 7, str(tmp_path))
    c = W.make_inputs("degree-d-m256", 8, str(tmp_path))
    strip = [{k: v for k, v in it.items() if k != "curve"} for it in a]
    assert strip == [{k: v for k, v in it.items() if k != "curve"} for it in b]
    assert a[0]["c"] != c[0]["c"]
    assert [it["degree"] for it in a[:10]] == [1, 2, 3, 4, 5] * 2
    cold = W.make_inputs("cli-cold", 7, str(tmp_path))
    assert [it["degree"] for it in cold[:9]] == [1] * 4 + [2] * 4 + [3]
    for it in a[:5]:
        with open(it["curve"]) as fh:
            curve = json.load(fh)
        assert len(curve["p"]) == it["degree"] + 1
        p, q = complex(*curve["p"][-1]), complex(*curve["q"][0])
        assert abs(abs(p) ** 2 + abs(q) ** 2 - 1.0) < 1e-12  # fold on |z| = 1


def test_summarize_self_time():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 2.0, 5.0, 0, 0],
             ["c", 3.0, 4.0, 1, 0], ["b", 6.0, 7.0, 0, 0]]
    out = tracing.summarize(spans)
    assert out["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert out["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert out["c"]["self_s"] == 1.0


def test_tracer_patches_and_restores():
    import numpy as np
    from foldedmaps import _spectral, cli, tunneling
    originals = (cli.format_json, _spectral.fd_weights,
                 tunneling.derived_fields)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli.format_json({"a": [1.0, 2.0], "b": {"c": [3]}})
        _spectral.fd_weights(np.arange(3.0), 0.0, 1)
        from foldedmaps import boundary_operator
        assert boundary_operator.derived_fields is tunneling.derived_fields
        assert tunneling.derived_fields is not originals[2]
    finally:
        tracer.uninstall()
    assert (cli.format_json, _spectral.fd_weights,
            tunneling.derived_fields) == originals
    names = [s[0] for s in tracer.spans]
    assert names == ["cli.format_json", "spectral.fd_weights"]


def test_tail_percentile():
    # ten samples stay above the tail; the fixed percentile caps it
    assert run.tail(list(range(20)), 99.0) == (9, 50.0)
    assert run.tail(list(range(20)), 35.0) == (6, 35.0)
    assert run.tail(list(range(16)), 35.0) == (5, 35.0)
    assert run.tail(list(range(48)), 75.0) == (35, 75.0)
    assert run.tail([3.0, 1.0, 2.0], 75.0) == (3.0, 100.0)


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:      1200 |     723602 |   scipy.integrate\n"
            "import time:       800 |     933848 | foldedmaps.cli\n")
    out = tracing.parse_importtime(text)
    assert out == {"scipy.integrate": 0.723602, "foldedmaps.cli": 0.933848}


def test_declared_metrics_are_produced():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    worker = {"op_s": [1.0, 1.2], "op_s_traced": [1.1, 1.3],
              "timed_ops": 2, "wall_s": 2.2, "cpu_s": 3.0,
              "peak_rss_kb": 1024, "child_peak_rss_kb": 2048,
              "worst_residual": 1e-12, "attempted": 3, "failed": 0,
              "traced_ops": 2, "layers": {}}
    e2e, _ = run.end_to_end("degree1-m2048", worker, [1.0, 2.0, 3.0])
    imports = [{m: 0.5 for m in run.IMPORT_LAYERS}]
    layers = run.per_layer(worker, imports)
    for kind, produced in (("end_to_end", e2e), ("per_layer", layers)):
        for m in spec[kind]:
            assert produced[m["name"]][1] == m["unit"], m["name"]
    assert math.isclose(e2e["accuracy_digits"][0], 12.0)
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)
