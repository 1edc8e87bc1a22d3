"""Workloads of the foldedmaps benchmark: seeded inputs, the timed
operation of each workload, and the output checks that decide whether an
operation failed.

Inputs are generated here from the seed and handed to the program only as
CLI arguments, curve JSON files or the objects its public parsers build
from them.  This module imports neither numpy nor foldedmaps at the top, so
the cold-CLI driver process stays small.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import subprocess
import sys
import time

RESIDUAL_TOL = 1e-7          # the CLI's own pass threshold
PARTNER_TOL = 1e-7           # sup error of conjugate_partner against v_minus
N_INPUTS = 200               # inputs generated per run; ops cycle through them
LADDER_RINGS = 201           # tunneling.default_ring_u(): u in [0, 8], step 0.04
COMPACTIFY_STEPS = 8
CSV_HEADER = "c_abs,E_uplus,E_uminus,E_total,limit_label"

# unit: ops per scheduling unit.  A run times whole units, so every degree
# of the degree cycle and every command of the round robin is sampled
# equally often and per-op call counts repeat exactly.
# tail_pct: the op_s.tail percentile, the highest that leaves ten samples
# above it at the op count a 30 s run reaches on a 2-core x86 VM (about 17
# for degree1-m2048 and cli-cold, 45 for degree-d-m256).  It is fixed so
# that runs compare like with like, and lowered only in a run too short to
# leave ten samples above it.
WORKLOADS = {
    "degree1-m2048": {"unit": 1, "resolution": 2048, "in_process": True,
                      "tail_pct": 35.0},
    "degree-d-m256": {"unit": 5, "resolution": 256, "in_process": True,
                      "tail_pct": 75.0},
    "cli-cold": {"unit": 4, "resolution": 512, "in_process": False,
                 "tail_pct": 35.0},
}
DEGREES = (1, 2, 3, 4, 5)


# ---------------------------------------------------------------------------
# seeded inputs


def fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _unit(rng: random.Random) -> complex:
    return cmath.exp(2j * math.pi * rng.random())


def _family_param(rng: random.Random) -> tuple[complex, complex]:
    """c with |c| ~ U[0, 0.9] and uniform argument, m uniform on the circle."""
    c = rng.uniform(0.0, 0.9) * _unit(rng)
    return c, _unit(rng)


def curve_json(degree: int, c: complex, m: complex) -> dict:
    """Curve w = (r0 m z^d, m c), whose fold is the unit circle."""
    r0m = math.sqrt(1.0 - abs(c) ** 2) * m
    mc = m * c
    return {"p": [[0.0, 0.0]] * degree + [[r0m.real, r0m.imag]],
            "q": [[mc.real, mc.imag]],
            "m": [m.real, m.imag]}


def make_inputs(workload: str, seed: int, workdir: str) -> list[dict]:
    """Inputs of one run; curve files are written under workdir."""
    rng = random.Random(f"{workload}/{seed}")
    items = []
    for i in range(N_INPUTS):
        c, m = _family_param(rng)
        item = {"c": fmt_complex(c), "m": fmt_complex(m)}
        if workload != "degree1-m2048":
            # cli-cold advances the degree once per round of four commands
            d = DEGREES[i % 5] if workload == "degree-d-m256" \
                else DEGREES[(i // 4) % 5]
            path = os.path.join(workdir, f"curve-{i:03d}.json")
            with open(path, "w") as fh:
                json.dump(curve_json(d, c, m), fh)
            item.update(degree=d, curve=path)
        items.append(item)
    return items


def ladder_bytes(m_res: int) -> int:
    """Bytes of one ring ladder: rings x M samples x C^2 complex128."""
    return LADDER_RINGS * m_res * 2 * 16


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the output holds


def check_certificate(cert, degree: int) -> list[str]:
    problems = []
    if not isinstance(cert, dict):
        return ["certificate missing"]
    if cert.get("pass") is not True:
        problems.append("certificate pass is not true")
    if cert.get("reducedIndex") != 4 * degree - 1:
        problems.append(f"reducedIndex {cert.get('reducedIndex')!r} "
                        f"!= 4d-1 = {4 * degree - 1}")
    return problems


def report_residual(report) -> float | None:
    try:
        return float(report["residuals"]["max_residual"])
    except (KeyError, TypeError, ValueError):
        return None


def check_report(report, degree: int) -> list[str]:
    """A degree1/degree-d report: pass, residuals, certificate, index."""
    if not isinstance(report, dict):
        return ["report missing or not a JSON object"]
    problems = []
    if report.get("pass") is not True:
        problems.append("report pass is not true")
    res = report_residual(report)
    if res is None or not res < RESIDUAL_TOL:   # `not <` also rejects NaN
        problems.append(f"max_residual {res!r} not below {RESIDUAL_TOL}")
    return problems + check_certificate(report.get("certificate"), degree)


def check_partner(sup_error: float) -> list[str]:
    if not sup_error < PARTNER_TOL:
        return [f"partner sup error {sup_error!r} not below {PARTNER_TOL}"]
    return []


def check_compactify(text: str, steps: int) -> list[str]:
    """CSV header, one row per step, strictly decreasing E_uplus."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["compactify CSV header missing"]
    rows = lines[1:]
    if len(rows) != steps:
        return [f"compactify wrote {len(rows)} rows, expected {steps}"]
    try:
        e_plus = [float(r.split(",")[1]) for r in rows]
    except (IndexError, ValueError):
        return ["compactify row does not parse"]
    if any(not b < a for a, b in zip(e_plus, e_plus[1:])):
        return ["E_uplus is not strictly decreasing"]
    return []


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _read_json(path: str):
    text = _read(path)
    if text is None:
        return None
    try:
        return json.loads(text)
    except ValueError:
        return None


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


# ---------------------------------------------------------------------------
# operations.  op(i, traced) -> (timed seconds, problems, residual or None)


class Degree1Op:
    """In-process `cli.main(["degree1", ...])` at M = 2048."""

    def __init__(self, items, workdir):
        from foldedmaps import cli
        self.cli = cli
        self.items = items
        self.out = os.path.join(workdir, "degree1.json")

    def __call__(self, i, traced=False):
        item = self.items[i % len(self.items)]
        argv = ["degree1", f"--c={item['c']}", f"--m={item['m']}",
                "--resolution", "2048", "--out", self.out]
        _remove(self.out)
        t0 = time.perf_counter()
        rc = self.cli.main(argv)
        dt = time.perf_counter() - t0
        report = _read_json(self.out)
        problems = [f"exit code {rc}"] if rc != 0 else []
        return dt, problems + check_report(report, 1), report_residual(report)


class DegreeDOp:
    """Construct, verify, report, certify and serialize a degree-d map at
    M = 256, then rebuild v_minus with conjugate_partner."""

    def __init__(self, items, workdir):
        import numpy as np
        from foldedmaps import boundary_operator, cli, moduli, tunneling
        self.np, self.bop, self.cli = np, boundary_operator, cli
        self.moduli, self.tunneling = moduli, tunneling
        self.items = items

    def __call__(self, i, traced=False):
        item = self.items[i % len(self.items)]
        mo, bop = self.moduli, self.bop
        t0 = time.perf_counter()
        with open(item["curve"]) as fh:
            curve = mo.CurveInput.from_json(json.load(fh))
        bundle = mo.construct_degree_d(curve, curve.m, 256)
        verification = mo.verify_folded_holomorphic(bundle)
        out = mo.bundle_report(bundle, verification)
        cert = bop.ellipticity_certificate(
            bop.boperator_data_from_bundle(bundle),
            bop.boundary_condition_loops(bundle))
        out["certificate"] = cert
        out["pass"] = verification.passed(RESIDUAL_TOL) and bool(cert["pass"])
        text = self.cli.format_json(out)
        partner = self.tunneling.conjugate_partner(bundle.pair.v_plus, bundle.x)
        dt = time.perf_counter() - t0
        report = json.loads(text)
        err = float(self.np.max(self.np.abs(
            partner.rings - bundle.pair.v_minus.rings)))
        problems = check_report(report, item["degree"]) + check_partner(err)
        res = report_residual(report)
        return dt, problems, None if res is None else max(res, err)


class ColdCliOp:
    """One fresh `python -m foldedmaps.cli` per op, round robin over
    degree1, degree-d, certificate (of this round's degree1 report) and
    compactify."""

    COMMANDS = ("degree1", "degree-d", "certificate", "compactify")

    def __init__(self, items, workdir, env, deadline, traced_cli):
        self.items, self.env, self.deadline = items, env, deadline
        self.traced_cli = traced_cli     # script running cli.main under spans
        self.spans_path = os.path.join(workdir, "cli-spans.json")
        self.paths = {k: os.path.join(workdir, f"cold-{k}.out")
                      for k in self.COMMANDS}
        self.last_spans = None

    def __call__(self, i, traced=False):
        item = self.items[(i // 4) % len(self.items)]
        cmd = self.COMMANDS[i % 4]
        out = self.paths[cmd]
        argv = {
            "degree1": ["degree1", f"--c={item['c']}", f"--m={item['m']}"],
            "degree-d": ["degree-d", "--curve", item["curve"]],
            "certificate": ["certificate", "--bundle", self.paths["degree1"]],
            "compactify": ["compactify", "--steps", str(COMPACTIFY_STEPS)],
        }[cmd] + ["--out", out]
        if traced:
            _remove(self.spans_path)
            prog = [sys.executable, self.traced_cli, self.spans_path]
        else:
            prog = [sys.executable, "-m", "foldedmaps.cli"]
        _remove(out)
        t0 = time.perf_counter()
        proc = subprocess.run(prog + argv, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=max(1.0, self.deadline - time.monotonic()))
        dt = time.perf_counter() - t0
        self.last_spans = _read_json(self.spans_path) if traced else None
        problems = [f"{cmd} exit code {proc.returncode}: "
                    f"{proc.stderr.decode(errors='replace')[-200:]}"] \
            if proc.returncode != 0 else []
        if cmd == "compactify":
            return dt, problems + check_compactify(_read(out) or "",
                                                   COMPACTIFY_STEPS), None
        if cmd == "certificate":
            return dt, problems + check_certificate(_read_json(out), 1), None
        report = _read_json(out)
        degree = 1 if cmd == "degree1" else item["degree"]
        return dt, problems + check_report(report, degree), \
            report_residual(report)
