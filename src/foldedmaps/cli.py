"""Batch front-end: constructions, verification, certificates, tables.

Exit codes: 0 pass, 1 input error, 2 verification fail, 3 tier violation.
Reports are deterministic; floats are serialized with 17 significant
digits under the schema tag folded-maps/1.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

import numpy as np

from . import boundary_operator as bop
from . import moduli
from .config import load_config
from .errors import (DomainError, FoldedMapError, InputError,
                     NonImmersedBoundaryError, TierViolationError)

EXIT_PASS = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_TIER = 3


# ---------------------------------------------------------------------------
# serialization


def format_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {format_json(v, indent + 1)}'
            for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return "[" + ", ".join(format_json(v) for v in obj) + "]"
        items = ",\n".join(f"{pad}  {format_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (np.floating, float)):
        return format(float(obj), ".17g")
    if isinstance(obj, (np.integer, int)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(obj)


def _write(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def parse_complex(s: str) -> complex:
    try:
        z = complex(s.replace("i", "j").replace(" ", ""))
    except ValueError as exc:
        raise InputError(f"cannot parse complex number {s!r}") from exc
    if not cmath.isfinite(z):
        raise InputError(f"complex number {s!r} is not finite")
    return z


def _validate_resolution(m: int) -> int:
    if m & (m - 1) != 0 or not 64 <= m <= 8192:
        raise InputError(
            f"resolution must be a power of two in [64, 8192], got {m}")
    return m


# ---------------------------------------------------------------------------
# commands


def _certificate_of(bundle) -> dict:
    data = bop.boperator_data_from_bundle(bundle)
    loops = bop.boundary_condition_loops(bundle)
    return bop.ellipticity_certificate(data, loops)


def _full_report(bundle, kind: str) -> tuple[dict, bool]:
    report = moduli.verify_folded_holomorphic(bundle)
    out = moduli.bundle_report(bundle, report)
    out["kind"] = kind
    cert = _certificate_of(bundle)
    out["certificate"] = cert
    out["gap_profile"] = out["boundary_operator"]["a"] \
        if out["boundary_operator"] else []
    passed = report.passed(1e-7) and bool(cert["pass"])
    out["pass"] = passed
    return out, passed


def cmd_degree1(args) -> int:
    c = parse_complex(args.c)
    m = parse_complex(args.m)
    m_res = _validate_resolution(args.resolution)
    if abs(c) >= 1.0:
        raise InputError(f"|c| must be < 1, got {abs(c)}")
    if abs(abs(m) - 1.0) > 1e-9:
        raise InputError(f"|m| must be 1, got {abs(m)}")
    m = m / abs(m)
    bundle = moduli.degree1_family(moduli.ModuliParam(c, m), m_res)
    out, passed = _full_report(bundle, "degree1_report")
    _write(format_json(out), args.out)
    return EXIT_PASS if passed else EXIT_VERIFY


def cmd_degree_d(args) -> int:
    try:
        with open(args.curve) as fh:
            curve = moduli.CurveInput.from_json(json.load(fh))
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise InputError(f"cannot read curve file {args.curve!r}: {exc}")
    m_res = _validate_resolution(args.resolution)
    bundle = moduli.construct_degree_d(curve, curve.m, m_res)
    out, passed = _full_report(bundle, "degree_d_report")
    _write(format_json(out), args.out)
    return EXIT_PASS if passed else EXIT_VERIFY


def cmd_compactify(args) -> int:
    m = parse_complex(args.m)
    if abs(abs(m) - 1.0) > 1e-9:
        raise InputError(f"|m| must be 1, got {abs(m)}")
    if args.steps < 2:
        raise InputError("need at least 2 steps")
    rows = moduli.compactification_sample(
        np.linspace(0.0, 0.99, args.steps), m / abs(m),
        _validate_resolution(args.resolution), 64)
    lines = ["c_abs,E_uplus,E_uminus,E_total,limit_label"]
    for r in rows:
        lines.append(
            f"{format(r.c_abs, '.17g')},{format(r.e_u_plus, '.17g')},"
            f"{format(r.e_u_minus, '.17g')},{format(r.e_total, '.17g')},"
            f"\"{r.limit_label}\"")
    _write("\n".join(lines), args.out)
    return EXIT_PASS


def cmd_certificate(args) -> int:
    try:
        with open(args.bundle) as fh:
            report = json.load(fh)
        frame = report["boundary_operator"]
        a = np.asarray(frame["a"], dtype=float)
        af = np.asarray(frame["AF_re"], float) + 1j * np.asarray(frame["AF_im"], float)
        f_chi = np.asarray(frame["f_chi"], float)
        f_jchi = np.asarray(frame["f_jchi"], float)
        rho = float(frame["sigma_radius"])
        degree = int(report["degree"])
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise InputError(f"cannot read bundle file {args.bundle!r}: {exc}")

    gap_ok = bool(np.min(a) > 0)
    data = bop.BOperatorData(rho, np.maximum(a, 1e-300), af, f_chi, f_jchi)
    rep = bop.check_ellipticity(data)
    m_res = len(a)
    th = 2 * np.pi * np.arange(m_res) / m_res
    frames = np.zeros((m_res, 2, 2), dtype=complex)
    frames[:, 0, 0] = np.exp(1j * degree * th)
    frames[:, 1, 1] = 1.0
    loop = bop.TotallyRealLoop(frames)
    if "loops" in report and report["loops"]:
        lp = np.asarray(report["loops"]["plus_re"], float) \
            + 1j * np.asarray(report["loops"]["plus_im"], float)
        lm = np.asarray(report["loops"]["minus_re"], float) \
            + 1j * np.asarray(report["loops"]["minus_im"], float)
        fp = np.zeros((m_res, 2, 2), dtype=complex)
        fm = np.zeros((m_res, 2, 2), dtype=complex)
        fp[:, 0, 0], fp[:, 1, 1] = lp, 1.0
        fm[:, 0, 0], fm[:, 1, 1] = lm, 1.0
        loops = (bop.TotallyRealLoop(fp), bop.TotallyRealLoop(fm))
    else:
        loops = (loop, loop)
    mu_p = bop.maslov_index(loops[0])
    mu_m = bop.maslov_index(loops[1])
    passed = bool(rep.passed) and gap_ok
    cert = {
        "schema": "folded-maps/1",
        "sigmaMin": rep.sigma_min,
        "aMin": float(np.min(a)),
        "homotopyMin": bop.symbol_homotopy_bt(np.maximum(a, 1e-300)),
        "maslovPlus": mu_p,
        "maslovMinus": mu_m,
        "index": bop.fredholm_index(mu_p, mu_m, 2),
        "reducedIndex": bop.reduced_index(mu_p, mu_m, 2),
        "pass": passed,
        "argminSample": rep.argmin_sample,
    }
    _write(format_json(cert), args.out)
    return EXIT_PASS if passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldedmaps",
        description="folded holomorphic maps into the folded 4-sphere")
    parser.add_argument("--config", help="JSON file overriding tolerances")
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("degree1", help="verify a degree-1 family member")
    p1.add_argument("--c", required=True, help="parameter c, |c| < 1")
    p1.add_argument("--m", default="1", help="unit parameter m")
    p1.add_argument("--resolution", type=int, default=512)
    p1.add_argument("--out", default="-")
    p1.set_defaults(func=cmd_degree1)

    p2 = sub.add_parser("degree-d", help="construct from a curve file")
    p2.add_argument("--curve", required=True)
    p2.add_argument("--resolution", type=int, default=512)
    p2.add_argument("--out", default="-")
    p2.set_defaults(func=cmd_degree_d)

    p3 = sub.add_parser("compactify", help="energy table toward the fold")
    p3.add_argument("--steps", type=int, default=8)
    p3.add_argument("--m", default="1")
    p3.add_argument("--resolution", type=int, default=256)
    p3.add_argument("--out", default="-")
    p3.set_defaults(func=cmd_compactify)

    p4 = sub.add_parser("certificate", help="ellipticity/index certificate")
    p4.add_argument("--bundle", required=True, help="report file to check")
    p4.add_argument("--out", default="-")
    p4.set_defaults(func=cmd_certificate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            load_config(args.config)
        except (OSError, ValueError, TypeError) as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    try:
        return args.func(args)
    except TierViolationError as exc:
        print(f"tier violation: {exc}", file=sys.stderr)
        return EXIT_TIER
    except (InputError, NonImmersedBoundaryError, DomainError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FoldedMapError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
