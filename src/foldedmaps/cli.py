"""Batch front-end: constructions, verification, certificates, tables.

Exit codes: 0 pass, 1 input error, 2 verification fail, 3 tier violation.
Reports are deterministic; floats are serialized with 17 significant
digits under the schema tag `moduli.SCHEMA`.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys

import numpy as np

from . import boundary_operator as bop
from . import moduli
from .config import CONFIG, load_config
from .errors import (DomainError, FoldedMapError, InputError,
                     NonImmersedBoundaryError, TierViolationError)

EXIT_PASS = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_TIER = 3

# |m| = 1 check on the user's m, looser than moduli.UNIT_MODULUS_TOL
# because the CLI normalizes m to unit modulus right after it
M_MODULUS_TOL = 1e-9


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
        if [*map(type, obj)].count(float) == len(obj):
            # sample arrays: one %-format, the same bytes as the path below;
            # the type test runs in C, with no per-element Python step
            return "[" + ", ".join(["%.17g"] * len(obj)) % tuple(obj) + "]"
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
    try:
        if path == "-":
            sys.stdout.write(text + "\n")
            sys.stdout.flush()
        else:
            with open(path, "w") as fh:
                fh.write(text + "\n")
    except OSError as exc:
        if path == "-":
            # the exit flush then drops the text still buffered, silently
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise InputError(f"cannot write {path!r}: {exc}") from exc


def parse_complex(s: str) -> complex:
    try:
        z = complex(s.replace("i", "j").replace(" ", ""))
    except ValueError as exc:
        raise InputError(f"cannot parse complex number {s!r}") from exc
    if not cmath.isfinite(z):
        raise InputError(f"complex number {s!r} is not finite")
    return z


def _unit_m(s: str) -> complex:
    """The parameter m parsed, checked to have |m| = 1 and normalized."""
    m = parse_complex(s)
    if abs(abs(m) - 1.0) > M_MODULUS_TOL:
        raise InputError(f"|m| must be 1, got {abs(m)}")
    return m / abs(m)


def _validate_resolution(m: int) -> int:
    if m & (m - 1) != 0 or not 64 <= m <= 8192:
        raise InputError(
            f"resolution must be a power of two in [64, 8192], got {m}")
    return m


# ---------------------------------------------------------------------------
# commands


def _full_report(bundle, kind: str, path: str) -> int:
    """Verify a bundle, write its report with the certificate to path and
    return the exit code."""
    report = moduli.verify_folded_holomorphic(bundle)
    data = bop.boperator_data_from_bundle(bundle)
    loops = bop.boundary_condition_loops(bundle)
    out = moduli.bundle_report(bundle, report, data, loops)
    out["kind"] = kind
    cert = bop.ellipticity_certificate(data, loops)
    out["certificate"] = cert
    passed = report.passed() and bool(cert["pass"])
    out["pass"] = passed
    _write(format_json(out), path)
    return EXIT_PASS if passed else EXIT_VERIFY


def cmd_degree1(args) -> int:
    c = parse_complex(args.c)
    m = _unit_m(args.m)
    m_res = _validate_resolution(args.resolution)
    bundle = moduli.degree1_family(moduli.ModuliParam(c, m), m_res)
    return _full_report(bundle, "degree1_report", args.out)


def cmd_degree_d(args) -> int:
    try:
        with open(args.curve) as fh:
            curve = moduli.CurveInput.from_json(json.load(fh))
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise InputError(f"cannot read curve file {args.curve!r}: {exc}")
    m_res = _validate_resolution(args.resolution)
    bundle = moduli.construct_degree_d(curve, curve.m, m_res)
    return _full_report(bundle, "degree_d_report", args.out)


def cmd_compactify(args) -> int:
    m = _unit_m(args.m)
    if args.steps < 2:
        raise InputError("need at least 2 steps")
    rows = moduli.compactification_sample(
        np.linspace(0.0, 0.99, args.steps), m,
        _validate_resolution(args.resolution), CONFIG.grid.radial_nodes)
    lines = ["c_abs,E_uplus,E_uminus,E_total,limit_label"]
    for r in rows:
        lines.append('%.17g,%.17g,%.17g,%.17g,"%s"' % (
            r.c_abs, r.e_u_plus, r.e_u_minus, r.e_total, r.limit_label))
    _write("\n".join(lines), args.out)
    return EXIT_PASS


def cmd_certificate(args) -> int:
    try:
        with open(args.bundle) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read bundle file {args.bundle!r}: {exc}")
    cert = bop.certificate_from_report(report)
    _write(format_json({"schema": moduli.SCHEMA, **cert}), args.out)
    return EXIT_PASS if cert["pass"] else EXIT_VERIFY


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
    saved = (CONFIG.tol, CONFIG.grid)
    try:
        if args.config:
            try:
                load_config(args.config)
            except (OSError, ValueError, TypeError) as exc:
                print(f"input error: {exc}", file=sys.stderr)
                return EXIT_INPUT
        return args.func(args)
    except TierViolationError as exc:
        print(f"tier violation: {exc}", file=sys.stderr)
        return EXIT_TIER
    except (InputError, NonImmersedBoundaryError, DomainError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (FoldedMapError, np.linalg.LinAlgError) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    finally:
        CONFIG.tol, CONFIG.grid = saved


if __name__ == "__main__":
    sys.exit(main())
