"""Span recorder around the public functions of the foldedmaps modules.

`Tracer.install` replaces each traced function by a wrapper that records
a span (name, start, end, parent span, op id).  It patches the module
attribute and every `from ... import` binding of the same function object
in the sibling foldedmaps modules, so calls between modules are seen too.
Spans stay in memory until `dump`; `summarize` derives calls, inclusive
time and self time (inclusive minus the time of direct child spans).
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import sys
import time

# module -> public functions (Class.method for methods) whose calls are spans
TARGETS = {
    "foldedmaps._spectral": ["fd_weights", "theta_derivative"],
    "foldedmaps.sphere": ["omega_energy"],
    "foldedmaps.harmonic": ["solve_f_degree_d", "solve_neumann_vanishing",
                            "LaurentField.trace",
                            "LaurentField.multiplier_samples"],
    "foldedmaps.tunneling": ["sample_tunnel_map", "derived_fields",
                             "residual_H", "tunneling_omega_energy",
                             "check_conjugate", "conjugate_partner"],
    "foldedmaps.moduli": ["degree1_family", "construct_degree_d",
                          "find_circular_fold", "verify_folded_holomorphic",
                          "bundle_report"],
    "foldedmaps.boundary_operator": ["boperator_data_from_bundle",
                                     "boundary_condition_loops",
                                     "principal_symbol_B", "check_ellipticity",
                                     "ellipticity_certificate"],
    "foldedmaps.cli": ["main", "format_json"],
}
# recursive functions whose nested calls are not spans of their own
TOP_LEVEL_ONLY = {"cli.format_json"}


def layer_name(module: str, attr: str) -> str:
    """`foldedmaps._spectral`, `fd_weights` -> `spectral.fd_weights`."""
    return module.rsplit(".", 1)[-1].lstrip("_") + "." + attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        top_only = name in TOP_LEVEL_ONLY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if top_only and stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in TARGETS]
        siblings = [m for k, m in sorted(sys.modules.items())
                    if k.startswith("foldedmaps.") and m is not None]
        for mod in modules:
            for attr in TARGETS[mod.__name__]:
                name = layer_name(mod.__name__, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
                    continue
                original = getattr(mod, attr)
                wrapper = self._wrap(name, original)
                for sib in siblings:
                    for key, value in list(vars(sib).items()):
                        if value is original:
                            self._patch(sib, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def extend(self, spans: list[list], op: int) -> None:
        """Append spans recorded by another process under op id `op`."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else -1, op])

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds `s`, and `self_s`."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child[idx]
    return out


_IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from `python -X importtime` output."""
    out = {}
    for m in _IMPORTTIME.finditer(stderr):
        out[m.group(2)] = int(m.group(1)) * 1e-6
    return out
