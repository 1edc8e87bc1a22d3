"""Global numerical tolerances and grid defaults.

Operations read the tolerances and the grid at call time from the module
level config object; the CLI may override fields of both from a JSON file
for the length of one call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace


@dataclass(frozen=True)
class Tolerances:
    # membership of points on spheres
    point_tol: float = 1e-12
    # resolution invariant: energy fraction allowed above 0.9 * M/2
    nyquist_fraction: float = 1e-10
    # mean of Neumann data must vanish to this level
    period_tol: float = 1e-10
    # transverse fold crossing: denominator floor for the gap function
    transverse_floor: float = 1e-10
    # immersed boundary: min |pi_F dv| allowed
    immersion_floor: float = 1e-6
    # ellipticity PASS threshold on the minimum singular value
    ellipticity_floor: float = 1e-8
    # circularity certificate for Tier-1 folds
    fold_circularity: float = 1e-8


@dataclass(frozen=True)
class GridDefaults:
    # Gauss-Legendre radial nodes of the chart grids of every command; the
    # chart energy densities are analytic in r on [0, 1], and at 64 nodes
    # they agree with 256 to 1e-13 relative, where 48 are off by 1.6e-10
    # (test_default_radial_nodes_resolve_the_* in tests/test_moduli.py)
    radial_nodes: int = 64


@dataclass
class Config:
    tol: Tolerances = field(default_factory=Tolerances)
    grid: GridDefaults = field(default_factory=GridDefaults)


CONFIG = Config()


def _section(current, name: str, data: object) -> dict:
    """Checked field overrides for one section of a config file."""
    if not isinstance(data, dict):
        raise ValueError(f"config section {name!r} must be an object")
    known = {f.name for f in fields(current)}
    out = {}
    for key, value in data.items():
        if key not in known:
            raise ValueError(f"unknown config field {name}.{key}")
        if isinstance(getattr(current, key), int):
            if type(value) is not int:
                raise ValueError(
                    f"config field {name}.{key} must be an integer, "
                    f"got {value!r}")
        else:
            try:
                number = float(value) if type(value) in (int, float) \
                    else math.nan
            except OverflowError:       # an integer beyond the float range
                number = math.inf
            if not math.isfinite(number):
                raise ValueError(
                    f"config field {name}.{key} must be a finite number, "
                    f"got {value!r}")
            value = number
        out[key] = value
    return out


def load_config(path: str) -> None:
    """Override fields from a JSON file {"tol": {...}, "grid": {...}}.

    Both sections are optional.  Integer fields take JSON integers, float
    fields finite numbers; `radial_nodes` must be at least 2.  Anything
    else raises ValueError and changes nothing.
    """
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    extra = set(data) - {"tol", "grid"}
    if extra:
        raise ValueError(f"unknown config sections {sorted(extra)}")
    tol = replace(CONFIG.tol, **_section(CONFIG.tol, "tol",
                                         data.get("tol", {})))
    grid = replace(CONFIG.grid, **_section(CONFIG.grid, "grid",
                                           data.get("grid", {})))
    if grid.radial_nodes < 2:
        raise ValueError(
            f"grid.radial_nodes must be at least 2, got {grid.radial_nodes}")
    CONFIG.tol, CONFIG.grid = tol, grid
