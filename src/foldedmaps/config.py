"""Global numerical tolerances and grid defaults.

All operations are pure; tolerances are read at call time from the module
level config object, which the CLI may override from a JSON file.  Tests
that need a tweaked tolerance use `override` as a context manager.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Tolerances:
    # generic absolute comparison tolerance
    abs_tol: float = 1e-9
    # membership of points on spheres
    point_tol: float = 1e-12
    # tangency / orthogonality checks
    tangent_tol: float = 1e-10
    # resolution invariant: energy fraction allowed above 0.9 * M/2
    nyquist_fraction: float = 1e-10
    # mean of Neumann data must vanish to this level
    period_tol: float = 1e-10
    # transverse fold crossing: denominator floor for the gap function
    transverse_floor: float = 1e-10
    # immersed boundary: min |pi_F dv| allowed
    immersion_floor: float = 1e-6
    # eigenvalue gap floor in the skew splitting
    eigen_gap: float = 1e-12
    # matrix square root conditioning guard
    sqrt_condition: float = 1e12
    # ellipticity PASS threshold on the minimum singular value
    ellipticity_floor: float = 1e-8
    # circularity certificate for Tier-1 folds
    fold_circularity: float = 1e-8
    # admissible exponential weights lie in (0, delta_max]
    delta_max: float = 12.0


@dataclass(frozen=True)
class GridDefaults:
    boundary_samples: int = 512          # M, power of two
    radial_nodes: int = 128              # interior tensor grid, radius


@dataclass
class Config:
    tol: Tolerances = field(default_factory=Tolerances)
    grid: GridDefaults = field(default_factory=GridDefaults)


CONFIG = Config()


def load_config(path: str) -> None:
    """Override tolerance fields from a JSON file {\"tol\": {...}, \"grid\": {...}}."""
    with open(path) as fh:
        data = json.load(fh)
    if "tol" in data:
        CONFIG.tol = replace(CONFIG.tol, **data["tol"])
    if "grid" in data:
        CONFIG.grid = replace(CONFIG.grid, **data["grid"])


@contextlib.contextmanager
def override(**tol_fields):
    """Temporarily replace tolerance fields, e.g. override(abs_tol=1e-6)."""
    old = CONFIG.tol
    CONFIG.tol = replace(old, **tol_fields)
    try:
        yield CONFIG.tol
    finally:
        CONFIG.tol = old
