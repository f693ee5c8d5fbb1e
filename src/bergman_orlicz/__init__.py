"""Bergman-Orlicz analysis on the upper half-plane.

Subpackages cover growth-function calculus, half-plane geometry and weighted
integration, delta-lattices, Orlicz modulars and Luxembourg norms, Bergman
kernels and projections, atomic synthesis/sampling, and Carleson-type
embedding checks, plus a CLI front end (`bergman-orlicz`).
"""

import importlib

__version__ = "0.1.0"

from . import (  # noqa: F401
    atoms,
    bergman,
    carleson,
    errors,
    growth,
    halfplane,
    lattice,
    orlicz,
)
from .errors import (  # noqa: F401
    AccuracyError,
    BergmanOrliczError,
    ConditioningError,
    DivergenceError,
    DomainError,
    NotInSpaceError,
    OverflowBracketError,
    ParameterError,
)
from .halfplane import Box, CarlesonSquare, Disk, HPoint  # noqa: F401
from .orlicz import (  # noqa: F401
    LatticeSequence,
    atomic_measure,
    density_measure,
    luxembourg,
    mobius_measure,
    modular,
    valpha_measure,
)

# Curated names only; everything else stays addressed through its submodule.
__all__ = [
    "__version__",
    # submodules
    "acceptance", "atoms", "bergman", "carleson", "errors", "growth",
    "halfplane", "lattice", "orlicz",
    # errors
    "BergmanOrliczError", "ParameterError", "DomainError", "DivergenceError",
    "AccuracyError", "OverflowBracketError", "ConditioningError",
    "NotInSpaceError",
    # geometry
    "HPoint", "Disk", "CarlesonSquare", "Box",
    # measures and norms
    "LatticeSequence", "atomic_measure", "density_measure", "luxembourg",
    "mobius_measure", "modular", "valpha_measure",
]


def __getattr__(name):
    # acceptance pulls in scipy.integrate and scipy.special, so it loads on
    # first use rather than with the package
    if name == "acceptance":
        return importlib.import_module(f"{__name__}.acceptance")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
