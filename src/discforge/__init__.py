"""discforge: stationary holomorphic discs attached to model hypersurfaces.

The package provides a circle-spectral toolkit (two-sided trigonometric
series and their projections), even-degree model hypersurface polynomials
with their subharmonicity and root analysis, polynomial perturbations of
the defining function with anisotropic dilations, the explicit family of
small stationary discs, the boundary stationarity operator with its
linearization / kernel machinery and a damped Gauss-Newton solver, and
boundary-jet analysis culminating in a jet determination experiment.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .exceptions import ConfigError, DiscforgeError, NumericalError
from .series import TrigSeries

__all__ = [
    "TrigSeries",
    "DiscforgeError",
    "ConfigError",
    "NumericalError",
    "__version__",
]
