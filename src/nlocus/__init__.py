"""Exact degrees of Noether-Lefschetz loci for elliptic quartic curves.

The library enumerates the torus-fixed points of the blown-up space of
pencils of quadrics, evaluates Bott's localization formula over them with
exact rational arithmetic, and reconstructs the closed-form degree
polynomial by interpolation.
"""

from .fixpoints import enumerate_all
from .formula import closed_form, interpolate
from .localization import degree_nl
from .torus import DEFAULT_WEIGHTS

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_WEIGHTS",
    "closed_form",
    "degree_nl",
    "enumerate_all",
    "interpolate",
]
