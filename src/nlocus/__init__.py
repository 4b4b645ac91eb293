"""Exact degrees of Noether-Lefschetz loci for elliptic quartic curves.

The library enumerates the torus-fixed points of the blown-up space of
pencils of quadrics, evaluates Bott's localization formula over them with
exact rational arithmetic, and reconstructs the closed-form degree
polynomial by interpolation.
"""

from .fixpoints import (
    FixedPoint,
    StructuralError,
    enumerate_all,
    euler_characteristic_oracle,
    load_or_enumerate,
    stratum_counts,
)
from .formula import UnivariateRationalPoly, closed_form, compare, interpolate
from .ideals import (
    GroebnerBasis,
    Ideal,
    hilbert_polynomial,
    kbase,
    normal_form,
    reduce_gb,
    saturate_t,
    set_t_zero,
)
from .localization import (
    DegreeResult,
    contribution,
    degree_nl,
    degree_range,
    ed_weights,
)
from .poly import Polynomial, monomial_gcd, monomials_of_degree, parse, render, sdim
from .torus import (
    DEFAULT_WEIGHTS,
    WeightSpec,
    blowup_tangent,
    check_generic,
    elem_sym,
    grass_tangent,
    specialize,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_WEIGHTS",
    "DegreeResult",
    "FixedPoint",
    "GroebnerBasis",
    "Ideal",
    "Polynomial",
    "StructuralError",
    "UnivariateRationalPoly",
    "WeightSpec",
    "blowup_tangent",
    "check_generic",
    "closed_form",
    "compare",
    "contribution",
    "degree_nl",
    "degree_range",
    "ed_weights",
    "elem_sym",
    "enumerate_all",
    "euler_characteristic_oracle",
    "grass_tangent",
    "hilbert_polynomial",
    "interpolate",
    "kbase",
    "load_or_enumerate",
    "monomial_gcd",
    "monomials_of_degree",
    "normal_form",
    "parse",
    "reduce_gb",
    "render",
    "saturate_t",
    "sdim",
    "set_t_zero",
    "specialize",
    "stratum_counts",
]
