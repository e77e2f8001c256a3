"""Exact valuation invariants and effective monomialization.

Subpackages follow the pipeline: ordered_value (value groups), exact_algebra
(Laurent polynomials, polynomials over them in the distinguished variable,
and the rational functions of blow-up frames), valuation_core (valuations
and their invariants), successors (key-polynomial chains), blowup_engine
(framed blow-ups and the divisibility loop), puiseux (packages and successor
preparation), orchestrator (the interleaved master sequence), cli.
"""

__version__ = "0.1.0"

from .ordered_value import GroupElement, ValueGroup, compare, standard_group
from .exact_algebra import MultiPoly, RationalFunction, UniPoly
from .valuation_core import Augmented, Composite, Monomial, epsilon, truncated_value
from .successors import Lattice, next_successor, verify_immediate_successor
from .blowup_engine import Frame, divide_monomials, framed_blowup, principalize
from .puiseux import monomialize_limit_successor, puiseux_package
from .orchestrator import embedded_uniformize, load_state, monomialize, save_state

__all__ = [
    "GroupElement",
    "ValueGroup",
    "compare",
    "standard_group",
    "MultiPoly",
    "RationalFunction",
    "UniPoly",
    "Augmented",
    "Composite",
    "Monomial",
    "epsilon",
    "truncated_value",
    "Lattice",
    "next_successor",
    "verify_immediate_successor",
    "Frame",
    "divide_monomials",
    "framed_blowup",
    "principalize",
    "monomialize_limit_successor",
    "puiseux_package",
    "embedded_uniformize",
    "load_state",
    "monomialize",
    "save_state",
    "__version__",
]
