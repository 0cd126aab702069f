"""Exact computational algebra for finite quandles, enveloping groups,
braided module operators and the rank-two support calculus."""

from .cyclotomic import CycMatrix, CycNum
from .envgroup import (
    FinGroup,
    GammaElem,
    Presentation,
    TElem,
    enveloping_presentation,
    finite_enveloping_group,
    gamma_mul,
    isoclinism_witness,
    t_mul,
    todd_coxeter,
)
from .errors import InputError, InvariantViolationError, ResourceCapError
from .nichols import adjoint_power_dim, quantum_symmetrizer, t_operator, x_space_dim
from .quandle import Quandle, QuandleIso, catalog, inner_orbits, is_quandle, isomorphic
from .supportcalc import TwoOrbitContext, classify, degrees_certificate, phi_support_expand
from .weyl import CharSeq, enumerate_charseqs, eta, is_characteristic
from .ydmod import YDModule, braiding, induced_module, support_quandle

__version__ = "0.1.0"

__all__ = [
    "CharSeq",
    "CycMatrix",
    "CycNum",
    "FinGroup",
    "GammaElem",
    "InputError",
    "InvariantViolationError",
    "Presentation",
    "Quandle",
    "QuandleIso",
    "ResourceCapError",
    "TElem",
    "TwoOrbitContext",
    "YDModule",
    "adjoint_power_dim",
    "braiding",
    "catalog",
    "classify",
    "degrees_certificate",
    "enumerate_charseqs",
    "enveloping_presentation",
    "eta",
    "finite_enveloping_group",
    "gamma_mul",
    "induced_module",
    "inner_orbits",
    "is_characteristic",
    "is_quandle",
    "isoclinism_witness",
    "isomorphic",
    "phi_support_expand",
    "quantum_symmetrizer",
    "support_quandle",
    "t_mul",
    "t_operator",
    "todd_coxeter",
    "x_space_dim",
]
