"""Exact symbolic engine for formal types of irregular connections on P^1.

The package works purely with formal local data: Jordan data of regular
parts, elementary modules El(p, phi, R), formal types, and descriptors
mapping singular locations to formal types.  On top of that it implements
the operation calculus (twist, Moebius transform, Fourier transform via
formal stationary phase, middle convolution) together with the invariants
needed to classify rigid rank-7 connections with differential Galois
group G2: index of rigidity, irregularity, local solution dimensions,
formal monodromy, exponential torus dimension and exterior cubes.
"""

from .scalars import (Cyclotomic, Scalar, Eigenvalue,
                      IrrationalRootError, parse_scalar, parse_eigenvalue)
from .jordan import JordanData, parse_jordan
from .elementary import ElementaryModule, El, el_hom, parse_elementary
from .formal_type import FormalType, parse_formal_type
from .fourier import OutOfScopeError
from .engine import (ConnectionDescriptor, ContradictionError, INF,
                     rigidity_index, euler_char_middle, op_twist, op_moebius,
                     op_fourier, op_middle_convolution, stationary_phase,
                     run_script, load_descriptor)

__all__ = [
    "Cyclotomic", "Scalar", "Eigenvalue", "IrrationalRootError",
    "parse_scalar", "parse_eigenvalue",
    "JordanData", "parse_jordan",
    "ElementaryModule", "El", "el_hom", "parse_elementary",
    "FormalType", "parse_formal_type",
    "OutOfScopeError",
    "ConnectionDescriptor", "ContradictionError", "INF",
    "rigidity_index", "euler_char_middle", "op_twist", "op_moebius",
    "op_fourier", "op_middle_convolution", "stationary_phase",
    "run_script", "load_descriptor",
]
