"""Exact noncommutative calculus on U(gl(m)_h) and its quantum u(2) extension.

The package implements the normal-ordering engine for the quantum
double of gl(m), the compact u(2) picture with a central quantum
radius, the multiplicative 4x4 derivative matrix, the symbolic
reduction of the noncommutative hedgehog monopole equations, a lattice
marching solver for the resulting difference system, and spin
representation cross checks.
"""

from .scalars import H, HBAR, I, ONE, RHAT, Scalar, TAU, ZERO, rational
from .glweyl import GlWeylElement, TensorElement, gl2
from .u2 import (
    AElement,
    CompactElement,
    cayley_hamilton,
    generating_matrix,
    quantum_radius_square,
    reduce_casimir,
    to_compact,
)
from .shifts import FuncExpr, atom
from .theta import (
    ThetaMatrix,
    d_radial_closed,
    d_t,
    d_tau,
    d_tau_closed,
    d_x,
    d_y,
    d_z,
    derive,
    laplacian,
    laplacian_closed,
    q_op,
    radial_extend,
    theta_multiplicative,
)
from .hedgehog import (
    GaugeField,
    HedgehogError,
    LatticeSolution,
    ReductionError,
    SingularStepError,
    bps_profile,
    classical_ode,
    classical_seed,
    hedgehog_reduce,
    march,
    profile_equations,
)
from .spinreps import (
    RepMatrices,
    ch_residual,
    evaluate_element,
    radius_residual,
    spin_rep,
    verify_in_rep,
)
from .identities import SUITES, run_suite
from .parser import ParseError, evaluate, parse

__all__ = [
    "AElement",
    "CompactElement",
    "FuncExpr",
    "GaugeField",
    "GlWeylElement",
    "H",
    "HBAR",
    "HedgehogError",
    "I",
    "LatticeSolution",
    "ONE",
    "ParseError",
    "RHAT",
    "ReductionError",
    "RepMatrices",
    "SUITES",
    "Scalar",
    "SingularStepError",
    "TAU",
    "TensorElement",
    "ThetaMatrix",
    "ZERO",
    "atom",
    "bps_profile",
    "cayley_hamilton",
    "ch_residual",
    "classical_ode",
    "classical_seed",
    "d_radial_closed",
    "d_t",
    "d_tau",
    "d_tau_closed",
    "d_x",
    "d_y",
    "d_z",
    "derive",
    "evaluate",
    "evaluate_element",
    "generating_matrix",
    "gl2",
    "hedgehog_reduce",
    "laplacian",
    "laplacian_closed",
    "march",
    "parse",
    "profile_equations",
    "q_op",
    "quantum_radius_square",
    "radial_extend",
    "radius_residual",
    "rational",
    "reduce_casimir",
    "run_suite",
    "spin_rep",
    "theta_multiplicative",
    "to_compact",
    "verify_in_rep",
]
