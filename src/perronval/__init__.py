"""Exact-arithmetic Perron transforms and reduction of multiplicity of
hypersurface singularities along rank-1 valuations, with defect detection
in positive characteristic."""

from .defect import ExtensionData, FamilyDecomposition, SimpleFamily, consistency, jump_total, ostrowski
from .oracle import ArcValuation, AugmentedChain, MonomialValuation, ValueResult, oracle_from_document
from .perron import PerronTransform, build_a1, build_a6_divide, monomialize, verify_cramer
from .poly import Polynomial, VariableFrame, parse_polynomial, parse_ring_header
from .reduce import (
    Bounds,
    ReductionResult,
    case2_finish,
    char0_translate,
    defectless_translate,
    lrm_step,
    replay_trace,
    run_reduction,
    trace_document,
)
from .scalars import INFINITE, FieldSpec, PuiseuxSeries, Scalar, parse_series
from .valgroup import (
    GeneratorContext,
    RATIONAL,
    Value,
    ValueLattice,
    lattice_index,
    member,
    parse_value,
    quadratic,
    rational_relation,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
