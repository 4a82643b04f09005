"""Exact symbolic computation in partially commutative metabelian Lie
algebras defined by finite graphs."""

from types import ModuleType as _ModuleType

from .core import (
    AssocPoly,
    BasisMonomial,
    GeneratorOrder,
    LieElement,
    act,
    basis_monomial_with_start,
    basis_monomials_of_degree,
    basis_monomials_of_multidegree,
    bracket,
    format_element,
    homogeneous_components,
    is_basis_monomial,
    mdeg,
    multidegrees,
    substitute,
    word_element,
)
from .centralizer import (
    CentralizerSlice,
    check_intersection_theorem,
    classify_cycle_centralizer,
    derived_centralizer,
)
from .equivalence import (
    PhiHom,
    ThetaInstance,
    build_phi_hom,
    compaction_witness,
    distinguish_cycles,
    eval_theta,
    gamma_closure,
    lambda_zero,
    phi_lambda,
    search_theta_witness,
    theta_identity_holds,
)
from .errors import (
    AlgebraError,
    CertificationError,
    GraphError,
    ParseError,
    PcmlError,
)
from .graphs import (
    CompactionResult,
    Graph,
    circ_dist,
    closed_neighborhood,
    compaction,
    complete_graph,
    cycle_graph,
    path_graph,
    perp_classes,
)
from .oracle import certify_basis, graded_dimension, ideal_member
from .textio import parse_assoc_poly, parse_element, parse_graph_spec

__version__ = "0.1.0"

# the API only: importing it also binds its submodules here, which stay
# out of ``from pcml import *``
__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
