"""Conditional disclosure of secrets: covering bounds, linear schemes, verification.

The package models a CDS instance as a two-colored bipartite graph, computes
the covering parameter rho and the (rho-1)/(2*rho) converse bound with an
explicit witness, synthesizes rate-optimal vector linear schemes for
path/cycle instances, and verifies arbitrary linear schemes both through the
linear alignment conditions and through an exhaustive entropic oracle.
"""

from .fields import FieldError, FieldMatrix, PrimeField, is_prime, next_prime
from .linalg import cauchy_matrix, rank_rref, residue_rank, rowspace_intersection
from .graph import (
    CdsInstance,
    CoverWitness,
    InstanceError,
    QualifiedComponent,
    RhoResult,
    disjoint_union,
    internal_qualified_edge_candidates,
    min_connected_edge_cover,
    parse_instance,
    qualified_components,
    random_instance,
    rho,
    serialize_instance,
)
from .scheme import (
    LinearScheme,
    OracleResult,
    SchemeError,
    SimulationReport,
    VerificationReport,
    entropic_oracle_all,
    entropic_oracle_edge,
    parse_scheme,
    rate,
    serialize_scheme,
    simulate,
    verify_linear,
)
from .synthesis import (
    ComponentPlan,
    SynthesisError,
    SynthesisPlan,
    choose_field,
    plan_component,
    render_plan,
    synthesize,
    synthesize_plan,
)
from .bounds import (
    Verdict,
    classify_linear_capacity,
    color_isomorphic,
    linear_converse_bound,
    random_scheme_search,
)
from . import catalog

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
