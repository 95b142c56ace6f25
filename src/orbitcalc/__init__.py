"""orbitcalc: exact calculus on orbit spaces of linear finite group actions.

Layers, bottom up: sparse rational polynomial arithmetic with monomial
orders (``algebra``), the fraction-free exact eliminations (``linalg``),
Groebner engine with witnesses and syzygies (``groebner``), finite matrix
groups acting on polynomials, fields, and forms (``group_action``),
exterior calculus and the homotopy operator (``exterior``), invariant ring
and invariant fields (``invariants``), and the orbit-space calculus itself
(``quotient``).  ``cli`` is the console entry point.
"""

from .algebra import (
    GREVLEX,
    LEX,
    BlockOrder,
    GrevlexOrder,
    LexOrder,
    Polynomial,
    PolyRing,
    format_polynomial,
    parse_polynomial,
)
from .groebner import (
    ComputationCancelled,
    GroebnerBasis,
    ModuleMembership,
    SubmoduleProblem,
    buchberger,
    divide,
    eliminate,
    module_solve,
    normal_form,
    syzygies,
)
from .group_action import (
    FiniteMatrixGroup,
    LieAlgebraAction,
    PolyDiffForm,
    PolyVectorField,
    act_form,
    act_poly,
    act_vf,
    closure,
    infinitesimal_fields,
    is_invariant,
    reynolds,
)
from .exterior import (
    NotClosedError,
    SemibasicResult,
    d,
    evaluate,
    form_from_json,
    form_to_json,
    homotopy,
    interior,
    lie_derivative,
    poincare_primitive,
    pullback,
    semibasic_check,
    vector_field_bracket,
    vf_from_json,
    vf_to_json,
    wedge,
)
from .invariants import (
    EquivariantModule,
    HilbertMap,
    RelationIdeal,
    equivariant_generators,
    invariant_generators,
    relations,
    subduct,
)
from .quotient import (
    ExtendResult,
    OrbitForm,
    OrbitFunction,
    OrbitSpace,
    OrbitVectorField,
    extend_check,
    lift_vf,
    orbit_bracket,
    orbit_d,
    orbit_form_from_json,
    orbit_form_to_json,
    orbit_vf_from_json,
    orbit_vf_to_json,
    orbit_wedge,
    pull_form,
    push_form,
    push_vf,
)

__version__ = "0.1.0"
