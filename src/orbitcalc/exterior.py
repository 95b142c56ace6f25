"""Exterior calculus on polynomial forms: wedge, d, contraction, Lie
derivative, pullback, the semi-basic test, and the polynomial homotopy
operator producing primitives of closed forms.

Degree-0 forms are bare Polynomial values throughout; every operation
accepts and returns them where the degree arithmetic lands on zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import Polynomial, PolyRing, combination, json_integer, mono_degree, parse_polynomial
from .group_action import (
    FormOrPoly,
    LieAlgebraAction,
    PolyDiffForm,
    PolyVectorField,
    bracket_components,
    form_degree,
    infinitesimal_fields,
)


class NotClosedError(ValueError):
    """Primitive requested for a non-closed form; carries the residual d(form)."""

    def __init__(self, residual: PolyDiffForm):
        super().__init__("form is not closed")
        self.residual = residual


# ---------------------------------------------------------------------------
# wedge and exterior derivative
# ---------------------------------------------------------------------------

def wedge(a: FormOrPoly, b: FormOrPoly) -> FormOrPoly:
    """Exterior product; bilinear, associative, graded-commutative."""
    if isinstance(a, Polynomial) and isinstance(b, Polynomial):
        return a * b
    if isinstance(a, Polynomial):
        return b * a
    if isinstance(b, Polynomial):
        return a * b
    if a.ring != b.ring:
        raise ValueError("wedge requires a common ambient ring")
    degree = a.degree + b.degree
    items = []
    for ix, c in a.terms.items():
        for jx, e in b.terms.items():
            if set(ix) & set(jx):
                continue
            items.append((ix + jx, c * e))
    return PolyDiffForm(a.ring, degree, items)


def d(obj: FormOrPoly) -> PolyDiffForm:
    """Exterior derivative; satisfies d(d(obj)) = 0 and the Leibniz rule."""
    if isinstance(obj, Polynomial):
        ring = obj.ring
        items = []
        for i in range(ring.nvars):
            partial = obj.partial_derivative(i)
            if not partial.is_zero():
                items.append(((i,), partial))
        return PolyDiffForm(ring, 1, items)
    ring = obj.ring
    items = []
    for indices, coeff in obj.terms.items():
        occupied = set(indices)
        for i in range(ring.nvars):
            if i in occupied:
                continue
            partial = coeff.partial_derivative(i)
            if not partial.is_zero():
                items.append(((i,) + indices, partial))
    return PolyDiffForm(ring, obj.degree + 1, items)


# ---------------------------------------------------------------------------
# contraction, evaluation, Lie derivative
# ---------------------------------------------------------------------------

def interior(X: PolyVectorField, omega: FormOrPoly) -> FormOrPoly:
    """First-slot contraction X -| omega; degree drops by one."""
    if isinstance(omega, Polynomial):
        raise ValueError("cannot contract a function")
    if X.ring != omega.ring:
        raise ValueError("field and form must share the ambient ring")
    k = omega.degree
    if k == 1:
        return combination(
            omega.ring, [(1, coeff, X.components[i]) for (i,), coeff in omega.terms.items()]
        )
    items = []
    for indices, coeff in omega.terms.items():
        for t, i in enumerate(indices):
            comp = X.components[i]
            if comp.is_zero():
                continue
            rest = indices[:t] + indices[t + 1 :]
            c = coeff * comp
            if t % 2:
                c = -c
            items.append((rest, c))
    return PolyDiffForm(omega.ring, k - 1, items)


def evaluate(omega: FormOrPoly, fields: Sequence[PolyVectorField]) -> Polynomial:
    """omega(V1, ..., Vk) by successive first-slot contractions."""
    if len(fields) != form_degree(omega):
        raise ValueError("field count must equal the form degree")
    current: FormOrPoly = omega
    for X in fields:
        current = interior(X, current)
    assert isinstance(current, Polynomial)
    return current


def vector_field_bracket(X: PolyVectorField, Y: PolyVectorField) -> PolyVectorField:
    """Jacobi-Lie bracket [X, Y] with components X(Y_i) - Y(X_i)."""
    if X.ring != Y.ring:
        raise ValueError("fields must share the ambient ring")
    return PolyVectorField(X.ring, bracket_components(X.components, Y.components))


def lie_derivative(X: PolyVectorField, obj: FormOrPoly) -> FormOrPoly:
    """Cartan formula d(X -| obj) + X -| d(obj); on functions simply X(obj).

    The coordinate formula (transport of each dx factor) is exposed as
    :func:`lie_derivative_direct`; the two are asserted equal in the test
    suite on randomized inputs.
    """
    if isinstance(obj, Polynomial):
        return X.apply(obj)
    return d(interior(X, obj)) + interior(X, d(obj))


def lie_derivative_direct(X: PolyVectorField, omega: FormOrPoly) -> FormOrPoly:
    """Flow-free coordinate formula: derive the coefficient along X and
    replace each dx_j factor by dX_j."""
    if isinstance(omega, Polynomial):
        return X.apply(omega)
    ring = omega.ring
    items = []
    for indices, coeff in omega.terms.items():
        items.append((indices, X.apply(coeff)))
        for t, j in enumerate(indices):
            for i in range(ring.nvars):
                partial = X.components[j].partial_derivative(i)
                if partial.is_zero():
                    continue
                replaced = indices[:t] + (i,) + indices[t + 1 :]
                items.append((replaced, coeff * partial))
    return PolyDiffForm(ring, omega.degree, items)


# ---------------------------------------------------------------------------
# pullback along a polynomial map
# ---------------------------------------------------------------------------

def pullback(phi: Sequence[Polynomial], omega: FormOrPoly) -> FormOrPoly:
    """Pullback of a form on the target along the map with components ``phi``.

    ``phi`` lists target coordinates as polynomials in the source variables;
    its length must equal the target dimension.  Commutes with d and wedge.
    """
    if not phi:
        raise ValueError("empty map")
    source_ring = phi[0].ring
    if isinstance(omega, Polynomial):
        if len(phi) != omega.ring.nvars:
            raise ValueError("component count must equal the target dimension")
        return omega.substitute(list(phi))
    if len(phi) != omega.ring.nvars:
        raise ValueError("component count must equal the target dimension")
    total: FormOrPoly | None = None
    for indices, coeff in omega.terms.items():
        piece: FormOrPoly = coeff.substitute(list(phi))
        for i in indices:
            piece = wedge(piece, d(phi[i]))
        total = piece if total is None else total + piece
    if total is None:
        return PolyDiffForm(source_ring, omega.degree, {})
    return total


# ---------------------------------------------------------------------------
# semi-basic test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemibasicResult:
    """Outcome of the semi-basic test; on failure carries the offending
    generator index and its nonzero contraction."""

    semibasic: bool
    failing_index: int | None = None
    contraction: FormOrPoly | None = None

    def __bool__(self):
        return self.semibasic


def semibasic_check(omega: FormOrPoly, action: LieAlgebraAction, ring: PolyRing | None = None) -> SemibasicResult:
    """True iff every infinitesimal generator contracts to zero.

    Functions (degree 0) and empty Lie algebras are vacuously semi-basic.
    """
    if isinstance(omega, Polynomial):
        return SemibasicResult(True)
    ring = ring or omega.ring
    for index, field in enumerate(infinitesimal_fields(action, ring)):
        contraction = interior(field, omega)
        zero = contraction.is_zero()
        if not zero:
            return SemibasicResult(False, index, contraction)
    return SemibasicResult(True)


# ---------------------------------------------------------------------------
# homotopy operator (primitives of closed forms)
# ---------------------------------------------------------------------------

def homotopy(omega: FormOrPoly) -> FormOrPoly:
    """The degree-lowering operator h with h(d(w)) + d(h(w)) = w on forms of
    degree >= 1 (and = w - w(0) on functions, where h of a function is 0).

    Termwise: a monomial coefficient of degree m in a k-form contracts with
    the Euler field and scales by 1/(m+k).
    """
    if isinstance(omega, Polynomial):
        return omega.ring.zero()
    ring = omega.ring
    k = omega.degree
    items = []
    for indices, coeff in omega.terms.items():
        for exps, c in coeff.terms.items():
            weight = Fraction(1, mono_degree(exps) + k)
            for t, i in enumerate(indices):
                rest = indices[:t] + indices[t + 1 :]
                mono = ring.monomial(exps, c * weight) * ring.variable(i)
                if t % 2:
                    mono = -mono
                items.append((rest, mono))
    if k == 1:
        return sum((p for _, p in items), ring.zero())
    return PolyDiffForm(ring, k - 1, items)


def poincare_primitive(beta: PolyDiffForm) -> FormOrPoly:
    """A primitive of a closed polynomial form of degree >= 1.

    Checks closedness first and refuses otherwise (the residual rides on the
    error).  Commutes with every linear group action fixing the form, since
    the Euler field is equivariant under linear maps.
    """
    if isinstance(beta, Polynomial):
        raise ValueError("a function has no primitive in this calculus")
    residual = d(beta)
    if not residual.is_zero():
        raise NotClosedError(residual)
    return homotopy(beta)


# ---------------------------------------------------------------------------
# JSON serialization of ambient objects
# ---------------------------------------------------------------------------

def form_to_json(omega: FormOrPoly) -> dict:
    if isinstance(omega, Polynomial):
        return {"degree": 0, "terms": [{"indices": [], "coeff": str(omega)}]}
    return {
        "degree": omega.degree,
        "terms": [
            {"indices": [i + 1 for i in ix], "coeff": str(omega.terms[ix])}
            for ix in sorted(omega.terms)
        ],
    }


def form_from_json(data: dict, ring: PolyRing) -> FormOrPoly:
    degree = json_integer(data["degree"], "degree")
    if degree == 0:
        return sum((parse_polynomial(item["coeff"], ring) for item in data["terms"]), ring.zero())
    items = []
    for item in data["terms"]:
        indices = tuple(json_integer(i, "indices") - 1 for i in item["indices"])
        items.append((indices, parse_polynomial(item["coeff"], ring)))
    return PolyDiffForm(ring, degree, items)


def vf_to_json(X: PolyVectorField) -> dict:
    return {"components": [str(c) for c in X.components]}


def vf_from_json(data: dict, ring: PolyRing) -> PolyVectorField:
    components = [parse_polynomial(s, ring) for s in data["components"]]
    return PolyVectorField(ring, components)
