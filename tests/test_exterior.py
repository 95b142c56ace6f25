"""Exterior calculus: wedge, d, contraction, pullback, semi-basic test, homotopy."""

import random

import pytest

from conftest import (
    make_reflection_group,
    make_swap_group,
    random_form,
    random_poly,
    random_vf,
    reference_substitute,
    suite_homotopy,
)
from orbitcalc import exterior
from orbitcalc.algebra import Polynomial, PolyRing, parse_polynomial
from orbitcalc.exterior import (
    NotClosedError,
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
from orbitcalc.group_action import (
    LieAlgebraAction,
    PolyDiffForm,
    PolyVectorField,
    act_form,
)

RING = PolyRing.ambient(2)


def x(text):
    return parse_polynomial(text, RING)


def field(*components):
    return PolyVectorField(RING, [x(c) for c in components])


def one_form(coeff1, coeff2):
    return PolyDiffForm(RING, 1, [((0,), x(coeff1)), ((1,), x(coeff2))])


ANGULAR = one_form("-x2", "x1")
DX1 = one_form("1", "0")
DX2 = one_form("0", "1")
VOL = wedge(DX1, DX2)
ROTATION = LieAlgebraAction.from_rows(2, [[["0", "-1"], ["1", "0"]]])


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_examples():
    assert wedge(ANGULAR, DX1) == PolyDiffForm(RING, 2, [((0, 1), x("-x1"))])
    assert wedge(x("x1"), DX2) == one_form("0", "x1")
    assert wedge(x("3"), x("x2")) == x("3*x2")
    # Degrees above the dimension exist but are identically zero.
    top_squared = wedge(VOL, VOL)
    assert top_squared.degree == 4
    assert top_squared.is_zero()


def test_wedge_graded_commutativity():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(2, 3)
        ring = PolyRing.ambient(n)
        k = rng.randint(0, n)
        h = rng.randint(0, n - k)
        a = random_form(rng, ring, k)
        b = random_form(rng, ring, h)
        forward = wedge(a, b)
        backward = wedge(b, a)
        if k * h % 2:
            assert (forward + backward).is_zero()
        else:
            assert (forward - backward).is_zero()


def test_wedge_associativity():
    rng = random.Random(102)
    for _ in range(150):
        ring = PolyRing.ambient(3)
        degrees = [rng.randint(0, 1) for _ in range(3)]
        a, b, c = (random_form(rng, ring, deg) for deg in degrees)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_of_one_form_with_itself_vanishes():
    rng = random.Random(103)
    for _ in range(100):
        ring = PolyRing.ambient(rng.randint(2, 4))
        w = random_form(rng, ring, 1)
        assert wedge(w, w).is_zero()


# ---------------------------------------------------------------------------
# exterior derivative
# ---------------------------------------------------------------------------

def test_d_examples():
    assert d(ANGULAR) == PolyDiffForm(RING, 2, [((0, 1), x("2"))])
    assert d(x("x1^2")) == one_form("2*x1", "0")
    assert d(x("7")).is_zero()
    top = d(VOL)
    assert top.degree == 3
    assert top.is_zero()


# ---------------------------------------------------------------------------
# contraction and evaluation
# ---------------------------------------------------------------------------

def test_interior_examples():
    contracted = interior(field("x1", "0"), ANGULAR)
    assert isinstance(contracted, Polynomial)
    assert contracted == x("-x1*x2")
    assert interior(field("1", "0"), VOL) == DX2
    assert interior(field("0", "1"), VOL) == -DX1


def test_interior_rejects_functions_and_mixed_rings():
    with pytest.raises(ValueError, match="cannot contract a function"):
        interior(field("1", "0"), x("x1"))
    other = PolyRing.ambient(3)
    stranger = PolyVectorField(other, [other.one(), other.zero(), other.zero()])
    with pytest.raises(ValueError, match="share the ambient ring"):
        interior(stranger, ANGULAR)


def test_evaluate():
    assert evaluate(VOL, [field("1", "0"), field("0", "1")]) == x("1")
    assert evaluate(ANGULAR, [field("x1", "x2")]).is_zero()
    with pytest.raises(ValueError, match="field count"):
        evaluate(VOL, [field("1", "0")])


# ---------------------------------------------------------------------------
# brackets and Lie derivatives
# ---------------------------------------------------------------------------

def test_vector_field_bracket_example():
    assert vector_field_bracket(field("x2", "0"), field("0", "x1")) == field("-x1", "x2")


def test_vector_field_bracket_laws():
    rng = random.Random(104)
    for _ in range(100):
        ring = PolyRing.ambient(rng.randint(2, 3))
        X = random_vf(rng, ring, max_degree=2)
        Y = random_vf(rng, ring, max_degree=2)
        Z = random_vf(rng, ring, max_degree=2)
        assert vector_field_bracket(X, Y) == -vector_field_bracket(Y, X)
        cycled = (
            vector_field_bracket(X, vector_field_bracket(Y, Z))
            + vector_field_bracket(Y, vector_field_bracket(Z, X))
            + vector_field_bracket(Z, vector_field_bracket(X, Y))
        )
        assert cycled.is_zero()


def test_lie_derivative_on_functions():
    assert lie_derivative(field("x2", "0"), x("x1*x2")) == x("x2^2")
    assert lie_derivative(field("0", "x1"), x("x1^2")).is_zero()


def lie_derivative_direct(X, omega):
    """Flow-free coordinate formula, the oracle of the Cartan formula:
    derive the coefficient along X and replace each dx_j factor by dX_j."""
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


def test_lie_derivative_cartan_matches_direct():
    rng = random.Random(105)
    for _ in range(150):
        n = rng.randint(2, 3)
        ring = PolyRing.ambient(n)
        X = random_vf(rng, ring, max_degree=2)
        omega = random_form(rng, ring, rng.randint(0, n))
        assert lie_derivative(X, omega) == lie_derivative_direct(X, omega)


# ---------------------------------------------------------------------------
# pullback
# ---------------------------------------------------------------------------

def test_pullback_examples():
    target = PolyRing(("y1", "y2", "y3"))
    sigma = [x("x1^2"), x("x2^2"), x("x1*x2")]
    dy1 = PolyDiffForm(target, 1, [((0,), target.one())])
    dy3 = PolyDiffForm(target, 1, [((2,), target.one())])
    assert pullback(sigma, dy1) == one_form("2*x1", "0")
    assert pullback(sigma, dy3) == one_form("x2", "x1")
    relation = parse_polynomial("y1*y2 - y3^2", target)
    assert pullback(sigma, relation).is_zero()
    identity = [x("x1"), x("x2")]
    assert pullback(identity, ANGULAR) == ANGULAR


def test_pullback_rejects_bad_maps():
    with pytest.raises(ValueError, match="empty map"):
        pullback([], ANGULAR)
    with pytest.raises(ValueError, match="target dimension"):
        pullback([x("x1")], ANGULAR)
    with pytest.raises(ValueError, match="target dimension"):
        pullback([x("x1")], x("x1*x2"))
    with pytest.raises(ValueError, match="incompatible rings"):
        pullback([x("x1"), PolyRing.ambient(3).variable(0)], ANGULAR)


def test_pullback_of_a_form_reads_one_power_table(monkeypatch):
    # every coefficient is substituted through one table of powers of phi,
    # and the result matches the Fraction-dict substitution oracle
    rng = random.Random(107)
    made = []

    class CountingTable(exterior.PowerTable):
        def __init__(self, values):
            made.append(values)
            super().__init__(values)

    monkeypatch.setattr(exterior, "PowerTable", CountingTable)
    monkeypatch.setattr(Polynomial, "substitute", None)
    for degree in (1, 2):
        phi = [random_poly(rng, RING, max_degree=2) for _ in range(2)]
        omega = random_form(rng, RING, degree, max_degree=3, max_terms=3)
        expected = PolyDiffForm.zero(RING, degree)
        for indices, coeff in omega.terms.items():
            piece = reference_substitute(coeff, phi)
            for i in indices:
                piece = wedge(piece, d(phi[i]))
            expected = expected + piece
        made.clear()
        assert pullback(phi, omega) == expected
        assert len(made) == 1


def test_pullback_commutes_with_d_and_wedge():
    rng = random.Random(106)
    for _ in range(100):
        phi = [random_poly(rng, RING, max_degree=2) for _ in range(2)]
        omega = random_form(rng, RING, rng.randint(0, 2))
        assert pullback(phi, d(omega)) == d(pullback(phi, omega))
        a = random_form(rng, RING, rng.randint(0, 1))
        b = random_form(rng, RING, rng.randint(0, 1))
        assert pullback(phi, wedge(a, b)) == wedge(pullback(phi, a), pullback(phi, b))


# ---------------------------------------------------------------------------
# semi-basic test
# ---------------------------------------------------------------------------

def test_semibasic_vacuous_cases():
    empty = LieAlgebraAction.from_rows(2, [])
    assert semibasic_check(ANGULAR, empty)
    assert semibasic_check(x("x1^5"), ROTATION)


def test_semibasic_rotation_pair():
    radial = one_form("x1", "x2")
    verdict = semibasic_check(radial, ROTATION)
    assert verdict.semibasic and bool(verdict)
    assert verdict.failing_index is None

    scaled_angular = wedge(x("x1^2 + x2^2"), ANGULAR)
    verdict = semibasic_check(scaled_angular, ROTATION)
    assert not verdict
    assert verdict.failing_index == 0
    assert verdict.contraction == x("x1^4 + 2*x1^2*x2^2 + x2^4")


# ---------------------------------------------------------------------------
# homotopy operator and primitives
# ---------------------------------------------------------------------------

def test_homotopy_identity():
    suite_homotopy(random.Random(107), 120)
    assert homotopy(d(x("x1^2 + 3*x2 + 5"))) == x("x1^2 + 3*x2")
    assert homotopy(x("x1^2")).is_zero()


def test_homotopy_commutes_with_linear_actions():
    rng = random.Random(108)
    elements = list(make_reflection_group().elements) + list(make_swap_group().elements)
    for _ in range(150):
        g = rng.choice(elements)
        omega = random_form(rng, RING, rng.randint(1, 2))
        assert homotopy(act_form(g, omega)) == act_form(g, homotopy(omega))


def test_homotopy_preserves_semibasic_forms():
    rng = random.Random(109)
    ring3 = PolyRing.ambient(3)
    plane_rotation = LieAlgebraAction.from_rows(
        3, [[["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]]
    )
    radial12 = PolyDiffForm(
        ring3, 1, [((0,), ring3.variable(0)), ((1,), ring3.variable(1))]
    )
    dx3 = PolyDiffForm(ring3, 1, [((2,), ring3.one())])
    for _ in range(60):
        coeff = random_poly(rng, ring3, max_degree=4)
        omega = wedge(coeff, wedge(radial12, dx3))
        assert semibasic_check(omega, plane_rotation)
        assert semibasic_check(homotopy(omega), plane_rotation)


def test_poincare_primitive_examples():
    doubled_volume = PolyDiffForm(RING, 2, [((0, 1), x("2"))])
    assert poincare_primitive(doubled_volume) == ANGULAR
    assert poincare_primitive(DX1) == x("x1")
    assert poincare_primitive(one_form("2*x1", "0")) == x("x1^2")


def test_poincare_primitive_random_closed_forms():
    rng = random.Random(110)
    for _ in range(50):
        ring = PolyRing.ambient(rng.randint(2, 3))
        omega = d(random_form(rng, ring, 1))
        assert d(poincare_primitive(omega)) == omega


def test_poincare_primitive_rejects_non_closed():
    leaky = one_form("x2", "0")
    with pytest.raises(NotClosedError) as info:
        poincare_primitive(leaky)
    assert info.value.residual == d(leaky)
    with pytest.raises(ValueError, match="no primitive"):
        poincare_primitive(x("x1"))


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

def test_form_json_shape():
    assert form_to_json(ANGULAR) == {
        "degree": 1,
        "terms": [
            {"indices": [1], "coeff": "-x2"},
            {"indices": [2], "coeff": "x1"},
        ],
    }


def test_json_round_trips():
    rng = random.Random(111)
    for _ in range(100):
        n = rng.randint(2, 3)
        ring = PolyRing.ambient(n)
        omega = random_form(rng, ring, rng.randint(0, n))
        assert form_from_json(form_to_json(omega), ring) == omega
        X = random_vf(rng, ring)
        assert vf_from_json(vf_to_json(X), ring) == X
