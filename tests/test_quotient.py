"""Orbit-space calculus: pushforward/lift, intrinsic d, wedge, extension test."""

import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest

from conftest import check_lift_roundtrip, make_rotation4_group, random_poly
from orbitcalc import exterior, groebner, linalg, quotient
from orbitcalc.algebra import GREVLEX, PolyRing, parse_polynomial
from orbitcalc.exterior import d, evaluate, wedge
from orbitcalc.group_action import (
    LieAlgebraAction,
    PolyDiffForm,
    PolyVectorField,
    closure,
    is_invariant,
    reynolds,
)
from orbitcalc.invariants import EquivariantModule, HilbertMap, invariant_generators
from orbitcalc.quotient import (
    OrbitForm,
    OrbitSpace,
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
from orbitcalc.verify import reflection_context, run_golden_checks

AMBIENT = PolyRing.ambient(2)
X1, X2 = AMBIENT.variables()


def ambient_field(*components):
    return PolyVectorField(AMBIENT, [parse_polynomial(c, AMBIENT) for c in components])


def orbit_field(space, *components):
    return space.field([parse_polynomial(c, space.orbit_ring) for c in components])


# ---------------------------------------------------------------------------
# pushforward and lift of vector fields
# ---------------------------------------------------------------------------

def test_pushed_generators_frozen(golden_space):
    expected = [
        orbit_field(golden_space, "2*y1", "0", "y3"),
        orbit_field(golden_space, "2*y3", "0", "y2"),
        orbit_field(golden_space, "0", "2*y3", "y1"),
        orbit_field(golden_space, "0", "2*y2", "y3"),
    ]
    assert golden_space.pushed_generators == expected


def test_orbit_space_is_freed_with_its_last_reference():
    """No cached object points back at its space, so a finished space goes
    with its last reference, not at the next run of the cyclic collector."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        space = OrbitSpace(invariant_generators(make_rotation4_group()))
        Y = space.pushed_generators[0]
        orbit_d(space.parse_function("y1"))
        lift_vf(orbit_bracket(Y, space.pushed_generators[1]), space)
        extend_check(orbit_d(space.parse_function("y2")))
        space_ref, map_ref = weakref.ref(space), weakref.ref(space.hilbert)
        del space, Y
        assert space_ref() is None and map_ref() is None
    finally:
        if enabled:
            gc.enable()


def test_push_vf_zero_and_rejection(golden_space):
    assert push_vf(PolyVectorField.zero(AMBIENT), golden_space).is_zero()
    with pytest.raises(ValueError, match="not invariant"):
        push_vf(ambient_field("1", "0"), golden_space)


def test_lift_round_trips(golden_space):
    for Y in golden_space.pushed_generators:
        check_lift_roundtrip(golden_space, Y)
    symmetric = ambient_field("x2", "x1")
    pushed = push_vf(symmetric, golden_space)
    assert pushed == orbit_field(golden_space, "2*y3", "2*y3", "y1 + y2")
    check_lift_roundtrip(golden_space, pushed)


def test_lift_outside_the_pushed_module(golden_space):
    narrow = OrbitSpace(
        golden_space.hilbert,
        module=EquivariantModule.from_fields(
            golden_space.hilbert.group, [ambient_field("x1", "0")]
        ),
    )
    tangent = orbit_field(narrow, "2*y3", "0", "y2")
    with pytest.raises(ValueError, match="outside the pushed module"):
        lift_vf(tangent, narrow)


def test_one_module_basis_serves_lifts_and_brackets(count_module_basis_builds):
    space = reflection_context()
    builds = count_module_basis_builds()
    assert len(space.bracket_coefficients) == 6
    for Y in space.pushed_generators:
        check_lift_roundtrip(space, Y)
    syzygies = space.generator_syzygies
    assert len(builds) == 1
    # the public entry point, on its own basis, gives the same rows
    assert groebner.syzygies(space._generator_span.columns, space.ideal.basis) == syzygies
    assert len(builds) == 2


def test_orbit_bracket_golden(golden_space):
    Y1, Y2, Y3, Y4 = golden_space.pushed_generators
    assert orbit_bracket(Y1, Y4).is_zero()
    assert orbit_bracket(Y1, Y2) == -Y2
    assert orbit_bracket(Y1, Y2) == push_vf(ambient_field("-x2", "0"), golden_space)
    for Y in (Y1, Y2, Y3, Y4):
        assert orbit_bracket(Y, Y).is_zero()


def test_orbit_bracket_rejects_mixed_spaces(golden_space):
    other = reflection_context()
    with pytest.raises(ValueError, match="different orbit spaces"):
        orbit_bracket(golden_space.pushed_generators[0], other.pushed_generators[0])


# ---------------------------------------------------------------------------
# pushforward of forms
# ---------------------------------------------------------------------------

def test_push_form_golden_values(golden_space, golden_forms):
    theta1 = push_form(golden_forms[0], golden_space)
    theta4 = push_form(golden_forms[3], golden_space)
    frozen1 = ["2*y1", "2*y3", "0", "0"]
    frozen4 = ["-y3", "-y2", "y1", "y3"]
    for i in range(4):
        assert theta1.value((i,)) == golden_space.parse_function(frozen1[i])
        assert theta4.value((i,)) == golden_space.parse_function(frozen4[i])


def test_push_form_matches_generator_components(golden_space, golden_forms):
    # The push of d(sigma_i) tabulates the i-th component of each pushed field.
    for i in range(3):
        theta = push_form(golden_forms[i], golden_space)
        for j, Y in enumerate(golden_space.pushed_generators):
            assert theta.value((j,)) == Y.components[i]


def test_push_form_defining_identity(golden_space, golden_forms):
    theta4 = push_form(golden_forms[3], golden_space)
    for i, X in enumerate(golden_space.module.generators):
        upstairs = evaluate(golden_forms[3], [X])
        assert golden_space.hilbert.substitute_into(theta4.value((i,)).rep) == upstairs


def test_push_form_degree_zero_and_zero_form(golden_space):
    downstairs = push_form(X1 * X1, golden_space)
    assert downstairs == golden_space.parse_function("y1")
    empty = PolyDiffForm(AMBIENT, 1, {})
    assert push_form(empty, golden_space).is_zero()


def test_push_form_rejections(golden_space):
    dx1 = PolyDiffForm(AMBIENT, 1, [((0,), AMBIENT.one())])
    with pytest.raises(ValueError, match="not invariant"):
        push_form(dx1, golden_space)

    trivial = closure([[["1", "0"], ["0", "1"]]])
    rotation = LieAlgebraAction.from_rows(2, [[["0", "-1"], ["1", "0"]]])
    coordinates = OrbitSpace(
        HilbertMap.from_polynomials(trivial, (X1, X2)), lie_action=rotation
    )
    angular = PolyDiffForm(AMBIENT, 1, [((0,), -X2), ((1,), X1)])
    with pytest.raises(ValueError, match="not semi-basic"):
        push_form(angular, coordinates)
    radial = PolyDiffForm(AMBIENT, 1, [((0,), X1), ((1,), X2)])
    pushed = push_form(radial, coordinates)
    assert pushed.value((0,)) == coordinates.parse_function("y1")
    assert pushed.value((1,)) == coordinates.parse_function("y2")


# ---------------------------------------------------------------------------
# pull of forms
# ---------------------------------------------------------------------------

def test_pull_form_golden(golden_space, golden_forms):
    theta1 = push_form(golden_forms[0], golden_space)
    theta4 = push_form(golden_forms[3], golden_space)
    assert pull_form(theta1, golden_space) == golden_forms[0]
    assert pull_form(theta4, golden_space) == golden_forms[3]
    assert pull_form(theta4, golden_space, degree_bound=1) == golden_forms[3]
    assert pull_form(golden_space.parse_function("y1"), golden_space) == X1 * X1


def test_pull_form_zero_and_bound_exhaustion(golden_space, golden_forms):
    zero = OrbitForm(golden_space, 1, {})
    assert pull_form(zero, golden_space).is_zero()
    theta4 = push_form(golden_forms[3], golden_space)
    with pytest.raises(ValueError, match="pull not found at bound 0"):
        pull_form(theta4, golden_space, degree_bound=0)


def test_pull_form_beyond_the_ambient_dimension(golden_space):
    pulled = pull_form(OrbitForm(golden_space, 3, {}), golden_space)
    assert pulled.degree == 3 and pulled.is_zero()
    one = golden_space.orbit_ring.one()
    table = OrbitForm(golden_space, 3, [((0, 1, 2), one)], check=False)
    with pytest.raises(ValueError, match="pull not found"):
        pull_form(table, golden_space)


def test_pull_and_lift_reject_another_space(golden_space, golden_forms):
    """The automatic space of the same group orders its generators
    differently, so the golden space's objects mean other things there."""
    other = OrbitSpace(invariant_generators(golden_space.hilbert.group))
    function = golden_space.parse_function("y2")
    one_form = push_form(golden_forms[0], golden_space)
    field = golden_space.pushed_generators[0]
    with pytest.raises(ValueError, match="different orbit space"):
        pull_form(function, other)
    with pytest.raises(ValueError, match="different orbit space"):
        pull_form(one_form, other)
    with pytest.raises(ValueError, match="different orbit space"):
        lift_vf(field, other)
    assert pull_form(function, golden_space) == X2 * X2
    assert pull_form(one_form, golden_space) == golden_forms[0]
    assert push_vf(lift_vf(field, golden_space), golden_space) == field


def test_pull_and_golden_checks_need_no_dense_linear_algebra(
    golden_space, golden_forms, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("dense linear algebra on the membership path")

    monkeypatch.setattr(linalg, "solve", refuse)
    monkeypatch.setattr(linalg, "echelon", refuse)
    two = PolyDiffForm(AMBIENT, 2, [((0, 1), X1 * X1 + X2 * X2)])
    for omega in (golden_forms[3], two):
        assert pull_form(push_form(omega, golden_space), golden_space) == omega
    assert all(result.passed for result in run_golden_checks())


# ---------------------------------------------------------------------------
# intrinsic exterior derivative and wedge
# ---------------------------------------------------------------------------

def test_orbit_d_golden(golden_space, golden_forms):
    theta1 = push_form(golden_forms[0], golden_space)
    assert orbit_d(golden_space.parse_function("y1")) == theta1
    assert orbit_d(theta1).is_zero()

    theta4 = push_form(golden_forms[3], golden_space)
    curvature = orbit_d(theta4)
    assert not curvature.is_zero()
    frozen = {(0, 2): "2*y1", (0, 3): "2*y3", (1, 2): "2*y3", (1, 3): "2*y2"}
    for pair in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        expected = golden_space.parse_function(frozen.get(pair, "0"))
        assert curvature.value(pair) == expected


def test_orbit_d_squared_on_functions(golden_space):
    f = golden_space.parse_function("y3^2 - y1")
    assert orbit_d(orbit_d(f)).is_zero()


def test_orbit_wedge_and_leibniz(golden_space, golden_forms):
    t3 = push_form(golden_forms[2], golden_space)
    t4 = push_form(golden_forms[3], golden_space)
    direct = push_form(wedge(golden_forms[2], golden_forms[3]), golden_space)
    assert orbit_wedge(t3, t4) == direct
    assert orbit_wedge(t3, t4) == -orbit_wedge(t4, t3)

    f = golden_space.parse_function("y3")
    assert orbit_d(f) == t3
    left = orbit_d(orbit_wedge(f, t4))
    right = orbit_wedge(orbit_d(f), t4) + orbit_wedge(f, orbit_d(t4))
    assert left == right


# ---------------------------------------------------------------------------
# Koszul d and shuffle wedge against the pull-compute-push oracle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=["z2", "z4"])
def calculus_space(request, golden_space):
    """The golden Z2/R^2 space and the automatic Z4/R^2 space."""
    if request.param == "z2":
        return golden_space
    return OrbitSpace(invariant_generators(make_rotation4_group()))


def pushed_one_forms(space, seed, count=3):
    """Seeded Reynolds averages of ambient 1-forms with a random coefficient
    on every dx_i, pushed down."""
    rng = random.Random(seed)
    ring, group = space.hilbert.ring, space.hilbert.group
    forms = []
    while len(forms) < count:
        items = [((i,), random_poly(rng, ring, 3, 3)) for i in range(ring.nvars)]
        theta = push_form(reynolds(PolyDiffForm(ring, 1, items), group), space)
        if not theta.is_zero():
            forms.append(theta)
    return forms


def oracle_d(theta, space):
    return push_form(d(pull_form(theta, space)), space)


def oracle_wedge(a, b, space):
    return push_form(wedge(pull_form(a, space), pull_form(b, space)), space)


def test_intrinsic_calculus_matches_pull_push_oracle(calculus_space):
    space = calculus_space
    a, b, c = pushed_one_forms(space, seed=11)
    f = space.parse_function("y1^2 - 2*y2 + 1")
    for theta in (a, b, f):
        assert orbit_d(theta) == oracle_d(theta, space)
    for left, right in ((a, b), (b, c), (f, a), (a, f), (f, f)):
        assert orbit_wedge(left, right) == oracle_wedge(left, right, space)
    two = orbit_wedge(a, b)
    assert not two.is_zero() and not orbit_d(a).is_zero()
    assert orbit_d(two) == oracle_d(two, space)
    assert orbit_wedge(two, c) == oracle_wedge(two, c, space)


def test_orbit_d_squares_to_zero(calculus_space):
    space = calculus_space
    a, b, _ = pushed_one_forms(space, seed=12)
    assert orbit_d(orbit_d(space.parse_function("y2^2 - y1"))).is_zero()
    for theta in (a, b, orbit_wedge(a, b)):
        assert orbit_d(orbit_d(theta)).is_zero()


def test_orbit_wedge_graded_commutativity_and_leibniz(calculus_space):
    space = calculus_space
    a, b, c = pushed_one_forms(space, seed=13)
    f = space.parse_function("y2 - 3*y1")
    two = orbit_wedge(b, c)
    for left, k in ((f, 0), (a, 1), (two, 2)):
        for right, other in ((f, 0), (c, 1), (two, 2)):
            swapped = orbit_wedge(right, left)
            expected = -swapped if (k * other) % 2 else swapped
            assert orbit_wedge(left, right) == expected
            leibniz = orbit_wedge(orbit_d(left), right)
            tail = orbit_wedge(left, orbit_d(right))
            leibniz = leibniz - tail if k % 2 else leibniz + tail
            assert orbit_d(orbit_wedge(left, right)) == leibniz


def test_orbit_function_arithmetic_builds_normal_forms(calculus_space):
    # Sums, differences, negations and scalar multiples of classes skip the
    # second reduction; their representatives must still be normal forms.
    space = calculus_space
    rng = random.Random(16)
    pool = [space.function(random_poly(rng, space.orbit_ring, 4, 5)) for _ in range(5)]
    for _ in range(80):
        a, b = rng.choice(pool), rng.choice(pool)
        c = rng.choice([3, -1, Fraction(-2, 7), 0])
        result = rng.choice([a + b, a - b, -a, a * c, c * a, a - a])
        assert space.ideal.normal(result.rep) == result.rep
        pool.append(result)
    # a bare polynomial operand is still reduced
    raw = random_poly(rng, space.orbit_ring, 4, 5) * space.orbit_ring.variable(0)
    for result, rep in ((pool[0] + raw, pool[0].rep + raw), (pool[1] - raw, pool[1].rep - raw)):
        assert result.rep == space.ideal.normal(rep)


def test_orbit_operations_build_no_fraction_view(calculus_space, fraction_views_built):
    # The orbit calculus runs on integer numerators: no operation makes the
    # Fraction coefficients of a polynomial.
    space = calculus_space
    a, b, _ = pushed_one_forms(space, seed=17)
    f = space.parse_function("y1^2 - 2/3*y2 + 1")
    field = reynolds(ambient_field("x1^3 - 1/2*x2", "3/5*x1*x2^2 + x1"), space.hilbert.group)
    fraction_views_built.clear()
    pushed = push_vf(field, space)
    bracket = orbit_bracket(pushed, space.pushed_generators[-1])
    lift_vf(bracket, space)
    pull_form(a, space)
    orbit_d(orbit_wedge(a, b))
    orbit_d(f)
    extend_check(a)
    assert fraction_views_built == []


def test_bracket_coefficients_rebuild_the_brackets(calculus_space):
    space = calculus_space
    pushed = space.pushed_generators
    n = len(pushed)
    assert sorted(space.bracket_coefficients) == [
        (i, j) for i in range(n) for j in range(i + 1, n)
    ]
    for (i, j), coeffs in space.bracket_coefficients.items():
        assert len(coeffs) == n
        bracket = orbit_bracket(pushed[i], pushed[j])
        for comp in range(space.orbit_ring.nvars):
            total = -bracket.components[comp].rep
            for c, Y in zip(coeffs, pushed):
                total = total + c * Y.components[comp].rep
            assert space.ideal.is_member(total)


def test_orbit_wedge_beyond_the_generator_count_is_zero(calculus_space):
    space = calculus_space
    a, b, c = pushed_one_forms(space, seed=14)
    pieces = [a, b, c]
    while sum(p.degree for p in pieces) <= len(space.pushed_generators):
        pieces.append(pieces[len(pieces) % 3])
    total = pieces[0]
    for piece in pieces[1:]:
        total = orbit_wedge(total, piece)
    assert total.degree == len(space.pushed_generators) + 1
    assert total.is_zero()


def test_intrinsic_calculus_avoids_ambient_round_trips(calculus_space, monkeypatch):
    fresh = OrbitSpace(
        calculus_space.hilbert, calculus_space.ideal, calculus_space.module
    )
    a, b, _ = pushed_one_forms(fresh, seed=15)
    f = fresh.parse_function("y1")

    def refuse(*args, **kwargs):
        raise AssertionError("ambient round trip on the intrinsic path")

    for owner, name in (
        (quotient, "pull_form"),
        (quotient, "push_form"),
        (exterior, "d"),
        (exterior, "wedge"),
    ):
        monkeypatch.setattr(owner, name, refuse)
    two = orbit_wedge(a, b)
    assert two.degree == 2
    assert orbit_d(two).degree == 3
    assert orbit_d(a).degree == 2
    assert orbit_d(f).degree == 1
    assert orbit_wedge(f, a) == orbit_wedge(a, f)


# ---------------------------------------------------------------------------
# extension decision
# ---------------------------------------------------------------------------

def test_extend_check_golden(golden_space, golden_forms):
    ring = golden_space.orbit_ring
    theta1 = push_form(golden_forms[0], golden_space)
    verdict = extend_check(theta1)
    assert verdict and verdict.extendable
    assert verdict.witness == (ring.one(), ring.zero(), ring.zero())

    # A verified witness reconstructs every value modulo the relations.
    for index in (1, 2):
        theta = push_form(golden_forms[index], golden_space)
        witness = extend_check(theta).witness
        for i, Y in enumerate(golden_space.pushed_generators):
            acc = ring.zero()
            for j, w in enumerate(witness):
                acc = acc + w * Y.components[j].rep
            assert golden_space.ideal.is_member(acc - theta.value((i,)).rep)


def test_extend_check_negative_certificate(golden_space, golden_forms):
    theta4 = push_form(golden_forms[3], golden_space)
    verdict = extend_check(theta4)
    assert not verdict
    frozen = tuple(
        parse_polynomial(s, golden_space.orbit_ring) for s in ("0", "0", "2*y1", "2*y3")
    )
    assert verdict.certificate == frozen


def test_golden_generator_syzygies_text(golden_space):
    rows = [", ".join(str(c) for c in row) for row in golden_space.generator_syzygies]
    assert rows == ["0, 0, y2, -y3", "0, 0, y3, -y1", "y2, -y3, 0, 0", "y3, -y1, 0, 0"]


def test_extend_check_edge_cases(golden_space, golden_forms):
    zero = OrbitForm(golden_space, 1, {})
    verdict = extend_check(zero)
    assert verdict and all(w.is_zero() for w in verdict.witness)
    theta4 = push_form(golden_forms[3], golden_space)
    with pytest.raises(ValueError, match="orbit 1-forms"):
        extend_check(orbit_d(theta4))


def test_extend_check_rejects_a_form_of_another_space(golden_space, golden_forms):
    theta = push_form(golden_forms[0], golden_space)
    with pytest.raises(ValueError, match="different orbit space"):
        extend_check(theta, reflection_context())
    assert extend_check(theta, golden_space) == extend_check(theta)


def test_one_module_basis_per_extension_and_pull_degree(golden_forms, count_module_basis_builds):
    space = reflection_context()
    two = PolyDiffForm(AMBIENT, 2, [((0, 1), X1 * X1 + X2 * X2)])
    ones = [push_form(omega, space) for omega in golden_forms]
    twos = [push_form(two, space), push_form(two * X1 * X2, space)]
    builds = count_module_basis_builds()
    verdicts = [extend_check(theta) for theta in ones + ones]
    assert len(builds) == 1
    pulls = [pull_form(theta, space) for theta in ones + ones]
    assert len(builds) == 2
    pulls += [pull_form(theta, space) for theta in twos + twos]
    assert len(builds) == 3
    assert verdicts[:4] == verdicts[4:] and pulls[:4] == pulls[4:8]

    # the same answers from problems built afresh, column by column
    pushed, ring = space.pushed_generators, space.orbit_ring
    columns = tuple(
        tuple(Y.components[j].rep for Y in pushed) for j in range(ring.nvars)
    )
    for theta, verdict in zip(ones, verdicts):
        fresh = groebner.SubmoduleProblem(len(pushed), columns, space.ideal.basis)
        target = [theta.value((i,)).rep for i in range(len(pushed))]
        outcome = groebner.module_solve(target, fresh)
        assert verdict.extendable == outcome.member
        if outcome.member:
            assert verdict.witness == tuple(space.ideal.normal(w) for w in outcome.witness)
        else:
            assert verdict.certificate == outcome.certificate
    fields = space.module.generators
    for theta, pulled in zip(ones + twos, pulls[:4] + pulls[8:10]):
        k = theta.degree
        rows = list(itertools.combinations(range(len(fields)), k))
        basis_tuples = list(itertools.combinations(range(2), k))
        minors = tuple(
            tuple(
                evaluate(PolyDiffForm(AMBIENT, k, [(J, AMBIENT.one())]), [fields[i] for i in I])
                for I in rows
            )
            for J in basis_tuples
        )
        fresh = groebner.SubmoduleProblem(len(rows), minors, groebner.GroebnerBasis((), GREVLEX))
        target = [space.hilbert.substitute_into(theta.value(I).rep) for I in rows]
        outcome = groebner.module_solve(target, fresh)
        assert pulled == PolyDiffForm(AMBIENT, k, list(zip(basis_tuples, outcome.witness)))
    assert len(builds) == 3 + len(ones) + len(ones + twos)  # the fresh problems


# ---------------------------------------------------------------------------
# validation of intrinsic objects
# ---------------------------------------------------------------------------

def test_orbit_form_rejects_incompatible_values(golden_space):
    ring = golden_space.orbit_ring
    with pytest.raises(ValueError, match="not compatible with the generator syzygies"):
        OrbitForm(golden_space, 1, [((0,), ring.one())])
    with pytest.raises(ValueError, match="degree must be at least 1"):
        OrbitForm(golden_space, 0, {})
    with pytest.raises(ValueError, match="index out of range"):
        OrbitForm(golden_space, 1, [((7,), ring.one())], check=False)
    with pytest.raises(ValueError, match="tuple length"):
        OrbitForm(golden_space, 2, [((0,), ring.one())], check=False)


def test_orbit_field_rejects_non_tangent_components(golden_space):
    with pytest.raises(ValueError, match="does not preserve the relation ideal"):
        orbit_field(golden_space, "1", "0", "0")
    with pytest.raises(ValueError, match="component count"):
        orbit_field(golden_space, "y1", "y2")


def test_orbit_function_semantics(golden_space):
    product = golden_space.parse_function("y1*y2")
    square = golden_space.parse_function("y3^2")
    assert product == square
    assert str(product) == "y3^2"
    assert hash(product) == hash(square)
    y3 = golden_space.parse_function("y3")
    assert y3 * y3 == square
    assert y3 + y3 == 2 * y3
    assert (y3 - y3).is_zero()


def test_orbit_function_scales_orbit_fields(golden_space):
    f = golden_space.parse_function("y3")
    Y1 = golden_space.pushed_generators[0]
    scaled = f * Y1
    assert scaled == Y1 * f
    assert scaled.components[0] == golden_space.parse_function("2*y1*y3")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_orbit_json_round_trips(golden_space, golden_forms):
    Y2 = golden_space.pushed_generators[1]
    assert orbit_vf_from_json(orbit_vf_to_json(Y2), golden_space) == Y2

    theta4 = push_form(golden_forms[3], golden_space)
    data = orbit_form_to_json(theta4)
    assert orbit_form_from_json(data, golden_space) == theta4

    f = golden_space.parse_function("y1*y2 - y3^2 + y1")
    round_tripped = orbit_form_from_json(orbit_form_to_json(f), golden_space)
    assert round_tripped == golden_space.parse_function("y1")

    data = orbit_form_to_json(theta4)
    data["generators"] = 3
    with pytest.raises(ValueError, match="generator count differs"):
        orbit_form_from_json(data, golden_space)


@pytest.fixture(scope="module")
def minus_identity_r3():
    group = closure([[["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]]])
    return group, OrbitSpace(invariant_generators(group))


def test_minus_identity_on_r3_full_space(minus_identity_r3):
    """<-Id> on R^3, built automatically: the quadrics, the 2x2 minors of the
    symmetric matrix they fill, and the syzygies among the 9 pushed fields."""
    group, space = minus_identity_r3
    hilbert = space.hilbert
    assert [str(s) for s in hilbert.sigma] == [
        "x1^2", "x1*x2", "x2^2", "x1*x3", "x2*x3", "x3^2",
    ]
    relations = space.ideal.basis.generators
    assert [str(g) for g in relations] == [
        "y2^2 - y1*y3",
        "y2*y4 - y1*y5",
        "y3*y4 - y2*y5",
        "y4^2 - y1*y6",
        "y4*y5 - y2*y6",
        "y5^2 - y3*y6",
    ]
    for g in relations:
        assert hilbert.substitute_into(g).is_zero()
    assert len(space.module.generators) == 9
    for X in space.module.generators:
        assert is_invariant(X, group)
    fields = space.pushed_generators
    rows = space.generator_syzygies
    assert len(rows) == 27
    assert [", ".join(str(c) for c in row) for row in rows] == [
        "0, 0, 0, 0, 0, y4, 0, 0, -y2",
        "0, 0, 0, 0, 0, y5, 0, 0, -y3",
        "0, 0, 0, 0, 0, y6, 0, 0, -y5",
        "0, 0, 0, 0, y4, 0, 0, -y2, 0",
        "0, 0, 0, 0, y5, 0, 0, -y3, 0",
        "0, 0, 0, 0, y6, 0, 0, -y5, 0",
        "0, 0, 0, y4, y5, y6, -y2, -y3, -y5",
        "0, 0, 0, y5, 0, 0, -y3, 0, 0",
        "0, 0, 0, y6, 0, 0, -y5, 0, 0",
        "0, 0, y2, 0, 0, -y1, 0, 0, 0",
        "0, 0, y3, 0, 0, -y2, 0, 0, 0",
        "0, 0, y4, 0, 0, 0, 0, 0, -y1",
        "0, 0, y5, 0, 0, -y4, 0, 0, 0",
        "0, 0, y5, 0, 0, 0, 0, 0, -y2",
        "0, 0, y6, 0, 0, 0, 0, 0, -y4",
        "0, y2, 0, 0, -y1, 0, 0, 0, 0",
        "0, y3, 0, 0, -y2, 0, 0, 0, 0",
        "0, y4, 0, 0, 0, 0, 0, -y1, 0",
        "0, y5, 0, 0, -y4, 0, 0, 0, 0",
        "0, y5, 0, 0, 0, 0, 0, -y2, 0",
        "0, y6, 0, 0, 0, 0, 0, -y4, 0",
        "y2, y3, y5, -y1, -y2, 0, 0, 0, -y2",
        "y3, 0, 0, -y2, 0, y5, 0, 0, -y3",
        "y4, y5, y6, 0, -y4, 0, -y1, 0, -y4",
        "y5, 0, 0, -y4, -y5, 0, 0, y3, 0",
        "y5, 0, 0, 0, 0, y6, -y2, 0, -y5",
        "y6, 0, 0, 0, -y6, 0, -y4, y5, 0",
    ]
    for row in rows:
        assert any(not c.is_zero() for c in row)
        for j in range(space.orbit_ring.nvars):
            total = space.orbit_ring.zero()
            for c, Y in zip(row, fields):
                total = total + c * Y.components[j].rep
            assert space.ideal.is_member(total)


# The 33 rows the tag-encoded module layer returned for <-Id> on R^3: 24 of
# the 27 rows above, and nine multiples of the relation y5^2 - y3*y6.
TAG_ENCODED_R3_SYZYGIES = [
    "0, 0, 0, 0, 0, 0, 0, 0, y5^2 - y3*y6",
    "0, 0, 0, 0, 0, 0, 0, y5^2 - y3*y6, 0",
    "0, 0, 0, 0, 0, 0, y5^2 - y3*y6, 0, 0",
    "0, 0, 0, 0, 0, y4, 0, 0, -y2",
    "0, 0, 0, 0, 0, y5, 0, 0, -y3",
    "0, 0, 0, 0, 0, y5^2 - y3*y6, 0, 0, 0",
    "0, 0, 0, 0, 0, y6, 0, 0, -y5",
    "0, 0, 0, 0, y4, 0, 0, -y2, 0",
    "0, 0, 0, 0, y5, 0, 0, -y3, 0",
    "0, 0, 0, 0, y5^2 - y3*y6, 0, 0, 0, 0",
    "0, 0, 0, 0, y6, 0, 0, -y5, 0",
    "0, 0, 0, y4, y5, y6, -y2, -y3, -y5",
    "0, 0, 0, y5, 0, 0, -y3, 0, 0",
    "0, 0, 0, y5^2 - y3*y6, 0, 0, 0, 0, 0",
    "0, 0, 0, y6, 0, 0, -y5, 0, 0",
    "0, 0, y2, 0, 0, -y1, 0, 0, 0",
    "0, 0, y3, 0, 0, -y2, 0, 0, 0",
    "0, 0, y4, 0, 0, 0, 0, 0, -y1",
    "0, 0, y5, 0, 0, -y4, 0, 0, 0",
    "0, 0, y5^2 - y3*y6, 0, 0, 0, 0, 0, 0",
    "0, 0, y6, 0, 0, 0, 0, 0, -y4",
    "0, y2, 0, 0, -y1, 0, 0, 0, 0",
    "0, y3, 0, 0, -y2, 0, 0, 0, 0",
    "0, y4, 0, 0, 0, 0, 0, -y1, 0",
    "0, y5, 0, 0, -y4, 0, 0, 0, 0",
    "0, y5^2 - y3*y6, 0, 0, 0, 0, 0, 0, 0",
    "0, y6, 0, 0, 0, 0, 0, -y4, 0",
    "y2, y3, y5, -y1, -y2, 0, 0, 0, -y2",
    "y3, 0, 0, -y2, 0, y5, 0, 0, -y3",
    "y4, y5, y6, 0, -y4, 0, -y1, 0, -y4",
    "y5, 0, 0, -y4, -y5, 0, 0, y3, 0",
    "y5^2 - y3*y6, 0, 0, 0, -y5^2 + y3*y6, 0, 0, 0, -y5^2 + y3*y6",
    "y6, 0, 0, 0, -y6, 0, -y4, y5, 0",
]


def test_minus_identity_syzygies_span_the_tag_encoded_rows_modulo_the_relations(
    minus_identity_r3,
):
    """The rows returned and the rows of the tag-encoded layer generate the
    same module modulo the relations, and every row returned is reduced
    modulo them and nonzero."""
    _, space = minus_identity_r3
    ideal = space.ideal.basis
    rows = space.generator_syzygies
    encoded = [
        tuple(parse_polynomial(t, space.orbit_ring) for t in row.split(","))
        for row in TAG_ENCODED_R3_SYZYGIES
    ]
    for row in rows:
        assert any(not c.is_zero() for c in row)
        assert all(groebner.normal_form(c, ideal) == c for c in row)
    returned_span = groebner.SubmoduleProblem(9, tuple(rows), ideal)
    encoded_span = groebner.SubmoduleProblem(9, tuple(encoded), ideal)
    assert all(groebner.module_solve(row, returned_span).member for row in encoded)
    assert all(groebner.module_solve(row, encoded_span).member for row in rows)
