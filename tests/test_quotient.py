"""Orbit-space calculus: pushforward/lift, intrinsic d, wedge, extension test."""

import gc
import itertools
import random
import sys
import weakref
from fractions import Fraction
from functools import partial

import pytest

from conftest import LADDER, check_lift_roundtrip, make_rotation4_group, monomials_up_to, random_poly, random_tangent_field
from orbitcalc import exterior, groebner, invariants, linalg, quotient
from orbitcalc.algebra import GREVLEX, PolyRing, Polynomial, combination, parse_polynomial
from orbitcalc.exterior import d, evaluate, wedge
from orbitcalc.group_action import (
    LieAlgebraAction,
    PolyDiffForm,
    PolyVectorField,
    closure,
    is_invariant,
    reynolds,
)
from orbitcalc.invariants import (
    EquivariantModule,
    HilbertMap,
    NotInSubalgebraError,
    equivariant_generators,
    invariant_generators,
)
from orbitcalc.quotient import (
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


def test_push_form_tests_invariance_once(golden_space, golden_forms, monkeypatch):
    golden_space.generator_syzygies  # pushes the generator fields
    calls = []
    for owner in (quotient, invariants):
        original = owner.is_invariant
        monkeypatch.setattr(
            owner, "is_invariant", lambda obj, group, original=original: calls.append(obj) or original(obj, group)
        )
    theta = push_form(golden_forms[3], golden_space)
    assert len(theta.values) > 1 and calls == [golden_forms[3]]


def test_push_form_reports_a_contraction_outside_the_subalgebra():
    # The contractions are rewritten with no invariance test of their own;
    # one the generators miss still raises.
    group = make_rotation4_group()
    truncated = OrbitSpace(invariant_generators(group, 2), module=equivariant_generators(group))
    assert len(truncated.hilbert.sigma) == 1
    theta = reynolds(PolyDiffForm(AMBIENT, 1, [((0,), X1**3), ((1,), X2**3)]), group)
    with pytest.raises(NotInSubalgebraError, match="not in subalgebra"):
        push_form(theta, truncated)


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
    # a table no syzygy check admits, so only the private constructor builds it
    one = golden_space.function(golden_space.orbit_ring.one())
    table = OrbitForm._linear(golden_space, 3, [((0, 1, 2), one)])
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


def test_linear_results_pass_the_checking_constructors(calculus_space):
    # Sums, differences, negatives and multiples of checked forms and fields
    # are built without the syzygy and tangency checks; the checking
    # constructors must admit each of them with equal values.
    space = calculus_space
    rng = random.Random(19)
    a, b, c = pushed_one_forms(space, seed=19)
    fields = space.pushed_generators
    functions = [space.function(random_poly(rng, space.orbit_ring, 2, 3)) for _ in range(3)]
    for left, right in ((a, b), (b, c), (orbit_wedge(a, b), orbit_wedge(b, c))):
        f = rng.choice(functions)
        for theta in (left + right, left - right, -left, left * f, f * left, Fraction(-2, 7) * left):
            assert OrbitForm(space, theta.degree, theta.values) == theta
    for Y, Z in zip(fields, fields[1:] + fields[:1]):
        f = rng.choice(functions)
        for field in (Y + Z, Y - Z, -Y, Y * f, f * Z, 3 * Y):
            assert OrbitVectorField(space, field.components) == field


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


def test_space_reads_one_store_of_pushed_representatives(calculus_space, monkeypatch):
    """Past the bracket coefficients, every reader of the pushed generators
    reads the representatives the space keeps, not the wrapped fields."""
    space = OrbitSpace(calculus_space.hilbert, calculus_space.ideal, calculus_space.module)
    assert space._pushed == [tuple(Y._reps()) for Y in calculus_space.pushed_generators]
    forms = pushed_one_forms(space, seed=23) + [space.parse_function("y1 + y2")]

    def outcomes(theta):
        """orbit_d's values, and extend_check's verdict on a 1-form."""
        values = orbit_d(theta).values
        if isinstance(theta, OrbitFunction):
            return [(ix, v.rep) for ix, v in values.items()]
        verdict = extend_check(theta)
        return [(ix, v.rep) for ix, v in values.items()], verdict.witness, verdict.certificate

    expected = [outcomes(push_form(pull_form(theta, space), calculus_space)) for theta in forms]

    def refused(self):
        raise AssertionError("pushed_generators read")

    with monkeypatch.context() as patch:
        patch.setattr(OrbitSpace, "pushed_generators", property(refused))
        assert space._generator_span.columns == tuple(space._pushed)
        assert space._extension_problem.columns == tuple(zip(*space._pushed))
    space.bracket_coefficients
    assert not any(key[0] == "derivative" for key in space._tables)
    monkeypatch.setattr(OrbitSpace, "pushed_generators", property(refused))
    assert [outcomes(theta) for theta in forms] == expected
    assert any(key[0] == "derivative" for key in space._tables)


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
# monomial tables: syzygy check and derivative terms
# ---------------------------------------------------------------------------

def syzygy_oracle(space, degree, items) -> bool:
    """The direct compatibility test: sum z_i * value(i, rest) is in the
    ideal for every generator syzygy z and every (degree - 1)-tuple rest."""
    theta = OrbitForm._linear(space, degree, [(ix, space.function(v)) for ix, v in items])
    for syz in space.generator_syzygies:
        for rest in itertools.combinations(range(len(space.module)), degree - 1):
            products = [(1, z, theta.value((i,) + rest).rep) for i, z in enumerate(syz) if z]
            if not space.ideal.is_member(combination(space.orbit_ring, products)):
                return False
    return True


def test_tabled_syzygy_check_agrees_with_the_direct_oracle(calculus_space):
    space = OrbitSpace(calculus_space.hilbert, calculus_space.ideal, calculus_space.module)
    ring = space.orbit_ring
    rng = random.Random(24)
    a, b, c = pushed_one_forms(space, seed=24)
    f = space.function(random_poly(rng, ring, 2, 3, nonzero=True))
    two = orbit_wedge(a, c)
    # on these two-dimensional orbit spaces every 3-form is zero; its
    # perturbations still exercise the degree-3 check
    accepted = [a, b, a * f - c, two, two - orbit_wedge(b, c) * f, orbit_d(two), orbit_wedge(two, b)]
    assert {theta.degree for theta in accepted} == {1, 2, 3}
    standard = [
        ring.monomial(e) for e in monomials_up_to(ring, 2) if space.ideal.normal(ring.monomial(e)) == ring.monomial(e)
    ]
    verdicts = []
    for theta in accepted:
        assert theta.degree == 3 or not theta.is_zero()
        items = [(ix, v.rep) for ix, v in theta.values.items()]
        tuples = list(itertools.combinations(range(len(space.module)), theta.degree))
        tables = [items] + [
            items + [(rng.choice(tuples), rng.choice(standard).scale(rng.choice([1, -2, Fraction(1, 3)])))]
            for _ in range(4)
        ]
        for table in tables:
            try:
                OrbitForm(space, theta.degree, table)
                verdict = True
            except ValueError:
                verdict = False
            assert verdict == syzygy_oracle(space, theta.degree, table)
            verdicts.append(verdict)
    assert all(verdicts[:: 5]) and verdicts.count(False) >= 10


def test_tabled_tangency_check_agrees_with_apply(calculus_space):
    """The constructor's tangency check sums table entries NF(dg/dy_j * y^e);
    the sums equal the field applied to each relation generator g, on seeded
    tangent fields and on perturbations of them, which it rejects."""
    space = OrbitSpace(calculus_space.hilbert, calculus_space.ideal, calculus_space.module)
    ring = space.orbit_ring
    rng = random.Random(26)
    generators = space.ideal.basis.generators
    assert generators
    standard = [
        ring.monomial(e) for e in monomials_up_to(ring, 2) if space.ideal.normal(ring.monomial(e)) == ring.monomial(e)
    ]
    for _ in range(6):
        Y = random_tangent_field(rng, space)
        components = list(Y.components)
        j = rng.randrange(len(components))
        components[j] = components[j] + space.function(rng.choice(standard).scale(rng.choice([1, -2, Fraction(1, 3)])))
        for field, tangent in ((Y, True), (OrbitVectorField._linear(space, components), False)):
            images = [field.apply(g).rep for g in generators]
            tabled = [
                space._tabled([(1, c.rep, ("tangent", k, i)) for i, c in enumerate(field.components)])
                for k in range(len(generators))
            ]
            assert tabled == images
            assert (not any(images)) == tangent
            if tangent:
                assert OrbitVectorField(space, field.components) == field
            else:
                with pytest.raises(ValueError, match="does not preserve the relation ideal"):
                    OrbitVectorField(space, field.components)


def test_second_orbit_d_reads_the_derivative_tables(calculus_space, monkeypatch):
    space = OrbitSpace(calculus_space.hilbert, calculus_space.ideal, calculus_space.module)
    a, b, _ = pushed_one_forms(space, seed=25)
    operands = (space.parse_function("y1^2*y3 - y2 + 1"), a, orbit_wedge(a, b))
    space.bracket_coefficients
    calls = []
    original = Polynomial.partial_derivative

    def counted(self, index):
        calls.append(index)
        return original(self, index)

    monkeypatch.setattr(Polynomial, "partial_derivative", counted)
    first = [orbit_d(theta) for theta in operands]
    assert calls  # the first pass fills the tables
    calls.clear()
    assert [orbit_d(theta) for theta in operands] == first
    assert calls == []


def failing_sums(space, degree, items) -> list[tuple]:
    """The (syzygy index, rest) pairs whose sum z_i * value(i, rest) is
    outside the ideal, computed directly."""
    theta = OrbitForm._linear(space, degree, [(ix, space.function(v)) for ix, v in items])
    failing = []
    for s, syz in enumerate(space.generator_syzygies):
        for rest in itertools.combinations(range(len(space.module)), degree - 1):
            products = [(1, z, theta.value((i,) + rest).rep) for i, z in enumerate(syz) if z]
            if not space.ideal.is_member(combination(space.orbit_ring, products)):
                failing.append((s, rest))
    return failing


def test_a_form_failing_one_syzygy_sum_is_rejected(calculus_space):
    # The generator syzygies of these spaces are linked by second
    # syzygies, so no table fails just one of their sums.  A space that
    # knows one generator syzygy z makes a table with one nonzero value
    # fail one sum: the 1-form at (i,) with z_i nonzero, and the 2-form at
    # (i, j) with exactly one of z_i, z_j nonzero.
    for syz in calculus_space.generator_syzygies:
        space = OrbitSpace(calculus_space.hilbert, calculus_space.ideal, calculus_space.module)
        space._syzygies = [syz]
        one, m = space.orbit_ring.one(), len(space.module)
        tables = [(1, [((i,), one)]) for i in range(m) if syz[i]]
        tables += [
            (2, [((i, j), one)]) for i, j in itertools.combinations(range(m), 2) if bool(syz[i]) != bool(syz[j])
        ]
        assert {degree for degree, _ in tables} == {1, 2}
        for degree, items in tables:
            assert len(failing_sums(space, degree, items)) == 1
            with pytest.raises(ValueError, match="not compatible with the generator syzygies"):
                OrbitForm(space, degree, items)


def test_push_form_and_orbit_d_values_are_normal_forms(calculus_space, golden_forms):
    space = OrbitSpace(calculus_space.hilbert, calculus_space.ideal, calculus_space.module)
    forms = pushed_one_forms(space, seed=26)
    forms += [push_form(theta, space) for theta in golden_forms if is_invariant(theta, space.hilbert.group)]
    forms.append(orbit_wedge(forms[0], forms[1]))
    functions = [space.function(random_poly(random.Random(26), space.orbit_ring, 3, 4))]
    values = [v for theta in forms for v in theta.values.values()]
    values += [v for theta in forms + functions for v in orbit_d(theta).values.values()]
    assert len(values) > 20
    for value in values:
        assert space.ideal.normal(value.rep) == value.rep


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
# tabled module solves
# ---------------------------------------------------------------------------

def kept_problems(space) -> dict:
    """The membership problems a space keeps: the generator span, the
    extension problem and the pull problems of 1- and 2-forms."""
    return {
        "span": space._generator_span,
        "extension": space._extension_problem,
        "pull1": space._pull_problem(1)[2],
        "pull2": space._pull_problem(2)[2],
    }


def one_division(target, problem):
    """The module normal form of ``target`` and the coefficients its
    quotients put on the columns, from one division by the module basis."""
    _, tracked, _ = groebner._module_basis(problem, None)
    remainder, quotients = groebner._divide_vector(
        tuple(target), tracked, groebner._Divisors(tracked), problem.ideal.order
    )
    return remainder, groebner._over_columns(quotients, problem)


def seeded_targets(problem, rng) -> list[list[Polynomial]]:
    """Members (random combinations of the columns), random vectors, and
    sums of both, so supports overlap across targets; one target holds one
    monomial at every position."""
    ring, rank = problem.columns[0][0].ring, problem.ambient_rank

    def member():
        coefficients = [random_poly(rng, ring, 2, 2) for _ in problem.columns]
        return [
            combination(ring, [(1, c, col[r]) for c, col in zip(coefficients, problem.columns)])
            for r in range(rank)
        ]

    members = [member() for _ in range(3)]
    others = [[random_poly(rng, ring, 3, 3) for _ in range(rank)] for _ in range(3)]
    mixed = [[a + b for a, b in zip(x, y)] for x, y in zip(members, members[1:] + others[:1])]
    mixed.append([a - b for a, b in zip(members[2], others[1])])
    same = [ring.variables()[0] * ring.variables()[-1] * (r + 1) for r in range(rank)]
    return members + others + mixed + [same]


def table_entries(problem) -> list:
    return [entry for table in problem._tables for entry in table.values()]


def test_tabled_module_solves_equal_one_division(calculus_space):
    space = OrbitSpace(calculus_space.hilbert, calculus_space.ideal, calculus_space.module)
    rng = random.Random(31)
    for name, problem in kept_problems(space).items():
        targets = seeded_targets(problem, rng)
        expected = [one_division(target, problem) for target in targets]
        assert table_entries(problem) == []
        verdicts = []
        for _ in range(3):
            for target, (remainder, witness) in zip(targets, expected):
                outcome = groebner.module_solve(target, problem)
                verdicts.append(outcome.member)
                if outcome.member:
                    assert all(c.is_zero() for c in remainder)
                    assert outcome.witness == tuple(witness)
                else:
                    assert outcome.certificate == remainder
        assert True in verdicts and False in verdicts, name
        assert any(entry is not groebner._MET for entry in table_entries(problem)), name


def test_a_problem_solved_once_fills_no_entry(golden_space, monkeypatch):
    space = OrbitSpace(golden_space.hilbert, golden_space.ideal, golden_space.module)
    problem = space._generator_span
    field = space.pushed_generators[0] * space.parse_function("y1 + 2*y3") + space.pushed_generators[3]
    target = [c.rep for c in field.components]
    first = groebner.module_solve(target, problem)
    assert first.member
    entries = table_entries(problem)
    assert len(entries) == sum(len(c.terms) for c in target)
    assert all(entry is groebner._MET for entry in entries)
    assert groebner.module_solve(target, problem) == first
    assert all(entry is not groebner._MET for entry in table_entries(problem))
    divisions = []
    divide_vector = groebner._divide_vector
    monkeypatch.setattr(groebner, "_divide_vector", lambda *a, **k: divisions.append(a) or divide_vector(*a, **k))
    assert groebner.module_solve(target, problem) == first
    assert divisions == []


def test_a_fresh_invariant_combination_fills_no_entry(rotation4, monkeypatch):
    problems = []
    solve = invariants.module_solve

    def recording(target, problem, cancel=None):
        problems.append(problem)
        return solve(target, problem, cancel)

    monkeypatch.setattr(invariants, "module_solve", recording)
    hmap = invariant_generators(rotation4)
    fields = equivariant_generators(rotation4).generators
    target = hmap.sigma[0] * fields[0] + fields[1]
    assert invariants.invariant_combination(target, fields, rotation4) is not None
    assert len(problems) == 1
    assert table_entries(problems[0])
    assert all(entry is groebner._MET for entry in table_entries(problems[0]))


@pytest.mark.parametrize("operation", ["lift_vf", "extend_check"])
def test_a_third_identical_solve_divides_only_to_verify(calculus_space, monkeypatch, operation):
    space = OrbitSpace(calculus_space.hilbert, calculus_space.ideal, calculus_space.module)
    if operation == "lift_vf":
        Y = space.pushed_generators
        field = Y[0] * space.parse_function("y1*y2 - 2*y3 + 1") + Y[1] * space.parse_function("y2")
        call = partial(lift_vf, field, space)
    else:
        theta = orbit_d(space.parse_function("y1*y2 + y3^2")) * space.parse_function("y1 - 1")
        call = partial(extend_check, theta)
    first = call()
    assert call() == first
    if operation == "extend_check":
        assert first.extendable
    divisions, verifying = [], []
    divide_vector, divide = groebner._divide_vector, groebner.divide

    def recording_divide(*args, **kwargs):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        verifying.append("_verify_combination" in names)
        return divide(*args, **kwargs)

    monkeypatch.setattr(groebner, "_divide_vector", lambda *a, **k: divisions.append(a) or divide_vector(*a, **k))
    monkeypatch.setattr(groebner, "divide", recording_divide)
    assert call() == first
    assert divisions == []
    assert verifying and all(verifying)


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
        OrbitForm(golden_space, 1, [((7,), ring.one())])
    with pytest.raises(ValueError, match="tuple length"):
        OrbitForm(golden_space, 2, [((0,), ring.one())])


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


@pytest.fixture(scope="module")
def two_spaces(golden_space):
    """The two calculus spaces, which share the orbit alphabet y1..y3, with
    a function, a pushed generator and a pushed 1-form on each."""
    z4 = OrbitSpace(invariant_generators(make_rotation4_group()))
    assert z4.orbit_ring == golden_space.orbit_ring
    return [
        {
            "f": space.parse_function("y1"),
            "g": space.parse_function("y2"),
            "Y": space.pushed_generators[0],
            "theta": pushed_one_forms(space, seed=23, count=1)[0],
        }
        for space in (golden_space, z4)
    ]


@pytest.mark.parametrize(
    "operation",
    [
        lambda a, b: a["f"] + b["g"],
        lambda a, b: a["f"] - b["g"],
        lambda a, b: a["f"] * b["g"],
        lambda a, b: a["Y"] + b["Y"],
        lambda a, b: a["Y"] - b["Y"],
        lambda a, b: a["Y"] * b["f"],
        lambda a, b: b["f"] * a["Y"],
        lambda a, b: a["Y"].apply(b["f"]),
        lambda a, b: a["theta"] * b["f"],
        lambda a, b: b["f"] * a["theta"],
        lambda a, b: a["theta"] + b["theta"],
        lambda a, b: orbit_wedge(a["theta"], b["theta"]),
        lambda a, b: orbit_wedge(b["f"], a["theta"]),
        lambda a, b: orbit_bracket(a["Y"], b["Y"]),
    ],
    ids=[
        "function+", "function-", "function*", "field+", "field-", "field*function",
        "function*field", "field.apply", "form*function", "function*form", "form+",
        "wedge", "wedge-function", "bracket",
    ],
)
def test_arithmetic_across_orbit_spaces_is_rejected(two_spaces, operation):
    z2, z4 = two_spaces
    for a, b in ((z2, z4), (z4, z2)):
        with pytest.raises(ValueError, match="different orbit spaces|one degree and space"):
            operation(a, b)


@pytest.mark.parametrize(
    "operation",
    [
        lambda a: a["Y"] * a["Y"],
        lambda a: a["theta"] * a["theta"],
        lambda a: a["theta"] + 1,
        lambda a: a["theta"] - a["f"],
        lambda a: a["Y"] - a["theta"],
        lambda a: a["Y"] + a["f"],
        lambda a: 1 + a["Y"],
        lambda a: a["theta"] * a["Y"],
        lambda a: a["Y"] * 0.5,
    ],
    ids=[
        "field*field", "form*form", "form+int", "form-function", "field-form", "field+function",
        "int+field", "form*field", "field*float",
    ],
)
def test_orbit_arithmetic_rejects_other_operand_kinds(two_spaces, operation):
    for a in two_spaces:
        with pytest.raises(TypeError):
            operation(a)


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


# ---------------------------------------------------------------------------
# the zero-syzygy shortcut
# ---------------------------------------------------------------------------

def ladder_space(rung):
    return OrbitSpace(invariant_generators(closure(LADDER[rung])))


@pytest.mark.parametrize("rung", ["b2_r2", "d3_r2"])
def test_free_rungs_have_no_syzygies_without_the_computation(rung, monkeypatch):
    def fail(*args):
        raise AssertionError("the syzygy computation ran")

    space = ladder_space(rung)
    monkeypatch.setattr(quotient, "_span_syzygies", fail)
    assert space.ideal.is_zero_ideal()
    assert space.generator_syzygies == []


@pytest.mark.parametrize("rung", ["z2_r2", "z4_r2", "z2z2_r3"])
def test_rungs_with_relations_compute_their_syzygies(rung):
    space = ladder_space(rung)
    assert not space.ideal.is_zero_ideal()
    assert not quotient._free_columns(space._generator_span, space.orbit_ring)
    rows = space.generator_syzygies
    assert rows
    assert rows == groebner.syzygies(space._pushed, space.ideal.basis)


def test_minors_vanishing_at_the_point_fall_through(monkeypatch):
    calls = []
    full = quotient._span_syzygies

    def counted(problem):
        calls.append(problem)
        return full(problem)

    space = ladder_space("b2_r2")
    # every pushed component is homogeneous of positive degree, so every
    # minor vanishes at the origin
    monkeypatch.setattr(quotient, "_sample_point", lambda nvars: (0,) * nvars)
    monkeypatch.setattr(quotient, "_span_syzygies", counted)
    assert space.generator_syzygies == [] == groebner.syzygies(space._pushed, space.ideal.basis)
    assert len(calls) == 1


def test_free_columns_is_false_where_it_cannot_tell():
    ring = PolyRing(("y1", "y2"))
    y1, y2 = ring.variables()
    point = quotient._sample_point(2)
    # the minor point[1] * y1 - point[0] * y2 is not zero, but vanishes at the point
    columns = ((y1, y2), (ring.one().scale(point[0]), ring.one().scale(point[1])))
    empty = groebner.GroebnerBasis((), GREVLEX)
    problem = groebner.SubmoduleProblem(2, columns, empty)
    assert not quotient._free_columns(problem, ring)
    assert groebner.syzygies(columns, empty) == []
    # modulo a nonzero ideal a column can vanish although its values at the
    # point do not: (y1, y1) is zero modulo <y1>
    ideal = groebner.buchberger([y1])
    vanishing = groebner.SubmoduleProblem(2, ((y1, y1),), ideal)
    assert not quotient._free_columns(vanishing, ring)
    assert groebner.syzygies(vanishing.columns, ideal)
    # more columns than positions always have a syzygy
    crowded = groebner.SubmoduleProblem(1, ((y1,), (y2,)), empty)
    assert not quotient._free_columns(crowded, ring)
    assert groebner.syzygies(crowded.columns, empty)
