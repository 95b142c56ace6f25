"""Matrix groups, their actions on polynomials/fields/forms, averaging."""

import random
from fractions import Fraction

import pytest

from conftest import (
    LADDER,
    field_degree,
    make_reflection_group,
    make_rotation4_group,
    make_swap_group,
    random_form,
    random_poly,
    random_vf,
    reference_substitute,
    suite_action_laws,
)
from orbitcalc import group_action, linalg
from orbitcalc.algebra import PolyRing, Polynomial, parse_polynomial
from orbitcalc.exterior import d, wedge
from orbitcalc.group_action import (
    LieAlgebraAction,
    PolyDiffForm,
    PolyVectorField,
    act_form,
    act_poly,
    act_vf,
    closure,
    identity_matrix,
    infinitesimal_fields,
    is_invariant,
    mat_inverse,
    mat_mul,
    matrix_from_rows,
    parse_rational,
    reynolds,
)
from orbitcalc.invariants import equivariant_generators, invariant_generators
from orbitcalc.series import field_series, molien_series, same_series

RING = PolyRing.ambient(2)
X1, X2 = RING.variables()

NEG_IDENTITY = matrix_from_rows([["-1", "0"], ["0", "-1"]])
SWAP = matrix_from_rows([["0", "1"], ["1", "0"]])


def x(text):
    return parse_polynomial(text, RING)


def field(*components):
    return PolyVectorField(RING, [x(c) for c in components])


def one_form(coeff1, coeff2):
    return PolyDiffForm(RING, 1, [((0,), x(coeff1)), ((1,), x(coeff2))])


ROTATIONAL = one_form("-x2", "x1")


def test_parse_rational_accepts_unicode_minus():
    assert parse_rational("−1") == Fraction(-1)
    assert parse_rational("1/2") == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_rational("one")


def test_closure_orders():
    assert make_reflection_group().order == 2
    assert make_swap_group().order == 2
    assert make_rotation4_group().order == 4
    assert closure([[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]]).order == 1


def test_closure_starts_at_identity_deterministically():
    group = make_rotation4_group()
    identity = matrix_from_rows([["1", "0"], ["0", "1"]])
    assert group.elements[0] == identity
    again = make_rotation4_group()
    assert group.elements == again.elements


def test_closure_rejects_infinite_group():
    with pytest.raises(ValueError, match="not finite within cap"):
        closure([[["1", "1"], ["0", "1"]]], cap=50)


def test_closure_rejects_singular_generator():
    with pytest.raises(ValueError, match="singular"):
        closure([[["1", "0"], ["0", "0"]]])


def test_mat_inverse_errors_on_singular():
    with pytest.raises(ValueError, match="singular"):
        mat_inverse(matrix_from_rows([["1", "1"], ["1", "1"]]))


def test_act_poly_examples():
    assert act_poly(NEG_IDENTITY, x("x1^2")) == x("x1^2")
    assert act_poly(NEG_IDENTITY, x("x1")) == x("-x1")
    assert act_poly(SWAP, x("x1^2*x2")) == x("x2^2*x1")


def test_act_vf_examples():
    assert act_vf(NEG_IDENTITY, field("x1", "0")) == field("x1", "0")
    assert act_vf(NEG_IDENTITY, field("1", "0")) == field("-1", "0")
    assert act_vf(SWAP, field("0", "x1")) == field("x2", "0")


def test_act_form_examples():
    assert act_form(NEG_IDENTITY, ROTATIONAL) == ROTATIONAL
    dx1 = PolyDiffForm.basis(RING, (0,))
    assert act_form(NEG_IDENTITY, dx1) == -dx1
    x1dx1 = PolyDiffForm(RING, 1, [((0,), X1)])
    x2dx2 = PolyDiffForm(RING, 1, [((1,), X2)])
    assert act_form(SWAP, x1dx1) == x2dx2


def test_is_invariant_examples():
    group = make_reflection_group()
    assert is_invariant(x("x1*x2"), group)
    assert not is_invariant(x("x1"), group)
    assert is_invariant(field("x2", "0"), group)
    assert is_invariant(ROTATIONAL, group)
    assert not is_invariant(PolyDiffForm.basis(RING, (0,)), group)


def test_reynolds_examples():
    z2 = make_reflection_group()
    s2 = make_swap_group()
    assert reynolds(x("x1^2"), z2) == x("x1^2")
    assert reynolds(x("x1"), z2).is_zero()
    averaged = reynolds(field("x1", "0"), s2)
    assert averaged == field("1/2*x1", "1/2*x2")


def test_reynolds_is_linear():
    z2 = make_reflection_group()
    rng = random.Random(31)
    for _ in range(100):
        p = random_poly(rng, RING)
        q = random_poly(rng, RING)
        assert reynolds(p + q, z2) == reynolds(p, z2) + reynolds(q, z2)


def test_action_laws_randomized():
    rng = random.Random(32)
    groups = [make_reflection_group(), make_swap_group(), make_rotation4_group()]
    suite_action_laws(rng, 200, groups)


def test_act_form_commutes_with_d():
    rng = random.Random(33)
    groups = [make_reflection_group(), make_swap_group(), make_rotation4_group()]
    for _ in range(150):
        group = rng.choice(groups)
        ring = PolyRing.ambient(group.n)
        g = rng.choice(group.elements)
        omega = random_form(rng, ring, rng.randint(0, ring.nvars - 1))
        assert (act_form(g, d(omega)) - d(act_form(g, omega))).is_zero()


def test_act_form_degree_zero_matches_act_poly():
    rng = random.Random(34)
    group = make_rotation4_group()
    for _ in range(50):
        p = random_poly(rng, RING)
        g = rng.choice(group.elements)
        assert act_form(g, p) == act_poly(g, p)


def test_infinitesimal_fields():
    rotation = LieAlgebraAction.from_rows(2, [[["0", "-1"], ["1", "0"]]])
    fields = infinitesimal_fields(rotation, RING)
    assert fields == [field("-x2", "x1")]

    zero = LieAlgebraAction.from_rows(2, [[["0", "0"], ["0", "0"]]])
    assert infinitesimal_fields(zero, RING)[0].is_zero()

    scaling = LieAlgebraAction.from_rows(2, [[["1", "0"], ["0", "1"]]])
    assert infinitesimal_fields(scaling, RING) == [PolyVectorField.euler(RING)]


def test_vector_field_apply_is_directional_derivative():
    X = field("x2", "x1")
    assert X.apply(x("x1^2")) == x("2*x1*x2")
    assert X.apply(RING.constant(3)).is_zero()


def test_form_normalization():
    # repeated indices vanish, order swaps absorb a sign into the coefficient
    zero = PolyDiffForm(RING, 2, [((0, 0), X1)])
    assert zero.is_zero()
    swapped = PolyDiffForm(RING, 2, [((1, 0), X1)])
    standard = PolyDiffForm(RING, 2, [((0, 1), -X1)])
    assert swapped == standard
    # degrees above the dimension exist but are identically zero
    top = PolyDiffForm(RING, 2, [((0, 1), X1)])
    assert d(top).degree == 3
    assert d(top).is_zero()
    assert PolyDiffForm.zero(RING, 3).is_zero()


def test_dimension_mismatch_errors():
    three = PolyRing.ambient(3)
    p3 = parse_polynomial("x3", three)
    with pytest.raises(ValueError):
        act_poly(NEG_IDENTITY, p3)
    with pytest.raises(ValueError):
        act_vf(NEG_IDENTITY, random_vf(random.Random(0), three))


# ---------------------------------------------------------------------------
# the tabled action against direct substitution
# ---------------------------------------------------------------------------

# D3 on R^2 with its non-monomial rotation, and Z2 x Z2 on R^3.
TABLED_GROUPS = {
    "d3_r2": [[["0", "-1"], ["1", "-1"]], [["0", "1"], ["1", "0"]]],
    "z2z2_r3": [
        [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]],
        [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]],
    ],
}


def direct_act(g, obj):
    """g . obj through the Fraction-dict substitution oracle and, for a
    form, the wedge of the differentials d(g^-1 x)_i: no power table."""
    inv = mat_inverse(g)
    ring = obj.ring
    n = ring.nvars
    subs = [
        sum((ring.variable(j).scale(inv[i][j]) for j in range(n)), ring.zero())
        for i in range(n)
    ]
    if isinstance(obj, Polynomial):
        return reference_substitute(obj, subs)
    if isinstance(obj, PolyVectorField):
        moved = [reference_substitute(c, subs) for c in obj.components]
        return PolyVectorField(
            ring,
            [sum((moved[j].scale(g[i][j]) for j in range(n)), ring.zero()) for i in range(n)],
        )
    total = PolyDiffForm.zero(ring, obj.degree)
    for indices, coeff in obj.terms.items():
        piece = reference_substitute(coeff, subs)
        for i in indices:
            piece = wedge(piece, d(subs[i]))
        total = total + piece
    return total


def public_act(g, obj):
    if isinstance(obj, Polynomial):
        return act_poly(g, obj)
    if isinstance(obj, PolyVectorField):
        return act_vf(g, obj)
    return act_form(g, obj)


def seeded_objects(rng, ring):
    """Polynomials, fields and 1- and 2-forms with up to quartic terms."""
    objects = [random_poly(rng, ring, 4, 5) for _ in range(4)]
    objects += [random_vf(rng, ring, 3, 3) for _ in range(3)]
    objects += [random_form(rng, ring, k, 3, 3) for k in (1, 1, 2, 2)]
    return objects


@pytest.mark.parametrize("name", sorted(TABLED_GROUPS))
def test_tabled_action_matches_direct_substitution(name):
    group = closure(TABLED_GROUPS[name])
    ring = PolyRing.ambient(group.n)
    rng = random.Random(f"tabled-{name}")
    for obj in seeded_objects(rng, ring):
        moved = [direct_act(g, obj) for g in group.elements]
        assert [public_act(g, obj) for g in group.elements] == moved
        total = moved[0]
        for image in moved[1:]:
            total = total + image
        average = total * Fraction(1, group.order)
        assert reynolds(obj, group) == average
        expected = all(direct_act(g, obj) == obj for g in group.generators)
        assert is_invariant(obj, group) == expected
        assert is_invariant(average, group)
        assert all(direct_act(g, average) == average for g in group.elements)
        # a second pass reads the filled tables and gives the same answers
        assert reynolds(obj, group) == average
        assert is_invariant(obj, group) == expected


def test_monomial_tables_belong_to_their_group():
    first = closure(TABLED_GROUPS["d3_r2"])
    second = closure(TABLED_GROUPS["d3_r2"])
    assert first == second
    reynolds(x("x1^3*x2 - 2*x2^2"), first)
    assert not second._moves_by_ring
    filled = {g: dict(table) for g, (_, table) in first._moves(RING).items()}
    reynolds(x("x1^5 + x1*x2^4"), second)
    reynolds(field("x1^2*x2", "x2^3"), second)
    assert {g: dict(table) for g, (_, table) in first._moves(RING).items()} == filled
    tables = {id(table) for _, table in first._moves(RING).values()}
    assert tables.isdisjoint(id(table) for _, table in second._moves(RING).values())


# ---------------------------------------------------------------------------
# the integer group layer: int entries, inverses recorded by the closure
# ---------------------------------------------------------------------------

# D3 conjugated by diag(1, 2): P g P^-1 has entries g[i][j] p_i / p_j, so
# the rotation becomes [[0, -1/2], [2, -1]] and the swap [[0, 1/2], [2, 0]].
D3_CONJUGATED = [[["0", "-1/2"], ["2", "-1"]], [["0", "1/2"], ["2", "0"]]]
INVERSE_GROUPS = {**LADDER, "d3_conjugated": D3_CONJUGATED}


def entries(matrices):
    return [e for m in matrices for row in m for e in row]


def reference_elements(generators):
    """The breadth-first closure from the identity over Fraction entries,
    generators applied in input order: the element order to keep."""
    gens = [[[Fraction(e) for e in row] for row in g] for g in generators]
    n = len(gens[0])

    def product(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))

    identity = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    elements, queue = [identity], [identity]
    while queue:
        current = queue.pop(0)
        for g in gens:
            nxt = product(current, g)
            if nxt not in elements:
                elements.append(nxt)
                queue.append(nxt)
    return elements


@pytest.mark.parametrize("name", sorted(INVERSE_GROUPS))
def test_closure_records_each_inverse(name):
    group = closure(INVERSE_GROUPS[name])
    identity = identity_matrix(group.n)
    assert list(group.elements) == reference_elements(INVERSE_GROUPS[name])
    assert len(group.inverses) == group.order
    stored = {id(g) for g in group.elements}
    for g, inv in zip(group.elements, group.inverses):
        assert inv == mat_inverse(g)
        assert mat_mul(g, inv) == identity
        assert mat_mul(inv, g) == identity
        # the element's own tuple, not a copy
        assert id(inv) in stored


@pytest.mark.parametrize("name", sorted(LADDER))
def test_integral_generators_give_int_elements(name):
    group = closure(LADDER[name])
    assert all(type(e) is int for e in entries(group.generators + group.elements + group.inverses))


def test_rational_elements_keep_only_integral_entries_as_int():
    group = closure(D3_CONJUGATED)
    values = entries(group.elements + group.inverses)
    assert Fraction(-1, 2) in values
    assert all(type(e) is int or e.denominator != 1 for e in values)
    assert group.elements[0] == identity_matrix(2)


def test_conjugated_d3_has_the_series_and_degrees_of_d3():
    plain, conjugated = closure(LADDER["d3_r2"]), closure(D3_CONJUGATED)
    assert conjugated.order == plain.order == 6
    assert same_series(molien_series(conjugated), molien_series(plain))
    assert same_series(field_series(conjugated), field_series(plain))

    def degrees(group):
        sigma = invariant_generators(group).sigma
        fields = equivariant_generators(group).generators
        return [s.degree() for s in sigma], [field_degree(X) for X in fields]

    assert degrees(conjugated) == degrees(plain)


def test_mat_inverse_of_random_rational_matrices():
    rng = random.Random("mat-inverse")
    for _ in range(300):
        n = rng.randint(1, 5)
        m = matrix_from_rows(
            [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n)] for _ in range(n)]
        )
        if n > 1 and rng.random() < 0.2:
            m = m[:-1] + (m[0],)  # a repeated row
        try:
            inv = mat_inverse(m)
        except ValueError:
            # singular: some column of the echelon form has no pivot
            assert linalg.rank([list(row) for row in m], n) < n
            continue
        assert mat_mul(m, inv) == identity_matrix(n) == mat_mul(inv, m)
        assert all(type(e) is int or e.denominator != 1 for e in entries([inv]))


def test_closure_still_rejects_singular_rational_generator_and_caps():
    with pytest.raises(ValueError, match="singular"):
        closure([[["1/2", "1"], ["1", "2"]]])
    with pytest.raises(ValueError, match="not finite within cap 5"):
        closure(D3_CONJUGATED, cap=5)
    assert closure(D3_CONJUGATED, cap=6).order == 6


def test_moves_invert_no_element(monkeypatch):
    calls = []
    original = group_action.mat_inverse

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(group_action, "mat_inverse", counted)
    group = closure(D3_CONJUGATED)
    assert calls == list(group.generators)  # once per generator, in the closure
    moves = group._moves(RING)
    assert all(inv is recorded for (inv, _), recorded in zip(moves.values(), group.inverses))
    average = reynolds(x("x1^3 + x1*x2"), group)
    assert is_invariant(average, group)
    assert len(calls) == 2
