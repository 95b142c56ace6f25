"""Invariant ring generation, relations, subduction, equivariant module."""

import gc
import json
import random
import weakref
from pathlib import Path

import pytest

from conftest import (
    coefficient_vector,
    make_reflection_group,
    make_rotation4_group,
    make_swap_group,
    monomials_up_to,
    random_homogeneous,
    random_poly,
    reference_substitute,
)
from orbitcalc import groebner, invariants, linalg
from orbitcalc.algebra import (
    GREVLEX,
    BlockOrder,
    PolyRing,
    Polynomial,
    embed,
    make_primitive,
    parse_polynomial,
    restrict,
)
from orbitcalc.groebner import buchberger, eliminate, normal_form
from orbitcalc.group_action import PolyVectorField, closure, reynolds
from orbitcalc.invariants import (
    EquivariantModule,
    HilbertMap,
    _subalgebra_rewrite,
    equivariant_generators,
    invariant_basis,
    invariant_combination,
    invariant_generators,
    relations,
    subduct,
)

RING = PolyRing.ambient(2)


def x(text):
    return parse_polynomial(text, RING)


def make_trivial_group():
    return closure([[["1", "0"], ["0", "1"]]])


def field(*components):
    return PolyVectorField(RING, [x(c) for c in components])


# ---------------------------------------------------------------------------
# brute-force graded oracles
# ---------------------------------------------------------------------------

def power(p, k):
    out = p.ring.one()
    for _ in range(k):
        out = out * p
    return out


def subalgebra_products_of_degree(sigma, degree):
    """All products of generator powers with total degree exactly ``degree``."""
    out = []

    def rec(j, remaining, acc):
        if j == len(sigma):
            if remaining == 0:
                prod = sigma[0].ring.one()
                for e, s in zip(acc, sigma):
                    prod = prod * power(s, e)
                out.append(prod)
            return
        step = sigma[j].degree()
        k = 0
        while k * step <= remaining:
            acc.append(k)
            rec(j + 1, remaining - k * step, acc)
            acc.pop()
            k += 1

    rec(0, degree, [])
    return out


def span_dimension(polys):
    nonzero = [p for p in polys if not p.is_zero()]
    if not nonzero:
        return 0
    columns = monomials_up_to(nonzero[0].ring, max(p.degree() for p in nonzero))
    rows = [coefficient_vector(p, columns) for p in nonzero]
    return linalg.rank(rows, len(columns))


# ---------------------------------------------------------------------------
# invariant ring generation
# ---------------------------------------------------------------------------

def test_reflection_generators_canonical():
    hmap = invariant_generators(make_reflection_group())
    assert [str(s) for s in hmap.sigma] == ["x1^2", "x1*x2", "x2^2"]


def test_reflection_generates_classical_presentation():
    auto = invariant_generators(make_reflection_group())
    classical = HilbertMap.from_polynomials(
        make_reflection_group(), [x("x1^2"), x("x2^2"), x("x1*x2")]
    )
    for s in classical.sigma:
        assert auto.substitute_into(subduct(s, auto)) == s
    for s in auto.sigma:
        assert classical.substitute_into(subduct(s, classical)) == s


def test_trivial_group_generators():
    hmap = invariant_generators(make_trivial_group())
    assert [str(s) for s in hmap.sigma] == ["x1", "x2"]
    assert relations(hmap).is_zero_ideal()


def test_swap_group_generators():
    hmap = invariant_generators(make_swap_group())
    assert [str(s) for s in hmap.sigma] == ["x1 + x2", "x1^2 + x2^2"]
    assert relations(hmap).is_zero_ideal()
    elementary = HilbertMap.from_polynomials(
        make_swap_group(), [x("x1 + x2"), x("x1*x2")]
    )
    for s in elementary.sigma:
        assert hmap.substitute_into(subduct(s, hmap)) == s
    for s in hmap.sigma:
        assert elementary.substitute_into(subduct(s, elementary)) == s


@pytest.mark.parametrize(
    "make_group", [make_reflection_group, make_swap_group, make_trivial_group]
)
def test_generator_minimality(make_group):
    group = make_group()
    hmap = invariant_generators(group)
    for drop in range(len(hmap.sigma)):
        rest = [s for j, s in enumerate(hmap.sigma) if j != drop]
        if not rest:
            continue
        partial = HilbertMap.from_polynomials(group, rest)
        with pytest.raises(ValueError, match="not in subalgebra"):
            subduct(hmap.sigma[drop], partial)


@pytest.mark.parametrize(
    "make_group", [make_reflection_group, make_swap_group, make_trivial_group]
)
def test_graded_dimensions_match_brute_force(make_group):
    group = make_group()
    hmap = invariant_generators(group)
    for degree in range(1, 5):
        invariant_dim = len(invariant_basis(group, RING, degree))
        generated_dim = span_dimension(
            subalgebra_products_of_degree(hmap.sigma, degree)
        )
        assert invariant_dim == generated_dim


def test_hilbert_map_validation():
    group = make_reflection_group()
    with pytest.raises(ValueError, match="invariant"):
        HilbertMap.from_polynomials(group, [x("x1")])
    with pytest.raises(ValueError):
        HilbertMap.from_polynomials(
            make_trivial_group(), [x("x1"), x("x2"), x("x1^2")]
        )


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

def test_reflection_relation_ideal():
    hmap = invariant_generators(make_reflection_group())
    ideal = relations(hmap)
    # canonical generators (x1^2, x1*x2, x2^2) satisfy y2^2 = y1*y3
    orbit = hmap.orbit_ring
    expected = parse_polynomial("y2^2 - y1*y3", orbit)
    assert ideal.is_member(expected)
    assert len(ideal.basis.generators) == 1
    for g in ideal.basis.generators:
        assert g.substitute(list(hmap.sigma)).is_zero()


@pytest.mark.parametrize(
    "make_group", [make_reflection_group, make_swap_group, make_trivial_group]
)
def test_relations_complete_to_degree_four(make_group):
    group = make_group()
    hmap = invariant_generators(group)
    ideal = relations(hmap)
    orbit = hmap.orbit_ring
    monos = monomials_up_to(orbit, 4)
    images = [orbit.monomial(m).substitute(list(hmap.sigma)) for m in monos]
    columns = monomials_up_to(RING, max(1, max(p.degree() for p in images)))
    matrix = []
    for col in columns:
        matrix.append([img.coefficient(col) for img in images])
    kernel = linalg.nullspace(matrix, len(monos))
    for vector in kernel:
        candidate = orbit.zero()
        for coeff, m in zip(vector, monos):
            candidate = candidate + orbit.monomial(m, coeff)
        assert ideal.is_member(candidate)
    # the reflection case must actually see its relation at degree two
    if make_group is make_reflection_group:
        assert kernel


# ---------------------------------------------------------------------------
# subduction
# ---------------------------------------------------------------------------

def test_subduct_examples():
    hmap = HilbertMap.from_polynomials(
        make_reflection_group(), [x("x1^2"), x("x2^2"), x("x1*x2")]
    )
    result = subduct(x("x1^2*x2^2"), hmap)
    assert hmap.substitute_into(result) == x("x1^2*x2^2")
    assert str(subduct(x("x1^2"), hmap)) == "y1"
    assert str(subduct(RING.constant(7), hmap)) == "7"


def test_subduct_random_invariants_round_trip():
    group = make_reflection_group()
    hmap = invariant_generators(group)
    rng = random.Random(41)
    for _ in range(100):
        style = rng.randrange(2)
        if style == 0:
            p = hmap.substitute_into(random_poly(rng, hmap.orbit_ring, 4))
        else:
            p = reynolds(random_poly(rng, RING, 8), group)
        assert hmap.substitute_into(subduct(p, hmap)) == p


def test_subduct_rejects_non_invariant():
    hmap = invariant_generators(make_reflection_group())
    with pytest.raises(ValueError, match="not invariant"):
        subduct(x("x1"), hmap)


def test_subduct_reports_truncated_subalgebra():
    partial = HilbertMap.from_polynomials(make_trivial_group(), [x("x1")])
    with pytest.raises(ValueError, match="not in subalgebra"):
        subduct(x("x2"), partial)


def make_d3_group():
    return closure([[["0", "-1"], ["1", "-1"]], [["0", "1"], ["1", "0"]]])


def direct_rewrite(p, hmap):
    """The rewrite by one normal form of the whole polynomial against the
    tagged basis, with no per-monomial memo."""
    n = hmap.ring.nvars
    nf = normal_form(embed(p, hmap.combined_ring, 0), hmap.tag_basis)
    if any(any(e[:n]) for e in nf.terms):
        return None
    return restrict(nf, hmap.orbit_ring, n)


SUBDUCTION_GROUPS = [make_reflection_group, make_swap_group, make_rotation4_group, make_d3_group]


@pytest.mark.parametrize("make_group", SUBDUCTION_GROUPS)
def test_tabled_rewrite_matches_one_normal_form(make_group):
    group = make_group()
    hmap = invariant_generators(group)
    rng = random.Random(f"rewrite-{make_group.__name__}")
    for _ in range(25):
        p = reynolds(random_poly(rng, RING, 7, 4), group)
        expected = direct_rewrite(p, hmap)
        assert expected is not None
        assert _subalgebra_rewrite(p, hmap) == expected
        assert str(subduct(p, hmap)) == str(expected)


@pytest.mark.parametrize("make_group", SUBDUCTION_GROUPS)
def test_tabled_rewrite_rejects_the_same_non_members(make_group):
    group = make_group()
    truncated = invariant_generators(group, 2)
    rng = random.Random(f"non-members-{make_group.__name__}")
    outside = {"raw": 0, "averaged": 0}
    for _ in range(25):
        for kind, p in (
            ("raw", random_poly(rng, RING, 6, 4)),
            ("averaged", reynolds(random_poly(rng, RING, 6, 4), group)),
        ):
            expected = direct_rewrite(p, truncated)
            assert _subalgebra_rewrite(p, truncated) == expected
            outside[kind] += expected is None
    assert outside["raw"] > 0
    # where the bound cuts generators off, some invariants fall outside too
    if len(invariant_generators(group).sigma) > len(truncated.sigma):
        assert outside["averaged"] > 0


# ---------------------------------------------------------------------------
# graded generator search and relations read off the tagged basis
# ---------------------------------------------------------------------------

# The benchmark's presentation and elimination ladders (unconjugated), the
# swap group and one more; the rotation and D3 groups are the z4_r2 and d3_r2
# rungs.
SEARCH_GROUPS = {
    "z2_r2": [[["-1", "0"], ["0", "-1"]]],
    "z4_r2": [[["0", "-1"], ["1", "0"]]],
    "b2_r2": [[["0", "1"], ["1", "0"]], [["-1", "0"], ["0", "1"]]],
    "d3_r2": [[["0", "-1"], ["1", "-1"]], [["0", "1"], ["1", "0"]]],
    "z2z2_r3": [
        [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]],
        [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]],
    ],
    "z2_r3": [[["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]]],
    "z3_r3": [[["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]]],
    "z6_r2": [[["1", "-1"], ["1", "0"]]],
    "swap_r2": [[["0", "1"], ["1", "0"]]],
    # Z3 in a basis where a later degree-3 average has the larger leading
    # monomial, so the canonical sort reorders the generators found
    "z3_r2": [[["-1", "-1"], ["1", "0"]]],
}


def sequential_generators(group):
    """The generator search one candidate at a time: a Reynolds average is
    kept when the map of every generator kept so far cannot rewrite it, and
    the map is assembled again after each kept candidate.  The result is
    sorted by degree, then by descending grevlex leading monomial."""
    ring = PolyRing.ambient(group.n)
    sigma = []
    hmap = None
    for degree in range(1, group.order + 1):
        for mono in invariants._monomials_of_degree(ring, degree):
            candidate = reynolds(mono, group)
            if candidate.is_zero():
                continue
            if hmap is not None and direct_rewrite(candidate, hmap) is not None:
                continue
            sigma.append(candidate.primitive())
            hmap = invariants._assemble(group, tuple(sigma), ring)
    sigma.sort(key=lambda p: GREVLEX.key(p.leading(GREVLEX)[0]), reverse=True)
    sigma.sort(key=Polynomial.degree)
    return sigma


@pytest.mark.parametrize("rung", sorted(SEARCH_GROUPS))
def test_graded_search_matches_sequential_search(rung, monkeypatch):
    group = closure(SEARCH_GROUPS[rung])
    expected = sequential_generators(group)
    assembled = []

    def counting(group, sigma, ring):
        assembled.append(len(sigma))
        return assemble(group, sigma, ring)

    assemble = invariants._assemble
    monkeypatch.setattr(invariants, "_assemble", counting)
    hmap = invariant_generators(group)
    monkeypatch.undo()
    assert [str(s) for s in hmap.sigma] == [str(s) for s in expected]
    # one tagged basis per degree that gains generators, the last one kept
    assert len(assembled) == len({s.degree() for s in hmap.sigma})
    assert assembled[-1] == len(hmap.sigma)
    # the leave-one-out check of explicitly chosen generators accepts it
    checked = HilbertMap.from_polynomials(group, hmap.sigma)
    assert checked.tag_basis.generators == hmap.tag_basis.generators


@pytest.mark.parametrize("rung", sorted(SEARCH_GROUPS))
def test_relations_read_off_equal_elimination(rung):
    hmap = invariant_generators(closure(SEARCH_GROUPS[rung]))
    basis = relations(hmap).basis
    n = hmap.ring.nvars
    assert basis.generators == eliminate(list(hmap.tag_basis.generators), n).generators
    # the read-off is already the reduced grevlex basis of the relations
    assert buchberger(list(basis.generators), GREVLEX).generators == basis.generators
    assert all(g.ring == hmap.orbit_ring for g in basis.generators)


def tagged_generators(hmap):
    """y_j - sigma_j(x) in the map's combined ring."""
    n, combined = hmap.ring.nvars, hmap.combined_ring
    return [combined.variable(n + j) - embed(s, combined, 0) for j, s in enumerate(hmap.sigma)]


def fixture_group(name):
    path = Path(invariants.__file__).parent / "fixtures" / f"{name}.json"
    return closure(json.loads(path.read_text(encoding="utf-8"))["group_generators"])


@pytest.mark.parametrize("rung", sorted(SEARCH_GROUPS) + ["b3", "s4"])
def test_hilbert_driven_tagged_basis_equals_the_plain_loop(rung, hilbert_certificates):
    group = fixture_group(rung) if rung in ("b3", "s4") else closure(SEARCH_GROUPS[rung])
    hmap = invariant_generators(group)
    n = hmap.ring.nvars
    assert hilbert_certificates and all(w[:n] == [1] * n for w in hilbert_certificates)
    plain = buchberger(tagged_generators(hmap), BlockOrder(n))
    assert hmap.tag_basis.generators == plain.generators


def test_hilbert_driven_tagged_basis_of_random_homogeneous_maps(hilbert_certificates):
    """Homogeneous sigma need not be invariants of the group for the tagged
    basis: the quotient is Q[x] whatever they are."""
    rng = random.Random(61)
    for n in (2, 3):
        ring = PolyRing.ambient(n)
        group = closure([[["1" if i == j else "0" for j in range(n)] for i in range(n)]])
        for _ in range(6):
            count = rng.randint(1, 3)
            sigma = tuple(random_homogeneous(rng, ring, rng.randint(1, 3)) for _ in range(count))
            hmap = invariants._assemble(group, sigma, ring)
            plain = buchberger(tagged_generators(hmap), BlockOrder(n))
            assert hmap.tag_basis.generators == plain.generators
    assert len(hilbert_certificates) == 12


def test_hilbert_driven_tagged_basis_skips_the_pairs_that_reduce_to_zero(monkeypatch):
    # Z2/R^3: six quadrics; the plain loop reduces 104 S-vectors, 83 to zero
    hmap = invariant_generators(closure(SEARCH_GROUPS["z2_r3"]))
    reduced = []
    s_vector = groebner._s_vector

    def counting(*args):
        reduced.append(args)
        return s_vector(*args)

    monkeypatch.setattr(groebner, "_s_vector", counting)
    again = invariants._assemble(hmap.group, hmap.sigma, hmap.ring)
    assert again.tag_basis.generators == hmap.tag_basis.generators
    assert 0 < len(reduced) < 52


def test_non_homogeneous_map_keeps_the_plain_loop(hilbert_certificates):
    group = make_reflection_group()
    sigma = (x("x1^2 + x1^2*x2^2"), x("x2^2"), x("x1*x2"))
    hmap = invariants._assemble(group, sigma, RING)
    assert hilbert_certificates == []
    # the basis and relations of the unchanged loop, pinned
    checked = HilbertMap.from_polynomials(group, sigma)
    assert checked.tag_basis.generators == hmap.tag_basis.generators
    assert [str(g) for g in hmap.tag_basis.generators] == [
        "x1^2 + y3^2 - y1",
        "x1*x2 - y3",
        "x2^2 - y2",
        "x1*y2 - x2*y3",
        "x2*y3^2 - x2*y1 + x1*y3",
        "y2*y3^2 - y1*y2 + y3^2",
    ]
    assert [str(g) for g in relations(checked).basis.generators] == ["y2*y3^2 - y1*y2 + y3^2"]


# relation count of each ideal: golden Z2/R^2, Z4/R^2, Z2/R^3, trivial group
TABLED_IDEALS = {"z2_r2": 1, "z4_r2": 1, "z2_r3": 6, "trivial": 0}


def tabled_ideal(rung):
    gens = {"trivial": [[["1", "0"], ["0", "1"]]]}.get(rung) or SEARCH_GROUPS[rung]
    hmap = invariant_generators(closure(gens))
    return hmap.orbit_ring, relations(hmap)


@pytest.mark.parametrize("rung", sorted(TABLED_IDEALS))
def test_relation_normal_form_table_matches_one_normal_form(rung):
    orbit, ideal = tabled_ideal(rung)
    assert len(ideal.basis.generators) == TABLED_IDEALS[rung]
    rng = random.Random(f"relation-normal-{rung}")
    for _ in range(30):
        p = random_poly(rng, orbit, 4, 5)
        q = random_poly(rng, orbit, 4, 5)
        # products of reduced representatives meet the table again
        for f in (p, q, p * q, ideal.normal(p) * ideal.normal(q)):
            assert ideal.normal(f) == normal_form(f, ideal.basis)
            assert ideal.is_member(f) == normal_form(f, ideal.basis).is_zero()
        assert ideal.is_member(ideal.normal(p) - p)
    if ideal.is_zero_ideal():
        assert ideal.normal(p) is p
        assert ideal._forms == {}
    else:
        assert ideal._forms
        with pytest.raises(ValueError, match="incompatible rings"):
            ideal.normal(x("x1"))


def test_relation_ideals_with_equal_bases_keep_their_own_tables():
    orbit, built = tabled_ideal("z2_r3")
    fresh = invariants.RelationIdeal(built.basis)
    built.normal(orbit.variable(0) ** 3)
    snapshot = dict(built._forms)
    assert fresh == built and hash(fresh) == hash(built)
    assert fresh._forms == {} and fresh._forms is not built._forms
    p = parse_polynomial("y1*y2*y3 - 2*y4^2 + y5*y6", orbit)
    assert fresh.normal(p) == built.normal(p) == normal_form(p, built.basis)
    assert set(fresh._forms) == set(p.terms)
    assert dict(built._forms) == {**snapshot, **fresh._forms}
    assert fresh == built and hash(fresh) == hash(built)


@pytest.mark.parametrize("rung", ["z2_r2", "z4_r2", "b2_r2", "d3_r2", "z2_r3", "z3_r3"])
def test_substitute_into_matches_polynomial_substitution(rung):
    hmap = invariant_generators(closure(SEARCH_GROUPS[rung]))
    rng = random.Random(f"substitute-{rung}")
    for _ in range(25):
        q = random_poly(rng, hmap.orbit_ring, 4, 5)
        assert hmap.substitute_into(q) == reference_substitute(q, hmap.sigma)
    assert hmap.substitute_into(hmap.orbit_ring.zero()).is_zero()
    with pytest.raises(ValueError, match="orbit ring"):
        hmap.substitute_into(x("x1"))


def test_hilbert_maps_with_equal_generators_keep_their_own_power_tables():
    # Both maps have three quadric generators, so a table shared by
    # exponents alone would hand one map the other's powers.
    z2 = invariant_generators(make_reflection_group())
    z4 = invariant_generators(make_rotation4_group())
    assert z2.orbit_ring == z4.orbit_ring and z2.sigma != z4.sigma
    twin = HilbertMap.from_polynomials(z2.group, z2.sigma)
    assert twin.sigma == z2.sigma and twin._powers is not z2._powers
    q = parse_polynomial("y1^3*y2 - 2*y2*y3^2 + y1 + 3", z2.orbit_ring)
    for hmap in (z4, z2):
        assert hmap.substitute_into(q) == reference_substitute(q, hmap.sigma)
    snapshot = dict(twin._powers)
    assert twin.substitute_into(q) == z2.substitute_into(q)
    assert set(twin._powers) > set(snapshot)
    ref = weakref.ref(twin)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del twin
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# one Hilbert map per group
# ---------------------------------------------------------------------------

def test_hilbert_map_and_relations_are_built_once(monkeypatch):
    group = make_rotation4_group()
    hmap = invariant_generators(group)
    assert invariant_generators(group) is hmap
    assert invariant_generators(group, group.order) is hmap
    assert invariant_generators(group, 2) is not hmap
    assert invariant_generators(make_rotation4_group()) is not hmap
    ideal = relations(hmap)
    assert relations(hmap) is ideal

    def refuse(*args, **kwargs):
        raise AssertionError("the Hilbert map or its relations were built again")

    monkeypatch.setattr(invariants, "_search_generators", refuse)
    monkeypatch.setattr(invariants, "_assemble", refuse)
    monkeypatch.setattr(invariants, "_elimination_part", refuse)
    module = equivariant_generators(group)
    assert EquivariantModule.from_fields(group, module.generators) == module
    assert invariant_combination(module.generators[0], module.generators, group) is not None


def test_hilbert_map_is_freed_with_its_last_reference():
    enabled = gc.isenabled()
    gc.disable()
    try:
        group = make_swap_group()
        hmap = invariant_generators(group)
        relations(hmap)
        subduct(x("x1^2 + x2^2"), hmap)
        ref = weakref.ref(hmap)
        del hmap
        assert ref() is None
        assert not group._hilbert_maps
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# equivariant module
# ---------------------------------------------------------------------------

def test_reflection_equivariants():
    module = equivariant_generators(make_reflection_group())
    assert [str(X) for X in module.generators] == [
        "(x1)*d/dx1",
        "(x1)*d/dx2",
        "(x2)*d/dx1",
        "(x2)*d/dx2",
    ]


def test_reflection_module_equals_classical_presentation():
    group = make_reflection_group()
    auto = equivariant_generators(group)
    classical = [
        field("x1", "0"),
        field("x2", "0"),
        field("0", "x1"),
        field("0", "x2"),
    ]
    for X in classical:
        assert invariant_combination(X, auto.generators, group) is not None
    for X in auto.generators:
        assert invariant_combination(X, classical, group) is not None


def test_trivial_equivariants():
    module = equivariant_generators(make_trivial_group())
    assert [str(X) for X in module.generators] == ["(1)*d/dx1", "(1)*d/dx2"]


def test_swap_equivariants_contain_listed_fields():
    group = make_swap_group()
    module = equivariant_generators(group)
    listed = [field("1", "1"), field("x1", "x2"), field("x2", "x1")]
    for X in listed:
        combo = invariant_combination(X, module.generators, group)
        assert combo is not None
        rebuilt = PolyVectorField.zero(RING)
        for h, gen in zip(combo, module.generators):
            rebuilt = rebuilt + h * gen
        assert rebuilt == X


def test_invariant_combination_reconstructs_exactly():
    group = make_reflection_group()
    module = equivariant_generators(group)
    target = x("x1^2 + x2^2") * module.generators[0] + x("x1*x2") * module.generators[3]
    combo = invariant_combination(target, module.generators, group)
    assert combo is not None
    rebuilt = PolyVectorField.zero(RING)
    for h, gen in zip(combo, module.generators):
        rebuilt = rebuilt + h * gen
    assert rebuilt == target


@pytest.mark.parametrize("make_group", [make_reflection_group, make_swap_group])
def test_equivariants_complete_one_degree_beyond(make_group):
    group = make_group()
    module = equivariant_generators(group)
    bound = group.order + 1
    for exps in monomials_up_to(RING, bound):
        for i in range(2):
            monomial_field = PolyVectorField(
                RING,
                [RING.monomial(exps) if j == i else RING.zero() for j in range(2)],
            )
            averaged = reynolds(monomial_field, group)
            if averaged.is_zero():
                continue
            assert invariant_combination(averaged, module.generators, group) is not None


def test_module_minimality_validation():
    group = make_reflection_group()
    gen = field("x1", "0")
    with pytest.raises(ValueError):
        EquivariantModule.from_fields(group, [gen, gen])


def test_equivariants_raising_bound_adds_nothing():
    group = make_reflection_group()
    at_noether = equivariant_generators(group)
    beyond = equivariant_generators(group, 3)
    assert [str(X) for X in beyond.generators] == [
        str(X) for X in at_noether.generators
    ]


# Generator texts as the dense invariant-coefficient ansatz printed them; the
# search by pushed-module membership must reproduce them in the same order.
PINNED_EQUIVARIANTS = {
    "z4_r2": (
        [[["0", "-1"], ["1", "0"]]],
        [
            "(x1)*d/dx1 + (x2)*d/dx2",
            "(x2)*d/dx1 + (-x1)*d/dx2",
            "(x1^3)*d/dx1 + (x2^3)*d/dx2",
            "(x2^3)*d/dx1 + (-x1^3)*d/dx2",
        ],
    ),
    "b2_r2": (
        [[["0", "1"], ["1", "0"]], [["-1", "0"], ["0", "1"]]],
        ["(x1)*d/dx1 + (x2)*d/dx2", "(x1^3)*d/dx1 + (x2^3)*d/dx2"],
    ),
    "d3_r2": (
        [[["0", "-1"], ["1", "-1"]], [["0", "1"], ["1", "0"]]],
        [
            "(x1)*d/dx1 + (x2)*d/dx2",
            "(x1^2 - 2*x1*x2)*d/dx1 + (-2*x1*x2 + x2^2)*d/dx2",
        ],
    ),
    "z2z2_r3": (
        [
            [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]],
            [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]],
        ],
        [
            "(x1)*d/dx1",
            "(x2)*d/dx2",
            "(x3)*d/dx3",
            "(x1*x2)*d/dx3",
            "(x1*x3)*d/dx2",
            "(x2*x3)*d/dx1",
        ],
    ),
    "z6_r2": (
        [[["1", "-1"], ["1", "0"]]],
        [
            "(x1 + x2)*d/dx1 + (-x1 + 2*x2)*d/dx2",
            "(x1 - 2*x2)*d/dx1 + (2*x1 - x2)*d/dx2",
            "(x1^5 + x2^5)*d/dx1 + (-x1^5 + 5*x1^4*x2 - 10*x1^3*x2^2"
            " + 10*x1^2*x2^3 - 5*x1*x2^4 + 2*x2^5)*d/dx2",
            "(x1^5 - 5*x1^4*x2 + 10*x1^3*x2^2 - 10*x1^2*x2^3 + 5*x1*x2^4"
            " - 2*x2^5)*d/dx1 + (2*x1^5 - 5*x1^4*x2 + 10*x1^3*x2^2"
            " - 10*x1^2*x2^3 + 5*x1*x2^4 - x2^5)*d/dx2",
        ],
    ),
}


@pytest.mark.parametrize("rung", sorted(PINNED_EQUIVARIANTS))
def test_equivariant_generator_text_is_pinned(rung):
    generators, expected = PINNED_EQUIVARIANTS[rung]
    module = equivariant_generators(closure(generators))
    assert [str(X) for X in module.generators] == expected


def test_membership_path_needs_no_dense_linear_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense linear algebra on the membership path")

    monkeypatch.setattr(linalg, "solve", refuse)
    monkeypatch.setattr(linalg, "echelon", refuse)
    group = make_swap_group()
    module = equivariant_generators(group)
    assert [str(X) for X in module.generators] == [
        "(1)*d/dx1 + (1)*d/dx2",
        "(x1)*d/dx1 + (x2)*d/dx2",
    ]
    assert EquivariantModule.from_fields(group, module.generators) == module
    redundant = module.generators + (x("x1 + x2") * module.generators[0],)
    with pytest.raises(ValueError, match="combination of the others"):
        EquivariantModule.from_fields(group, redundant)
    target = x("x1*x2") * module.generators[0]
    assert invariant_combination(target, module.generators, group) is not None


# ---------------------------------------------------------------------------
# the graded equivariant search against the sequential search it replaced
# ---------------------------------------------------------------------------

# The benchmark's presentation and elimination ladders, S3 permuting the
# coordinates of R^3, and the golden reflection group.
SEARCH_RUNGS = {
    "z2_r2": [[["-1", "0"], ["0", "-1"]]],
    "z4_r2": [[["0", "-1"], ["1", "0"]]],
    "b2_r2": [[["0", "1"], ["1", "0"]], [["-1", "0"], ["0", "1"]]],
    "d3_r2": [[["0", "-1"], ["1", "-1"]], [["0", "1"], ["1", "0"]]],
    "z2z2_r3": [
        [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]],
        [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]],
    ],
    "z2_r3": [[["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]]],
    "z3_r3": [[["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]]],
    "z6_r2": [[["1", "-1"], ["1", "0"]]],
    "s3_r3": [
        [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
        [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]],
    ],
    "reflection": [[["-1", "0"], ["0", "1"]]],
}


def sequential_equivariant_generators(group):
    """The search as it was before the graded one: a candidate is kept when
    its pushforward is not a member of the span of every field kept so far,
    and the membership problem is rebuilt after each kept field."""
    hmap = invariant_generators(group)
    ideal = relations(hmap)
    ring = hmap.ring
    kept, pushed, span = [], [], None
    for degree in range(0, group.order + 1):
        for mono in invariants._monomials_of_degree(ring, degree):
            for i in range(ring.nvars):
                components = [ring.zero()] * ring.nvars
                components[i] = mono
                candidate = reynolds(PolyVectorField(ring, components), group)
                if candidate.is_zero():
                    continue
                column = invariants._push_field(candidate, hmap)
                if span is not None and groebner.module_solve(column, span).member:
                    continue
                kept.append(PolyVectorField(ring, make_primitive(candidate.components)))
                pushed.append(column)
                span = groebner.SubmoduleProblem(len(hmap.sigma), tuple(pushed), ideal.basis)
    return kept


def field_degree(X):
    return max(c.degree() for c in X.components if not c.is_zero())


@pytest.mark.parametrize("rung", sorted(SEARCH_RUNGS))
def test_graded_equivariant_search_matches_the_sequential_one(rung):
    group = closure(SEARCH_RUNGS[rung])
    hmap = invariant_generators(group)  # held, so all three searches share it
    module = equivariant_generators(group)
    texts = [str(X) for X in module.generators]
    assert texts == [str(X) for X in sequential_equivariant_generators(group)]
    # the leave-one-out oracle: no generator is a combination of the others
    assert EquivariantModule.from_fields(group, module.generators) == module
    assert invariant_generators(group) is hmap


@pytest.mark.parametrize("rung", sorted(SEARCH_RUNGS))
def test_one_module_basis_at_most_per_degree_that_gains_fields(rung, count_module_basis_builds):
    group = closure(SEARCH_RUNGS[rung])
    hmap = invariant_generators(group)
    relations(hmap)
    builds = count_module_basis_builds()
    module = equivariant_generators(group)
    assert len(builds) <= len({field_degree(X) for X in module.generators})
    if rung == "z2_r3":
        # all nine generators are linear, and every other degree averages to zero
        assert len(module) == 9 and not builds


def test_equivariant_search_needs_no_leave_one_out_check(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the search re-checked its own minimality")

    monkeypatch.setattr(EquivariantModule, "from_fields", staticmethod(refuse))
    assert not hasattr(invariants, "_minimal_module")
    module = equivariant_generators(closure(SEARCH_RUNGS["z3_r3"]))
    assert [str(X) for X in module.generators] == [
        "(1)*d/dx1 + (1)*d/dx2 + (1)*d/dx3",
        "(x1)*d/dx1 + (x2)*d/dx2 + (x3)*d/dx3",
        "(x3)*d/dx1 + (x1)*d/dx2 + (x2)*d/dx3",
        "(x1^2)*d/dx1 + (x2^2)*d/dx2 + (x3^2)*d/dx3",
        "(x3^2)*d/dx1 + (x1^2)*d/dx2 + (x2^2)*d/dx3",
    ]


def test_equivariant_degree_bound_must_be_non_negative():
    group = make_trivial_group()
    with pytest.raises(ValueError, match="degree bound must be non-negative"):
        equivariant_generators(group, -1)
    module = equivariant_generators(group, 0)
    assert [str(X) for X in module.generators] == ["(1)*d/dx1", "(1)*d/dx2"]
