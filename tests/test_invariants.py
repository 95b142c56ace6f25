"""Invariant ring generation, relations, subduction, equivariant module."""

import gc
import json
import random
import weakref
from pathlib import Path

import pytest

from conftest import (
    coefficient_vector,
    leads_share_a_variable,
    make_reflection_group,
    make_rotation4_group,
    make_swap_group,
    monomials_up_to,
    nullspace,
    random_homogeneous,
    random_poly,
    reference_divide,
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
from orbitcalc.quotient import OrbitSpace
from orbitcalc.series import field_series, quotient_series, same_series
from test_reflection_group_pins import GROUPS as REFLECTION_GROUPS

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
    kernel = nullspace(matrix, len(monos))
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

    def counting(group, sigma, ring, lower=None):
        assembled.append(len(sigma))
        return assemble(group, sigma, ring, lower)

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


@pytest.mark.parametrize("rung", ["z2_r3", "z3_r3", "z6_r2", "z2z2_r3"])
def test_the_relation_basis_is_restricted_once(rung, monkeypatch):
    """The search's certificate tests read the x-free leads of each tagged
    basis; only :func:`relations` restricts a basis, once per map."""
    restricted = []
    restrict_basis = invariants._elimination_part

    def counting(basis, drop):
        restricted.append(basis)
        return restrict_basis(basis, drop)

    monkeypatch.setattr(invariants, "_elimination_part", counting)
    hmap = invariant_generators(closure(SEARCH_GROUPS[rung]))
    assert restricted == []
    ideal = relations(hmap)
    assert relations(hmap) is ideal
    assert len(restricted) == 1 and restricted[0] is hmap.tag_basis
    leads = [lm for lm, _ in ideal.basis.leads]
    weights = [s.degree() for s in hmap.sigma]
    assert invariants._subalgebra_series(hmap) == quotient_series(leads, weights)


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


def test_hilbert_driven_tagged_basis_skips_the_pairs_that_reduce_to_zero(pair_traffic):
    # Z2/R^3: six quadrics; the plain loop reduces 104 S-vectors, 83 to zero
    hmap = invariant_generators(closure(SEARCH_GROUPS["z2_r3"]))
    pair_traffic.clear()
    again = invariants._assemble(hmap.group, hmap.sigma, hmap.ring)
    assert again.tag_basis.generators == hmap.tag_basis.generators
    assert len(pair_traffic) == 1 and 0 < pair_traffic[0].reduced < 52


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
    basis = ideal.basis
    assert len(basis.generators) == TABLED_IDEALS[rung]
    rng = random.Random(f"relation-normal-{rung}")
    for _ in range(30):
        p = random_poly(rng, orbit, 4, 5)
        q = random_poly(rng, orbit, 4, 5)
        # products of reduced representatives meet the table again
        for f in (p, q, p * q, ideal.normal(p) * ideal.normal(q)):
            expected = reference_divide(f, basis.generators, basis.order)[0]
            assert ideal.normal(f) == normal_form(f, basis) == expected
            assert ideal.is_member(f) == expected.is_zero()
        assert ideal.is_member(ideal.normal(p) - p)
    if ideal.is_zero_ideal():
        assert ideal.normal(p) is p
        assert basis._forms == {}
    else:
        assert basis._forms
        with pytest.raises(ValueError, match="incompatible rings"):
            ideal.normal(x("x1"))


def test_relation_ideals_with_equal_bases_keep_their_own_tables():
    orbit, built = tabled_ideal("z2_r3")
    fresh = invariants.RelationIdeal(groebner.GroebnerBasis(built.basis.generators, built.basis.order))
    built.normal(orbit.variable(0) ** 3)
    snapshot = dict(built.basis._forms)
    assert fresh == built and hash(fresh) == hash(built)
    assert fresh.basis == built.basis and hash(fresh.basis) == hash(built.basis)
    assert fresh.basis._forms == {} and fresh.basis._forms is not built.basis._forms
    p = parse_polynomial("y1*y2*y3 - 2*y4^2 + y5*y6", orbit)
    assert fresh.normal(p) == built.normal(p) == normal_form(p, built.basis)
    assert set(fresh.basis._forms) == set(p.terms)
    assert dict(built.basis._forms) == {**snapshot, **fresh.basis._forms}
    assert fresh == built and hash(fresh) == hash(built)
    assert fresh.basis == built.basis and hash(fresh.basis) == hash(built.basis)


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


def test_invariant_combination_refuses_a_field_that_is_not_invariant():
    # -Id on R^2: x1^2 d/dx1 changes sign, and the Hilbert map is not to blame
    group = closure([[["-1", "0"], ["0", "-1"]]])
    euler = field("x1", "x2")
    with pytest.raises(ValueError, match=r"^not invariant: "):
        invariant_combination(euler, [field("x1^2", "0")], group)
    with pytest.raises(ValueError, match=r"^not invariant: "):
        invariant_combination(euler, [euler, field("x1^2", "0")], group)
    assert invariant_combination(euler, [euler], group) == [RING.one()]


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


def test_a_lone_zero_field_is_no_generator():
    """The zero field is the empty combination, so it is rejected alone as
    it is beside another field."""
    group = make_reflection_group()
    zero = PolyVectorField.zero(RING)
    with pytest.raises(ValueError, match="zero generator"):
        EquivariantModule.from_fields(group, [zero])
    with pytest.raises(ValueError):
        EquivariantModule.from_fields(group, [field("x1", "0"), zero])


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
        # all nine generators are linear, and every other degree averages to
        # zero; the series test at the Noether degree |G| - 1 = 1 builds the
        # one module basis, and the space's syzygies read it
        assert len(module) == 9 and len(builds) == 1
        OrbitSpace(hmap, module=module).generator_syzygies
        assert len(builds) == 1


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


# ---------------------------------------------------------------------------
# the series counts that drive both searches
# ---------------------------------------------------------------------------

@pytest.fixture
def averaged(monkeypatch):
    """The averages the searches take during the test, in order, as
    (kind, degree) with kind "poly" or "field"."""
    seen = []
    average = invariants.reynolds

    def counting(obj, group):
        if isinstance(obj, PolyVectorField):
            seen.append(("field", field_degree(obj)))
        else:
            seen.append(("poly", obj.degree()))
        return average(obj, group)

    monkeypatch.setattr(invariants, "reynolds", counting)
    return seen


def test_invariant_search_averages_nothing_where_nothing_is_missing(averaged):
    # Z6 on R^2: one quadric and two sextics; the Molien series counts no
    # new invariant in degrees 1, 3, 4 and 5
    hmap = invariant_generators(closure(SEARCH_RUNGS["z6_r2"]))
    assert [s.degree() for s in hmap.sigma] == [2, 6, 6]
    assert {d for kind, d in averaged if kind == "poly"} == {2, 6}


def test_invariant_search_stops_a_degree_at_its_count(averaged):
    # Z3 permuting R^3: two cubics are missing, and the first two monomials
    # of degree 3 (x1^3, x1^2*x2) average to them; eight are left unaveraged
    hmap = invariant_generators(closure(SEARCH_RUNGS["z3_r3"]))
    assert [s.degree() for s in hmap.sigma] == [1, 2, 3, 3]
    assert averaged.count(("poly", 3)) == 2


def test_field_search_averages_nothing_where_nothing_is_missing(averaged):
    # B2 on R^2 contains -1, so no invariant field has even degree; the
    # field series counts one new field in degrees 1 and 3
    group = closure(SEARCH_RUNGS["b2_r2"])
    hmap = invariant_generators(group)  # held, so the field search reuses it
    averaged.clear()
    module = equivariant_generators(group)
    assert [field_degree(X) for X in module.generators] == [1, 3]
    assert set(averaged) == {("field", 1), ("field", 3)}
    assert invariant_generators(group) is hmap


def bumped(series, degree, step):
    """The rational series plus step * t^degree."""
    numerator, denominator = series
    extra = [0] * degree + [step * c for c in denominator]
    size = max(len(numerator), len(extra))
    padded = [list(p) + [0] * (size - len(p)) for p in (numerator, extra)]
    return [a + b for a, b in zip(*padded)], denominator


# (rung, degree): in the first two the degree has no generator, so one too
# low is a negative count; in the last, one too high asks for a third cubic
WRONG_MOLIEN = [("z6_r2", 3, 1), ("z6_r2", 3, -1), ("z3_r3", 3, 1)]


@pytest.mark.parametrize("rung, degree, step", WRONG_MOLIEN)
def test_invariant_search_refuses_a_wrong_molien_count(rung, degree, step, monkeypatch):
    molien = invariants.molien_series
    monkeypatch.setattr(invariants, "molien_series", lambda g: bumped(molien(g), degree, step))
    group = closure(SEARCH_RUNGS[rung])
    with pytest.raises(AssertionError, match=f"internal error: . generators in degree {degree}"):
        invariant_generators(group)
    assert not group._hilbert_maps


@pytest.mark.parametrize("step", [1, -1])
def test_field_search_refuses_a_wrong_field_count(step, monkeypatch):
    # B2 on R^2 has no invariant field of degree 2
    group = closure(SEARCH_RUNGS["b2_r2"])
    hmap = invariant_generators(group)
    series = invariants.field_series
    monkeypatch.setattr(invariants, "field_series", lambda g: bumped(series(g), 2, step))
    with pytest.raises(AssertionError, match="internal error: 0 fields in degree 2"):
        equivariant_generators(group)
    monkeypatch.undo()
    assert invariant_generators(group) is hmap
    assert len(equivariant_generators(group)) == 2


# (rung, degree, step): the series stays met degree by degree, one
# generator short; the parent kept p1, p2 and p3 on Z3 permuting R^3 with
# certificate 3.  Only the series test at the Noether degree |G| sees it.
NOETHER_MOLIEN = [("z3_r3", 3, -1)]


@pytest.mark.parametrize("rung, degree, step", NOETHER_MOLIEN)
def test_invariant_search_refuses_a_molien_series_off_at_the_noether_degree(rung, degree, step, monkeypatch):
    molien = invariants.molien_series
    monkeypatch.setattr(invariants, "molien_series", lambda g: bumped(molien(g), degree, step))
    group = closure(SEARCH_RUNGS[rung])
    with pytest.raises(AssertionError, match=f"internal error: the generators of degree {group.order} miss"):
        invariant_generators(group)
    assert not group._hilbert_maps


def test_field_search_refuses_a_field_series_off_when_the_noether_degree_gains_none(monkeypatch):
    # Z2 x Z2 on R^3: one field short in degree 2, and degree |G| - 1 = 3
    # gains none, so the series read at degree 2 must agree there
    group = closure(SEARCH_RUNGS["z2z2_r3"])
    hmap = invariant_generators(group)
    series = invariants.field_series
    monkeypatch.setattr(invariants, "field_series", lambda g: bumped(series(g), 2, -1))
    with pytest.raises(AssertionError, match="internal error: the fields of degree 3 miss the field series"):
        equivariant_generators(group)
    monkeypatch.undo()
    assert invariant_generators(group) is hmap


# The field series one low in degree 1 leaves the degree-1 fields one short,
# and the Noether degree |G| - 1 gains fields, so only a series test there
# sees it: without one, Z2 on R^2 ended on 3 fields certified at degree 1,
# and Z3 permuting R^3 on 5 fields certified at degree 2.
@pytest.mark.parametrize("rung", ["z2_r2", "z3_r3"])
def test_field_search_refuses_a_field_series_off_when_the_noether_degree_gains_fields(rung, monkeypatch):
    group = closure(SEARCH_RUNGS[rung])
    hmap = invariant_generators(group)
    series = invariants.field_series
    monkeypatch.setattr(invariants, "field_series", lambda g: bumped(series(g), 1, -1))
    with pytest.raises(AssertionError, match=f"internal error: the fields of degree {group.order - 1} miss the field series"):
        equivariant_generators(group)
    monkeypatch.undo()
    assert invariant_generators(group) is hmap
    assert equivariant_generators(group).certificate == group.order - 1


@pytest.mark.parametrize("rung", sorted(SEARCH_RUNGS))
def test_a_certified_module_hands_over_the_span_its_series_read(rung):
    group = closure(SEARCH_RUNGS[rung])
    hmap = invariant_generators(group)
    module = equivariant_generators(group)
    assert module.certificate is not None
    span = module._span(hmap)
    assert span._basis is not None
    assert same_series(invariants._span_series(span, hmap), field_series(group))


PRESENTATION_RUNGS = ["z2_r2", "z4_r2", "b2_r2", "d3_r2", "z2z2_r3"]


def test_the_presentation_ladder_builds_nine_module_bases(count_module_basis_builds):
    # each rung as the benchmark's presentation chain builds it
    builds = count_module_basis_builds()
    for rung in PRESENTATION_RUNGS:
        group = closure(SEARCH_RUNGS[rung])
        hilbert = invariant_generators(group)
        ideal = relations(hilbert)
        module = equivariant_generators(group)
        space = OrbitSpace(hilbert, ideal=ideal, module=module)
        space.pushed_generators
        space.generator_syzygies
    assert len(builds) == 9


# ---------------------------------------------------------------------------
# each search degree extends the last tagged basis
# ---------------------------------------------------------------------------

EXTENDED_RUNGS = {**SEARCH_RUNGS, **{name: spec[0] for name, spec in REFLECTION_GROUPS.items()}}


@pytest.mark.parametrize("rung", sorted(EXTENDED_RUNGS))
def test_each_search_degree_extends_the_last_tag_basis_to_the_one_built_from_nothing(rung, monkeypatch):
    group = closure(EXTENDED_RUNGS[rung])
    assembled = []
    assemble = invariants._assemble

    def recording(group, sigma, ring, lower=None):
        hmap = assemble(group, sigma, ring, lower)
        assembled.append((lower, hmap))
        return hmap

    monkeypatch.setattr(invariants, "_assemble", recording)
    hmap = invariant_generators(group)
    monkeypatch.undo()
    assert assembled[0][0] is None and assembled[-1][1] is hmap
    for (_, previous), (lower, extended) in zip(assembled, assembled[1:]):
        assert lower is previous
        scratch = assemble(group, extended.sigma, extended.ring)
        assert extended.tag_basis.generators == scratch.tag_basis.generators
        order = extended.tag_basis.order
        expected_leads = tuple(g.leading(order) for g in scratch.tag_basis.generators)
        assert extended.tag_basis.leads == scratch.tag_basis.leads == expected_leads


# ---------------------------------------------------------------------------
# the pairs a driven tagged build queues and pops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rung", sorted(EXTENDED_RUNGS))
def test_every_driven_tag_basis_equals_the_plain_loop_on_its_inputs(rung, pair_traffic):
    """Each tagged build of the search, from nothing or seeded with the
    last degree's basis, against an undriven run on the same inputs."""
    hmap = invariant_generators(closure(EXTENDED_RUNGS[rung]))
    n = hmap.ring.nvars
    driven = [traffic for traffic in pair_traffic if traffic.driven]
    assert len(driven) == len({s.degree() for s in hmap.sigma})
    assert [traffic.seeded > 0 for traffic in driven] == [False] + [True] * (len(driven) - 1)
    for traffic in driven:
        assert isinstance(traffic.order, BlockOrder) and traffic.order.block == n
        plain = buchberger([g[0] for g in traffic.gens], traffic.order)
        assert tuple(t.vec[0] for t in traffic.result) == plain.generators
        assert tuple(t.lead for t in traffic.result) == plain.leads
    assert tuple(t.vec[0] for t in driven[-1].result) == hmap.tag_basis.generators


@pytest.mark.parametrize("rung", sorted(EXTENDED_RUNGS))
def test_a_driven_build_queues_no_coprime_pair_and_pops_none_past_its_series(rung, pair_traffic):
    invariant_generators(closure(EXTENDED_RUNGS[rung]))
    assert pair_traffic and all(traffic.driven for traffic in pair_traffic)
    for traffic in pair_traffic:
        basis = traffic.basis
        assert all(leads_share_a_variable(basis[i], basis[j]) for i, j in traffic.queued)
        assert sorted(traffic.queued) == sorted(traffic.pairs_to_queue())
        assert traffic.late == 0 and traffic.drive.certified()


def test_the_driven_elimination_ladder_queues_189_pairs_and_pops_118(pair_traffic):
    """Z2/R^3, Z3/R^3 and Z6/R^2, unconjugated: queueing the coprime pairs
    and popping every pair would pop 361."""
    popped = {}
    for rung in ("z2_r3", "z3_r3", "z6_r2"):
        relations(invariant_generators(closure(SEARCH_RUNGS[rung])))
        popped[rung] = sum(len(traffic.popped) for traffic in pair_traffic) - sum(popped.values())
    assert all(traffic.driven for traffic in pair_traffic)
    assert sum(len(traffic.queued) for traffic in pair_traffic) == 189
    assert popped == {"z2_r3": 31, "z3_r3": 30, "z6_r2": 57}
    # the drive drops 66 of them, 48 are reduced, and the chain criterion
    # skips the other 4
    dropped = sum(traffic.dropped for traffic in pair_traffic)
    reduced = sum(traffic.reduced for traffic in pair_traffic)
    assert (dropped, reduced) == (66, 48)


def test_invariant_combination_reads_a_module_span_once(count_module_basis_builds):
    """Twelve averaged fields against the Z4/R^2 module: the module's span is
    built once, where a tuple of its generators builds one per call."""
    group = closure(SEARCH_RUNGS["z4_r2"])
    hmap = invariant_generators(group)  # held, so every call shares it
    searched = equivariant_generators(group)
    targets = []
    for degree in range(4):
        for X in invariants._monomial_fields(RING, degree):
            candidate = reynolds(X, group)
            if not candidate.is_zero():
                targets.append(candidate)
    assert len(targets) == 12
    builds = count_module_basis_builds()
    by_fields = [invariant_combination(X, searched.generators, group) for X in targets]
    assert len(builds) == 12
    module = EquivariantModule(searched.generators)  # equal, with no span yet
    by_module = [invariant_combination(X, module, group) for X in targets]
    assert len(builds) == 13
    # the search's own module hands over the span its certificate built
    assert [invariant_combination(X, searched, group) for X in targets] == by_fields
    assert len(builds) == 13
    assert by_module == by_fields and all(combo is not None for combo in by_fields)
    assert invariant_generators(group) is hmap
