"""Buchberger engine: bases, normal forms, elimination, modules, syzygies."""

import random

import pytest

from conftest import (
    LADDER,
    coefficient_vector,
    mono_div,
    mono_divides,
    mono_lcm,
    monomials_up_to,
    nullspace,
    random_homogeneous,
    random_ideal,
    random_poly,
    reference_divide,
)
from orbitcalc import groebner, linalg
from orbitcalc.group_action import closure
from orbitcalc.invariants import equivariant_generators, invariant_generators, relations
from orbitcalc.quotient import OrbitSpace
from orbitcalc.algebra import (
    GREVLEX,
    LEX,
    BlockOrder,
    PolyRing,
    embed,
    parse_polynomial,
)
from orbitcalc.groebner import (
    ComputationCancelled,
    GroebnerBasis,
    SubmoduleProblem,
    _buchberger_tracked,
    _elimination_part,
    _module_basis,
    buchberger,
    divide,
    eliminate,
    module_solve,
    normal_form,
    syzygies,
)
from orbitcalc.series import one_minus_powers, quotient_series

AMBIENT = PolyRing.ambient(2)
ORBIT = PolyRing.orbit(3)


def x(text):
    return parse_polynomial(text, AMBIENT)


def y(text):
    return parse_polynomial(text, ORBIT)


SIGMA = [x("x1^2"), x("x2^2"), x("x1*x2")]
RELATION = y("y3^2 - y1*y2")


def relation_basis():
    return buchberger([RELATION])


PRESENTATION_RUNGS = ["z2_r2", "z4_r2", "b2_r2", "d3_r2", "z2z2_r3"]


# ---------------------------------------------------------------------------
# an independent membership oracle for homogeneous ideals: degree-d members
# are exactly the span of monomial multiples of the generators in degree d
# ---------------------------------------------------------------------------

def homogeneous_membership_oracle(p, gens, degree_cap):
    """Linear-algebra membership test, sound for homogeneous generators."""
    ring = p.ring
    columns = monomials_up_to(ring, degree_cap)
    rows = []
    for g in gens:
        budget = degree_cap - g.degree()
        if budget < 0:
            continue
        for m in monomials_up_to(ring, budget):
            rows.append(coefficient_vector(g.mul_monomial(m), columns))
    target = coefficient_vector(p, columns)
    base = linalg.rank(rows, len(columns))
    return linalg.rank(rows + [target], len(columns)) == base


def test_buchberger_relation_ideal():
    gb = relation_basis()
    assert [str(g) for g in gb.generators] == ["y1*y2 - y3^2"]
    assert normal_form(RELATION, gb).is_zero()


def test_buchberger_zero_ideal_and_zero_generators():
    assert buchberger([]).generators == ()
    assert buchberger([ORBIT.zero()]).generators == ()
    lone = buchberger([ORBIT.zero(), y("y1")])
    assert [str(g) for g in lone.generators] == ["y1"]


def test_buchberger_collapses_to_variables():
    gb = buchberger([x("x1"), x("x1^2 + x2")])
    assert [str(g) for g in gb.generators] == ["x1", "x2"]
    # independent confirmation through the linear-algebra oracle
    assert homogeneous_membership_oracle(x("x2"), [x("x1"), x("x1^2 + x2")], 3)


def test_buchberger_idempotent():
    rng = random.Random(21)
    seeds = [
        [RELATION],
        [x("x1^2 + x2^2"), x("x1*x2")],
        [random_poly(rng, ORBIT, 3, 3, nonzero=True) for _ in range(3)],
    ]
    for gens in seeds:
        gb = buchberger(gens)
        again = buchberger(gb.generators)
        assert again.generators == gb.generators


def test_membership_matches_linear_algebra_oracle():
    gens = [x("x1^2 + x2^2"), x("x1*x2")]
    gb = buchberger(gens)
    rng = random.Random(22)
    for _ in range(100):
        p = random_poly(rng, AMBIENT, max_degree=4, max_terms=3)
        if p.is_zero():
            continue
        by_basis = normal_form(p, gb).is_zero()
        by_linear_algebra = homogeneous_membership_oracle(p, gens, p.degree())
        assert by_basis == by_linear_algebra
    # members built by construction reduce to zero
    for _ in range(50):
        combo = random_poly(rng, AMBIENT, 2) * gens[0] + random_poly(rng, AMBIENT, 2) * gens[1]
        assert normal_form(combo, gb).is_zero()


def test_normal_form_reduction():
    gb = relation_basis()
    # the basis is monic with leading monomial y1*y2, so the pure power is
    # already canonical and the mixed product rewrites into it
    assert normal_form(y("y1*y2"), gb) == y("y3^2")
    assert normal_form(y("y3^2"), gb) == y("y3^2")
    assert normal_form(y("y1"), gb) == y("y1")
    # substitute-back oracle: reduction never changes the function on the cone
    for q in (y("y3^2"), y("y1*y2"), y("y1*y3^2 - 2*y2"), y("y1*y2*y3")):
        assert normal_form(q, gb).substitute(SIGMA) == q.substitute(SIGMA)


def test_normal_form_is_linear_and_idempotent():
    gb = relation_basis()
    rng = random.Random(23)
    for _ in range(200):
        p = random_poly(rng, ORBIT, 4)
        q = random_poly(rng, ORBIT, 4)
        assert normal_form(p + q, gb) == normal_form(p, gb) + normal_form(q, gb)
        assert normal_form(normal_form(p, gb), gb) == normal_form(p, gb)


def test_normal_form_multiplicative_mod_ideal():
    gb = relation_basis()
    rng = random.Random(24)
    for _ in range(200):
        p = random_poly(rng, ORBIT, 3)
        q = random_poly(rng, ORBIT, 3)
        direct = normal_form(p * q, gb)
        staged = normal_form(normal_form(p, gb) * normal_form(q, gb), gb)
        assert direct == staged


def test_confluence_under_divisor_permutations():
    gens = [x("x1^2 + x2^2"), x("x1*x2"), x("x2^3")]
    gb = buchberger(gens)
    rng = random.Random(25)
    count = len(gb.generators)
    for _ in range(500):
        p = random_poly(rng, AMBIENT, max_degree=5, max_terms=4)
        reference = normal_form(p, gb)
        shuffled = [gb.generators[i] for i in rng.sample(range(count), count)]
        remainder, _ = divide(p, shuffled, gb.order)
        assert remainder == reference == reference_divide(p, shuffled, gb.order)[0]


def test_divide_contract():
    gens = [x("x1^2 + x2^2"), x("x1*x2")]
    rng = random.Random(26)
    for _ in range(100):
        p = random_poly(rng, AMBIENT, 4)
        remainder, quotients = divide(p, gens, GREVLEX)
        rebuilt = remainder
        for q, g in zip(quotients, gens):
            rebuilt = rebuilt + q * g
        assert rebuilt == p
        for term, _ in remainder:
            for g in gens:
                lead, _c = g.leading(GREVLEX)
                assert any(t < l for t, l in zip(term, lead))


def random_divisor(rng, ring):
    """A divisor that is no Groebner basis element: zero, or rational with a
    leading coefficient that is often a negative or non-unit integer."""
    d = random_poly(rng, ring, max_degree=3, max_terms=4)
    if d.is_zero() or rng.random() < 0.3:
        return d
    _, lc = d.leading(GREVLEX)
    return d.scale(rng.choice([-5, -3, -2, -1, 2, 3, 6]) / lc)


@pytest.mark.parametrize("order", [GREVLEX, LEX, BlockOrder(1)])
def test_divide_equals_the_fraction_reference(order):
    ring = PolyRing.ambient(3)
    rng = random.Random(27)
    for _ in range(150):
        divisors = [random_divisor(rng, ring) for _ in range(rng.randint(1, 4))]
        divisors.insert(rng.randrange(len(divisors) + 1), ring.zero())
        p = random_poly(rng, ring, max_degree=5, max_terms=6)
        permuted = rng.sample(divisors, len(divisors))
        for tried in (divisors, permuted):
            expected = reference_divide(p, tried, order)
            assert divide(p, tried, order) == expected
            # a caller that discards the quotients gets none built
            unbuilt = divide(p, tried, order, _quotients=False)
            assert unbuilt == (expected[0], [])


def test_divide_rescales_by_a_leading_numerator_the_work_does_not_absorb():
    # The work numerators 1, -1 and 1 meet leading numerators 3, 3 and -2
    # that do not divide them, so three steps multiply the running scale.
    p = x("x1^2 + x2")
    divisors = [x("3*x1 + x2"), x("-2*x2 + 1")]
    remainder, quotients = divide(p, divisors, GREVLEX)
    assert (remainder, quotients) == reference_divide(p, divisors, GREVLEX)
    assert remainder == x("19/36")
    assert quotients == [x("1/3*x1 - 1/9*x2"), x("-1/18*x2 - 19/36")]


# ---------------------------------------------------------------------------
# a basis keeps its leading terms and its monomial normal forms
# ---------------------------------------------------------------------------

def kept_bases():
    """One basis of each kind the package makes, by name."""
    ring = PolyRing.ambient(3)
    rng = random.Random(53)
    bases = {"empty": GroebnerBasis((), GREVLEX)}
    for order in (GREVLEX, LEX, BlockOrder(1)):
        bases[f"buchberger-{order}"] = buchberger(random_ideal(rng, ring), order)
    block = buchberger(random_ideal(rng, ring), BlockOrder(1))
    bases["eliminate"] = eliminate(random_ideal(rng, ring), 1)
    bases["elimination-part"] = _elimination_part(block, 1)
    for rung in ("z2_r2", "z4_r2", "z2_r3"):
        bases[f"tagged-{rung}"] = invariant_generators(closure(LADDER[rung])).tag_basis
    return bases


def test_a_basis_keeps_the_leading_terms_of_its_generators():
    bases = kept_bases()
    assert bases["empty"].leads == ()
    assert sum(len(gb) for gb in bases.values()) > len(bases)
    for name, gb in bases.items():
        assert gb.leads == tuple(g.leading(gb.order) for g in gb.generators), name
        assert "leads" not in repr(gb) and "_forms" not in repr(gb)


def test_a_basis_takes_known_leading_terms_only_by_keyword():
    built = kept_bases()["buchberger-<grevlex>"]
    with pytest.raises(TypeError):
        GroebnerBasis(built.generators, built.order, built.leads)
    assert GroebnerBasis(built.generators, built.order, _leads=built.leads).leads == built.leads


@pytest.mark.parametrize("rung", PRESENTATION_RUNGS)
def test_every_division_of_a_space_build_reads_kept_leads(rung, monkeypatch):
    leads = []
    divide = groebner.divide

    def recording(*args, **kwargs):
        leads.append(kwargs.get("_leads"))
        return divide(*args, **kwargs)

    monkeypatch.setattr(groebner, "divide", recording)
    hilbert = invariant_generators(closure(LADDER[rung]))
    space = OrbitSpace(hilbert, module=equivariant_generators(hilbert.group))
    space.pushed_generators
    space.generator_syzygies
    assert leads and all(lead is not None for lead in leads)


TABLE_KINDS = [
    "z2_r3-relations", "z4_r2-tagged", "buchberger-<grevlex>", "buchberger-<lex>",
    "buchberger-<block>", "eliminate", "elimination-part", "tagged-z2_r2", "tagged-z2_r3",
]


@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_normal_form_equals_the_reference_with_cold_and_warm_tables(kind, monkeypatch):
    if kind.endswith(("-relations", "-tagged")):
        rung, basis_kind = kind.split("-")
        hilbert = invariant_generators(closure(LADDER[rung]))
        built = relations(hilbert).basis if basis_kind == "relations" else hilbert.tag_basis
    else:
        built = kept_bases()[kind]
    gb = GroebnerBasis(built.generators, built.order)  # equal, with a table of its own
    assert gb == built and gb._forms == {}
    ring = gb.generators[0].ring
    rng = random.Random(f"tabled-normal-form-{kind}")
    polys = [random_poly(rng, ring, 4, 5) for _ in range(25)]
    expected = [reference_divide(p, gb.generators, gb.order)[0] for p in polys]
    assert [normal_form(p, gb) for p in polys] == expected
    assert set(gb._forms) == {e for p in polys for e in p.terms}
    divisions = []
    monkeypatch.setattr(groebner, "divide", lambda *a, **k: divisions.append(a))
    assert [normal_form(p, gb) for p in polys] == expected
    assert divisions == []
    monkeypatch.undo()
    # More polynomials on the warm table; every entry, old or new, is the
    # remainder of its monomial.
    for p in [random_poly(rng, ring, 4, 5) for _ in range(10)]:
        assert normal_form(p, gb) == reference_divide(p, gb.generators, gb.order)[0]
    for e, form in gb._forms.items():
        assert form == reference_divide(ring.monomial(e), gb.generators, gb.order)[0]


def test_buchberger_builds_no_fraction_view(fraction_views_built):
    # Buchberger, division and normal forms run on the integer numerators
    # alone: no polynomial's Fraction coefficients are made on the way.
    gens = random_ideal(random.Random(28), PolyRing.ambient(3), count=4)
    basis = buchberger(gens)
    for g in gens:
        assert normal_form(g * g + g, basis).is_zero()
    assert fraction_views_built == []
    assert str(basis.generators[0]) and fraction_views_built == [basis.generators[0]]


@pytest.mark.parametrize("order", [GREVLEX, LEX, BlockOrder(1), BlockOrder(2)])
def test_tracked_basis_properties(order):
    """Every element is exactly its tracked combination of the inputs, and
    the output is a monic, interreduced, sorted Groebner basis."""
    ring = PolyRing.ambient(3)
    rng = random.Random(41)
    for _ in range(10):
        gens = random_ideal(rng, ring)
        tracked = _buchberger_tracked([(g,) for g in gens], order, len(gens))
        basis = [t.vec[0] for t in tracked]
        leads = [p.leading(order)[0] for p in basis]
        for t in tracked:
            combination = ring.zero()
            for r, g in zip(t.rep, gens):
                combination = combination + r * g
            assert (combination,) == t.vec
            assert (t.pos, t.lead) == (0, t.vec[0].leading(order))
            assert t.lead[1] == 1
        keys = [order.key(lm) for lm in leads]
        assert keys == sorted(keys, reverse=True) and len(set(keys)) == len(keys)
        for k, p in enumerate(basis):
            for exps, _ in p:
                assert not any(
                    mono_divides(lm, exps) for m, lm in enumerate(leads) if m != k
                )
        for a in range(len(basis)):
            for b in range(a + 1, len(basis)):
                lcm = mono_lcm(leads[a], leads[b])
                ua, ub = mono_div(lcm, leads[a]), mono_div(lcm, leads[b])
                s_poly = basis[a].mul_monomial(ua) - basis[b].mul_monomial(ub)
                assert divide(s_poly, basis, order)[0].is_zero()
        for g in gens:
            assert divide(g, basis, order)[0].is_zero()


@pytest.mark.parametrize("order", [GREVLEX, LEX, BlockOrder(1), BlockOrder(2)])
def test_untracked_basis_equals_tracked_basis(order):
    """``buchberger`` runs the same loop on rank-1 vectors and tracks no
    columns, so its representations are empty, but builds the same basis."""
    ring = PolyRing.ambient(3)
    rng = random.Random(43)
    for _ in range(10):
        vectors = [(g,) for g in random_ideal(rng, ring)]
        tracked = _buchberger_tracked(vectors, order, len(vectors))
        gens = [v[0] for v in vectors]
        assert buchberger(gens, order).generators == tuple(t.vec[0] for t in tracked)
        assert all(t.rep == [] for t in _buchberger_tracked(vectors, order, 0))


@pytest.mark.parametrize("order", [GREVLEX, LEX, BlockOrder(1), BlockOrder(2)])
def test_hilbert_driven_basis_equals_the_plain_loop(order, hilbert_certificates):
    """Random ideals homogeneous for random weights, with the series of the
    quotient read off a plain run: the Hilbert-driven run on the same
    generators ends with the same reduced basis."""
    ring = PolyRing.ambient(3)
    rng = random.Random(53)
    runs = 0
    while runs < 12:
        weights = [rng.randint(1, 2) for _ in range(ring.nvars)]
        gens = [random_homogeneous(rng, ring, rng.randint(2, 4), weights) for _ in range(3)]
        gens = [g for g in gens if g is not None]
        plain = buchberger(gens, order).generators
        known = quotient_series([g.leading(order)[0] for g in plain], weights)
        driven = _buchberger_tracked([(g,) for g in gens], order, 0, hilbert=(weights, known))
        assert tuple(t.vec[0] for t in driven) == plain
        runs += 1
    assert len(hilbert_certificates) == runs


def tagged_z2_generators():
    """y_j - sigma_j(x) for the Z2/R^2 map (x1^2, x2^2, x1*x2), homogeneous
    when y_j has weight 2; its quotient has the series 1/(1 - t)^2."""
    combined = AMBIENT.joined(ORBIT)
    sigma = [x("x1^2"), x("x2^2"), x("x1*x2")]
    return [(combined.variable(2 + j) - embed(s, combined, 0),) for j, s in enumerate(sigma)]


@pytest.mark.parametrize(
    "known",
    [
        # more standard monomials than the basis leaves: refused at the
        # first degree where the leads already cover too many
        ([1], one_minus_powers([1, 1, 1])),
        # fewer: no pair is ever dropped, and only the final series check
        # tells the run apart from a correct one
        ([1], one_minus_powers([1])),
    ],
)
def test_hilbert_driven_run_refuses_a_wrong_known_series(known):
    with pytest.raises(AssertionError, match="internal error"):
        _buchberger_tracked(
            tagged_z2_generators(), BlockOrder(2), 0, hilbert=([1, 1, 2, 2, 2], known)
        )
    # the true series certifies the same generators
    right = ([1], one_minus_powers([1, 1]))
    driven = _buchberger_tracked(
        tagged_z2_generators(), BlockOrder(2), 0, hilbert=([1, 1, 2, 2, 2], right)
    )
    plain = buchberger([g for (g,) in tagged_z2_generators()], BlockOrder(2))
    assert tuple(t.vec[0] for t in driven) == plain.generators


def test_hilbert_driven_run_refuses_a_non_integral_known_series():
    """1 / (2 (1 - t)^2) has the coefficient 1/2 at t^0, which no Hilbert
    function has: the first pair's degree reads it and is refused."""
    known = ([1], [2 * c for c in one_minus_powers([1, 1])])
    with pytest.raises(ValueError, match="not an integer"):
        _buchberger_tracked(
            tagged_z2_generators(), BlockOrder(2), 0, hilbert=([1, 1, 2, 2, 2], known)
        )


@pytest.mark.parametrize("drop", [1, 2])
def test_eliminate_reads_off_the_reduced_grevlex_basis(drop):
    """The x-free part of the block basis needs no second Buchberger run."""
    ring = PolyRing.ambient(3)
    rng = random.Random(47)
    nonzero = 0
    for _ in range(10):
        gb = eliminate(random_ideal(rng, ring), drop)
        assert gb.order is GREVLEX
        assert buchberger(list(gb.generators), GREVLEX).generators == gb.generators
        nonzero += bool(gb.generators)
    assert nonzero > 0


def test_eliminate_recovers_relation():
    combined = PolyRing.ambient(2).joined(ORBIT)
    tags = []
    for j, sigma in enumerate(SIGMA):
        tags.append(combined.variable(2 + j) - embed(sigma, combined, 0))
    gb = eliminate(tags, 2)
    assert gb.generators == relation_basis().generators


def test_eliminate_trivial_cases():
    pair = PolyRing.ambient(2).joined(PolyRing.orbit(2))
    identity_graph = [
        pair.variable(2) - pair.variable(0),
        pair.variable(3) - pair.variable(1),
    ]
    assert eliminate(identity_graph, 2).generators == ()

    elementary = [
        pair.variable(2) - (pair.variable(0) + pair.variable(1)),
        pair.variable(3) - pair.variable(0) * pair.variable(1),
    ]
    assert eliminate(elementary, 2).generators == ()


def test_elementary_symmetric_brute_force_independence():
    # no y-polynomial of degree <= 6 vanishes under y1 -> x1+x2, y2 -> x1*x2
    pair = PolyRing.orbit(2)
    values = [x("x1 + x2"), x("x1*x2")]
    monos = monomials_up_to(pair, 6)
    images = [pair.monomial(m).substitute(values) for m in monos]
    columns = monomials_up_to(AMBIENT, 12)
    rows = [coefficient_vector(img, columns) for img in images]
    assert linalg.rank(rows, len(columns)) == len(monos)


def golden_columns():
    return [
        [y("2*y1"), y("0"), y("y3")],
        [y("2*y3"), y("0"), y("y2")],
        [y("0"), y("2*y3"), y("y1")],
        [y("0"), y("2*y2"), y("y3")],
    ]


def test_module_solve_generator_membership():
    one = PolyRing.orbit(2)
    e1 = [one.one(), one.zero()]
    e2 = [one.zero(), one.one()]
    problem = SubmoduleProblem(2, [e1, e2], buchberger([]))
    result = module_solve(e1, problem)
    assert result.member
    assert [str(w) for w in result.witness] == ["1", "0"]


def test_module_solve_golden_columns():
    gb = relation_basis()
    columns = golden_columns()
    problem = SubmoduleProblem(3, columns, gb)
    for k, column in enumerate(columns):
        result = module_solve(column, problem)
        assert result.member
        # witness reconstructs the target modulo the relation ideal
        for j in range(3):
            acc = ORBIT.zero()
            for w, col in zip(result.witness, columns):
                acc = acc + w * col[j]
            assert normal_form(acc - column[j], gb).is_zero()


@pytest.mark.parametrize("ideal", ["relations", "zero"])
def test_the_witness_check_accepts_the_combinations_equal_to_the_target(ideal):
    """Modulo the relations each row's residue is read through the basis's
    normal-form table; modulo the zero ideal each row's sum must equal the
    target.  A target in another ring is refused by the ring check."""
    gb = relation_basis() if ideal == "relations" else buchberger([])
    columns = golden_columns()
    problem = SubmoduleProblem(3, columns, gb)
    coefficients = [y("y1"), y("1/2"), y("0"), y("-y3")]
    target = [sum((c * col[j] for c, col in zip(coefficients, columns)), ORBIT.zero()) for j in range(3)]
    groebner._verify_combination(problem, coefficients, target, "witness")
    shifted = [target[0] + RELATION * y("y2")] + target[1:]  # equal modulo the relations
    wrong = [target[:2] + [target[2] + y("1/3")]]
    if ideal == "relations":
        groebner._verify_combination(problem, coefficients, shifted, "witness")
    else:
        wrong.append(shifted)
    for rows in wrong:
        with pytest.raises(AssertionError, match="witness failed verification"):
            groebner._verify_combination(problem, coefficients, rows, "witness")
    foreign = [parse_polynomial("y1", PolyRing.orbit(4))] + target[1:]
    with pytest.raises(ValueError, match="incompatible rings"):
        groebner._verify_combination(problem, coefficients, foreign, "witness")


def test_module_basis_is_built_once_per_problem(count_module_basis_builds):
    builds = count_module_basis_builds()
    columns = golden_columns()
    problem = SubmoduleProblem(3, columns, relation_basis())
    with pytest.raises(ComputationCancelled):
        module_solve(columns[0], problem, cancel=lambda: True)
    for column in columns:
        assert module_solve(column, problem).member
    assert not module_solve([y("1"), y("0"), y("0")], problem).member
    assert len(builds) == 2  # the cancelled build, then one for every solve


def test_module_basis_keeps_its_divisor_lists(monkeypatch):
    """The divisor lists of a problem's module basis are built once, beside
    it: later solves, syzygies and initial-submodule reads build none."""
    built = []
    divisors_class = groebner._Divisors

    class Counting(divisors_class):
        def __init__(self, basis):
            built.append(basis)
            super().__init__(basis)

    monkeypatch.setattr(groebner, "_Divisors", Counting)
    columns = golden_columns()
    problem = SubmoduleProblem(3, columns, relation_basis())
    assert module_solve(columns[0], problem).member
    kept = problem._basis[2]
    before = len(built)
    for column in columns:
        assert module_solve(column, problem).member
    assert not module_solve([y("1"), y("y1"), y("0")], problem).member
    groebner._span_syzygies(problem)
    groebner._position_leads(problem)
    assert len(built) == before
    assert sum(basis is problem._basis[1] for basis in built) == 1
    assert isinstance(kept, Counting) and problem._basis[2] is kept


def test_module_solve_not_member():
    problem = SubmoduleProblem(1, [[y("y1")]], buchberger([]))
    result = module_solve([y("y2")], problem)
    assert not result.member
    assert result.certificate is not None


def test_module_solve_ideal_padding_absorbs():
    gb = relation_basis()
    problem = SubmoduleProblem(1, [[y("y2^3")]], gb)
    result = module_solve([RELATION], problem)
    assert result.member
    assert all(w.is_zero() for w in result.witness)


def test_module_solve_rank_mismatch():
    problem = SubmoduleProblem(2, [[y("y1"), y("y2")]], buchberger([]))
    with pytest.raises(ValueError):
        module_solve([y("y1")], problem)


def test_rank_zero_problems_are_rejected():
    with pytest.raises(ValueError, match="rank must be positive"):
        SubmoduleProblem(0, ((),), buchberger([]))
    with pytest.raises(ValueError, match="rank must be positive"):
        syzygies([[]], buchberger([]))


def test_syzygies_duplicate_columns():
    one = PolyRing.orbit(1)
    unit = [one.one()]
    rows = syzygies([unit, unit], buchberger([]))
    assert len(rows) == 1
    row = tuple(rows[0])
    assert row in ((one.one(), -one.one()), (-one.one(), one.one()))


def test_syzygies_single_free_column():
    one = PolyRing.orbit(1)
    assert not syzygies([[one.one()]], buchberger([]))
    assert not syzygies([[parse_polynomial("y1", one)]], buchberger([]))


def test_syzygies_golden_columns_annihilate():
    gb = relation_basis()
    columns = golden_columns()
    rows = syzygies(columns, gb)
    assert rows
    for row in rows:
        for j in range(3):
            acc = ORBIT.zero()
            for c, col in zip(row, columns):
                acc = acc + c * col[j]
            assert normal_form(acc, gb).is_zero()


# ---------------------------------------------------------------------------
# an independent module membership oracle: for homogeneous columns and a
# homogeneous ideal, the degree-d members are spanned by monomial multiples
# of the columns and of e_i * g for every ideal generator g
# ---------------------------------------------------------------------------

def homogeneous_vector(rng, ring, rank, degree):
    monos = [m for m in monomials_up_to(ring, degree) if sum(m) == degree]
    return tuple(
        ring.from_terms({rng.choice(monos): rng.randint(-3, 3) for _ in range(2)})
        for _ in range(rank)
    )


def module_membership_oracle(target, columns, ideal_gens, degree):
    ring = target[0].ring
    rank = len(target)
    monos = monomials_up_to(ring, degree)

    def flat(vector):
        return [c for comp in vector for c in coefficient_vector(comp, monos)]

    generators = [tuple(col) for col in columns]
    for g in ideal_gens:
        for i in range(rank):
            generators.append(tuple(g if k == i else ring.zero() for k in range(rank)))
    rows = []
    for vector in generators:
        vector_degree = max(c.degree() for c in vector)
        if vector_degree < 0 or vector_degree > degree:
            continue
        for m in monomials_up_to(ring, degree - vector_degree):
            rows.append(flat([c.mul_monomial(m) for c in vector]))
    width = rank * len(monos)
    return linalg.rank(rows + [flat(target)], width) == linalg.rank(rows, width)


# two relations whose leading monomials y1*y2 and y2^2 share a variable, so
# the module bases form ideal pairs
TWO_RELATIONS = [y("y3^2 - y1*y2"), y("y2^2 - y1*y3")]


@pytest.mark.parametrize(
    "ideal_gens", [[], [RELATION], TWO_RELATIONS], ids=["free", "relation", "two_relations"]
)
def test_module_solve_matches_linear_algebra_oracle(ideal_gens):
    rng = random.Random(24 + len(ideal_gens))
    ideal = buchberger(ideal_gens)
    outcomes = set()
    for _ in range(4):
        rank = rng.randint(1, 3)
        degrees = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
        columns = tuple(homogeneous_vector(rng, ORBIT, rank, d) for d in degrees)
        problem = SubmoduleProblem(rank, columns, ideal)
        for _ in range(5):
            degree = rng.randint(2, 3)
            if rng.random() < 0.5:
                target = homogeneous_vector(rng, ORBIT, rank, degree)
            else:
                # a member by construction, plus an ideal multiple in one slot
                target = [ORBIT.zero()] * rank
                for col, d in zip(columns, degrees):
                    h = homogeneous_vector(rng, ORBIT, 1, degree - d)[0]
                    target = [t + h * c for t, c in zip(target, col)]
                for g in ideal_gens:
                    h = homogeneous_vector(rng, ORBIT, 1, degree - g.degree())[0]
                    target[0] = target[0] + h * g
            result = module_solve(target, problem)
            assert result.member == module_membership_oracle(
                target, columns, ideal_gens, degree
            )
            outcomes.add(result.member)
    assert outcomes == {True, False}


def test_module_basis_elements_are_their_column_combinations():
    """Only the columns enter the basis: each element is the combination its
    representation says of them, modulo the ideal at every position, and is
    reduced modulo the ideal with its leading term at its first nonzero
    position."""
    gb = relation_basis()
    columns = golden_columns()
    ring, tracked, _ = _module_basis(SubmoduleProblem(3, columns, gb), None)
    elements = [t for t in tracked if t.pos >= 0]
    assert ring == ORBIT and elements
    assert [t.vec for t in tracked[len(elements) :]] == [(g,) for g in gb.generators]
    for t in elements:
        assert len(t.vec) == 3 and len(t.rep) == len(columns)
        assert all(c.is_zero() for c in t.vec[: t.pos])
        assert t.lead == (t.vec[t.pos].leading(GREVLEX)[0], 1)
        for j, component in enumerate(t.vec):
            assert normal_form(component, gb) == component
            total = component
            for r, col in zip(t.rep, columns):
                total = total - r * col[j]
            assert normal_form(total, gb).is_zero()


# Module layer outputs, pinned: the witness or certificate of each target,
# then the syzygy rows.  Representations over the columns alone must give
# the same answers as representations over every input did.
SPAN_RING = PolyRing.orbit(6)
SPAN_COLUMNS = [
    ["2*y1", "y2", "0", "y4", "0", "0"],
    ["0", "y1", "2*y2", "0", "y4", "0"],
    ["0", "0", "0", "y1", "y2", "2*y4"],
    ["2*y2", "y3", "0", "y5", "0", "0"],
    ["0", "y2", "2*y3", "0", "y5", "0"],
    ["0", "0", "0", "y2", "y3", "2*y5"],
    ["2*y4", "y5", "0", "y6", "0", "0"],
    ["0", "y4", "2*y5", "0", "y6", "0"],
    ["0", "0", "0", "y4", "y5", "2*y6"],
]
SPAN_RELATIONS = [
    "y2^2 - y1*y3", "y2*y4 - y1*y5", "y3*y4 - y2*y5",
    "y4^2 - y1*y6", "y4*y5 - y2*y6", "y5^2 - y3*y6",
]
PINNED_MODULE_OUTPUTS = {
    "golden": (
        ORBIT,
        [["2*y1", "0", "y3"], ["2*y3", "0", "y2"], ["0", "2*y3", "y1"], ["0", "2*y2", "y3"]],
        ["y3^2 - y1*y2"],
        [
            ["2*y1", "0", "y3"], ["0", "2*y2", "y3"],
            ["2*y1*y2 + y3^2 - y1*y2", "0", "y2*y3"],
            ["1", "0", "0"], ["y1", "y2", "y3"], ["2*y3^2", "2*y1*y2", "2*y1*y3"],
        ],
        [
        'witness: 1, 0, 0, 0',
        'witness: 0, 0, 0, 1',
        'witness: 1/2*y2, 1/2*y3, 0, 0',
        'certificate: 1, 0, 0',
        'witness: 1/2, 0, 0, 1/2',
        'certificate: 0, 0, y1*y3 - y2*y3',
        'syzygy: 0, 0, y2, -y3',
        'syzygy: 0, 0, y3, -y1',
        'syzygy: y2, -y3, 0, 0',
        'syzygy: y3, -y1, 0, 0',
        ],
    ),
    "z2_r3_span": (
        SPAN_RING,
        SPAN_COLUMNS,
        SPAN_RELATIONS,
        [
            SPAN_COLUMNS[4], SPAN_COLUMNS[8],
            ["2*y1*y2 + y2^2 - y1*y3", "y2^2 + y1*y3", "2*y2*y3", "y2*y4", "y3*y4", "0"],
            ["1", "0", "0", "0", "0", "0"], ["y1", "y2", "y3", "y4", "y5", "y6"],
            ["0", "y1", "0", "0", "0", "y3"],
        ],
        [
        'witness: 0, 0, 0, 0, 1, 0, 0, 0, 0',
        'witness: 0, 0, 0, 0, 0, 0, 0, 0, 1',
        'witness: y2 - 1/2*y3, y3, 0, 1/2*y2, 0, y4 - 1/2*y5, 0, 0, -y2 + 1/2*y3',
        'certificate: 1, 0, 0, 0, 0, 0',
        'witness: 1/2, 0, 0, 0, 1/2, 0, 0, 0, 1/2',
        'certificate: 0, 0, -2*y2, 0, -y4, y3',
        'syzygy: 0, 0, 0, 0, 0, y4, 0, 0, -y2',
        'syzygy: 0, 0, 0, 0, 0, y5, 0, 0, -y3',
        'syzygy: 0, 0, 0, 0, 0, y6, 0, 0, -y5',
        'syzygy: 0, 0, 0, 0, y4, 0, 0, -y2, 0',
        'syzygy: 0, 0, 0, 0, y5, 0, 0, -y3, 0',
        'syzygy: 0, 0, 0, 0, y6, 0, 0, -y5, 0',
        'syzygy: 0, 0, 0, y4, y5, y6, -y2, -y3, -y5',
        'syzygy: 0, 0, 0, y5, 0, 0, -y3, 0, 0',
        'syzygy: 0, 0, 0, y6, 0, 0, -y5, 0, 0',
        'syzygy: 0, 0, y2, 0, 0, -y1, 0, 0, 0',
        'syzygy: 0, 0, y3, 0, 0, -y2, 0, 0, 0',
        'syzygy: 0, 0, y4, 0, 0, 0, 0, 0, -y1',
        'syzygy: 0, 0, y5, 0, 0, -y4, 0, 0, 0',
        'syzygy: 0, 0, y5, 0, 0, 0, 0, 0, -y2',
        'syzygy: 0, 0, y6, 0, 0, 0, 0, 0, -y4',
        'syzygy: 0, y2, 0, 0, -y1, 0, 0, 0, 0',
        'syzygy: 0, y3, 0, 0, -y2, 0, 0, 0, 0',
        'syzygy: 0, y4, 0, 0, 0, 0, 0, -y1, 0',
        'syzygy: 0, y5, 0, 0, -y4, 0, 0, 0, 0',
        'syzygy: 0, y5, 0, 0, 0, 0, 0, -y2, 0',
        'syzygy: 0, y6, 0, 0, 0, 0, 0, -y4, 0',
        'syzygy: y2, y3, y5, -y1, -y2, 0, 0, 0, -y2',
        'syzygy: y3, 0, 0, -y2, 0, y5, 0, 0, -y3',
        'syzygy: y4, y5, y6, 0, -y4, 0, -y1, 0, -y4',
        'syzygy: y5, 0, 0, -y4, -y5, 0, 0, y3, 0',
        'syzygy: y5, 0, 0, 0, 0, y6, -y2, 0, -y5',
        'syzygy: y6, 0, 0, 0, -y6, 0, -y4, y5, 0',
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_MODULE_OUTPUTS))
def test_module_layer_outputs_are_pinned(name):
    """Golden rank-3 columns with one relation, and the Z2/R^3 generator
    span (9 columns, 6 relations).  Neither module basis holds an ideal
    multiple: the Z2/R^3 one has 9 elements."""
    ring, columns, relations, targets, expected = PINNED_MODULE_OUTPUTS[name]
    columns = tuple(tuple(parse_polynomial(t, ring) for t in col) for col in columns)
    gb = buchberger([parse_polynomial(t, ring) for t in relations])
    problem = SubmoduleProblem(len(columns[0]), columns, gb)
    lines = []
    for target in targets:
        outcome = module_solve([parse_polynomial(t, ring) for t in target], problem)
        vector = outcome.witness if outcome.member else outcome.certificate
        kind = "witness" if outcome.member else "certificate"
        lines.append(f"{kind}: " + ", ".join(str(p) for p in vector))
    for row in syzygies(columns, gb):
        lines.append("syzygy: " + ", ".join(str(p) for p in row))
    assert lines == expected
    _, tracked, _ = problem._basis
    assert sum(t.pos >= 0 for t in tracked) == {"golden": 4, "z2_r3_span": 9}[name]
    assert all(len(t.rep) == len(columns) for t in tracked)


def homogeneous_syzygies(columns, ideal_gens, degree):
    """A basis of the syzygies of homogeneous ``columns`` modulo the ideal
    in row degree ``degree`` (entry j of degree ``degree - deg column_j``),
    from the dense nullspace of (c, h) -> sum(c_j * column_j) - sum(h_ik * e_i * g_k)."""
    ring = columns[0][0].ring
    rank = len(columns[0])
    monos = monomials_up_to(ring, degree)
    top = [m for m in monos if sum(m) == degree]
    unknowns = []  # (column j, None, monomial) or (None, position i, ideal multiple)
    for j, col in enumerate(columns):
        d = max(c.degree() for c in col)
        unknowns += [(j, None, m) for m in monos if sum(m) == degree - d]
    for i in range(rank):
        for g in ideal_gens:
            multiples = [m for m in monos if sum(m) == degree - g.degree()]
            unknowns += [(None, i, g.mul_monomial(m)) for m in multiples]
    images = []
    for j, i, m in unknowns:
        if j is None:
            vector = [m if k == i else ring.zero() for k in range(rank)]
        else:
            vector = [c.mul_monomial(m) for c in columns[j]]
        images.append([c for comp in vector for c in coefficient_vector(comp, top)])
    matrix = [[image[e] for image in images] for e in range(rank * len(top))]
    rows = []
    for kernel in nullspace(matrix, len(unknowns)):
        row = [ring.zero()] * len(columns)
        for coeff, (j, _, m) in zip(kernel, unknowns):
            if j is not None and coeff:
                row[j] = row[j] + ring.monomial(m, coeff)
        rows.append(row)
    return rows


@pytest.mark.parametrize(
    "columns, ideal_gens, degree",
    [
        (golden_columns(), [RELATION], 4),
        ([[y("y1"), y("y2")], [y("y2"), y("y3")], [y("y1*y3"), y("y2^2")]], TWO_RELATIONS, 4),
        (
            [[parse_polynomial(t, SPAN_RING) for t in col] for col in SPAN_COLUMNS],
            [parse_polynomial(t, SPAN_RING) for t in SPAN_RELATIONS],
            2,
        ),
    ],
    ids=["golden", "two_relations", "z2_r3_span"],
)
def test_syzygies_are_complete_against_a_dense_oracle(columns, ideal_gens, degree):
    """Every syzygy of homogeneous columns up to ``degree`` lies in the span
    of the returned rows, their monomial multiples, and the ideal."""
    ring = columns[0][0].ring
    returned = syzygies(columns, buchberger(ideal_gens))
    widths = [max(c.degree() for c in col) for col in columns]
    for d in range(degree + 1):
        monos = monomials_up_to(ring, d)

        def flat(row):
            return [c for entry in row for c in coefficient_vector(entry, monos)]

        span = []
        for row in returned:
            shift = d - max(c.degree() + w for c, w in zip(row, widths) if not c.is_zero())
            span += [flat([c.mul_monomial(m) for c in row]) for m in monos if sum(m) == shift]
        for j, w in enumerate(widths):
            for g in ideal_gens:
                for m in monos:
                    if sum(m) == d - w - g.degree():
                        row = [ring.zero()] * len(columns)
                        row[j] = g.mul_monomial(m)
                        span.append(flat(row))
        found = [flat(row) for row in homogeneous_syzygies(columns, ideal_gens, d)]
        width = len(columns) * len(monos)
        assert linalg.rank(span + found, width) == linalg.rank(span, width)


def test_module_layer_rejects_a_component_from_another_ring():
    problem = SubmoduleProblem(3, golden_columns(), relation_basis())
    with pytest.raises(ValueError, match="outside the scalar ring"):
        module_solve([x("x1"), x("0"), x("0")], problem)
    other = SubmoduleProblem(1, [[x("x1")]], relation_basis())
    with pytest.raises(ValueError, match="outside the scalar ring"):
        module_solve([x("x1")], other)


def test_cancellation_token():
    calls = {"n": 0}

    def cancel():
        calls["n"] += 1
        return True

    with pytest.raises(ComputationCancelled):
        buchberger([x("x1^2 + x2^2"), x("x1*x2")], cancel=cancel)
    assert calls["n"] >= 1

    combined = PolyRing.ambient(2).joined(ORBIT)
    tags = [
        combined.variable(2 + j) - embed(sigma, combined, 0)
        for j, sigma in enumerate(SIGMA)
    ]
    with pytest.raises(ComputationCancelled):
        eliminate(tags, 2, cancel=lambda: True)


def tagged_quadrics_generators():
    """y_j - sigma_j(x) for the six quadrics sigma of -Id on R^3, with the
    weights that make them homogeneous and the series 1/(1 - t)^3 of their
    quotient: a driven run that pops about two hundred pairs."""
    ambient = PolyRing.ambient(3)
    sigma = [ambient.monomial(e) for e in ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))]
    combined = ambient.joined(PolyRing.orbit(6))
    gens = [(combined.variable(3 + j) - embed(s, combined, 0),) for j, s in enumerate(sigma)]
    return gens, ([1, 1, 1] + [2] * 6, ([1], one_minus_powers([1, 1, 1])))


def driven_tagged_build(cancel):
    gens, hilbert = tagged_quadrics_generators()
    return _buchberger_tracked(gens, BlockOrder(3), 0, cancel=cancel, hilbert=hilbert)


def module_build(cancel):
    gb = relation_basis()
    columns = golden_columns()
    return _buchberger_tracked(columns, gb.order, len(columns), gb, cancel)


def firing_on(k):
    """A cancellation hook that fires on its ``k``-th call (never for
    None), and the list its calls are recorded in."""
    calls = []

    def hook():
        calls.append(None)
        return len(calls) == k

    return hook, calls


@pytest.mark.parametrize("build", [driven_tagged_build, module_build])
def test_cancellation_fires_after_exactly_k_polls(build, hilbert_certificates):
    """The hook is polled once per popped pair: one that fires on its k-th
    call stops the run after exactly k polls, and one that never fires
    leaves the basis, representations included, as the run with no hook."""
    hook, calls = firing_on(None)
    assert build(hook) == build(None)
    total = len(calls)
    assert total >= 3
    for k in sorted({1, 2, total // 2, total}):
        hook, calls = firing_on(k)
        with pytest.raises(ComputationCancelled):
            build(hook)
        assert len(calls) == k
    # only the two completed driven runs reach their series check
    assert len(hilbert_certificates) == (2 if build is driven_tagged_build else 0)
