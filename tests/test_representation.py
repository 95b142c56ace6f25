"""The integer-content layout of ``Polynomial``: integer numerators over one
positive denominator in lowest terms, checked against a ``Fraction``-dict
oracle along seeded chains of operations."""

import math
import random
from fractions import Fraction

import pytest

from conftest import o_combine, o_mul, o_substitute, reference_divide
from orbitcalc.algebra import (
    GREVLEX, LEX, PolyRing, Polynomial, _tabled_sum, _tabled_vanish, combination, parse_polynomial
)
from orbitcalc.groebner import _normal_form_items, buchberger, divide
from orbitcalc.invariants import RelationIdeal

ORBIT = PolyRing.orbit(3)
AMBIENT = PolyRing.ambient(2)
# the relation of the golden Z2/R^2 space, y1 = x1^2, y2 = x2^2, y3 = x1*x2
RELATIONS = RelationIdeal(buchberger([parse_polynomial("y3^2 - y1*y2", ORBIT)]))


# ---------------------------------------------------------------------------
# the Fraction-dict oracle (sums, products and substitution in conftest)
# ---------------------------------------------------------------------------

def o_mul_monomial(a, exps, c):
    return {tuple(map(sum, zip(e, exps))): c * v for e, v in a.items()} if c else {}


def o_derivative(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in a.items() if e[i]}


def o_str(terms, ring):
    """The canonical text, written out from the Fraction coefficients."""
    if not terms:
        return "0"
    pieces = []
    for e in sorted(terms, key=GREVLEX.key, reverse=True):
        c = terms[e]
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(ring.names, e) if k)
        mag = abs(c)
        body = mono if mono and mag == 1 else f"{mag}*{mono}" if mono else str(mag)
        if pieces:
            pieces.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            pieces.append(f"-{body}" if c < 0 else body)
    return " ".join(pieces)


def random_terms(rng, ring, max_degree=3, max_terms=4):
    out = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in range(ring.nvars))
        out = o_combine(out, {exps: Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 35]))}, 1)
    return out


def random_divisor_terms(rng, ring):
    """Nonzero, with a leading coefficient that is often a negative or
    non-unit integer."""
    terms = random_terms(rng, ring, 2, 3) or {(1,) + (0,) * (ring.nvars - 1): Fraction(1)}
    lead = max(terms, key=GREVLEX.key)
    factor = Fraction(rng.choice([-5, -3, -2, -1, 2, 3, 6, Fraction(-7, 3)])) / terms[lead]
    return {e: c * factor for e, c in terms.items()}


def assert_canonical(p, oracle):
    """p is in lowest terms over a positive denominator and equals the
    oracle in every view."""
    assert p._den > 0
    assert all(p._num.values())
    assert math.gcd(p._den, *p._num.values()) == 1
    assert type(p.terms) is dict and p.terms == oracle
    assert all(type(c) is Fraction for c in p.terms.values())
    assert str(p) == o_str(oracle, p.ring)
    for twin in (Polynomial(p.ring, oracle), p.scale(6).scale(Fraction(1, 6)), p + p.ring.zero()):
        assert twin == p and hash(twin) == hash(p)


# ---------------------------------------------------------------------------
# chains of operations
# ---------------------------------------------------------------------------

def step(rng, p, oracle):
    """One random operation on (p, oracle); both sides of the pair move."""
    ring = p.ring
    op = rng.choice(
        ["add", "sub", "mul", "neg", "scale", "mul_monomial", "derivative", "substitute", "divide", "normal"]
    )
    if op in ("add", "sub", "mul"):
        other = random_terms(rng, ring, 2, 3)
        q = Polynomial(ring, other)
        if op == "add":
            return p + q, o_combine(oracle, other, 1)
        if op == "sub":
            return p - q, o_combine(oracle, other, -1)
        return p * q, o_mul(oracle, other)
    if op == "neg":
        return -p, {e: -c for e, c in oracle.items()}
    if op == "scale":
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 9))
        return p.scale(c), o_mul_monomial(oracle, (0,) * ring.nvars, c)
    if op == "mul_monomial":
        exps = tuple(rng.randint(0, 1) for _ in range(ring.nvars))
        c = Fraction(rng.choice([-4, -1, 1, 3]), rng.choice([1, 2, 5]))
        return p.mul_monomial(exps, c), o_mul_monomial(oracle, exps, c)
    if op == "derivative":
        i = rng.randrange(ring.nvars)
        return p.partial_derivative(i), o_derivative(oracle, i)
    if op == "substitute":
        values = [random_terms(rng, ring, 1, 2) for _ in range(ring.nvars)]
        return p.substitute([Polynomial(ring, v) for v in values]), o_substitute(oracle, values, ring.nvars)
    if op == "divide":
        order = rng.choice([GREVLEX, LEX])
        divisors = [Polynomial(ring, random_divisor_terms(rng, ring)) for _ in range(rng.randint(1, 3))]
        remainder, quotients = divide(p, divisors, order)
        expected, expected_quotients = reference_divide(Polynomial(ring, oracle), divisors, order)
        for q, want in zip(quotients, expected_quotients):
            assert_canonical(q, dict(want.terms))
        return remainder, dict(expected.terms)
    expected, _ = reference_divide(Polynomial(ring, oracle), RELATIONS.basis.generators, GREVLEX)
    return RELATIONS.normal(p), dict(expected.terms)


@pytest.mark.parametrize("seed", range(6))
def test_chains_stay_canonical_and_match_the_fraction_oracle(seed):
    rng = random.Random(1600 + seed)
    for _ in range(15):
        oracle = random_terms(rng, ORBIT)
        p = Polynomial(ORBIT, oracle)
        assert_canonical(p, oracle)
        for _ in range(10):
            p, oracle = step(rng, p, oracle)
            assert_canonical(p, oracle)
            if len(oracle) > 24 or max(map(sum, oracle), default=0) > 7:
                break


# ---------------------------------------------------------------------------
# the sum-of-products kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_combination_matches_the_fraction_oracle(seed):
    # Operands come from a small pool, so products share exponents, and
    # their denominators (1, 2, 3, 4, 6, 35) differ, so the running
    # denominator grows and the settled numerators must be rescaled.
    rng = random.Random(1700 + seed)
    pool = [random_terms(rng, ORBIT, 2, 3) for _ in range(6)] + [{}]
    for _ in range(40):
        products, oracle = [], {}
        for _ in range(rng.randint(0, 5)):
            a, b = rng.choice(pool), rng.choice(pool)
            sign = rng.choice([1, -1])
            products.append((sign, Polynomial(ORBIT, a), Polynomial(ORBIT, b)))
            oracle = o_combine(oracle, o_mul(a, b), sign)
        assert_canonical(combination(ORBIT, products), oracle)
        if products:
            _, a, b = products[0]
            assert_canonical(a * b, o_mul(dict(a.terms), dict(b.terms)))


def test_combination_cancels_across_denominators():
    # the second product grows the denominator from 6 to 12, and the first
    # product's numerator must follow before the third cancels it
    half, third = x("1/2*x1"), x("1/3*x2")
    total = combination(AMBIENT, [(1, half, third), (1, half, half), (-1, third, half)])
    assert total == x("1/4*x1^2") and (total._den, total._num) == (4, {(2, 0): 1})
    assert combination(AMBIENT, [(1, half, third), (-1, x("1/6*x1*x2"), AMBIENT.one())]).is_zero()
    assert combination(AMBIENT, []) == AMBIENT.zero()
    with pytest.raises(ValueError, match="incompatible rings"):
        combination(AMBIENT, [(1, half, ORBIT.one())])


def relation_items(factor, p):
    """factor * NF(p) modulo RELATIONS as tabled-sum items."""
    return [(factor, q, table, fill) for _, q, table, fill in _normal_form_items(p, RELATIONS.basis)]


def test_a_grouped_zero_test_is_as_strong_as_one_test_per_sum():
    """Each group's sum must vanish on its own: two groups whose nonzero
    sums are negatives of each other are not all zero."""
    p = parse_polynomial("1/2*y1*y2 - 3*y3 + y1", ORBIT)
    member = parse_polynomial("2*y3^2 - 2*y1*y2", ORBIT)
    assert not RELATIONS.is_member(p) and RELATIONS.is_member(member)
    assert not _tabled_vanish([relation_items(1, p), relation_items(-1, p)])
    assert not _tabled_vanish([relation_items(Fraction(1, 3), p), relation_items(Fraction(-1, 3), p)])
    assert _tabled_vanish([relation_items(1, p) + relation_items(-1, p), relation_items(2, member), []])
    assert _tabled_vanish([])
    rng = random.Random(1800)
    pool = [Polynomial(ORBIT, random_terms(rng, ORBIT, 2, 3)) for _ in range(5)] + [member]
    verdicts = []
    for _ in range(80):
        groups = []
        for _ in range(rng.randint(1, 3)):
            group = []
            for _ in range(rng.randint(0, 3)):
                factor, q = rng.choice([1, -2, Fraction(1, 3)]), rng.choice(pool)
                group += relation_items(factor, q)
                if rng.random() < 0.7:  # cancelled, so that many sums vanish
                    group += relation_items(-factor, q)
            groups.append(group)
        verdicts.append(_tabled_vanish(groups))
        assert verdicts[-1] == all(_tabled_sum(ORBIT, group).is_zero() for group in groups)
    assert 10 <= verdicts.count(True) <= 70


# ---------------------------------------------------------------------------
# the two pitfalls of fraction-free division
# ---------------------------------------------------------------------------

def x(text):
    return parse_polynomial(text, AMBIENT)


def test_divide_normalises_a_negative_running_scale():
    # The leading numerator -2 does not divide the work numerator 1, so the
    # running scale becomes -2; the results come out over a positive one.
    p, divisors = x("x1"), [x("-2*x1 + 1")]
    remainder, quotients = divide(p, divisors, GREVLEX)
    assert (remainder, quotients) == reference_divide(p, divisors, GREVLEX)
    assert (remainder._den, remainder._num) == (2, {(0, 0): 1})
    assert (quotients[0]._den, quotients[0]._num) == (2, {(0, 0): -1})
    assert hash(remainder) == hash(x("1/2"))
    # a basis with negative leading numerators is reached and is monic
    basis = buchberger([x("-2*x1^2 + x2"), x("-3*x1*x2 + 1")])
    assert all(g.leading(GREVLEX)[1] == 1 for g in basis)


def test_divide_rescales_a_settled_remainder_term():
    # x2^2 settles into the remainder over scale 1; reducing x1 by 2*x1 + 1
    # then doubles the scale, and the settled numerator must follow.
    p, divisors = x("x2^2 + x1"), [x("2*x1 + 1")]
    remainder, quotients = divide(p, divisors, GREVLEX)
    assert (remainder, quotients) == reference_divide(p, divisors, GREVLEX)
    assert remainder == x("x2^2 - 1/2") and quotients == [x("1/2")]
    assert str(remainder) == "x2^2 - 1/2"


def test_fraction_accessors_read_the_integer_form():
    p = x("3/4*x1^2 - 5/6*x2 + 1/3")
    assert (p._den, p._num) == (12, {(2, 0): 9, (0, 1): -10, (0, 0): 4})
    assert p.coefficient((2, 0)) == Fraction(3, 4) and p.coefficient((1, 1)) == 0
    assert p.constant_term() == Fraction(1, 3)
    assert p.leading(GREVLEX) == ((2, 0), Fraction(3, 4))
    assert type(p.terms) is dict and p.terms is p.terms
    assert (AMBIENT.zero()._den, AMBIENT.zero()._num) == (1, {})
    assert (p - p)._den == 1 and (p * 12)._den == 1


def test_scale_equals_a_product_with_the_unit_monomial():
    """``scale`` builds its result directly, and returns the polynomial
    itself for the scalar 1 and for the zero polynomial."""
    rng = random.Random("scale")
    scalars = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-7, 3), Fraction(35, 6), Fraction(0, 5)]
    for ring in (ORBIT, PolyRing.ambient(1)):
        one = (0,) * ring.nvars
        for _ in range(40):
            terms = random_terms(rng, ring)
            p = Polynomial(ring, terms)
            for c in scalars + [Fraction(rng.randint(-9, 9), rng.randint(1, 9))]:
                scaled = p.scale(c)
                assert scaled == p.mul_monomial(one, c) and hash(scaled) == hash(p.mul_monomial(one, c))
                assert_canonical(scaled, o_mul_monomial(terms, one, c))
            assert p.scale(1) is p and p.scale(Fraction(1)) is p
        zero = ring.zero()
        assert all(zero.scale(c) is zero for c in scalars)
    with pytest.raises(TypeError):
        ORBIT.one().scale(0.5)
