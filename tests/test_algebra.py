"""Polynomial layer: exact arithmetic, monomial orders, parsing, calculus."""

import math
import random
from fractions import Fraction

import pytest

from conftest import random_poly
from orbitcalc.algebra import (
    GREVLEX,
    LEX,
    BlockOrder,
    PolyRing,
    Polynomial,
    embed,
    format_polynomial,
    make_primitive,
    parse_polynomial,
    restrict,
)

AMBIENT = PolyRing.ambient(2)
ORBIT = PolyRing.orbit(3)
R3 = PolyRing.ambient(3)


def x(text):
    return parse_polynomial(text, AMBIENT)


def y(text):
    return parse_polynomial(text, ORBIT)


SIGMA = [x("x1^2"), x("x2^2"), x("x1*x2")]


def test_ring_variable_names():
    assert AMBIENT.names == ("x1", "x2")
    assert ORBIT.names == ("y1", "y2", "y3")
    assert [str(v) for v in ORBIT.variables()] == ["y1", "y2", "y3"]


def test_monomial_products():
    assert x("x1^2") * x("x2^2") == x("x1^2*x2^2")
    cross = x("x1*x2")
    assert cross * cross == x("x1^2") * x("x2^2")
    assert (x("x1^2 + 3*x2") * AMBIENT.zero()).is_zero()


def test_mul_ring_mismatch():
    with pytest.raises(ValueError, match="incompatible rings"):
        x("x1") * y("y1")


def test_substitute_examples():
    relation = y("y3^2 - y1*y2")
    assert relation.substitute(SIGMA).is_zero()
    assert y("y1").substitute(SIGMA) == x("x1^2")
    assert ORBIT.constant(5).substitute(SIGMA) == AMBIENT.constant(5)


def test_substitute_arity_mismatch():
    with pytest.raises(ValueError):
        y("y1").substitute([x("x1")])


def test_partial_derivative_examples():
    assert x("x1^2").partial_derivative(0) == x("2*x1")
    assert x("x1*x2").partial_derivative(1) == x("x1")
    assert AMBIENT.constant(9).partial_derivative(0).is_zero()
    with pytest.raises(IndexError):
        x("x1").partial_derivative(2)


def test_mul_laws_randomized():
    rng = random.Random(11)
    for _ in range(1000):
        p = random_poly(rng, R3, max_degree=6, max_terms=3)
        q = random_poly(rng, R3, max_degree=6, max_terms=3)
        r = random_poly(rng, R3, max_degree=6, max_terms=3)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p


def test_coefficients_stay_reduced_and_exact():
    p = x("1/3*x1")
    total = AMBIENT.zero()
    for _ in range(3):
        total = total + p
    assert total == x("x1")
    third = x("1/3*x1^2")
    c = third.coefficient((2, 0))
    assert (c.numerator, c.denominator) == (1, 3)
    big = x("x1") + AMBIENT.constant(Fraction(10**40, 3))
    assert big.coefficient((0, 0)) == Fraction(10**40, 3)


def fraction_product(p, q):
    """Oracle: the term-by-term product over Fraction coefficients that the
    integer-numerator kernel of ``Polynomial.__mul__`` replaced."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            new = out.get(exps, Fraction(0)) + c1 * c2
            if new:
                out[exps] = new
            else:
                out.pop(exps, None)
    return Polynomial(p.ring, out)


def assert_canonical_product(product, oracle):
    assert product.terms == oracle.terms
    assert str(product) == str(oracle)
    assert hash(product) == hash(oracle)
    for c in product.terms.values():
        assert isinstance(c, Fraction) and c != 0
        assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1


def mixed_denominator_poly(rng, ring):
    """Up to five terms whose denominators mix small, coprime and large
    factors, so the lcm scaling of both factors differs term by term."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        exps = tuple(rng.randint(0, 3) for _ in range(ring.nvars))
        den = rng.choice((1, 2, 3, 4, 6, 9, 35, 10**12 + 39))
        terms[exps] = Fraction(rng.randint(-30, 30), den)
    return ring.from_terms(terms)


def test_integer_kernel_matches_fraction_products():
    rng = random.Random(23)
    zero = R3.zero()
    for _ in range(250):
        p = mixed_denominator_poly(rng, R3)
        q = mixed_denominator_poly(rng, R3)
        assert_canonical_product(p * q, fraction_product(p, q))
        # (a + b)(a - b): the cross terms cancel exactly
        a, b = p, mixed_denominator_poly(rng, R3)
        assert_canonical_product((a + b) * (a - b), fraction_product(a + b, a - b))
        assert ((a + b) * (a - b)) == a * a - b * b
        for scalar in (0, 1, -7, Fraction(-2, 3), Fraction(5, 10**12 + 39)):
            oracle = fraction_product(p, R3.constant(scalar))
            assert_canonical_product(p * scalar, oracle)
            assert_canonical_product(scalar * p, oracle)
        assert_canonical_product(p * zero, zero)
        assert_canonical_product(zero * p, zero)


def test_substitute_is_multiplicative():
    rng = random.Random(12)
    for _ in range(200):
        p = random_poly(rng, ORBIT, max_degree=2)
        q = random_poly(rng, ORBIT, max_degree=2)
        assert (p * q).substitute(SIGMA) == p.substitute(SIGMA) * q.substitute(SIGMA)


def test_derivative_leibniz_randomized():
    rng = random.Random(13)
    for _ in range(300):
        p = random_poly(rng, R3, max_degree=3)
        q = random_poly(rng, R3, max_degree=3)
        i = rng.randrange(3)
        product_rule = p.partial_derivative(i) * q + p * q.partial_derivative(i)
        assert (p * q).partial_derivative(i) == product_rule


def test_parse_grammar():
    p = x("2*x1^2*x2 - 1/3*x2^3")
    assert p.coefficient((2, 1)) == 2
    assert p.coefficient((0, 3)) == Fraction(-1, 3)
    assert x(" 2 * x1^2 * x2  -  1/3 * x2^3 ") == p
    assert x("x1 - x1").is_zero()
    assert x("-x1 + 2") == x("2 - x1")


def test_parse_format_round_trip():
    rng = random.Random(14)
    for _ in range(300):
        ring = rng.choice([AMBIENT, ORBIT, R3])
        p = random_poly(rng, ring, max_degree=4)
        assert parse_polynomial(format_polynomial(p), ring) == p
    assert format_polynomial(AMBIENT.zero()) == "0"
    assert parse_polynomial("0", AMBIENT).is_zero()


def test_parse_errors():
    for bad in ("x3", "2**x1", "x1 +", "1/0", "y1", 5, None):
        with pytest.raises(ValueError):
            x(bad)


def test_grevlex_order_on_quadratics():
    # degree ties break by the reversed-exponent rule: the cross term beats
    # the pure power of the last variable
    assert GREVLEX.greater((1, 1, 0), (0, 0, 2))
    assert GREVLEX.greater((2, 0, 0), (1, 1, 0))
    assert GREVLEX.greater((0, 1, 0), (0, 0, 1))
    # degree dominates everything
    assert GREVLEX.greater((0, 0, 3), (1, 1, 0))


def test_lex_order():
    assert LEX.greater((1, 0, 0), (0, 5, 5))
    assert LEX.greater((1, 1, 0), (1, 0, 5))


def test_block_order_separates_blocks():
    order = BlockOrder(2)
    # any first-block content dominates a pure second-block monomial
    assert order.greater((1, 0, 0, 0, 0), (0, 0, 7, 7, 7))
    # pure second-block comparison falls back to grevlex on that block
    assert order.greater((0, 0, 1, 1, 0), (0, 0, 0, 0, 2))


@pytest.mark.parametrize("order", [GREVLEX, LEX, BlockOrder(1)])
def test_order_laws_randomized(order):
    rng = random.Random(15)
    unit = (0, 0, 0)
    for _ in range(500):
        a = tuple(rng.randint(0, 4) for _ in range(3))
        b = tuple(rng.randint(0, 4) for _ in range(3))
        c = tuple(rng.randint(0, 4) for _ in range(3))
        # totality
        assert (a == b) or order.greater(a, b) or order.greater(b, a)
        assert not (order.greater(a, b) and order.greater(b, a))
        # multiplicativity
        if order.greater(a, b):
            shifted_a = tuple(u + v for u, v in zip(a, c))
            shifted_b = tuple(u + v for u, v in zip(b, c))
            assert order.greater(shifted_a, shifted_b)
        # 1 is minimal
        if a != unit:
            assert order.greater(a, unit)


def test_leading_monic_primitive():
    p = x("2*x1^2*x2 - 4*x2")
    exps, coeff = p.leading(GREVLEX)
    assert exps == (2, 1) and coeff == 2
    assert p.monic() == x("x1^2*x2 - 2*x2")
    assert x("2/3*x1 - 4/3").primitive() == x("x1 - 2")
    assert x("-x1").primitive() == x("x1")


def test_make_primitive_rescales_a_sequence_jointly():
    zero = AMBIENT.zero()
    row = [zero, x("-1/2*x2"), x("3/4*x1^2")]
    assert make_primitive(row) == [zero, x("2*x2"), x("-3*x1^2")]
    assert make_primitive([zero, zero]) == [zero, zero]


def test_degree_convention():
    assert AMBIENT.zero().degree() == -1
    assert AMBIENT.constant(4).degree() == 0
    assert x("x1*x2 + x1").degree() == 2


def test_embed_restrict_round_trip():
    combined = AMBIENT.joined(ORBIT)
    assert combined.names == ("x1", "x2", "y1", "y2", "y3")
    p = y("y1*y3 - 2*y2")
    lifted = embed(p, combined, 2)
    assert restrict(lifted, ORBIT, 2) == p
    q = x("x1^2 - x2")
    assert restrict(embed(q, combined, 0), AMBIENT, 0) == q


def test_evaluate_exactness():
    p = x("2*x1^2*x2")
    assert p.evaluate([2, 3]) == 24
    q = x("x1 - 1/3")
    assert q.evaluate([Fraction(1, 3), 0]) == 0
