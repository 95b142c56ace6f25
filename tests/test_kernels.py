"""Compiled monomial kernels and order keys against their ``map``-based
references: every kernel of ``algebra.monomial_ops(n)`` and every built-in
order's ``key_for(n)`` for n = 0..9, exhaustively on exponents in {0,1,2}^n
up to n = 5 and by hypothesis above; orders that define only ``key``; and
the rings of no variables."""

import random
import re
from fractions import Fraction
from functools import partial
from itertools import product
from pathlib import Path

import pytest

from conftest import (
    block_key,
    grevlex_key,
    mono_colon,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    random_ideal,
)
from orbitcalc import algebra
from orbitcalc.algebra import GREVLEX, LEX, BlockOrder, MonomialOrder, PolyRing, monomial_ops
from orbitcalc.groebner import GroebnerBasis, buchberger, divide, eliminate, normal_form

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test extra
    st = None

REFERENCES = {
    "mul": mono_mul,
    "div": mono_div,
    "divides": mono_divides,
    "lcm": mono_lcm,
    "colon": mono_colon,
}


def orders_with_references(n):
    """Each built-in order with its reference key on n-tuples; the block
    sizes cover 0..n and one beyond."""
    return [(GREVLEX, grevlex_key), (LEX, lambda e: e)] + [
        (BlockOrder(b), partial(block_key, b)) for b in range(n + 2)
    ]


def check_against_references(n, tuples):
    ops = monomial_ops(n)
    for a, b in product(tuples, repeat=2):
        for name, reference in REFERENCES.items():
            got, want = getattr(ops, name)(a, b), reference(a, b)
            assert got == want and type(got) is type(want), (name, a, b)
    for order, reference in orders_with_references(n):
        key = order.key_for(n)
        for a in tuples:
            assert key(a) == order.key(a) == reference(a), (order, a)
        assert sorted(tuples, key=key, reverse=True) == sorted(tuples, key=reference, reverse=True)


@pytest.mark.parametrize("n", range(6))
def test_kernels_and_keys_match_references_exhaustively(n):
    check_against_references(n, list(product(range(3), repeat=n)))


if st is not None:

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(6, 9).flatmap(
            lambda n: st.lists(st.tuples(*[st.integers(0, 6)] * n), min_size=1, max_size=8)
        )
    )
    def test_kernels_and_keys_match_references_at_larger_arities(tuples):
        check_against_references(len(tuples[0]), tuples)


def test_units_and_one_compilation_per_arity():
    for n in range(10):
        assert monomial_ops(n).units == tuple(
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        )
        assert monomial_ops(n) is monomial_ops(n)
        assert GREVLEX.key_for(n) is GREVLEX.key_for(n)
    # a block beyond the arity is the whole tuple, as slicing gives
    assert BlockOrder(7).key_for(3) is BlockOrder(3).key_for(3)


def reference_products(acc, left, right, factor):
    for a, n in left:
        for b, m in right:
            e = mono_mul(a, b)
            acc[e] = acc.get(e, 0) + factor * n * m


@pytest.mark.parametrize("n", range(10))
def test_the_compiled_product_loop_matches_a_reference(n):
    """``products`` adds every term product into a table that may already
    hold entries; the ring of no variables unpacks the empty tuple."""
    rng = random.Random(4100 + n)

    def terms(count):
        return [(tuple(rng.randint(0, 3) for _ in range(n)), rng.randint(-9, 9)) for _ in range(count)]

    for _ in range(25):
        left, right = terms(rng.randint(0, 4)), terms(rng.randint(0, 4))
        factor = rng.choice([1, -1, 6, -35])
        got = dict(terms(2))
        want = dict(got)
        monomial_ops(n).products(got, left, right, factor)
        reference_products(want, left, right, factor)
        assert got == want


def test_no_arity_is_too_deep_to_compile():
    """The degree sums are nested as balanced trees; a chain of 3000
    additions is too deep for the compiler."""
    n = 3000
    e = tuple(range(n))
    assert GREVLEX.key_for(n)(e) == grevlex_key(e)
    assert BlockOrder(1000).key_for(n)(e) == block_key(1000, e)
    acc = {}
    monomial_ops(n).products(acc, [(e, 2)], [(e[::-1], 3), (e, -1)], 5)
    assert acc == {mono_mul(e, e[::-1]): 30, mono_mul(e, e): -10}


class KeyOnlyGrevlex(MonomialOrder):
    """Grevlex defined through ``key`` alone."""

    name = "grevlex by key"

    def key(self, exps):
        return grevlex_key(exps)


class KeyOnlyBlock(MonomialOrder):
    """The block order defined through ``key`` alone."""

    name = "block by key"

    def __init__(self, block):
        self.block = block

    def key(self, exps):
        return block_key(self.block, exps)


def test_an_order_defining_only_key_serves_as_its_own_key_for():
    order = KeyOnlyGrevlex()
    assert order.key_for(3) == order.key
    rng = random.Random(31)
    ring = PolyRing.ambient(3)
    for _ in range(12):
        gens = random_ideal(rng, ring)
        assert buchberger(gens, order).generators == buchberger(gens, GREVLEX).generators
        for block in (1, 2):
            assert (
                buchberger(gens, KeyOnlyBlock(block)).generators
                == buchberger(gens, BlockOrder(block)).generators
            )


def test_rings_of_no_variables():
    assert buchberger([]) == GroebnerBasis((), GREVLEX)
    assert eliminate([], 0) == GroebnerBasis((), GREVLEX)
    ring = PolyRing(())
    three, half = ring.constant(3), ring.constant(Fraction(1, 2))
    assert three * half == ring.constant(Fraction(3, 2))
    assert (three**2).constant_term() == 9
    remainder, [quotient] = divide(three, [half], GREVLEX)
    assert remainder.is_zero() and quotient == ring.constant(6)
    assert buchberger([three]).generators == (ring.one(),)
    assert normal_form(three, buchberger([half])).is_zero()
    assert three.leading() == ((), 3)


def test_exponent_arithmetic_has_one_home():
    """Exponent tuples are added, subtracted, compared and maximised only by
    the compiled kernels, never by ``map`` over ``operator`` functions."""
    pattern = re.compile(r"map\(\s*(?:operator\.)?(?:add|sub|le|max)\s*,")
    package = Path(algebra.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


@pytest.mark.parametrize("weight", [True, 1.0, 2.5, "1", None])
def test_weighted_degree_refuses_a_weight_that_is_no_int(weight, monkeypatch):
    algebra.weighted_degree((1,))  # cached: True and 1.0 hash as 1 does
    compiled = []
    monkeypatch.setattr(algebra, "_compiled", lambda *args: compiled.append(args))
    with pytest.raises(TypeError, match="must be an int"):
        algebra.weighted_degree((1, weight, 2))
    with pytest.raises(TypeError, match="must be an int"):
        algebra.weighted_degree((weight,))
    assert compiled == []


@pytest.mark.parametrize("weight", [0, -1, -7])
def test_weighted_degree_refuses_a_weight_that_is_not_positive(weight, monkeypatch):
    compiled = []
    monkeypatch.setattr(algebra, "_compiled", lambda *args: compiled.append(args))
    with pytest.raises(ValueError, match="must be positive"):
        algebra.weighted_degree((2, weight))
    assert compiled == []


def test_weighted_degree_equals_the_weighted_sum():
    rng = random.Random("weights")
    for n in range(1, 10):
        for _ in range(20):
            weights = [rng.randint(1, 12) for _ in range(n)]
            weigh = algebra.weighted_degree(weights)
            assert algebra.weighted_degree(tuple(weights)) is weigh
            for _ in range(10):
                e = tuple(rng.randint(0, 9) for _ in range(n))
                assert weigh(e) == sum(a * w for a, w in zip(e, weights))
    assert algebra.weighted_degree(())(()) == 0


def test_support_is_the_bitmask_of_the_nonzero_exponents():
    rng = random.Random("supports")
    for n in range(10):
        support = monomial_ops(n).support
        for _ in range(30):
            e = tuple(rng.choice((0, 0, 1, 4)) for _ in range(n))
            assert support(e) == sum(1 << i for i, a in enumerate(e) if a)
