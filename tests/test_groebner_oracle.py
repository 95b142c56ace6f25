"""Differential test of the Groebner engine against sympy, an independent
implementation.  sympy is a test-only dependency; without it these skip."""

import random

import pytest

from conftest import random_ideal, random_poly
from orbitcalc.algebra import GREVLEX, LEX, PolyRing
from orbitcalc.groebner import buchberger, eliminate, normal_form

sympy = pytest.importorskip("sympy")

RING = PolyRing.ambient(3)
SYMBOLS = sympy.symbols("x1:4")


def to_sympy(p, symbols):
    total = sympy.Integer(0)
    for exps, coeff in p.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(symbols, exps):
            term *= s**e
        total += term
    return total


def monic_set(exprs, symbols):
    return {sympy.Poly(g, *symbols, domain="QQ").monic().as_expr() for g in exprs}


def ours(gb, symbols):
    return monic_set([to_sympy(g, symbols) for g in gb.generators], symbols)


def ideals(seed, count=8):
    rng = random.Random(seed)
    return [random_ideal(rng, RING) for _ in range(count)]


@pytest.mark.parametrize("order, name", [(GREVLEX, "grevlex"), (LEX, "lex")])
def test_reduced_basis_matches_sympy(order, name):
    for gens in ideals(51):
        exprs = [to_sympy(g, SYMBOLS) for g in gens]
        oracle = sympy.groebner(exprs, *SYMBOLS, order=name, domain="QQ")
        assert ours(buchberger(gens, order), SYMBOLS) == monic_set(oracle.exprs, SYMBOLS)


@pytest.mark.parametrize("order, name", [(GREVLEX, "grevlex"), (LEX, "lex")])
def test_normal_form_matches_sympy_reduce(order, name):
    # The reduced bases have rational coefficients; a remainder modulo a
    # Groebner basis is unique, so the two engines must agree exactly.
    rng = random.Random(55)
    for gens in ideals(54):
        gb = buchberger(gens, order)
        exprs = [to_sympy(g, SYMBOLS) for g in gens]
        oracle = sympy.groebner(exprs, *SYMBOLS, order=name, domain="QQ")
        for _ in range(4):
            p = random_poly(rng, RING, max_degree=4, max_terms=5)
            _, expected = oracle.reduce(to_sympy(p, SYMBOLS))
            assert sympy.expand(to_sympy(normal_form(p, gb), SYMBOLS) - expected) == 0


@pytest.mark.parametrize("drop", [1, 2])
def test_eliminate_matches_sympy(drop):
    dropped, kept = SYMBOLS[:drop], SYMBOLS[drop:]
    for gens in ideals(52 + drop):
        exprs = [to_sympy(g, SYMBOLS) for g in gens]
        lex = sympy.groebner(exprs, *SYMBOLS, order="lex", domain="QQ")
        survivors = [g for g in lex.exprs if not g.free_symbols & set(dropped)]
        expected = set()
        if survivors:
            reduced = sympy.groebner(survivors, *kept, order="grevlex", domain="QQ")
            expected = monic_set(reduced.exprs, kept)
        assert ours(eliminate(gens, drop), kept) == expected
