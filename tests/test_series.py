"""Exact Hilbert series against brute-force oracles, and the completeness
certificates of both generator searches built on them."""

import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from conftest import D3_CONJUGATED, LADDER, field_degree

from orbitcalc import invariants, linalg, series
from orbitcalc.algebra import GREVLEX, PolyRing
from orbitcalc.groebner import SubmoduleProblem, _HilbertDrive, _position_leads
from orbitcalc.group_action import PolyVectorField, closure, reynolds
from orbitcalc.invariants import (
    equivariant_generators,
    invariant_basis,
    invariant_generators,
    relations,
)
from orbitcalc.series import (
    Expansion,
    _add,
    _shift,
    added_numerator,
    coefficient,
    field_series,
    ideal_numerator,
    module_series,
    molien_series,
    one_minus_powers,
    quotient_series,
    same_series,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test extra
    st = None

FIXTURES = Path(invariants.__file__).parent / "fixtures"

def fixture_generators(name):
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))["group_generators"]


RUNGS = {**LADDER, "b3_r3": fixture_generators("b3"), "s4_r4": fixture_generators("s4")}


def coefficients(series, count):
    """The first ``count`` power series coefficients of numerator/denominator."""
    numerator, denominator = series
    out = []
    for d in range(count):
        c = numerator[d] if d < len(numerator) else 0
        c -= sum(denominator[k] * out[d - k] for k in range(1, min(d, len(denominator) - 1) + 1))
        out.append(Fraction(c, denominator[0]))
    return out


def monomial_fields(ring, degree):
    for mono in invariants._monomials_of_degree(ring, degree):
        for i in range(ring.nvars):
            components = [ring.zero()] * ring.nvars
            components[i] = mono
            yield PolyVectorField(ring, components)


@pytest.mark.parametrize("rung", sorted(LADDER))
def test_molien_coefficients_count_the_invariants(rung):
    group = closure(LADDER[rung])
    ring = PolyRing.ambient(group.n)
    molien = molien_series(group)
    counts = coefficients(molien, group.order + 2)
    assert counts == [len(invariant_basis(group, ring, d)) for d in range(group.order + 2)]
    assert [coefficient(molien, d) for d in range(group.order + 2)] == counts


@pytest.mark.parametrize("rung", sorted(LADDER))
def test_field_series_counts_the_averaged_fields(rung):
    group = closure(LADDER[rung])
    ring = PolyRing.ambient(group.n)
    series = field_series(group)
    counts = coefficients(series, group.order + 1)
    assert [coefficient(series, d) for d in range(group.order + 1)] == counts
    for degree, expected in enumerate(counts):
        averaged = [reynolds(X, group) for X in monomial_fields(ring, degree)]
        coords = sorted({(i, e) for X in averaged for i, c in enumerate(X.components) for e in c.terms})
        rows = [
            [X.components[i].terms.get(e, 0) for i, e in coords]
            for X in averaged
            if not X.is_zero()
        ]
        rank = len(linalg.echelon(rows)[1]) if rows else 0
        assert rank == expected, f"degree {degree}"


@pytest.mark.parametrize("rung", sorted(LADDER))
def test_module_series_of_the_certified_span_counts_the_fields(rung):
    """The series of the pushed span, shifted by t^(max w - 1) in both
    numerator and denominator, agrees with the field series degree by
    degree once the search certifies it."""
    group = closure(LADDER[rung])
    hmap = invariant_generators(group)
    columns = tuple(invariants._push_field(X, hmap) for X in equivariant_generators(group).generators)
    span = SubmoduleProblem(len(hmap.sigma), columns, relations(hmap).basis)
    ideal_leads = [g.leading(GREVLEX)[0] for g in relations(hmap).basis.generators]
    weights = [s.degree() for s in hmap.sigma]
    series = module_series(ideal_leads, _position_leads(span), weights)
    assert series[1][: max(weights) - 1] == [0] * (max(weights) - 1)
    counts = coefficients(field_series(group), group.order + 1)
    assert [coefficient(series, d) for d in range(group.order + 1)] == counts


SERIES_GROUPS = {**LADDER, "d3_conjugated": D3_CONJUGATED}


@pytest.mark.parametrize("rung", sorted(SERIES_GROUPS))
def test_both_sums_read_one_determinant_per_element(rung, monkeypatch):
    group = closure(SERIES_GROUPS[rung])
    calls = []
    det_one_minus = series._det_one_minus
    monkeypatch.setattr(series, "_det_one_minus", lambda g: calls.append(g) or det_one_minus(g))
    molien, fields = molien_series(group), field_series(group)
    assert molien_series(group) == molien and field_series(group) == fields
    assert sorted(calls) == sorted(group.elements)


@pytest.mark.parametrize("rung", sorted(SERIES_GROUPS))
def test_both_sums_equal_the_per_element_reference(rung):
    """(1/|G|) sum_g 1/det(I - t g) and (1/|G|) sum_g tr(g)/det(I - t g),
    summed element by element by sympy."""
    sympy = pytest.importorskip("sympy")
    group = closure(SERIES_GROUPS[rung])
    t = sympy.Symbol("t")
    molien_sum = field_sum = 0
    for g in group.elements:
        m = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row] for row in g])
        den = (sympy.eye(group.n) - t * m).det()
        molien_sum += 1 / den
        field_sum += m.trace() / den

    def rational(pair):
        numerator, denominator = (sum(c * t**k for k, c in enumerate(p)) for p in pair)
        return numerator / denominator

    for ours, reference in ((molien_series(group), molien_sum), (field_series(group), field_sum)):
        assert sympy.cancel(rational(ours) - reference / group.order) == 0


def test_coefficient_divides_a_scaled_and_shifted_denominator():
    # (2 + 4t) / (2t (1 - t)) = t^-1 + 3 + 3t + 3t^2 + ...
    assert [coefficient(([2, 4], [0, 2, -2]), d) for d in range(4)] == [3, 3, 3, 3]
    # (2 + t) / (2 (1 - t)) = 1 + 3/2 t + ...: exact up to the first fraction
    assert coefficient(([2, 1], [2, -2]), 0) == 1
    with pytest.raises(ValueError, match="not an integer"):
        coefficient(([2, 1], [2, -2]), 1)
    # (1 + t) / (-1 + t) = -1 - 2t - 2t^2 - ...
    assert [coefficient(([1, 1], [-1, 1]), d) for d in range(3)] == [-1, -2, -2]
    with pytest.raises(ValueError, match="denominator is zero"):
        coefficient(([1], [0, 0]), 0)


def test_ideal_numerator_counts_standard_monomials():
    rng = random.Random("monomial-ideals")
    top = 9
    for _ in range(40):
        nvars = rng.randint(1, 3)
        weights = [rng.randint(1, 3) for _ in range(nvars)]
        gens = [
            tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(0, 4))
        ]
        series = (ideal_numerator(gens, weights), one_minus_powers(weights))
        counts = [0] * top
        for exps in product(range(top), repeat=nvars):
            degree = sum(e * w for e, w in zip(exps, weights))
            standard = not any(all(g <= e for g, e in zip(m, exps)) for m in gens)
            if degree < top and standard:
                counts[degree] += 1
        assert coefficients(series, top) == counts, (gens, weights)
        assert [coefficient(series, d) for d in range(top)] == counts, (gens, weights)
        # the same numerator, one generator at a time as a basis run adds
        # its leads, in any order and with repeats
        numerator, added = [1], []
        for m in rng.sample(gens + gens[:1], len(gens) + len(gens[:1])):
            numerator = added_numerator(numerator, added, m, weights)
            added.append(m)
        assert numerator == series[0], (gens, weights)
    with pytest.raises(ValueError):
        coefficient(([1], [2, -2]), 3)


def test_expansion_extends_what_it_has_read():
    """Reads in any order give the coefficients of a fresh expansion, with
    and without a factor; a coefficient that is not an integer is refused
    on every read that needs it, while those below it still read."""
    series = ([2, 4], [0, 2, -2])
    expansion = Expansion(series)
    for d in (3, 0, 5, 1):
        assert expansion.coefficient(d) == coefficient(series, d)
    # (1 - t) (2 + 4t) / (2t (1 - t)) = t^-1 + 2
    assert [expansion.coefficient(d, [1, -1]) for d in range(-3, 4)] == [0, 0, 1, 2, 0, 0, 0]
    half = Expansion(([2, 1], [2, -2]))
    for _ in range(2):
        with pytest.raises(ValueError, match="not an integer"):
            half.coefficient(1)
        assert half.coefficient(0) == 1
    with pytest.raises(ValueError, match="denominator is zero"):
        Expansion(([1], [0, 0])).coefficient(0)


def check_drive_reads(weights, monomials, rng):
    """The drive's Hilbert function of the leads added so far, read from its
    kept expansions, equals a fresh expansion of their series at every
    degree up to 20; the missing count of ``complete`` agrees too."""
    known = quotient_series(monomials, weights)
    drive = _HilbertDrive(weights, known)
    for d in range(21):
        if monomials and rng.random() < 0.4:
            drive.add(monomials[rng.randrange(len(monomials))])
        assert drive.numerator == ideal_numerator(drive.leads, weights)
        for read in range(d, 21):
            expected = coefficient((drive.numerator, drive.denominator), read)
            assert drive.inverse.coefficient(read, drive.numerator) == expected
        found = coefficient((drive.numerator, drive.denominator), d)
        drive.complete(d)
        assert drive.missing == found - coefficient(known, d) >= 0


if st is not None:

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_drive_reads_the_hilbert_function_from_kept_expansions(data):
        nvars = data.draw(st.integers(1, 3))
        weights = data.draw(st.lists(st.integers(1, 3), min_size=nvars, max_size=nvars))
        monomials = data.draw(
            st.lists(st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars), max_size=4)
        )
        rng = random.Random(data.draw(st.integers()))
        check_drive_reads(weights, [tuple(m) for m in monomials], rng)

else:  # pragma: no cover

    def test_drive_reads_the_hilbert_function_from_kept_expansions():
        rng = random.Random(5)
        for _ in range(30):
            nvars = rng.randint(1, 3)
            weights = [rng.randint(1, 3) for _ in range(nvars)]
            monomials = [
                tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(0, 4))
            ]
            check_drive_reads(weights, monomials, rng)


def reference_ideal_numerator(monomials, weights):
    """The numerator by the pairwise ``zip`` scan for coprime generators at
    every level, recursing on itself."""
    gens = []
    for m in sorted(set(monomials), key=sum):
        if not any(all(a <= b for a, b in zip(g, m)) for g in gens):
            gens.append(m)
    if not gens:
        return [1]
    if all(not any(a and b for a, b in zip(g, h)) for i, g in enumerate(gens) for h in gens[i + 1 :]):
        return one_minus_powers([sum(e * w for e, w in zip(g, weights)) for g in gens])
    *rest, pivot = gens
    colon = [tuple(max(a - b, 0) for a, b in zip(g, pivot)) for g in rest]
    degree = sum(e * w for e, w in zip(pivot, weights))
    return _add(
        reference_ideal_numerator(rest, weights),
        _shift(reference_ideal_numerator(colon, weights), degree),
        -1,
    )


@pytest.mark.parametrize(
    "monomials",
    [
        [],
        [(2, 1, 0)],
        [(1, 1, 0), (1, 1, 0), (0, 2, 1)],  # a duplicate
        [(1, 0, 0), (2, 1, 0), (0, 0, 3)],  # a generator divides another
        [(2, 0, 0), (0, 3, 0), (0, 0, 1)],  # all coprime
        [(2, 0, 0), (0, 3, 0), (0, 1, 1), (1, 0, 0)],  # coprime but for one pair
        [(0, 0, 0), (1, 2, 3)],  # the unit ideal
    ],
)
def test_ideal_numerator_equals_the_pairwise_scan(monomials):
    for weights in ([1, 1, 1], [1, 2, 3]):
        assert ideal_numerator(monomials, weights) == reference_ideal_numerator(monomials, weights)


def test_ideal_numerator_equals_the_pairwise_scan_on_random_sets():
    rng = random.Random("coprime-scan")
    for _ in range(60):
        nvars = rng.randint(1, 4)
        weights = [rng.randint(1, 3) for _ in range(nvars)]
        gens = [tuple(rng.choice((0, 0, 1, 2)) for _ in range(nvars)) for _ in range(rng.randint(0, 6))]
        assert ideal_numerator(gens, weights) == reference_ideal_numerator(gens, weights), gens


def overlapping_ideal(rng, nvars, count):
    """``count`` exponent tuples in ``nvars`` variables whose supports
    overlap, so the pivot recursion nests; with duplicates and multiples
    of earlier tuples mixed in, so the set is not minimal."""
    gens = []
    for _ in range(count):
        roll = rng.random()
        if gens and roll < 0.15:
            gens.append(rng.choice(gens))
        elif gens and roll < 0.3:
            base = rng.choice(gens)
            gens.append(tuple(e + rng.choice((0, 0, 1)) for e in base))
        else:
            gens.append(tuple(rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(nvars)))
    return gens


def brute_force_counts(gens, weights, top):
    """The number of standard monomials of each degree below ``top``."""
    counts = [0] * top
    for exps in product(range(top), repeat=len(weights)):
        degree = sum(e * w for e, w in zip(exps, weights))
        if degree < top and not any(all(g <= e for g, e in zip(m, exps)) for m in gens):
            counts[degree] += 1
    return counts


def test_pivoted_numerator_equals_the_reference_on_nested_ideals():
    """5 to 7 variables and up to 12 generators with overlapping supports:
    the pivot recursion nests several levels deep, and its numerator is the
    last-generator recursion's, also when the generators come one at a
    time through ``added_numerator`` in a random order."""
    rng = random.Random("pivot-oracle")
    for _ in range(40):
        nvars = rng.randint(5, 7)
        weights = [rng.randint(1, 3) for _ in range(nvars)]
        gens = overlapping_ideal(rng, nvars, rng.randint(1, 12))
        expected = reference_ideal_numerator(gens, weights)
        assert ideal_numerator(gens, weights) == expected, (gens, weights)
        numerator, added = [1], []
        for m in rng.sample(gens, len(gens)):
            numerator = added_numerator(numerator, added, m, weights)
            added.append(m)
        assert numerator == expected, (gens, weights)


@pytest.mark.parametrize("nvars", [5, 6, 7])
def test_pivoted_numerator_of_the_unit_and_zero_ideals(nvars):
    rng = random.Random(f"edge-ideals-{nvars}")
    weights = [rng.randint(1, 3) for _ in range(nvars)]
    unit = (0,) * nvars
    assert ideal_numerator([], weights) == [1]
    assert ideal_numerator([unit], weights) == []
    for _ in range(10):
        gens = overlapping_ideal(rng, nvars, rng.randint(1, 12))
        # the unit ideal absorbs every generator, in any position
        with_unit = rng.sample(gens + [unit], len(gens) + 1)
        assert ideal_numerator(with_unit, weights) == [] == reference_ideal_numerator(with_unit, weights)
        # duplicating every generator changes nothing
        assert ideal_numerator(gens + gens, weights) == ideal_numerator(gens, weights)
        # adding a generator the ideal holds changes nothing
        m = tuple(e + 1 for e in rng.choice(gens))
        assert added_numerator(ideal_numerator(gens, weights), gens, m, weights) == ideal_numerator(gens, weights)


def test_pivoted_numerator_counts_standard_monomials_of_dense_ideals():
    """Up to 3 variables and 12 generators: the series of the pivoted
    numerator counts the standard monomials of each degree."""
    rng = random.Random("pivot-brute-force")
    top = 10
    for _ in range(40):
        nvars = rng.randint(1, 3)
        weights = [rng.randint(1, 3) for _ in range(nvars)]
        gens = overlapping_ideal(rng, nvars, rng.randint(0, 12))
        series = (ideal_numerator(gens, weights), one_minus_powers(weights))
        assert [coefficient(series, d) for d in range(top)] == brute_force_counts(gens, weights, top), (
            gens,
            weights,
        )


# rung -> the last degrees that gain invariants and fields, as a search run
# to the bound |G| finds them; pinned, so that a certificate that holds too
# early cannot move them with it
LAST_DEGREES = {
    "z2_r2": (2, 1),
    "z4_r2": (4, 3),
    "b2_r2": (4, 3),
    "d3_r2": (3, 2),
    "z2z2_r3": (3, 2),
    "z2_r3": (2, 1),
    "z3_r3": (3, 2),
    "z6_r2": (6, 5),
    "b3_r3": (6, 5),
    "s4_r4": (4, 3),
}


@pytest.mark.parametrize("rung", sorted(RUNGS))
def test_certificates_agree_first_at_the_last_generator_degree(rung):
    """Each certificate test fails on the generators of every degree below
    the last one that gains generators and holds there."""
    last_invariant, last_field = LAST_DEGREES[rung]
    group = closure(RUNGS[rung])
    hmap = invariant_generators(group)
    molien = molien_series(group)
    for bound in range(hmap.sigma[0].degree(), last_invariant + 1):
        cut = invariant_generators(group, bound)
        assert same_series(invariants._subalgebra_series(cut), molien) == (bound == last_invariant), bound
    assert hmap.certificate == hmap.sigma[-1].degree() == last_invariant

    series = field_series(group)
    ideal = relations(hmap).basis
    first = field_degree(equivariant_generators(group).generators[0])
    for bound in range(first, last_field + 1):
        module = equivariant_generators(group, bound)
        columns = tuple(invariants._push_field(X, hmap) for X in module.generators)
        span = SubmoduleProblem(len(hmap.sigma), columns, ideal)
        assert same_series(invariants._span_series(span, hmap), series) == (bound == last_field), bound
    assert module.certificate == field_degree(module.generators[-1]) == last_field
