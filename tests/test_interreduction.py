"""The final interreduction of a Buchberger run against a reference that
divides each kept element whole, by divisor lists of the others built for
it alone, and scales it term by term: every ``_Tracked`` field it returns
must be equal, on scalar runs with and without the Hilbert drive and on
module runs with columns and an ideal."""

import contextlib
import random
from fractions import Fraction

import pytest

from conftest import random_homogeneous, random_ideal, random_poly
from orbitcalc import groebner, invariants
from orbitcalc.algebra import GREVLEX, LEX, BlockOrder, PolyRing, parse_polynomial
from orbitcalc.group_action import closure
from orbitcalc.groebner import (
    SubmoduleProblem,
    _buchberger_tracked,
    _divide_vector,
    _Divisors,
    _module_basis,
    _subtract_reps,
    _Tracked,
    buchberger,
)
from orbitcalc.invariants import equivariant_generators, invariant_generators
from orbitcalc.series import quotient_series

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test extra
    st = None


def reference_reduce_tracked(basis, order):
    """Minimal elements, each divided whole by its own divisor lists of the
    other kept elements and the ideal, then scaled by 1/lc term by term."""
    ideal = [t for t in basis if t.pos < 0]
    nvars = len(basis[0].lead[0]) if basis else 0
    key = order.key_for(nvars)

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    kept = []
    for idx, t in enumerate(basis[len(ideal) :], len(ideal)):
        lm = t.lead[0]
        redundant = False
        for jdx, other in enumerate(basis):
            if jdx == idx or other.pos not in (t.pos, -1):
                continue
            lo = other.lead[0]
            if divides(lo, lm) and (lo != lm or jdx < idx):
                redundant = True
                break
        if not redundant:
            kept.append(t)
    reduced = []
    for idx, t in enumerate(kept):
        others = kept[:idx] + kept[idx + 1 :] + ideal
        remainder, quotients = _divide_vector(t.vec, others, _Divisors(others), order, bool(t.rep))
        rep = _subtract_reps(t.rep, quotients, others)
        lm, lc = t.lead
        c, one = Fraction(1) / lc, (0,) * nvars
        reduced.append(
            _Tracked(
                tuple(p.mul_monomial(one, c) for p in remainder),
                [r.mul_monomial(one, c) for r in rep],
                t.sugar,
                t.pos,
                (lm, lc * c),
            )
        )
    reduced.sort(key=lambda t: (-t.pos, key(t.lead[0])), reverse=True)
    return reduced + ideal


def fields(tracked):
    return [(t.vec, t.rep, t.sugar, t.pos, t.lead) for t in tracked]


@contextlib.contextmanager
def checked_interreductions():
    """Checks every interreduction run inside the block against the
    reference; yields the list of the checked runs' results."""
    checked = []
    reduce = groebner._reduce_tracked

    def checking(basis, order, reduced_from):
        got = reduce(basis, order, reduced_from)
        assert fields(got) == fields(reference_reduce_tracked(basis, order))
        checked.append(got)
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner, "_reduce_tracked", checking)
        yield checked


ORDERS = [GREVLEX, LEX, BlockOrder(1), BlockOrder(2)]


@pytest.mark.parametrize("order", ORDERS)
def test_scalar_interreduction_matches_the_reference(order):
    """Plain runs, with and without representations over the inputs."""
    ring = PolyRing.ambient(3)
    rng = random.Random(71)
    with checked_interreductions() as checked:
        for _ in range(6):
            vectors = [(g,) for g in random_ideal(rng, ring)]
            _buchberger_tracked(vectors, order, 0)
            _buchberger_tracked(vectors, order, len(vectors))
    assert len(checked) == 12
    assert any(t.rep for run in checked for t in run)


@pytest.mark.parametrize("order", ORDERS)
def test_hilbert_driven_interreduction_matches_the_reference(order):
    ring = PolyRing.ambient(3)
    rng = random.Random(73)
    with checked_interreductions() as checked:
        for _ in range(6):
            weights = [rng.randint(1, 2) for _ in range(ring.nvars)]
            gens = [random_homogeneous(rng, ring, rng.randint(2, 4), weights) for _ in range(3)]
            gens = [g for g in gens if g is not None]
            plain = buchberger(gens, order).generators
            known = quotient_series([g.leading(order)[0] for g in plain], weights)
            _buchberger_tracked([(g,) for g in gens], order, 0, hilbert=(weights, known))
    assert len(checked) == 12


# the benchmark's elimination ladder, unconjugated
ELIMINATION_LADDER = {
    "z2_r3": [[["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]]],
    "z3_r3": [[["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]]],
    "z6_r2": [[["1", "-1"], ["1", "0"]]],
}


@pytest.mark.parametrize("rung", sorted(ELIMINATION_LADDER))
def test_tagged_basis_interreduction_matches_the_reference(rung):
    with checked_interreductions() as checked:
        invariant_generators(closure(ELIMINATION_LADDER[rung]))
    assert checked


@pytest.mark.parametrize("problem", ["_generator_span", "_extension_problem"])
def test_calculus_module_interreduction_matches_the_reference(calculus_space, problem):
    """The module bases of the calculus spaces, rebuilt on a fresh problem
    with the same columns and relations."""
    shared = getattr(calculus_space, problem)
    assert shared.columns and shared.ideal.generators
    with checked_interreductions() as checked:
        _module_basis(SubmoduleProblem(shared.ambient_rank, shared.columns, shared.ideal), None)
    (run,) = checked
    assert any(t.pos < 0 for t in run) and any(t.rep for t in run)


ORBIT = PolyRing.orbit(3)
IDEALS = [[], ["y3^2 - y1*y2"], ["y3^2 - y1*y2", "y2^2 - y1*y3"]]


def check_random_module_problem(seed):
    rng = random.Random(seed)
    ideal = buchberger([parse_polynomial(t, ORBIT) for t in rng.choice(IDEALS)])
    rank = rng.randint(1, 3)
    columns = tuple(
        tuple(random_poly(rng, ORBIT, 2, 2) for _ in range(rank)) for _ in range(rng.randint(1, 3))
    )
    with checked_interreductions() as checked:
        _module_basis(SubmoduleProblem(rank, columns, ideal), None)
    assert len(checked) == 1


if st is not None:

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32))
    def test_random_module_interreduction_matches_the_reference(seed):
        check_random_module_problem(seed)

else:  # pragma: no cover

    def test_random_module_interreduction_matches_the_reference():
        for seed in range(40):
            check_random_module_problem(seed)


def test_interreduction_builds_one_divisor_list_and_skips_clean_remainders(monkeypatch):
    """On the Z2/R^3 tagged basis the interreduction builds its divisor
    lists once, and divides fewer elements than it keeps: remainders no
    later lead divides are returned as they are."""
    group = closure(ELIMINATION_LADDER["z2_r3"])
    hmap = invariant_generators(group)
    built, divided, kept = [], [], []
    active = False
    reduce, divide_vector = groebner._reduce_tracked, groebner._divide_vector

    class CountingDivisors(_Divisors):
        def __init__(self, basis):
            if active:
                built.append(len(basis))
            super().__init__(basis)

    def counting_divide(vec, *args, **kwargs):
        if active:
            divided.append(vec)
        return divide_vector(vec, *args, **kwargs)

    def counting_reduce(*args):
        nonlocal active
        active = True
        try:
            result = reduce(*args)
        finally:
            active = False
        kept.append(sum(t.pos >= 0 for t in result))
        return result

    monkeypatch.setattr(groebner, "_Divisors", CountingDivisors)
    monkeypatch.setattr(groebner, "_divide_vector", counting_divide)
    monkeypatch.setattr(groebner, "_reduce_tracked", counting_reduce)
    tagged = invariants._assemble(group, hmap.sigma, hmap.ring)
    assert tagged.tag_basis.generators == hmap.tag_basis.generators
    assert built == [kept[0]] and len(divided) < kept[0]


# ---------------------------------------------------------------------------
# seeded builds and per-element marks
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def logged_builds():
    """Logs every tracked build run inside the block: the number of ideal
    generators, the seeds and the count of nonzero inputs, the S-pairs it
    reduces, the basis its interreduction gets and the vectors that
    interreduction divides.  Yields the list of logs."""
    logs, stack = [], []
    run, s_vector = groebner._buchberger_tracked, groebner._s_vector
    reduce, divide_vector = groebner._reduce_tracked, groebner._divide_vector

    def running(gens, order, columns, ideal=None, cancel=None, hilbert=None, reduced=0):
        nonzero = [tuple(g) for g in gens if not groebner._is_zero_vector(g)]
        log = {
            "ideal": len(ideal.generators) if ideal is not None else 0,
            "seeds": nonzero[:reduced],
            "inputs": len(nonzero),
            "pairs": [],
            "divided": [],
            "reducing": False,
        }
        stack.append(log)
        try:
            return run(gens, order, columns, ideal, cancel, hilbert, reduced)
        finally:
            logs.append(stack.pop())

    def pairing(f, g, uf, ug):
        if stack:
            stack[-1]["pairs"].append((f.vec, g.vec))
        return s_vector(f, g, uf, ug)

    def reducing(basis, order, marks):
        stack[-1]["basis"], stack[-1]["reducing"] = list(basis), True
        try:
            return reduce(basis, order, marks)
        finally:
            stack[-1]["reducing"] = False

    def dividing(vec, *args, **kwargs):
        if stack and stack[-1]["reducing"]:
            stack[-1]["divided"].append(vec)
        return divide_vector(vec, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner, "_buchberger_tracked", running)
        patch.setattr(invariants, "_buchberger_tracked", running)
        patch.setattr(groebner, "_s_vector", pairing)
        patch.setattr(groebner, "_reduce_tracked", reducing)
        patch.setattr(groebner, "_divide_vector", dividing)
        yield logs


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def expected_divisions(log):
    """The tails an interreduction must divide, with each element marked
    from the build's own layout: the ideal, the seeds, the raw inputs,
    then remainders.  A seed may be reduced by the leads after the seeds,
    a raw input by every other lead and the ideal's, a remainder by the
    leads after it."""
    basis, start = log["basis"], log["ideal"]
    seeded = start + len(log["seeds"])
    kept = []
    for idx, t in enumerate(basis[start:], start):
        lm = t.lead[0]
        if not any(
            jdx != idx and u.pos in (t.pos, -1) and divides(u.lead[0], lm) and (u.lead[0] != lm or jdx < idx)
            for jdx, u in enumerate(basis)
        ):
            kept.append((idx, t))
    tails = []
    for idx, t in kept:
        mark = seeded if idx < seeded else 0 if idx < start + log["inputs"] else idx + 1
        others = [u for jdx, u in kept if jdx >= mark and jdx != idx]
        ideal = [u for jdx, u in enumerate(basis[:start]) if jdx >= mark]
        if any(divides(u.lead[0], e) for u in others for e in t.vec[u.pos].terms) or any(
            divides(u.lead[0], e) for u in ideal for c in t.vec for e in c.terms
        ):
            lead = t.vec[t.pos].ring.monomial(*t.lead)
            tails.append(t.vec[: t.pos] + (t.vec[t.pos] - lead,) + t.vec[t.pos + 1 :])
    return tails


SEEDED_RUNGS = {
    **ELIMINATION_LADDER,
    "b2_r2": [[["0", "1"], ["1", "0"]], [["-1", "0"], ["0", "1"]]],
    "d3_r2": [[["0", "-1"], ["1", "-1"]], [["0", "1"], ["1", "0"]]],
    "z4_r2": [[["0", "-1"], ["1", "0"]]],
    "s5_r5": [
        [["0", "1", "0", "0", "0"], ["1", "0", "0", "0", "0"], ["0", "0", "1", "0", "0"],
         ["0", "0", "0", "1", "0"], ["0", "0", "0", "0", "1"]],
        [["0", "1", "0", "0", "0"], ["0", "0", "1", "0", "0"], ["0", "0", "0", "1", "0"],
         ["0", "0", "0", "0", "1"], ["1", "0", "0", "0", "0"]],
    ],
}


def test_seeded_builds_pair_no_two_seeds_and_divide_by_their_marks():
    """Over the tagged builds of the invariant searches, the module builds
    of the field searches and plain Buchberger runs, homogeneous or not: no
    S-pair of two seeds is reduced, seeds do pair with the new inputs, and
    each interreduction divides exactly the elements some lead past their
    mark divides."""
    rng = random.Random(79)
    ring = PolyRing.ambient(3)
    with logged_builds() as logs:
        for gens in SEEDED_RUNGS.values():
            equivariant_generators(closure(gens))
        for _ in range(6):
            buchberger(random_ideal(rng, ring), rng.choice(ORDERS))
            weights = [rng.randint(1, 2) for _ in range(ring.nvars)]
            gens = [random_homogeneous(rng, ring, rng.randint(2, 4), weights) for _ in range(3)]
            buchberger([g for g in gens if g is not None], rng.choice(ORDERS))
        # coprime leads, so no remainder: only the input y^2 + x*z, which an
        # earlier lead divides, can reduce its tail
        raw = buchberger([parse_polynomial(t, ring) for t in ("x1 - x3", "x2^2 + x1*x3")])
    assert [str(g) for g in raw.generators] == ["x2^2 + x3^2", "x1 - x3"]
    seeded = [log for log in logs if log["seeds"]]
    assert len(seeded) >= 8 and any(log["ideal"] for log in logs)
    for log in seeded:
        seeds = set(log["seeds"])
        assert not any(f in seeds and g in seeds for f, g in log["pairs"])
        assert any((f in seeds) != (g in seeds) for f, g in log["pairs"])
    divided = {"input": 0, "remainder": 0}
    for log in logs:
        assert log["divided"] == expected_divisions(log)
        raw = range(log["ideal"] + len(log["seeds"]), log["ideal"] + log["inputs"])
        for idx, t in enumerate(log["basis"][log["ideal"] :], log["ideal"]):
            lead = t.vec[t.pos].ring.monomial(*t.lead)
            if t.vec[: t.pos] + (t.vec[t.pos] - lead,) + t.vec[t.pos + 1 :] in log["divided"]:
                divided["input" if idx in raw else "remainder"] += 1
    # raw inputs and remainders are both divided somewhere, and not every
    # kept element is
    assert all(divided.values())
    assert sum(divided.values()) < sum(len(log["basis"]) - log["ideal"] for log in logs)
