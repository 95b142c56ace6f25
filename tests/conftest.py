"""Shared builders for the test suite.

Everything random is driven by an explicit ``random.Random`` so each suite is
reproducible from its stated seed.  The heavyweight randomized property
suites live here as plain functions; the acceptance gate runs them at full
trial counts and the module tests reuse the builders.
"""

import inspect
from fractions import Fraction
from itertools import product
from operator import add, le, sub

import pytest

from orbitcalc import algebra, groebner, invariants
from orbitcalc.algebra import PolyRing, Polynomial
from orbitcalc.exterior import d, homotopy, wedge
from orbitcalc.group_action import (
    PolyDiffForm,
    PolyVectorField,
    act_form,
    act_poly,
    act_vf,
    closure,
    is_invariant,
    mat_mul,
    reynolds,
)
from orbitcalc.invariants import invariant_generators
from orbitcalc.quotient import (
    OrbitSpace,
    OrbitVectorField,
    orbit_bracket,
    orbit_d,
    push_form,
    push_vf,
)
from orbitcalc.verify import canonical_one_forms, reflection_context


# ---------------------------------------------------------------------------
# random object builders
# ---------------------------------------------------------------------------

def random_poly(rng, ring, max_degree=3, max_terms=3, nonzero=False):
    terms = {}
    count = rng.randint(1 if nonzero else 0, max_terms)
    for _ in range(count):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ring.nvars)] += 1
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    p = ring.from_terms({e: c for e, c in terms.items() if c})
    if nonzero and p.is_zero():
        return ring.one()
    return p


def random_ideal(rng, ring, count=3, max_degree=3, max_terms=4):
    """Generators without constant terms, so the ideal is never the unit
    ideal; each has 2..max_terms terms of degree 1..max_degree."""
    gens = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(2, max_terms)):
            exps = [0] * ring.nvars
            for _ in range(rng.randint(1, max_degree)):
                exps[rng.randrange(ring.nvars)] += 1
            terms[tuple(exps)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        gens.append(ring.from_terms(terms))
    return gens


def random_homogeneous(rng, ring, degree, weights=None, max_terms=3):
    """A nonzero polynomial whose terms all have the given degree, each
    variable x_i counted with weight ``weights[i]`` (1 by default); None
    when no monomial has that degree."""
    weights = weights or [1] * ring.nvars
    monomials = [
        exps
        for exps in product(*(range(degree // w + 1) for w in weights))
        if sum(e * w for e, w in zip(exps, weights)) == degree
    ]
    if not monomials:
        return None
    chosen = rng.sample(monomials, min(len(monomials), rng.randint(1, max_terms)))
    return ring.from_terms(
        {e: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for e in chosen}
    )


def random_vf(rng, ring, max_degree=3, max_terms=2):
    return PolyVectorField(
        ring,
        [random_poly(rng, ring, max_degree, max_terms) for _ in range(ring.nvars)],
    )


def field_degree(X):
    """The largest coefficient degree of a nonzero polynomial vector field."""
    return max(c.degree() for c in X.components if not c.is_zero())


def random_form(rng, ring, degree, max_degree=3, max_terms=2):
    """Random form of the given degree; degree 0 is a bare polynomial."""
    if degree == 0:
        return random_poly(rng, ring, max_degree, max_terms)
    n = ring.nvars
    items = []
    for _ in range(rng.randint(0, 3)):
        indices = tuple(sorted(rng.sample(range(n), degree)))
        items.append((indices, random_poly(rng, ring, max_degree, max_terms)))
    return PolyDiffForm(ring, degree, items)


# ---------------------------------------------------------------------------
# reference monomial arithmetic and order keys, the oracles of the compiled
# kernels of ``algebra.monomial_ops`` and of the orders' ``key_for``
# ---------------------------------------------------------------------------

def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_div(a, b):
    return tuple(map(sub, a, b))


def mono_divides(a, b):
    """True if the monomial with exponents ``a`` divides the one with ``b``."""
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_colon(a, b):
    return tuple(max(x - y, 0) for x, y in zip(a, b))


def grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def block_key(block, exps):
    head, tail = exps[:block], exps[block:]
    return grevlex_key(head) + grevlex_key(tail)


# ---------------------------------------------------------------------------
# reference division over Fraction coefficients
# ---------------------------------------------------------------------------

def reference_divide(p, divisors, order):
    """Multivariate division with ``Fraction`` arithmetic throughout, the
    reference for ``groebner.divide``: the largest remaining monomial of the
    work polynomial is reduced by the first divisor, in list order, whose
    leading monomial divides it, or else moved to the remainder."""
    ring = p.ring
    heads = [(i, d, *d.leading(order)) for i, d in enumerate(divisors) if d]
    quotients = [{} for _ in divisors]
    remainder = {}
    work = dict(p.terms)
    while work:
        exps = max(work, key=order.key)
        coeff = work.pop(exps)
        for i, d, lm, lc in heads:
            if all(a <= b for a, b in zip(lm, exps)):
                factor_exps = tuple(a - b for a, b in zip(exps, lm))
                factor = coeff / lc
                quotients[i][factor_exps] = factor
                for e, c in d.terms.items():
                    if e == lm:
                        continue
                    e = tuple(a + b for a, b in zip(e, factor_exps))
                    new = work.get(e, 0) - factor * c
                    if new:
                        work[e] = new
                    else:
                        del work[e]
                break
        else:
            remainder[exps] = coeff
    return Polynomial(ring, remainder), [Polynomial(ring, q) for q in quotients]


# ---------------------------------------------------------------------------
# the Fraction-dict oracle: polynomials as dicts of Fraction coefficients by
# exponents, multiplied and substituted term by term, with no table
# ---------------------------------------------------------------------------

def o_combine(a, b, sign):
    out = dict(a)
    for e, c in b.items():
        new = out.get(e, 0) + sign * c
        if new:
            out[e] = new
        else:
            out.pop(e, None)
    return out


def o_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out = o_combine(out, {tuple(map(sum, zip(e1, e2))): c1 * c2}, 1)
    return out


def o_substitute(a, values, nvars):
    """a at the value dicts, each a polynomial in ``nvars`` variables."""
    out = {}
    for e, c in a.items():
        term = {(0,) * nvars: c}
        for v, k in zip(values, e):
            for _ in range(k):
                term = o_mul(term, v)
        out = o_combine(out, term, 1)
    return out


def reference_substitute(p, values):
    """``p.substitute(values)`` through the Fraction-dict oracle."""
    ring = values[0].ring
    return Polynomial(ring, o_substitute(p.terms, [v.terms for v in values], ring.nvars))


# ---------------------------------------------------------------------------
# linear-algebra views of polynomials (independent membership oracles)
# ---------------------------------------------------------------------------

def monomials_up_to(ring, degree):
    out = [(0,) * ring.nvars]
    frontier = list(out)
    for _ in range(degree):
        new = []
        for exps in frontier:
            for i in range(ring.nvars):
                bumped = tuple(e + (1 if j == i else 0) for j, e in enumerate(exps))
                if bumped not in new:
                    new.append(bumped)
        frontier = new
        out.extend(e for e in new if e not in out)
    return out


def coefficient_vector(p, columns):
    return [p.coefficient(e) for e in columns]


# ---------------------------------------------------------------------------
# groups and spaces used across files
# ---------------------------------------------------------------------------

# The benchmark's presentation and elimination ladders (unconjugated).
LADDER = {
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
}


def make_reflection_group():
    return closure([[["-1", "0"], ["0", "-1"]]])


def make_swap_group():
    return closure([[["0", "1"], ["1", "0"]]])


def make_rotation4_group():
    return closure([[["0", "-1"], ["1", "0"]]])


@pytest.fixture(scope="session")
def golden_space() -> OrbitSpace:
    """The reflection example with the classical generator presentation."""
    return reflection_context()


@pytest.fixture(scope="session")
def golden_forms(golden_space):
    return canonical_one_forms(golden_space.hilbert.ring)


@pytest.fixture(scope="module", params=["z2", "z4"])
def calculus_space(request, golden_space):
    """The golden Z2/R^2 space and the automatic Z4/R^2 space."""
    if request.param == "z2":
        return golden_space
    return OrbitSpace(invariant_generators(make_rotation4_group()))


@pytest.fixture
def count_module_basis_builds(monkeypatch):
    """Start counting module basis builds; returns a list that grows by one
    per build from then on.  Every build is one Buchberger run modulo an
    ideal, and scalar bases pass none, so those runs are counted."""

    def start():
        builds = []
        run = groebner._buchberger_tracked
        signature = inspect.signature(run)

        def counting(*args, **kwargs):
            if signature.bind(*args, **kwargs).arguments.get("ideal") is not None:
                builds.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(groebner, "_buchberger_tracked", counting)
        return builds

    return start


@pytest.fixture
def hilbert_certificates(monkeypatch):
    """One entry per Hilbert-driven Buchberger run that ends with its series
    check during the test: the run's variable weights."""
    certified = []
    certify = groebner._HilbertDrive.certify

    def counting(drive):
        certify(drive)
        certified.append(list(drive.weights))

    monkeypatch.setattr(groebner._HilbertDrive, "certify", counting)
    return certified


@pytest.fixture
def fraction_views_built(monkeypatch):
    """The polynomials whose ``Fraction`` view (``Polynomial.terms``) is
    built during the test, in order, one entry per view."""
    built = []
    view = algebra.Polynomial.terms.fget

    def recording(p):
        if p._terms is None:
            built.append(p)
        return view(p)

    monkeypatch.setattr(algebra.Polynomial, "terms", property(recording))
    return built


@pytest.fixture
def invariant_searches(monkeypatch):
    """The degree bounds of the invariant generator searches run during the
    test, in order."""
    searches = []
    search = invariants._search_generators

    def counting(group, bound):
        searches.append(bound)
        return search(group, bound)

    monkeypatch.setattr(invariants, "_search_generators", counting)
    return searches


@pytest.fixture(scope="session")
def reflection():
    return make_reflection_group()


@pytest.fixture(scope="session")
def swap_group():
    return make_swap_group()


@pytest.fixture(scope="session")
def rotation4():
    return make_rotation4_group()


# ---------------------------------------------------------------------------
# randomized property suites (shared between module tests and acceptance)
# ---------------------------------------------------------------------------

def suite_d_squared(rng, trials):
    """d(d(omega)) = 0 across dimensions 2..4 and all form degrees."""
    for _ in range(trials):
        n = rng.randint(2, 4)
        ring = PolyRing.ambient(n)
        degree = rng.randint(0, n)
        omega = random_form(rng, ring, degree, max_degree=5)
        assert d(d(omega)).is_zero()


def suite_leibniz(rng, trials):
    """d(a ^ b) = da ^ b + (-1)^k a ^ db on random pairs."""
    for _ in range(trials):
        n = rng.randint(2, 3)
        ring = PolyRing.ambient(n)
        k = rng.randint(0, n - 1)
        h = rng.randint(0, n - k)
        a = random_form(rng, ring, k)
        b = random_form(rng, ring, h)
        left = d(wedge(a, b))
        right = wedge(d(a), b)
        signed = wedge(a, d(b))
        if k % 2:
            right = right - signed
        else:
            right = right + signed
        assert (left - right).is_zero()


def suite_reynolds(rng, trials, groups):
    """Idempotence and projection of the averaging operator."""
    for _ in range(trials):
        group = rng.choice(groups)
        ring = PolyRing.ambient(group.n)
        kind = rng.randrange(3)
        if kind == 0:
            obj = random_poly(rng, ring)
        elif kind == 1:
            obj = random_vf(rng, ring)
        else:
            obj = random_form(rng, ring, rng.randint(1, group.n))
        averaged = reynolds(obj, group)
        assert is_invariant(averaged, group)
        again = reynolds(averaged, group)
        assert (again - averaged).is_zero()


def suite_action_laws(rng, trials, groups):
    """act(g, act(h, o)) = act(g h, o) and the identity acts trivially."""
    for _ in range(trials):
        group = rng.choice(groups)
        ring = PolyRing.ambient(group.n)
        g = rng.choice(group.elements)
        h = rng.choice(group.elements)
        ident = group.elements[0]
        kind = rng.randrange(3)
        if kind == 0:
            obj, act = random_poly(rng, ring), act_poly
        elif kind == 1:
            obj, act = random_vf(rng, ring), act_vf
        else:
            obj, act = random_form(rng, ring, rng.randint(1, group.n)), act_form
        assert (act(g, act(h, obj)) - act(mat_mul(g, h), obj)).is_zero()
        assert (act(ident, obj) - obj).is_zero()


def suite_homotopy(rng, trials):
    """h(d omega) + d(h(omega)) = omega for k >= 1; = omega - omega(0) for k = 0."""
    for _ in range(trials):
        n = rng.randint(2, 3)
        ring = PolyRing.ambient(n)
        k = rng.randint(0, n)
        omega = random_form(rng, ring, k, max_degree=4)
        recovered = homotopy(d(omega))
        if k >= 1:
            recovered = recovered + d(homotopy(omega))
            assert (recovered - omega).is_zero()
        else:
            expected = omega - ring.constant(omega.constant_term())
            assert (recovered - expected).is_zero()


def random_tangent_field(rng, space, max_degree=1, max_terms=2) -> OrbitVectorField:
    """Random combination of the pushed generators; tangent by construction."""
    pushed = space.pushed_generators
    total = pushed[0] * random_poly(rng, space.orbit_ring, max_degree, max_terms)
    for Y in pushed[1:]:
        total = total + Y * random_poly(rng, space.orbit_ring, max_degree, max_terms)
    return total


def suite_jacobi(space, rng, trials):
    """Jacobi identity for the orbit bracket on random tangent triples."""
    for _ in range(trials):
        a = random_tangent_field(rng, space)
        b = random_tangent_field(rng, space)
        c = random_tangent_field(rng, space)
        total = orbit_bracket(a, orbit_bracket(b, c))
        total = total + orbit_bracket(b, orbit_bracket(c, a))
        total = total + orbit_bracket(c, orbit_bracket(a, b))
        assert total.is_zero()


def random_invariant_poly(rng, space, max_degree=2, max_terms=2) -> Polynomial:
    class_rep = random_poly(rng, space.orbit_ring, max_degree, max_terms)
    return space.hilbert.substitute_into(class_rep)


def suite_push_homomorphism(space, rng, trials):
    """push(f X) = class(f) push(X) and push(X + X') = push(X) + push(X')."""
    gens = space.module.generators
    for _ in range(trials):
        rep = random_poly(rng, space.orbit_ring, max_degree=2, max_terms=2)
        f = space.hilbert.substitute_into(rep)
        coeffs = [random_invariant_poly(rng, space, 1, 2) for _ in gens]
        X = PolyVectorField.zero(space.hilbert.ring)
        for c, gen in zip(coeffs, gens):
            X = X + c * gen
        other = rng.choice(gens)
        assert push_vf(f * X, space) == space.function(rep) * push_vf(X, space)
        assert push_vf(X + other, space) == push_vf(X, space) + push_vf(other, space)


def suite_push_d_commutation(space, forms):
    """push(d theta) equals the orbit derivative of push(theta)."""
    for theta in forms:
        pushed = push_form(theta, space)
        assert orbit_d(pushed) == push_form(d(theta), space)


def suite_orbit_d_squared(space, rng, trials):
    """The orbit exterior derivative squares to zero on random pushed 1-forms."""
    group = space.hilbert.group
    ring = space.hilbert.ring
    for _ in range(trials):
        omega = reynolds(random_form(rng, ring, 1, max_degree=3), group)
        theta = push_form(omega, space)
        assert orbit_d(orbit_d(theta)).is_zero()


def check_lift_roundtrip(space, field: OrbitVectorField):
    from orbitcalc.quotient import lift_vf

    lifted = lift_vf(field, space)
    assert is_invariant(lifted, space.hilbert.group)
    assert push_vf(lifted, space) == field
