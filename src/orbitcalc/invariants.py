"""Invariant theory for finite rational matrix groups: generators of the
invariant ring (the Hilbert map), the relation ideal among them, subduction
(rewriting an invariant in the generators), and generators of the module of
invariant vector fields.

The subduction backbone is the tagged ideal < y_j - sigma_j(x) > in a block
elimination order with the x block first: the normal form of an invariant
polynomial against it contains no x variable, and reading off the y part
rewrites the invariant through the generators.  The x-free elements of
that basis are the reduced basis of the relation ideal (elimination
theorem), so the relations need no Groebner basis of their own.

Both generating sets are found degree by degree.  The invariant ring and the
module of invariant fields are graded, so an average of degree d is new when
its normal form modulo what lower degrees generate is independent of those
of the degree-d generators: one basis per degree that gains generators.
The exact series of the group say how many generators each degree needs,
so a degree that needs none averages nothing and a scan stops at its count.

Both searches stop at the end of the first degree where what they have
found is certified complete: the Hilbert series of what the generators
span, read off the leading monomials of a basis the search holds anyway,
equals the exact Molien series of the group (:mod:`.series`).  A degree
bound only caps a runaway search; when it cuts a search before the series
agree, the result records no certificate.

Membership of an invariant field in the span of others is decided one level
down: the pushforward X -> (X(sigma_j))_j, rewritten through the generators,
is injective on invariant fields of a finite group, so X = sum h_i(sigma) X_i
exactly when push X = sum h_i push X_i modulo the relation ideal, a
submodule membership problem over the orbit ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

from .algebra import (
    GREVLEX,
    BlockOrder,
    PolyRing,
    Polynomial,
    PowerTable,
    _tabled_sum,
    embed,
    make_primitive,
    restrict,
)
from .groebner import (
    GroebnerBasis,
    SubmoduleProblem,
    _buchberger_tracked,
    _elimination_part,
    _module_normal_form,
    _position_leads,
    module_solve,
    normal_form,
)
from .group_action import (
    FiniteMatrixGroup,
    PolyVectorField,
    is_invariant,
    reynolds,
)
from . import linalg
from .series import (
    Expansion,
    Series,
    coefficient,
    field_series,
    module_series,
    molien_series,
    one_minus_powers,
    quotient_series,
    same_series,
)


def _monomials_of_degree(ring: PolyRing, degree: int) -> list[Polynomial]:
    """All monomials of the given total degree, grevlex-descending."""
    n = ring.nvars
    seen = []
    for combo in combinations_with_replacement(range(n), degree):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        seen.append(tuple(exps))
    seen.sort(key=GREVLEX.key_for(n), reverse=True)
    return [ring.monomial(e) for e in seen]


# ---------------------------------------------------------------------------
# Hilbert map
# ---------------------------------------------------------------------------

class NotInSubalgebraError(ValueError):
    """An invariant that is no polynomial in the Hilbert map's generators:
    the generators miss part of the invariant ring."""


class HilbertMap:
    """A generating set sigma_1..sigma_l of the invariant ring, with the
    tagged Groebner basis that powers subduction.

    The y alphabet doubles as coordinates of the orbit space model: the image
    of x -> (sigma_1(x), ..., sigma_l(x)) carries the quotient structure.
    ``certificate`` is the degree at which :func:`invariant_generators`
    certified the generators complete, or None (a search cut by its bound,
    or generators chosen by hand).
    """

    __slots__ = ("group", "sigma", "ring", "orbit_ring", "combined_ring", "tag_basis",
                 "certificate", "_monomial_forms", "_powers", "_relations", "__weakref__")

    def __init__(self, group, sigma, ring, orbit_ring, combined_ring, tag_basis):
        self.group = group
        self.sigma = sigma
        self.ring = ring
        self.orbit_ring = orbit_ring
        self.combined_ring = combined_ring
        self.tag_basis = tag_basis
        self.certificate: int | None = None
        # normal forms of ambient monomials against the tagged basis as
        # integer numerators over one denominator, by exponent tuple,
        # filled as subduction meets them
        self._monomial_forms: dict = {}
        # sigma^e by exponent tuple e, filled as substitution meets them
        self._powers = PowerTable(sigma)
        self._relations: RelationIdeal | None = None

    @staticmethod
    def from_polynomials(group: FiniteMatrixGroup, polys) -> "HilbertMap":
        """Assemble a Hilbert map from explicitly chosen generators, kept in
        the given order.  Invariance and minimality are verified."""
        sigma = tuple(polys)
        if not sigma:
            raise ValueError("a Hilbert map needs at least one generator")
        ring = sigma[0].ring
        if ring.nvars != group.n:
            raise ValueError("generator ring dimension differs from the group")
        for p in sigma:
            if not is_invariant(p, group):
                raise ValueError(f"not invariant: {p}")
        hmap = _assemble(group, sigma, ring)
        for j in range(len(sigma)):
            rest = sigma[:j] + sigma[j + 1 :]
            if rest and _subalgebra_rewrite(sigma[j], _assemble(group, rest, ring)) is not None:
                raise ValueError(f"generator {sigma[j]} is a polynomial in the others")
            if not rest and sigma[j].degree() < 1:
                raise ValueError("constant generator")
        return hmap

    def substitute_into(self, q: Polynomial) -> Polynomial:
        """Evaluate a y-polynomial on the generators: q(sigma_1, ..., sigma_l),
        summed as c * sigma^e over q's terms from the map's power table."""
        if q.ring != self.orbit_ring:
            raise ValueError("argument must live in the orbit ring")
        return self._powers.substitute(q)

    def __len__(self):
        return len(self.sigma)


def _assemble(group, sigma, ring) -> HilbertMap:
    n = ring.nvars
    orbit_ring = PolyRing.orbit(len(sigma))
    if set(orbit_ring.names) & set(ring.names):
        raise ValueError("ambient variable names collide with the orbit alphabet")
    combined = PolyRing(ring.names + orbit_ring.names)
    gens = [(combined.variable(n + j) - embed(s, combined, 0),) for j, s in enumerate(sigma)]
    # With y_j of weight deg sigma_j the tagged ideal I is homogeneous when
    # every sigma_j is, and Q[x, y]/I = Q[x] has the series 1/(1 - t)^n.
    hilbert = None
    if all(s.degree() > 0 and s.is_homogeneous() for s in sigma):
        weights = [1] * n + [s.degree() for s in sigma]
        hilbert = (weights, ([1], one_minus_powers([1] * n)))
    order = BlockOrder(n)
    tracked = _buchberger_tracked(gens, order, 0, hilbert=hilbert)
    tag_basis = GroebnerBasis(tuple(t.vec[0] for t in tracked), order)
    return HilbertMap(group, sigma, ring, orbit_ring, combined, tag_basis)


def _tag_normal_form(p: Polynomial, hmap: HilbertMap) -> Polynomial:
    """p's normal form against the tagged basis, in the combined alphabet,
    each monomial's form computed once per map."""
    fill = lambda exps: normal_form(embed(p.ring.monomial(exps), hmap.combined_ring, 0), hmap.tag_basis)
    return _tabled_sum(hmap.combined_ring, [(1, p, hmap._monomial_forms, fill)])


def _subalgebra_rewrite(p: Polynomial, hmap: HilbertMap) -> Polynomial | None:
    """The y-polynomial rewriting p through the generators, or None if p is
    not in the subalgebra they generate."""
    n = hmap.ring.nvars
    total = _tag_normal_form(p, hmap)
    if any(any(e[:n]) for e in total._num):
        return None
    return restrict(total, hmap.orbit_ring, n)


def _rewrite(p: Polynomial, hmap: HilbertMap) -> Polynomial:
    """:func:`_subalgebra_rewrite` of p, which must exist."""
    q = _subalgebra_rewrite(p, hmap)
    if q is None:
        raise NotInSubalgebraError("not in subalgebra generated by the Hilbert map")
    return q


def subduct(p: Polynomial, hmap: HilbertMap) -> Polynomial:
    """Rewrite an invariant polynomial as a polynomial in the generators.

    The result q satisfies q(sigma) = p exactly; it is the canonical normal
    form against the tagged basis, so equal inputs give equal outputs.
    """
    if p.ring != hmap.ring:
        raise ValueError("polynomial lives in the wrong ring")
    if not is_invariant(p, hmap.group):
        raise ValueError("not invariant")
    return _rewrite(p, hmap)


def _push_field(X: PolyVectorField, hmap: HilbertMap) -> tuple[Polynomial, ...]:
    """The pushforward of an invariant field in the orbit alphabet:
    component j rewrites X(sigma_j) through the generators.  Components are
    reduced modulo the relations, whose basis the tagged basis holds.
    X(sigma_j) is invariant whenever X is, so that is not tested again."""
    return tuple(_rewrite(X.apply(s), hmap) for s in hmap.sigma)


def invariant_generators(
    group: FiniteMatrixGroup, degree_bound: int | None = None
) -> HilbertMap:
    """Generators of the invariant ring by a graded search over Reynolds
    averages of monomials.

    The invariant ring is graded, so a degree-d average lies in the
    subalgebra of the generators found so far exactly when its normal form
    against the map of the lower-degree generators, less a combination of
    the degree-d generators' normal forms, is free of x; an exact echelon
    of those x parts decides each candidate.  One tagged basis is built per
    degree that gains generators.  Every generator is checked invariant,
    and each degree's generators must stay independent modulo the lower
    map, which for homogeneous generators is the leave-one-out minimality
    test of :meth:`HilbertMap.from_polynomials`.

    Degree d needs missing(d) generators, the dimension the x parts span:
    the degree-d coefficient of the Molien series less that of the lower
    generators' subalgebra.  A degree that needs none averages nothing, and
    a scan stops at its count, keeping what a full scan keeps; a degree that
    ends short of it, or a negative count, raises ``AssertionError``.

    The search stops at the end of the first degree d whose generators are
    certified complete, and records d as the map's ``certificate``: the
    Hilbert series of Q[y]/in(I), with y_j weighted by deg sigma_j and in(I)
    the leading monomials of the relations in the tagged basis, equals the
    Molien series.  By Noether's bound the generators of degree |G| or
    less generate, so the search ends at |G|, where series that still
    differ raise ``AssertionError``: the series or the search is wrong.
    ``degree_bound`` (default |G|) only caps the search; a map it cuts
    before the series agree has no certificate.

    Output order is canonical: ascending degree, then descending grevlex
    leading monomial within a degree.  The map is built once per group
    instance: while a caller holds a certified map, every call with a bound
    at or above its certificate returns it, and a map cut by a lower bound
    is kept for that bound.
    """
    bound = group.order if degree_bound is None else degree_bound
    if bound < 1:
        raise ValueError("degree bound must be positive")
    maps = group._hilbert_maps
    # the certified map is kept under None: it serves every bound it reaches
    hmap = maps.get(None)
    if hmap is None or hmap.certificate > bound:
        hmap = maps.get(bound)
    if hmap is None:
        hmap = _search_generators(group, bound)
        maps[bound if hmap.certificate is None else None] = hmap
    return hmap


def _search_generators(group: FiniteMatrixGroup, bound: int) -> HilbertMap:
    ring = PolyRing.ambient(group.n)
    molien = molien_series(group)
    counts = Expansion(molien)  # one expansion of the fixed series for the whole search
    sigma: list[Polynomial] = []
    hmap: HilbertMap | None = None  # the map of all generators found so far
    # the series of hmap's subalgebra, as its certificate test last read it
    found_series: Series = ([1], [1])
    for degree in range(1, bound + 1):
        missing = counts.coefficient(degree) - coefficient(found_series, degree)
        rows: dict = {}
        found = []
        for mono in _monomials_of_degree(ring, degree):
            if len(found) >= missing:
                break
            candidate = reynolds(mono, group)
            if not candidate.is_zero() and _echelon_insert(_x_part(candidate, hmap), rows):
                found.append(candidate.primitive())
        if len(found) != missing:
            raise AssertionError(f"internal error: {len(found)} generators in degree {degree}, counted {missing}")
        if found:
            found.sort(key=lambda p: GREVLEX.key(p.leading(GREVLEX)[0]), reverse=True)
            # the checks of from_polynomials: invariance, and minimality as
            # independence of the sorted generators modulo the lower map
            rows = {}
            for p in found:
                if not is_invariant(p, group):
                    raise AssertionError(f"internal error: not invariant: {p}")
                if not _echelon_insert(_x_part(p, hmap), rows):
                    raise AssertionError(f"internal error: generator {p} is a polynomial in the others")
            sigma.extend(found)
            hmap = _assemble(group, tuple(sigma), ring)
        if hmap is None or (not found and degree < group.order):
            continue
        if found:
            found_series = _subalgebra_series(hmap)
        if not same_series(found_series, molien):
            if degree < group.order:
                continue
            # Noether's bound: generators of degree |G| or less generate
            raise AssertionError(f"internal error: the generators of degree {degree} miss the Molien series")
        hmap.certificate = degree
        break
    if hmap is None:
        raise ValueError("no invariants found up to the degree bound")
    return hmap


def _subalgebra_series(hmap: HilbertMap) -> Series:
    """The Hilbert series of the subalgebra the map's generators span:
    that of Q[y]/in(I), y_j weighted by deg sigma_j, with in(I) the leading
    monomials of the relations in the tagged basis."""
    leads = [
        g.leading(GREVLEX)[0]
        for g in _elimination_part(hmap.tag_basis, hmap.ring.nvars).generators
    ]
    return quotient_series(leads, [s.degree() for s in hmap.sigma])


def _x_part(p: Polynomial, hmap: HilbertMap | None) -> dict:
    """The numerators of the terms of p's normal form against the map that
    involve x (all of p without a map): empty exactly when p is in the map's
    subalgebra.  A common denominator does not change the span, so it is
    left out."""
    if hmap is None:
        return dict(p._num)
    n = hmap.ring.nvars
    return {e: c for e, c in _tag_normal_form(p, hmap)._num.items() if any(e[:n])}


def _echelon_insert(vector: dict, rows: dict) -> bool:
    """Reduce a sparse integer vector by echelon rows (keyed by their
    largest coordinate); if something is left, add it, divided by its
    content, as a row and return True, else return False.  Only the span
    matters, so the steps are fraction-free: a * vector - b * row clears the
    pivot, with a : b the ratio of the two pivot entries."""
    while vector:
        pivot = max(vector)
        row = rows.get(pivot)
        if row is None:
            content = math.gcd(*vector.values())
            rows[pivot] = {e: c // content for e, c in vector.items()}
            return True
        a, b = row[pivot], vector[pivot]
        g = math.gcd(a, b)
        a, b = a // g, b // g
        vector = {e: a * c for e, c in vector.items()}
        for e, c in row.items():
            new = vector.get(e, 0) - b * c
            if new:
                vector[e] = new
            else:
                del vector[e]
    return False


# ---------------------------------------------------------------------------
# relation ideal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationIdeal:
    """All polynomial relations among the Hilbert map generators; the orbit
    space model is its zero set.  ``basis`` is the reduced Groebner basis
    over the orbit ring, so ``normal`` canonically represents classes.

    The normal form is linear, so ``normal`` sums c * NF(y^e) over the
    terms from a table of monomial normal forms kept per ideal.  A product
    of reduced representatives y^a * y^b = y^(a+b) is looked up there too.
    The table takes no part in equality or hashing."""

    basis: GroebnerBasis
    _forms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def normal(self, p: Polynomial) -> Polynomial:
        if not self.basis.generators:
            return p
        ring = self.basis.generators[0].ring
        if p.ring != ring:
            raise ValueError("incompatible rings")
        fill = lambda exps: normal_form(ring.monomial(exps), self.basis)
        return _tabled_sum(ring, [(1, p, self._forms, fill)])

    def is_member(self, p: Polynomial) -> bool:
        return self.normal(p).is_zero()

    def is_zero_ideal(self) -> bool:
        return not self.basis.generators


def relations(hmap: HilbertMap) -> RelationIdeal:
    """The x-free elements of the tagged basis: by the elimination theorem
    the reduced basis of the relations, with no Groebner basis built here.
    Every output vanishes identically under substitution of the generators.
    Computed once per map."""
    if hmap._relations is None:
        basis = _elimination_part(hmap.tag_basis, hmap.ring.nvars)
        for g in basis.generators:
            if not hmap.substitute_into(g).is_zero():
                raise AssertionError("internal error: relation fails under substitution")
        hmap._relations = RelationIdeal(basis)
    return hmap._relations


# ---------------------------------------------------------------------------
# invariant vector fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivariantModule:
    """A minimal generating set for the module of invariant polynomial
    vector fields over the invariant ring.  ``certificate`` is the degree
    at which :func:`equivariant_generators` certified it complete, or None;
    it takes no part in equality or hashing."""

    generators: tuple[PolyVectorField, ...]
    certificate: int | None = field(default=None, compare=False)

    def __len__(self):
        return len(self.generators)

    @property
    def ring(self) -> PolyRing:
        return self.generators[0].ring

    @staticmethod
    def from_fields(group: FiniteMatrixGroup, fields) -> "EquivariantModule":
        """Validate invariance and minimality: no field is a combination of
        the others with invariant coefficients."""
        fields = tuple(fields)
        if not fields:
            raise ValueError("empty generating set")
        for X in fields:
            if not is_invariant(X, group):
                raise ValueError(f"not invariant: {X}")
        hmap = invariant_generators(group)
        pushed = [_push_field(X, hmap) for X in fields]
        for j, X in enumerate(fields):
            rest = tuple(pushed[:j] + pushed[j + 1 :])
            span = SubmoduleProblem(len(hmap.sigma), rest, relations(hmap).basis)
            if rest and module_solve(pushed[j], span).member:
                raise ValueError(f"generator {X} is a combination of the others")
        return EquivariantModule(fields)


def invariant_basis(group: FiniteMatrixGroup, ring: PolyRing, degree: int) -> list[Polynomial]:
    """A deterministic linear basis of the invariant polynomials of one
    degree (Reynolds averages of monomials, row reduced)."""
    if degree == 0:
        return [ring.one()]
    monos = _monomials_of_degree(ring, degree)
    coords = sorted({e for m in monos for e in m._num}, key=GREVLEX.key_for(ring.nvars), reverse=True)
    index = {e: i for i, e in enumerate(coords)}
    rows = []
    for m in monos:
        avg = reynolds(m, group)
        if avg.is_zero():
            continue
        row = [Fraction(0)] * len(coords)
        for e, c in avg.terms.items():
            row[index[e]] = c
        rows.append(row)
    if not rows:
        return []
    reduced, pivots = linalg.echelon(rows)
    basis = []
    for r in reduced[: len(pivots)]:
        terms = {coords[i]: c for i, c in enumerate(r) if c}
        basis.append(Polynomial(ring, terms).primitive())
    return basis


def invariant_combination(
    target: PolyVectorField,
    fields,
    group: FiniteMatrixGroup,
) -> list[Polynomial] | None:
    """Express ``target`` as sum h_j * fields_j with each h_j invariant, or
    return None.  The fields must be invariant.

    Exact submodule membership of the pushforwards modulo the relation
    ideal, against the default-bound Hilbert map; the h_j are the witness
    substituted into the generators, checked by rebuilding the target."""
    fields = tuple(fields)
    if not is_invariant(target, group):
        return None
    if not fields:
        return [] if target.is_zero() else None
    hmap = invariant_generators(group)
    columns = tuple(_push_field(X, hmap) for X in fields)
    span = SubmoduleProblem(len(hmap.sigma), columns, relations(hmap).basis)
    outcome = module_solve(_push_field(target, hmap), span)
    if not outcome.member:
        return None
    combination = [hmap.substitute_into(h) for h in outcome.witness]
    rebuilt = PolyVectorField.zero(target.ring)
    for h, X in zip(combination, fields):
        rebuilt = rebuilt + h * X
    if rebuilt != target:
        raise AssertionError("internal error: combination does not rebuild the target")
    return combination


def equivariant_generators(
    group: FiniteMatrixGroup, degree_bound: int | None = None
) -> EquivariantModule:
    """Generators of the invariant vector fields by a graded search over
    averaged monomial fields (see the module docstring), against the
    group's certified Hilbert map (the caller's, while one is held).  A
    candidate is kept when its pushforward's normal form is independent of
    those kept in its degree; for homogeneous fields that is the
    leave-one-out test of :meth:`EquivariantModule.from_fields`.

    Degree d needs missing(d) fields, counted and scanned as in
    :func:`invariant_generators` from the field series and the series of
    the lower fields' span.

    The search stops at the end of the first degree d whose fields are
    certified complete, and records d as the module's ``certificate``: the
    series of the pushed span equals the field series of the group.  The
    fields are the invariants on V + V* linear in V*, so Noether's bound
    |G| there puts every field generator in degree |G| - 1 or below, and
    the search ends at |G| - 1.  If that degree gains no field, the series
    read at the last degree that did must equal the field series, or
    ``AssertionError`` is raised; fields new in degree |G| - 1 end the
    search untested.  ``degree_bound`` (default |G|) only caps the search;
    a module it cuts before the series agree has no certificate.
    """
    bound = group.order if degree_bound is None else degree_bound
    if bound < 0:
        raise ValueError("degree bound must be non-negative")
    hmap = invariant_generators(group)
    ring = hmap.ring
    series = field_series(group)
    counts = Expansion(series)  # one expansion of the fixed series for the whole search
    kept: list[PolyVectorField] = []
    pushed: list[tuple[Polynomial, ...]] = []
    span: SubmoduleProblem | None = None  # the fields of lower degrees, once there are any
    # the series of span, as its certificate test last read it
    found_series: Series = ([], [1])
    certificate = None
    for degree in range(0, bound + 1):
        missing = counts.coefficient(degree) - coefficient(found_series, degree)
        rows: dict = {}
        for X in _monomial_fields(ring, degree):
            if len(rows) >= missing:
                break
            candidate = reynolds(X, group)
            if candidate.is_zero():
                continue
            column = _push_field(candidate, hmap)
            # with no lower-degree fields a pushforward is its own normal form
            normal = column if span is None else _module_normal_form(column, span)
            den = math.lcm(*(q._den for q in normal))
            vector = {
                (j, e): c * (den // q._den) for j, q in enumerate(normal) for e, c in q._num.items()
            }
            if _echelon_insert(vector, rows):
                kept.append(PolyVectorField(ring, make_primitive(candidate.components)))
                pushed.append(column)
        if len(rows) != missing:
            raise AssertionError(f"internal error: {len(rows)} fields in degree {degree}, counted {missing}")
        if rows:
            span = SubmoduleProblem(len(hmap.sigma), tuple(pushed), relations(hmap).basis)
        if span is None or (not rows and degree < group.order - 1):
            continue
        if degree < group.order - 1:
            found_series = _span_series(span, hmap)
            if not same_series(found_series, series):
                continue
        elif not rows and not same_series(found_series, series):
            # Noether's bound: the fields of lower degrees generate, so the
            # series read at the last degree that gained fields must agree
            raise AssertionError(f"internal error: the fields of degree {degree} miss the field series")
        certificate = degree
        break
    if not kept:
        raise ValueError("no invariant fields found up to the degree bound")
    return EquivariantModule(tuple(kept), certificate)


def _monomial_fields(ring: PolyRing, degree: int):
    """The fields m d/dx_i, m a monomial of the given degree, in search
    order: monomials grevlex-descending, then i ascending."""
    for mono in _monomials_of_degree(ring, degree):
        for i in range(ring.nvars):
            components = [ring.zero()] * ring.nvars
            components[i] = mono
            yield PolyVectorField(ring, components)


def _span_series(span: SubmoduleProblem, hmap: HilbertMap) -> Series:
    """The Hilbert series of the pushed fields' span modulo the relations,
    shifted back to field degrees: with J_j the leading monomials at
    position j of the relations and of the span's module basis,
    sum_j t^(1 - deg sigma_j) (K_in(I) - K_J_j) / prod(1 - t^(deg sigma)).
    The module basis read here is the one the next degree's membership
    tests use."""
    ideal_leads = [g.leading(GREVLEX)[0] for g in relations(hmap).basis.generators]
    weights = [s.degree() for s in hmap.sigma]
    return module_series(ideal_leads, _position_leads(span), weights)

