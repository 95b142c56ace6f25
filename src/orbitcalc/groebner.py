"""Buchberger-based ideal and module computations.

Scalar layer: reduced Groebner bases (sugar selection strategy, product and
chain criteria), normal forms, and elimination ideals.  Scalar bases track
representations over no input; only the module layer reads them.

Module layer: a rank-r vector is encoded as the tag-linear polynomial
sum(e_i * v_i) in r position-tag variables, under a block order that
dominates the scalar order (position over term).  The same Buchberger loop
runs on these encodings, but only pairs whose leading terms share a position
are formed, so every basis element, quotient and representation stays
tag-linear or tag-free.  Submodule membership returns explicit witnesses
and syzygy generating sets come from Schreyer's S-pair lifting on the final
basis; both read only coefficients on the columns, so representations are
tracked over the columns alone, never over the ideal padding.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .algebra import (
    GREVLEX,
    BlockOrder,
    Exponents,
    MonomialOrder,
    PolyRing,
    Polynomial,
    make_primitive,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    restrict,
)

CancelCheck = Callable[[], bool]


class ComputationCancelled(RuntimeError):
    """Raised when a caller-supplied cancellation token fires mid-computation."""


def _poll(cancel: CancelCheck | None):
    if cancel is not None and cancel():
        raise ComputationCancelled("computation cancelled by caller")


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

class _Descending:
    """Work-monomial heap entry; the inverted comparison makes ``heapq`` pop
    the largest monomial under the order first."""

    __slots__ = ("key", "exps")

    def __init__(self, key, exps: Exponents):
        self.key = key
        self.exps = exps

    def __lt__(self, other: "_Descending") -> bool:
        return other.key < self.key


def divide(
    p: Polynomial,
    divisors: Sequence[Polynomial],
    order: MonomialOrder,
    divisor_order: Sequence[int] | None = None,
    *,
    _leads: Sequence[tuple[Exponents, Fraction]] | None = None,
) -> tuple[Polynomial, list[Polynomial]]:
    """Full multivariate division: ``p = sum(q_i * divisors_i) + remainder``.

    No remainder term is divisible by any divisor's leading monomial.  The
    divisor preference defaults to list order; ``divisor_order`` permutes it
    (used by the confluence property test — the remainder must not depend on
    the strategy once the divisors form a Groebner basis).  ``_leads`` is
    internal: the divisors' leading terms, when the caller already has them.
    """
    ring = p.ring
    preference = divisor_order if divisor_order is not None else range(len(divisors))
    heads = []
    for i in preference:
        d = divisors[i]
        if d.is_zero():
            continue
        lm, lc = d.leading(order) if _leads is None else _leads[i]
        heads.append((i, d.terms, lm, lc))
    quotients: list[dict] = [{} for _ in divisors]
    remainder_terms: dict = {}
    work = dict(p.terms)
    # Every monomial of ``work`` is on the heap; entries whose monomial has
    # cancelled since are skipped.  A reduction step only adds monomials
    # below the one it reduces, so a popped monomial never comes back.
    heap = [_Descending(order.key(e), e) for e in work]
    heapq.heapify(heap)
    queued = set(work)
    while heap:
        exps = heapq.heappop(heap).exps
        coeff = work.pop(exps, None)
        if coeff is None:
            continue
        for i, terms, lm, lc in heads:
            if mono_divides(lm, exps):
                factor_exps = mono_div(exps, lm)
                factor_coeff = coeff / lc
                quotients[i][factor_exps] = factor_coeff
                minus = -factor_coeff
                for e, c in terms.items():
                    if e == lm:
                        continue
                    e = mono_mul(e, factor_exps)
                    old = work.get(e)
                    if old is None:
                        work[e] = minus * c
                        if e not in queued:
                            queued.add(e)
                            heapq.heappush(heap, _Descending(order.key(e), e))
                        continue
                    new = old + minus * c
                    if new:
                        work[e] = new
                    else:
                        del work[e]
                break
        else:
            remainder_terms[exps] = coeff
    return Polynomial(ring, remainder_terms), [Polynomial(ring, q) for q in quotients]


# ---------------------------------------------------------------------------
# Buchberger with sugar strategy, product + chain criteria, and
# representation tracking over the leading inputs (the module columns)
# ---------------------------------------------------------------------------

@dataclass
class _Tracked:
    poly: Polynomial
    rep: list[Polynomial]  # poly - sum(rep[j] * gens[j]) is in the ideal of gens[len(rep):]
    sugar: int
    lead: tuple[Exponents, Fraction]  # poly.leading(order), computed once


def _scale_tracked(t: _Tracked, c: Fraction) -> _Tracked:
    lm, lc = t.lead
    return _Tracked(t.poly.scale(c), [r.scale(c) for r in t.rep], t.sugar, (lm, lc * c))


def _subtract_reps(rep, quotients, basis: Sequence[_Tracked]):
    """``rep - sum(q_k * basis_k.rep)``: the representation of a remainder
    after dividing by ``basis`` with the given quotients."""
    for q, u in zip(quotients, basis):
        if not q.is_zero():
            rep = [r - q * ur for r, ur in zip(rep, u.rep)]
    return rep


def _buchberger_tracked(
    gens: Sequence[Polynomial],
    order: MonomialOrder,
    columns: int,
    cancel: CancelCheck | None = None,
    rank: int = 0,
) -> list[_Tracked]:
    """Reduced Groebner basis with representations over the first
    ``columns`` inputs (0 for :func:`buchberger`; the module columns, not the
    ideal padding, for the module layer).

    Output elements are monic, pairwise interreduced, and sorted by leading
    monomial (descending) so results are byte-reproducible.  With ``rank`` > 0
    the first ``rank`` variables are module positions: no pair is formed
    between elements whose leading monomials differ there, which makes the
    result a position-over-term module basis of tag-linear inputs.
    """
    basis: list[_Tracked] = []
    # Pending S-pairs, smallest (sugar, lcm, i, j) first.  The basis only
    # grows, so a pair's key never changes once pushed, and (i, j) makes it
    # unique.  ``pending`` holds the same pairs for the chain criterion.
    queue: list[tuple] = []
    pending: set[tuple[int, int]] = set()

    def append(t: _Tracked):
        j = len(basis)
        lj = t.lead[0]
        for i, u in enumerate(basis):
            li = u.lead[0]
            if li[:rank] != lj[:rank]:
                continue
            lcm = mono_lcm(li, lj)
            sugar = max(
                u.sugar + mono_degree(mono_div(lcm, li)),
                t.sugar + mono_degree(mono_div(lcm, lj)),
            )
            heapq.heappush(queue, (sugar, order.key(lcm), i, j))
            pending.add((i, j))
        basis.append(t)

    for j, g in enumerate(gens):
        if g.is_zero():
            continue  # zero generators are dropped silently
        rep = [g.ring.zero() for _ in range(columns)]
        if j < columns:
            rep[j] = g.ring.one()
        append(_Tracked(g, rep, g.degree(), g.leading(order)))

    while queue:
        _poll(cancel)
        _, _, i, j = heapq.heappop(queue)
        pending.discard((i, j))
        fi, fj = basis[i], basis[j]
        (li, ci), (lj, cj) = fi.lead, fj.lead
        lcm = mono_lcm(li, lj)
        # product criterion: coprime leading monomials reduce to zero
        if lcm == mono_mul(li, lj):
            continue
        # chain criterion: some k divides the lcm and both mixed pairs are done
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if mono_divides(basis[k].lead[0], lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        ui, uj = mono_div(lcm, li), mono_div(lcm, lj)
        si, sj = Fraction(1) / ci, Fraction(1) / cj
        s_poly = fi.poly.mul_monomial(ui, si) - fj.poly.mul_monomial(uj, sj)
        s_sugar = max(fi.sugar + mono_degree(ui), fj.sugar + mono_degree(uj))
        remainder, quotients = divide(
            s_poly, [t.poly for t in basis], order, _leads=[t.lead for t in basis]
        )
        if remainder.is_zero():
            continue
        rep = [
            ri.mul_monomial(ui, si) - rj.mul_monomial(uj, sj) for ri, rj in zip(fi.rep, fj.rep)
        ]
        rep = _subtract_reps(rep, quotients, basis)
        sugar = max(s_sugar, remainder.degree())
        append(_Tracked(remainder, rep, sugar, remainder.leading(order)))

    return _reduce_tracked(basis, order)


def _reduce_tracked(basis: list[_Tracked], order: MonomialOrder) -> list[_Tracked]:
    # minimal: drop elements whose leading monomial another's divides
    kept: list[_Tracked] = []
    for idx, t in enumerate(basis):
        lm = t.lead[0]
        redundant = False
        for jdx, other in enumerate(basis):
            if jdx == idx:
                continue
            lo = other.lead[0]
            if mono_divides(lo, lm) and (lo != lm or jdx < idx):
                redundant = True
                break
        if not redundant:
            kept.append(t)
    # interreduce tails and normalize monic; no other kept leading monomial
    # divides t's, so t's leading term is also the remainder's
    reduced: list[_Tracked] = []
    for idx, t in enumerate(kept):
        others = [u for k, u in enumerate(kept) if k != idx]
        remainder, quotients = divide(
            t.poly, [u.poly for u in others], order, _leads=[u.lead for u in others]
        )
        rep = _subtract_reps(t.rep, quotients, others)
        lc = t.lead[1]
        reduced.append(
            _scale_tracked(_Tracked(remainder, rep, t.sugar, t.lead), Fraction(1) / lc)
        )
    reduced.sort(key=lambda t: order.key(t.lead[0]), reverse=True)
    return reduced


# ---------------------------------------------------------------------------
# public scalar API
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis together with its monomial order."""

    generators: tuple[Polynomial, ...]
    order: MonomialOrder
    reduced: bool = True

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def buchberger(
    gens: Sequence[Polynomial],
    order: MonomialOrder = GREVLEX,
    cancel: CancelCheck | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Idempotent: running it on its own output returns the same basis.  Long
    computations poll ``cancel`` once per S-pair and raise
    :class:`ComputationCancelled` when it returns True.
    """
    rings = {g.ring for g in gens}
    if len(rings) > 1:
        raise ValueError("incompatible rings among generators")
    tracked = _buchberger_tracked(gens, order, 0, cancel)
    return GroebnerBasis(tuple(t.poly for t in tracked), order, True)


def normal_form(
    p: Polynomial,
    gb: GroebnerBasis,
    divisor_order: Sequence[int] | None = None,
) -> Polynomial:
    """Remainder of full division by the basis: the canonical representative
    of ``p`` modulo the ideal.  Zero iff ``p`` is an ideal member."""
    if not gb.generators:
        return p
    if p.ring != gb.generators[0].ring:
        raise ValueError("incompatible rings")
    remainder, _ = divide(p, gb.generators, gb.order, divisor_order)
    return remainder


def eliminate(
    gens: Sequence[Polynomial],
    drop: int,
    cancel: CancelCheck | None = None,
) -> GroebnerBasis:
    """Intersect the ideal with the subring omitting the first ``drop``
    variables: one reduced basis under the block-elimination order (dropped
    block first), read off by :func:`_elimination_part`.

    Input polynomials live in the combined alphabet; the output basis lives
    in the ring of the kept trailing variables, in grevlex order.
    """
    return _elimination_part(buchberger(gens, BlockOrder(drop), cancel), drop)


def _elimination_part(block_gb: GroebnerBasis, drop: int) -> GroebnerBasis:
    """The elements of a reduced ``BlockOrder(drop)`` basis that are free of
    the first ``drop`` variables, restricted to the ring of the others.

    By the elimination theorem they are a Groebner basis of the elimination
    ideal for the order the block order induces on the kept variables, which
    is grevlex.  Monic and interreduced already, they are its reduced grevlex
    basis, in the descending order :func:`buchberger` gives.
    """
    if not block_gb.generators:
        return GroebnerBasis((), GREVLEX, True)
    keep_ring = PolyRing(block_gb.generators[0].ring.names[drop:])
    kept = tuple(
        restrict(g, keep_ring, drop)
        for g in block_gb.generators
        if not any(any(e[:drop]) for e in g.terms)
    )
    return GroebnerBasis(kept, GREVLEX, True)


# ---------------------------------------------------------------------------
# module layer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubmoduleProblem:
    """Membership problem: is a vector in the span of ``columns`` over the
    scalar ring, modulo componentwise multiples of ``ideal``?

    Columns ``e_i * g`` for every ideal generator ``g`` are adjoined
    automatically, so membership is tested modulo the ideal.  The tracked
    module basis is built by the first :func:`module_solve` or syzygy
    computation on the problem and reused by every later one.
    """

    ambient_rank: int
    columns: tuple[tuple[Polynomial, ...], ...]
    ideal: GroebnerBasis
    _basis: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ambient_rank < 1:
            raise ValueError("module rank must be positive")
        for col in self.columns:
            if len(col) != self.ambient_rank:
                raise ValueError("column length differs from ambient rank")


@dataclass(frozen=True)
class ModuleMembership:
    """Outcome of :func:`module_solve`: a verified witness or a certificate."""

    member: bool
    witness: tuple[Polynomial, ...] | None = None
    certificate: tuple[Polynomial, ...] | None = None


class _ModuleCodec:
    """Vectors of length r over the scalar ring <-> tag-linear polynomials:
    component i sits behind the one-hot exponent prefix of the tag e_i."""

    def __init__(self, rank: int, scalar_ring: PolyRing):
        self.rank = rank
        self.scalar_ring = scalar_ring
        tags = tuple(f"_e{i + 1}" for i in range(rank))
        self.ring = PolyRing(tags + scalar_ring.names)
        self.order = BlockOrder(rank)
        self._prefixes = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]

    def _tagged(self, i: int, component: Polynomial) -> dict:
        """The terms of ``e_i * component``."""
        if component.ring != self.scalar_ring:
            raise ValueError("vector component lives outside the scalar ring")
        prefix = self._prefixes[i]
        return {prefix + e: c for e, c in component.terms.items()}

    def encode(self, vector: Sequence[Polynomial]) -> Polynomial:
        if len(vector) != self.rank:
            raise ValueError("vector length differs from ambient rank")
        terms: dict = {}
        for i, component in enumerate(vector):
            terms.update(self._tagged(i, component))
        return Polynomial(self.ring, terms)

    def decode(self, p: Polynomial) -> tuple[Polynomial, ...]:
        components = [dict() for _ in range(self.rank)]
        for exps, coeff in p.terms.items():
            head = exps[: self.rank]
            if sum(head) != 1:
                raise ValueError("polynomial is not a tag-linear vector encoding")
            i = head.index(1)
            components[i][exps[self.rank :]] = coeff
        return tuple(Polynomial(self.scalar_ring, c) for c in components)

    def padding(self, ideal: GroebnerBasis) -> list[Polynomial]:
        """``e_i * g`` for every ideal generator g and position i."""
        return [
            Polynomial(self.ring, self._tagged(i, g))
            for g in ideal.generators
            for i in range(self.rank)
        ]


def _module_basis(
    problem: SubmoduleProblem, cancel: CancelCheck | None
) -> tuple[_ModuleCodec, list[Polynomial], list[_Tracked]]:
    """The problem's codec, its generators (encoded columns, then the ideal
    padding) and their position-over-term basis with representations over
    the columns; built on first use and kept on the problem."""
    if problem._basis is None:
        columns, ideal = problem.columns, problem.ideal
        if columns:
            scalar_ring = columns[0][0].ring
        elif ideal.generators:
            scalar_ring = ideal.generators[0].ring
        else:
            raise ValueError("cannot infer scalar ring from an empty problem")
        codec = _ModuleCodec(problem.ambient_rank, scalar_ring)
        gens = [codec.encode(col) for col in columns] + codec.padding(ideal)
        tracked = _buchberger_tracked(gens, codec.order, len(columns), cancel, codec.rank)
        object.__setattr__(problem, "_basis", (codec, gens, tracked))
    return problem._basis


def _position_leads(problem: SubmoduleProblem) -> list[list[Exponents]]:
    """The leading monomials of the problem's module basis, one list per
    position: the monomial ideals whose sum is the initial submodule."""
    codec, _, tracked = _module_basis(problem, None)
    leads: list[list[Exponents]] = [[] for _ in range(codec.rank)]
    for t in tracked:
        lm = t.lead[0]
        leads[lm[: codec.rank].index(1)].append(lm[codec.rank :])
    return leads


def _over_columns(combo: Sequence[Polynomial], problem: SubmoduleProblem) -> list[Polynomial]:
    """Translate a combination over the problem's module basis into the
    scalar coefficients it puts on the columns."""
    codec, _, tracked = problem._basis
    out = [codec.ring.zero() for _ in problem.columns]
    for z, t in zip(combo, tracked):
        if z.is_zero():
            continue
        for j, r in enumerate(t.rep):
            if not r.is_zero():
                out[j] = out[j] + z * r
    return [restrict(p, codec.scalar_ring, codec.rank) for p in out]


def module_solve(
    target: Sequence[Polynomial],
    problem: SubmoduleProblem,
    cancel: CancelCheck | None = None,
) -> ModuleMembership:
    """Decide membership of ``target`` in the column span modulo the ideal.

    On success the witness lists one coefficient polynomial per column and is
    verified by substitution before being returned; on failure the nonzero
    module normal form is the certificate.
    """
    if len(target) != problem.ambient_rank:
        raise ValueError("target length differs from ambient rank")
    codec, _, tracked = _module_basis(problem, cancel)
    remainder, quotients = divide(
        codec.encode(target),
        [t.poly for t in tracked],
        codec.order,
        _leads=[t.lead for t in tracked],
    )
    if not remainder.is_zero():
        return ModuleMembership(member=False, certificate=codec.decode(remainder))
    witness = _over_columns(quotients, problem)
    _verify_combination(problem, witness, target, "module witness")
    return ModuleMembership(member=True, witness=tuple(witness))


def _verify_combination(problem: SubmoduleProblem, coefficients, target, what: str):
    """Check ``sum(c_i * columns_i) == target`` row by row modulo the ideal."""
    for row, want in enumerate(target):
        acc = want.ring.zero()
        for c, col in zip(coefficients, problem.columns):
            acc = acc + c * col[row]
        if not normal_form(acc - want, problem.ideal).is_zero():
            raise AssertionError(f"internal error: {what} failed verification")


def syzygies(
    columns: Sequence[Sequence[Polynomial]],
    ideal: GroebnerBasis,
    cancel: CancelCheck | None = None,
) -> list[tuple[Polynomial, ...]]:
    """Generating set of the relations ``sum(c_i * columns_i) = 0 mod ideal``.

    Output rows are primitive-integer rescaled, deduplicated, sorted, and each
    verified exactly by componentwise normal form against the ideal.
    """
    if not columns:
        return []
    columns = tuple(tuple(col) for col in columns)
    return _span_syzygies(SubmoduleProblem(len(columns[0]), columns, ideal), cancel)


def _span_syzygies(
    problem: SubmoduleProblem, cancel: CancelCheck | None = None
) -> list[tuple[Polynomial, ...]]:
    """:func:`syzygies` of the problem's columns modulo its ideal, on the
    problem's module basis (built here only if no solve has built it)."""
    codec, gens, tracked = _module_basis(problem, cancel)
    rank = problem.ambient_rank
    basis = [t.poly for t in tracked]
    leads = [t.lead for t in tracked]
    order = codec.order

    rows: list[list[Polynomial]] = []

    # Schreyer relations on the final basis: the S-pair of every two
    # elements whose leading terms share a position, no criteria
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            la, lb = leads[a][0], leads[b][0]
            if la[:rank] != lb[:rank]:
                continue
            _poll(cancel)
            lcm = mono_lcm(la, lb)
            ua, ub = mono_div(lcm, la), mono_div(lcm, lb)
            s_poly = basis[a].mul_monomial(ua) - basis[b].mul_monomial(ub)
            remainder, quotients = divide(s_poly, basis, order, _leads=leads)
            if not remainder.is_zero():
                raise AssertionError("internal error: basis is not a Groebner basis")
            combo = [q.scale(-1) for q in quotients]
            combo[a] = combo[a] + codec.ring.monomial(ua)
            combo[b] = combo[b] - codec.ring.monomial(ub)
            rows.append(_over_columns(combo, problem))

    # completion rows: each generator minus its own expression through the
    # basis (all generators — the padding rows also project onto column
    # coefficients)
    for j, g in enumerate(gens):
        _poll(cancel)
        remainder, quotients = divide(g, basis, order, _leads=leads)
        if not remainder.is_zero():
            raise AssertionError("internal error: generator escaped its own ideal")
        row = _over_columns([q.scale(-1) for q in quotients], problem)
        if j < len(problem.columns):
            row[j] = row[j] + codec.scalar_ring.one()
        rows.append(row)

    # normalize, dedupe, verify
    seen: set[tuple] = set()
    results: list[tuple[Polynomial, ...]] = []
    zeros = [codec.scalar_ring.zero()] * rank
    for row in rows:
        if all(p.is_zero() for p in row):
            continue
        row = make_primitive(row)
        key = tuple(frozenset(p.terms.items()) for p in row)
        if key in seen:
            continue
        seen.add(key)
        _verify_combination(problem, row, zeros, "syzygy")
        results.append(tuple(row))
    results.sort(key=lambda row: tuple(str(p) for p in row))
    return results
