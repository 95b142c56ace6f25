"""Buchberger-based ideal and module computations.

One Buchberger loop works on vectors, tuples of scalar polynomials, under
the position-over-term order (position 0 first, then the scalar order),
modulo an ideal whose generators act at every position.  Scalar layer: the
loop on rank-1 vectors with no ideal gives reduced Groebner bases (sugar
strategy, product and chain criteria), normal forms, and elimination
ideals.  Module layer: submodules of (R/I)^r (Greuel & Pfister, *A Singular
Introduction to Commutative Algebra*, 2.3).  Pairs are formed between
elements leading at the same position, and between an element and an ideal
generator whose leading monomials share a variable.  Submodule membership
returns explicit witnesses, and syzygy generating sets come from Schreyer's
lifting of the same pairs on the final basis (2.5); both read only
coefficients on the columns, so representations are tracked over the
columns alone.

A scalar ideal that is homogeneous for some positive variable weights, and
whose quotient has a Hilbert series known in advance, gets a
Hilbert-driven run (Traverso, *Hilbert functions and the Buchberger
algorithm*, 1996): pairs go by weighted degree, and once the leading
monomials found so far leave as many standard monomials of a degree as the
known series counts, the remaining pairs of that degree reduce to zero and
are dropped unreduced.  The run ends by checking that the series of the
leading monomials equals the known one, which certifies the basis.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, Sequence

from .algebra import (
    GREVLEX,
    BlockOrder,
    Exponents,
    MonomialOrder,
    Piece,
    PolyRing,
    Polynomial,
    _sum_pieces,
    combination,
    make_primitive,
    mono_degree,
    monomial_ops,
    restrict,
)
from .series import Series, added_numerator, coefficient, one_minus_powers, same_series

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
    *,
    _leads: Sequence[tuple[Exponents, Fraction]] | None = None,
    _quotients: bool = True,
) -> tuple[Polynomial, list[Polynomial]]:
    """Full multivariate division: ``p = sum(q_i * divisors_i) + remainder``.

    No remainder term is divisible by any divisor's leading monomial; a
    term is reduced by the first divisor in list order whose leading
    monomial divides it.  ``_leads`` and ``_quotients`` are internal: the
    divisors' leading terms, when the caller already has them, and False
    when the caller discards the quotients, which are then not built (an
    empty list comes back).

    The arithmetic is on the integer numerators of the polynomials.  Each
    divisor D is numerators N over a denominator, with leading numerator
    L.  The work polynomial is held as numerators c over one running scale
    s.  A step on the work term c * x^v subtracts (c // g) * x^u * N, where
    g = gcd(c, L) and x^u * lm(D) = x^v; when m = L // g is not 1, every
    work numerator and s are first multiplied by m.  A settled remainder or
    quotient term keeps the scale it was settled at, and is brought over the
    final scale once the work is empty.  That scale is negative when some L
    was, and each result is built in lowest terms with a positive
    denominator.
    """
    ring = p.ring
    key, ops = order.key_for(ring.nvars), monomial_ops(ring.nvars)
    divides, div, mul = ops.divides, ops.div, ops.mul
    heads = []
    leads = [1] * len(divisors)
    for i, d in enumerate(divisors):
        if not d._num:
            continue
        lm = max(d._num, key=key) if _leads is None else _leads[i][0]
        leads[i] = d._num[lm]
        heads.append((i, d._num.items(), d._den, lm, leads[i]))
    # settled terms as (exponents, numerator, scale at settling)
    quotients: list[list] = [[] for _ in divisors] if _quotients else []
    remainder: list = []
    work = dict(p._num)
    scale = p._den
    # Every monomial of ``work`` is on the heap; entries whose monomial has
    # cancelled since are skipped.  A reduction step only adds monomials
    # below the one it reduces, so a popped monomial never comes back.
    heap = [_Descending(key(e), e) for e in work]
    heapq.heapify(heap)
    queued = set(work)
    while heap:
        exps = heapq.heappop(heap).exps
        coeff = work.pop(exps, None)
        if coeff is None:
            continue
        for i, numerators, den, lm, lead in heads:
            if divides(lm, exps):
                factor_exps = div(exps, lm)
                if _quotients:
                    # the term coeff * den / (scale * lead)
                    quotients[i].append((factor_exps, coeff * den, scale))
                g = gcd(coeff, lead)
                m = lead // g
                if m != 1:
                    scale *= m
                    for e in work:
                        work[e] *= m
                minus = -(coeff // g)
                for e, n in numerators:
                    if e == lm:
                        continue
                    e = mul(e, factor_exps)
                    old = work.get(e)
                    if old is None:
                        work[e] = minus * n
                        if e not in queued:
                            queued.add(e)
                            heapq.heappush(heap, _Descending(key(e), e))
                        continue
                    new = old + minus * n
                    if new:
                        work[e] = new
                    else:
                        del work[e]
                break
        else:
            remainder.append((exps, coeff, scale))

    def settled(terms, den):
        return Polynomial._make(ring, {e: c * (scale // s) for e, c, s in terms}, den)

    return settled(remainder, scale), [settled(q, scale * L) for q, L in zip(quotients, leads)]


# ---------------------------------------------------------------------------
# Buchberger on vectors modulo an ideal, with sugar strategy, product + chain
# criteria, and representations over the leading inputs (the module columns)
# ---------------------------------------------------------------------------

Vector = tuple[Polynomial, ...]


@dataclass
class _Tracked:
    # An ideal generator g is stored once, as vec (g,) at position -1: it
    # acts at every position.  Either way vec[pos] is the leading component.
    vec: Vector
    rep: list[Polynomial]  # vec - sum(rep[j] * gens[j]) has every component in the ideal
    sugar: int
    pos: int
    lead: tuple[Exponents, Fraction]  # vec[pos].leading(order), computed once


def _scale_tracked(t: _Tracked, c: Fraction) -> _Tracked:
    lm, lc = t.lead
    vec = tuple(p.scale(c) for p in t.vec)
    return _Tracked(vec, [r.scale(c) for r in t.rep], t.sugar, t.pos, (lm, lc * c))


def _is_zero_vector(vec: Vector) -> bool:
    return not any(c._num for c in vec)


def _forms_pair(t: _Tracked, u: _Tracked) -> bool:
    """Whether the element ``t`` and ``u`` have an S-pair: ``u`` leads at
    the same position, or is an ideal generator whose leading monomial
    shares a variable with t's (a coprime one reduces to zero)."""
    if u.pos < 0:
        return any(x and y for x, y in zip(t.lead[0], u.lead[0]))
    return u.pos == t.pos


def _s_vector(
    f: _Tracked, g: _Tracked, uf: Exponents, ug: Exponents, sf: Fraction, sg: Fraction
) -> Vector:
    """The S-vector u_f * f * s_f - u_g * g * s_g of an element f and an
    element or ideal generator g leading at f's position, where u_f, u_g
    take both leading monomials to their lcm and s_f, s_g are the inverse
    leading coefficients.  Each component is summed once, over the integer
    numerators of its shifted parts."""

    ring = f.vec[0].ring
    mul = monomial_ops(ring.nvars).mul

    def part(p: Polynomial, u: Exponents, s: Fraction) -> Piece:
        shifted = ((mul(e, u), n) for e, n in p._num.items())
        return shifted, p._den * s.denominator, s.numerator

    if g.pos >= 0:
        return tuple(
            _sum_pieces(ring, [part(a, uf, sf), part(b, ug, -sg)]) for a, b in zip(f.vec, g.vec)
        )
    return tuple(
        _sum_pieces(ring, [part(a, uf, sf)] + ([part(g.vec[0], ug, -sg)] if i == f.pos else []))
        for i, a in enumerate(f.vec)
    )


def _subtract_reps(rep, quotients, basis: Sequence[_Tracked]):
    """``rep - sum(q_k * basis_k.rep)``: the representation of a remainder
    after dividing by ``basis`` with the given quotients."""
    for q, u in zip(quotients, basis):
        if not q.is_zero():
            rep = [r - q * ur for r, ur in zip(rep, u.rep)]
    return rep


class _Divisors:
    """The divisors at each position of a basis that only grows, kept as it
    grows: the indices of the elements leading at the position, in basis
    order, and the leading components and terms of those elements followed
    by the ideal generators', which act at every position."""

    __slots__ = ("ideal", "_ideal_polys", "_ideal_leads", "_at")

    def __init__(self, basis: Sequence[_Tracked]):
        self.ideal = [k for k, t in enumerate(basis) if t.pos < 0]
        self._ideal_polys = [basis[k].vec[0] for k in self.ideal]
        self._ideal_leads = [basis[k].lead for k in self.ideal]
        self._at: dict[int, tuple[list[int], list[Polynomial], list]] = {}
        for k, t in enumerate(basis):
            if t.pos >= 0:
                self.add(k, t)

    def at(self, pos: int) -> tuple[list[int], list[Polynomial], list]:
        lists = self._at.get(pos)
        if lists is None:
            lists = self._at[pos] = ([], list(self._ideal_polys), list(self._ideal_leads))
        return lists

    def add(self, k: int, t: _Tracked):
        """Record ``t``, the basis element at index ``k``."""
        ks, polys, leads = self.at(t.pos)
        polys.insert(len(ks), t.vec[t.pos])
        leads.insert(len(ks), t.lead)
        ks.append(k)


def _divide_vector(
    vec: Vector,
    basis: Sequence[_Tracked],
    divisors: _Divisors,
    order: MonomialOrder,
    track: bool = True,
) -> tuple[Vector, list[Polynomial]]:
    """Position-over-term division: at each position i in turn, component i
    is divided by the elements of ``basis`` leading at i and by its ideal
    generators (as ``divisors`` lists them), and each quotient on an
    element is carried into the later components.  Returns the remainder
    and one quotient per element of ``basis`` (zero on the ideal
    generators); ``vec - remainder - sum(q_k * basis_k)`` has every
    component in the ideal.  With ``track`` False the caller reads no
    quotient, so a rank-1 division builds none and all come back zero."""
    rest = list(vec)
    quotients = [vec[0].ring.zero()] * len(basis)
    keep = track or len(rest) > 1
    for i in range(len(rest)):
        if rest[i].is_zero():
            continue
        at, polys, leads = divisors.at(i)
        rest[i], qs = divide(rest[i], polys, order, _leads=leads, _quotients=keep)
        for k, q in zip(at, qs):  # the ideal's quotients, last, are dropped
            quotients[k] = q
            for j in range(i + 1, len(rest)):
                if q._num and basis[k].vec[j]._num:
                    rest[j] = rest[j] - q * basis[k].vec[j]
    return tuple(rest), quotients


class _HilbertDrive:
    """Traverso's Hilbert-driven pair selection for a scalar ideal I that is
    homogeneous for positive variable weights, with the series of R/I known.

    The numerator K of the series of R/J, J the ideal of the leading
    monomials found so far, is updated as each one comes (Bayer-Stillman).
    While every pair below degree d is done, J agrees with in(I) below d
    and lies inside it at d, so HF_(R/J)(d) - HF_(R/I)(d) >= 0 counts the
    leading monomials still missing at d.  Each new element of degree d
    supplies one; once none is missing, the pairs of degree d left reduce
    to zero."""

    __slots__ = ("weights", "known", "leads", "numerator", "denominator", "degree", "missing")

    def __init__(self, weights: Sequence[int], known: Series):
        self.weights = weights
        self.known = known
        self.leads: list[Exponents] = []
        self.numerator = [1]
        self.denominator = one_minus_powers(weights)
        self.degree: int | None = None
        self.missing = 0

    def weigh(self, exps: Exponents) -> int:
        return sum(map(int.__mul__, exps, self.weights))

    def add(self, lm: Exponents):
        self.numerator = added_numerator(self.numerator, self.leads, lm, self.weights)
        self.leads.append(lm)
        self.missing -= 1

    def complete(self, degree: int) -> bool:
        """Whether the pairs of ``degree`` left are known to reduce to zero;
        pairs come in ascending degree."""
        if degree != self.degree:
            self.degree = degree
            self.missing = coefficient(
                (self.numerator, self.denominator), degree
            ) - coefficient(self.known, degree)
            if self.missing < 0:
                raise AssertionError(
                    f"internal error: more leading monomials in degree {degree} "
                    "than the known series allows"
                )
        return self.missing == 0

    def certify(self):
        """G lies in I, so equal series give in(G) = in(I): G is a basis."""
        if not same_series((self.numerator, self.denominator), self.known):
            raise AssertionError("internal error: basis series differs from the known series")


def _buchberger_tracked(
    gens: Sequence[Vector],
    order: MonomialOrder,
    columns: int,
    ideal: GroebnerBasis | None = None,
    cancel: CancelCheck | None = None,
    hilbert: tuple[Sequence[int], Series] | None = None,
) -> list[_Tracked]:
    """Reduced Groebner basis of the module spanned by the vectors ``gens``
    modulo ``ideal`` (a Groebner basis for ``order``) at every position,
    with representations over the first ``columns`` inputs, followed by the
    ideal's generators.  :func:`buchberger` passes its scalars as rank-1
    vectors with no ideal and no columns.

    The order is position over term: the lower position wins, then
    ``order``.  Output elements are monic, interreduced modulo each other
    and the ideal, and sorted by leading term (descending) so results are
    byte-reproducible.

    ``hilbert`` is ``(weights, series)`` for rank-1 generators with no
    ideal, each homogeneous for the positive variable ``weights``, whose
    ideal I has R/I of Hilbert series ``series`` (denominator with constant
    term 1): the run is Hilbert-driven (:class:`_HilbertDrive`), with sugar
    the weighted degree, and raises ``AssertionError`` unless the basis it
    ends with has that series.
    """
    drive = _HilbertDrive(*hilbert) if hilbert is not None else None
    weigh = drive.weigh if drive is not None else mono_degree
    ideal_gens = ideal.generators if ideal is not None else ()
    # the arity of the ring; with no input at all no pair is ever formed
    nvars = next((p.ring.nvars for p in [*ideal_gens, *(v[0] for v in gens)]), 0)
    key, ops = order.key_for(nvars), monomial_ops(nvars)
    lcm_of, div, mul, divides = ops.lcm, ops.div, ops.mul, ops.divides
    basis = [
        _Tracked((g,), [g.ring.zero()] * columns, g.degree(), -1, g.leading(order))
        for g in ideal_gens
    ]
    # Pending S-pairs, smallest (sugar, position, lcm, i, j) first.  The
    # basis only grows, so a pair's key never changes once pushed, and
    # (i, j) makes it unique.  ``pending`` holds the same pairs for the
    # chain criterion.
    queue: list[tuple] = []
    pending: set[tuple[int, int]] = set()
    divisors = _Divisors(basis)

    def append(vec: Vector, rep: list[Polynomial], sugar: int):
        pos = next(i for i, c in enumerate(vec) if c._num)
        t = _Tracked(vec, rep, sugar, pos, vec[pos].leading(order))
        j = len(basis)
        lj = t.lead[0]
        for i, u in enumerate(basis):
            if not _forms_pair(t, u):
                continue
            li = u.lead[0]
            lcm = lcm_of(li, lj)
            pair_sugar = max(u.sugar + weigh(div(lcm, li)), t.sugar + weigh(div(lcm, lj)))
            heapq.heappush(queue, (pair_sugar, -t.pos, key(lcm), i, j))
            pending.add((i, j))
        basis.append(t)
        divisors.add(j, t)
        if drive is not None:
            drive.add(lj)

    for j, g in enumerate(gens):
        if _is_zero_vector(g):
            continue  # zero generators are dropped silently
        ring = g[0].ring
        rep = [ring.zero() for _ in range(columns)]
        if j < columns:
            rep[j] = ring.one()
        append(tuple(g), rep, max(weigh(e) for c in g for e in c._num))

    while queue:
        _poll(cancel)
        degree, _, _, i, j = heapq.heappop(queue)
        pending.discard((i, j))
        if drive is not None and drive.complete(degree):
            continue
        fi, fj = (basis[j], basis[i]) if basis[i].pos < 0 else (basis[i], basis[j])
        (li, ci), (lj, cj) = fi.lead, fj.lead
        lcm = lcm_of(li, lj)
        # product criterion: coprime leading monomials of two scalars
        # reduce to zero
        if len(fi.vec) == 1 and lcm == mul(li, lj):
            continue
        # chain criterion: some k acting at the position divides the lcm
        # and both mixed pairs are done
        skip = False
        for k in divisors.at(fi.pos)[0] + divisors.ideal:
            if k in (i, j):
                continue
            if divides(basis[k].lead[0], lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        ui, uj = div(lcm, li), div(lcm, lj)
        si, sj = Fraction(1) / ci, Fraction(1) / cj
        s_vec = _s_vector(fi, fj, ui, uj, si, sj)
        s_sugar = max(fi.sugar + weigh(ui), fj.sugar + weigh(uj))
        remainder, quotients = _divide_vector(s_vec, basis, divisors, order, columns > 0)
        if _is_zero_vector(remainder):
            continue
        rep = [
            ri.mul_monomial(ui, si) - rj.mul_monomial(uj, sj) for ri, rj in zip(fi.rep, fj.rep)
        ]
        rep = _subtract_reps(rep, quotients, basis)
        sugar = max(s_sugar, max(weigh(e) for c in remainder for e in c._num))
        append(remainder, rep, sugar)

    if drive is not None:
        drive.certify()
    return _reduce_tracked(basis, order)


def _reduce_tracked(basis: list[_Tracked], order: MonomialOrder) -> list[_Tracked]:
    # minimal: drop elements whose leading monomial another's acting at the
    # same position divides (ideal generators come first and stay)
    ideal = [t for t in basis if t.pos < 0]
    nvars = len(basis[0].lead[0]) if basis else 0
    key, divides = order.key_for(nvars), monomial_ops(nvars).divides
    kept: list[_Tracked] = []
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
    # interreduce tails and normalize monic; no other kept leading term and
    # no ideal lead divides t's, so t's leading term is also the remainder's
    reduced: list[_Tracked] = []
    for idx, t in enumerate(kept):
        others = kept[:idx] + kept[idx + 1 :] + ideal
        remainder, quotients = _divide_vector(
            t.vec, others, _Divisors(others), order, bool(t.rep)
        )
        rep = _subtract_reps(t.rep, quotients, others)
        lc = t.lead[1]
        reduced.append(
            _scale_tracked(_Tracked(remainder, rep, t.sugar, t.pos, t.lead), Fraction(1) / lc)
        )
    reduced.sort(key=lambda t: (-t.pos, key(t.lead[0])), reverse=True)
    return reduced + ideal


# ---------------------------------------------------------------------------
# public scalar API
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis together with its monomial order."""

    generators: tuple[Polynomial, ...]
    order: MonomialOrder

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
    tracked = _buchberger_tracked([(g,) for g in gens], order, 0, cancel=cancel)
    return GroebnerBasis(tuple(t.vec[0] for t in tracked), order)


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of full division by the basis: the canonical representative
    of ``p`` modulo the ideal.  Zero iff ``p`` is an ideal member."""
    if not gb.generators:
        return p
    if p.ring != gb.generators[0].ring:
        raise ValueError("incompatible rings")
    remainder, _ = divide(p, gb.generators, gb.order, _quotients=False)
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
        return GroebnerBasis((), GREVLEX)
    keep_ring = PolyRing(block_gb.generators[0].ring.names[drop:])
    kept = tuple(
        restrict(g, keep_ring, drop)
        for g in block_gb.generators
        if not any(any(e[:drop]) for e in g._num)
    )
    return GroebnerBasis(kept, GREVLEX)


# ---------------------------------------------------------------------------
# module layer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubmoduleProblem:
    """Membership problem: is a vector in the span of ``columns`` over the
    scalar ring, modulo componentwise multiples of ``ideal``?

    A vector is a tuple of scalar polynomials, one per position, and each
    position is reduced by the ideal's own basis, so membership is tested
    modulo the ideal.  The tracked module basis is built by the first
    :func:`module_solve` or syzygy computation on the problem and reused by
    every later one.

    Division by the basis is Q-linear, so a solve may sum the divisions of
    its target's terms: ``_tables[i]`` maps exponents e to the division of
    y^e at position i, its module normal form and its coefficients on the
    columns.  A term met for the first time is only marked, and the new
    terms of a solve are divided together; a term gets its entry when it is
    met again, so a problem solved once fills none.  Like ``_basis``, the
    tables take no part in equality or hashing.
    """

    ambient_rank: int
    columns: tuple[tuple[Polynomial, ...], ...]
    ideal: GroebnerBasis
    _basis: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _tables: tuple[dict, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ambient_rank < 1:
            raise ValueError("module rank must be positive")
        for col in self.columns:
            if len(col) != self.ambient_rank:
                raise ValueError("column length differs from ambient rank")
        object.__setattr__(self, "_tables", tuple({} for _ in range(self.ambient_rank)))


@dataclass(frozen=True)
class ModuleMembership:
    """Outcome of :func:`module_solve`: a verified witness or a certificate."""

    member: bool
    witness: tuple[Polynomial, ...] | None = None
    certificate: tuple[Polynomial, ...] | None = None


def _check_ring(ring: PolyRing, components):
    if any(c.ring != ring for c in components):
        raise ValueError("vector component lives outside the scalar ring")


def _module_basis(
    problem: SubmoduleProblem, cancel: CancelCheck | None
) -> tuple[PolyRing, list[_Tracked]]:
    """The problem's scalar ring, and the position-over-term basis of its
    columns modulo the ideal, with representations over the columns and
    followed by the ideal's generators; built on first use and kept on the
    problem."""
    if problem._basis is None:
        columns, ideal = problem.columns, problem.ideal
        if columns:
            ring = columns[0][0].ring
        elif ideal.generators:
            ring = ideal.generators[0].ring
        else:
            raise ValueError("cannot infer scalar ring from an empty problem")
        _check_ring(ring, [c for col in columns for c in col] + list(ideal.generators))
        tracked = _buchberger_tracked(columns, ideal.order, len(columns), ideal, cancel)
        object.__setattr__(problem, "_basis", (ring, tracked))
    return problem._basis


def _position_leads(problem: SubmoduleProblem) -> list[list[Exponents]]:
    """The leading monomials of the problem's module basis and of the ideal
    at each position: the monomial ideals whose sum is the initial
    submodule."""
    _, tracked = _module_basis(problem, None)
    leads: list[list[Exponents]] = [[] for _ in range(problem.ambient_rank)]
    for t in tracked:
        for pos in range(problem.ambient_rank) if t.pos < 0 else [t.pos]:
            leads[pos].append(t.lead[0])
    return leads


def _over_columns(combo: Sequence[Polynomial], problem: SubmoduleProblem) -> list[Polynomial]:
    """Translate a combination over the problem's module basis into the
    scalar coefficients it puts on the columns."""
    ring, tracked = problem._basis
    return [
        combination(ring, [(1, z, t.rep[j]) for z, t in zip(combo, tracked)])
        for j in range(len(problem.columns))
    ]


# the table mark of a term met once; its entry is made on the next meeting
_MET = object()


def _scaled_sum(ring: PolyRing, scaled) -> list[Polynomial]:
    """The sum of ``n * v / den`` over the (v, den, n) items, v vectors of
    one length."""
    return [
        _sum_pieces(ring, [(v[j]._num.items(), v[j]._den * den, n) for v, den, n in scaled])
        for j in range(len(scaled[0][0]))
    ]


def _module_remainder(
    target: Sequence[Polynomial],
    problem: SubmoduleProblem,
    cancel: CancelCheck | None = None,
) -> tuple[Vector, list[Polynomial] | None]:
    """Division of ``target`` by the problem's module basis and ideal: the
    module normal form, zero exactly for members, and for a member the
    coefficients its quotients put on the columns (None otherwise).

    The division of a term with an entry in the problem's tables is read
    from it, and the terms met for the first time are divided together;
    an entry is made, polling ``cancel``, when its term is met again."""
    if len(target) != problem.ambient_rank:
        raise ValueError("target length differs from ambient rank")
    ring, tracked = _module_basis(problem, cancel)
    _check_ring(ring, target)
    divisors, order, zero = _Divisors(tracked), problem.ideal.order, ring.zero()
    fresh: list[Polynomial] = []
    read: list[tuple[Vector, list[Polynomial], int, int]] = []
    for i, (p, table) in enumerate(zip(target, problem._tables)):
        new = {}
        for exps, n in p._num.items():
            entry = table.get(exps)
            if entry is None:
                table[exps] = _MET
                new[exps] = n
                continue
            if entry is _MET:
                _poll(cancel)
                unit = tuple(Polynomial._make(ring, {exps: 1}, 1) if j == i else zero for j in range(len(target)))
                remainder, quotients = _divide_vector(unit, tracked, divisors, order)
                entry = table[exps] = (remainder, _over_columns(quotients, problem))
            read.append((*entry, p._den, n))
        fresh.append(p if len(new) == len(p._num) else Polynomial._make(ring, new, p._den))
    remainder, quotients = tuple(fresh), [zero] * len(tracked)
    if not _is_zero_vector(remainder):
        remainder, quotients = _divide_vector(remainder, tracked, divisors, order)
    if read:
        remainder = tuple(_scaled_sum(ring, [(remainder, 1, 1)] + [(nf, den, n) for nf, _, den, n in read]))
    if not _is_zero_vector(remainder):
        return remainder, None
    witness = _over_columns(quotients, problem)
    if read:
        witness = _scaled_sum(ring, [(witness, 1, 1)] + [(w, den, n) for _, w, den, n in read])
    return remainder, witness


def module_solve(
    target: Sequence[Polynomial],
    problem: SubmoduleProblem,
    cancel: CancelCheck | None = None,
) -> ModuleMembership:
    """Decide membership of ``target`` in the column span modulo the ideal.

    On success the witness lists one coefficient polynomial per column and is
    verified by substitution before being returned; on failure the nonzero
    module normal form is the certificate.  Both are sums of the problem's
    table entries over the target's terms where it has them
    (:class:`SubmoduleProblem`), equal to those of one division.
    """
    remainder, witness = _module_remainder(target, problem, cancel)
    if witness is None:
        return ModuleMembership(member=False, certificate=remainder)
    _verify_combination(problem, witness, target, "module witness")
    return ModuleMembership(member=True, witness=tuple(witness))


def _verify_combination(problem: SubmoduleProblem, coefficients, target, what: str):
    """Check ``sum(c_i * columns_i) == target`` row by row modulo the ideal."""
    for row, want in enumerate(target):
        acc = combination(want.ring, [(1, c, col[row]) for c, col in zip(coefficients, problem.columns)])
        if not normal_form(acc - want, problem.ideal).is_zero():
            raise AssertionError(f"internal error: {what} failed verification")


def syzygies(
    columns: Sequence[Sequence[Polynomial]],
    ideal: GroebnerBasis,
    cancel: CancelCheck | None = None,
) -> list[tuple[Polynomial, ...]]:
    """Relations ``sum(c_i * columns_i) = 0 mod ideal``: a generating set of
    them modulo ideal^s, s the number of columns, with every entry reduced
    modulo the ideal and no row zero modulo it.

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
    ring, tracked = _module_basis(problem, cancel)
    divisors = _Divisors(tracked)
    ops = monomial_ops(ring.nvars)
    rows: list[list[Polynomial]] = []

    def lift(vec: Vector, own: Sequence[tuple[int, Polynomial]]) -> list[Polynomial]:
        """The column row of the combination ``own`` over the basis, whose
        value is ``vec``, minus the division of ``vec`` by the basis."""
        _poll(cancel)
        remainder, quotients = _divide_vector(vec, tracked, divisors, problem.ideal.order)
        if not _is_zero_vector(remainder):
            raise AssertionError("internal error: basis is not a Groebner basis")
        combo = [-q for q in quotients]
        for k, m in own:
            combo[k] = combo[k] + m
        return _over_columns(combo, problem)

    # Schreyer relations on the final (monic) basis, no criteria: the S-pair
    # of every element and each later element or ideal generator it forms
    # a pair with (a coprime ideal pair lifts to a row inside the ideal)
    for a, fa in enumerate(tracked):
        for b, fb in enumerate(tracked[a + 1 :], a + 1):
            if fa.pos >= 0 and _forms_pair(fa, fb):
                (la, ca), (lb, cb) = fa.lead, fb.lead
                lcm = ops.lcm(la, lb)
                ua, ub = ops.div(lcm, la), ops.div(lcm, lb)
                s_vec = _s_vector(fa, fb, ua, ub, 1 / ca, 1 / cb)
                rows.append(lift(s_vec, [(a, ring.monomial(ua)), (b, ring.monomial(ub, -1))]))

    # completion rows: each column minus its own expression through the basis
    for j, col in enumerate(problem.columns):
        row = lift(col, [])
        row[j] = row[j] + ring.one()
        rows.append(row)

    # reduce modulo the ideal, normalize, dedupe, verify
    seen: set[tuple[Polynomial, ...]] = set()
    results: list[tuple[Polynomial, ...]] = []
    zeros = [ring.zero()] * problem.ambient_rank
    for row in rows:
        row = [normal_form(c, problem.ideal) for c in row]
        if all(p.is_zero() for p in row):
            continue
        row = make_primitive(row)
        key = tuple(row)
        if key in seen:
            continue
        seen.add(key)
        _verify_combination(problem, row, zeros, "syzygy")
        results.append(tuple(row))
    results.sort(key=lambda row: tuple(str(p) for p in row))
    return results
