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

A run may start from a reduced basis of a smaller module: those inputs
form no pair with each other.  The final interreduction divides by one
set of divisor lists, and divides an element only when a lead that may
still reduce it divides one of its terms: each element is marked with the
first basis index whose lead may (:func:`_reduce_tracked`).

A finished scalar basis (:class:`GroebnerBasis`) keeps its generators'
leading terms and, for its life, the normal form of each monomial that
:func:`normal_form`, the one scalar reduction, has met.

A scalar ideal that is homogeneous for some positive variable weights, and
whose quotient has a Hilbert series known in advance, gets a
Hilbert-driven run (Traverso, *Hilbert functions and the Buchberger
algorithm*, 1996): pairs go by weighted degree, and once the leading
monomials found so far leave as many standard monomials of a degree as the
known series counts, the remaining pairs of that degree reduce to zero and
are dropped unreduced.  The run ends by checking that the series of the
leading monomials equals the known one, which certifies the basis.  The
Hilbert functions it compares are read from expansions that are kept and
extended as the degrees rise.

The bookkeeping is kept below the cost of the reductions it saves: pairs
are formed, and the product criterion tested, on the support bitmasks of
the leading monomials; weighted degrees and sugars come from a kernel
compiled once per weight tuple (:func:`.algebra.weighted_degree`); the
cancellation hook is polled once per pair only when one was given; and a
division builds quotients only for the divisors that reduced a term and
that the caller reads.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import KW_ONLY, InitVar, dataclass, field
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
    _tabled_sum,
    _tabled_vanish,
    combination,
    make_primitive,
    mono_degree,
    monomial_ops,
    restrict,
    weighted_degree,
)
from .series import Expansion, Series, _added, one_minus_powers, same_series

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
    _quotients: int | None = None,
) -> tuple[Polynomial, list[Polynomial]]:
    """Full multivariate division: ``p = sum(q_i * divisors_i) + remainder``.

    No remainder term is divisible by any divisor's leading monomial; a
    term is reduced by the first divisor in list order whose leading
    monomial divides it.  ``_leads`` and ``_quotients`` are internal: the
    divisors' leading terms, which every caller in the package keeps with
    its divisors, and the number of leading divisors whose quotients the
    caller reads (all by default; False or 0 for none, and an empty list
    comes back).  Only the quotients of divisors that reduced a term are
    built; the others are one shared zero.

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
    wanted = len(divisors) if _quotients is None else _quotients
    quotients: list[list] = [[] for _ in range(wanted)]
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
                if i < wanted:
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

    zero = ring.zero()
    return settled(remainder, scale), [
        settled(q, scale * L) if q else zero for q, L in zip(quotients, leads)
    ]


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


def _is_zero_vector(vec: Vector) -> bool:
    return not any(c._num for c in vec)


def _forms_pair(t: _Tracked, u: _Tracked) -> bool:
    """Whether the element ``t`` and ``u`` have an S-pair: ``u`` leads at
    the same position, or is an ideal generator whose leading monomial
    shares a variable with t's (a coprime one reduces to zero)."""
    if u.pos < 0:
        return any(x and y for x, y in zip(t.lead[0], u.lead[0]))
    return u.pos == t.pos


def _s_vector(f: _Tracked, g: _Tracked, uf: Exponents, ug: Exponents) -> Vector:
    """The S-vector u_f * f / lc(f) - u_g * g / lc(g) of an element f and
    an element or ideal generator g leading at f's position, where u_f, u_g
    take both leading monomials to their lcm.  Each component is summed
    once, over the integer numerators of its shifted parts: with N / D the
    leading component of f and L its leading numerator, f / lc(f) is f
    times D / L, so no ``Fraction`` is made."""

    ring = f.vec[0].ring
    mul = monomial_ops(ring.nvars).mul

    def inverse(t: _Tracked, sign: int) -> tuple[int, int]:
        """sign / lc(t) as (numerator, positive denominator)."""
        lead = t.vec[t.pos]
        n = lead._num[t.lead[0]]
        return (sign * lead._den, n) if n > 0 else (-sign * lead._den, -n)

    def part(p: Polynomial, u: Exponents, s: tuple[int, int]) -> Piece:
        shifted = ((mul(e, u), n) for e, n in p._num.items())
        return shifted, p._den * s[1], s[0]

    sf, sg = inverse(f, 1), inverse(g, -1)
    if g.pos >= 0:
        return tuple(
            _sum_pieces(ring, [part(a, uf, sf), part(b, ug, sg)]) for a, b in zip(f.vec, g.vec)
        )
    return tuple(
        _sum_pieces(ring, [part(a, uf, sf)] + ([part(g.vec[0], ug, sg)] if i == f.pos else []))
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
    quotient, so a rank-1 division builds none and all come back zero.
    No quotient on an ideal generator is built."""
    rest = list(vec)
    quotients = [vec[0].ring.zero()] * len(basis)
    keep = track or len(rest) > 1
    for i in range(len(rest)):
        if rest[i].is_zero():
            continue
        at, polys, leads = divisors.at(i)
        rest[i], qs = divide(rest[i], polys, order, _leads=leads, _quotients=len(at) if keep else 0)
        for k, q in zip(at, qs):
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
    to zero.  HF_(R/J)(d) is sum_i K_i c_(d-i), c the coefficients of
    1 / prod_j (1 - t^(w_j)); those and the coefficients of the known
    series are expanded once, as far as the degrees reached.

    Each update computes K(J : m) by the pivot rule of :mod:`.series`,
    and ``weigh``, the weighted degree the run's sugars read too, is the
    kernel compiled for the weight tuple."""

    __slots__ = (
        "weights", "weigh", "ops", "known", "expected", "leads", "numerator", "denominator",
        "inverse", "degree", "missing",
    )

    def __init__(self, weights: Sequence[int], known: Series):
        self.weights = weights
        self.weigh = weighted_degree(weights)
        self.ops = monomial_ops(len(weights))
        self.known = known
        self.expected = Expansion(known)
        self.leads: list[Exponents] = []
        self.numerator = [1]
        self.denominator = one_minus_powers(weights)
        self.inverse = Expansion(([1], self.denominator))
        self.degree: int | None = None
        self.missing = 0

    def add(self, lm: Exponents):
        self.numerator = _added(self.numerator, self.leads, lm, self.ops, self.weigh)
        self.leads.append(lm)
        self.missing -= 1

    def complete(self, degree: int) -> bool:
        """Whether the pairs of ``degree`` left are known to reduce to zero;
        pairs come in ascending degree."""
        if degree != self.degree:
            self.degree = degree
            found = self.inverse.coefficient(degree, self.numerator)
            self.missing = found - self.expected.coefficient(degree)
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
    reduced: int = 0,
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

    ``reduced`` is internal: the first ``reduced`` vectors of ``gens``,
    with the ideal's generators, are already a reduced Groebner basis, so
    no pair among them is formed and none is divided again unless a lead
    after them divides one of its terms.
    """
    drive = _HilbertDrive(*hilbert) if hilbert is not None else None
    weigh = drive.weigh if drive is not None else mono_degree
    if ideal is None:
        ideal = GroebnerBasis((), order)
    # the arity of the ring; with no input at all no pair is ever formed
    nvars = next((p.ring.nvars for p in [*ideal.generators, *(v[0] for v in gens)]), 0)
    key, ops = order.key_for(nvars), monomial_ops(nvars)
    lcm_of, div, divides, support = ops.lcm, ops.div, ops.divides, ops.support
    basis = [
        _Tracked((g,), [g.ring.zero()] * columns, g.degree(), -1, lead)
        for g, lead in zip(ideal.generators, ideal.leads)
    ]
    # Pending S-pairs, smallest (sugar, position, lcm, i, j) first.  The
    # basis only grows, so a pair's key never changes once pushed, and
    # (i, j) makes it unique.  ``pending`` holds the same pairs for the
    # chain criterion.
    queue: list[tuple] = []
    pending: set[tuple[int, int]] = set()
    push, pend = heapq.heappush, pending.add
    divisors = _Divisors(basis)
    # sugar less weight of each element's lead: the weighting is linear, so
    # a pair's sugar is the weight of the lcm plus the larger of the two
    slack = [t.sugar - weigh(t.lead[0]) for t in basis]
    # the support bitmask of each element's lead
    masks = [support(t.lead[0]) for t in basis]
    # the first index of the basis whose lead may divide a term of each
    # element (:func:`_reduce_tracked`); the seeds, the reduced inputs, end
    # at ``seeded`` and form pairs only with what comes after them
    marks = [0] * len(basis)
    seeded = len(basis) + reduced

    def append(vec: Vector, rep: list[Polynomial], sugar: int, mark: int):
        pos = next(i for i, c in enumerate(vec) if c._num)
        t = _Tracked(vec, rep, sugar, pos, vec[pos].leading(order))
        j = len(basis)
        lj = t.lead[0]
        sj, mj = sugar - weigh(lj), support(lj)
        for i, u in enumerate(basis if j >= seeded else ()):
            # :func:`_forms_pair`, on the support bitmasks
            if u.pos != pos and (u.pos >= 0 or not masks[i] & mj):
                continue
            lcm = lcm_of(u.lead[0], lj)
            si = slack[i]
            push(queue, (weigh(lcm) + (si if si > sj else sj), -pos, key(lcm), i, j))
            pend((i, j))
        basis.append(t)
        slack.append(sj)
        masks.append(mj)
        marks.append(mark)
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
        # a seed may be divided only by a lead after the seeds, a raw input
        # by any other
        append(tuple(g), rep, max(weigh(e) for c in g for e in c._num), seeded if j < reduced else 0)

    while queue:
        if cancel is not None:
            _poll(cancel)
        s_sugar, _, _, i, j = heapq.heappop(queue)
        pending.discard((i, j))
        if drive is not None and drive.complete(s_sugar):
            continue
        fi, fj = (basis[j], basis[i]) if basis[i].pos < 0 else (basis[i], basis[j])
        # product criterion: coprime leading monomials of two scalars
        # reduce to zero
        if len(fi.vec) == 1 and not masks[i] & masks[j]:
            continue
        (li, ci), (lj, cj) = fi.lead, fj.lead
        lcm = lcm_of(li, lj)
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
        s_vec = _s_vector(fi, fj, ui, uj)
        remainder, quotients = _divide_vector(s_vec, basis, divisors, order, columns > 0)
        if _is_zero_vector(remainder):
            continue
        rep = []
        if columns:
            si, sj = 1 / ci, 1 / cj
            rep = [
                ri.mul_monomial(ui, si) - rj.mul_monomial(uj, sj) for ri, rj in zip(fi.rep, fj.rep)
            ]
            rep = _subtract_reps(rep, quotients, basis)
        sugar = max(s_sugar, max(weigh(e) for c in remainder for e in c._num))
        # a remainder was divided by every element before it
        append(remainder, rep, sugar, len(basis) + 1)

    if drive is not None:
        drive.certify()
    return _reduce_tracked(basis, order, marks)


def _reduce_tracked(
    basis: list[_Tracked], order: MonomialOrder, marks: Sequence[int]
) -> list[_Tracked]:
    """The reduced basis of a finished run: the minimal elements, each with
    its tail reduced by the others and the ideal and made monic, sorted by
    leading term (descending), then the ideal generators.

    One set of divisor lists, of every kept element and the ideal, serves
    all: an element's own lead divides no term below it, so its tail meets
    the same divisors in the same order as with the others alone.
    ``marks[i]`` is the first index of ``basis`` whose lead may divide a
    term of element i: 0 for a raw input, the end of the seeds for a seed,
    i + 1 for a remainder.  When no kept lead from its mark on (the ideal's
    too, for a mark inside the ideal) divides a term of an element at any
    position, dividing it would return it unchanged, so it is not divided."""
    ideal = [t for t in basis if t.pos < 0]
    nvars = len(basis[0].lead[0]) if basis else 0
    key, divides = order.key_for(nvars), monomial_ops(nvars).divides
    kept: list[tuple[int, _Tracked]] = []
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
            kept.append((idx, t))
    reducers = [t for _, t in kept] + ideal
    divisors = _Divisors(reducers)
    indices = [idx for idx, _ in kept]
    reduced: list[_Tracked] = []
    for k, (idx, t) in enumerate(kept):
        vec, rep, pos, (lm, lc) = t.vec, t.rep, t.pos, t.lead
        mark = marks[idx]
        # no other kept or ideal lead divides the lead, so every term is tested
        others = kept[bisect_left(indices, mark) :] if mark > idx else kept[:k] + kept[k + 1 :]
        if any(divides(u.lead[0], e) for _, u in others for e in vec[u.pos]._num) or any(
            divides(u.lead[0], e) for u in ideal[mark:] for c in vec for e in c._num
        ):
            lead = vec[pos].ring.monomial(lm, lc)
            tail = vec[:pos] + (vec[pos] - lead,) + vec[pos + 1 :]
            rest, quotients = _divide_vector(tail, reducers, divisors, order, bool(rep))
            vec = rest[:pos] + (rest[pos] + lead,) + rest[pos + 1 :]
            if rep:
                rep = _subtract_reps(rep, quotients, reducers)
        if lc != 1:
            c = 1 / lc
            vec, rep = tuple(p.scale(c) for p in vec), [r.scale(c) for r in rep]
        reduced.append(_Tracked(vec, rep, t.sugar, pos, (lm, Fraction(1))))
    reduced.sort(key=lambda t: (-t.pos, key(t.lead[0])), reverse=True)
    return reduced + ideal


# ---------------------------------------------------------------------------
# public scalar API
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis together with its monomial order.

    ``leads`` holds the generators' leading terms, found once when the basis
    is made; the keyword-only ``_leads`` is internal, the leading terms a
    build already holds.
    ``_forms`` maps e to NF(x^e), filled by :func:`normal_form` and kept for
    the life of the basis.  Neither takes part in equality, hashing or
    ``repr``, so equal bases keep tables of their own."""

    generators: tuple[Polynomial, ...]
    order: MonomialOrder
    _: KW_ONLY
    _leads: InitVar[tuple | None] = None
    leads: tuple[tuple[Exponents, Fraction], ...] = field(init=False, repr=False, compare=False)
    _forms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self, _leads):
        if _leads is None:
            _leads = tuple(g.leading(self.order) for g in self.generators)
        object.__setattr__(self, "leads", _leads)

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
    return GroebnerBasis(tuple(t.vec[0] for t in tracked), order, _leads=tuple(t.lead for t in tracked))


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of full division by the basis: the canonical representative
    of ``p`` modulo the ideal.  Zero iff ``p`` is an ideal member.

    It is linear, so it sums c * NF(x^e) over p's terms from the basis's
    table; a monomial met for the first time is divided once."""
    if not gb.generators:
        return p
    return _tabled_sum(p.ring, _normal_form_items(p, gb))


def _normal_form_items(p: Polynomial, gb: GroebnerBasis) -> list:
    """NF(p) modulo a basis with generators as :func:`.algebra._tabled_sum`
    items: p read through the basis's table, a new monomial divided once."""
    ring = p.ring
    if ring != gb.generators[0].ring:
        raise ValueError("incompatible rings")
    fill = lambda exps: divide(ring.monomial(exps), gb.generators, gb.order, _leads=gb.leads, _quotients=False)[0]
    return [(1, p, gb._forms, fill)]


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
    kept = [
        (restrict(g, keep_ring, drop), (lm[drop:], lc))
        for g, (lm, lc) in zip(block_gb.generators, block_gb.leads)
        if not any(any(e[:drop]) for e in g._num)
    ]
    return GroebnerBasis(tuple(g for g, _ in kept), GREVLEX, _leads=tuple(lead for _, lead in kept))


# ---------------------------------------------------------------------------
# module layer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubmoduleProblem:
    """Membership problem: is a vector in the span of ``columns`` over the
    scalar ring, modulo componentwise multiples of ``ideal``?

    A vector is a tuple of scalar polynomials, one per position, and each
    position is reduced by the ideal's own basis, so membership is tested
    modulo the ideal.  The tracked module basis, with its divisor lists at
    each position, is built by the first :func:`module_solve`, syzygy
    computation or normal form on the problem and reused by every later one.

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
) -> tuple[PolyRing, list[_Tracked], _Divisors]:
    """The problem's scalar ring, the position-over-term basis of its
    columns modulo the ideal, with representations over the columns and
    followed by the ideal's generators, and the basis's divisor lists;
    built on first use and kept on the problem."""
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
        object.__setattr__(problem, "_basis", (ring, tracked, _Divisors(tracked)))
    return problem._basis


def _position_leads(problem: SubmoduleProblem) -> list[list[Exponents]]:
    """The leading monomials of the problem's module basis and of the ideal
    at each position: the monomial ideals whose sum is the initial
    submodule."""
    divisors = _module_basis(problem, None)[2]
    return [[lm for lm, _ in divisors.at(pos)[2]] for pos in range(problem.ambient_rank)]


def _module_normal_form(vec: Sequence[Polynomial], problem: SubmoduleProblem) -> Vector:
    """The module normal form of ``vec``, zero exactly for members: one
    division by the problem's module basis that reads and marks no table
    and keeps no quotient it does not need."""
    _, tracked, divisors = _module_basis(problem, None)
    return _divide_vector(tuple(vec), tracked, divisors, problem.ideal.order, False)[0]


def _over_columns(combo: Sequence[Polynomial], problem: SubmoduleProblem) -> list[Polynomial]:
    """Translate a combination over the problem's module basis into the
    scalar coefficients it puts on the columns."""
    ring, tracked, _ = problem._basis
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
    ring, tracked, divisors = _module_basis(problem, cancel)
    _check_ring(ring, target)
    order, zero = problem.ideal.order, ring.zero()
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
    """Check ``sum(c_i * columns_i) == target`` row by row modulo the ideal.
    Each row's sum is one :func:`.algebra.combination`; modulo a nonzero
    ideal the target is its last product, and the normal forms of the
    residues are summed from the ideal's table by one zero test."""
    ideal = problem.ideal
    rows = [[(1, c, col[row]) for c, col in zip(coefficients, problem.columns)] for row in range(len(target))]
    if ideal.generators:
        one = ideal.generators[0].ring.one()
        verified = _tabled_vanish(
            _normal_form_items(combination(want.ring, products + [(-1, want, one)]), ideal)
            for products, want in zip(rows, target)
        )
    else:
        verified = all(combination(want.ring, products) == want for products, want in zip(rows, target))
    if not verified:
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
    ring, tracked, divisors = _module_basis(problem, cancel)
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
                la, lb = fa.lead[0], fb.lead[0]
                lcm = ops.lcm(la, lb)
                ua, ub = ops.div(lcm, la), ops.div(lcm, lb)
                s_vec = _s_vector(fa, fb, ua, ub)
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
