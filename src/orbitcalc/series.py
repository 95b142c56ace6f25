"""One-variable rational series over Q: the exact Hilbert series that
certify a generating set complete.

A polynomial in t is a list of coefficients, lowest degree first, and a
rational series is a pair (numerator, denominator) of such lists.  Two
series are compared by cross-multiplying, so no polynomial gcd is needed.

- Molien: the invariant ring of a finite group G has the series
  (1/|G|) sum_g 1/det(I - t g), and its module of invariant vector fields,
  graded by coefficient degree, has (1/|G|) sum_g tr(g)/det(I - t g)
  (Derksen & Kemper, *Computational Invariant Theory*, ch. 3).  Both sums
  group the elements by det(I - t g) and read one table per group, which
  holds each denominator's element count and trace sum.
- Monomial ideals: Q[y]/J, with y_j of weight w_j, has the series
  K_J(t) / prod_j (1 - t^(w_j)), and the numerator follows the recursion
  K(J + <m>) = K(J) - t^(w(m)) K(J : m) (Bayer & Stillman, *Computation of
  Hilbert functions*, 1992).  A Groebner basis run can apply the step once
  per new leading monomial and read off the Hilbert function degree by
  degree (:class:`Expansion`).  The numerator of a whole ideal is computed
  on its minimal generators.  When their supports are pairwise disjoint
  they are coprime, and K_J is the product of the factors 1 - t^(w(m)).
  Otherwise it pivots on p = x_i^e, with x_i the variable that occurs in
  the most generators and e its least positive exponent among them
  (Bigatti, *Computation of Hilbert-Poincare series*, J. Pure Appl.
  Algebra 119, 1997).  Every generator that contains x_i is then a
  multiple of p, so J + <p> = J' + <p> for the generators J' free of x_i,
  and K(J) = K(J') (1 - t^(w(p))) + t^(w(p)) K(J : p).  Both J' and J : p
  are smaller, and the minimal generators of J : p follow from those of J
  without a search.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .algebra import MonomialOps, monomial_ops, weighted_degree
from .linalg import integral

Series = tuple[list, list]


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _add(p: list, q: list, sign: int = 1) -> list:
    out = list(p) + [0] * (len(q) - len(p))
    for i, c in enumerate(q):
        out[i] += sign * c
    return _trim(out)


def _mul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def _shift(p: list, k: int) -> list:
    """t^k * p."""
    return [0] * k + p if p else []


def _plus_shifted(p: list, q: list, k: int, sign: int) -> list:
    """p + sign * t^k * q, for k >= 0."""
    out = p + [0] * (k + len(q) - len(p))
    for i, c in enumerate(q, k):
        out[i] += sign * c
    return _trim(out)


def one_minus_powers(weights: Sequence[int]) -> list:
    """prod_j (1 - t^(w_j)); zero once some w_j is not positive."""
    out = [1]
    for w in weights:
        if w <= 0:
            return []
        # times 1 - t^w in place, from the top, so each step reads a
        # coefficient not yet updated
        out += [0] * w
        for k in range(len(out) - 1, w - 1, -1):
            out[k] -= out[k - w]
    return out


def same_series(a: Series, b: Series) -> bool:
    """Equality of two rational functions, by cross-multiplying."""
    return _mul(a[0], b[1]) == _mul(b[0], a[1])


class Expansion:
    """numerator / denominator as a power series, for a denominator
    c t^s (1 + ...) with c a nonzero integer; its coefficients are kept as
    read and extended on demand.  The coefficient a_k of t^(k - s) satisfies
    sum_i denominator[s + i] a_(k-i) = numerator[k].  A Hilbert series counts
    dimensions, so a division that is not exact raises ``ValueError``."""

    __slots__ = ("numerator", "denominator", "read")

    def __init__(self, series: Series):
        self.numerator, self.denominator = series
        self.read: list = []

    def coefficient(self, degree: int, factor: Sequence[int] = (1,)) -> int:
        """The coefficient of t^degree in factor(t) times the series."""
        numerator, denominator, a = self.numerator, self.denominator, self.read
        s = next((i for i, c in enumerate(denominator) if c), None)
        if s is None:
            raise ValueError("the denominator is zero")
        for k in range(len(a), degree + s + 1):
            value = numerator[k] if k < len(numerator) else 0
            for i in range(1, min(k, len(denominator) - s - 1) + 1):
                value -= denominator[s + i] * a[k - i]
            quotient, remainder = divmod(value, denominator[s])
            if remainder:
                raise ValueError(f"the coefficient of t^{k - s} is not an integer")
            a.append(quotient)
        top = degree + s
        return sum(map(mul, factor, a[top::-1])) if top >= 0 else 0


def coefficient(series: Series, degree: int) -> int:
    """The coefficient of t^degree in numerator / denominator."""
    return Expansion(series).coefficient(degree)


# ---------------------------------------------------------------------------
# Molien sums
# ---------------------------------------------------------------------------

def _det_one_minus(g) -> tuple:
    """det(I - t g), constant term first: Faddeev-LeVerrier over the
    integers on a = D g (:func:`.linalg.integral`), whose characteristic
    polynomial has det(I - s a) for its reversed coefficients; the
    coefficient of t^k is then that of s^k over D^k.  An element of finite
    order has integer coefficients here, so the divisions are exact."""
    n = len(g)
    scale, a = integral(g)
    coeffs = [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [
            [sum(a[i][l] * m[l][j] for l in range(n)) + (coeffs[-1] if i == j else 0)
             for j in range(n)]
            for i in range(n)
        ]
        coeffs.append(-sum(a[i][l] * m[l][i] for i in range(n) for l in range(n)) // k)
    return tuple(c // scale**k for k, c in enumerate(coeffs))


def _classes(group) -> dict:
    """det(I - t g) -> [count, trace sum] over the elements g of the group,
    in order of first meeting; built once per group instance and kept in
    its ``_det_classes``.  A rational representation of a finite group has
    a rational character, so tr(g^-1) = tr(g) and no inverse is needed; for
    an element of finite order that trace is an integer."""
    if not group._det_classes:
        # filled aside, so an interrupted build leaves no partial table
        classes: dict = {}
        for g in group.elements:
            weights = classes.setdefault(_det_one_minus(g), [0, 0])
            weights[0] += 1
            weights[1] += int(sum(g[i][i] for i in range(len(g))))
        group._det_classes.update(classes)
    return group._det_classes


def _averaged(group, index: int) -> Series:
    """(1/|G|) sum_g w(g) / det(I - t g), with w(g) 1 for ``index`` 0 and
    tr(g) for 1, over the distinct denominators of :func:`_classes` with
    their weights added up; all in integers."""
    classes = _classes(group)
    dens = [list(den) for den in classes]
    numerator: list = []
    for k, weights in enumerate(classes.values()):
        if weights[index]:
            term = [weights[index]]
            for j, den in enumerate(dens):
                if j != k:
                    term = _mul(term, den)
            numerator = _add(numerator, term)
    denominator = [group.order]
    for den in dens:
        denominator = _mul(denominator, den)
    return numerator, denominator


def molien_series(group) -> Series:
    """The Hilbert series of the invariant ring."""
    return _averaged(group, 0)


def field_series(group) -> Series:
    """The Hilbert series of the invariant vector fields by coefficient
    degree."""
    return _averaged(group, 1)


# ---------------------------------------------------------------------------
# monomial ideals
# ---------------------------------------------------------------------------

def ideal_numerator(monomials, weights: Sequence[int]) -> list:
    """K_J for the ideal J generated by the given exponent tuples: the
    Hilbert series of Q[y]/J is K_J(t) / prod_j (1 - t^(w_j))."""
    ops = monomial_ops(len(weights))
    return _numerator(_minimal(monomials, ops), ops, weighted_degree(weights))


def added_numerator(numerator: list, monomials, m, weights: Sequence[int]) -> list:
    """K(J + <m>) = K(J) - t^(w(m)) K(J : m), from ``numerator`` = K(J) of
    the ideal J the exponent tuples ``monomials`` generate."""
    return _added(numerator, monomials, m, monomial_ops(len(m)), weighted_degree(weights))


def _added(numerator: list, monomials, m, ops: MonomialOps, weigh) -> list:
    """:func:`added_numerator` with the kernels of the arity and weights."""
    colon = ops.colon
    inner = _numerator(_minimal([colon(g, m) for g in monomials], ops), ops, weigh)
    return _plus_shifted(numerator, inner, weigh(m), -1)


def _minimal(monomials, ops: MonomialOps) -> list:
    """The minimal generators among the exponent tuples.  A divisor of m
    other than m has a lower total degree, so one pass in ascending total
    degree keeps m when no tuple kept before it divides it."""
    divides = ops.divides
    gens: list = []
    for m in sorted(set(monomials), key=sum):
        for g in gens:
            if divides(g, m):
                break
        else:
            gens.append(m)
    return gens


def _numerator(gens: list, ops: MonomialOps, weigh) -> list:
    """K_J for the minimal generators ``gens`` of J, by the pivot rule of
    the module docstring; ``weigh`` is the weighted degree."""
    if not gens:
        return [1]
    support, union = ops.support, 0
    for g in gens:
        bits = support(g)
        if union & bits:
            break
        union |= bits
    else:
        return one_minus_powers([weigh(g) for g in gens])
    columns = list(zip(*gens))
    counts = [len(gens) - column.count(0) for column in columns]
    i = counts.index(max(counts))
    e = min([x for x in columns[i] if x])
    pivot = (0,) * i + (e,) + (0,) * (len(columns) - i - 1)
    free = [g for g in gens if not g[i]]
    # The quotients g / p of the multiples of p are minimal among
    # themselves, as their multiples by p were, and no generator free of
    # x_i divides one; only a quotient free of x_i may divide such a
    # generator.
    colon, divides = ops.colon, ops.divides
    cut = [colon(g, pivot) for g in gens if g[i]]
    low = [c for c in cut if not c[i]]
    cut += [g for g in free if not any([divides(c, g) for c in low])]
    rest = _numerator(free, ops, weigh)
    degree = weigh(pivot)
    return _plus_shifted(_plus_shifted(rest, rest, degree, -1), _numerator(cut, ops, weigh), degree, 1)


def quotient_series(leads, weights: Sequence[int]) -> Series:
    """The series of Q[y]/J for the monomial ideal J the leads generate."""
    return ideal_numerator(leads, weights), one_minus_powers(weights)


def module_series(ideal_leads, position_leads, weights: Sequence[int]) -> Series:
    """The series of a graded submodule N of (Q[y]/I)^l whose position j
    sits in degree 1 - w_j, from the leads of in(I) and of N at each
    position: sum_j t^(1 - w_j) (K_in(I) - K_J_j) / prod_j (1 - t^(w_j)).
    Numerator and denominator are multiplied by t^(max w - 1), which keeps
    every exponent non-negative."""
    top = max(weights)
    ring_part = ideal_numerator(ideal_leads, weights)
    numerator: list = []
    for w, leads in zip(weights, position_leads):
        position = _add(ring_part, ideal_numerator(leads, weights), -1)
        numerator = _add(numerator, _shift(position, top - w))
    return numerator, _shift(one_minus_powers(weights), top - 1)
