"""One-variable rational series over Q: the exact Hilbert series that
certify a generating set complete.

A polynomial in t is a list of coefficients, lowest degree first, and a
rational series is a pair (numerator, denominator) of such lists.  Two
series are compared by cross-multiplying, so no polynomial gcd is needed.

- Molien: the invariant ring of a finite group G has the series
  (1/|G|) sum_g 1/det(I - t g), and its module of invariant vector fields,
  graded by coefficient degree, has (1/|G|) sum_g tr(g)/det(I - t g)
  (Derksen & Kemper, *Computational Invariant Theory*, ch. 3).  Both sums
  group the elements by det(I - t g).
- Monomial ideals: Q[y]/J, with y_j of weight w_j, has the series
  K_J(t) / prod_j (1 - t^(w_j)), and the numerator follows the recursion
  K(J + <m>) = K(J) - t^(w(m)) K(J : m) (Bayer & Stillman, *Computation of
  Hilbert functions*, 1992).
"""

from __future__ import annotations

import math
from typing import Sequence

from .algebra import mono_divides

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


def one_minus_powers(weights: Sequence[int]) -> list:
    """prod_j (1 - t^(w_j))."""
    out = [1]
    for w in weights:
        out = _add(out, _shift(out, w), -1)
    return out


def same_series(a: Series, b: Series) -> bool:
    """Equality of two rational functions, by cross-multiplying."""
    return _mul(a[0], b[1]) == _mul(b[0], a[1])


# ---------------------------------------------------------------------------
# Molien sums
# ---------------------------------------------------------------------------

def _det_one_minus(g) -> tuple:
    """det(I - t g), constant term first: Faddeev-LeVerrier over the
    integers on a = D g, D the lcm of g's denominators, whose characteristic
    polynomial has det(I - s a) for its reversed coefficients; the
    coefficient of t^k is then that of s^k over D^k.  An element of finite
    order has integer coefficients here, so the divisions are exact."""
    n = len(g)
    scale = math.lcm(*(c.denominator for row in g for c in row))
    a = [[int(c * scale) for c in row] for row in g]
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


def _averaged(group, weight) -> Series:
    """(1/|G|) sum_g weight(g) / det(I - t g), over the distinct
    denominators with their weights added up; all in integers."""
    classes: dict = {}
    for g in group.elements:
        den = _det_one_minus(g)
        classes[den] = classes.get(den, 0) + weight(g)
    dens = [list(den) for den in classes]
    numerator: list = []
    for k, total in enumerate(classes.values()):
        if total:
            term = [total]
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
    return _averaged(group, lambda g: 1)


def field_series(group) -> Series:
    """The Hilbert series of the invariant vector fields by coefficient
    degree.  A rational representation of a finite group has a rational
    character, so tr(g^-1) = tr(g) and no inverse is needed; for an element
    of finite order that trace is an integer."""
    return _averaged(group, lambda g: int(sum(g[i][i] for i in range(len(g)))))


# ---------------------------------------------------------------------------
# monomial ideals
# ---------------------------------------------------------------------------

def ideal_numerator(monomials, weights: Sequence[int]) -> list:
    """K_J for the ideal J generated by the given exponent tuples: the
    Hilbert series of Q[y]/J is K_J(t) / prod_j (1 - t^(w_j))."""
    gens: list = []
    for m in sorted(set(monomials), key=sum):
        if not any(mono_divides(g, m) for g in gens):
            gens.append(m)
    if not gens:
        return [1]
    if all(not any(a and b for a, b in zip(g, h)) for i, g in enumerate(gens) for h in gens[i + 1:]):
        # pairwise coprime: a complete intersection
        return one_minus_powers([sum(map(int.__mul__, g, weights)) for g in gens])
    *rest, pivot = gens
    colon = [tuple(max(a - b, 0) for a, b in zip(g, pivot)) for g in rest]
    degree = sum(map(int.__mul__, pivot, weights))
    return _add(ideal_numerator(rest, weights), _shift(ideal_numerator(colon, weights), degree), -1)


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
