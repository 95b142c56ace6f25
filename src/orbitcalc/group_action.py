"""Finite rational matrix groups acting on polynomials, vector fields, forms.

The ambient objects live over a fixed polynomial ring in x1..xn.  A group
element g acts on a function by (g.p)(x) = p(g^-1 x), on a vector field by
pushforward, and on a differential form by pullback along g^-1; all three are
left actions and agree on degree zero.  All three read the powers
(g^-1 x)^e from the :class:`.algebra.PowerTable` of x -> g^-1 x, kept per
element and ring.  A Reynolds (averaging) operator and the infinitesimal
fields of a linear Lie algebra action round out the module.
"""

from __future__ import annotations

import math
import operator
import weakref
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence, Union

from .algebra import PolyRing, Polynomial, PowerTable, _tabled_sum, combination

# An integral entry is an ``int`` and any other a ``Fraction``; the two
# compare and hash alike and both carry .numerator and .denominator.
Matrix = tuple[tuple[Union[int, Fraction], ...], ...]


# ---------------------------------------------------------------------------
# exact matrix helpers
# ---------------------------------------------------------------------------

def parse_rational(text) -> Fraction:
    """Accept ints, Fractions, and strings like "-1", "1/2", "−1/3"."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text.replace("−", "-").strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    raise TypeError(f"cannot read a rational from {text!r}")


def _entry(q):
    """A matrix entry: ``q`` as an ``int`` when integral, else as given."""
    return q.numerator if q.denominator == 1 else q


def matrix_from_rows(rows: Iterable[Iterable]) -> Matrix:
    mat = tuple(tuple(_entry(parse_rational(e)) for e in row) for row in rows)
    if not mat or any(len(row) != len(mat) for row in mat):
        raise ValueError("matrix must be square and nonempty")
    return mat


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(_entry(sum(map(operator.mul, row, col))) for col in cols) for row in a)


def mat_inverse(m: Matrix) -> Matrix:
    """Fraction-free Gauss-Jordan inverse; raises ValueError on a singular
    matrix.  It runs on the integer matrix a = D m, D the lcm of m's
    denominators, beside the identity: each step replaces every other row
    by (pivot * row - row[col] * pivot row) / previous pivot, a division
    that is exact as in Bareiss's elimination, and the last step leaves
    d I beside d a^-1, d = +-det a.  So m^-1 = D (d a^-1) / d."""
    n = len(m)
    scale = math.lcm(*(e.denominator for row in m for e in row))
    work = [
        [int(e * scale) for e in row] + [int(i == j) for j in range(n)]
        for i, row in enumerate(m)
    ]
    previous = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        top = work[col]
        p = top[col]
        for r in range(n):
            if r != col:
                row = work[r]
                f = row[col]
                work[r] = [(p * e - f * t) // previous for e, t in zip(row, top)]
        previous = p
    return tuple(tuple(_entry(Fraction(scale * e, previous)) for e in row[n:]) for row in work)


def format_matrix(m: Matrix) -> list[list[str]]:
    return [[str(e) for e in row] for row in m]


# ---------------------------------------------------------------------------
# groups and Lie algebra data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteMatrixGroup:
    """A finite subgroup of GL(n, Q) with its full element list.

    ``elements`` is the breadth-first closure from the identity (generators
    applied in input order), so downstream averages are deterministic.
    Integral entries are ``int`` and the others ``Fraction``.  ``inverses``
    holds the inverse of each element, in element order, as the closure
    recorded it: the same tuples as in ``elements``, not copies.
    """

    n: int
    generators: tuple[Matrix, ...]
    elements: tuple[Matrix, ...]
    inverses: tuple[Matrix, ...] = field(repr=False, compare=False)
    _moves_by_ring: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # Hilbert maps built for this group, by degree bound.  Weak values: a
    # map refers to its group, so a strong reference here would make a
    # cycle that outlives every caller until the cyclic collector runs.
    _hilbert_maps: weakref.WeakValueDictionary = field(
        default_factory=weakref.WeakValueDictionary, init=False, repr=False, compare=False
    )

    @property
    def order(self) -> int:
        return len(self.elements)

    def _moves(self, ring: PolyRing) -> dict[Matrix, tuple[Matrix, PowerTable]]:
        """g -> (g^-1, the power table of x -> g^-1 x over ``ring``) for
        every element (the generators among them), in element order; built
        once per instance and ring from the recorded inverses, each table
        filled as its monomials are met."""
        moves = self._moves_by_ring.get(ring)
        if moves is None:
            moves = self._moves_by_ring[ring] = {
                g: _move(inv, ring) for g, inv in zip(self.elements, self.inverses)
            }
        return moves


def closure(generators: Sequence, cap: int = 100_000) -> FiniteMatrixGroup:
    """Saturate a generator list into a full finite group element list.

    Each new element current * g has the inverse g^-1 * current^-1, so only
    the generators are inverted.  Raises if a generator is singular or if
    more than ``cap`` distinct elements appear (the group is then presumed
    infinite).
    """
    mats = [matrix_from_rows(g) for g in generators]
    if not mats:
        raise ValueError("at least one generator is required")
    n = len(mats[0])
    if any(len(m) != n for m in mats):
        raise ValueError("generators must share one size")
    steps = [(m, mat_inverse(m)) for m in mats]  # raises on a singular generator
    ident = identity_matrix(n)
    inverse_of = {ident: ident}  # the seen elements, in element order
    queue = deque([ident])
    while queue:
        current = queue.popleft()
        current_inv = inverse_of[current]
        for g, g_inv in steps:
            nxt = mat_mul(current, g)
            if nxt not in inverse_of:
                if len(inverse_of) >= cap:
                    raise ValueError(f"group not finite within cap {cap}")
                inverse_of[nxt] = mat_mul(g_inv, current_inv)
                queue.append(nxt)
    # each inverse is an element: keep the element's own tuple, not the copy
    elements = {g: g for g in inverse_of}
    return FiniteMatrixGroup(
        n, tuple(mats), tuple(elements), tuple(elements[inv] for inv in inverse_of.values())
    )


@dataclass(frozen=True)
class LieAlgebraAction:
    """Linear infinitesimal action: each matrix xi induces X_xi(x) = xi.x.

    Finite groups carry the empty list.
    """

    n: int
    xi_matrices: tuple[Matrix, ...]

    @staticmethod
    def from_rows(n: int, mats: Sequence) -> "LieAlgebraAction":
        parsed = tuple(matrix_from_rows(m) for m in mats)
        if any(len(m) != n for m in parsed):
            raise ValueError("dimension mismatch in Lie algebra matrices")
        return LieAlgebraAction(n, parsed)


# ---------------------------------------------------------------------------
# polynomial vector fields
# ---------------------------------------------------------------------------

class PolyVectorField:
    """X = sum components[i] * d/dx_i with polynomial components."""

    __slots__ = ("ring", "components")

    def __init__(self, ring: PolyRing, components: Sequence[Polynomial]):
        if len(components) != ring.nvars:
            raise ValueError("component count must equal the ambient dimension")
        for c in components:
            if c.ring != ring:
                raise ValueError("components must live in the ambient ring")
        self.ring = ring
        self.components = tuple(components)

    @staticmethod
    def zero(ring: PolyRing) -> "PolyVectorField":
        return PolyVectorField(ring, [ring.zero()] * ring.nvars)

    @staticmethod
    def euler(ring: PolyRing) -> "PolyVectorField":
        return PolyVectorField(ring, list(ring.variables()))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def apply(self, p: Polynomial) -> Polynomial:
        """Directional derivative: X(p) = sum components[i] * dp/dx_i."""
        return derivation(self.components, p)

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField(
            self.ring, [a + b for a, b in zip(self.components, other.components)]
        )

    def __sub__(self, other: "PolyVectorField") -> "PolyVectorField":
        return self + (-other)

    def __neg__(self) -> "PolyVectorField":
        return PolyVectorField(self.ring, [-c for c in self.components])

    def __mul__(self, factor) -> "PolyVectorField":
        if isinstance(factor, Polynomial):
            return PolyVectorField(self.ring, [factor * c for c in self.components])
        return PolyVectorField(self.ring, [c.scale(factor) for c in self.components])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyVectorField)
            and self.ring == other.ring
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.ring, self.components))

    def __str__(self):
        pieces = []
        for name, c in zip(self.ring.names, self.components):
            if c.is_zero():
                continue
            pieces.append(f"({c})*d/d{name}")
        return " + ".join(pieces) if pieces else "0"

    def __repr__(self):
        return f"PolyVectorField({self})"


# ---------------------------------------------------------------------------
# polynomial differential forms (degree >= 1; degree 0 is a bare Polynomial)
# ---------------------------------------------------------------------------

class PolyDiffForm:
    """Polynomial k-form, k >= 1, stored on strictly increasing index tuples.

    ``terms`` maps 0-based index tuples (i1 < ... < ik) to nonzero polynomial
    coefficients.  Construction sorts arbitrary tuples, absorbs the sign of
    the sorting permutation into the coefficient, and drops repeats and zero
    coefficients, so equality is plain dictionary equality.
    """

    __slots__ = ("ring", "degree", "terms")

    def __init__(self, ring: PolyRing, degree: int, terms=None):
        # degrees above the dimension are allowed and necessarily zero: no
        # strictly increasing index tuple of that length exists
        self.ring = ring
        self.degree = degree
        self.terms = alternating_table(terms or (), degree, ring.nvars, "form")

    @staticmethod
    def zero(ring: PolyRing, degree: int) -> "PolyDiffForm":
        return PolyDiffForm(ring, degree, {})

    @staticmethod
    def basis(ring: PolyRing, indices: Sequence[int]) -> "PolyDiffForm":
        """dx_{i1} ^ ... ^ dx_{ik} (0-based indices)."""
        return PolyDiffForm(ring, len(indices), {tuple(indices): ring.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PolyDiffForm") -> "PolyDiffForm":
        if self.degree != other.degree or self.ring != other.ring:
            raise ValueError("can only add forms of one degree over one ring")
        return PolyDiffForm(self.ring, self.degree, [*self.terms.items(), *other.terms.items()])

    def __neg__(self) -> "PolyDiffForm":
        return PolyDiffForm(self.ring, self.degree, {ix: -c for ix, c in self.terms.items()})

    def __sub__(self, other: "PolyDiffForm") -> "PolyDiffForm":
        return self + (-other)

    def __mul__(self, factor) -> "PolyDiffForm":
        if isinstance(factor, Polynomial):
            return PolyDiffForm(
                self.ring, self.degree, {ix: factor * c for ix, c in self.terms.items()}
            )
        return PolyDiffForm(
            self.ring, self.degree, {ix: c.scale(factor) for ix, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyDiffForm)
            and self.ring == other.ring
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.degree, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.names
        pieces = []
        for ix in sorted(self.terms):
            basis = "^".join(f"d{names[i]}" for i in ix)
            pieces.append(f"({self.terms[ix]}) {basis}")
        return " + ".join(pieces)

    def __repr__(self):
        return f"PolyDiffForm({self})"


def alternating_table(items, degree: int, size: int, what: str) -> dict:
    """The table of an alternating ``degree``-linear object on ``size``
    slots, from (index tuple, value) items as a dict or a sequence: sort
    each tuple and absorb the sign, add values that meet, drop repeats and
    zeros.  Values are polynomials or orbit functions; ``what`` names the
    slots in errors."""
    if degree < 1:
        raise ValueError("form degree must be at least 1")
    table: dict = {}
    for indices, value in items.items() if isinstance(items, dict) else items:
        if len(indices) != degree:
            raise ValueError("index tuple length must equal the form degree")
        if any(i < 0 or i >= size for i in indices):
            raise ValueError(f"{what} index out of range")
        if len(set(indices)) != degree:
            continue  # repeated index: the value is zero
        sign, sorted_ix = _sort_sign(indices)
        if sign < 0:
            value = -value
        if sorted_ix in table:
            value = table[sorted_ix] + value
        if value.is_zero():
            table.pop(sorted_ix, None)
        else:
            table[sorted_ix] = value
    return table


def _sort_sign(indices: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Sign of the permutation sorting ``indices``, and the sorted tuple."""
    ix = list(indices)
    sign = 1
    for i in range(len(ix)):
        for j in range(i + 1, len(ix)):
            if ix[i] > ix[j]:
                sign = -sign
    return sign, tuple(sorted(ix))


def _derivative_products(components: Sequence[Polynomial], p: Polynomial, sign: int = 1):
    """The products sign * components[i] * dp/dx_i, as :func:`combination`
    takes them."""
    return [(sign, c, p.partial_derivative(i)) for i, c in enumerate(components) if c]


def derivation(components: Sequence[Polynomial], p: Polynomial) -> Polynomial:
    """The derivation sum components[i] * d/dx_i applied to ``p``: the one
    formula of ambient fields (over Q[x]) and orbit fields (on
    representatives over the orbit ring)."""
    return combination(p.ring, _derivative_products(components, p))


def bracket_components(a: Sequence[Polynomial], b: Sequence[Polynomial]) -> list[Polynomial]:
    """The components a(b_j) - b(a_j) of the commutator of the derivations
    with components ``a`` and ``b``, one kernel sum each."""
    return [
        combination(aj.ring, _derivative_products(a, bj) + _derivative_products(b, aj, -1))
        for aj, bj in zip(a, b)
    ]


FormOrPoly = Union[PolyDiffForm, Polynomial]


def form_degree(obj: FormOrPoly) -> int:
    return 0 if isinstance(obj, Polynomial) else obj.degree


# ---------------------------------------------------------------------------
# the three actions
# ---------------------------------------------------------------------------

def _linear_substitution(m: Matrix, ring: PolyRing) -> list[Polynomial]:
    """The coordinates of x -> m.x as degree-one polynomials."""
    n = ring.nvars
    if len(m) != n:
        raise ValueError("dimension mismatch between matrix and ring")
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    return [Polynomial(ring, dict(zip(units, row))) for row in m]


def _move(inv: Matrix, ring: PolyRing) -> tuple[Matrix, PowerTable]:
    """(g^-1, the power table of x -> g^-1 x over ``ring``) from g^-1."""
    return inv, PowerTable(_linear_substitution(inv, ring))


def _act_sum(moves, obj):
    """The sum of g . obj over the (g, (g^-1, power table of x -> g^-1 x))
    pairs in ``moves``, for a polynomial, field or form over the tables'
    ring: one :func:`.algebra._tabled_sum` per polynomial of the result,
    whose items carry the coefficients g[i][j] of a field and the minors of
    g^-1 of a form."""
    ring = obj.ring
    if isinstance(obj, Polynomial):
        return _tabled_sum(ring, [(1, obj, table, table.power) for _, (_, table) in moves])
    n = ring.nvars
    if isinstance(obj, PolyVectorField):
        # (g.X)_i = sum_j g[i][j] X_j(g^-1 x)
        return PolyVectorField(ring, [
            _tabled_sum(ring, [
                (g[i][j], c, table, table.power)
                for g, (_, table) in moves
                for j, c in enumerate(obj.components)
                if g[i][j]
            ])
            for i in range(n)
        ])
    k = obj.degree
    forms: dict[tuple[int, ...], list] = {}
    for _, (inv, table) in moves:
        for indices, coeff in obj.terms.items():
            # d(inv.x)_{i} = sum_j inv[i][j] dx_j; the wedge over the index
            # tuple expands through minors of inv
            for target in combinations(range(n), k):
                det = _minor_det(inv, indices, target)
                if det:
                    forms.setdefault(target, []).append((det, coeff, table, table.power))
    return PolyDiffForm(ring, k, {t: _tabled_sum(ring, items) for t, items in forms.items()})


def _act_by(g, obj):
    g = matrix_from_rows(g)
    return _act_sum([(g, _move(mat_inverse(g), obj.ring))], obj)


def act_poly(g, p: Polynomial) -> Polynomial:
    """(g.p)(x) = p(g^-1 x); a left action on the polynomial ring."""
    return _act_by(g, p)


def act_vf(g, X: PolyVectorField) -> PolyVectorField:
    """Pushforward: (g.X)(x) = g . X(g^-1 x); a left action on fields."""
    return _act_by(g, X)


def act_form(g, omega: FormOrPoly) -> FormOrPoly:
    """Pullback along g^-1, making a left action that matches act_poly in
    degree 0 and pairs with act_vf: (g.omega)(g.X) = g.(omega(X))."""
    return _act_by(g, omega)


def _minor_det(m: Matrix, rows: Sequence[int], cols: Sequence[int]) -> Fraction:
    k = len(rows)
    sub = [[m[r][c] for c in cols] for r in rows]
    # Laplace by permutation expansion is fine at these sizes, but Gaussian
    # elimination keeps it polynomial if someone wedges in high degree
    det = Fraction(1)
    for col in range(k):
        pivot = next((r for r in range(col, k) if sub[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            sub[col], sub[pivot] = sub[pivot], sub[col]
            det = -det
        det *= sub[col][col]
        inv = Fraction(1) / sub[col][col]
        for r in range(col + 1, k):
            if sub[r][col]:
                factor = sub[r][col] * inv
                sub[r] = [e - factor * p for e, p in zip(sub[r], sub[col])]
    return det


def is_invariant(obj, group: FiniteMatrixGroup) -> bool:
    """True iff the object is fixed by every generator (hence the group)."""
    if not isinstance(obj, (Polynomial, PolyVectorField, PolyDiffForm)):
        raise TypeError(f"cannot test invariance of {type(obj).__name__}")
    moves = group._moves(obj.ring)
    return all(_act_sum([(g, moves[g])], obj) == obj for g in group.generators)


def reynolds(obj, group: FiniteMatrixGroup):
    """Group average (1/|G|) sum g.obj — the projection onto invariants.

    Summation runs in the deterministic element order of the group.
    """
    if not isinstance(obj, (Polynomial, PolyVectorField, PolyDiffForm)):
        raise TypeError(f"cannot average {type(obj).__name__}")
    average = _act_sum(group._moves(obj.ring).items(), obj)
    weight = Fraction(1, group.order)
    return average.scale(weight) if isinstance(average, Polynomial) else average * weight


def infinitesimal_fields(action: LieAlgebraAction, ring: PolyRing) -> list[PolyVectorField]:
    """The linear fields X_xi(x) = xi.x, one per Lie algebra matrix."""
    if ring.nvars != action.n:
        raise ValueError("dimension mismatch between action and ring")
    fields = []
    for xi in action.xi_matrices:
        fields.append(PolyVectorField(ring, _linear_substitution(xi, ring)))
    return fields
