"""Finite rational matrix groups acting on polynomials, vector fields, forms.

The ambient objects live over a fixed polynomial ring in x1..xn.  A group
element g acts on a function by (g.p)(x) = p(g^-1 x), on a vector field by
pushforward, and on a differential form by pullback along g^-1; all three are
left actions and agree on degree zero.  A Reynolds (averaging) operator and
the infinitesimal fields of a linear Lie algebra action round out the module.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence, Union

from .algebra import Exponents, Piece, PolyRing, Polynomial, _sum_pieces

Matrix = tuple[tuple[Fraction, ...], ...]
Image = tuple[tuple[tuple[Exponents, int], ...], int]  # numerators, denominator


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


def matrix_from_rows(rows: Iterable[Iterable]) -> Matrix:
    mat = tuple(tuple(parse_rational(e) for e in row) for row in rows)
    if not mat or any(len(row) != len(mat) for row in mat):
        raise ValueError("matrix must be square and nonempty")
    return mat


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def mat_inverse(m: Matrix) -> Matrix:
    """Gauss-Jordan inverse; raises ValueError on a singular matrix."""
    n = len(m)
    work = [list(row) + list(identity_matrix(n)[i]) for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = Fraction(1) / work[col][col]
        work[col] = [e * inv for e in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [e - factor * p for e, p in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


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
    """

    n: int
    generators: tuple[Matrix, ...]
    elements: tuple[Matrix, ...]
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

    def _moves(self, ring: PolyRing) -> dict[Matrix, tuple[Matrix, "_MonomialImages"]]:
        """g -> (g^-1, the monomial images under x -> g^-1 x over ``ring``)
        for every element (the generators among them), in element order;
        built once per instance and ring, the images filled as they are
        met."""
        moves = self._moves_by_ring.get(ring)
        if moves is None:
            moves = {}
            for g in self.elements:
                inv = mat_inverse(g)
                moves[g] = (inv, _MonomialImages(inv, ring))
            self._moves_by_ring[ring] = moves
        return moves


def closure(generators: Sequence, cap: int = 100_000) -> FiniteMatrixGroup:
    """Saturate a generator list into a full finite group element list.

    Raises if a generator is singular or if more than ``cap`` distinct
    elements appear (the group is then presumed infinite).
    """
    mats = [matrix_from_rows(g) for g in generators]
    if not mats:
        raise ValueError("at least one generator is required")
    n = len(mats[0])
    if any(len(m) != n for m in mats):
        raise ValueError("generators must share one size")
    for m in mats:
        mat_inverse(m)  # raises on a singular generator
    ident = identity_matrix(n)
    elements = [ident]
    seen = {ident}
    queue = [ident]
    while queue:
        current = queue.pop(0)
        for g in mats:
            nxt = mat_mul(current, g)
            if nxt not in seen:
                if len(seen) >= cap:
                    raise ValueError(f"group not finite within cap {cap}")
                seen.add(nxt)
                elements.append(nxt)
                queue.append(nxt)
    return FiniteMatrixGroup(n, tuple(mats), tuple(elements))


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
        total = self.ring.zero()
        for i, c in enumerate(self.components):
            if not c.is_zero():
                total = total + c * p.partial_derivative(i)
        return total

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
        if degree < 1:
            raise ValueError("form degree must be at least 1")
        # degrees above the dimension are allowed and necessarily zero: no
        # strictly increasing index tuple of that length exists
        normalized: dict[tuple[int, ...], Polynomial] = {}
        for indices, coeff in (terms or {}).items() if isinstance(terms, dict) else (terms or []):
            if len(indices) != degree:
                raise ValueError("index tuple length must equal the form degree")
            if any(i < 0 or i >= ring.nvars for i in indices):
                raise ValueError("form index out of range")
            if len(set(indices)) != degree:
                continue  # repeated index: the wedge vanishes
            sign, sorted_ix = _sort_sign(indices)
            if sign < 0:
                coeff = -coeff
            if sorted_ix in normalized:
                coeff = normalized[sorted_ix] + coeff
            if coeff.is_zero():
                normalized.pop(sorted_ix, None)
            else:
                normalized[sorted_ix] = coeff
        self.ring = ring
        self.degree = degree
        self.terms = normalized

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
        merged = dict(self.terms)
        for ix, c in other.terms.items():
            s = merged.get(ix)
            c = c if s is None else s + c
            if c.is_zero():
                merged.pop(ix, None)
            else:
                merged[ix] = c
        return PolyDiffForm(self.ring, self.degree, merged)

    def __neg__(self) -> "PolyDiffForm":
        return PolyDiffForm(
            self.ring, self.degree, {ix: -c for ix, c in self.terms.items()}
        )

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


def _sort_sign(indices: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Sign of the permutation sorting ``indices``, and the sorted tuple."""
    ix = list(indices)
    sign = 1
    for i in range(len(ix)):
        for j in range(i + 1, len(ix)):
            if ix[i] > ix[j]:
                sign = -sign
    return sign, tuple(sorted(ix))


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
    images = []
    for i in range(n):
        p = ring.zero()
        for j in range(n):
            if m[i][j]:
                p = p + ring.variable(j).scale(m[i][j])
        images.append(p)
    return images


class _MonomialImages:
    """The linear substitution x -> m.x over a ring as a table from an
    exponent tuple e to (m.x)^e.  An entry is built from the entry for
    e - e_i times the i-th linear form, once, when first met, and kept as a
    tuple of (exponents, numerator) pairs with their denominator, in lowest
    terms: smaller than a dict, and the table lives as long as its group."""

    __slots__ = ("ring", "linear", "images")

    def __init__(self, m: Matrix, ring: PolyRing):
        self.ring = ring
        # the i-th linear form as (j, numerator of m[i][j]) over its
        # nonzero terms, with the form's denominator
        self.linear = [
            ([(e.index(1), n) for e, n in p._num.items()], p._den)
            for p in _linear_substitution(m, ring)
        ]
        one = (0,) * ring.nvars
        self.images: dict[Exponents, Image] = {one: (((one, 1),), 1)}

    def image(self, exps: Exponents) -> Image:
        images = self.images
        found = images.get(exps)
        missing = []
        while found is None:
            i = max(j for j, k in enumerate(exps) if k)
            missing.append((exps, i))
            exps = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
            found = images.get(exps)
        for exps, i in reversed(missing):
            numerators, den = found
            linear, linear_den = self.linear[i]
            product: dict[Exponents, int] = {}
            for f, v in numerators:
                for j, c in linear:
                    e = f[:j] + (f[j] + 1,) + f[j + 1 :]
                    product[e] = product.get(e, 0) + v * c
            p = Polynomial._make(
                self.ring, {e: v for e, v in product.items() if v}, den * linear_den
            )
            images[exps] = found = (tuple(p._num.items()), p._den)
        return found

    def accumulate(self, out: list[Piece], p: Polynomial, factor: Fraction):
        """Append the pieces of factor * p(m.x) to ``out``; p(m.x) is the
        polynomial ``p.substitute`` gives for the linear forms of m."""
        den = p._den * factor.denominator
        for exps, n in p._num.items():
            numerators, image_den = self.image(exps)
            out.append((numerators, den * image_den, n * factor.numerator))


def _act_sum(moves, obj):
    """The sum of g . obj over the (g, (g^-1, monomial images under
    x -> g^-1 x)) pairs in ``moves``, for a polynomial, field or form over
    the images' ring, accumulated term by term."""
    ring = obj.ring
    if isinstance(obj, Polynomial):
        out: list[Piece] = []
        for _, (_, images) in moves:
            images.accumulate(out, obj, Fraction(1))
        return _sum_pieces(ring, out)
    n = ring.nvars
    if isinstance(obj, PolyVectorField):
        # (g.X)_i = sum_j g[i][j] X_j(g^-1 x)
        outs: list[list[Piece]] = [[] for _ in range(n)]
        for g, (_, images) in moves:
            for j, c in enumerate(obj.components):
                for i in range(n):
                    if g[i][j]:
                        images.accumulate(outs[i], c, g[i][j])
        return PolyVectorField(ring, [_sum_pieces(ring, out) for out in outs])
    k = obj.degree
    forms: dict[tuple[int, ...], list[Piece]] = {}
    for _, (inv, images) in moves:
        for indices, coeff in obj.terms.items():
            # d(inv.x)_{i} = sum_j inv[i][j] dx_j; the wedge over the index
            # tuple expands through minors of inv
            for target in combinations(range(n), k):
                det = _minor_det(inv, indices, target)
                if det:
                    images.accumulate(forms.setdefault(target, []), coeff, det)
    return PolyDiffForm(ring, k, {t: _sum_pieces(ring, out) for t, out in forms.items()})


def _act_by(g, obj):
    g = matrix_from_rows(g)
    inv = mat_inverse(g)
    return _act_sum([(g, (inv, _MonomialImages(inv, obj.ring)))], obj)


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
    return _act_sum(group._moves(obj.ring).items(), obj) * Fraction(1, group.order)


def infinitesimal_fields(action: LieAlgebraAction, ring: PolyRing) -> list[PolyVectorField]:
    """The linear fields X_xi(x) = xi.x, one per Lie algebra matrix."""
    if ring.nvars != action.n:
        raise ValueError("dimension mismatch between action and ring")
    fields = []
    for xi in action.xi_matrices:
        fields.append(PolyVectorField(ring, _linear_substitution(xi, ring)))
    return fields
