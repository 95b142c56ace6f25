"""Calculus on the orbit space of a linear finite group action.

An :class:`OrbitSpace` bundles a Hilbert map, its relation ideal, a generating
set of invariant vector fields, and (optionally) a linear Lie algebra action
for semi-basic tests.  Downstairs objects are intrinsic: functions are ideal
normal forms in the orbit alphabet, vector fields are derivations tangent to
the relations, and k-forms are alternating value tables on the pushed
generator fields constrained by the generator syzygies — the latter is what
makes a value table a well-defined functional, and is exactly what admits
forms (such as the canonical volume-like 1-form of the reflection example)
that extend to no ambient polynomial form.

Everything is exact: pushforwards subduct Lie derivatives; lifts of fields
and forms and extension checks are submodule membership with verified
witnesses (a form pull over Q[x] against the minors of the generator
fields, the others over the orbit ring modulo the relations); and the
exterior derivative and wedge product act on value tables directly: d by
Koszul's formula over the function ring, with the bracket structure
functions of the pushed generators, and the wedge by the shuffle sum.
No operation here solves a dense linear system.

The public constructors of fields and forms reduce and verify their
input (tangency, syzygy compatibility); the push, bracket, d and wedge
results and the JSON readers go through them.  Linear results (sums,
differences, negatives, multiples by a function or scalar) and the pushed
generators use ``_linear``, as function arithmetic uses
``OrbitFunction._normal``.  Form tables are normalised as ambient ones
are, by :func:`.group_action.alternating_table`, and every sum of
products is one :func:`.algebra.combination`.  Objects of different
spaces do not mix; fields and forms add only their own kind and multiply
only by functions, polynomials and rationals.  The syzygy check, the
tangency check and the derivative terms of :func:`orbit_d` are linear, so
they sum NF(z_i * y^e), NF(dg/dy_j * y^e) and NF(Y_i(y^e)) from monomial
tables kept per space
(:meth:`OrbitSpace._tabled`), as q(sigma) sums sigma^e from the Hilbert
map's :class:`.algebra.PowerTable`, the one table of powers that every
substitution reads.  The syzygy check walks the stored values once, and
it and the tangency check test all their sums by one exact zero test
(:func:`.algebra._tabled_vanish`) that makes no polynomial.  A pushed
field's components, rewrites through the tagged basis that holds the
relation basis, are relation normal forms already and are not reduced
again; the tangency check still runs on every pushed field.

The membership problems depend only on the space, so each is built once
per :class:`OrbitSpace` and its module basis serves every later call: the
pushed generators (lifts, brackets, syzygies), the columns of
:func:`extend_check`, and the k-minors of :func:`pull_form`, one problem
per form degree.  A solve reads the division of each target term from the
problem's tables, filled when a term is met the second time
(:class:`.groebner.SubmoduleProblem`).  Every witness is still verified.
The representatives of the pushed generators are kept once per space
(``OrbitSpace._pushed``): the two problems on them, the derivative tables
and :func:`extend_check` read them there, and only the public
``pushed_generators`` and the bracket coefficients wrap them as fields.
They come from one source, the module's pushforwards on the space's map,
made once per map (:meth:`.invariants.EquivariantModule._span`); the space
checks them as :func:`push_vf` does, and its own problem on them starts
with any module basis built there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations
from fractions import Fraction

from .algebra import (
    GREVLEX, PolyRing, Polynomial, _tabled_sum, _tabled_vanish, combination, json_integer, parse_polynomial
)
from .groebner import GroebnerBasis, SubmoduleProblem, _span_syzygies, _verify_combination, module_solve
from .group_action import (
    LieAlgebraAction,
    PolyDiffForm,
    PolyVectorField,
    _sort_sign,
    alternating_table,
    bracket_components,
    derivation,
    is_invariant,
)
from .exterior import evaluate, semibasic_check
from . import linalg
from .invariants import (
    EquivariantModule,
    HilbertMap,
    RelationIdeal,
    _push_field,
    _rewrite,
    equivariant_generators,
    relations,
    subduct,
)


class OrbitSpace:
    """Shared context: Hilbert map, relation ideal, generator fields, and the
    caches (pushed generators, their syzygies) every operation leans on.
    An ``ideal`` other than ``relations(hilbert)`` raises ``ValueError``."""

    def __init__(
        self,
        hilbert: HilbertMap,
        ideal: RelationIdeal | None = None,
        module: EquivariantModule | None = None,
        lie_action: LieAlgebraAction | None = None,
    ):
        self.hilbert = hilbert
        self.ideal = relations(hilbert)
        if ideal is not None and ideal != self.ideal:
            raise ValueError("the ideal is not the relation ideal of the Hilbert map")
        self.module = (
            module if module is not None else equivariant_generators(hilbert.group)
        )
        if self.module.ring != hilbert.ring:
            raise ValueError("generator fields live in the wrong ring")
        self.lie_action = (
            lie_action
            if lie_action is not None
            else LieAlgebraAction(hilbert.group.n, ())
        )
        self._pulls: dict[int, tuple] = {}
        self._syzygies: list[tuple[Polynomial, ...]] | None = None
        # monomial tables of the linear maps of :meth:`_tabled`, by key
        self._tables: dict = {}

    # -- basic constructors -------------------------------------------------

    @property
    def orbit_ring(self) -> PolyRing:
        return self.hilbert.orbit_ring

    def function(self, rep: Polynomial) -> "OrbitFunction":
        return OrbitFunction(self, rep)

    def parse_function(self, text: str) -> "OrbitFunction":
        return self.function(parse_polynomial(text, self.orbit_ring))

    def field(self, components) -> "OrbitVectorField":
        return OrbitVectorField(self, components)

    # -- caches ---------------------------------------------------------------

    @cached_property
    def _pushed(self) -> list[tuple[Polynomial, ...]]:
        """The representatives of the pushed generators' components,
        computed and checked once: the store every reader of the pushed
        generators reads.  It holds no fields, since a field points at its
        space and the cycle would keep a finished space alive until the
        cyclic collector runs.

        Every generator is checked invariant first; then each pushforward,
        from the module's :meth:`.invariants.EquivariantModule._span` on
        this map and a relation normal form already, as in :func:`push_vf`,
        passes the tangency check of :class:`OrbitVectorField`."""
        for X in self.module.generators:
            if not is_invariant(X, self.hilbert.group):
                raise ValueError("field is not invariant")
        columns = self.module._span(self.hilbert).columns
        for column in columns:
            OrbitVectorField(self, [OrbitFunction._normal(self, c) for c in column])
        return list(columns)

    @property
    def pushed_generators(self) -> list["OrbitVectorField"]:
        """The generator fields pushed to the orbit space, wrapped anew from
        :attr:`_pushed` on each access."""
        return [
            OrbitVectorField._linear(self, [OrbitFunction._normal(self, c) for c in comps])
            for comps in self._pushed
        ]

    @cached_property
    def _generator_span(self) -> SubmoduleProblem:
        """The pushed generators as one membership problem modulo the
        relations; its module basis is built once and shared by every
        lift, bracket expansion and the generator syzygies.  Its tables
        are its own; its module basis starts as the module's on this map."""
        problem = SubmoduleProblem(self.orbit_ring.nvars, tuple(self._pushed), self.ideal.basis)
        object.__setattr__(problem, "_basis", self.module._span(self.hilbert)._basis)
        return problem

    @cached_property
    def _extension_problem(self) -> SubmoduleProblem:
        """The columns (Y_i(y_j))_i, one per orbit coordinate, as one
        membership problem modulo the relations, shared by every
        :func:`extend_check` on this space."""
        return SubmoduleProblem(len(self._pushed), tuple(zip(*self._pushed)), self.ideal.basis)

    def _pull_problem(self, k: int) -> tuple:
        """The generator index tuples I, the coordinate tuples J, and the
        membership problem over Q[x] whose columns are the k-minors
        (dx_J(X_I))_I of the generator fields (None when k > n), shared by
        every :func:`pull_form` of degree k on this space."""
        if k not in self._pulls:
            ring = self.hilbert.ring
            fields = self.module.generators
            rows = list(combinations(range(len(fields)), k))
            basis_tuples = list(combinations(range(ring.nvars), k))
            one = ring.one()
            columns = tuple(
                tuple(
                    evaluate(PolyDiffForm(ring, k, [(J, one)]), [fields[i] for i in I])
                    for I in rows
                )
                for J in basis_tuples
            )
            problem = (
                SubmoduleProblem(len(rows), columns, GroebnerBasis((), GREVLEX))
                if columns
                else None
            )
            self._pulls[k] = (rows, basis_tuples, problem)
        return self._pulls[k]

    @property
    def generator_syzygies(self) -> list[tuple[Polynomial, ...]]:
        """Relations among the pushed generators modulo the relation ideal:
        none where :func:`_free_columns` proves it, else the Schreyer
        syzygies of the generator span."""
        if self._syzygies is None:
            span = self._generator_span
            self._syzygies = [] if _free_columns(span, self.orbit_ring) else _span_syzygies(span)
        return self._syzygies

    @cached_property
    def bracket_coefficients(self) -> dict[tuple[int, int], tuple[Polynomial, ...]]:
        """Coefficients c_ij with [Y_i, Y_j] = sum_m c_ij[m] Y_m for i < j.

        They are unique only up to a generator syzygy, which no orbit form
        sees, so any verified witness serves (computed once)."""
        pushed = self.pushed_generators
        return {
            (i, j): _generator_coordinates(orbit_bracket(pushed[i], pushed[j]), self)
            for i, j in combinations(range(len(pushed)), 2)
        }

    @cached_property
    def _syzygy_index(self) -> list[list[int]]:
        """Per generator i, the indices s of the generator syzygies z with
        z_i nonzero."""
        return [
            [s for s, syz in enumerate(self.generator_syzygies) if syz[i]]
            for i in range(len(self.module))
        ]

    def _tabled(self, items) -> Polynomial:
        """NF(sum sign * L(rep)) over the (sign, rep, key) items, L(f) being
        z_i * f for key ("syzygy", s, i), z the s-th generator syzygy,
        Y_i(f) for ("derivative", i), and dg_k/dy_j * f for ("tangent", k, j),
        g_k the k-th relation generator: NF(L(y^e)) is read from a table per
        key, filled when e is first met."""
        return _tabled_sum(self.orbit_ring, self._table_items(items))

    def _vanish(self, groups) -> bool:
        """Whether :meth:`_tabled` is zero on every group of items, by one
        exact zero test that makes no polynomial."""
        return _tabled_vanish(self._table_items(items) for items in groups)

    def _table_items(self, items) -> list:
        # the fills are made per call: kept on the space, each would hold
        # the space and keep it alive until the cyclic collector runs
        return [
            (sign, rep, self._tables.setdefault(key, {}), partial(self._entry, key))
            for sign, rep, key in items
        ]

    def _entry(self, key, exps) -> Polynomial:
        monomial = self.orbit_ring.monomial(exps)
        if key[0] == "syzygy":
            image = self.generator_syzygies[key[1]][key[2]] * monomial
        elif key[0] == "tangent":
            image = self.ideal.basis.generators[key[1]].partial_derivative(key[2]) * monomial
        else:
            image = derivation(self._pushed[key[1]], monomial)
        return self.ideal.normal(image)


# ---------------------------------------------------------------------------
# intrinsic objects
# ---------------------------------------------------------------------------

class OrbitFunction:
    """A function class on the orbit space: a normal-form polynomial in the
    orbit alphabet. Equality of classes is equality of representatives."""

    __slots__ = ("space", "rep")

    def __init__(self, space: OrbitSpace, rep: "Polynomial | OrbitFunction"):
        """The class of ``rep``: a polynomial of the orbit ring, reduced, or
        a class of ``space``, whose representative is taken as it is."""
        self.space = space
        if isinstance(rep, OrbitFunction):
            self.rep = _rep(rep, space)
            return
        if not isinstance(rep, Polynomial):
            raise TypeError(f"representative must be a polynomial, not {type(rep).__name__}")
        if rep.ring != space.orbit_ring:
            raise ValueError("representative must live in the orbit ring")
        self.rep = space.ideal.normal(rep)

    @classmethod
    def _normal(cls, space: OrbitSpace, rep: Polynomial) -> "OrbitFunction":
        """The class of ``rep``, already a normal form in the orbit ring."""
        f = cls.__new__(cls)
        f.space = space
        f.rep = rep
        return f

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def _class(self, other, rep: Polynomial) -> "OrbitFunction":
        """The class of ``rep``, a linear combination of self's
        representative and ``other``'s.  Normal forms span the standard
        monomials only, so with ``other`` a class ``rep`` is already one; a
        bare polynomial is reduced."""
        if isinstance(other, OrbitFunction):
            return OrbitFunction._normal(self.space, rep)
        return OrbitFunction(self.space, rep)

    def __add__(self, other):
        return self._class(other, self.rep + _rep(other, self.space))

    __radd__ = __add__

    def __sub__(self, other):
        return self._class(other, self.rep - _rep(other, self.space))

    def __neg__(self):
        return OrbitFunction._normal(self.space, -self.rep)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return OrbitFunction._normal(self.space, self.rep.scale(other))
        if not isinstance(other, (OrbitFunction, Polynomial)):
            return NotImplemented
        return OrbitFunction(self.space, self.rep * _rep(other, self.space))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, OrbitFunction)
            and self.space is other.space
            and self.rep == other.rep
        )

    def __hash__(self):
        return hash(self.rep)

    def __str__(self):
        return str(self.rep)

    def __repr__(self):
        return f"OrbitFunction({self.rep})"


# what fields and forms may be multiplied by; anything else is a TypeError
_FACTORS = (OrbitFunction, Polynomial, int, Fraction)


def _sample_point(nvars: int) -> tuple[int, ...]:
    """The fixed integer point of :func:`_free_columns`: (2, 3, ..., nvars + 1)."""
    return tuple(range(2, nvars + 2))


def _free_columns(problem: SubmoduleProblem, ring: PolyRing) -> bool:
    """True when the m columns of ``problem``, polynomials over ``ring``,
    have no syzygy because the ideal is zero and their m x l matrix has
    rank m at :func:`_sample_point`.  Q[ring] is then a domain, a syzygy
    would make every m x m minor the zero polynomial, and a minor that is
    nonzero at a point is not.  False means only that this test cannot
    tell: m > l, a nonzero ideal, or every minor vanishing at the point."""
    columns = problem.columns
    if problem.ideal.generators or len(columns) > problem.ambient_rank:
        return False
    point = _sample_point(ring.nvars)
    values = [[c.evaluate(point) for c in col] for col in columns]
    return linalg.rank(values, problem.ambient_rank) == len(columns)


def _function(value, space: OrbitSpace) -> OrbitFunction:
    """``value`` as a class of ``space``: ``value`` itself when it is
    one, and otherwise :class:`OrbitFunction`'s class of it."""
    if isinstance(value, OrbitFunction) and value.space is space:
        return value
    return OrbitFunction(space, value)


def _rep(obj, space: OrbitSpace) -> Polynomial:
    """The representative of a class of ``space``, or a bare polynomial."""
    if isinstance(obj, OrbitFunction):
        if obj.space is not space:
            raise ValueError("operands live on different orbit spaces")
        return obj.rep
    if isinstance(obj, Polynomial):
        return obj
    raise TypeError(f"cannot combine with {type(obj).__name__}")


class OrbitVectorField:
    """A derivation of the orbit function algebra: one class per orbit
    coordinate, constrained to preserve the relation ideal (tangency): the
    constructor checks it on every relation generator g, :meth:`_linear`
    does not.  The check NF(sum_j c_j * dg/dy_j) = 0 is linear in the
    components c_j, so it sums the space's table entries NF(dg/dy_j * y^e)
    over their terms, one group per g in one zero test.  Components of
    another space are refused."""

    __slots__ = ("space", "components")

    def __init__(self, space: OrbitSpace, components):
        self.space = space
        self.components = tuple(_function(c, space) for c in components)
        if len(self.components) != space.orbit_ring.nvars:
            raise ValueError("component count must match the orbit alphabet")
        if not space._vanish(
            [(1, c.rep, ("tangent", k, j)) for j, c in enumerate(self.components)]
            for k in range(len(space.ideal.basis.generators))
        ):
            raise ValueError("orbit field does not preserve the relation ideal")

    @classmethod
    def _linear(cls, space: OrbitSpace, components) -> "OrbitVectorField":
        """The field with these orbit-function components, known tangent:
        a pushed generator, or a linear result of tangent fields, since the
        fields preserving an ideal form a module over the function ring."""
        Y = cls.__new__(cls)
        Y.space = space
        Y.components = tuple(components)
        return Y

    def apply(self, f) -> OrbitFunction:
        """Directional derivative of an orbit function."""
        return self.space.function(derivation(self._reps(), _rep(f, self.space)))

    def _reps(self) -> list[Polynomial]:
        return [c.rep for c in self.components]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __add__(self, other):
        if not isinstance(other, OrbitVectorField):
            return NotImplemented
        return OrbitVectorField._linear(
            self.space, [a + b for a, b in zip(self.components, other.components)]
        )

    def __sub__(self, other):
        if not isinstance(other, OrbitVectorField):
            return NotImplemented
        return OrbitVectorField._linear(
            self.space, [a - b for a, b in zip(self.components, other.components)]
        )

    def __neg__(self):
        return OrbitVectorField._linear(self.space, [-c for c in self.components])

    def __mul__(self, factor):
        if not isinstance(factor, _FACTORS):
            return NotImplemented
        return OrbitVectorField._linear(self.space, [c * factor for c in self.components])

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, OrbitVectorField)
            and self.space is other.space
            and self.components == other.components
        )

    def __hash__(self):
        return hash(self.components)

    def __str__(self):
        names = self.space.orbit_ring.names
        pieces = [
            f"({c})*d/d{name}"
            for name, c in zip(names, self.components)
            if not c.is_zero()
        ]
        return " + ".join(pieces) if pieces else "0"

    def __repr__(self):
        return f"OrbitVectorField({self})"


class OrbitForm:
    """An alternating k-linear functional on the pushed generator fields,
    linear over the orbit function ring.

    ``values`` assigns an orbit function to every strictly increasing tuple
    of generator indices; alternation recovers the rest, and compatibility
    with every generator syzygy is what makes the table a single
    well-defined functional rather than a list of numbers: the constructor
    checks it, :meth:`_linear` does not, by sums of the space's table
    entries NF(z_i * y^e) over the values' terms, all in one zero test.
    Values of another space are refused.  Degree-0 orbit forms are bare
    :class:`OrbitFunction` values.
    """

    __slots__ = ("space", "degree", "values")

    def __init__(self, space: OrbitSpace, degree: int, values):
        items = values.items() if isinstance(values, dict) else values
        self._fill(space, degree, [(ix, _function(v, space)) for ix, v in items])
        # sum of z_i * value(i, rest) over each syzygy z must vanish modulo
        # the ideal for every (k-1)-tuple: linearity over the function ring.
        # One walk over the values: the value v at J, at position p, adds
        # (-1)^p * z_{J[p]} * v to the sum of (z, J - J[p]); sums that
        # receive nothing are zero.
        sums: dict[tuple, list] = {}
        for J, v in self.values.items():
            for p, i in enumerate(J):
                rest = J[:p] + J[p + 1 :]
                for s in space._syzygy_index[i]:
                    sums.setdefault((s, rest), []).append(((-1) ** p, v.rep, ("syzygy", s, i)))
        if not space._vanish(sums.values()):
            raise ValueError("values are not compatible with the generator syzygies")

    def _fill(self, space: OrbitSpace, degree: int, items):
        self.space = space
        self.degree = degree
        self.values = alternating_table(items, degree, len(space.module), "generator")

    @classmethod
    def _linear(cls, space: OrbitSpace, degree: int, items) -> "OrbitForm":
        """The form with these (index tuple, orbit function) items, known
        compatible: a linear result of compatible tables, since the syzygy
        conditions are linear over the function ring."""
        theta = cls.__new__(cls)
        theta._fill(space, degree, items)
        return theta

    def value(self, indices) -> OrbitFunction:
        """Value on an arbitrary generator tuple, via alternation."""
        sign, rep = self._signed(indices)
        return OrbitFunction._normal(self.space, -rep if sign < 0 else rep)

    def _signed(self, indices) -> tuple[int, Polynomial]:
        """(sign, rep) with value(indices) the class of sign * rep: the
        table entry of the sorted tuple, not negated."""
        sign, sorted_ix = _sort_sign(indices)
        value = self.values.get(sorted_ix)  # absent too for a repeated index
        return sign, self.space.orbit_ring.zero() if value is None else value.rep

    def is_zero(self) -> bool:
        return not self.values

    def __add__(self, other):
        if not isinstance(other, OrbitForm):
            return NotImplemented
        if self.degree != other.degree or self.space is not other.space:
            raise ValueError("can only add orbit forms of one degree and space")
        return OrbitForm._linear(
            self.space, self.degree, [*self.values.items(), *other.values.items()]
        )

    def __neg__(self):
        return OrbitForm._linear(
            self.space, self.degree, [(ix, -v) for ix, v in self.values.items()]
        )

    def __sub__(self, other):
        if not isinstance(other, OrbitForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, factor):
        if not isinstance(factor, _FACTORS):
            return NotImplemented
        return OrbitForm._linear(
            self.space, self.degree, [(ix, v * factor) for ix, v in self.values.items()]
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, OrbitForm)
            and self.space is other.space
            and self.degree == other.degree
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.degree, frozenset(self.values.items())))

    def __str__(self):
        if not self.values:
            return "0"
        pieces = []
        for ix in sorted(self.values):
            tag = ",".join(str(i + 1) for i in ix)
            pieces.append(f"(Y{tag}) -> {self.values[ix]}")
        return "; ".join(pieces)

    def __repr__(self):
        return f"OrbitForm(degree={self.degree}, {self})"


@dataclass(frozen=True)
class ExtendResult:
    """Outcome of the ambient-extension decision for an orbit 1-form: either
    coefficient polynomials A_j pulling the form back from the ambient
    coordinate differentials, or the certificate that none exist."""

    extendable: bool
    witness: tuple[Polynomial, ...] | None = None
    certificate: tuple[Polynomial, ...] | None = None

    def __bool__(self):
        return self.extendable


# ---------------------------------------------------------------------------
# pushforward / lift of vector fields
# ---------------------------------------------------------------------------

def push_vf(X: PolyVectorField, space: OrbitSpace) -> OrbitVectorField:
    """Push an invariant field down: component j is the rewrite of the Lie
    derivative X(sigma_j) through the generators.

    The rewrites are relation normal forms already: the tagged basis they
    are reduced by holds the relation basis, so they are not reduced again.
    A tangency failure after subduction would mean the Hilbert map data is
    inconsistent, so the constructor check stays on.
    """
    if not is_invariant(X, space.hilbert.group):
        raise ValueError("field is not invariant")
    return OrbitVectorField(space, [OrbitFunction._normal(space, c) for c in _push_field(X, space.hilbert)])


def _generator_coordinates(Y: OrbitVectorField, space: OrbitSpace) -> tuple[Polynomial, ...]:
    """Coefficients h with Y = sum h_i Y_i over the pushed generators: the
    verified witness of exact submodule membership."""
    outcome = module_solve([c.rep for c in Y.components], space._generator_span)
    if not outcome.member:
        raise ValueError("field is outside the pushed module")
    return outcome.witness


def lift_vf(Y: OrbitVectorField, space: OrbitSpace) -> PolyVectorField:
    """An invariant ambient field pushing to ``Y``: write ``Y`` through the
    pushed generators (exact submodule membership, no degree search) and
    assemble the same combination upstairs.  A ``space`` other than the
    field's is rejected.
    """
    if Y.space is not space:
        raise ValueError("field lives on a different orbit space")
    ring = space.hilbert.ring
    terms = [
        (space.hilbert.substitute_into(h), X.components)
        for h, X in zip(_generator_coordinates(Y, space), space.module.generators)
        if h
    ]
    lifted = PolyVectorField(
        ring, [combination(ring, [(1, s, X[j]) for s, X in terms]) for j in range(ring.nvars)]
    )
    check = push_vf(lifted, space)
    if check != Y:
        raise AssertionError("internal error: lift does not push back to the input")
    return lifted


def orbit_bracket(Y: OrbitVectorField, Z: OrbitVectorField) -> OrbitVectorField:
    """Commutator of derivations: component j is Y(Z_j) - Z(Y_j), formed on
    representatives and reduced modulo the relations once.

    Agrees with lift-bracket-push on the golden suite (the bracket of
    invariant fields pushes to the bracket of the pushforwards).
    """
    if Y.space is not Z.space:
        raise ValueError("fields live on different orbit spaces")
    return OrbitVectorField(Y.space, bracket_components(Y._reps(), Z._reps()))


# ---------------------------------------------------------------------------
# pushforward / pull of forms
# ---------------------------------------------------------------------------

def push_form(theta, space: OrbitSpace):
    """Push an invariant semi-basic ambient form down to its intrinsic value
    table: value(i1..ik) = rewrite of theta(X_{i1}, ..., X_{ik}).

    Invariance is checked against the group generators, semi-basicness
    against the supplied Lie algebra action (trivially true when empty).
    """
    if isinstance(theta, Polynomial):
        return space.function(subduct(theta, space.hilbert))
    if not is_invariant(theta, space.hilbert.group):
        raise ValueError("form is not invariant")
    sb = semibasic_check(theta, space.lie_action, space.hilbert.ring)
    if not sb:
        raise ValueError("form is not semi-basic")
    # an invariant form has invariant contractions with invariant fields,
    # so they are rewritten with no invariance test of their own
    k = theta.degree
    fields = space.module.generators
    values = {}
    for indices in combinations(range(len(fields)), k):
        q = _rewrite(evaluate(theta, [fields[i] for i in indices]), space.hilbert)
        values[indices] = OrbitFunction._normal(space, q)
    return OrbitForm(space, k, values)


def pull_form(theta, space: OrbitSpace, degree_bound: int | None = None):
    """The invariant semi-basic ambient form pushing to ``theta``.

    A k-form sum_J a_J dx_J is fixed by its values on the generator fields,
    omega(X_I) = sum_J a_J dx_J(X_I), whose right sides are k-minors of the
    generator matrix.  So the pull is one module membership problem over
    Q[x] with the zero ideal: one column per J with entries dx_J(X_I), one
    row per I, and the target theta(Y_I) composed with sigma.  The generator
    fields of a finite group span Q(x)^n, so the columns are independent
    and the answer is unique, hence invariant; the push-back check rejects
    a table that is not a push (for example one that is not semi-basic).
    The problem depends only on the space and k, so it and its module basis
    are built once per space and form degree.  ``degree_bound`` caps the
    coefficient degree of the answer.  A ``space`` other than the form's is
    rejected.
    """
    if theta.space is not space:
        raise ValueError("form lives on a different orbit space")
    if isinstance(theta, OrbitFunction):
        return space.hilbert.substitute_into(theta.rep)
    ring = space.hilbert.ring
    k = theta.degree
    rows, basis_tuples, problem = space._pull_problem(k)
    target = [space.hilbert.substitute_into(theta.value(I).rep) for I in rows]
    if problem is not None:
        outcome = module_solve(target, problem)
        coefficients = outcome.witness if outcome.member else None
    else:  # k > n: only the zero form exists
        coefficients = () if all(t.is_zero() for t in target) else None
    if coefficients is None:
        raise ValueError("pull not found: no ambient form has these values")
    candidate = PolyDiffForm(ring, k, list(zip(basis_tuples, coefficients)))
    degree = max((c.degree() for c in coefficients), default=0)
    if degree_bound is not None and degree > degree_bound:
        raise ValueError(f"pull not found at bound {degree_bound}")
    try:
        verification = push_form(candidate, space)
    except ValueError as exc:
        raise ValueError(f"pull not found: {exc}") from exc
    if verification != theta:
        raise AssertionError("internal error: pulled form does not push back to the input")
    return candidate


def orbit_d(theta):
    """Exterior derivative on the orbit space by Koszul's formula on the
    pushed generators, functions being 0-forms: for I = (i_0 < ... < i_k),
    d theta(Y_I) = sum_p (-1)^p Y_{i_p}(theta(Y_{I - i_p}))
    + sum_{p<q} (-1)^(p+q) theta([Y_{i_p}, Y_{i_q}], Y_{I - {i_p, i_q}}),
    each bracket written through :attr:`OrbitSpace.bracket_coefficients`.
    Derivative terms are read from tables; only bracket terms are reduced.
    """
    space = theta.space
    if isinstance(theta, OrbitFunction):
        k, signed = 0, lambda indices: (1, theta.rep)
    else:
        k, signed = theta.degree, theta._signed
    values = {}
    for I in combinations(range(len(space.module)), k + 1):
        derivatives = []
        for p, i in enumerate(I):
            sign, rep = signed(I[:p] + I[p + 1 :])
            derivatives.append(((-1) ** p * sign, rep, ("derivative", i)))
        products = []
        for p, q in combinations(range(k + 1), 2):
            rest = I[:p] + I[p + 1 : q] + I[q + 1 :]
            for m, c in enumerate(space.bracket_coefficients[(I[p], I[q])]):
                sign, rep = signed((m,) + rest)
                products.append(((-1) ** (p + q) * sign, c, rep))
        value = space._tabled(derivatives) + space.ideal.normal(combination(space.orbit_ring, products))
        values[I] = OrbitFunction._normal(space, value)
    return OrbitForm(space, k + 1, values)


def orbit_wedge(a, b):
    """Exterior product on the orbit space, by the shuffle sum on value
    tables: (a ^ b)(Y_I) = sum over k-subsets S of the positions of
    sign(S, S') a(Y_{I_S}) b(Y_{I_S'}), S' the complement of S.  With a
    function among the operands it is the plain product."""
    if isinstance(a, OrbitFunction) or isinstance(b, OrbitFunction):
        return a * b
    space = a.space
    if b.space is not space:
        raise ValueError("forms live on different orbit spaces")
    k, degree = a.degree, a.degree + b.degree
    values = {}
    for I in combinations(range(len(space.module)), degree):
        products = []
        for S in combinations(range(degree), k):
            rest = tuple(p for p in range(degree) if p not in S)
            sa, ra = a._signed([I[p] for p in S])
            sb, rb = b._signed([I[p] for p in rest])
            products.append((_sort_sign(S + rest)[0] * sa * sb, ra, rb))
        values[I] = combination(space.orbit_ring, products)
    return OrbitForm(space, degree, values)


# ---------------------------------------------------------------------------
# extension decision
# ---------------------------------------------------------------------------

def extend_check(theta: OrbitForm, space: OrbitSpace | None = None) -> ExtendResult:
    """Decide whether an orbit 1-form is the value table of sum A_j d(y_j):
    exact submodule membership against the columns (Y_i(y_j))_i.

    Extendable case returns the A_j (a verified witness); the negative case
    returns the nonzero module normal form as certificate.  The columns
    depend only on the space, whose one problem (and module basis) serves
    every call.  A ``space`` other than the form's is rejected.
    """
    if isinstance(theta, OrbitFunction) or theta.degree != 1:
        raise ValueError("extension decision applies to orbit 1-forms")
    if space is None:
        space = theta.space
    elif space is not theta.space:
        raise ValueError("form lives on a different orbit space")
    target = [theta.value((i,)).rep for i in range(len(space._pushed))]
    outcome = module_solve(target, space._extension_problem)
    if outcome.member:
        witness = tuple(space.ideal.normal(w) for w in outcome.witness)
        _verify_combination(space._extension_problem, witness, target, "extension witness")
        return ExtendResult(True, witness=witness)
    return ExtendResult(False, certificate=outcome.certificate)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def orbit_form_to_json(theta) -> dict:
    if isinstance(theta, OrbitFunction):
        return {
            "degree": 0,
            "generators": len(theta.space.module),
            "values": [{"tuple": [], "class": str(theta.rep)}],
        }
    return {
        "degree": theta.degree,
        "generators": len(theta.space.module),
        "values": [
            {"tuple": [i + 1 for i in ix], "class": str(theta.values[ix].rep)}
            for ix in sorted(theta.values)
        ],
    }


def orbit_form_from_json(data: dict, space: OrbitSpace):
    if not isinstance(data, dict):
        raise ValueError("an orbit form must be a JSON object")
    n_gens = len(space.module)
    if json_integer(data.get("generators", n_gens), "generators") != n_gens:
        raise ValueError("generator count differs from the orbit space")
    degree = json_integer(data["degree"], "degree")
    ring = space.orbit_ring
    if degree == 0:
        return space.function(
            sum((parse_polynomial(item["class"], ring) for item in data["values"]), ring.zero())
        )
    values = []
    for item in data["values"]:
        ix = tuple(json_integer(i, "tuple") - 1 for i in item["tuple"])
        values.append((ix, parse_polynomial(item["class"], ring)))
    return OrbitForm(space, degree, values)


def orbit_vf_to_json(Y: OrbitVectorField) -> dict:
    return {"components": [str(c.rep) for c in Y.components]}


def orbit_vf_components(data: dict, ring: PolyRing) -> list[Polynomial]:
    """The components of an orbit field's JSON object, read in the orbit
    ring: what the text says, before any space checks it."""
    if not isinstance(data, dict):
        raise ValueError("an orbit field must be a JSON object")
    return [parse_polynomial(s, ring) for s in data["components"]]


def orbit_vf_from_json(data: dict, space: OrbitSpace) -> OrbitVectorField:
    return space.field(orbit_vf_components(data, space.orbit_ring))
