"""Exact multivariate polynomial arithmetic over arbitrary-precision rationals.

A polynomial is attached to an immutable ring that fixes the variable
alphabet, and is stored in the layout of FLINT's ``fmpq_poly``: integer
numerators by exponent tuple over one positive common denominator, in
lowest terms (the gcd of the denominator and all numerators is 1).  That
form is canonical, so equality and hashing read it as it is.  Arithmetic
runs on Python ints: a sum puts both operands over the lcm of their
denominators, and every result is brought to lowest terms by one gcd.
Every product goes through one kernel, :func:`combination`, which adds
the term products of sum(sign * a * b) into one numerator table over the
lcm of their denominators; ``a * b`` is its case of one product, and
derivations, contractions, the orbit d and wedge, and witness checks call
it with all their products at once.  Every substitution (the group action
x -> g^-1 x, :meth:`Polynomial.substitute`, the Hilbert map y -> sigma(x)
and pullbacks) reads the powers v^e of its values from one
:class:`PowerTable`, as ``p ** n`` does for the one value p, and
:func:`_tabled_sum` sums a linear map from such a table, as the tabled
normal forms do from theirs.  Division (:func:`.groebner.divide`) reads
and builds the same integer form.
A ``Fraction`` is made only when a caller reads a coefficient:
``terms`` (a dict built on first read and kept), ``coefficient``,
``constant_term`` and ``leading``.
Three monomial orders are provided (graded reverse lexicographic,
lexicographic, and a two-block elimination order); grevlex with the first
variable most significant is the default used for canonical printing.
Exponent arithmetic (:func:`monomial_ops`) and the orders' keys
(:meth:`MonomialOrder.key_for`) are compiled once per number of variables,
unrolled over the indices, and every hot loop calls those of its ring.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

Exponents = tuple[int, ...]
Scalar = Union[int, Fraction]


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact rational coefficient required, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# monomials (bare exponent tuples): kernels compiled once per arity
# ---------------------------------------------------------------------------

def mono_degree(a: Exponents) -> int:
    return sum(a)


def _compiled(args: str, body: str) -> Callable:
    """The function ``lambda args: body``.  Every body passed here is built
    from integer indices alone, so no outside text is ever compiled."""
    return eval(f"lambda {args}: {body}", {"__builtins__": {}})


def _tuple_source(items: Iterable[str]) -> str:
    """A tuple display of the item sources; ``()`` for none."""
    return "(" + "".join(f"{item}, " for item in items) + ")"


def _sum_source(items: Sequence[str]) -> str:
    """The sum of the item sources, ``0`` for none, nested as a balanced
    tree so that no arity is too deep for the compiler."""
    if not items:
        return "0"
    while len(items) > 1:
        items = [
            f"({items[i]} + {items[i + 1]})" if i + 1 < len(items) else items[i]
            for i in range(0, len(items), 2)
        ]
    return items[0]


class MonomialOps(NamedTuple):
    """The exponent arithmetic of one arity n, each a compiled function of
    two n-tuples: the product a + b, the quotient a - b, the divisibility
    test a <= b, the lcm max(a, b) and the colon exponent max(a - b, 0),
    all componentwise; and the unit tuples, units[i] the exponents of the
    i-th variable."""

    mul: Callable[[Exponents, Exponents], Exponents]
    div: Callable[[Exponents, Exponents], Exponents]
    divides: Callable[[Exponents, Exponents], bool]
    lcm: Callable[[Exponents, Exponents], Exponents]
    colon: Callable[[Exponents, Exponents], Exponents]
    units: tuple[Exponents, ...]


@functools.cache
def monomial_ops(n: int) -> MonomialOps:
    """The kernels of arity ``n``, compiled on first use; for n = 3 the
    product is ``lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2], )``."""
    at = [(f"a[{i}]", f"b[{i}]") for i in range(n)]
    return MonomialOps(
        _compiled("a, b", _tuple_source(f"{x} + {y}" for x, y in at)),
        _compiled("a, b", _tuple_source(f"{x} - {y}" for x, y in at)),
        _compiled("a, b", " and ".join(f"{x} <= {y}" for x, y in at) or "True"),
        _compiled("a, b", _tuple_source(f"{x} if {x} > {y} else {y}" for x, y in at)),
        _compiled("a, b", _tuple_source(f"{x} - {y} if {x} > {y} else 0" for x, y in at)),
        tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
    )


def _graded_source(indices: Sequence[int]) -> str:
    """The grevlex key of the exponents at ``indices``, as two items of a
    tuple display: their sum, then their negatives from the last one."""
    negated = _tuple_source(f"-e[{i}]" for i in reversed(indices))
    return f"{_sum_source([f'e[{i}]' for i in indices])}, {negated}"


@functools.cache
def _grevlex_key(n: int) -> Callable[[Exponents], tuple]:
    return _compiled("e", f"({_graded_source(range(n))})")


@functools.cache
def _block_key(block: int, n: int) -> Callable[[Exponents], tuple]:
    """The block key of arity ``n`` for a first block of ``block <= n``."""
    head, tail = range(block), range(block, n)
    return _compiled("e", f"({_graded_source(head)}, {_graded_source(tail)})")


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

class MonomialOrder:
    """Total, multiplicative well-order on exponent tuples.

    Subclasses provide :meth:`key`; larger key means larger monomial, so the
    leading monomial of a polynomial is ``max(terms, key=order.key)``.
    :meth:`key_for` gives a function equal to :meth:`key` on the tuples of
    one arity; hot loops fetch it once per call.  By default it is ``key``
    itself, so an order that defines only ``key`` works everywhere; the
    built-in orders return a key compiled for the arity, which holds no
    state, and a subclass of one of them that changes ``key`` must change
    ``key_for`` too.
    """

    name = "order"

    def key(self, exps: Exponents):
        raise NotImplementedError

    def key_for(self, n: int) -> Callable[[Exponents], object]:
        """The key on exponent tuples of length ``n``."""
        return self.key

    def greater(self, a: Exponents, b: Exponents) -> bool:
        return self.key(a) > self.key(b)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.name}>"


class GrevlexOrder(MonomialOrder):
    """Graded reverse lexicographic order, first variable most significant:
    the key is (total degree, negated exponents from the last variable)."""

    name = "grevlex"

    def key(self, exps: Exponents):
        return self.key_for(len(exps))(exps)

    def key_for(self, n: int) -> Callable[[Exponents], tuple]:
        return _grevlex_key(n)


class LexOrder(MonomialOrder):
    """Pure lexicographic order, first variable most significant."""

    name = "lex"

    def key(self, exps: Exponents):
        return exps


class BlockOrder(MonomialOrder):
    """Elimination order: compare the first ``block`` variables by grevlex,
    break ties by grevlex on the remaining variables.

    Any monomial involving a first-block variable exceeds every monomial free
    of them, so a Groebner basis under this order intersected with the second
    block generates the elimination ideal.
    """

    name = "block"

    def __init__(self, block: int):
        if block < 0:
            raise ValueError("block size must be non-negative")
        self.block = block

    def key(self, exps: Exponents):
        return self.key_for(len(exps))(exps)

    def key_for(self, n: int) -> Callable[[Exponents], tuple]:
        return _block_key(min(self.block, n), n)


GREVLEX = GrevlexOrder()
LEX = LexOrder()


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyRing:
    """An immutable polynomial ring identified by its variable alphabet."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        for name in self.names:
            if not re.fullmatch(r"[A-Za-z_]\w*", name):
                raise ValueError(f"bad variable name {name!r}")

    @property
    def nvars(self) -> int:
        return len(self.names)

    @staticmethod
    def ambient(n: int) -> "PolyRing":
        """The source ring Q[x1..xn]."""
        return PolyRing(tuple(f"x{i + 1}" for i in range(n)))

    @staticmethod
    def orbit(count: int) -> "PolyRing":
        """The target ring Q[y1..yl] of orbit-space coordinates."""
        return PolyRing(tuple(f"y{i + 1}" for i in range(count)))

    def joined(self, other: "PolyRing") -> "PolyRing":
        """The combined alphabet used internally for elimination."""
        return PolyRing(self.names + other.names)

    def zero(self) -> "Polynomial":
        return Polynomial._make(self, {}, 1)

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, value: Scalar) -> "Polynomial":
        c = _as_fraction(value)
        return Polynomial._make(self, {(0,) * self.nvars: c.numerator} if c else {}, c.denominator)

    def variable(self, index: int) -> "Polynomial":
        """The variable with 0-based ``index`` as a polynomial."""
        if not 0 <= index < self.nvars:
            raise IndexError(f"variable index {index} out of range")
        exps = tuple(1 if j == index else 0 for j in range(self.nvars))
        return Polynomial._make(self, {exps: 1}, 1)

    def variables(self) -> list["Polynomial"]:
        return [self.variable(i) for i in range(self.nvars)]

    def monomial(self, exps: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError("bad exponent tuple")
        c = _as_fraction(coeff)
        return Polynomial._make(self, {exps: c.numerator} if c else {}, c.denominator)

    def from_terms(self, terms: Mapping[Exponents, Scalar]) -> "Polynomial":
        return Polynomial(self, {tuple(e): c for e, c in terms.items()})


class Polynomial:
    """Sparse exact-rational polynomial; immutable once constructed.

    ``Polynomial(ring, terms)`` takes a map from exponent tuples to int or
    ``Fraction`` coefficients and drops the zero ones.  The stored form is
    ``_num``, the nonzero integer numerators by exponents, over ``_den``, a
    positive int with ``gcd(_den, *_num.values()) == 1``; other modules of
    the package read and build that form directly, through :meth:`_make`.
    """

    __slots__ = ("ring", "_num", "_den", "_hash", "_terms")

    def __init__(self, ring: PolyRing, terms: Mapping[Exponents, Scalar]):
        coeffs = {e: _as_fraction(c) for e, c in terms.items() if c}
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        # each coefficient is in lowest terms, so the numerators over the
        # lcm of the denominators already share no factor with it
        self.ring, self._den, self._hash, self._terms = ring, den, None, None
        self._num = {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}

    @classmethod
    def _make(cls, ring: PolyRing, num: dict[Exponents, int], den: int) -> "Polynomial":
        """The polynomial ``sum(n * x^e for e, n in num) / den`` for nonzero
        numerators and a nonzero ``den``, reduced to lowest terms with a
        positive denominator.  ``num`` may be kept, so it must not be
        modified afterwards."""
        if den < 0:
            den = -den
            num = {e: -n for e, n in num.items()}
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {e: n // g for e, n in num.items()}
        p = object.__new__(cls)
        p.ring, p._num, p._den, p._hash, p._terms = ring, num, den, None, None
        return p

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """The coefficients as ``Fraction``s by exponents: a dict built on
        first read and kept, which callers must not modify."""
        if self._terms is None:
            den = self._den
            self._terms = {e: Fraction(n, den) for e, n in self._num.items()}
        return self._terms

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._den == other._den and self.ring == other.ring and self._num == other._num

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, self._den, frozenset(self._num.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._num)

    def is_zero(self) -> bool:
        return not self._num

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    # -- structure ---------------------------------------------------------

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        return max(map(mono_degree, self._num), default=-1)

    def _check_arity(self, exps: Exponents) -> Exponents:
        exps = tuple(exps)
        if len(exps) != self.ring.nvars:
            raise ValueError(f"{len(exps)} exponents for {self.ring.nvars} variables")
        return exps

    def coefficient(self, exps: Exponents) -> Fraction:
        return Fraction(self._num.get(self._check_arity(exps), 0), self._den)

    def constant_term(self) -> Fraction:
        return Fraction(self._num.get((0,) * self.ring.nvars, 0), self._den)

    def leading(self, order: MonomialOrder = GREVLEX) -> tuple[Exponents, Fraction]:
        if not self._num:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self._num, key=order.key_for(self.ring.nvars))
        return exps, Fraction(self._num[exps], self._den)

    def sorted_terms(self, order: MonomialOrder = GREVLEX) -> list[tuple[Exponents, Fraction]]:
        terms, key = self.terms, order.key_for(self.ring.nvars)
        return [(e, terms[e]) for e in sorted(terms, key=key, reverse=True)]

    def is_homogeneous(self) -> bool:
        return len(set(map(mono_degree, self._num))) <= 1

    def __iter__(self) -> Iterator[tuple[Exponents, Fraction]]:
        return iter(self.terms.items())

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return None

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other, over the lcm of the two denominators."""
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("incompatible rings")
        if not other._num:
            return self
        a, b = self._den, other._den
        if a == b:
            den, out = a, dict(self._num)
        else:
            den = math.lcm(a, b)
            k = den // a
            out = {e: n * k for e, n in self._num.items()}
            sign *= den // b
        get = out.get
        for e, n in other._num.items():
            new = get(e, 0) + sign * n
            if new:
                out[e] = new
            else:
                del out[e]
        return Polynomial._make(self.ring, out, den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(self.ring, {e: -n for e, n in self._num.items()}, self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._plus(self, -1)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return combination(self.ring, ((1, self, other),))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        c = _as_fraction(scalar)
        if c == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self.scale(Fraction(1, 1) / c)

    def scale(self, scalar: Scalar) -> "Polynomial":
        return self.mul_monomial((0,) * self.ring.nvars, scalar)

    def mul_monomial(self, exps: Exponents, coeff: Scalar = 1) -> "Polynomial":
        exps = self._check_arity(exps)
        c = _as_fraction(coeff)
        if not c:
            return self.ring.zero()
        k, mul = c.numerator, monomial_ops(self.ring.nvars).mul
        return Polynomial._make(
            self.ring,
            {mul(e, exps): n * k for e, n in self._num.items()},
            self._den * c.denominator,
        )

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        return PowerTable([self]).power((exponent,))

    # -- calculus and substitution -----------------------------------------

    def partial_derivative(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to variable ``index`` (0-based)."""
        if not 0 <= index < self.ring.nvars:
            raise IndexError(f"variable index {index} out of range")
        out: dict[Exponents, int] = {}
        for exps, n in self._num.items():
            e = exps[index]
            if e == 0:
                continue
            lowered = exps[:index] + (e - 1,) + exps[index + 1 :]
            out[lowered] = n * e  # lowering is injective: no two terms meet
        return Polynomial._make(self.ring, out, self._den)

    def substitute(self, values: Sequence["Polynomial"]) -> "Polynomial":
        """Compose: evaluate this polynomial at the given value polynomials.

        All values must share one ring, which becomes the result's ring; the
        substitution is a ring homomorphism, summed as c * v^e over the terms
        from a :class:`PowerTable` made for the call.
        """
        if len(values) != self.ring.nvars:
            raise ValueError(
                f"arity mismatch: {self.ring.nvars} variables, {len(values)} values"
            )
        if not values:
            raise ValueError("substitution needs a target ring; got no values")
        return PowerTable(values).substitute(self)

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Evaluate at a rational point."""
        if len(point) != self.ring.nvars:
            raise ValueError("arity mismatch")
        point = [_as_fraction(v) for v in point]
        total = Fraction(0)
        for exps, n in self._num.items():
            value = Fraction(n)
            for base, e in zip(point, exps):
                if e:
                    value *= base**e
            total += value
        return total / self._den

    # -- normalization -------------------------------------------------------

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        if not self._num:
            return self
        _, lc = self.leading(order)
        return self.scale(Fraction(1, 1) / lc)

    def primitive(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        """Rescale to integer coefficients with content 1 and positive leading
        coefficient."""
        return make_primitive([self], order)[0]

    # -- printing ------------------------------------------------------------

    def _format_monomial(self, exps: Exponents) -> str:
        parts = []
        for name, e in zip(self.ring.names, exps):
            if e == 0:
                continue
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self._num:
            return "0"
        pieces: list[str] = []
        for exps, coeff in self.sorted_terms(GREVLEX):
            mono = self._format_monomial(exps)
            mag = abs(coeff)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)


def make_primitive(
    polys: Sequence[Polynomial], order: MonomialOrder = GREVLEX
) -> list[Polynomial]:
    """Rescale a sequence of polynomials by one common factor to integer
    coefficients with content 1, making the leading coefficient of the first
    nonzero polynomial positive.  An all-zero sequence is returned as is."""
    first = next((p for p in polys if p._num), None)
    if first is None:
        return list(polys)
    den = math.lcm(*(p._den for p in polys))
    content = math.gcd(*(n * (den // p._den) for p in polys for n in p._num.values()))
    if first._num[max(first._num, key=order.key_for(first.ring.nvars))] < 0:
        content = -content
    return [
        Polynomial._make(p.ring, {e: n * (den // p._den) // content for e, n in p._num.items()}, 1)
        for p in polys
    ]


def combination(
    ring: PolyRing, products: Iterable[tuple[int, Polynomial, Polynomial]]
) -> Polynomial:
    """The sum of ``sign * a * b`` over the (sign, a, b) products, all of
    ``ring``: every term product is added into one numerator table, over a
    denominator that grows to the lcm of the products' denominators, and
    the result is brought to lowest terms once.  The product of two
    polynomials is the case of one product."""
    den = 1
    acc: dict[Exponents, int] = {}
    get, mul = acc.get, monomial_ops(ring.nvars).mul
    for sign, a, b in products:
        if (a.ring is not ring and a.ring != ring) or (b.ring is not ring and b.ring != ring):
            raise ValueError("incompatible rings")
        if not a._num or not b._num:
            continue
        d = a._den * b._den
        if den % d:
            lcm = math.lcm(den, d)
            k = lcm // den
            for e in acc:
                acc[e] *= k
            den = lcm
        factor = sign * (den // d)
        right = b._num.items()
        for e1, n1 in a._num.items():
            n1 *= factor
            for e2, n2 in right:
                exps = mul(e1, e2)
                acc[exps] = get(exps, 0) + n1 * n2
    return Polynomial._make(ring, {e: n for e, n in acc.items() if n}, den)


Piece = tuple[Iterable[tuple[Exponents, int]], int, int]


def _sum_pieces(ring: PolyRing, pieces: Iterable[Piece]) -> Polynomial:
    """The sum of ``factor * sum(n * x^e for e, n in numerators) / den``
    over the (numerators, den, factor) pieces, over a denominator that
    grows to the lcm of theirs.  The pieces are read once, in order, so a
    generator can make each one only when it is added."""
    den = 1
    acc: dict[Exponents, int] = {}
    get = acc.get
    for numerators, d, factor in pieces:
        if den % d:
            lcm = math.lcm(den, d)
            k = lcm // den
            for e in acc:
                acc[e] *= k
            den = lcm
        factor *= den // d
        for e, n in numerators:
            acc[e] = get(e, 0) + factor * n
    return Polynomial._make(ring, {e: n for e, n in acc.items() if n}, den)


class PowerTable(dict):
    """The substitution x -> (v_1, ..., v_m) as a table from exponents e to
    v^e, read by :func:`_tabled_sum` with :meth:`power` as its fill.  The
    entry for e is made once, as the entry for e - e_i times v_i (i the
    last nonzero exponent), through :func:`combination`."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[Polynomial]):
        ring = values[0].ring
        if any(v.ring != ring for v in values):
            raise ValueError("incompatible rings among substitution values")
        super().__init__({(0,) * len(values): ring.one()})
        self.values = tuple(values)

    def substitute(self, p: Polynomial) -> Polynomial:
        """p at the values: the sum of c * v^e over the terms c * x^e of p."""
        return _tabled_sum(self.values[0].ring, [(1, p, self, self.power)])

    def power(self, exps: Exponents) -> Polynomial:
        """v^exps, with every missing entry below it made and kept."""
        missing = []
        ops = monomial_ops(len(exps))
        div, units = ops.div, ops.units
        found = self.get(exps)
        while found is None:
            i = len(exps) - 1
            while not exps[i]:
                i -= 1
            missing.append((exps, i))
            exps = div(exps, units[i])
            found = self.get(exps)
        for exps, i in reversed(missing):
            v = self.values[i]
            found = self[exps] = combination(v.ring, ((1, found, v),))
        return found


def _tabled_sum(ring: PolyRing, items) -> Polynomial:
    """The sum of ``factor * L(p)`` over the (factor, p, table, fill)
    items, L linear into ``ring`` and ``factor`` an int or ``Fraction``:
    ``table`` holds L(x^e) by exponents e, and ``fill(e)`` makes an entry
    when e is first met."""
    pieces = []
    for factor, p, table, fill in items:
        k, den = factor.numerator, factor.denominator * p._den
        for exps, n in p._num.items():
            image = table.get(exps)
            if image is None:
                image = table[exps] = fill(exps)
            pieces.append((image._num.items(), image._den * den, k * n))
    return _sum_pieces(ring, pieces)


# ---------------------------------------------------------------------------
# text grammar:  terms joined by + / -, each an optional rational coefficient
# and *-separated powers, e.g.  2*x1^2*x2 - 1/3*x2^3
# ---------------------------------------------------------------------------

_RATIONAL_RE = re.compile(r"^\d+(/\d+)?$")
_POWER_RE = re.compile(r"^([A-Za-z_]\w*?)(?:\^(\d+))?$")


def json_integer(value, name: str) -> int:
    """An integer field of a JSON document; no float, boolean or string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse the polynomial text grammar into a polynomial of ``ring``.

    Raises ValueError with a descriptive message on any malformed input.
    """
    if not isinstance(text, str):
        raise ValueError(f"polynomial text must be a string, got {type(text).__name__}")
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty polynomial text")
    if stripped == "0":
        return ring.zero()
    chunks = re.findall(r"[+-]?[^+-]+", stripped)
    if "".join(chunks).replace(" ", "") != stripped.replace(" ", ""):
        raise ValueError(f"cannot parse polynomial text {text!r}")
    result = ring.zero()
    index = {name: i for i, name in enumerate(ring.names)}
    for chunk in chunks:
        chunk = chunk.strip()
        sign = Fraction(1)
        if chunk.startswith("+"):
            chunk = chunk[1:].strip()
        elif chunk.startswith("-"):
            sign = Fraction(-1)
            chunk = chunk[1:].strip()
        if not chunk:
            raise ValueError(f"dangling sign in polynomial text {text!r}")
        coeff = sign
        exps = [0] * ring.nvars
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {chunk!r}")
            if _RATIONAL_RE.match(factor):
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in coefficient {factor!r}") from None
                continue
            m = _POWER_RE.match(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r}")
            name, power = m.group(1), int(m.group(2) or 1)
            if name not in index:
                raise ValueError(f"unknown variable {name!r} (ring has {ring.names})")
            exps[index[name]] += power
        result = result + ring.monomial(exps, coeff)
    return result


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form (terms in descending grevlex order)."""
    return str(p)


# ---------------------------------------------------------------------------
# ring surgery used by elimination: move polynomials between a ring and a
# combined alphabet in which the ring's block sits at a given offset
# ---------------------------------------------------------------------------

def embed(p: Polynomial, combined: PolyRing, offset: int) -> Polynomial:
    """Reinterpret ``p`` inside ``combined``, its variables starting at ``offset``."""
    n = p.ring.nvars
    if combined.names[offset : offset + n] != p.ring.names:
        raise ValueError("combined ring does not contain this alphabet at offset")
    pad_left = (0,) * offset
    pad_right = (0,) * (combined.nvars - offset - n)
    return Polynomial._make(
        combined, {pad_left + e + pad_right: c for e, c in p._num.items()}, p._den
    )


def restrict(p: Polynomial, target: PolyRing, offset: int) -> Polynomial:
    """Inverse of :func:`embed`; fails if ``p`` uses variables outside the block."""
    n = target.nvars
    if p.ring.names[offset : offset + n] != target.names:
        raise ValueError("target alphabet not found at offset")
    out: dict[Exponents, int] = {}
    for exps, c in p._num.items():
        if any(exps[: offset]) or any(exps[offset + n :]):
            raise ValueError("polynomial uses variables outside the kept block")
        out[exps[offset : offset + n]] = c
    return Polynomial._make(target, out, p._den)
