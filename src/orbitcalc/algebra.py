"""Exact multivariate polynomial arithmetic over arbitrary-precision rationals.

Polynomials are sparse maps from exponent tuples to ``fractions.Fraction``
coefficients in lowest terms, attached to an immutable ring that fixes the
variable alphabet.  Each polynomial also has an integer form: its terms
scaled to integer numerators by the lcm of their denominators, with that
lcm.  It is computed on first use and cached, since polynomials are
immutable.  A product is formed over the factors' integer forms: the term
products are summed as Python ints, and one normalised ``Fraction`` is made
per output term.  Division (:func:`.groebner.divide`) reads its divisors'
integer forms in the same way.
Three monomial orders are provided (graded reverse lexicographic,
lexicographic, and a two-block elimination order); grevlex with the first
variable most significant is the default used for canonical printing.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, sub
from typing import Iterable, Iterator, Mapping, Sequence, Union

Exponents = tuple[int, ...]
Scalar = Union[int, Fraction]


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact rational coefficient required, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# monomials (bare exponent tuples)
# ---------------------------------------------------------------------------

def mono_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def mono_divides(a: Exponents, b: Exponents) -> bool:
    """True if the monomial with exponents ``a`` divides the one with ``b``."""
    return all(map(le, a, b))


def mono_div(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(sub, a, b))


def mono_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


def mono_degree(a: Exponents) -> int:
    return sum(a)


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

class MonomialOrder:
    """Total, multiplicative well-order on exponent tuples.

    Subclasses provide :meth:`key`; larger key means larger monomial, so the
    leading monomial of a polynomial is ``max(terms, key=order.key)``.
    """

    name = "order"

    def key(self, exps: Exponents):
        raise NotImplementedError

    def greater(self, a: Exponents, b: Exponents) -> bool:
        return self.key(a) > self.key(b)

    def sort_terms(self, exps_iter: Iterable[Exponents]) -> list[Exponents]:
        """Exponent tuples in descending order (leading monomial first)."""
        return sorted(exps_iter, key=self.key, reverse=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.name}>"


class GrevlexOrder(MonomialOrder):
    """Graded reverse lexicographic order, first variable most significant."""

    name = "grevlex"

    def key(self, exps: Exponents):
        return (sum(exps), tuple(-e for e in reversed(exps)))


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
        head, tail = exps[: self.block], exps[self.block :]
        return (
            sum(head),
            tuple(-e for e in reversed(head)),
            sum(tail),
            tuple(-e for e in reversed(tail)),
        )


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
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, value: Scalar) -> "Polynomial":
        c = _as_fraction(value)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, index: int) -> "Polynomial":
        """The variable with 0-based ``index`` as a polynomial."""
        if not 0 <= index < self.nvars:
            raise IndexError(f"variable index {index} out of range")
        exps = tuple(1 if j == index else 0 for j in range(self.nvars))
        return Polynomial(self, {exps: Fraction(1)})

    def variables(self) -> list["Polynomial"]:
        return [self.variable(i) for i in range(self.nvars)]

    def monomial(self, exps: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError("bad exponent tuple")
        c = _as_fraction(coeff)
        return Polynomial(self, {exps: c} if c else {})

    def from_terms(self, terms: Mapping[Exponents, Scalar]) -> "Polynomial":
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in terms.items():
            c = _as_fraction(coeff)
            if c:
                out[tuple(exps)] = c
        return Polynomial(self, out)


def _integer_numerators(
    terms: dict[Exponents, Fraction],
) -> tuple[list[tuple[Exponents, int]], int]:
    """The terms scaled to integers by the lcm of their denominators, and
    that lcm."""
    d = 1
    for c in terms.values():
        if d % c.denominator:
            d = math.lcm(d, c.denominator)
    return [(e, c.numerator * (d // c.denominator)) for e, c in terms.items()], d


class Polynomial:
    """Sparse exact-rational polynomial; immutable once constructed."""

    __slots__ = ("ring", "terms", "_hash", "_integers")

    def __init__(self, ring: PolyRing, terms: dict[Exponents, Fraction]):
        self.ring = ring
        self.terms = terms
        self._hash: int | None = None
        self._integers: tuple[list[tuple[Exponents, int]], int] | None = None

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    # -- structure ---------------------------------------------------------

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self.terms:
            return -1
        return max(mono_degree(e) for e in self.terms)

    def coefficient(self, exps: Exponents) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.ring.nvars, Fraction(0))

    def leading(self, order: MonomialOrder = GREVLEX) -> tuple[Exponents, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=order.key)
        return exps, self.terms[exps]

    def sorted_terms(self, order: MonomialOrder = GREVLEX) -> list[tuple[Exponents, Fraction]]:
        return [(e, self.terms[e]) for e in order.sort_terms(self.terms)]

    def is_homogeneous(self) -> bool:
        degs = {mono_degree(e) for e in self.terms}
        return len(degs) <= 1

    def __iter__(self) -> Iterator[tuple[Exponents, Fraction]]:
        return iter(self.terms.items())

    def integer_form(self) -> tuple[list[tuple[Exponents, int]], int]:
        """The terms as integer numerators over the lcm d of their
        denominators, and d: ``self == sum(n * x^e for e, n) / d``.
        Computed once per polynomial and cached."""
        if self._integers is None:
            self._integers = _integer_numerators(self.terms)
        return self._integers

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError("incompatible rings")

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_ring(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            old = out.get(exps)
            new = coeff if old is None else old + coeff
            if new:
                out[exps] = new
            else:
                del out[exps]
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_ring(other)
        if not self.terms or not other.terms:
            return Polynomial(self.ring, {})
        left, d1 = self.integer_form()
        right, d2 = other.integer_form()
        acc: dict[Exponents, int] = {}
        get = acc.get
        for e1, a in left:
            for e2, b in right:
                exps = tuple(map(add, e1, e2))
                acc[exps] = get(exps, 0) + a * b
        d = d1 * d2
        if d == 1:
            return Polynomial(self.ring, {e: Fraction(v) for e, v in acc.items() if v})
        return Polynomial(self.ring, {e: Fraction(v, d) for e, v in acc.items() if v})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        c = _as_fraction(scalar)
        if c == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self.scale(Fraction(1, 1) / c)

    def scale(self, scalar: Scalar) -> "Polynomial":
        c = _as_fraction(scalar)
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, {e: c * v for e, v in self.terms.items()})

    def mul_monomial(self, exps: Exponents, coeff: Scalar = 1) -> "Polynomial":
        c = _as_fraction(coeff)
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, {mono_mul(e, exps): c * v for e, v in self.terms.items()})

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus and substitution -----------------------------------------

    def partial_derivative(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to variable ``index`` (0-based)."""
        if not 0 <= index < self.ring.nvars:
            raise IndexError(f"variable index {index} out of range")
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            lowered = exps[:index] + (e - 1,) + exps[index + 1 :]
            out[lowered] = coeff * e  # lowering is injective: no two terms meet
        return Polynomial(self.ring, out)

    def substitute(self, values: Sequence["Polynomial"]) -> "Polynomial":
        """Compose: evaluate this polynomial at the given value polynomials.

        All values must share one ring, which becomes the result's ring; the
        substitution is a ring homomorphism.
        """
        if len(values) != self.ring.nvars:
            raise ValueError(
                f"arity mismatch: {self.ring.nvars} variables, {len(values)} values"
            )
        if not values:
            raise ValueError("substitution needs a target ring; got no values")
        target = values[0].ring
        for v in values:
            if v.ring != target:
                raise ValueError("incompatible rings among substitution values")
        # cache powers of each value to keep repeated exponents cheap
        powers: list[dict[int, Polynomial]] = [{0: target.one()} for _ in values]
        result = target.zero()
        for exps, coeff in self.terms.items():
            term = target.constant(coeff)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                cache = powers[i]
                if e not in cache:
                    cache[e] = values[i] ** e
                term = term * cache[e]
            result = result + term
        return result

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Evaluate at a rational point."""
        if len(point) != self.ring.nvars:
            raise ValueError("arity mismatch")
        point = [_as_fraction(v) for v in point]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            value = coeff
            for base, e in zip(point, exps):
                if e:
                    value *= base**e
            total += value
        return total

    # -- normalization -------------------------------------------------------

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        if not self.terms:
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
        if not self.terms:
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
    coeffs = [c for p in polys for c in p.terms.values()]
    if not coeffs:
        return list(polys)
    scale = Fraction(
        math.lcm(*(c.denominator for c in coeffs)),
        math.gcd(*(c.numerator for c in coeffs)),
    )
    first = next(p for p in polys if p.terms)
    if first.leading(order)[1] < 0:
        scale = -scale
    return [p.scale(scale) for p in polys]


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
    return Polynomial(
        combined, {pad_left + e + pad_right: c for e, c in p.terms.items()}
    )


def restrict(p: Polynomial, target: PolyRing, offset: int) -> Polynomial:
    """Inverse of :func:`embed`; fails if ``p`` uses variables outside the block."""
    n = target.nvars
    if p.ring.names[offset : offset + n] != target.names:
        raise ValueError("target alphabet not found at offset")
    out: dict[Exponents, Fraction] = {}
    for exps, coeff in p.terms.items():
        if any(exps[: offset]) or any(exps[offset + n :]):
            raise ValueError("polynomial uses variables outside the kept block")
        out[exps[offset : offset + n]] = coeff
    return Polynomial(target, out)
