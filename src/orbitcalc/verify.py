"""Golden verification suite for the canonical reflection example.

The running example everywhere in this package: the two-element group
generated by the point reflection -Id on the plane.  Its invariant ring is
generated by q1 = x1^2, q2 = x2^2, q3 = x1*x2 with the single relation
q3^2 = q1*q2, the invariant fields are generated by x1*d1, x2*d1, x1*d2,
x2*d2, and the rotational 1-form x1 dx2 - x2 dx1 is invariant (hence pushes
to the orbit space) yet extends to no polynomial 1-form in the orbit
coordinates — the package exists to make computations like these exact and
checkable, and this module freezes all of them as named pass/fail checks.

Every expected value below was verified by an independent oracle (direct
contraction, substitution, or brute-force linear algebra) before freezing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Polynomial, PolyRing, combination, parse_polynomial
from .groebner import SubmoduleProblem, buchberger, module_solve
from .group_action import PolyDiffForm, PolyVectorField, closure
from .exterior import d, evaluate, poincare_primitive, vector_field_bracket
from .invariants import (
    EquivariantModule,
    HilbertMap,
    equivariant_generators,
    invariant_combination,
    invariant_generators,
    relations,
    subduct,
)
from .quotient import (
    OrbitSpace,
    extend_check,
    lift_vf,
    orbit_bracket,
    orbit_d,
    pull_form,
    push_form,
    push_vf,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def reflection_group():
    return closure([[["-1", "0"], ["0", "-1"]]])


def reflection_context() -> OrbitSpace:
    """The canonical context with the classical presentation: generators
    (x1^2, x2^2, x1*x2) in that order and the four bilinear fields."""
    group = reflection_group()
    ring = PolyRing.ambient(2)
    x1, x2 = ring.variables()
    hilbert = HilbertMap.from_polynomials(group, (x1 * x1, x2 * x2, x1 * x2))
    zero = ring.zero()
    fields = (
        PolyVectorField(ring, (x1, zero)),
        PolyVectorField(ring, (x2, zero)),
        PolyVectorField(ring, (zero, x1)),
        PolyVectorField(ring, (zero, x2)),
    )
    module = EquivariantModule.from_fields(group, fields)
    return OrbitSpace(hilbert, module=module)


def canonical_one_forms(ring: PolyRing) -> list[PolyDiffForm]:
    """The four invariant 1-forms: d(x1^2), d(x2^2), d(x1*x2), and the
    rotational form x1 dx2 - x2 dx1."""
    x1, x2 = ring.variables()
    return [
        PolyDiffForm(ring, 1, [((0,), x1.scale(2))]),
        PolyDiffForm(ring, 1, [((1,), x2.scale(2))]),
        PolyDiffForm(ring, 1, [((0,), x2), ((1,), x1)]),
        PolyDiffForm(ring, 1, [((0,), -x2), ((1,), x1)]),
    ]


def _y(space: OrbitSpace, text: str) -> Polynomial:
    return parse_polynomial(text, space.orbit_ring)


def run_golden_checks(seed: int = 0) -> list[CheckResult]:
    """Run every frozen check; deterministic for a fixed seed."""
    results: list[CheckResult] = []
    space = reflection_context()
    hilbert = space.hilbert
    group = hilbert.group
    ring = hilbert.ring
    x1, x2 = ring.variables()

    def check(name: str, passed: bool, detail: str):
        results.append(CheckResult(name, bool(passed), detail))

    # 1. invariant ring generators agree with the automatic computation
    auto = invariant_generators(group)
    both_ways = True
    try:
        for s in auto.sigma:
            subduct(s, hilbert)
        for s in hilbert.sigma:
            subduct(s, auto)
    except ValueError:
        both_ways = False
    check(
        "invariant ring generators",
        both_ways,
        "automatic generators and (x1^2, x2^2, x1*x2) rewrite through each other; "
        f"the automatic ones are certified complete at degree {auto.certificate}",
    )

    # 2. relation ideal
    ideal = space.ideal
    expected_relation = buchberger(
        [_y(space, "y3^2 - y1*y2")], ideal.basis.order
    )
    check(
        "relation ideal",
        ideal.basis.generators == expected_relation.generators,
        f"reduced basis {[str(g) for g in ideal.basis.generators]} "
        "equals that of y3^2 - y1*y2",
    )

    # 3. invariant field module agrees with the automatic computation
    auto_fields = equivariant_generators(group)
    mutual = all(
        invariant_combination(X, auto_fields, group) is not None
        for X in space.module.generators
    ) and all(
        invariant_combination(X, space.module, group) is not None
        for X in auto_fields.generators
    )
    check(
        "invariant field module",
        mutual,
        "automatic generators and (x1 d1, x2 d1, x1 d2, x2 d2) "
        "are mutually contained; the automatic ones are certified complete "
        f"at degree {auto_fields.certificate}",
    )

    # 4. pushforward table: twelve derivatives and the four pushed fields
    expected_rows = [
        ("2*y1", "0", "y3"),
        ("2*y3", "0", "y2"),
        ("0", "2*y3", "y1"),
        ("0", "2*y2", "y3"),
    ]
    table_ok = True
    pushed = space.pushed_generators
    for X, row in zip(space.module.generators, expected_rows):
        for j, s in enumerate(hilbert.sigma):
            derived = subduct(X.apply(s), hilbert)
            if derived != _y(space, row[j]):
                table_ok = False
    for Y, row in zip(pushed, expected_rows):
        if tuple(str(c) for c in Y.components) != row:
            table_ok = False
    check(
        "pushforward table",
        table_ok,
        "all twelve rewritten derivatives and the four pushed fields match",
    )

    # 5. the first three pushed 1-forms are the coordinate differentials
    forms = canonical_one_forms(ring)
    theta = [push_form(w, space) for w in forms]
    diff_ok = True
    for j in range(3):
        for i in range(4):
            want = pushed[i].components[j]
            if theta[j].value((i,)) != want:
                diff_ok = False
    check(
        "pushed coordinate differentials",
        diff_ok,
        "pushed d(x1^2), d(x2^2), d(x1*x2) pair with the fields as the "
        "coordinate derivations",
    )

    # 6. the rotational form's value table equals the contraction oracle
    oracle = tuple(
        subduct(evaluate(forms[3], [space.module.generators[i]]), hilbert)
        for i in range(4)
    )
    frozen = tuple(_y(space, t) for t in ("-y3", "-y2", "y1", "y3"))
    got = tuple(theta[3].value((i,)).rep for i in range(4))
    check(
        "rotational form value table",
        got == oracle == frozen,
        "values (-y3, -y2, y1, y3) by direct contraction; a commonly "
        "transcribed variant transposes the middle pair and flips the last "
        "sign, which fails the syzygy-compatibility test this table passes",
    )

    # 7. extension decisions
    ext_ok = True
    details = []
    for j in range(3):
        res = extend_check(theta[j])
        unit = [space.orbit_ring.zero()] * 3
        unit[j] = space.orbit_ring.one()
        unit_valid = all(
            space.ideal.is_member(
                sum(
                    (w * pushed[i].components[jj].rep for jj, w in enumerate(unit)),
                    space.orbit_ring.zero(),
                )
                - theta[j].value((i,)).rep
            )
            for i in range(4)
        )
        ext_ok = ext_ok and res.extendable and unit_valid
        details.append(f"form {j + 1}: extendable")
    res4 = extend_check(theta[3])
    ext_ok = ext_ok and not res4.extendable and res4.certificate is not None
    details.append("rotational form: not extendable")
    check("extension decisions", ext_ok, "; ".join(details))

    # 8. derivative and primitive
    two_vol = PolyDiffForm(ring, 2, [((0, 1), ring.constant(2))])
    d4 = d(forms[3])
    dtheta4 = orbit_d(theta[3])
    primitive = poincare_primitive(two_vol)
    check(
        "derivative and primitive",
        d4 == two_vol
        and not dtheta4.is_zero()
        and d(primitive) == two_vol
        and primitive == forms[3],
        "d of the rotational form is 2 dx1^dx2; its pushforward has nonzero "
        "orbit derivative; the homotopy operator inverts d exactly",
    )

    # 9. lift round trips (named fields plus seeded random tangent fields)
    rng = random.Random(seed)
    lift_ok = True
    for Y in pushed:
        if push_vf(lift_vf(Y, space), space) != Y:
            lift_ok = False
    for _ in range(20):
        Z = space.field([space.orbit_ring.zero()] * 3)
        for Y in pushed:
            coeff = _random_poly(rng, space.orbit_ring, max_degree=2)
            Z = Z + (Y * space.function(coeff))
        if push_vf(lift_vf(Z, space), space) != Z:
            lift_ok = False
    check(
        "lift round trips",
        lift_ok,
        "pushforward of the lift returns the input on the four pushed "
        "fields and 20 seeded random module combinations",
    )

    # 10. form round trips
    form_ok = all(push_form(pull_form(t, space), space) == t for t in theta)
    check(
        "form round trips",
        form_ok,
        "push of pull returns the input on all four pushed 1-forms",
    )

    # 11. brackets
    b12 = orbit_bracket(pushed[0], pushed[1])
    upstairs = push_vf(
        vector_field_bracket(space.module.generators[0], space.module.generators[1]),
        space,
    )
    jacobi = _jacobi(pushed[0], pushed[1], pushed[2])
    check(
        "orbit bracket",
        b12 == -pushed[1] and b12 == upstairs and jacobi.is_zero()
        and orbit_bracket(pushed[0], pushed[0]).is_zero(),
        "[Y1, Y2] = -Y2 agrees with the lifted bracket; Jacobi and "
        "antisymmetry hold",
    )

    # 12. generator relations
    expected_rows = [
        ("y3", "-y1", "0", "0"),
        ("y2", "-y3", "0", "0"),
        ("0", "0", "y3", "-y1"),
        ("0", "0", "y2", "-y3"),
    ]
    columns = [tuple(c.rep for c in Y.components) for Y in pushed]
    syz_ok = True
    for row in expected_rows:
        parsed = [_y(space, t) for t in row]
        for comp in range(3):
            acc = combination(space.orbit_ring, [(1, c, col[comp]) for c, col in zip(parsed, columns)])
            if not space.ideal.is_member(acc):
                syz_ok = False
    span = SubmoduleProblem(
        ambient_rank=4,
        columns=tuple(tuple(r) for r in space.generator_syzygies),
        ideal=space.ideal.basis,
    )
    for row in expected_rows:
        parsed = [_y(space, t) for t in row]
        if not module_solve(parsed, span).member:
            syz_ok = False
    check(
        "generator relations",
        syz_ok,
        "the four expected relation rows hold and lie in the span of the "
        "computed generating set",
    )

    return results


def _random_poly(rng: random.Random, ring: PolyRing, max_degree: int) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ring.nvars)] += 1
        coeff = Fraction(rng.randint(-4, 4))
        if coeff:
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + coeff
    return Polynomial(ring, {e: c for e, c in terms.items() if c})


def _jacobi(a, b, c):
    return (
        orbit_bracket(orbit_bracket(a, b), c)
        + orbit_bracket(orbit_bracket(b, c), a)
        + orbit_bracket(orbit_bracket(c, a), b)
    )


def format_report(results: list[CheckResult]) -> tuple[str, bool]:
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} — {r.name}: {r.detail}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"golden suite: {passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n", passed == len(results)

