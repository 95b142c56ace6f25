"""Workloads of the orbitcalc benchmark: seeded inputs, the fixed task list
of one pass, and an exact check of every task's output.

A workload object is built from a seed; building it is the set-up.  Library
calls go through the ``orbitcalc`` package attributes at call time, so the
tracer's wrappers also see the calls the benchmark makes itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from typing import Any, Callable

import orbitcalc as oc
from orbitcalc import verify
from orbitcalc.algebra import PolyRing


class CheckFailed(Exception):
    """An output failed its exact identity."""


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Task:
    """One closed-loop call.  ``run`` is timed; ``lines`` (the output's
    canonical text) and ``verify`` (exact identities, raising
    :class:`CheckFailed`) are not."""

    kind: str
    run: Callable[[], Any]
    lines: Callable[[Any], list]
    verify: Callable[[Any], None] | None = None


# ---------------------------------------------------------------------------
# group ladders
# ---------------------------------------------------------------------------

# (rung, generator matrices).  Rungs that take minutes at the first
# benchmarked commit are left out; NOTES.md lists them.
PRESENTATION_LADDER = (
    ("z2_r2", ([[-1, 0], [0, -1]],)),
    ("z4_r2", ([[0, -1], [1, 0]],)),
    ("b2_r2", ([[0, 1], [1, 0]], [[-1, 0], [0, 1]])),
    ("d3_r2", ([[0, -1], [1, -1]], [[0, 1], [1, 0]])),
    ("z2z2_r3", ([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], [[1, 0, 0], [0, -1, 0], [0, 0, -1]])),
)

ELIMINATION_LADDER = (
    ("z2_r3", ([[-1, 0, 0], [0, -1, 0], [0, 0, -1]],)),
    ("z3_r3", ([[0, 0, 1], [1, 0, 0], [0, 1, 0]],)),
    ("z6_r2", ([[1, -1], [1, 0]],)),
)


def signed_permutation(n: int, rng: random.Random) -> list[list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]


def conjugate(gens, p: list[list[int]]) -> list[list[list[str]]]:
    """P g P^-1 for each generator g.  P is a signed permutation, so its
    inverse is its transpose and the terms stay as sparse as in g."""
    n = len(p)
    out = []
    for g in gens:
        pg = [[sum(p[i][k] * g[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        pgp = [[sum(pg[i][k] * p[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
        out.append([[str(v) for v in row] for row in pgp])
    return out


def seeded_ladder(ladder, seed: int):
    rng = random.Random(f"ladder-{seed}")
    return [(name, conjugate(gens, signed_permutation(len(gens[0]), rng))) for name, gens in ladder]


def stages(tracer, rung: str):
    """Runs one stage of a rung, as a span when a tracer is active."""

    def stage(name: str, fn, *args):
        if tracer is None:
            return fn(*args)
        with tracer.span(f"stage.{rung}.{name}.s"):
            return fn(*args)

    return stage


def elimination_chain(gens, stage):
    group = stage("closure", oc.closure, gens)
    hilbert = stage("invariant_generators", oc.invariant_generators, group)
    ideal = stage("relations", oc.relations, hilbert)
    return hilbert, ideal


def _presentation_chain(gens, stage):
    hilbert, ideal = elimination_chain(gens, stage)
    module = stage("equivariant_generators", oc.equivariant_generators, hilbert.group)
    space = oc.OrbitSpace(hilbert, ideal=ideal, module=module)
    stage("pushed_generators", lambda: space.pushed_generators)
    stage("generator_syzygies", lambda: space.generator_syzygies)
    return space


def _invariants_lines(output) -> list[str]:
    hilbert, ideal = output
    return [f"sigma {s}" for s in hilbert.sigma] + [f"relation {g}" for g in ideal.basis.generators]


def _verify_invariants(output):
    hilbert, ideal = output
    for s in hilbert.sigma:
        _require(oc.reynolds(s, hilbert.group) == s, f"generator {s} is not fixed by reynolds")
    for g in ideal.basis.generators:
        _require(hilbert.substitute_into(g).is_zero(), f"relation {g} does not vanish")


def space_lines(space) -> list[str]:
    return (
        _invariants_lines((space.hilbert, space.ideal))
        + [f"field {X}" for X in space.module.generators]
        + [f"pushed {Y}" for Y in space.pushed_generators]
        + ["syzygy " + ", ".join(map(str, syz)) for syz in space.generator_syzygies]
    )


def verify_space(space):
    """Exact identities on a built space."""
    hilbert, group = space.hilbert, space.hilbert.group
    _verify_invariants((hilbert, space.ideal))
    pushed = space.pushed_generators
    for X, Y in zip(space.module.generators, pushed):
        _require(oc.reynolds(X, group) == X, f"field {X} is not invariant")
        for s, c in zip(hilbert.sigma, Y.components):
            _require(hilbert.substitute_into(c.rep) == X.apply(s), f"pushed field {Y} does not rewrite {X}({s})")
    for syz in space.generator_syzygies:
        for r in range(space.orbit_ring.nvars):
            acc = space.orbit_ring.zero()
            for c, Y in zip(syz, pushed):
                acc = acc + c * Y.components[r].rep
            _require(space.ideal.is_member(acc), f"syzygy {syz} fails in row {r}")


# The automatic presentation of the reflection rung as the README prints it.
# The rung is -Id, which every conjugation fixes.
Z2_R2_SIGMA = ["x1^2", "x1*x2", "x2^2"]
Z2_R2_RELATIONS = ["y2^2 - y1*y3"]
Z2_R2_FIELDS = {"(x1)*d/dx1", "(x2)*d/dx1", "(x1)*d/dx2", "(x2)*d/dx2"}


def _verify_presentation(rung: str, space):
    verify_space(space)
    if rung == "z2_r2":
        _require([str(s) for s in space.hilbert.sigma] == Z2_R2_SIGMA, "z2_r2 generators differ from the README")
        _require(
            [str(g) for g in space.ideal.basis.generators] == Z2_R2_RELATIONS, "z2_r2 relations differ from the README"
        )
        _require({str(X) for X in space.module.generators} == Z2_R2_FIELDS, "z2_r2 fields are not the bilinear ones")


def _verify_elimination(rung: str, output):
    _verify_invariants(output)
    hilbert, ideal = output
    if rung == "z2_r3":
        _require(
            len(hilbert.sigma) == 6 and all(s.degree() == 2 for s in hilbert.sigma), "z2_r3 needs six quadrics"
        )
        _require(len(ideal.basis) == 6, "z2_r3 needs six relations")


class _LadderWorkload:
    """One task per rung of a seeded ladder; nothing to set up beyond the
    conjugation."""

    def __init__(self, seed: int):
        self.rungs = seeded_ladder(self.ladder, seed)

    def check_setup(self) -> list[str]:
        return []

    def tasks(self, tracer=None) -> list[Task]:
        return [
            Task(rung, partial(self.chain, gens, stages(tracer, rung)), self.lines, partial(self.verify, rung))
            for rung, gens in self.rungs
        ]


class Presentation(_LadderWorkload):
    """Cold build of an orbit-space presentation."""

    name = "presentation"
    ladder = PRESENTATION_LADDER
    chain = staticmethod(_presentation_chain)
    lines = staticmethod(space_lines)
    verify = staticmethod(_verify_presentation)


class Elimination(_LadderWorkload):
    """Invariant generators and their relation ideal."""

    name = "elimination"
    ladder = ELIMINATION_LADDER
    chain = staticmethod(elimination_chain)
    lines = staticmethod(_invariants_lines)
    verify = staticmethod(_verify_elimination)


# ---------------------------------------------------------------------------
# calculus: orbit operations on two built spaces
# ---------------------------------------------------------------------------

# Pushed generator table of the golden reflection space (acceptance
# criterion 4).
GOLDEN_PUSHED = [
    ("2*y1", "0", "y3"),
    ("2*y3", "0", "y2"),
    ("0", "2*y3", "y1"),
    ("0", "2*y2", "y3"),
]

# Distinct operand rounds per space; the timed phase cycles through them.
CALCULUS_ROUNDS = 4


def build_calculus_spaces() -> dict:
    """The golden Z2/R^2 space and the automatic Z4/R^2 space, caches filled."""
    spaces = {
        "z2": verify.reflection_context(),
        "z4": oc.OrbitSpace(oc.invariant_generators(oc.closure([[["0", "-1"], ["1", "0"]]]))),
    }
    for space in spaces.values():
        space.generator_syzygies  # fills pushed_generators on the way
    return spaces


def _generic_poly(rng: random.Random, ring: PolyRing, degrees):
    """Every monomial of the given degrees with a random nonzero coefficient:
    the support is fixed, so the cost barely depends on the seed."""
    total = ring.zero()
    for degree in degrees:
        for combo in combinations_with_replacement(range(ring.nvars), degree):
            exps = [0] * ring.nvars
            for i in combo:
                exps[i] += 1
            total = total + ring.monomial(exps, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)))
    return total


class _Operands:
    """Operands of one round on one space: Reynolds averages of a random
    field and two random 1-forms (odd coefficient degrees 1 and 3), a
    random tangent orbit field (affine coefficients on the pushed
    generators), a pushed 1-form and a random orbit function of degree 2."""

    def __init__(self, space, rng: random.Random):
        ring, group, orbit = space.hilbert.ring, space.hilbert.group, space.orbit_ring
        self.space = space
        self.field = oc.reynolds(
            oc.PolyVectorField(ring, [_generic_poly(rng, ring, (1, 3)) for _ in range(ring.nvars)]), group
        )
        pushed = space.pushed_generators
        tangent = pushed[0] * space.function(_generic_poly(rng, orbit, (0, 1)))
        for Y in pushed[1:]:
            tangent = tangent + Y * space.function(_generic_poly(rng, orbit, (0, 1)))
        self.tangent = tangent
        self.form, other = (
            oc.reynolds(oc.PolyDiffForm(ring, 1, [((i,), _generic_poly(rng, ring, (1, 3))) for i in range(ring.nvars)]), group)
            for _ in range(2)
        )
        self.other = oc.push_form(other, space)
        self.function = space.function(_generic_poly(rng, orbit, (1, 2)))


def _round_tasks(tag: str, ops: _Operands) -> list[Task]:
    """The nine operations of one round, chained: push_vf feeds the bracket,
    the bracket feeds the lift, the pushed form feeds the four form ops."""
    space = ops.space
    out: dict = {}

    def keep(key, value):
        out[key] = value
        return value

    def lines(name):
        return lambda value: [f"{tag} {name} {value}"]

    def extend_lines(result):
        # the witness is verified inside extend_check; the answer is recorded
        return [f"{tag} extend_check {result.extendable} {result.witness or result.certificate}"]

    def verify_bracket(B):
        _require(oc.orbit_bracket(ops.tangent, out["Y"]) == -B, "orbit_bracket is not antisymmetric")

    def verify_d_function(df):
        _require(oc.orbit_d(df).is_zero(), "orbit_d(orbit_d(f)) is not zero")

    return [
        Task(f"push_vf@{tag}", lambda: keep("Y", oc.push_vf(ops.field, space)), lines("push_vf")),
        Task(
            f"orbit_bracket@{tag}",
            lambda: keep("B", oc.orbit_bracket(out["Y"], ops.tangent)),
            lines("orbit_bracket"),
            verify_bracket,
        ),
        Task(f"lift_vf@{tag}", lambda: oc.lift_vf(out["B"], space), lines("lift_vf")),
        Task(f"push_form@{tag}", lambda: keep("theta", oc.push_form(ops.form, space)), lines("push_form")),
        Task(f"extend_check@{tag}", lambda: oc.extend_check(out["theta"]), extend_lines),
        Task(f"pull_form@{tag}", lambda: oc.pull_form(out["theta"], space), lines("pull_form")),
        Task(f"orbit_d_form@{tag}", lambda: oc.orbit_d(out["theta"]), lines("orbit_d_form")),
        Task(f"orbit_wedge@{tag}", lambda: oc.orbit_wedge(out["theta"], ops.other), lines("orbit_wedge")),
        Task(
            f"orbit_d_function@{tag}", lambda: oc.orbit_d(ops.function), lines("orbit_d_function"), verify_d_function
        ),
    ]


class Calculus:
    """Orbit operations on two spaces built in the set-up."""

    name = "calculus"

    def __init__(self, seed: int):
        self.spaces = build_calculus_spaces()
        self.operands = [
            (tag, _Operands(space, random.Random(f"calculus-{seed}-{r}-{tag}")))
            for r in range(CALCULUS_ROUNDS)
            for tag, space in self.spaces.items()
        ]

    def check_setup(self) -> list[str]:
        golden = self.spaces["z2"]
        table = [tuple(str(c) for c in Y.components) for Y in golden.pushed_generators]
        _require(table == GOLDEN_PUSHED, "golden pushed generators differ from acceptance criterion 4")
        for space in self.spaces.values():
            verify_space(space)
        return [f"{tag} {line}" for tag, space in self.spaces.items() for line in space_lines(space)]

    def tasks(self, tracer=None) -> list[Task]:
        return [task for tag, ops in self.operands for task in _round_tasks(tag, ops)]


WORKLOADS = {cls.name: cls for cls in (Presentation, Elimination, Calculus)}
