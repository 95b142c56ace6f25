"""Command-line front end.

A problem file (JSON) fixes the ambient dimension, the group generators, an
optional Lie algebra action, optional degree bounds, and a dictionary of
named ambient objects (vector fields and forms).  Commands dispatch to the
library and print text or JSON.

Exit codes: 0 = success, 1 = a correct negative mathematical answer (not
extendable, not semi-basic, not invariant, not closed, a failed golden
check), 2 = input or usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import Polynomial, PolyRing, json_integer, parse_polynomial
from .group_action import (
    FiniteMatrixGroup,
    LieAlgebraAction,
    PolyVectorField,
    closure,
    format_matrix,
    is_invariant,
    matrix_from_rows,
)
from .exterior import (
    NotClosedError,
    d,
    form_from_json,
    form_to_json,
    poincare_primitive,
    semibasic_check,
    vf_from_json,
    vf_to_json,
)
from .invariants import (
    HilbertMap,
    NotInSubalgebraError,
    equivariant_generators,
    invariant_generators,
    relations,
)
from .quotient import (
    OrbitSpace,
    extend_check,
    lift_vf,
    orbit_bracket,
    orbit_d,
    orbit_form_from_json,
    orbit_form_to_json,
    orbit_vf_components,
    orbit_vf_to_json,
    pull_form,
    push_form,
    push_vf,
)


class InputError(Exception):
    """User-facing problem with the input; maps to exit code 2."""


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

class ProblemFile:
    """Parsed problem description; see the shipped fixtures for the format."""

    def __init__(self, n, group_generators, lie_algebra, degree_bounds, named_objects):
        self.n = n
        self.group_generators = group_generators
        self.lie_algebra = lie_algebra
        self.degree_bounds = degree_bounds
        self.named_objects = named_objects

    @staticmethod
    def from_json(data: dict) -> "ProblemFile":
        if not isinstance(data, dict):
            raise InputError("bad problem file: a problem must be a JSON object")
        try:
            n = json_integer(data["n"], "n")
            gens = [matrix_from_rows(m) for m in data["group_generators"]]
            lie = [matrix_from_rows(m) for m in data.get("lie_algebra", [])]
            bounds = {
                str(k): json_integer(v, f"degree bound {k!r}")
                for k, v in _json_object(data, "degree_bounds").items()
            }
        except (KeyError, ValueError, TypeError) as exc:
            raise InputError(f"bad problem file: {exc}") from exc
        for m in gens + lie:
            if len(m) != n:
                raise InputError("matrix size differs from the declared dimension")
        ring = PolyRing.ambient(n)
        named = {}
        for name, obj in _json_object(data, "named_objects").items():
            try:
                if not isinstance(obj, dict):
                    raise ValueError("not an object")
                if "components" in obj:
                    named[name] = vf_from_json(obj, ring)
                elif "degree" in obj:
                    named[name] = form_from_json(obj, ring)
                else:
                    raise ValueError("neither a vector field nor a form")
            except (KeyError, ValueError, TypeError) as exc:
                raise InputError(f"bad named object {name!r}: {exc}") from exc
        return ProblemFile(n, gens, lie, bounds, named)

    def to_json(self) -> dict:
        named = {}
        for name, obj in self.named_objects.items():
            if isinstance(obj, PolyVectorField):
                named[name] = vf_to_json(obj)
            else:
                named[name] = form_to_json(obj)
        return {
            "n": self.n,
            "group_generators": [format_matrix(m) for m in self.group_generators],
            "lie_algebra": [format_matrix(m) for m in self.lie_algebra],
            "degree_bounds": dict(self.degree_bounds),
            "named_objects": named,
        }


def _json_object(data: dict, key: str) -> dict:
    """The optional object stored under ``key`` (empty when absent)."""
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise InputError(f"bad problem file: {key!r} must be an object")
    return value


def _read_json(path: str):
    """The JSON document in the file at ``path``."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def load_problem(path: str) -> ProblemFile:
    if not path:
        raise InputError("a problem file is required (-i FILE)")
    return ProblemFile.from_json(_read_json(path))


class Context:
    """Lazy assembly of group, invariants, and orbit space for one command.

    ``bound_overrides`` carries the --degree-bound flag, already scoped to
    the bound the invoked command controls; everything else comes from the
    problem file.
    """

    def __init__(self, problem: ProblemFile, cap: int, bound_overrides=None):
        self.problem = problem
        self.cap = cap
        self.bound_overrides = dict(bound_overrides or {})
        self.ring = PolyRing.ambient(problem.n)
        self._group = None
        self._hilbert = None
        self._space = None

    @property
    def group(self) -> FiniteMatrixGroup:
        if self._group is None:
            self._group = closure(self.problem.group_generators, cap=self.cap)
        return self._group

    @property
    def lie_action(self) -> LieAlgebraAction:
        return LieAlgebraAction(
            self.problem.n, tuple(self.problem.lie_algebra)
        )

    def bound(self, key: str) -> int | None:
        if self.bound_overrides.get(key) is not None:
            return self.bound_overrides[key]
        return self.problem.degree_bounds.get(key)

    @property
    def hilbert(self) -> HilbertMap:
        if self._hilbert is None:
            self._hilbert = invariant_generators(self.group, self.bound("invariants"))
        return self._hilbert

    @property
    def space(self) -> OrbitSpace:
        if self._space is None:
            # the Hilbert map first: held here, the equivariant search
            # reuses it whenever it is certified
            hilbert = self.hilbert
            module = equivariant_generators(self.group, self.bound("equivariants"))
            self._space = OrbitSpace(hilbert, module=module, lie_action=self.lie_action)
        return self._space

    def named(self, name: str):
        try:
            return self.problem.named_objects[name]
        except KeyError:
            raise InputError(
                f"no named object {name!r} in the problem file"
            ) from None


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

def _parse_ambient_vf(ctx: Context, spec: str) -> PolyVectorField:
    obj = ctx.problem.named_objects.get(spec)
    if obj is not None:
        if not isinstance(obj, PolyVectorField):
            raise InputError(f"named object {spec!r} is not a vector field")
        return obj
    try:
        comps = [parse_polynomial(s, ctx.ring) for s in spec.split(",")]
        return PolyVectorField(ctx.ring, comps)
    except ValueError as exc:
        raise InputError(f"cannot read vector field {spec!r}: {exc}") from exc


def _parse_orbit_vf(ctx: Context, spec: str):
    """Parse against the orbit ring first, so malformed text fails before
    the equivariant generators are computed."""
    ring = ctx.hilbert.orbit_ring
    from_file = os.path.exists(spec)
    where = f"from {spec}" if from_file else repr(spec)
    try:
        if from_file:
            with open(spec, encoding="utf-8") as handle:
                comps = orbit_vf_components(json.load(handle), ring)
        else:
            comps = [parse_polynomial(s, ring) for s in spec.split(",")]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"cannot read orbit field {where}: {exc}") from exc
    space = ctx.space
    try:
        return space.field(comps)
    except ValueError as exc:
        raise InputError(f"cannot read orbit field {where}: {exc}") from exc


def _load_orbit_form(ctx: Context, path: str):
    data = _read_json(path)
    try:
        return orbit_form_from_json(data, ctx.space)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad orbit form in {path}: {exc}") from exc


def _named_form(ctx: Context, name: str):
    obj = ctx.named(name)
    if isinstance(obj, PolyVectorField):
        raise InputError(f"named object {name!r} is a vector field, not a form")
    return obj


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_invariants(ctx: Context, args) -> tuple[int, str, dict]:
    sigma = ctx.hilbert.sigma
    text = "\n".join(str(s) for s in sigma)
    return 0, text, {"invariants": [str(s) for s in sigma]}

def cmd_relations(ctx: Context, args) -> tuple[int, str, dict]:
    basis = relations(ctx.hilbert).basis.generators
    text = "\n".join(str(g) for g in basis) if basis else "(zero ideal)"
    return 0, text, {"relations": [str(g) for g in basis]}

def cmd_equivariants(ctx: Context, args) -> tuple[int, str, dict]:
    gens = ctx.space.module.generators
    text = "\n".join(str(X) for X in gens)
    return 0, text, {"equivariants": [vf_to_json(X) for X in gens]}

def cmd_push_vf(ctx: Context, args) -> tuple[int, str, dict]:
    X = _parse_ambient_vf(ctx, args.field)
    Y = push_vf(X, ctx.space)
    return 0, str(Y), {"orbit_vector_field": orbit_vf_to_json(Y)}

def cmd_lift_vf(ctx: Context, args) -> tuple[int, str, dict]:
    Y = _parse_orbit_vf(ctx, args.field)
    X = lift_vf(Y, ctx.space)
    return 0, str(X), {"vector_field": vf_to_json(X)}

def cmd_bracket(ctx: Context, args) -> tuple[int, str, dict]:
    Y = _parse_orbit_vf(ctx, args.first)
    Z = _parse_orbit_vf(ctx, args.second)
    B = orbit_bracket(Y, Z)
    return 0, str(B), {"orbit_vector_field": orbit_vf_to_json(B)}

def cmd_push_form(ctx: Context, args) -> tuple[int, str, dict]:
    theta = push_form(_named_form(ctx, args.name), ctx.space)
    return 0, _orbit_form_text(theta), {"orbit_form": orbit_form_to_json(theta)}

def cmd_pull_form(ctx: Context, args) -> tuple[int, str, dict]:
    theta = _load_orbit_form(ctx, args.file)
    ambient = pull_form(theta, ctx.space, args.degree_bound)
    return 0, str(ambient), {"form": form_to_json(ambient)}

def cmd_d(ctx: Context, args) -> tuple[int, str, dict]:
    result = d(_named_form(ctx, args.name))
    return 0, str(result), {"form": form_to_json(result)}

def cmd_orbit_d(ctx: Context, args) -> tuple[int, str, dict]:
    theta = _load_orbit_form(ctx, args.file)
    result = orbit_d(theta)
    return 0, _orbit_form_text(result), {"orbit_form": orbit_form_to_json(result)}

def cmd_semibasic(ctx: Context, args) -> tuple[int, str, dict]:
    omega = _named_form(ctx, args.name)
    res = semibasic_check(omega, ctx.lie_action, ctx.ring)
    if res.semibasic:
        return 0, "SEMI-BASIC", {"semibasic": True}
    payload = {
        "semibasic": False,
        "failing_index": res.failing_index,
        "contraction": form_to_json(res.contraction),
    }
    text = (
        f"NOT SEMI-BASIC (generator {res.failing_index + 1}, "
        f"contraction {res.contraction})"
    )
    return 1, text, payload

def cmd_invariant_check(ctx: Context, args) -> tuple[int, str, dict]:
    obj = ctx.named(args.name)
    ok = is_invariant(obj, ctx.group)
    return (0 if ok else 1), ("INVARIANT" if ok else "NOT INVARIANT"), {"invariant": ok}

def cmd_poincare(ctx: Context, args) -> tuple[int, str, dict]:
    omega = _named_form(ctx, args.name)
    if isinstance(omega, Polynomial):
        raise InputError("a function has no primitive; use a form of degree >= 1")
    try:
        primitive = poincare_primitive(omega)
    except NotClosedError as exc:
        payload = {"closed": False, "residual": form_to_json(exc.residual)}
        return 1, f"NOT CLOSED (residual {exc.residual})", payload
    return 0, str(primitive), {"closed": True, "form": form_to_json(primitive)}

def cmd_extend_check(ctx: Context, args) -> tuple[int, str, dict]:
    theta = _load_orbit_form(ctx, args.file)
    res = extend_check(theta)
    if res.extendable:
        witness = [str(w) for w in res.witness]
        text = "EXTENDABLE\n" + "\n".join(
            f"A{j + 1} = {w}" for j, w in enumerate(witness)
        )
        return 0, text, {"extendable": True, "witness": witness}
    certificate = [str(c) for c in res.certificate]
    return 1, "NOT EXTENDABLE", {"extendable": False, "certificate": certificate}

def cmd_verify_golden(ctx, args) -> tuple[int, str, dict]:
    from .verify import format_report, run_golden_checks

    results = run_golden_checks(seed=args.seed)
    text, ok = format_report(results)
    payload = {
        "passed": ok,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }
    return (0 if ok else 1), text.rstrip("\n"), payload


def _orbit_form_text(theta) -> str:
    data = orbit_form_to_json(theta)
    if data["degree"] == 0:
        return data["values"][0]["class"]
    lines = [f"degree {data['degree']} on {data['generators']} generators"]
    for item in data["values"]:
        tup = ",".join(str(i) for i in item["tuple"])
        lines.append(f"({tup}) -> {item['class']}")
    if len(lines) == 1:
        lines.append("(zero)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "invariants": (cmd_invariants, "list invariant ring generators", []),
    "relations": (cmd_relations, "list the relation ideal basis", []),
    "equivariants": (cmd_equivariants, "list invariant vector field generators", []),
    "push-vf": (cmd_push_vf, "push an invariant field to the orbit space", ["field"]),
    "lift-vf": (cmd_lift_vf, "lift an orbit field to an invariant field", ["field"]),
    "bracket": (cmd_bracket, "bracket of two orbit fields", ["first", "second"]),
    "push-form": (cmd_push_form, "push a named invariant form down", ["name"]),
    "pull-form": (cmd_pull_form, "reconstruct an ambient form from an orbit form file", ["file"]),
    "d": (cmd_d, "exterior derivative of a named ambient form", ["name"]),
    "orbit-d": (cmd_orbit_d, "orbit exterior derivative of an orbit form file", ["file"]),
    "semibasic": (cmd_semibasic, "test a named form against the Lie algebra action", ["name"]),
    "invariant-check": (cmd_invariant_check, "test a named object for invariance", ["name"]),
    "poincare": (cmd_poincare, "primitive of a named closed form", ["name"]),
    "extend-check": (cmd_extend_check, "decide ambient extendability of an orbit 1-form file", ["file"]),
    "verify-golden": (cmd_verify_golden, "run the frozen reflection-example suite", []),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitcalc",
        description="exact calculus on orbit spaces of linear finite group actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, positionals) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for positional in positionals:
            p.add_argument(positional)
        p.add_argument("--format", choices=("text", "json"), default="text")
        # each further flag only on the commands that read it
        if name == "verify-golden":
            p.add_argument("--seed", type=int, default=0, metavar="S")
        else:
            p.add_argument("-i", "--input", default=None, metavar="FILE",
                           help="problem file (JSON)")
            p.add_argument("--cap", type=int, default=100_000, metavar="N",
                           help="group size cap for the closure computation")
        if name in _BOUND_SCOPE or name == "pull-form":
            p.add_argument("--degree-bound", type=int, default=None, metavar="D")
        p.set_defaults(handler=handler)
    return parser


# Invariants and orbit spaces are computed for the finite group only; a
# declared Lie algebra feeds only the semi-basic test.
FINITE_PART_NOTE = (
    "note: the problem declares a Lie algebra, but this answer is for the"
    " finite part of the group only"
)

# A degree bound below the certificate degree leaves a generating set that
# no Hilbert series comparison certified complete.
CUT_SEARCH_NOTE = (
    "note: the degree bound stopped the {} generator search before the"
    " Molien series certified it complete"
)


def _cut_searches(ctx: Context) -> list[str]:
    """The searches this command ran that their bound cut short."""
    built = (("invariant", ctx._hilbert), ("equivariant", ctx._space and ctx._space.module))
    return [name for name, result in built if result is not None and result.certificate is None]


def _explained(exc: ValueError, ctx: Context | None) -> str:
    """The error message, naming the invariants degree bound when it cut
    the invariant search short of an invariant the command needed."""
    hilbert = ctx._hilbert if ctx is not None else None
    cut = hilbert is not None and hilbert.certificate is None
    if isinstance(exc, NotInSubalgebraError) and cut:
        return (
            f"{exc}: the invariants degree bound {ctx.bound('invariants')} stopped the"
            " invariant generator search before it found every generator"
        )
    return str(exc)


# the problem-file bound that --degree-bound overrides, by command; pull-form
# reads the flag as the bound on the pulled coefficients instead
_BOUND_SCOPE = {
    "invariants": "invariants",
    "relations": "invariants",
    "equivariants": "equivariants",
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    ctx = None
    try:
        if args.command != "verify-golden":
            problem = load_problem(args.input)
            overrides = {}
            scope = _BOUND_SCOPE.get(args.command)
            if scope and args.degree_bound is not None:
                overrides[scope] = args.degree_bound
            ctx = Context(problem, cap=args.cap, bound_overrides=overrides)
        code, text, payload = args.handler(ctx, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {_explained(exc, ctx)}", file=sys.stderr)
        return 2
    if ctx is not None and ctx._hilbert is not None and ctx.problem.lie_algebra:
        print(FINITE_PART_NOTE, file=sys.stderr)
    cut = _cut_searches(ctx) if ctx is not None else []
    if cut:
        print(CUT_SEARCH_NOTE.format(" and ".join(cut)), file=sys.stderr)
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
