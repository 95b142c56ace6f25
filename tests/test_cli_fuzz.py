"""Fuzz of the command line's input parsers: whatever a problem file, an
orbit-form file, an orbit-field file or a polynomial argument holds, ``main``
returns one of the documented exit codes and never lets an exception out.

Generated polynomial text never chains digits after ``^``, so an input can
be malformed but never asks for a huge computation; the group-size cap is
kept small for the same reason.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from orbitcalc import cli  # noqa: E402

FIXTURES = Path(cli.__file__).parent / "fixtures"
Z2 = str(FIXTURES / "z2.json")
PROBLEMS = [json.loads((FIXTURES / name).read_text(encoding="utf-8"))
            for name in ("z2.json", "s2.json", "so2_semibasic.json")]
THETAS = [json.loads((FIXTURES / f"theta{k}.json").read_text(encoding="utf-8"))
          for k in (1, 2, 3, 4)]
EXIT_CODES = {0, 1, 2}

FUZZ = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Tokens that start with a digit end in a non-digit, so no exponent exceeds 30.
TOKENS = [
    "x1", "x2", "x3", "y1", "y2", "y3", "y4", "y9", "a", "^2", "^3", "*", "+",
    "-", " ", "2*", "1/2*", "1/0*", "0 ", "(", ",", "/", "^",
]
term_text = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "2*", "-1/3*"]),
    st.sampled_from(["x1", "x2", "y1", "y2", "y3"]),
    st.sampled_from(["", "^2"]),
)
poly_text = (
    st.lists(term_text, min_size=1, max_size=3).map(" + ".join)
    | st.lists(st.sampled_from(TOKENS), max_size=8).map("".join)
)
scalars = (
    st.none() | st.booleans() | st.integers(-3, 4) | st.just(1.5)
    | st.sampled_from(["", "0", "1", "-1", "1/2", "1/0", "2", "a"]) | poly_text
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "components", "degree", "terms",
                                       "values", "tuple", "class", "coeff",
                                       "indices", "generators"]),
                      inner, max_size=3),
    max_leaves=8,
)


def mutate(data, edits):
    """Apply (path, value) edits.  Each path step picks a key or an index,
    modulo the node's size; the last step's slot gets the value.  An edit
    whose path runs into a scalar or an empty node is dropped."""
    data = json.loads(json.dumps(data))
    for path, value in edits:
        node = data
        for step in path[:-1]:
            if isinstance(node, dict) and node:
                node = node[sorted(node)[step % len(node)]]
            elif isinstance(node, list) and node:
                node = node[step % len(node)]
            else:
                break
        else:
            last = path[-1]
            if isinstance(node, dict) and node:
                node[sorted(node)[last % len(node)]] = value
            elif isinstance(node, list) and node:
                node[last % len(node)] = value
    return data


edits = st.lists(
    st.tuples(st.lists(st.integers(0, 7), min_size=1, max_size=4), json_values),
    max_size=3,
)


def run_main(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    assert code in EXIT_CODES


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def write(directory, name, data):
    path = directory / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@FUZZ
@given(
    base=st.sampled_from(PROBLEMS),
    changes=edits,
    command=st.sampled_from(
        ["invariants", "invariant-check", "push-form", "d", "semibasic", "poincare"]
    ),
    name=st.sampled_from(["X1", "w1", "vol2", "radial", "missing"]),
)
def test_problem_file_fuzz(work_dir, base, changes, command, name):
    path = write(work_dir, "problem.json", mutate(base, changes))
    args = [command] if command == "invariants" else [command, name]
    run_main(*args, "-i", path, "--cap", "4")


@FUZZ
@given(
    data=st.builds(mutate, st.sampled_from(THETAS), edits) | json_values,
    command=st.sampled_from(["orbit-d", "extend-check", "pull-form"]),
)
def test_orbit_form_file_fuzz(work_dir, data, command):
    """Edited copies of the shipped forms, or a whole file of any JSON."""
    path = write(work_dir, "theta.json", data)
    run_main(command, path, "-i", Z2)


@FUZZ
@given(data=json_values | st.fixed_dictionaries({"components": st.lists(json_values, max_size=4)}))
def test_orbit_field_file_fuzz(work_dir, data):
    path = write(work_dir, "field.json", data)
    run_main("lift-vf", path, "-i", Z2)


@FUZZ
@given(
    command=st.sampled_from(["push-vf", "lift-vf", "bracket"]),
    texts=st.lists(poly_text, min_size=1, max_size=3),
)
def test_polynomial_text_fuzz(command, texts):
    spec = ",".join(texts)
    # after "--" a spec that starts with "-" is still read as a positional
    specs = [spec, spec] if command == "bracket" else [spec]
    run_main(command, "-i", Z2, "--", *specs)
