"""End-to-end checks of the command line against the shipped problem files."""

import json
import os
import shutil
import subprocess
import sys
import venv
from pathlib import Path

import pytest

from orbitcalc import cli
from orbitcalc.algebra import PolyRing, parse_polynomial
from orbitcalc.exterior import form_from_json, vf_from_json
from orbitcalc.quotient import push_vf

FIXTURES = Path(cli.__file__).parent / "fixtures"
Z2 = str(FIXTURES / "z2.json")
S2 = str(FIXTURES / "s2.json")
TRIVIAL = str(FIXTURES / "trivial.json")
SO2 = str(FIXTURES / "so2_semibasic.json")
THETA1 = str(FIXTURES / "theta1.json")
THETA4 = str(FIXTURES / "theta4.json")
S4 = str(FIXTURES / "s4.json")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# structure listings
# ---------------------------------------------------------------------------

def test_invariants_listing(capsys):
    code, out, _ = run(capsys, "invariants", "-i", Z2)
    assert code == 0
    assert out.splitlines() == ["x1^2", "x1*x2", "x2^2"]
    code, out, _ = run(capsys, "invariants", "-i", TRIVIAL)
    assert (code, out.splitlines()) == (0, ["x1", "x2"])
    code, out, _ = run(capsys, "invariants", "-i", S2)
    assert (code, out.splitlines()) == (0, ["x1 + x2", "x1^2 + x2^2"])


def test_invariants_degree_bound_override(capsys):
    code, out, _ = run(capsys, "invariants", "-i", Z2, "--degree-bound", "2")
    assert code == 0
    assert out.splitlines() == ["x1^2", "x1*x2", "x2^2"]


def test_relations_listing(capsys):
    code, out, _ = run(capsys, "relations", "-i", Z2)
    assert (code, out.strip()) == (0, "y2^2 - y1*y3")
    code, out, _ = run(capsys, "relations", "-i", TRIVIAL)
    assert (code, out.strip()) == (0, "(zero ideal)")
    code, payload = run_json(capsys, "relations", "-i", Z2)
    assert payload == {"relations": ["y2^2 - y1*y3"]}


def test_relations_listing_needs_no_equivariant_search(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("relations searched the equivariant generators")

    monkeypatch.setattr(cli, "equivariant_generators", refuse)
    code, out, err = run(capsys, "relations", "-i", Z2)
    assert (code, out.strip(), err) == (0, "y2^2 - y1*y3", "")


def test_equivariants_listing(capsys):
    code, out, _ = run(capsys, "equivariants", "-i", Z2)
    assert code == 0
    assert out.splitlines() == [
        "(x1)*d/dx1",
        "(x1)*d/dx2",
        "(x2)*d/dx1",
        "(x2)*d/dx2",
    ]
    code, payload = run_json(capsys, "equivariants", "-i", TRIVIAL)
    assert payload == {
        "equivariants": [{"components": ["1", "0"]}, {"components": ["0", "1"]}]
    }


def bounded_problem(tmp_path, **bounds):
    data = json.loads(Path(S4).read_text(encoding="utf-8"))
    path = tmp_path / "s4_bounded.json"
    path.write_text(json.dumps({**data, "degree_bounds": bounds}), encoding="utf-8")
    return str(path)


def test_bounded_s4_equivariants_search_the_invariants_once(capsys, tmp_path, invariant_searches):
    path = bounded_problem(tmp_path, invariants=4, equivariants=3)
    code, out, err = run(capsys, "equivariants", "-i", path)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "(1)*d/dx1 + (1)*d/dx2 + (1)*d/dx3 + (1)*d/dx4",
        "(x1)*d/dx1 + (x2)*d/dx2 + (x3)*d/dx3 + (x4)*d/dx4",
        "(x1^2)*d/dx1 + (x2^2)*d/dx2 + (x3^2)*d/dx3 + (x4^2)*d/dx4",
        "(x1^3)*d/dx1 + (x2^3)*d/dx2 + (x3^3)*d/dx3 + (x4^3)*d/dx4",
    ]
    assert invariant_searches == [4]


@pytest.mark.parametrize(
    "argv, bounds, cut",
    [
        (["invariants", "--degree-bound", "3"], {}, "invariant"),
        (["equivariants", "--degree-bound", "2"], {}, "equivariant"),
        (["equivariants"], {"invariants": 3, "equivariants": 2}, "invariant and equivariant"),
        (["invariants", "--degree-bound", "4", "--format", "json"], {}, None),
    ],
)
def test_a_cut_search_is_noted_on_stderr(capsys, tmp_path, argv, bounds, cut):
    """A command answers as usual; one note on stderr says which searches
    the bound cut before their certificate (the certified run is above)."""
    code, out, err = run(capsys, *argv, "-i", bounded_problem(tmp_path, **bounds))
    assert code == 0 and out
    assert err.splitlines() == ([] if cut is None else [cli.CUT_SEARCH_NOTE.format(cut)])


def test_a_cut_invariant_search_is_named_when_a_field_cannot_be_pushed(capsys, tmp_path):
    """With the degree-4 invariant cut, the generator fields (found against
    the certified map) have no pushforward: the error names the bound.  The
    Euler field still pushes through the cut map."""
    path = bounded_problem(tmp_path, invariants=3)
    code, out, err = run(capsys, "lift-vf", "y1,2*y2,3*y3", "-i", path)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: not in subalgebra generated by the Hilbert map: the invariants degree"
        " bound 3 stopped the invariant generator search before it found every generator"
    ]
    code, out, err = run(capsys, "push-vf", "euler", "-i", path)
    assert (code, out.strip()) == (0, "(y1)*d/dy1 + (2*y2)*d/dy2 + (3*y3)*d/dy3")
    assert err.splitlines() == [cli.CUT_SEARCH_NOTE.format("invariant")]


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------

def test_push_vf(capsys):
    code, out, _ = run(capsys, "push-vf", "X1", "-i", Z2)
    assert (code, out.strip()) == (0, "(2*y1)*d/dy1 + (y2)*d/dy2")
    code, payload = run_json(capsys, "push-vf", "x1,x2", "-i", Z2)
    assert code == 0
    assert payload["orbit_vector_field"] == {"components": ["2*y1", "2*y2", "2*y3"]}


def test_push_vf_swap_example(capsys):
    code, out, _ = run(capsys, "push-vf", "sym_field", "-i", S2)
    assert (code, out.strip()) == (0, "(y1)*d/dy1 + (2*y1^2 - 2*y2)*d/dy2")


def test_push_vf_rejects_non_invariant(capsys):
    code, _, err = run(capsys, "push-vf", "1,0", "-i", Z2)
    assert code == 2
    assert "not invariant" in err


def test_lift_vf_round_trip(capsys):
    code, payload = run_json(capsys, "lift-vf", "2*y1,y2,0", "-i", Z2)
    assert code == 0
    problem = cli.load_problem(Z2)
    space = cli.Context(problem, cap=100_000).space
    lifted = vf_from_json(payload["vector_field"], PolyRing.ambient(2))
    assert push_vf(lifted, space) == space.field(
        [parse_polynomial(s, space.orbit_ring) for s in ("2*y1", "y2", "0")]
    )


def test_bracket(capsys):
    code, out, _ = run(capsys, "bracket", "2*y1,y2,0", "2*y2,y3,0", "-i", Z2)
    assert (code, out.strip()) == (0, "(-2*y2)*d/dy1 + (-y3)*d/dy2")
    code, out, _ = run(capsys, "bracket", "2*y1,y2,0", "2*y1,y2,0", "-i", Z2)
    assert (code, out.strip()) == (0, "0")


# ---------------------------------------------------------------------------
# forms up and down
# ---------------------------------------------------------------------------

def test_push_form_golden(capsys):
    code, out, _ = run(capsys, "push-form", "w1", "-i", Z2)
    assert code == 0
    assert out.splitlines() == [
        "degree 1 on 4 generators",
        "(1) -> 2*y1",
        "(3) -> 2*y2",
    ]
    code, payload = run_json(capsys, "push-form", "w4", "-i", Z2)
    assert code == 0
    with open(THETA4, encoding="utf-8") as handle:
        assert payload["orbit_form"] == json.load(handle)


def test_push_form_trivial_group(capsys):
    code, out, _ = run(capsys, "push-form", "w", "-i", TRIVIAL)
    assert code == 0
    assert out.splitlines() == ["degree 1 on 2 generators", "(2) -> y1"]


def test_pull_form_inverts_push(capsys):
    code, payload = run_json(capsys, "pull-form", THETA4, "-i", Z2)
    assert code == 0
    problem = cli.load_problem(Z2)
    recovered = form_from_json(payload["form"], PolyRing.ambient(2))
    assert recovered == problem.named_objects["w4"]


def test_d_command(capsys):
    code, out, _ = run(capsys, "d", "w4", "-i", Z2)
    assert (code, out.strip()) == (0, "(2) dx1^dx2")
    code, _, err = run(capsys, "d", "X1", "-i", Z2)
    assert code == 2
    assert "is a vector field, not a form" in err


def test_orbit_d(capsys):
    code, payload = run_json(capsys, "orbit-d", THETA4, "-i", Z2)
    assert code == 0
    assert payload["orbit_form"]["values"] == [
        {"tuple": [1, 2], "class": "2*y1"},
        {"tuple": [1, 4], "class": "2*y2"},
        {"tuple": [2, 3], "class": "-2*y2"},
        {"tuple": [3, 4], "class": "2*y3"},
    ]
    code, out, _ = run(capsys, "orbit-d", THETA1, "-i", Z2)
    assert code == 0
    assert out.splitlines() == ["degree 2 on 4 generators", "(zero)"]


# ---------------------------------------------------------------------------
# decision commands (exit code 1 carries the mathematical negative)
# ---------------------------------------------------------------------------

def test_semibasic(capsys):
    code, out, _ = run(capsys, "semibasic", "w4", "-i", Z2)
    assert (code, out.strip()) == (0, "SEMI-BASIC")
    code, out, _ = run(capsys, "semibasic", "radial", "-i", SO2)
    assert (code, out.strip()) == (0, "SEMI-BASIC")
    code, out, _ = run(capsys, "semibasic", "rotational_r2", "-i", SO2)
    assert code == 1
    assert out.startswith("NOT SEMI-BASIC (generator 1")
    code, payload = run_json(capsys, "semibasic", "rotational_r2", "-i", SO2)
    assert code == 1
    assert payload["failing_index"] == 0
    assert payload["contraction"]["terms"][0]["coeff"] == "x1^4 + 2*x1^2*x2^2 + x2^4"


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants"],
        ["relations"],
        ["equivariants"],
        ["equivariants", "--format", "json"],
        ["push-form", "radial"],
    ],
)
def test_lie_algebra_answers_say_they_cover_the_finite_part(capsys, tmp_path, argv):
    """Invariants and orbit spaces come from the finite part of the group
    alone: with a Lie algebra declared, stdout and the exit code are those
    of the same problem without it, and one note on stderr says so.  The
    semi-basic test uses the Lie algebra and prints no note (test_semibasic
    reads its JSON answer with an empty stderr)."""
    data = json.loads(Path(SO2).read_text(encoding="utf-8"))
    finite_only = tmp_path / "finite_only.json"
    finite_only.write_text(json.dumps({**data, "lie_algebra": []}), encoding="utf-8")
    code, out, err = run(capsys, *argv, "-i", SO2)
    assert run(capsys, *argv, "-i", str(finite_only)) == (code, out, "")
    assert err.startswith("note:") and err.splitlines() == [cli.FINITE_PART_NOTE]


def test_invariant_check(capsys):
    code, out, _ = run(capsys, "invariant-check", "w1", "-i", Z2)
    assert (code, out.strip()) == (0, "INVARIANT")
    code, out, _ = run(capsys, "invariant-check", "X1", "-i", Z2)
    assert (code, out.strip()) == (0, "INVARIANT")
    code, out, _ = run(capsys, "invariant-check", "notinv", "-i", Z2)
    assert (code, out.strip()) == (1, "NOT INVARIANT")
    code, payload = run_json(capsys, "invariant-check", "notinv", "-i", Z2)
    assert (code, payload) == (1, {"invariant": False})


def test_poincare(capsys):
    code, out, _ = run(capsys, "poincare", "vol2", "-i", Z2)
    assert (code, out.strip()) == (0, "(-x2) dx1 + (x1) dx2")
    code, out, _ = run(capsys, "poincare", "w1", "-i", Z2)
    assert (code, out.strip()) == (0, "x1^2")
    code, out, _ = run(capsys, "poincare", "notclosed", "-i", Z2)
    assert code == 1
    assert out.strip() == "NOT CLOSED (residual (-1) dx1^dx2)"
    code, _, err = run(capsys, "poincare", "X1", "-i", Z2)
    assert code == 2
    assert "is a vector field" in err


def test_extend_check(capsys):
    code, out, _ = run(capsys, "extend-check", THETA1, "-i", Z2)
    assert code == 0
    assert out.splitlines() == ["EXTENDABLE", "A1 = 1", "A2 = 0", "A3 = 0"]
    code, out, _ = run(capsys, "extend-check", THETA4, "-i", Z2)
    assert (code, out.strip()) == (1, "NOT EXTENDABLE")
    code, payload = run_json(capsys, "extend-check", THETA4, "-i", Z2)
    assert code == 1
    assert payload["extendable"] is False
    assert any(entry != "0" for entry in payload["certificate"])


def test_verify_golden_deterministic(capsys):
    code, first, _ = run(capsys, "verify-golden")
    assert code == 0
    code, second, _ = run(capsys, "verify-golden")
    assert first == second
    lines = first.splitlines()
    assert lines[-1] == "golden suite: 12/12 checks passed"
    assert all(line.startswith("PASS") for line in lines[:-1])
    code, payload = run_json(capsys, "verify-golden")
    assert code == 0
    assert payload["passed"] is True
    assert len(payload["checks"]) == 12


# ---------------------------------------------------------------------------
# input errors (exit code 2)
# ---------------------------------------------------------------------------

def test_missing_and_unreadable_problem_files(capsys, tmp_path):
    code, _, err = run(capsys, "invariants")
    assert code == 2
    assert "problem file is required" in err

    code, _, err = run(capsys, "invariants", "-i", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read" in err

    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, "invariants", "-i", str(broken))
    assert code == 2
    assert "not valid JSON" in err


def test_malformed_problem_contents(capsys, tmp_path):
    wrong_size = tmp_path / "wrong_size.json"
    wrong_size.write_text(
        json.dumps({"n": 2, "group_generators": [[["1"]]]}), encoding="utf-8"
    )
    code, _, err = run(capsys, "invariants", "-i", str(wrong_size))
    assert code == 2
    assert "matrix size differs" in err

    bad_object = tmp_path / "bad_object.json"
    bad_object.write_text(
        json.dumps(
            {
                "n": 2,
                "group_generators": [[["1", "0"], ["0", "1"]]],
                "named_objects": {"bad": {"foo": 1}},
            }
        ),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "push-form", "bad", "-i", str(bad_object))
    assert code == 2
    assert "bad named object" in err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "push-form", "nope", "-i", Z2)
    assert code == 2
    assert "no named object 'nope'" in err

    code, _, err = run(capsys, "push-form", "X1", "-i", Z2)
    assert code == 2
    assert "is a vector field, not a form" in err

    code, _, err = run(capsys, "invariants", "-i", Z2, "--cap", "1")
    assert code == 2
    assert "not finite within cap" in err

    code, _, err = run(capsys, "lift-vf", "1,0,0", "-i", Z2)
    assert code == 2
    assert "cannot read orbit field" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["push-vf", "X1", "-i", Z2, "--degree-bound", "2"], "--degree-bound"),
        (["invariants", "-i", Z2, "--seed", "3"], "--seed"),
        (["verify-golden", "-i", Z2], "-i"),
        (["verify-golden", "--cap", "4"], "--cap"),
    ],
)
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and flag in err


def test_orbit_field_parsed_before_the_space_is_built(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("equivariant generators computed before the parse")

    monkeypatch.setattr(cli, "equivariant_generators", refuse)
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"components": ["y1", "q9", "0"]}), encoding="utf-8")
    for spec in ("q9", str(field)):
        code, out, err = run(capsys, "lift-vf", spec, "-i", Z2)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot read orbit field")


def run_process(cwd, *argv):
    """The CLI in a fresh interpreter: an uncaught exception shows up as a
    traceback on stderr, and the exit code is the one a shell sees."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "orbitcalc.cli", *argv],
        cwd=cwd,
        env={**_without_pythonpath(), "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def assert_input_error(result, fragment):
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert fragment in lines[0]


def test_zero_denominator_in_group_matrix(tmp_path):
    data = json.loads(Path(Z2).read_text(encoding="utf-8"))
    data["group_generators"] = [[["1/0", "0"], ["0", "-1"]]]
    problem = tmp_path / "zero_denominator.json"
    problem.write_text(json.dumps(data), encoding="utf-8")
    result = run_process(tmp_path, "invariants", "-i", str(problem))
    assert_input_error(result, "zero denominator in '1/0'")


def test_orbit_form_file_missing_or_mistyped_fields(tmp_path):
    data = json.loads(Path(THETA1).read_text(encoding="utf-8"))
    no_degree = tmp_path / "no_degree.json"
    no_degree.write_text(
        json.dumps({k: v for k, v in data.items() if k != "degree"}), encoding="utf-8"
    )
    result = run_process(tmp_path, "orbit-d", str(no_degree), "-i", Z2)
    assert_input_error(result, "bad orbit form")

    scalar_values = tmp_path / "scalar_values.json"
    scalar_values.write_text(json.dumps({**data, "values": 5}), encoding="utf-8")
    result = run_process(tmp_path, "orbit-d", str(scalar_values), "-i", Z2)
    assert_input_error(result, "bad orbit form")

    not_an_object = tmp_path / "not_an_object.json"
    not_an_object.write_text(json.dumps([1, 2]), encoding="utf-8")
    for command in ("orbit-d", "extend-check", "pull-form"):
        result = run_process(tmp_path, command, str(not_an_object), "-i", Z2)
        assert_input_error(result, "bad orbit form")

    bad_tuples = [{"values": [{"tuple": [i], "class": "2*y1"}]} for i in (1.9, True)]
    for change in ({"degree": 1.5}, {"degree": True}, {"generators": 4.0}, *bad_tuples):
        mistyped = tmp_path / "mistyped.json"
        mistyped.write_text(json.dumps({**data, **change}), encoding="utf-8")
        result = run_process(tmp_path, "orbit-d", str(mistyped), "-i", Z2)
        assert_input_error(result, "must be an integer")


@pytest.mark.parametrize(
    "change, fragment",
    [
        ({"degree_bounds": 5}, "'degree_bounds' must be an object"),
        ({"degree_bounds": {"invariants": None}}, "bad problem file"),
        ({"named_objects": 5}, "'named_objects' must be an object"),
        ({"named_objects": {"bad": 5}}, "bad named object 'bad'"),
        ({"named_objects": {"bad": {"components": ["x1", 5]}}}, "must be a string"),
        ({"named_objects": {"bad": {"degree": 1}}}, "bad named object 'bad'"),
        ({"named_objects": {"w1": {"degree": 1.9, "terms": []}}}, "degree must be an integer"),
        ({"named_objects": {"w1": {"degree": True, "terms": []}}}, "degree must be an integer"),
        (
            {"named_objects": {"w1": {"degree": 1, "terms": [{"indices": [1.9], "coeff": "x1"}]}}},
            "indices must be an integer",
        ),
        (
            {"named_objects": {"w1": {"degree": 1, "terms": [{"indices": [True], "coeff": "x1"}]}}},
            "indices must be an integer",
        ),
        ({"degree_bounds": {"invariants": 4.5}}, "bad problem file: degree bound 'invariants'"),
        ({"degree_bounds": {"equivariants": "3"}}, "bad problem file: degree bound 'equivariants'"),
        ({"n": 2.7}, "bad problem file: n must be an integer"),
        ({"n": "2"}, "bad problem file: n must be an integer"),
        ({"n": True}, "bad problem file: n must be an integer"),
        ("x", "bad problem file: a problem must be a JSON object"),
    ],
)
def test_problem_file_mistyped_fields(tmp_path, change, fragment):
    """Each change is merged into a valid file; one that is not an object
    replaces the file."""
    data = json.loads(Path(Z2).read_text(encoding="utf-8"))
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({**data, **change} if isinstance(change, dict) else change), encoding="utf-8")
    result = run_process(tmp_path, "invariants", "-i", str(problem))
    assert_input_error(result, fragment)


def test_negative_equivariant_degree_bound_is_an_input_error(capsys):
    code, out, err = run(capsys, "equivariants", "-i", Z2, "--degree-bound", "-1")
    assert (code, out, err) == (2, "", "error: degree bound must be non-negative\n")
    code, out, _ = run(capsys, "equivariants", "-i", TRIVIAL, "--degree-bound", "0")
    assert (code, out.splitlines()) == (0, ["(1)*d/dx1", "(1)*d/dx2"])


@pytest.mark.parametrize(
    "components, fragment",
    [(5, "not iterable"), (["y1", 5, "0"], "must be a string")],
)
def test_orbit_field_file_mistyped_components(tmp_path, components, fragment):
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"components": components}), encoding="utf-8")
    result = run_process(tmp_path, "lift-vf", str(field), "-i", Z2)
    assert_input_error(result, "cannot read orbit field")
    assert fragment in result.stderr


def test_orbit_field_file_that_is_not_an_object(tmp_path):
    field = tmp_path / "field.json"
    field.write_text(json.dumps([1, 2]), encoding="utf-8")
    result = run_process(tmp_path, "lift-vf", str(field), "-i", Z2)
    assert_input_error(result, "cannot read orbit field")
    assert "an orbit field must be a JSON object" in result.stderr


# ---------------------------------------------------------------------------
# problem file round trip and installed script
# ---------------------------------------------------------------------------

def test_problem_file_round_trip():
    problem = cli.load_problem(Z2)
    data = problem.to_json()
    assert cli.ProblemFile.from_json(data).to_json() == data


@pytest.fixture(scope="module")
def installed_script(tmp_path_factory):
    """Install a copy of this checkout into a fresh venv; return its script.

    The venv sees the interpreter's own site-packages, so setuptools is found
    without a download, and setuptools' ``develop`` command installs the
    ``[project.scripts]`` entry without needing the ``wheel`` package.  The
    copy keeps the install's ``*.egg-info`` out of the checkout.
    """
    pytest.importorskip("setuptools")
    root = Path(__file__).resolve().parents[1]
    base = tmp_path_factory.mktemp("console_script")
    project = base / "project"
    shutil.copytree(
        root / "src",
        project / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(root / name, project / name)
    env_dir = base / "venv"
    venv.create(env_dir, system_site_packages=True, with_pip=False)
    install = subprocess.run(
        [
            str(env_dir / "bin" / "python"),
            "-c",
            "from setuptools import setup; setup()",
            "develop",
            "--no-deps",
        ],
        cwd=project,
        env=_without_pythonpath(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert install.returncode == 0, install.stdout + install.stderr
    return env_dir / "bin" / "orbitcalc"


def _without_pythonpath():
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def test_installed_console_script(installed_script, tmp_path):
    result = subprocess.run(
        [str(installed_script), "relations", "-i", Z2],
        cwd=tmp_path,
        env=_without_pythonpath(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "y2^2 - y1*y3"
