"""The benchmark tracer binds library functions by name; a rename or a
deletion in the package must not silently break ``--trace 1``."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = load_tracing()
    for name, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(f"orbitcalc.{name.split('.')[0]}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: {attr} no longer exists"
            owner = getattr(owner, part)
    groebner = importlib.import_module("orbitcalc.groebner")
    original = groebner.module_solve
    with tracing.Tracer().installed():
        assert groebner.module_solve is not original
    assert groebner.module_solve is original


def test_the_tracer_counts_the_inverse_at_its_new_home():
    """``mat_inverse`` lives in ``linalg`` and is bound in ``group_action``
    too; the tracer rebinds it in both and counts the closure's calls, one
    per generator, under its ``group_action`` name."""
    tracing = load_tracing()
    group_action = importlib.import_module("orbitcalc.group_action")
    linalg = importlib.import_module("orbitcalc.linalg")
    original = linalg.mat_inverse
    assert group_action.mat_inverse is original
    with tracing.Tracer().installed() as tracer:
        assert group_action.mat_inverse is not original
        assert linalg.mat_inverse is group_action.mat_inverse
        group_action.closure([[["0", "-1"], ["1", "-1"]], [["0", "1"], ["1", "0"]]])
    assert tracer.stat("group_action.mat_inverse").calls == 2
    assert linalg.mat_inverse is original
    assert group_action.mat_inverse is original
