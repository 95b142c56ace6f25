"""A speedup that changes an answer is a bug: one verified pass of each
benchmark workload at seed 1 must hash to the pinned output digest.

The benchmark's own files are loaded by path and not edited; the pass and
its digest are made by the benchmark's ``Loop``, as ``perfbench/run.py``
makes them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# SHA-256 of the set-up check lines and the task lines of one pass, seed 1.
PINNED_DIGESTS = {
    "presentation": "d41a1cded77a553094d74757794e885b7601665486c6eaf2afbd46e9fa56ee17",
    "elimination": "5cef3f04634e4be68615a58e21adb5e34122cb8357698e6a571d41d49c5c5c89",
    "calculus": "a28bc4388f427f63a602f8a88e10081131dfa2186862cc40885e32b5af3e223c",
}


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))  # run.py imports its reference kernel by name
    try:
        yield load("workloads"), load("run")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_workload_digest_is_pinned(bench, name):
    workloads, run = bench
    workload = workloads.WORKLOADS[name](1)
    setup_lines = workload.check_setup()
    loop = run.Loop(workload.tasks())
    loop.run_for(0)  # exactly one pass, every output verified
    assert loop.attempted == len(loop.tasks)
    assert loop.failed == 0, loop.errors
    assert loop.digest(setup_lines) == PINNED_DIGESTS[name]
