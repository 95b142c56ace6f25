"""Pinned outputs of three reflection groups above the benchmark ladder:
W(D4) and W(B4) acting on R^4 by signed permutations, and S5 permuting the
coordinates of R^5.  The pins are SHA-256 digests of the ``str`` lines of
the invariant generators, the relation basis and the equivariant fields.
The sequential search oracles of ``test_invariants.py`` are too slow for
groups of this order, so these digests guard the searches here."""

import hashlib

import pytest

from orbitcalc.group_action import closure
from orbitcalc.invariants import equivariant_generators, invariant_generators, relations


def signed_permutation(images, signs=None):
    """The matrix sending e_i to signs[i] * e_(images[i])."""
    n = len(images)
    signs = signs or [1] * n
    return [[str(signs[i]) if images[i] == j else "0" for j in range(n)] for i in range(n)]


TRANSPOSITION_4 = signed_permutation([1, 0, 2, 3])
CYCLE_4 = signed_permutation([1, 2, 3, 0])

# name -> (generators, |G|, digests of generators, relations, fields)
GROUPS = {
    "wd4_r4": (
        [TRANSPOSITION_4, CYCLE_4, signed_permutation([0, 1, 2, 3], [-1, -1, 1, 1])],
        192,
        "d1b4e7e3f5e01476e435ec80ac302b08de12d477efd8e594e34f2c877030cabf",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "efd4c7ceb0b8a0145d54c04b0f453f6c23882704a9aa33ca3d81d8499dde272e",
    ),
    "wb4_r4": (
        [TRANSPOSITION_4, CYCLE_4, signed_permutation([0, 1, 2, 3], [-1, 1, 1, 1])],
        384,
        "aa13fd947d3c724eac9703c835b69be4afe18c51e7137ea889c30fd11c7b5701",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b64e87891b15142f62ce3b21a8ade1658aa05dd0239751b0a313c5c7c3d2992a",
    ),
    "s5_r5": (
        [signed_permutation([1, 0, 2, 3, 4]), signed_permutation([1, 2, 3, 4, 0])],
        120,
        "9289c1ee19e2d78b7236038c8001b1fb5eb7920aae5540a6ba69e2add077cecc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "30821db6f79408b88547c828740c19b86ef895d9983354118a7a2451d2449d96",
    ),
}


def digest(items):
    return hashlib.sha256("\n".join(str(item) for item in items).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_reflection_group_outputs_are_pinned(name):
    generators, order, sigma_pin, relations_pin, fields_pin = GROUPS[name]
    group = closure(generators)
    assert group.order == order
    hmap = invariant_generators(group)
    module = equivariant_generators(group)
    # a reflection group has a polynomial invariant ring and a free module
    # of invariant fields, each with one generator per coordinate
    assert len(hmap.sigma) == len(module) == group.n
    assert digest(hmap.sigma) == sigma_pin
    assert digest(relations(hmap).basis.generators) == relations_pin
    assert digest(module.generators) == fields_pin
