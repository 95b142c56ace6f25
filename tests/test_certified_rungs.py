"""The B3/R^3 and S4/R^4 rungs: reflection groups whose searches stop at
the Molien certificate far below the default bound |G| (48 and 24), and the
one certified Hilbert map that every caller of a group shares."""

import json
from pathlib import Path

import pytest
from conftest import field_degree

from orbitcalc import cli
from orbitcalc.group_action import closure
from orbitcalc.invariants import (
    EquivariantModule,
    equivariant_generators,
    invariant_combination,
    invariant_generators,
    relations,
)
from orbitcalc.quotient import OrbitSpace

FIXTURES = Path(cli.__file__).parent / "fixtures"

# rung -> (invariant degrees, field degrees); both modules are free, and
# each search is certified at its last generator degree
RUNGS = {
    "b3": ([2, 4, 6], [1, 3, 5]),
    "s4": ([1, 2, 3, 4], [0, 1, 2, 3]),
}


def load_group(name):
    data = json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
    return closure(data["group_generators"])


@pytest.mark.parametrize("rung", sorted(RUNGS))
def test_rung_presentation_is_certified_free(rung):
    invariant_degrees, field_degrees = RUNGS[rung]
    group = load_group(rung)
    space = OrbitSpace(invariant_generators(group))
    assert [s.degree() for s in space.hilbert.sigma] == invariant_degrees
    assert space.ideal.is_zero_ideal()
    assert [field_degree(X) for X in space.module.generators] == field_degrees
    # free of rank n: as many generators as coordinates, and no syzygies
    assert len(space.module) == group.n
    assert space.generator_syzygies == []
    assert space.hilbert.certificate == invariant_degrees[-1]
    assert space.module.certificate == field_degrees[-1]


def test_certified_map_serves_every_bound_from_its_certificate(invariant_searches):
    group = load_group("s4")
    hmap = invariant_generators(group, 4)
    assert hmap.certificate == 4
    for bound in (4, 5, 12, group.order, None):
        assert invariant_generators(group, bound) is hmap
    module = equivariant_generators(group, 3)
    assert module.certificate == 3
    assert EquivariantModule.from_fields(group, module.generators) == module
    assert invariant_combination(module.generators[1], module.generators, group) is not None
    assert invariant_searches == [4]
    cut = invariant_generators(group, 3)
    assert cut is not hmap and cut.certificate is None
    assert [str(s) for s in cut.sigma] == [str(s) for s in hmap.sigma[:3]]
    assert invariant_generators(group, 3) is cut
    assert invariant_generators(group) is hmap
    assert invariant_searches == [4, 3]
    assert relations(hmap).is_zero_ideal()
