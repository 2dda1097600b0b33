"""The machine gadget prices each resource by the kind it was created with,
and its index blocks lay out the same structure as interning by name."""

from pathlib import Path

import pytest

from _oracles import gadget_structure_by_name
from sinkeq.compilers import compile_tm_player_specific, compile_tm_weighted
from sinkeq.compilers.tm_gadget import build_structure
from sinkeq.io import parse_tm_file
from sinkeq.turing import wrap_machine


@pytest.mark.parametrize("market_halt_nn", [False, True])
def test_every_resource_has_one_kind(flipper, walker, market_halt_nn):
    for spec in (flipper, walker):
        structure = build_structure(spec, market_halt_nn=market_halt_nn)
        assert len(structure.resource_kinds) == len(structure.resource_names)
        for name, kind in zip(structure.resource_names, structure.resource_kinds):
            prefix = {"alpha": "a", "beta": "b"}.get(kind, kind)
            assert name.startswith(prefix)
        assert ("nn_halt" in structure.resource_kinds) == market_halt_nn


def test_player_specific_tables_cover_exactly_the_potential_users(flipper, walker):
    for spec in (flipper, walker):
        game = compile_tm_player_specific(spec).game
        for e, users in enumerate(game.potential_users()):
            assert len(users) <= 2
            for player, table in enumerate(game.delays[e]):
                expected = set(range(1, len(users) + 1)) if player in users else set()
                assert set(table) == expected


def test_potential_users_match_a_scan_of_every_strategy(walker):
    game = compile_tm_weighted(walker).game
    for e, users in enumerate(game.potential_users()):
        assert users == [
            i for i, strats in enumerate(game.strategies)
            if any(e in s for s in strats)
        ]


@pytest.fixture(scope="module")
def seed1_machines(tmp_path_factory):
    """The machines of the seed-1 ``tm-wcg`` pool."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from inputs import make_inputs

        manifest = make_inputs("tm-wcg", 1, tmp_path_factory.mktemp("tm-wcg"))
    return [parse_tm_file(Path(item["machine"]).read_text()) for item in manifest["items"]]


@pytest.mark.parametrize("market_halt_nn", [False, True])
def test_index_blocks_build_the_structure_interning_builds(
        flipper, walker, halter, halter3, seed1_machines, market_halt_nn):
    wrapped = wrap_machine(halter, "", 1, halt_is_accept=True)
    for spec in (flipper, walker, halter, halter3, *seed1_machines, wrapped):
        assert (build_structure(spec, market_halt_nn=market_halt_nn)
                == gadget_structure_by_name(spec, market_halt_nn=market_halt_nn))
