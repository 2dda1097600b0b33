"""The machine gadget prices each resource by the kind it was created with."""

import pytest

from sinkeq.compilers import compile_tm_player_specific, compile_tm_weighted
from sinkeq.compilers.tm_gadget import build_structure


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
