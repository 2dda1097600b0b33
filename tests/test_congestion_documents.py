"""A congestion game and its document read back are the same game.

Each compiled machine gadget, weighted and player-specific, and random games
in both delay modes are written, read back and compared field by field, by
the footprint readers, by every row at one profile, and by their documents.
Equal delay tables in one document load as one dict.
"""

import random
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from sinkeq.compilers import compile_tm_player_specific, compile_tm_weighted
from sinkeq.games.congestion import SHARED
from sinkeq.io import parse_game_file, serialize_game

from test_eval_once import random_congestion


def read_back(game, profile):
    text = serialize_game(game)
    again = parse_game_file(text)
    assert again.mode == game.mode
    assert again.resources == game.resources
    assert again.strategies == game.strategies
    assert again.weights == game.weights
    assert again.delays == game.delays
    assert again._tables == game._tables
    assert again._entry_readers() == game._entry_readers()
    for player in range(game.num_players):
        assert (again.deviation_utilities(profile, player)
                == game.deviation_utilities(profile, player))
    assert serialize_game(again) == text
    return again


def assert_equal_tables_are_one_dict(game):
    tables = game.delays if game.mode == SHARED else chain.from_iterable(game.delays)
    first = {}
    for table in tables:
        assert first.setdefault(tuple(sorted(table.items())), table) is table


@pytest.mark.parametrize("compile_game", [compile_tm_weighted, compile_tm_player_specific],
                         ids=["tm2wcg", "tm2psg"])
@pytest.mark.parametrize("machine", ["flipper", "walker", "halter", "halter3"])
def test_a_compiled_gadget_reads_back_as_the_same_game(request, compile_game, machine):
    compiled = compile_game(request.getfixturevalue(machine))
    again = read_back(compiled.game, compiled.initial)
    assert_equal_tables_are_one_dict(again)


@pytest.mark.parametrize("mode", ["shared", "player_specific"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_a_random_game_reads_back_as_the_same_game(mode, seed):
    rng = random.Random(seed)
    game = random_congestion(rng, mode)
    profile = tuple(rng.randrange(count) for count in game.strategy_counts)
    again = read_back(game, profile)
    assert_equal_tables_are_one_dict(again)
