import random

import pytest
from hypothesis import given, settings, strategies as st

from sinkeq.errors import ConfigurationError, UnsupportedGameError
from sinkeq.games.congestion import PLAYER_SPECIFIC, CongestionGame

from _oracles import congestion_cost_by_resource


def shared_game(resources, strategies, delays, weights=None):
    return CongestionGame(resources, strategies, delays, weights=weights)


def test_both_players_share_one_resource():
    game = shared_game(
        ["e"], [[[0]], [[0]]], [{1: 1, 2: 5}],
    )
    assert game.cost((0, 0), 0) == 5
    assert game.cost((0, 0), 1) == 5
    assert game.utility((0, 0), 0) == -5


def test_weighted_load_sums_weights():
    game = shared_game(
        ["e"], [[[0]], [[0]]], [{1: 0, 2: 0, 3: 7}], weights=[1, 2],
    )
    assert game.cost((0, 0), 0) == 7
    assert game.cost((0, 0), 1) == 7


def test_random_instances_match_per_resource_oracle():
    rng = random.Random(42)
    for _ in range(25):
        n_res = rng.randint(1, 4)
        strategies = []
        for _player in range(3):
            strats = []
            for _ in range(rng.randint(1, 3)):
                strats.append([e for e in range(n_res) if rng.random() < 0.6])
            strategies.append(strats)
        delays = [
            {load: rng.randint(0, 9) for load in range(1, 4)}
            for _ in range(n_res)
        ]
        game = shared_game([f"r{e}" for e in range(n_res)], strategies, delays)
        for profile in game.codec.all_profiles():
            for player in range(3):
                assert game.cost(profile, player) == congestion_cost_by_resource(
                    game, profile, player
                )


def test_deviation_costs_match_pointwise_eval():
    rng = random.Random(7)
    game = shared_game(
        ["a", "b", "c"],
        [[[0], [1], [0, 2]], [[1, 2], [0]], [[2], [0, 1]]],
        [{1: 1, 2: 4, 3: 9}, {1: 0, 2: 2, 3: 5}, {1: 3, 2: 3, 3: 8}],
    )
    for profile in game.codec.all_profiles():
        for player in range(3):
            devs = game.deviation_utilities(profile, player)
            for s, utility in enumerate(devs):
                moved = profile[:player] + (s,) + profile[player + 1:]
                assert -utility == game.cost(moved, player)


def test_missing_delay_for_reachable_load_rejected():
    with pytest.raises(ConfigurationError, match="reachable"):
        shared_game(["e"], [[[0]], [[0]]], [{1: 0}])


def test_missing_weighted_subset_sum_rejected():
    # loads 1, 2, 3 are all reachable with weights (1, 2)
    with pytest.raises(ConfigurationError):
        shared_game(["e"], [[[0], []], [[0], []]], [{1: 0, 3: 7}], weights=[1, 2])


def test_undeclared_resource_rejected():
    with pytest.raises(ConfigurationError) as info:
        shared_game(["e"], [[[1]]], [{1: 0}])
    assert str(info.value) == "player 0 strategy 0 references undeclared resource 1"


PS = {"mode": PLAYER_SPECIFIC}


@pytest.mark.parametrize("resources, strategies, delays, options, message", [
    (["e"], [[[-1]]], [{1: 0}], {},
     "player 0 strategy 0 references undeclared resource -1"),
    (["e", "f"], [[[0, 1]], [[1], [2]]], [{1: 0, 2: 0}, {1: 0, 2: 0}], {},
     "player 1 strategy 1 references undeclared resource 2"),
    (["e"], [[[0]], []], [{1: 0, 2: 0}], {}, "player 1 has no strategies"),
    (["e", "e"], [[[0]]], [{1: 0}, {1: 0}], {}, "duplicate resource names"),
    (["e"], [[[0]]], [{1: 0}, {1: 0}], {}, "2 delay tables for 1 resources"),
    (["e"], [[[0]], [[0]]], [[{1: 0, 2: 0}]], PS,
     "resource e: expected one table per player"),
    (["e"], [[[0]]], [{0: 0, 1: 0}], {}, "resource e: load 0 not positive"),
    (["e"], [[[0]]], [{1: 0.5}], {}, "resource e: the delay at load 1 is 0.5, not an integer"),
    (["e"], [[[0]]], [{1.5: 0}], {}, "resource e: a load is 1.5, not an integer"),
    (["e"], [[[0]], [[0]]], [[{1: 0, 2: 0}, {1: 0, 2: True}]], PS,
     "resource e player 1: the delay at load 2 is True, not an integer"),
    (["e"], [[[0]]], [{1: 0}], {"mode": "both"}, "unknown delay mode 'both'"),
    (["e"], [[[0]], [[0]]], [{1: 0, 2: 0, 3: 0}], {"weights": [1, 0]},
     "weights must be positive, one per player"),
    (["e"], [[[0]], [[0]]], [{1: 0, 2: 0, 3: 0}], {"weights": [1, 2.0]},
     "player 1: weight is 2.0, not an integer"),
], ids=["index-minus-one", "index-n-res", "empty-player", "duplicate-names",
        "table-count", "tables-per-player", "load-zero", "fractional-delay",
        "fractional-load", "player-specific-bool-delay", "unknown-mode", "zero-weight",
        "float-weight"])
def test_refusal_messages(resources, strategies, delays, options, message):
    with pytest.raises(ConfigurationError) as info:
        CongestionGame(resources, strategies, delays, **options)
    assert str(info.value) == message


@pytest.mark.parametrize("strategies, message", [
    # two out-of-range indices: the first (player, strategy) is named
    ([[[0], [5]], [[7]]], "player 0 strategy 1 references undeclared resource 5"),
    # two non-int indices
    ([[[0], [1.5]], [[2.5]]], "player 0 strategy 1: resource index is 1.5, not an integer"),
    # a range fault before a type fault, and the reverse
    ([[[0], [5]], [[0.5]]], "player 0 strategy 1 references undeclared resource 5"),
    ([[[0], [True]], [[9]]], "player 0 strategy 1: resource index is True, not an integer"),
    # within one strategy the type check comes first
    ([[[9, 0.5]]], "player 0 strategy 0: resource index is 0.5, not an integer"),
    # an empty player before a bad index, and after one
    ([[[0]], [], [[9]]], "player 1 has no strategies"),
    ([[[0]], [[9]], []], "player 1 strategy 0 references undeclared resource 9"),
], ids=["range-range", "type-type", "range-type", "type-range", "one-strategy",
        "empty-range", "range-empty"])
def test_the_first_faulty_strategy_is_named(strategies, message):
    with pytest.raises(ConfigurationError) as info:
        shared_game(["e"], strategies, [{1: 0, 2: 0, 3: 0}])
    assert str(info.value) == message


BAD = {1: 0.5}  # one faulty table object, given for more than one resource


@pytest.mark.parametrize("delays, options, message", [
    ([{1: 0}, BAD, {1: 0.25}, BAD], {},
     "resource f: the delay at load 1 is 0.5, not an integer"),
    ([{1: 0}, {1: 0.25}, BAD, BAD], {},
     "resource f: the delay at load 1 is 0.25, not an integer"),
    # resource e's table fault comes before resource f's table count
    ([[{1: 0}, BAD], [{1: 0}], [BAD, BAD], [{1: 0}]], PS,
     "resource e player 1: the delay at load 1 is 0.5, not an integer"),
    ([[{1: 0}], [{1: 0}, BAD], [BAD, BAD], [{1: 0}]], PS,
     "resource e: expected one table per player"),
    ([[{1: 0}, {1: 0}], [{1: 0}, {-1: 0}], [BAD, BAD], [BAD, BAD]], PS,
     "resource f player 1: load -1 not positive"),
], ids=["shared-repeated-table", "shared-second-resource", "table-before-count",
        "count-before-table", "player-specific-second-resource"])
def test_the_first_faulty_table_is_named(delays, options, message):
    with pytest.raises(ConfigurationError) as info:
        CongestionGame(["e", "f", "g", "h"], [[[0, 1]], [[]]], delays, **options)
    assert str(info.value) == message


def test_player_specific_mode_uses_counts():
    game = CongestionGame(
        ["e"],
        [[[0]], [[0]]],
        [[{1: 1, 2: 5}, {1: 2, 2: 9}]],
        mode=PLAYER_SPECIFIC,
    )
    assert game.cost((0, 0), 0) == 5
    assert game.cost((0, 0), 1) == 9
    with pytest.raises(UnsupportedGameError):
        game.require_unweighted_shared("anything")


def test_player_specific_rejects_weights():
    with pytest.raises(ConfigurationError):
        CongestionGame(
            ["e"], [[[0]], [[0]]], [[{1: 0, 2: 0}, {1: 0, 2: 0}]],
            weights=[2, 1], mode=PLAYER_SPECIFIC,
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.data())
def test_additivity_property(seed, data):
    rng = random.Random(seed)
    n_res = rng.randint(1, 3)
    strategies = [
        [[e for e in range(n_res) if rng.random() < 0.7] for _ in range(2)]
        for _ in range(2)
    ]
    delays = [
        {load: rng.randint(0, 5) for load in range(1, 3)} for _ in range(n_res)
    ]
    game = shared_game([f"r{e}" for e in range(n_res)], strategies, delays)
    profile = tuple(
        data.draw(st.integers(min_value=0, max_value=1)) for _ in range(2)
    )
    for player in range(2):
        assert game.cost(profile, player) == congestion_cost_by_resource(
            game, profile, player
        )
