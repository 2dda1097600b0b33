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
    with pytest.raises(ConfigurationError, match="undeclared"):
        shared_game(["e"], [[[1]]], [{1: 0}])


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
