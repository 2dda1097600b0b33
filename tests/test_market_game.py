import random

import pytest

from sinkeq.errors import ConfigurationError
from sinkeq.games.market import ActiveAgent, PassiveAgent, TwoSidedMarketGame

from _oracles import market_utility_by_winner_sets


def test_sole_demander_wins():
    game = TwoSidedMarketGame(
        [PassiveAgent("y1", 10, (0,))],
        [ActiveAgent("x0", (frozenset({0}),))],
    )
    assert game.compute_winners((0,)) == [0]
    assert game.utility((0,), 0) == 10


def test_preference_breaks_contention():
    # three agents all demanding y, preference x2 > x0 > x1
    game = TwoSidedMarketGame(
        [PassiveAgent("y", 5, (2, 0, 1))],
        [ActiveAgent(f"x{i}", (frozenset({0}),)) for i in range(3)],
    )
    assert game.compute_winners((0, 0, 0)) == [2]


def test_clause_gadget_zero_strategies_split_markets():
    # C on {a, b}, K on {a}: a prefers K, so K takes a and C keeps b.
    game = TwoSidedMarketGame(
        [
            PassiveAgent("a", 305, (1, 0)),
            PassiveAgent("b", 8, (0, 1)),
        ],
        [
            ActiveAgent("C", (frozenset({0, 1}),)),
            ActiveAgent("K", (frozenset({0}),)),
        ],
    )
    winners = game.compute_winners((0, 0))
    assert winners == [1, 0]
    assert game.utility((0, 0), 1) == 305
    assert game.utility((0, 0), 0) == 8


def test_undemanded_market_has_no_winner():
    game = TwoSidedMarketGame(
        [PassiveAgent("y", 3, (0,))],
        [ActiveAgent("x", (frozenset(), frozenset({0})))],
    )
    assert game.compute_winners((0,)) == [None]
    assert game.utility((0,), 0) == 0


def test_utility_and_deviations_match_the_winner_set_oracle():
    rng = random.Random(11)
    for _ in range(20):
        n_passive = rng.randint(1, 4)
        n_active = rng.randint(1, 3)
        passive = []
        for y in range(n_passive):
            order = list(range(n_active))
            rng.shuffle(order)
            passive.append(PassiveAgent(f"y{y}", rng.randint(1, 9), tuple(order)))
        active = [
            ActiveAgent(
                f"x{x}",
                tuple(
                    frozenset(y for y in range(n_passive) if rng.random() < 0.5)
                    for _ in range(rng.randint(1, 3))
                ),
            )
            for x in range(n_active)
        ]
        game = TwoSidedMarketGame(passive, active)
        for profile in game.codec.all_profiles():
            for player in range(n_active):
                assert game.utility(profile, player) == (
                    market_utility_by_winner_sets(game, profile, player)
                )
                devs = game.deviation_utilities(profile, player)
                for s in range(len(active[player].strategies)):
                    moved = profile[:player] + (s,) + profile[player + 1:]
                    assert devs[s] == game.utility(moved, player)


def test_incomplete_preference_rejected():
    with pytest.raises(ConfigurationError, match="omits"):
        TwoSidedMarketGame(
            [PassiveAgent("y", 1, (0,))],
            [
                ActiveAgent("x0", (frozenset({0}),)),
                ActiveAgent("x1", (frozenset({0}),)),
            ],
        )


def test_preference_omitting_a_demander_is_rejected():
    # x1 and x2 demand y (x2 only through its second strategy); y ranks only x1.
    with pytest.raises(ConfigurationError) as info:
        TwoSidedMarketGame(
            [PassiveAgent("y", 5, (1,)), PassiveAgent("z", 5, (0, 1, 2))],
            [
                ActiveAgent("x0", (frozenset({1}),)),
                ActiveAgent("x1", (frozenset({0, 1}),)),
                ActiveAgent("x2", (frozenset({1}), frozenset({0}))),
            ],
        )
    assert str(info.value) == "passive agent y: preference omits demander(s) [2]"


@pytest.mark.parametrize("strategies, message", [
    ((frozenset(), frozenset({1})), "agent x1 strategy 1: passive index 1 out of range"),
    ((frozenset({-1}),), "agent x1 strategy 0: passive index -1 out of range"),
    ((), "agent x1: no strategies"),
], ids=["past-the-last", "negative", "none"])
def test_a_bad_strategy_is_named_after_the_agents_before_it(strategies, message):
    # x0 is well formed: the first faulty agent is named
    y = PassiveAgent("y", 1, (0, 1))
    with pytest.raises(ConfigurationError) as info:
        TwoSidedMarketGame([y], [ActiveAgent("x0", (frozenset({0}),)),
                                 ActiveAgent("x1", strategies)])
    assert str(info.value) == message
