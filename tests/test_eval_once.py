"""Evaluation reads one per-profile aggregate, and each command parses once.

Congestion, anonymous and market games keep the loads, the histogram or the
top two demanders of the last profile they evaluated. These tests call the
evaluation hooks in interleaved order (profile A player 0, profile B player
0, A player 1, ...) so that a slot answering for the wrong profile shows,
and compare every answer with an evaluation that shares no state with the
slot. The delay-coverage check keeps its messages, CLI ``in-sink --profile
@initial`` parses the game document once, and the names the benchmark's
tracer patches stay where it looks for them.
"""

import io
import random

import pytest
from hypothesis import given, settings, strategies as st

import sinkeq.io
from sinkeq.cli import run_cli
from sinkeq.compilers import compile_tm_weighted
from sinkeq.dynamics import StateGraph, forward_closure
from sinkeq.errors import ConfigurationError
from sinkeq.games import (
    AnonymousGame,
    AnonymousPlayer,
    Cmp,
    CongestionGame,
    Const,
    Count,
    TableGame,
    TwoSidedMarketGame,
)
from sinkeq.games.market import ActiveAgent, PassiveAgent
from sinkeq.io import serialize_game, serialize_sidecar

from _oracles import congestion_cost_by_resource, market_utility_by_winner_sets


def moved(profile, player, strategy):
    return profile[:player] + (strategy,) + profile[player + 1:]


def interleaved(num_players, a, b):
    """(profile, player) pairs in the order A 0, B 0, A 1, B 1, ..."""
    return [(p, i) for i in range(num_players) for p in (a, b)]


# --- the weighted gadget of the walker machine ------------------------------


def test_gadget_closure_matches_fresh_loads(walker):
    compiled = compile_tm_weighted(walker)
    game = compiled.game
    states = forward_closure(StateGraph(game), compiled.initial).states
    assert len(states) > 100
    pairs = []
    for k in range(0, len(states) - 1, 2):
        pairs += interleaved(game.num_players, states[k], states[k + 1])
    for profile, player in pairs:
        costs = [-u for u in game.deviation_utilities(profile, player)]
        assert costs == [
            congestion_cost_by_resource(game, moved(profile, player, s), player)
            for s in range(game.strategy_counts[player])
        ], (profile, player)
        assert game.cost(profile, player) == costs[profile[player]]


# --- hypothesis-random games --------------------------------------------------


def random_congestion(rng, mode):
    n = rng.randint(2, 4)
    n_res = rng.randint(1, 4)
    strategies = [
        [[e for e in range(n_res) if rng.random() < 0.5] for _ in range(rng.randint(1, 3))]
        for _ in range(n)
    ]
    if mode == "shared":
        weights = [rng.randint(1, 3) for _ in range(n)]
        delays = [{load: rng.randint(0, 9) for load in range(1, sum(weights) + 1)}
                  for _ in range(n_res)]
    else:
        weights = None
        delays = [[{c: rng.randint(0, 9) for c in range(1, n + 1)} for _ in range(n)]
                  for _ in range(n_res)]
    return CongestionGame([f"e{e}" for e in range(n_res)], strategies, delays,
                          weights=weights, mode=mode)


def random_anonymous(rng):
    k = rng.randint(2, 3)
    players = []
    for i in range(rng.randint(2, 4)):
        allowed = frozenset(s for s in range(k) if rng.random() < 0.7) or frozenset({0})
        rules = tuple(
            (rng.choice(sorted(allowed)),
             Cmp(rng.choice(["==", "<", ">", "<=", ">="]),
                 Count(rng.randrange(k)), Const(rng.randint(0, 3))))
            for _ in range(rng.randint(0, 3))
        )
        players.append(AnonymousPlayer(f"p{i}", allowed, rules))
    return AnonymousGame([f"s{j}" for j in range(k)], players)


def random_market(rng):
    n_passive = rng.randint(1, 4)
    n_active = rng.randint(2, 4)
    passive = []
    for y in range(n_passive):
        order = list(range(n_active))
        rng.shuffle(order)
        passive.append(PassiveAgent(f"y{y}", rng.randint(1, 9), tuple(order)))
    active = [
        ActiveAgent(f"x{x}", tuple(
            frozenset(y for y in range(n_passive) if rng.random() < 0.5)
            for _ in range(rng.randint(1, 3))
        ))
        for x in range(n_active)
    ]
    return TwoSidedMarketGame(passive, active)


def congestion_utility(game, profile, player):
    return -congestion_cost_by_resource(game, profile, player)


def anonymous_utility(game, profile, player):
    """From the definition: 0 if disallowed, 2 if one of its rules fires, else 1."""
    hist = [profile.count(s) for s in range(len(game.strategy_names))]
    spec = game.players[player]
    choice = profile[player]
    if choice not in spec.allowed:
        return 0
    return 2 if any(s == choice and pred.eval(hist) for s, pred in spec.rules) else 1


def market_winners(game, profile):
    """Most preferred demander of each passive agent, scanning every agent."""
    winners = []
    for y, passive in enumerate(game.passive):
        demanders = [x for x, c in enumerate(profile) if y in game.active[x].strategies[c]]
        winners.append(min(demanders, key=passive.preference.index) if demanders else None)
    return winners


KINDS = {
    "shared": (lambda rng: random_congestion(rng, "shared"), congestion_utility),
    "player_specific": (lambda rng: random_congestion(rng, "player_specific"),
                        congestion_utility),
    "anonymous": (random_anonymous, anonymous_utility),
    "market": (random_market, market_utility_by_winner_sets),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_random_games_match_oracle_interleaved(kind, seed):
    rng = random.Random(seed)
    build, reference = KINDS[kind]
    game = build(rng)
    profiles = list(game.codec.all_profiles())
    rng.shuffle(profiles)
    for k in range(0, len(profiles), 2):
        a, b = profiles[k], profiles[(k + 1) % len(profiles)]
        for profile, player in interleaved(game.num_players, a, b):
            expected = [
                reference(game, moved(profile, player, s), player)
                for s in range(game.strategy_counts[player])
            ]
            assert game.deviation_utilities(profile, player) == expected, (profile, player)
            assert game.utility(profile, player) == expected[profile[player]]
            if kind == "market":
                assert game.compute_winners(profile) == market_winners(game, profile)


def test_list_profiles_are_evaluated_afresh():
    game = CongestionGame(["e", "f"], [[[0], [1]], [[0]]],
                          [{1: 1, 2: 5}, {1: 2}])
    profile = [0, 0]
    assert game.cost(profile, 1) == 5
    profile[0] = 1
    assert game.cost(profile, 1) == 1


# --- delay coverage: the same errors with the same messages ------------------


@pytest.mark.parametrize("resources, strategies, delays, options, message", [
    (["e", "f"], [[[0], [1]], [[1]]], [{1: 0, 2: 0, 3: 0}, {2: 1}], {"weights": [1, 2]},
     "resource f: no delay for reachable load(s) [1, 3]"),
    (["e"], [[[0]], [[], [0]], [[0]]],
     [[{1: 0, 2: 0, 3: 0}, {1: 0, 2: 0}, {1: 0, 2: 0, 3: 0}]], {"mode": "player_specific"},
     "resource e: player 1 has no delay for reachable count(s) [3]"),
    (["e"], [[[0]], [[0]], [[], [0]]], [{1: 0, 2: 0, 3: 0, 4: 0, 6: 0}],
     {"weights": [1, 2, 4]},
     "resource e: no delay for reachable load(s) [5, 7]"),
    (["e", "f", "g"], [[[0], [1]], [[0], [1], [2]]], [{1: 0, 2: 0}, {1: 0}, {1: 0, 2: 0}], {},
     "resource f: no delay for reachable load(s) [2]"),
    # a hole that a subset sum reaches, and the first load past a full prefix
    (["e"], [[[0]], [[0]]], [{1: 0, 3: 0, 4: 0}], {"weights": [1, 2]},
     "resource e: no delay for reachable load(s) [2]"),
    (["e"], [[[0]], [[0]]], [{1: 0, 2: 0, 7: 0}], {"weights": [1, 2]},
     "resource e: no delay for reachable load(s) [3]"),
    # resources are checked in ascending order, not in the order players read them
    (["e", "f"], [[[1]], [[0]]], [{2: 0}, {2: 0}], {},
     "resource e: no delay for reachable load(s) [1]"),
    (["e"], [[[0]], [[0]], [[0]]],
     [[{1: 0, 2: 0, 3: 0}, {1: 0, 3: 0}, {1: 0, 2: 0, 3: 0}]], {"mode": "player_specific"},
     "resource e: player 1 has no delay for reachable count(s) [2]"),
    (["e"], [[[0]], [[0]]], [[{1: 0, 2: 0}, {1: 0}]], {"mode": "player_specific"},
     "resource e: player 1 has no delay for reachable count(s) [2]"),
], ids=["non-first-strategy", "player-specific-count", "weighted-subset-sum",
        "weights-seen-before", "reachable-hole", "past-the-prefix", "ascending-resources",
        "player-specific-hole", "player-specific-past-the-prefix"])
def test_delay_coverage_messages(resources, strategies, delays, options, message):
    with pytest.raises(ConfigurationError) as info:
        CongestionGame(resources, strategies, delays, **options)
    assert str(info.value) == message


@pytest.mark.parametrize("strategies, delays, options", [
    # weights 1 and 3 reach loads 1, 3 and 4 only: the hole at 2 is never read
    ([[[0]], [[0]]], [{1: 0, 3: 0, 4: 0}], {"weights": [1, 3]}),
    # a table holding every load up to the users' total weight, and more
    ([[[0]], [[0]]], [{1: 0, 2: 0, 3: 0}], {"weights": [1, 2]}),
    ([[[0]], [[0], []]], [{1: 0, 2: 0, 5: 0}], {}),
    # a resource nobody can use needs no table entries
    ([[[0]], [[0]]], [{1: 0, 2: 0}, {}], {}),
    # player-specific: each user's table covers the user count; a non-user's is empty
    ([[[0]], [[0]], [[1]]], [[{1: 0, 2: 0}, {1: 0, 2: 0, 9: 0}, {}], [{}, {}, {1: 0}]],
     {"mode": "player_specific"}),
], ids=["unreachable-hole", "full-prefix", "longer-table", "unused-resource",
        "player-specific"])
def test_delay_coverage_accepts_every_read_load(strategies, delays, options):
    game = CongestionGame([f"e{k}" for k in range(len(delays))], strategies, delays,
                          **options)
    for profile in game.codec.all_profiles():
        for player in range(game.num_players):
            game.deviation_utilities(profile, player)


# --- one parse per command ----------------------------------------------------


@pytest.mark.parametrize("command", [
    ["in-sink", "--profile", "@initial"],
    ["simulate", "--profile", "@initial", "--max-steps", "5"],
])
def test_initial_profile_parses_the_game_once(flipper, tmp_path, monkeypatch, command):
    compiled = compile_tm_weighted(flipper)
    game_path = tmp_path / "gadget.json"
    game_path.write_text(serialize_game(compiled.game))
    (tmp_path / "gadget.symbols.json").write_text(serialize_sidecar(compiled))
    calls = []
    parse = sinkeq.io.parse_game_file

    def counting(text):
        calls.append(len(text))
        return parse(text)

    monkeypatch.setattr(sinkeq.io, "parse_game_file", counting)
    out, err = io.StringIO(), io.StringIO()
    assert run_cli([command[0], str(game_path), *command[1:]], out=out, err=err) in (0, 2)
    assert len(calls) == 1


# --- names the benchmark's tracer patches -------------------------------------


def test_tracer_contract():
    for cls in (TableGame, CongestionGame, AnonymousGame, TwoSidedMarketGame):
        assert "deviation_utilities" in vars(cls), cls.__name__
    assert callable(vars(StateGraph)["improving_moves"])
