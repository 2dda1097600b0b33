"""Has-pure searches players over the interaction graph.

``pure_ne_search`` checks each player once the last of its interacting
players is placed. Here its answers and witnesses are compared with
``brute_force_pure_nes``, which scans every profile pointwise, on
hypothesis-random table, congestion (shared, weighted and player-specific),
anonymous and market games: the small games of the code-walk test, where
nearly every player interacts with every other, larger sparse ones, where
many checks fall before the last player, and the markets of random 3-CNF
formulas, which lack an equilibrium exactly when unsatisfiable.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from sinkeq.cnf import CnfFormula
from sinkeq.compilers import compile_sat_market
from sinkeq.dynamics import pure_ne_search
from sinkeq.errors import CapExceededError
from sinkeq.games import CongestionGame, TwoSidedMarketGame
from sinkeq.games.anonymous import AnonymousGame, AnonymousPlayer, Cmp, Const, Count
from sinkeq.games.market import ActiveAgent, PassiveAgent

from _oracles import brute_force_pure_nes
from test_code_walk import RANDOM_GAMES


def sparse_congestion(rng, mode, weighted=True):
    """5-6 players, each strategy one or two of 6-9 resources; shared
    delays read weighted loads unless ``weighted`` is false."""
    n, n_res = rng.randint(5, 6), rng.randint(6, 9)
    strategies = [
        [rng.sample(range(n_res), rng.randint(1, 2)) for _ in range(rng.randint(2, 3))]
        for _ in range(n)
    ]
    if mode == "shared":
        weights = [rng.randint(1, 3) if weighted else 1 for _ in range(n)]
        delays = [{load: rng.randint(0, 9) for load in range(1, sum(weights) + 1)}
                  for _ in range(n_res)]
    else:
        weights = None
        delays = [[{c: rng.randint(0, 9) for c in range(1, n + 1)} for _ in range(n)]
                  for _ in range(n_res)]
    return CongestionGame([f"e{e}" for e in range(n_res)], strategies, delays,
                          weights=weights, mode=mode)


def sparse_anonymous(rng):
    """4-6 players over 4-5 strategies, each rule reading one or two counts."""
    k = rng.randint(4, 5)
    players = []
    for i in range(rng.randint(4, 6)):
        allowed = frozenset(rng.sample(range(k), rng.randint(1, k)))
        rules = []
        for _ in range(rng.randint(0, 2)):
            lhs = Count(rng.randrange(k))
            rhs = Count(rng.randrange(k)) if rng.random() < 0.5 else Const(rng.randint(0, 3))
            rules.append((rng.choice(sorted(allowed)),
                          Cmp(rng.choice(["==", "<", ">", "<=", ">="]), lhs, rhs)))
        players.append(AnonymousPlayer(f"p{i}", allowed, tuple(rules)))
    return AnonymousGame([f"s{j}" for j in range(k)], players)


def sparse_market(rng):
    """5-6 active agents, each strategy at most two of 6-9 passive agents."""
    n_active, n_passive = rng.randint(5, 6), rng.randint(6, 9)
    passive = []
    for y in range(n_passive):
        order = list(range(n_active))
        rng.shuffle(order)
        passive.append(PassiveAgent(f"y{y}", rng.randint(1, 9), tuple(order)))
    active = [
        ActiveAgent(f"x{x}", tuple(
            frozenset(rng.sample(range(n_passive), rng.randint(0, 2)))
            for _ in range(rng.randint(2, 3))
        ))
        for x in range(n_active)
    ]
    return TwoSidedMarketGame(passive, active)


def sat_market(rng):
    """1-2 variables and 2-3 clauses, each a random clause or, half the
    time, one literal three times, so that some are unsatisfiable."""
    num_vars = rng.randint(1, 2)

    def literal():
        return rng.choice([1, -1]) * rng.randint(1, num_vars)

    clauses = tuple((literal(),) * 3 if rng.random() < 0.5 else
                    (literal(), literal(), literal()) for _ in range(rng.randint(2, 3)))
    return compile_sat_market(CnfFormula(num_vars, clauses)).game


GAMES = dict(RANDOM_GAMES, **{
    "sparse-congestion-shared": lambda rng: sparse_congestion(rng, "shared"),
    "sparse-congestion-player-specific": lambda rng: sparse_congestion(rng, "player_specific"),
    "sparse-market": sparse_market,
    "sat-market": sat_market,
})


@pytest.mark.parametrize("kind", sorted(GAMES))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_search_agrees_with_brute_force(kind, seed):
    game = GAMES[kind](random.Random(seed))
    code, nodes = pure_ne_search(game)
    equilibria = brute_force_pure_nes(game)
    assert (code is not None) == bool(equilibria)
    if code is not None:
        assert game.codec.decode(code) in equilibria
    assert nodes >= 1


@pytest.mark.parametrize("kind", ["sparse-anonymous", "sparse-congestion-shared",
                                  "sparse-congestion-player-specific", "sparse-market"])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_only_interacting_players_change_a_row(kind, seed):
    rng = random.Random(seed)
    game = sparse_anonymous(rng) if kind == "sparse-anonymous" else GAMES[kind](rng)
    counts = game.strategy_counts
    for player, near in enumerate(game.interacting_players()):
        assert player in near
        for _ in range(5):
            profile = tuple(rng.randrange(c) for c in counts)
            row = list(game.deviation_utilities(profile, player))
            for other in set(range(game.num_players)) - set(near):
                for s in range(counts[other]):
                    moved = profile[:other] + (s,) + profile[other + 1:]
                    assert list(game.deviation_utilities(moved, player)) == row


def test_a_player_whose_rules_read_no_count_interacts_only_with_itself():
    game = AnonymousGame(["a", "b"], [
        AnonymousPlayer("reader", frozenset({0, 1}), ((0, Cmp(">=", Count(1), Const(1))),)),
        AnonymousPlayer("constant", frozenset({0, 1}), ((1, Cmp("==", Const(0), Const(0))),)),
        AnonymousPlayer("ruleless", frozenset({0}), ()),
    ])
    assert game.interacting_players() == [{0, 1, 2}, {1}, {2}]


def test_the_cap_bounds_search_nodes():
    rng = random.Random(3)
    game = next(g for g in (sparse_market(rng) for _ in range(100))
                if pure_ne_search(g)[1] > 10)
    code, nodes = pure_ne_search(game)
    assert pure_ne_search(game, cap=nodes) == (code, nodes)
    with pytest.raises(CapExceededError, match=f"cap of {nodes - 1} nodes") as info:
        pure_ne_search(game, cap=nodes - 1)
    assert info.value.explored == nodes - 1
