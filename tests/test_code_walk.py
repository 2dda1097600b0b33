"""The full-space pass walks profile codes and gives the tuple walk's Closure.

``state_space`` runs Tarjan over the codes 0 … num_profiles−1, with each
code's successors from ``StateGraph.code_adjacency`` (rows read once per
line, moves found by the layer rule), and returns that Closure over codes.
Here it is compared, field by field, with a naive pass over tuple profiles
in code order, expanded through ``StateGraph.successors`` (the per-row
rule), its profiles mapped through ``ProfileCodec.encode``. The games are
hypothesis-random table, congestion, anonymous, market and valid-utility
games under both semantics: tables with payoffs in {0, 1}, whose ties make
best response differ from improvement, a player with one strategy, and
games with a single profile among them.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sinkeq.dynamics import EdgeSemantics, StateGraph, _tarjan, state_space
from sinkeq.games import TableGame

from test_eval_once import random_anonymous, random_congestion, random_market
from test_valid_utility_dynamics import random_coverage


def random_table(rng, counts):
    size = math.prod(counts)
    return TableGame(counts, [[rng.randint(0, 3) for _ in range(size)] for _ in counts])


def one_strategy_player(rng):
    counts = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
    counts[rng.randrange(len(counts))] = 1
    return random_table(rng, counts)


RANDOM_GAMES = {
    "table": lambda rng: TableGame.random(rng, max_players=4, max_profiles=96),
    "table-ties": lambda rng: TableGame.random(rng, max_players=4, max_profiles=96,
                                               payoff_range=(0, 1)),
    "table-one-strategy-player": one_strategy_player,
    "table-one-profile": lambda rng: random_table(rng, [1] * rng.randint(1, 3)),
    "valid-utility": random_coverage,
    "congestion-shared": lambda rng: random_congestion(rng, "shared"),
    "congestion-player-specific": lambda rng: random_congestion(rng, "player_specific"),
    "anonymous": random_anonymous,
    "market": random_market,
}


def tuple_walk(graph):
    """Every profile in code order as a root, expanded as tuples."""
    codec = graph.codec
    profiles = [codec.decode(k) for k in range(codec.num_profiles)]
    return _tarjan(profiles, lambda v: [w for w, _ in graph.successors(v)])


@pytest.mark.parametrize("kind", sorted(RANDOM_GAMES))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_code_walk_matches_the_tuple_walk(kind, seed):
    game = RANDOM_GAMES[kind](random.Random(seed))
    for semantics in EdgeSemantics:
        graph = StateGraph(game, semantics)
        walked, naive = state_space(graph), tuple_walk(graph)
        encode = game.codec.encode
        assert walked.exhausted and naive.exhausted
        assert walked.states == list(map(encode, naive.states))
        assert walked.index == {encode(v): k for v, k in naive.index.items()}
        assert walked.successors == naive.successors
        assert walked.components == [list(map(encode, c)) for c in naive.components]
        assert walked.sinks == [list(map(encode, c)) for c in naive.sinks]
        assert walked.edges == naive.edges


def test_the_pass_releases_each_successor_list_once_read(monkeypatch):
    game = TableGame.random(random.Random(3), max_players=4, max_profiles=96)
    built = []
    adjacency = StateGraph.code_adjacency

    def keep(graph):
        built.append(adjacency(graph))
        return built[-1]

    monkeypatch.setattr(StateGraph, "code_adjacency", keep)
    closure = state_space(StateGraph(game))
    assert closure.edges > 0
    assert built[0] == [None] * game.codec.num_profiles


def test_successor_lists_share_one_object_per_code():
    rng = random.Random(1)
    game = TableGame((3,) * 8, [[rng.randint(0, 9) for _ in range(3 ** 8)] for _ in range(8)])
    seen: dict[int, int] = {}
    for out in StateGraph(game).code_adjacency():
        for code in out:
            assert seen.setdefault(code, code) is code
    assert len(seen) > 256  # above the interpreter's cached small ints
