"""The full-space pass walks profile codes and gives the tuple walk's Closure.

``state_space`` runs Tarjan over the codes 0 … num_profiles−1, with each
code's successors from ``StateGraph.code_adjacency`` (each player's layers
from the game's ``code_layers``, moves found by the layer rule), and
returns that Closure over codes.
Here it is compared, field by field, with a naive pass over tuple profiles
in code order, expanded through ``_oracles.successors_pointwise`` (the
definition, on ``game.utility``), its profiles mapped through
``ProfileCodec.encode``. The games are hypothesis-random table, congestion,
anonymous, market and valid-utility games under both semantics: tables
with payoffs in {0, 1}, whose ties make best response differ from
improvement, a player with one strategy, and games with a single profile
among them. On the same games the row oracle
(``_oracles.successors_by_rows``), the reference of the compiled-gadget
tests, is checked against the pointwise one. A table's layers, slices of
its tables (``ProfileCodec.layer``), are checked against the default hook's
per-line read on random tables.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sinkeq.dynamics import EdgeSemantics, StateGraph, _tarjan, state_space
from sinkeq.games import SuccinctGame, TableGame

from _oracles import successors_by_rows, successors_pointwise
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


def tuple_walk(game, semantics):
    """Every profile in code order as a root, expanded as tuples."""
    codec = game.codec
    profiles = [codec.decode(k) for k in range(codec.num_profiles)]
    best_response = semantics is EdgeSemantics.BEST_RESPONSE
    return _tarjan(profiles,
                   lambda v: [w for w, _ in successors_pointwise(game, v, best_response)])


@pytest.mark.parametrize("kind", sorted(RANDOM_GAMES))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_code_walk_matches_the_tuple_walk(kind, seed):
    game = RANDOM_GAMES[kind](random.Random(seed))
    for semantics in EdgeSemantics:
        walked, naive = state_space(StateGraph(game, semantics)), tuple_walk(game, semantics)
        encode = game.codec.encode
        assert walked.exhausted and naive.exhausted
        assert walked.states == list(map(encode, naive.states))
        assert walked.index == {encode(v): k for v, k in naive.index.items()}
        assert walked.successors == naive.successors
        assert walked.components == [list(map(encode, c)) for c in naive.components]
        assert walked.sinks == [list(map(encode, c)) for c in naive.sinks]
        assert walked.edges == naive.edges


@pytest.mark.parametrize("kind", sorted(RANDOM_GAMES))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_the_row_oracle_matches_the_pointwise_oracle(kind, seed):
    game = RANDOM_GAMES[kind](random.Random(seed))
    for best_response in (False, True):
        for profile in game.codec.all_profiles():
            assert (successors_by_rows(game, profile, best_response)
                    == successors_pointwise(game, profile, best_response))


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


@settings(max_examples=80, deadline=None)
@given(counts=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=6),
       seed=st.integers(min_value=0, max_value=10**6))
def test_table_layers_are_the_per_line_read(counts, seed):
    game = random_table(random.Random(seed), counts)
    codec = game.codec
    size = codec.num_profiles
    for p, (weight, count) in enumerate(zip(codec.place_weights, counts)):
        # the table's slices against the default hook's rows read at each base
        assert (list(map(list, game.code_layers(p)))
                == list(map(list, SuccinctGame.code_layers(game, p))))
        lines = size // count
        for s in range(count):
            assert codec.layer(range(size), p, s) == [
                k for k in range(size) if k // weight % count == s]
            # the layout with fewer slices: w strided, or one block per line group
            assert len(codec.line_slices(p, s)) == min(weight, lines // weight)
