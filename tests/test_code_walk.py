"""The full-space engine's move unions hold exactly the pointwise moves.

``move_unions`` gives, for each player and step, a bitset of the codes
from which the player moves by that step (each player's layers from the
game's ``code_layers``, moves found by the layer rule). Read per code in
list order, the unions must give every code's successor codes in
canonical order, equal to ``_oracles.code_successors`` (the definition,
``successors_pointwise`` on ``game.utility``, in code order), and
``space_sinks`` must give the bottom SCCs of that oracle graph
(``_oracles.bitset_bottom_sccs``) by their lowest code. The games are
hypothesis-random table, congestion, anonymous, market and valid-utility
games under both semantics: tables with payoffs in {0, 1}, whose ties make
best response differ from improvement, a player with one strategy, and
games with a single profile among them. On the same games the row oracle
(``_oracles.successors_by_rows``), the reference of the compiled-gadget
tests, is checked against the pointwise one. A table's layers, slices of
its tables (``ProfileCodec.layer``), are checked against the default hook's
per-line read on random tables. On two-strategy players the best-response
layer rule is the improvement rule, and both agree with the per-row rules.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sinkeq.dynamics import (
    EdgeSemantics, StateGraph, _best_response_layers, _best_responses, _improvement_layers,
    _improvements, move_unions, space_sinks,
)
from sinkeq.games import SuccinctGame, TableGame

from _oracles import bitset_bottom_sccs, code_successors, successors_by_rows, successors_pointwise
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


def read_unions(unions, size):
    """Every code's successor codes, read bit by bit from the unions in
    list order."""
    return [[k + shift for shift, union in unions if union >> k & 1] for k in range(size)]


@pytest.mark.parametrize("kind", sorted(RANDOM_GAMES))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_move_unions_hold_the_pointwise_moves(kind, seed):
    game = RANDOM_GAMES[kind](random.Random(seed))
    size = game.codec.num_profiles
    for semantics in EdgeSemantics:
        graph = StateGraph(game, semantics)
        adjacency = code_successors(game, semantics is EdgeSemantics.BEST_RESPONSE)
        assert read_unions(move_unions(graph), size) == adjacency
        _, bottoms = bitset_bottom_sccs(size, adjacency.__getitem__)
        unions, found = space_sinks(graph)
        assert found == sorted(map(sorted, bottoms))
        assert sum(union.bit_count() for _, union in unions) == sum(map(len, adjacency))


@pytest.mark.parametrize("kind", sorted(RANDOM_GAMES))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_the_row_oracle_matches_the_pointwise_oracle(kind, seed):
    game = RANDOM_GAMES[kind](random.Random(seed))
    for best_response in (False, True):
        for profile in game.codec.all_profiles():
            assert (successors_by_rows(game, profile, best_response)
                    == successors_pointwise(game, profile, best_response))


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


@settings(max_examples=80, deadline=None)
@given(layers=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=12)
       .flatmap(lambda first: st.tuples(st.just(first), st.lists(
           st.integers(min_value=0, max_value=2), min_size=len(first), max_size=len(first)))))
def test_two_strategy_best_response_masks_are_improvement_masks(layers):
    # with one other strategy, a best-response move is exactly an improving move
    best, better = _best_response_layers(layers), _improvement_layers(layers)
    rows = list(zip(*layers))
    for a, b in ((0, 1), (1, 0)):
        mask = list(best(a, b))
        assert mask == list(better(a, b))
        assert mask == [b in _best_responses(a, row) for row in rows]
        assert mask == [b in _improvements(a, row) for row in rows]
