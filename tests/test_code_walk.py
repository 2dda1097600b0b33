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
best response differ from improvement, tables with payoffs in ±2^70 mixed
with 127-129, too wide for a byte or a 64-bit field, a player with one
strategy, and games with a single profile among them. On the same games
the row oracle (``_oracles.successors_by_rows``), the reference of the
compiled-gadget tests, is checked against the pointwise one. A table's
layers, slices of its tables (``ProfileCodec.layer``), are checked against
the default hook's per-line read on random tables.

The layer rules compare whole layers packed as fields of one int
(``dynamics._Fields``): a byte per line for values in 0..127, a signed
field of W = 16, 32 or 64 bits for values in ±2^(W-2), and the span's bytes
otherwise. On 2-5 layers drawn from each packing's boundaries and from
random ints, each value sits in its own field of the narrowest width under
one offset, with the field's top bit clear, and both rules agree line by
line with the per-row rules; on two-strategy players the best-response
rule is the improvement rule.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sinkeq.dynamics import (
    EdgeSemantics, StateGraph, _best_response_layers, _best_responses, _Fields,
    _improvement_layers, _improvements, move_unions, space_sinks,
)
from sinkeq.games import SuccinctGame, TableGame

from _oracles import bitset_bottom_sccs, code_successors, successors_by_rows, successors_pointwise
from test_eval_once import random_anonymous, random_congestion, random_market
from test_valid_utility_dynamics import random_coverage


def random_table(rng, counts, payoff=lambda rng: rng.randint(0, 3)):
    size = math.prod(counts)
    return TableGame(counts, [[payoff(rng) for _ in range(size)] for _ in counts])


def wide_table(rng):
    counts = [rng.randint(2, 4) for _ in range(rng.randint(2, 3))]
    return random_table(rng, counts, lambda rng: rng.choice(
        (rng.randint(-2**70, 2**70), rng.randint(127, 129))))


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
    "table-wide": wide_table,
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


# the edges of each packing: a byte holds 0..127, a signed field of W bits
# ±2^(W-2) for W = 16, 32, 64, and wider values take their span's bytes
BOUNDARIES = sorted(
    {-2**70, -2**31 - 1, -129, -1, 0, 1, 126, 127, 128, 255, 256, 2**31, 2**63, 2**70}
    | {edge - d for w in (14, 30, 62) for edge in (-2**w, 2**w) for d in (0, 1)})
FIELD_RANGES = {1: (0, 128), 2: (-2**14, 2**14), 4: (-2**30, 2**30), 8: (-2**62, 2**62)}
LAYER_VALUES = {
    f"{8 * step}-bit": (st.sampled_from([v for v in BOUNDARIES if low <= v < high])
                        | st.integers(low, high - 1))
    for step, (low, high) in FIELD_RANGES.items()}
LAYER_VALUES["wide"] = st.sampled_from(BOUNDARIES) | st.integers()


def packing_step(layers):
    """The field width in bytes, the narrowest of ``FIELD_RANGES`` that
    holds every value, else the fewest bytes whose lower half holds the
    span."""
    low, high = min(map(min, layers)), max(map(max, layers))
    for step, (bottom, top) in FIELD_RANGES.items():
        if bottom <= low and high < top:
            return step
    return ((high - low).bit_length() + 8) // 8


@pytest.mark.parametrize("values", sorted(LAYER_VALUES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_layer_rules_are_the_row_rules(values, data):
    choices, lines = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 12))
    line = st.lists(LAYER_VALUES[values], min_size=lines, max_size=lines)
    layers = data.draw(st.lists(line, min_size=choices, max_size=choices))
    # each value in its own field of the narrowest width, all under one
    # offset, with the top bit of every field clear
    fields = _Fields(layers)
    width = 8 * fields.step
    assert fields.step == packing_step(layers)
    assert all(packed >> lines * width == 0 for packed in fields.layers)
    unpacked = [[packed >> k * width & (1 << width) - 1 for k in range(lines)]
                for packed in fields.layers]
    assert len({u - v for row, layer in zip(unpacked, layers) for u, v in zip(row, layer)}) == 1
    assert all(u >> width - 1 == 0 for row in unpacked for u in row)
    better, best = _improvement_layers(layers), _best_response_layers(layers)
    rows = list(zip(*layers))
    for a in range(choices):
        for b in range(choices):
            if a == b:
                continue
            moves = list(better(a, b))
            assert moves == [b in _improvements(a, row) for row in rows]
            assert list(best(a, b)) == [b in _best_responses(a, row) for row in rows]
            if choices == 2:  # with one other strategy, a best response is an improvement
                assert list(best(a, b)) == moves
