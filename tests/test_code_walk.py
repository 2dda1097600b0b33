"""The full-space engine's move unions hold exactly the pointwise moves.

``move_unions`` gives, for each player and step, a bitset of the codes
from which the player moves by that step (each player's utilities at every
code from the game's ``code_utilities``, moves found by the whole-space
rule). Read per code in list order, the unions must give every code's
successor codes in canonical order, equal to ``_oracles.code_successors``
(the definition, ``successors_pointwise`` on ``game.utility``, in code
order), and ``space_sinks`` must give the bottom SCCs of that oracle graph
(``_oracles.bitset_bottom_sccs``) by their lowest code. The games are
hypothesis-random table, congestion, anonymous, market and valid-utility
games under both semantics: tables with payoffs in {0, 1}, whose ties make
best response differ from improvement, tables with payoffs in ±2^70 mixed
with 127-129, too wide for a byte or a 64-bit field, a player with one
strategy, and games with a single profile among them. On the same games
the row oracle (``_oracles.successors_by_rows``), the reference of the
compiled-gadget tests, is checked against the pointwise one. A table's
utilities, its tables as they stand, are checked against the default
hook's per-line read and against ``utility`` on random tables.

The whole-space rules compare a player's utilities packed as fields of
one int, one per code (``dynamics._Fields``), with themselves moved by a
step: a byte per code for values in 0..127, a signed field of W = 16, 32
or 64 bits for values in ±2^(W-2), and the span's bytes otherwise. On
random spaces of 1-3 players with values drawn from each packing's
boundaries and from random ints, each value sits in its own field of the
narrowest width under one offset, with the field's top bit clear, and both
rules agree code by code with the per-row rules.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sinkeq.dynamics import (
    _TARGETS, EdgeSemantics, StateGraph, _Fields, move_unions, space_sinks,
)
from sinkeq.games import SuccinctGame, TableGame
from sinkeq.profiles import ProfileCodec

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
def test_table_utilities_are_the_per_line_read(counts, seed):
    game = random_table(random.Random(seed), counts)
    profiles = game.codec.all_profiles()
    for p in range(len(counts)):
        # the table as it stands against the default hook's rows read at each base
        assert list(game.code_utilities(p)) == SuccinctGame.code_utilities(game, p)
        assert list(game.code_utilities(p)) == [game.utility(x, p) for x in profiles]


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
def test_union_rules_are_the_row_rules(values, data):
    counts = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    codec = ProfileCodec(counts)
    size = codec.num_profiles
    player = data.draw(st.integers(0, len(counts) - 1))
    utilities = data.draw(st.lists(LAYER_VALUES[values], min_size=size, max_size=size))
    # each value in its own field of the narrowest width, all under one
    # offset, with the top bit of every field clear
    fields = _Fields(utilities)
    width = 8 * fields.step
    assert fields.step == packing_step([utilities])
    assert fields.packed >> size * width == 0
    unpacked = [fields.packed >> k * width & (1 << width) - 1 for k in range(size)]
    assert len({u - v for u, v in zip(unpacked, utilities)}) == 1
    assert all(u >> width - 1 == 0 for u in unpacked)
    # the row of each code: the player's utilities along its line
    weight, choices = codec.place_weights[player], counts[player]
    rows = [[utilities[k + (s - k // weight % choices) * weight] for s in range(choices)]
            for k in range(size)]
    for row_rule, space_rule in _TARGETS.values():
        unions = list(space_rule(fields, codec, player)) if choices > 1 else []
        assert [shift for shift, _ in unions] == [
            d * weight for d in range(1 - choices, choices) if d]
        assert [[k + shift for shift, union in unions if union >> k & 1] for k in range(size)] == [
            [k + (s - k // weight % choices) * weight for s in row_rule(k // weight % choices, row)]
            for k, row in enumerate(rows)]
