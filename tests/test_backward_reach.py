"""Has-non-singleton by backward reachability to the pure equilibria.

``dynamics.backward_reach`` returns the pure equilibria and the profiles
that reach none, as bitsets over profile codes. Here both are compared with
oracles written from ``game.utility`` alone, and a nonzero ``stuck`` with a
bottom SCC of two or more states by the bitset oracle. The games are
hypothesis-random tables (ties, a player with one strategy, one profile, no
players) and small congestion, anonymous, market and valid-utility games,
under both semantics. On larger tables the pass is compared with the sinks
of the Kosaraju oracle (``_oracles.kosaraju_bottom_sccs``).
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sinkeq.dynamics import (
    EdgeSemantics,
    StateGraph,
    backward_reach,
    has_non_singleton_sink,
)
from sinkeq.games import TableGame

from _oracles import (
    bitset_bottom_sccs,
    brute_force_pure_nes,
    code_successors,
    kosaraju_bottom_sccs,
    states_reaching_no_equilibrium,
    successors_pointwise,
)
from test_code_walk import RANDOM_GAMES

GAMES = dict(RANDOM_GAMES, **{"table-no-players": lambda rng: TableGame((), [])})


def code_order(counts):
    """Every profile, numbered with player 0 as the fastest-varying digit."""
    return [profile[::-1] for profile in itertools.product(*map(range, counts[::-1]))]


def members(bits, profiles):
    assert bits >> len(profiles) == 0
    return {v for k, v in enumerate(profiles) if bits >> k & 1}


@pytest.mark.parametrize("semantics", EdgeSemantics, ids=lambda s: s.value)
@pytest.mark.parametrize("kind", sorted(GAMES))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_backward_reach_matches_the_oracles(kind, semantics, seed):
    game = GAMES[kind](random.Random(seed))
    best_response = semantics is EdgeSemantics.BEST_RESPONSE
    profiles = code_order(game.strategy_counts)
    equilibria, stuck = backward_reach(StateGraph(game, semantics))
    assert members(equilibria, profiles) == brute_force_pure_nes(game)
    assert members(stuck, profiles) == states_reaching_no_equilibrium(game, best_response)
    number = {v: k for k, v in enumerate(profiles)}
    _, bottoms = bitset_bottom_sccs(len(profiles), lambda k: [
        number[w] for w, _ in successors_pointwise(game, profiles[k], best_response)])
    assert (stuck != 0) == any(len(bottom) > 1 for bottom in bottoms)
    assert has_non_singleton_sink(game, semantics) == (stuck != 0)


@pytest.mark.parametrize("semantics", EdgeSemantics, ids=lambda s: s.value)
def test_backward_reach_agrees_with_the_sinks_on_larger_tables(semantics):
    rng = random.Random(22)
    answers = set()
    for counts in [(4, 4, 4, 4), (3,) * 6, (2,) * 9, (5, 1, 3, 2, 4), (2, 7, 3)] * 4:
        size = math.prod(counts)
        game = TableGame(counts, [[rng.randint(0, 5) for _ in range(size)] for _ in counts])
        equilibria, stuck = backward_reach(StateGraph(game, semantics))
        found = sorted(map(sorted, kosaraju_bottom_sccs(
            code_successors(game, semantics is EdgeSemantics.BEST_RESPONSE))))
        assert [s for s in found if len(s) == 1] == [
            [k] for k in range(size) if equilibria >> k & 1]
        assert (stuck != 0) == any(len(s) > 1 for s in found)
        # a stuck profile reaches only stuck profiles, so every big sink is stuck
        assert all(stuck >> k & 1 for s in found if len(s) > 1 for k in s)
        answers.add(stuck != 0)
    assert answers == {True, False}
