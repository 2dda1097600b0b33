"""A closure state re-evaluates only the players its move can affect.

``StateGraph.successors`` records where each profile it generates came
from, and ``improving_moves`` on such a profile evaluates only the rows of
``SuccinctGame.affected_players`` and copies the rest from the generator.
Here the hook is checked against evaluation on hypothesis-random congestion
(shared, weighted and player-specific), anonymous and market games: a
player it leaves out has the same row before and after the move. The
closures of the machine gadgets are compared with closures over the same
game behind the every-player default, and each closure state is checked to
have evaluated exactly the rows of one move into it. Walks take their steps
from ``successors`` too: they are compared with walks behind the
every-player default, and each step after the first evaluates exactly the
rows of the move into it; a walk keeps only the origin it moves to.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from sinkeq.compilers import (
    compile_tm_anonymous,
    compile_tm_market,
    compile_tm_player_specific,
    compile_tm_weighted,
)
from sinkeq.dynamics import (
    EdgeSemantics,
    FirstImprover,
    PriorityList,
    RandomImprover,
    StateGraph,
    WalkOutcome,
    forward_closure,
    simulate_walk,
)
from sinkeq.games import SuccinctGame, TableGame

from test_pure_search import sparse_anonymous, sparse_congestion, sparse_market


GAMES = {
    "congestion-shared": lambda rng: sparse_congestion(rng, "shared", weighted=False),
    "congestion-weighted": lambda rng: sparse_congestion(rng, "shared"),
    "congestion-player-specific": lambda rng: sparse_congestion(rng, "player_specific"),
    "anonymous": sparse_anonymous,
    "market": sparse_market,
}


@pytest.mark.parametrize("kind", sorted(GAMES))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_a_player_the_move_does_not_affect_keeps_its_row(kind, seed):
    rng = random.Random(seed)
    game = GAMES[kind](rng)
    for _ in range(8):
        before = tuple(rng.randrange(c) for c in game.strategy_counts)
        mover = rng.randrange(game.num_players)
        old, new = before[mover], rng.randrange(game.strategy_counts[mover])
        after = before[:mover] + (new,) + before[mover + 1:]
        affected = game.affected_players(mover, old, new)
        assert mover in affected
        for player in range(game.num_players):
            if player not in affected:
                assert (list(game.deviation_utilities(before, player))
                        == list(game.deviation_utilities(after, player))), (player, mover)


class EveryPlayer(SuccinctGame):
    """A game behind the default hook: every move affects every player."""

    def __init__(self, game):
        self.game = game
        self.strategy_counts = game.strategy_counts
        self.codec = game.codec

    def deviation_utilities(self, profile, player):
        return self.game.deviation_utilities(profile, player)


COMPILERS = {
    "tm2wcg": compile_tm_weighted,
    "tm2psg": compile_tm_player_specific,
    "tm2anon": compile_tm_anonymous,
    "tm2market": compile_tm_market,
}


@pytest.fixture(scope="module")
def gadgets(flipper, walker, halter):
    machines = {"flipper": flipper, "walker": walker, "halter": halter}
    return {(m, kind): compile(machines[m])
            for m in machines for kind, compile in COMPILERS.items()}


@pytest.mark.parametrize("kind", sorted(COMPILERS))
@pytest.mark.parametrize("machine", ["flipper", "walker", "halter"])
def test_delta_closures_equal_every_player_closures(gadgets, machine, kind):
    compiled = gadgets[machine, kind]
    for semantics in EdgeSemantics:
        for stop in (True, False):
            delta = forward_closure(StateGraph(compiled.game, semantics), compiled.initial,
                                    stop_at_foreign_sink=stop)
            full = forward_closure(StateGraph(EveryPlayer(compiled.game), semantics),
                                   compiled.initial, stop_at_foreign_sink=stop)
            assert delta.states == full.states
            assert delta.successors == full.successors
            assert delta.components == full.components
            assert delta.sinks == full.sinks
            assert delta.exhausted == full.exhausted


@pytest.mark.parametrize("kind", sorted(COMPILERS))
def test_a_closure_state_evaluates_the_rows_of_one_move_into_it(gadgets, kind):
    game = gadgets["walker", kind].game
    rows = Counter()
    evaluate = game.deviation_utilities

    def counting(profile, player):
        rows[profile] += 1
        return evaluate(profile, player)

    game.deviation_utilities = counting  # shadows the method on this instance only
    try:
        closure = forward_closure(StateGraph(game), gadgets["walker", kind].initial)
    finally:
        del game.deviation_utilities
    states = closure.states
    moves_into = [set() for _ in states]  # |affected| of each arc into each state
    for k, targets in enumerate(closure.successors):
        u = states[k]
        for j in targets:
            v = states[j]
            (p,) = [i for i in range(game.num_players) if u[i] != v[i]]
            moves_into[j].add(len(game.affected_players(p, u[p], v[p])))
    assert rows[states[0]] == game.num_players
    for v, sizes in zip(states[1:], moves_into[1:]):
        assert rows[v] in sizes, v
    assert sum(rows.values()) < len(states) * game.num_players / 2


def policies(rng, num_players):
    return [FirstImprover(), RandomImprover(rng.randrange(100)),
            PriorityList(tuple(rng.sample(range(num_players), num_players)))]


def check_walks_equal_every_player_walks(game, starts, rng, max_steps):
    for semantics in EdgeSemantics:
        for start in starts:
            for policy in policies(rng, game.num_players):
                delta = simulate_walk(StateGraph(game, semantics), start, policy, max_steps)
                full = simulate_walk(StateGraph(EveryPlayer(game), semantics), start, policy,
                                     max_steps)
                assert delta.moves == full.moves, (semantics, policy)
                assert delta.states == full.states
                assert delta.outcome == full.outcome


def test_walks_equal_every_player_walks_on_the_walker_gadget(gadgets):
    compiled = gadgets["walker", "tm2wcg"]
    check_walks_equal_every_player_walks(compiled.game, [compiled.initial],
                                         random.Random(5), max_steps=40)


def test_walks_equal_every_player_walks_on_random_tables():
    rng = random.Random(12)
    for _ in range(20):
        game = TableGame.random(rng, max_players=4, max_profiles=96)
        starts = [game.codec.decode(rng.randrange(game.codec.num_profiles)) for _ in range(2)]
        check_walks_equal_every_player_walks(game, starts, rng, max_steps=12)


@pytest.mark.parametrize("kind", sorted(COMPILERS))
def test_a_walk_step_evaluates_the_rows_of_the_move_into_it(gadgets, kind):
    compiled = gadgets["walker", kind]
    game = compiled.game
    calls = []
    evaluate = game.deviation_utilities

    def counting(profile, player):
        calls.append((profile, player))
        return evaluate(profile, player)

    game.deviation_utilities = counting  # shadows the method on this instance only
    try:
        walk = simulate_walk(StateGraph(game), compiled.initial, max_steps=30, closure_cap=1)
    finally:
        del game.deviation_utilities
    # consecutive states differ, so the calls split into one run per step
    steps: list[list[int]] = []
    last = None
    for profile, player in calls:
        if profile != last:
            steps.append([])
            last = profile
        steps[-1].append(player)
    states = walk.states
    assert len(walk.moves) == 30 and len(steps) > 30
    assert sorted(steps[0]) == list(range(game.num_players))
    for k, (player, strategy) in enumerate(walk.moves[:-1], start=1):
        old = states[k - 1][player]
        assert sorted(steps[k]) == sorted(game.affected_players(player, old, strategy)), k


def test_a_walk_keeps_only_the_origin_it_moves_to():
    rng = random.Random(1)
    game = TableGame((3,) * 8, [[rng.randint(0, 9) for _ in range(3 ** 8)] for _ in range(8)])
    graph = StateGraph(game)
    walk = simulate_walk(graph, (0,) * 8, RandomImprover(1), max_steps=1000)
    assert len(walk.moves) == 1000 and walk.outcome is WalkOutcome.STILL_MOVING
    assert len(graph._origins) <= 1
    # the same walk on a fresh graph each step, where no origin is ever read
    choose, current, moves = random.Random(1), (0,) * 8, []
    for _ in range(1000):
        current, player = choose.choice(StateGraph(game).successors(current))
        moves.append((player, current[player]))
    assert walk.moves == moves
