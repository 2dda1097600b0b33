"""A closure state re-prices only the rows its move can change.

A forward closure or a walk hands ``StateGraph.improving_moves`` the origin
of each profile it generated: the generator's moves, which carry their rows,
the mover and its old strategy. ``improving_moves`` on such a profile copies
the mover's row (a row never depends on its own player's strategy) and
hands the rest to the game's ``reprice_rows``. The default hook evaluates
the whole row of every player of ``SuccinctGame.affected_players``: in a
game with a footprint the readers of the entries the move changes, without
one every other player. A congestion game steps, for each such player, the
strategies that use a resource the move changed, by the delays at the loads
it changed. Here the facts this rests on are checked on hypothesis-random
games of every class: a player's own move leaves its row, a player the move
does not affect keeps its row, an entry the move does not reach keeps its
value, and the rows ``reprice_rows`` steps equal a fresh evaluation. The
rows of every closure state are compared with a fresh evaluation, also
where an unrelated profile was evaluated between generating a state and
expanding it, and closures and walks are compared, under both semantics,
with those over the same game behind the every-player default. Each closure
state and each walk step is checked to have priced exactly the rows (or, in
a congestion game, the strategies) of one move into it, never the mover's
row. The origins belong to the pass: the graph gains no attribute from one,
and a reused graph prices like a fresh one.
"""

import random
from collections import Counter, defaultdict
from contextlib import contextmanager

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
from sinkeq.errors import CapExceededError
from sinkeq.games import SuccinctGame, TableGame

from _oracles import successors_pointwise
from test_pure_search import sparse_anonymous, sparse_congestion, sparse_market
from test_valid_utility_dynamics import random_coverage


GAMES = {
    "congestion-shared": lambda rng: sparse_congestion(rng, "shared", weighted=False),
    "congestion-weighted": lambda rng: sparse_congestion(rng, "shared"),
    "congestion-player-specific": lambda rng: sparse_congestion(rng, "player_specific"),
    "anonymous": sparse_anonymous,
    "market": sparse_market,
}
# every game class: the footprint classes above, and two that read everything
CLASSES = dict(GAMES, **{
    "table": lambda rng: TableGame.random(rng, max_players=4, max_profiles=96),
    "valid-utility": random_coverage,
})


def random_move(rng, game):
    """(profile before, mover, its new strategy, profile after)."""
    before = tuple(rng.randrange(c) for c in game.strategy_counts)
    mover = rng.randrange(game.num_players)
    new = rng.randrange(game.strategy_counts[mover])
    return before, mover, new, before[:mover] + (new,) + before[mover + 1:]


@pytest.mark.parametrize("kind", sorted(CLASSES))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_a_players_own_move_leaves_its_row(kind, seed):
    rng = random.Random(seed)
    game = CLASSES[kind](rng)
    for _ in range(8):
        before, mover, _, after = random_move(rng, game)
        assert (list(game.deviation_utilities(before, mover))
                == list(game.deviation_utilities(after, mover)))


def reached_strategies(game, player, mover, old, new) -> list[int]:
    """The strategies of ``player`` whose value reads an entry that
    ``mover``'s move from ``old`` to ``new`` changes, read off the game's
    footprint."""
    touches, reads = game._footprint
    changed = touches[mover][old] ^ touches[mover][new]
    return [s for s, entries in enumerate(reads[player]) if not changed.isdisjoint(entries)]


@pytest.mark.parametrize("kind", sorted(CLASSES))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_a_player_the_move_does_not_affect_keeps_its_row(kind, seed):
    rng = random.Random(seed)
    game = CLASSES[kind](rng)
    for _ in range(8):
        before, mover, new, after = random_move(rng, game)
        affected = game.affected_players(mover, before[mover], new)
        assert mover not in affected
        for player in range(game.num_players):
            if player not in affected:
                assert (list(game.deviation_utilities(before, player))
                        == list(game.deviation_utilities(after, player))), (player, mover)


@pytest.mark.parametrize("kind", sorted(GAMES))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_an_entry_the_move_does_not_reach_keeps_its_value(kind, seed):
    rng = random.Random(seed)
    game = GAMES[kind](rng)
    for _ in range(8):
        before, mover, new, after = random_move(rng, game)
        reached = {player: reached_strategies(game, player, mover, before[mover], new)
                   for player in range(game.num_players) if player != mover}
        # the affected players are exactly those with a strategy the move reaches
        assert (set(game.affected_players(mover, before[mover], new))
                == {player for player, listed in reached.items() if listed})
        for player, listed in reached.items():
            row_before = game.deviation_utilities(before, player)
            row_after = game.deviation_utilities(after, player)
            for s in set(range(game.strategy_counts[player])) - set(listed):
                assert row_before[s] == row_after[s], (player, s, mover)


def fresh_rows(game, profile):
    """Every player's row at ``profile``, its aggregate built anew."""
    game._slot = None
    return [list(game.deviation_utilities(profile, p)) for p in range(game.num_players)]


@pytest.mark.parametrize("kind", sorted(CLASSES))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_stepped_rows_equal_fresh_rows(kind, seed):
    rng = random.Random(seed)
    game = CLASSES[kind](rng)
    for _ in range(8):
        before, mover, new, after = random_move(rng, game)
        old = StateGraph(game).improving_moves(before).rows
        kept = [list(row) for row in old]
        rows = old.copy()
        changed = game.reprice_rows(after, rows, mover, before[mover])
        fresh = fresh_rows(game, after)
        assert [list(row) for row in rows] == fresh, (mover, new)
        assert [list(row) for row in old] == kept  # the rows stepped from stay as they were
        assert sorted(changed) == [p for p in range(game.num_players) if fresh[p] != kept[p]]


class FreshRows(StateGraph):
    """A graph that checks, at every state it expands, its rows against an
    evaluation from scratch."""

    def improving_moves(self, profile, origin=None):
        moves = super().improving_moves(profile, origin)
        assert [list(row) for row in moves.rows] == fresh_rows(self.game, profile)
        return moves


@pytest.mark.parametrize("kind", sorted(CLASSES))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_a_delta_expansion_after_an_unrelated_evaluation_reads_its_own_profile(kind, seed):
    rng = random.Random(seed)
    game = CLASSES[kind](rng)
    graph = StateGraph(game)
    for _ in range(8):
        before, mover, new, after = random_move(rng, game)
        generator = graph.improving_moves(before)
        # the slot now holds a random profile, as a rule not the one expanded next
        other = tuple(rng.randrange(c) for c in game.strategy_counts)
        game.deviation_utilities(other, rng.randrange(game.num_players))
        moves = graph.improving_moves(after, (generator, mover, before[mover]))
        assert [list(row) for row in moves.rows] == fresh_rows(game, after)
        assert list(moves) == list(graph.improving_moves(after))


class EveryPlayer(SuccinctGame):
    """A game behind the default hook: every move affects every player."""

    def __init__(self, game):
        self.game = game
        self.strategy_counts = game.strategy_counts
        self.codec = game.codec

    def deviation_utilities(self, profile, player):
        return self.game.deviation_utilities(profile, player)


def check_closures_equal_every_player_closures(game, start, semantics):
    for stop in (True, False):
        delta = forward_closure(FreshRows(game, semantics), start, stop_at_foreign_sink=stop)
        full = forward_closure(StateGraph(EveryPlayer(game), semantics), start,
                               stop_at_foreign_sink=stop)
        assert delta.states == full.states
        assert delta.successors == full.successors
        assert delta.components == full.components
        assert delta.sinks == full.sinks
        assert delta.exhausted == full.exhausted


@pytest.mark.parametrize("semantics", list(EdgeSemantics))
@pytest.mark.parametrize("kind", sorted(CLASSES))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_delta_closures_equal_every_player_closures_on_random_games(kind, semantics, seed):
    rng = random.Random(seed)
    game = CLASSES[kind](rng)
    start = tuple(rng.randrange(c) for c in game.strategy_counts)
    check_closures_equal_every_player_closures(game, start, semantics)


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
        check_closures_equal_every_player_closures(compiled.game, compiled.initial, semantics)


def steps_by_strategy(game) -> bool:
    """Whether the game's class prices a move strategy by strategy, through
    its own ``reprice_rows``, rather than row by row."""
    return type(game).reprice_rows is not SuccinctGame.reprice_rows


@contextmanager
def counting_entries(game):
    """Shadow the game's evaluation hooks on the instance, and yield the
    list of (profile, player, strategies or None) entries they price: each
    ``deviation_utilities`` call, with None for a whole row, and, in a class
    that steps strategy by strategy, each row that hook steps to a profile,
    with the strategies the move reaches there."""
    calls = []
    stepping = []  # the profile reprice_rows is stepping to, while it runs
    evaluate, reprice, affected = (game.deviation_utilities, game.reprice_rows,
                                   game.affected_players)
    by_strategy = steps_by_strategy(game)

    def counting(profile, player):
        calls.append((profile, player, None))
        return evaluate(profile, player)

    def stepping_rows(profile, rows, mover, old):
        stepping.append(profile)
        try:
            return reprice(profile, rows, mover, old)
        finally:
            stepping.pop()

    def listing(player, old, new):
        listed = affected(player, old, new)
        if stepping and by_strategy:
            calls.extend((stepping[-1], p, tuple(reached_strategies(game, p, player, old, new)))
                         for p in listed)
        return listed

    game.deviation_utilities, game.reprice_rows, game.affected_players = (
        counting, stepping_rows, listing)
    try:
        yield calls
    finally:
        del game.deviation_utilities, game.reprice_rows, game.affected_players


def entries_of(game, mover, old, new) -> Counter:
    """The entries one move prices: the affected players' whole rows, or,
    where the class steps by strategy, the strategies the move reaches."""
    if steps_by_strategy(game):
        return Counter((p, tuple(reached_strategies(game, p, mover, old, new)))
                       for p in game.affected_players(mover, old, new))
    return Counter((p, None) for p in game.affected_players(mover, old, new))


@pytest.mark.parametrize("kind", sorted(COMPILERS))
def test_a_closure_state_evaluates_the_rows_of_one_move_into_it(gadgets, kind):
    game = gadgets["walker", kind].game
    with counting_entries(game) as calls:
        closure = forward_closure(StateGraph(game), gadgets["walker", kind].initial)
    evaluated = defaultdict(Counter)
    for profile, player, strategies in calls:
        evaluated[profile][player, strategies] += 1
    states = closure.states
    moves_into = [[] for _ in states]  # (entries, mover) of each arc into each state
    for k, targets in enumerate(closure.successors):
        u = states[k]
        for j in targets:
            v = states[j]
            (p,) = [i for i in range(game.num_players) if u[i] != v[i]]
            moves_into[j].append((entries_of(game, p, u[p], v[p]), p))
    assert evaluated[states[0]] == Counter((p, None) for p in range(game.num_players))
    for v, options in zip(states[1:], moves_into[1:]):
        assert any(evaluated[v] == entries and all(p != mover for p, _ in evaluated[v])
                   for entries, mover in options), v
    # after the start, a closure state prices a small share of the rows
    priced = sum(profile != states[0] for profile, _, _ in calls)
    assert priced < (len(states) - 1) * game.num_players / 5


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
    with counting_entries(game) as calls:
        walk = simulate_walk(StateGraph(game), compiled.initial, max_steps=30, closure_cap=1)
    # consecutive states differ, so the calls split into one run per step
    steps: list[Counter] = []
    last = None
    for profile, player, strategies in calls:
        if profile != last:
            steps.append(Counter())
            last = profile
        steps[-1][player, strategies] += 1
    states = walk.states
    assert len(walk.moves) == 30 and len(steps) > 30
    assert steps[0] == Counter((p, None) for p in range(game.num_players))
    for k, (player, strategy) in enumerate(walk.moves[:-1], start=1):
        assert steps[k] == entries_of(game, player, states[k - 1][player], strategy), k
        assert all(p != player for p, _ in steps[k]), k


def test_a_walk_keeps_only_the_origin_it_moves_to():
    rng = random.Random(1)
    game = TableGame((3,) * 8, [[rng.randint(0, 9) for _ in range(3 ** 8)] for _ in range(8)])
    graph = StateGraph(game)
    before = dict(vars(graph))
    walk = simulate_walk(graph, (0,) * 8, RandomImprover(1), max_steps=1000)
    assert len(walk.moves) == 1000 and walk.outcome is WalkOutcome.STILL_MOVING
    assert vars(graph) == before
    # the same walk, each step's moves from the pointwise oracle, where no origin is read
    choose, current, moves = random.Random(1), (0,) * 8, []
    for _ in range(1000):
        current, player = choose.choice(successors_pointwise(game, current))
        moves.append((player, current[player]))
    assert walk.moves == moves


def test_a_closure_drops_each_origin_once_read(gadgets):
    compiled = gadgets["walker", "tm2anon"]
    graph = StateGraph(compiled.game)
    before = dict(vars(graph))
    closure = forward_closure(graph, compiled.initial)
    assert closure.exhausted and len(closure) == 2850
    assert vars(graph) == before


@pytest.mark.parametrize("kind, priced", [("tm2anon", 8714), ("tm2wcg", 2118)])
def test_a_reused_graph_prices_like_a_fresh_one(gadgets, kind, priced):
    compiled = gadgets["walker", kind]
    start = compiled.initial
    with counting_entries(compiled.game) as calls:

        def closure_calls(graph):
            calls.clear()
            forward_closure(graph, start)
            return len(calls)

        assert closure_calls(StateGraph(compiled.game)) == priced
        graph = StateGraph(compiled.game)
        forward_closure(graph, start)
        assert closure_calls(graph) == priced
        graph = StateGraph(compiled.game)
        simulate_walk(graph, start, max_steps=50, closure_cap=1)
        assert closure_calls(graph) == priced
        graph = StateGraph(compiled.game)
        with pytest.raises(CapExceededError):
            forward_closure(graph, start, cap=100)
        assert closure_calls(graph) == priced
