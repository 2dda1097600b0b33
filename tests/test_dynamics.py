import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from sinkeq.dot import export_space_dot
from sinkeq.dynamics import (
    EdgeSemantics,
    FirstImprover,
    PriorityList,
    RandomImprover,
    StateGraph,
    WalkOutcome,
    forward_closure,
    has_non_singleton_sink,
    has_singleton_sink,
    in_a_sink,
    pure_ne_search,
    sccs,
    simulate_walk,
    sinks,
    space_sinks,
)
from sinkeq.cnf import CnfFormula
from sinkeq.compilers import (
    compile_sat_market,
    compile_tm_anonymous,
    compile_tm_market,
    compile_tm_player_specific,
    compile_tm_weighted,
)
from sinkeq.errors import CapExceededError, ConfigurationError, UnsupportedGameError
from sinkeq.games import (
    AnonymousGame,
    CongestionGame,
    TableGame,
    TwoSidedMarketGame,
    matching_pennies,
    prisoners_dilemma,
)
from sinkeq.games.anonymous import AnonymousPlayer, count_eq
from sinkeq.games.market import ActiveAgent, PassiveAgent

from _oracles import (
    alpha_ne_pointwise,
    bitset_bottom_sccs,
    brute_force_pure_nes,
    is_pure_ne_pointwise,
    successors_pointwise,
)


def test_improving_moves_empty_at_pure_ne():
    pd = prisoners_dilemma()
    graph = StateGraph(pd)
    assert graph.improving_moves((1, 1)) == []
    assert is_pure_ne_pointwise(pd, (1, 1))
    assert not is_pure_ne_pointwise(pd, (0, 0))


def test_matching_pennies_has_one_mover_per_state():
    mp = matching_pennies()
    graph = StateGraph(mp)
    for profile in mp.codec.all_profiles():
        moves = graph.improving_moves(profile)
        assert len(moves) == 1


def test_canonical_move_order():
    game = TableGame((2, 2), [[0, 1, 0, 1], [0, 0, 1, 1]])
    graph = StateGraph(game)
    moves = graph.improving_moves((0, 0))
    assert moves == [(0, 1, 1), (1, 1, 1)]


def test_best_response_edges_subset_of_improvement():
    rng = random.Random(3)
    for _ in range(20):
        game = TableGame.random(rng)
        imp = StateGraph(game, EdgeSemantics.IMPROVEMENT)
        br = StateGraph(game, EdgeSemantics.BEST_RESPONSE)
        for profile in game.codec.all_profiles():
            br_moves = set(br.improving_moves(profile))
            imp_moves = set(imp.improving_moves(profile))
            assert br_moves <= imp_moves


def test_has_pure_stops_at_the_first_improving_player(monkeypatch):
    evaluated = Counter()
    row = TableGame._row  # every read of a table row goes through it

    def counting(self, code, player):
        evaluated[player] += 1
        return row(self, code, player)

    monkeypatch.setattr(TableGame, "_row", counting)
    rng = random.Random(5)
    for _ in range(60):
        game = TableGame.random(rng)
        n = game.num_players
        # a table row reads every player, so the search checks only full
        # profiles, the last player fastest, up to the first equilibrium
        expected, visited, found = Counter(), [], None
        for profile in itertools.product(*map(range, game.strategy_counts)):
            visited.append(profile)
            movers = [p for _, p in successors_pointwise(game, profile)]
            # players after the first one who can improve are never read
            expected.update(range(movers[0] + 1 if movers else n))
            if not movers:
                found = profile
                break
        evaluated.clear()
        code, nodes = pure_ne_search(game)
        assert evaluated == expected
        # one node per strategy placed: one per prefix of a checked profile
        assert nodes == len({v[:k] for v in visited for k in range(1, n + 1)})
        assert code == (None if found is None else game.codec.encode(found))
        assert has_singleton_sink(game) == (found is not None) == bool(brute_force_pure_nes(game))


def test_single_strategy_game_is_pure_ne():
    game = TableGame((1, 1), [[0], [0]])
    assert is_pure_ne_pointwise(game, (0, 0))
    assert has_singleton_sink(game)


def test_alpha_ne_boundary_and_strictness():
    game = CongestionGame(
        ["cheap", "dear"],
        [[[1], [0]]],  # strategy 0 -> dear (100), strategy 1 -> cheap (99)
        [{1: 99}, {1: 100}],
    )
    profile = (0,)
    assert game.is_alpha_ne(profile, Fraction(5, 100))
    assert not game.is_alpha_ne(profile, Fraction(1, 1000))
    # boundary: (1 - alpha) * 100 == 99 exactly at alpha = 1/100
    assert game.is_alpha_ne(profile, Fraction(1, 100))


def test_alpha_ne_matches_the_pointwise_definition():
    # weighted games with negative delays: a negative current cost must not
    # count the current strategy as a deviation
    rng = random.Random(20_261_018)
    cases = 0
    for _ in range(120):
        n_players = rng.randint(2, 3)
        n_res = rng.randint(1, 4)
        weights = [rng.randint(1, 3) for _ in range(n_players)]
        strategies = [
            [[e for e in range(n_res) if rng.random() < 0.5] for _ in range(rng.randint(1, 3))]
            for _ in range(n_players)
        ]
        delays = [{load: rng.randint(-3, 9) for load in range(1, sum(weights) + 1)}
                  for _ in range(n_res)]
        game = CongestionGame([f"r{e}" for e in range(n_res)], strategies, delays, weights)
        for profile in game.codec.all_profiles():
            for alpha in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
                assert game.is_alpha_ne(profile, alpha) == alpha_ne_pointwise(
                    game, profile, alpha)
                cases += 1
    assert cases > 1000


def test_alpha_ne_true_at_pure_ne():
    game = CongestionGame(
        ["e", "f"], [[[0], [1]], [[0], [1]]],
        [{1: 1, 2: 2}, {1: 1, 2: 2}],
    )
    for profile in game.codec.all_profiles():
        if is_pure_ne_pointwise(game, profile):
            assert game.is_alpha_ne(profile, Fraction(1, 2))


def test_forward_closure_of_pure_ne_is_singleton():
    pd = prisoners_dilemma()
    closure = forward_closure(StateGraph(pd), (1, 1))
    assert closure.states == [(1, 1)]
    assert closure.exhausted


def test_forward_closure_cycle_and_cap():
    mp = matching_pennies()
    graph = StateGraph(mp)
    closure = forward_closure(graph, (0, 0))
    assert len(closure) == 4
    assert closure.exhausted
    # a closure is never cut: at its cap the pass raises
    with pytest.raises(CapExceededError, match="forward closure hit the cap of 2 states") as info:
        forward_closure(graph, (0, 0), cap=2)
    assert info.value.explored == 2
    assert forward_closure(graph, (0, 0), cap=4).exhausted


def test_sccs_handles_dag_and_cycle():
    edges = {1: [2], 2: [3], 3: []}
    comps = sccs([1, 2, 3], lambda v: edges[v])
    assert sorted(map(tuple, comps)) == [(1,), (2,), (3,)]
    ring = {0: [1], 1: [2], 2: [3], 3: [0]}
    comps = sccs([0, 1, 2, 3], lambda v: ring[v])
    assert len(comps) == 1 and len(comps[0]) == 4


def test_sccs_iterative_on_long_path():
    n = 50_000
    comps = sccs(range(n), lambda v: [v + 1] if v + 1 < n else [])
    assert len(comps) == n


def test_sinks_match_bitset_oracle_on_random_games():
    rng = random.Random(99)
    for _ in range(40):
        game = TableGame.random(rng)
        codec = game.codec

        def successor_indices(k):
            return [
                codec.encode(w) for w, _ in successors_pointwise(game, codec.decode(k))
            ]

        _, bottoms = bitset_bottom_sccs(codec.num_profiles, successor_indices)
        expected = {
            frozenset(codec.decode(k) for k in comp) for comp in bottoms
        }
        got = set(sinks(game))
        assert got == expected
        # singleton sinks are exactly the pure equilibria
        pure = {
            p for p in codec.all_profiles() if is_pure_ne_pointwise(game, p)
        }
        assert {next(iter(s)) for s in sinks(game) if len(s) == 1} == pure


def test_sinks_exist_and_cap_is_loud():
    mp = matching_pennies()
    found = sinks(mp)
    assert len(found) == 1 and len(found[0]) == 4
    with pytest.raises(CapExceededError):
        sinks(mp, cap=2)


def test_pd_has_unique_singleton_sink():
    pd = prisoners_dilemma()
    found = sinks(pd)
    assert found == [{(1, 1)}]
    assert has_singleton_sink(pd)
    assert not has_non_singleton_sink(pd)


def test_in_a_sink_answers():
    pd = prisoners_dilemma()
    assert in_a_sink(pd, (1, 1)) is True
    assert in_a_sink(pd, (0, 0)) is False
    mp = matching_pennies()
    assert in_a_sink(mp, (0, 0)) is True
    with pytest.raises(CapExceededError, match="cap of 2 states") as info:
        in_a_sink(mp, (0, 0), cap=2)
    assert info.value.explored == 2


def test_in_a_sink_members_belong_to_some_sink():
    rng = random.Random(5)
    for _ in range(15):
        game = TableGame.random(rng)
        sink_states = set()
        for s in sinks(game):
            sink_states |= s
        for profile in game.codec.all_profiles():
            assert in_a_sink(game, profile) == (profile in sink_states)


def test_walk_from_pure_ne_has_no_steps():
    pd = prisoners_dilemma()
    walk = simulate_walk(StateGraph(pd), (1, 1))
    assert walk.outcome is WalkOutcome.REACHED_SINK_STATE
    assert walk.states == [(1, 1)]
    assert walk.moves == []


def test_walk_determinism_per_seed():
    mp = matching_pennies()
    graph = StateGraph(mp)
    a = simulate_walk(graph, (0, 0), RandomImprover(123), max_steps=9)
    b = simulate_walk(graph, (0, 0), RandomImprover(123), max_steps=9)
    assert a.states == b.states and a.moves == b.moves


def test_walk_policies():
    game = TableGame((2, 2), [[0, 1, 0, 1], [0, 0, 1, 1]])
    graph = StateGraph(game)
    first = simulate_walk(graph, (0, 0), FirstImprover(), max_steps=5)
    assert first.moves[0] == (0, 1)
    pri = simulate_walk(graph, (0, 0), PriorityList((1, 0)), max_steps=5)
    assert pri.moves[0] == (1, 1)


def test_priority_list_moves_the_first_listed_player():
    rng = random.Random(83)
    for _ in range(30):
        game = TableGame.random(rng)
        players = list(range(game.num_players))
        listed = rng.sample(players, rng.randint(1, len(players) - 1))
        orders = [
            (),  # nobody listed: the first move
            tuple(rng.choice(listed) for _ in range(2 * len(listed))),  # repeats, absentees
            tuple(rng.sample(players, len(players)) * 2),
        ]
        for semantics in EdgeSemantics:
            graph = StateGraph(game, semantics)
            for order in orders:
                current = game.codec.decode(rng.randrange(game.codec.num_profiles))
                walk = simulate_walk(graph, current, PriorityList(order), max_steps=8)
                for move in walk.moves:
                    options = graph.improving_moves(current)
                    firsts = [m for p in order for m in options if m[0] == p]
                    assert move == (firsts or options)[0][:2]
                    player, strategy = move
                    current = current[:player] + (strategy,) + current[player + 1:]


def test_walk_inside_cycle_reports_sink():
    mp = matching_pennies()
    walk = simulate_walk(StateGraph(mp), (0, 0), FirstImprover(), max_steps=7)
    assert walk.outcome is WalkOutcome.REACHED_SINK_STATE
    assert len(walk.moves) == 7


def test_walk_ends_inconclusive_when_the_cap_cuts_its_final_check():
    mp = matching_pennies()
    walk = simulate_walk(StateGraph(mp), (0, 0), FirstImprover(), max_steps=1, closure_cap=2)
    assert walk.outcome is WalkOutcome.INCONCLUSIVE
    assert len(walk.moves) == 1


def test_rosenthal_potential_values():
    game = CongestionGame(
        ["e"], [[[0], []], [[0], []]], [{1: 1, 2: 5}],
    )
    assert game.rosenthal_potential((1, 1)) == 0
    assert game.rosenthal_potential((0, 0)) == 6  # d(1) + d(2)
    assert game.rosenthal_potential((0, 1)) == 1


def test_rosenthal_rejects_weighted():
    game = CongestionGame(
        ["e"], [[[0]], [[0]]], [{1: 0, 2: 0, 3: 0}], weights=[1, 2],
    )
    with pytest.raises(UnsupportedGameError):
        game.rosenthal_potential((0, 0))


def random_unweighted_congestion(rng):
    n_players = rng.randint(2, 3)
    n_res = rng.randint(1, 5)
    strategies = []
    for _ in range(n_players):
        strats = []
        for _ in range(rng.randint(1, 4)):
            strats.append([e for e in range(n_res) if rng.random() < 0.5])
        strategies.append(strats)
    delays = [
        {load: rng.randint(0, 9) for load in range(1, n_players + 1)}
        for _ in range(n_res)
    ]
    return CongestionGame([f"r{e}" for e in range(n_res)], strategies, delays)


def test_potential_descends_along_every_improvement_edge():
    rng = random.Random(2024)
    for _ in range(60):
        game = random_unweighted_congestion(rng)
        graph = StateGraph(game)
        for profile in game.codec.all_profiles():
            phi = game.rosenthal_potential(profile)
            cost_here = {p: game.cost(profile, p) for p in range(game.num_players)}
            for player, strategy, new_u in graph.improving_moves(profile):
                moved = profile[:player] + (strategy,) + profile[player + 1:]
                drop = cost_here[player] - (-new_u)
                assert drop > 0
                assert phi - game.rosenthal_potential(moved) == drop


def test_dot_export_golden():
    mp = matching_pennies()
    dot = export_space_dot(*space_sinks(StateGraph(mp)), mp.codec)
    assert dot == (
        "digraph state_graph {\n"
        '  n0 [label="0" shape=doublecircle];\n'
        '  n1 [label="1" shape=doublecircle];\n'
        '  n2 [label="2" shape=doublecircle];\n'
        '  n3 [label="3" shape=doublecircle];\n'
        '  n0 -> n2 [label="1"];\n'
        '  n1 -> n0 [label="0"];\n'
        '  n2 -> n3 [label="0"];\n'
        '  n3 -> n1 [label="1"];\n'
        "}\n"
    )


def test_pure_ne_is_singleton_sink_under_both_semantics():
    rng = random.Random(61)
    for _ in range(15):
        game = TableGame.random(rng)
        pure = {p for p in game.codec.all_profiles() if is_pure_ne_pointwise(game, p)}
        for semantics in (EdgeSemantics.IMPROVEMENT, EdgeSemantics.BEST_RESPONSE):
            singletons = {next(iter(s)) for s in sinks(game, semantics) if len(s) == 1}
            assert pure <= singletons
            if semantics is EdgeSemantics.IMPROVEMENT:
                assert singletons == pure


def test_best_response_ties_become_parallel_edges():
    # player 0 has two distinct maximal targets from strategy 0
    game = TableGame((3, 1), [[0, 5, 5], [0, 0, 0]])
    graph = StateGraph(game, EdgeSemantics.BEST_RESPONSE)
    moves = graph.improving_moves((0, 0))
    assert moves == [(0, 1, 5), (0, 2, 5)]


def test_table_entries_that_are_not_exact_ints_are_refused():
    assert TableGame((2,), [[5, 7]]).tables == ((5, 7),)
    with pytest.raises(ConfigurationError, match=r"^player 0: table entry 0 is True, not an"):
        TableGame((2,), [(True, 2)])
    with pytest.raises(ConfigurationError, match=r"^player 0: table entry 1 is 2\.0, not an"):
        TableGame((2,), [(1, 2.0)])
    with pytest.raises(ConfigurationError, match=r"^player 0: table entry 1 is 'x', not an"):
        TableGame((2,), [[1, "x"]])
    with pytest.raises(ConfigurationError, match=r"^player 0: table entry 1 is None, not an"):
        TableGame((2,), [[1, None]])
    with pytest.raises(ConfigurationError, match="table has 1 entries, profile space has 2"):
        TableGame((2,), [[1]])


def test_constructors_refuse_every_number_that_is_not_an_int():
    with pytest.raises(ConfigurationError, match=r"^player 0: table entry 1 is 1\.5, not an"):
        TableGame([2, 2], [[0, 1.5, 2, 3], [Fraction(1, 2), 0, 0, 0]])
    with pytest.raises(ConfigurationError, match=r"^player 1: table entry 0 is Fraction\(1, 2\)"):
        TableGame([2, 2], [[0, 1, 2, 3], [Fraction(1, 2), 0, 0, 0]])
    with pytest.raises(ConfigurationError, match=r"^player 1: strategy count is 2\.9, not an"):
        TableGame([2, 2.9], [[0] * 4, [0] * 4])
    with pytest.raises(ConfigurationError, match="^player 0 has no strategies$"):
        TableGame([0], [[]])
    with pytest.raises(ConfigurationError, match=r"^player 0: strategy count is 2\.0, not an"):
        TableGame([2.0, Fraction(2)], [[0] * 4, [0] * 4])
    with pytest.raises(ConfigurationError,
                       match=r"^player 1: strategy count is Fraction\(2, 1\), not an"):
        TableGame([2, Fraction(2)], [[0] * 4, [0] * 4])
    with pytest.raises(ConfigurationError, match=r"^resource r: the delay at load 1 is 1\.9"):
        CongestionGame(["r"], [[[0]]], [{1: 1.9}])
    with pytest.raises(ConfigurationError, match=r"^resource r: a load is 1\.5, not an"):
        CongestionGame(["r"], [[[0]]], [{1.5: 1}])
    with pytest.raises(ConfigurationError, match=r"^player 0: weight is 1\.7, not an"):
        CongestionGame(["r"], [[[0]]], [{1: 1, 2: 2}], weights=[1.7])
    with pytest.raises(ConfigurationError, match=r"^player 0 strategy 0: resource index is 0\.5"):
        CongestionGame(["r"], [[[0.5]]], [{1: 1}])
    with pytest.raises(ConfigurationError, match=r"^player 0: weight is 1\.0, not an"):
        CongestionGame(["r"], [[[0]], [[0]]], [{1: 1, 2: 2}], weights=[1.0, 1])
    with pytest.raises(ConfigurationError, match=r"^player 1: weight is True, not an"):
        CongestionGame(["r"], [[[0]], [[0]]], [{1: 1, 2: 2}], weights=[1, True])
    with pytest.raises(ConfigurationError,
                       match=r"^resource r: the delay at load 2 is Fraction\(2, 1\), not an"):
        CongestionGame(["r"], [[[0]], [[0]]], [{1: 1, 2: Fraction(4, 2)}])
    # anonymous: allowed sets, rule strategies and count references must be ints
    with pytest.raises(ConfigurationError, match=r"^player p: allowed strategy is 1\.5, not an"):
        AnonymousGame(["a", "b"], [AnonymousPlayer("p", frozenset({0, 1.5}), ())])
    with pytest.raises(ConfigurationError,
                       match=r"^player p: the strategy of rule 0 is Fraction\(1, 2\), not an"):
        AnonymousGame(["a", "b"], [AnonymousPlayer("p", frozenset({0, 1}),
                                                   ((Fraction(1, 2), count_eq(1, 1)),))])
    for ref in (0.5, 1.0):
        with pytest.raises(ConfigurationError,
                           match=rf"^player p: count reference {ref} is not an int$"):
            AnonymousGame(["a", "b"], [AnonymousPlayer("p", frozenset({0, 1}),
                                                       ((1, count_eq(ref, 1)),))])
    with pytest.raises(ConfigurationError, match=r"^player p: allowed strategy is 1\.0, not an"):
        AnonymousGame(["a", "b"], [AnonymousPlayer("p", frozenset({0, 1.0}), ())])
    with pytest.raises(ConfigurationError,
                       match=r"^player p: the strategy of rule 0 is Fraction\(1, 1\), not an"):
        AnonymousGame(["a", "b"], [AnonymousPlayer("p", frozenset({0, 1}),
                                                   ((Fraction(2, 2), count_eq(1, 1)),))])
    anonymous = AnonymousGame(["a", "b"], [AnonymousPlayer(
        "p", frozenset({0, 1}), ((1, count_eq(1, 1)),))])
    assert anonymous.deviation_utilities((0,), 0) == [1, 2]
    # markets: passive values, preferences and strategy indices must be ints
    demand = [ActiveAgent("x", (frozenset(), frozenset({0})))]
    with pytest.raises(ConfigurationError, match=r"^passive agent y: value is 1\.5, not an"):
        TwoSidedMarketGame([PassiveAgent("y", 1.5, (0,))], demand)
    with pytest.raises(ConfigurationError,
                       match=r"^passive agent y: preference entry 0 is 0\.5, not an"):
        TwoSidedMarketGame([PassiveAgent("y", 1, (0.5,))], demand)
    with pytest.raises(ConfigurationError, match=r"^agent x: passive index is 0\.5, not an"):
        TwoSidedMarketGame([PassiveAgent("y", 1, (0,))],
                           [ActiveAgent("x", (frozenset(), frozenset({0.5})))])
    with pytest.raises(ConfigurationError, match=r"^passive agent y: value is 2\.0, not an"):
        TwoSidedMarketGame([PassiveAgent("y", 2.0, (0,))], demand)
    with pytest.raises(ConfigurationError,
                       match=r"^passive agent y: preference entry 0 is Fraction\(0, 1\), not an"):
        TwoSidedMarketGame([PassiveAgent("y", 2, (Fraction(0),))], demand)
    with pytest.raises(ConfigurationError, match=r"^agent x: passive index is 0\.0, not an"):
        TwoSidedMarketGame([PassiveAgent("y", 2, (0,))],
                           [ActiveAgent("x", (frozenset(), frozenset({0.0})))])
    with pytest.raises(ConfigurationError, match=r"^passive agent y: value is True, not an"):
        TwoSidedMarketGame([PassiveAgent("y", True, (0,))], demand)
    market = TwoSidedMarketGame([PassiveAgent("y", 2, (0,))], demand)
    utilities = market.deviation_utilities((0,), 0)
    assert utilities == [0, 2] and {type(u) for u in utilities} == {int}


def _game_and_start(name):
    if name == "prisoners-dilemma":
        return prisoners_dilemma(), (0, 0)
    if name == "matching-pennies":
        return matching_pennies(), (0, 0)
    # the sat2market gadget of an unsatisfiable formula: no pure equilibrium
    gadget = compile_sat_market(CnfFormula(1, ((1, 1, 1), (-1, -1, -1))))
    return gadget.game, gadget.initial


@pytest.mark.parametrize("name", ["prisoners-dilemma", "matching-pennies", "sat2market-gadget"])
def test_the_three_questions_answer_plain_bools(name):
    game, start = _game_and_start(name)
    answers = [in_a_sink(game, start), has_singleton_sink(game), has_non_singleton_sink(game)]
    assert all(type(answer) is bool for answer in answers), answers


_MACHINE_BACKENDS = {"tm2wcg": compile_tm_weighted, "tm2psg": compile_tm_player_specific,
                     "tm2market": compile_tm_market, "tm2anon": compile_tm_anonymous}
# in-sink @initial under (improvement, best response): (answer, states, edges)
# of the pass that stops at the first sink without the start
_IN_SINK_PINS = {
    ("flipper", "tm2wcg"): ((True, 40, 56), (True, 40, 56)),
    ("flipper", "tm2psg"): ((True, 40, 56), (True, 40, 56)),
    ("flipper", "tm2anon"): ((False, 117, 141), (False, 117, 141)),
    ("flipper", "tm2market"): ((True, 40, 56), (True, 40, 56)),
    ("walker", "tm2wcg"): ((False, 103, 147), (False, 103, 147)),
    ("walker", "tm2psg"): ((False, 103, 147), (False, 103, 147)),
    ("walker", "tm2anon"): ((False, 606, 770), (False, 606, 770)),
    ("walker", "tm2market"): ((False, 103, 147), (False, 103, 147)),
    ("halter", "tm2wcg"): ((False, 14, 13), (False, 9, 8)),
    ("halter", "tm2psg"): ((False, 14, 13), (False, 9, 8)),
    ("halter", "tm2anon"): ((False, 25, 24), (False, 25, 24)),
    ("halter", "tm2market"): ((False, 17, 16), (False, 17, 16)),
    ("halter3", "tm2wcg"): ((False, 28, 27), (False, 23, 22)),
    ("halter3", "tm2psg"): ((False, 28, 27), (False, 23, 22)),
    ("halter3", "tm2anon"): ((False, 49, 48), (False, 49, 48)),
    ("halter3", "tm2market"): ((False, 28, 27), (False, 23, 22)),
}
# here best response drops some of improvement's moves, so the whole closures differ
_DIFFERENT_CLOSURES = {("tm2wcg", "halter"), ("tm2wcg", "halter3"), ("tm2psg", "halter"),
                       ("tm2psg", "halter3"), ("tm2market", "halter3")}


@pytest.mark.parametrize("machine", ["flipper", "walker", "halter", "halter3"])
@pytest.mark.parametrize("backend", list(_MACHINE_BACKENDS))
def test_in_sink_at_the_initial_profile_agrees_across_semantics(request, backend, machine):
    compiled = _MACHINE_BACKENDS[backend](request.getfixturevalue(machine))
    game, start = compiled.game, compiled.initial
    stopped = [forward_closure(StateGraph(game, semantics), start, stop_at_foreign_sink=True)
               for semantics in (EdgeSemantics.IMPROVEMENT, EdgeSemantics.BEST_RESPONSE)]
    assert (tuple((closure.start_in_sink, len(closure), closure.edges) for closure in stopped)
            == _IN_SINK_PINS[machine, backend])
    assert (in_a_sink(game, start, EdgeSemantics.IMPROVEMENT)
            == in_a_sink(game, start, EdgeSemantics.BEST_RESPONSE))
    if (backend, machine) not in _DIFFERENT_CLOSURES:
        improvement, best = (forward_closure(StateGraph(game, s), start) for s in EdgeSemantics)
        assert improvement.states == best.states
        assert improvement.successors == best.successors
