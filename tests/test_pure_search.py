"""Has-pure searches players over the interaction graph.

``pure_ne_search`` checks each player once the last of its interacting
players is placed. Here its answers and witnesses are compared with
``brute_force_pure_nes``, which scans every profile pointwise, on
hypothesis-random table, congestion (shared, weighted and player-specific),
anonymous and market games: the small games of the code-walk test, where
nearly every player interacts with every other, larger sparse ones, where
many checks fall before the last player, and the markets of random 3-CNF
formulas, which lack an equilibrium exactly when unsatisfiable. The
witness is the least equilibrium, since pruning drops only subtrees without
one. A spy on the row reader checks the memo: a search reads each player's
row once per assignment of the players it interacts with, and a table's
search, which keeps no memo, reads one row per check.

``pure_equilibrium`` answers a table from the move unions instead. Its
witness must be the search's and the least equilibrium of the brute-force
scan, on seeded random tables and on a one-strategy player, a game without
players, a constant table and payoffs beyond ±2^62; through the CLI under
both semantics too, which share their equilibria.
"""

import io
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from sinkeq.cli import run_cli
from sinkeq.cnf import CnfFormula
from sinkeq.compilers import compile_sat_market
from sinkeq.dynamics import EdgeSemantics, pure_equilibrium, pure_ne_search
from sinkeq.errors import CapExceededError
from sinkeq.games import CongestionGame, TableGame, TwoSidedMarketGame
from sinkeq.io import serialize_game
from sinkeq.games.anonymous import AnonymousGame, AnonymousPlayer, Cmp, Const, Count
from sinkeq.games.market import ActiveAgent, PassiveAgent

from _oracles import brute_force_pure_nes, is_stable_pointwise
from test_code_walk import RANDOM_GAMES, random_table


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
        assert game.codec.decode(code) == min(equilibria)
    assert nodes >= 1


def spy_on_rows(game):
    """Spy on ``game``'s row reader: return the list to which each row read
    appends its ``(key(code), player)``."""
    key, read = game.code_reader()
    reads = []

    def spy(at, player):
        reads.append((at, player))
        return read(at, player)

    game.code_reader = lambda: (key, spy)
    return reads


@pytest.mark.parametrize("kind", ["sat-market", "sparse-congestion-shared",
                                  "sparse-congestion-player-specific", "sparse-market"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_a_search_reads_a_row_once_per_assignment_of_its_neighbours(kind, seed):
    game = GAMES[kind](random.Random(seed))
    reads = spy_on_rows(game)
    near = [sorted(players) for players in game.interacting_players()]
    found = pure_ne_search(game)
    keys = [(p, tuple(profile[q] for q in near[p])) for profile, p in reads]
    assert len(set(keys)) == len(keys)
    # the memo lives for one call: a second search reads the same rows again
    once = list(reads)
    assert pure_ne_search(game) == found
    assert reads == once + once


@pytest.mark.parametrize("kind", ["table", "table-ties", "table-one-strategy-player"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_a_table_search_reads_one_row_per_check(kind, seed):
    game = GAMES[kind](random.Random(seed))
    reads = spy_on_rows(game)
    pure_ne_search(game)
    # every player interacts with every other, so each is checked at each
    # full profile, in search order, until the first that can improve
    checks = []
    for profile in itertools.product(*map(range, game.strategy_counts)):
        for p in range(game.num_players):
            checks.append((game.codec.encode(profile), p))
            if not is_stable_pointwise(game, profile, p):
                break
        else:
            break
    assert reads == checks


@pytest.mark.parametrize("kind", ["sat-market", "sparse-anonymous", "sparse-congestion-shared",
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


TABLES = {
    "table": RANDOM_GAMES["table"],
    "table-ties": RANDOM_GAMES["table-ties"],
    "table-one-strategy-player": RANDOM_GAMES["table-one-strategy-player"],
    "table-without-players": lambda rng: TableGame((), []),
    "table-constant": lambda rng: random_table(
        rng, [rng.randint(1, 4) for _ in range(rng.randint(1, 4))], lambda rng: 7),
    # beyond ±2^62 no 64-bit field holds the values: the span's bytes do
    "table-beyond-2^62": lambda rng: random_table(
        rng, [rng.randint(1, 4) for _ in range(rng.randint(2, 3))],
        lambda rng: rng.choice((rng.randint(-2**64, 2**64), rng.randint(-1, 1)))),
}


def check_route(game):
    """The table route's witness against the search's and the oracle's."""
    code, explored = pure_equilibrium(game)
    equilibria = brute_force_pure_nes(game)
    assert code == pure_ne_search(game)[0]
    assert (None if code is None else game.codec.decode(code)) == min(equilibria, default=None)
    assert explored == game.codec.num_profiles
    return code


@pytest.mark.parametrize("kind", sorted(TABLES))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_the_table_route_finds_the_search_witness(kind, seed):
    check_route(TABLES[kind](random.Random(seed)))


def test_the_table_route_answers_the_cli_under_both_semantics(tmp_path):
    rng = random.Random(36)
    games = [TABLES[kind](rng) for kind in sorted(TABLES) for _ in range(6)]
    answers = set()
    for k, game in enumerate(games):
        code = check_route(game)
        path = tmp_path / f"t{k}.json"
        path.write_text(serialize_game(game))
        for semantics in EdgeSemantics:
            out, err = io.StringIO(), io.StringIO()
            argv = ["--semantics", semantics.value, "--format", "json", "has-pure", str(path)]
            assert run_cli(argv, out=out, err=err) == 0, err.getvalue()
            doc = json.loads(out.getvalue())
            assert doc["stats"]["states_explored"] == game.codec.num_profiles
            witness = doc.get("extra", {}).get("equilibrium")
            assert witness == (None if code is None else list(game.codec.decode(code)))
            answers.add(doc["answer"])
    assert answers == {"true", "false"}
