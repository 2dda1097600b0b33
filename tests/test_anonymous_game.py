import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sinkeq.errors import ConfigurationError
from sinkeq.games.anonymous import (
    Add,
    And,
    AnonymousGame,
    AnonymousPlayer,
    Cmp,
    Const,
    Count,
    Sub,
    count_eq,
    count_ge,
    expr_from_json,
    predicate_from_json,
)
from sinkeq.io import parse_game_file, serialize_game

from _oracles import anonymous_predicate_holds


def two_strategy_game():
    # strategy 0 pays 2 when at least two players sit on it; strategy 1 allowed
    # for player 0 only.
    players = [
        AnonymousPlayer("p0", frozenset({0, 1}), ((0, count_ge(0, 2)),)),
        AnonymousPlayer("p1", frozenset({0}), ((0, count_ge(0, 2)),)),
        AnonymousPlayer("p2", frozenset({0}), ()),
    ]
    return AnonymousGame(["left", "right"], players)


def test_utility_levels():
    game = two_strategy_game()
    assert game.utility((0, 0, 0), 0) == 2  # rule fires
    assert game.utility((1, 0, 0), 0) == 1  # allowed, no rule
    assert game.utility((1, 0, 0), 2) == 1  # allowed, no rules at all
    assert game.utility((0, 0, 0), 2) == 1
    # disallowed strategy always 0
    assert game.utility((0, 1, 0), 1) == 0


def test_counts_include_self():
    game = two_strategy_game()
    # player 0 alone on strategy 0 with one other: count reaches 2 only
    # because the evaluating player is included.
    assert game.utility((0, 0, 1), 0) == 2


def test_rule_referencing_unknown_strategy_rejected():
    with pytest.raises(ConfigurationError, match="undeclared|out of range"):
        AnonymousGame(
            ["a"],
            [AnonymousPlayer("p", frozenset({0}), ((0, count_ge(3, 1)),))],
        )


@pytest.mark.parametrize("pred", [
    Cmp("<", Const(0), Count(3)),
    Cmp("==", Add(Const(1), Count(3)), Const(1)),
    Cmp("==", Sub(Count(0), Count(3)), Const(1)),
    And(count_ge(0, 1), Cmp(">=", Const(1), Count(3))),
], ids=["cmp-rhs", "add-rhs", "sub-rhs", "and-second-part"])
def test_every_count_reference_of_a_rule_is_checked(pred):
    with pytest.raises(ConfigurationError) as info:
        AnonymousGame(["a", "b"], [AnonymousPlayer("p", frozenset({0}), ((0, pred),))])
    assert str(info.value) == "player p: predicate references undeclared strategy 3"


def test_a_rule_reads_every_count_it_references():
    pred = And(count_ge(0, 1), Cmp("<", Const(0), Sub(Const(2), Count(2))))
    game = AnonymousGame(["a", "b", "c"], [
        AnonymousPlayer("p", frozenset({0, 1}), ((1, pred),)),
        AnonymousPlayer("q", frozenset({0}), ((0, Cmp("<", Const(0), Count(1))),)),
    ])
    assert game._entry_readers() == {0: [0], 1: [1], 2: [0]}


def test_rule_on_disallowed_strategy_rejected():
    with pytest.raises(ConfigurationError, match="disallowed"):
        AnonymousGame(
            ["a", "b"],
            [AnonymousPlayer("p", frozenset({0}), ((1, count_ge(0, 1)),))],
        )


def test_predicate_json_round_trip():
    pred = And(
        count_eq(0, 2),
        Cmp("<=", Count(1), Count(2)),
    )
    doc = pred.to_json()
    back = predicate_from_json(doc)
    assert back == pred
    assert back.to_json() == doc
    expr = expr_from_json({"sub": [{"count": 1}, {"const": 3}]})
    assert expr.eval([0, 5, 0]) == 2


@pytest.mark.parametrize("value", [0.5, 1.0, True, None, "1"])
def test_a_constant_that_is_not_an_int_is_refused(value):
    with pytest.raises(ConfigurationError, match="constant .* is not an integer"):
        Const(value)


def test_a_game_with_constants_round_trips_through_its_document():
    rule = Cmp(">=", Add(Count(0), Const(-1)), Sub(Const(2), Count(1)))
    players = [AnonymousPlayer("p", frozenset({0, 1}), ((0, rule), (1, count_eq(0, 0))))] * 3
    game = AnonymousGame(["a", "b"], players)
    text = serialize_game(game)
    back = parse_game_file(text)
    assert serialize_game(back) == text
    for profile in product(range(2), repeat=3):
        for p in range(3):
            assert back.deviation_utilities(profile, p) == game.deviation_utilities(profile, p)


_STRATEGIES = 4

_EXPRESSIONS = st.recursive(
    st.one_of(st.builds(Const, st.integers(-2, 4)),
              st.builds(Count, st.integers(0, _STRATEGIES - 1))),
    lambda inner: st.one_of(st.builds(Add, inner, inner), st.builds(Sub, inner, inner)),
    max_leaves=6,
)

_PREDICATES = st.recursive(
    st.builds(Cmp, st.sampled_from(["==", "<", ">", "<=", ">="]), _EXPRESSIONS, _EXPRESSIONS),
    lambda inner: st.lists(inner, max_size=3).map(lambda parts: And(*parts)),
    max_leaves=5,
)


@settings(max_examples=300, deadline=None)
@given(_PREDICATES, st.lists(st.integers(0, 3), min_size=_STRATEGIES, max_size=_STRATEGIES))
def test_predicate_eval_agrees_with_its_json_read_independently(pred, hist):
    assert pred.eval(hist) == anonymous_predicate_holds(pred.to_json(), hist)


def test_deviation_utilities_match_pointwise():
    game = two_strategy_game()
    for profile in game.codec.all_profiles():
        for player in range(3):
            devs = game.deviation_utilities(profile, player)
            for s in range(2):
                moved = profile[:player] + (s,) + profile[player + 1:]
                assert devs[s] == game.utility(moved, player)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_rows_equal_moving_the_player_to_every_strategy(seed):
    # every player disallows some strategy, and each is also checked sitting on one
    rng = random.Random(seed)
    k = rng.randint(2, 6)
    players = []
    for i in range(rng.randint(1, 5)):
        allowed = frozenset(rng.sample(range(k), rng.randint(1, k - 1)))
        rules = tuple(
            (rng.choice(sorted(allowed)),
             Cmp(rng.choice(["==", "<", ">", "<=", ">="]),
                 Count(rng.randrange(k)), Const(rng.randint(0, 3))))
            for _ in range(rng.randint(0, 3)))
        players.append(AnonymousPlayer(f"p{i}", allowed, rules))
    game = AnonymousGame([f"s{j}" for j in range(k)], players)
    for _ in range(4):
        profile = tuple(rng.randrange(k) for _ in players)
        for player, spec in enumerate(players):
            disallowed = min(set(range(k)) - spec.allowed)
            for here in (profile[player], disallowed):
                at = profile[:player] + (here,) + profile[player + 1:]
                assert game.deviation_utilities(at, player) == [
                    game.utility(at[:player] + (s,) + at[player + 1:], player)
                    for s in range(k)], (at, player)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_anonymity_permutation_invariance(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 3)
    n = rng.randint(3, 5)
    names = [f"s{j}" for j in range(k)]
    players = []
    for i in range(n):
        rules = []
        for _ in range(rng.randint(0, 2)):
            rules.append((
                rng.randrange(k),
                Cmp(rng.choice(["==", "<", ">", "<=", ">="]),
                    Count(rng.randrange(k)),
                    Count(rng.randrange(k))),
            ))
        players.append(AnonymousPlayer(f"p{i}", frozenset(range(k)), tuple(rules)))
    game = AnonymousGame(names, players)
    profile = tuple(rng.randrange(k) for _ in range(n))
    others = [j for j in range(n) if j != 0]
    a, b = rng.sample(others, 2)
    swapped = list(profile)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    assert game.utility(profile, 0) == game.utility(tuple(swapped), 0)
