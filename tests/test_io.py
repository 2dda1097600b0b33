import copy
import io
import json
import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkeq import io as gameio
from sinkeq.cli import run_cli
from sinkeq.cnf import CnfFormula, parse_dimacs
from sinkeq.compilers import compile_sat_market, compile_tm_weighted
from sinkeq.dynamics import has_singleton_sink
from sinkeq.errors import ConfigurationError, FormatError, SinkeqError, SymbolError
from sinkeq.games import (
    ActiveAgent,
    AnonymousGame,
    AnonymousPlayer,
    CongestionGame,
    PassiveAgent,
    TableGame,
    TwoSidedMarketGame,
    ValidUtilityInstance,
    count_ge,
    coverage_instance,
    prisoners_dilemma,
)
from sinkeq.io import (
    game_to_json,
    parse_game_file,
    parse_sidecar,
    parse_tm_file,
    serialize_game,
    serialize_sidecar,
    serialize_tm,
)
from sinkeq.turing import TMSpec, wrap_machine

from golden.update import VALUES


def round_trip(game):
    text = serialize_game(game)
    again = parse_game_file(text)
    assert serialize_game(again) == text
    return again


def test_minimal_table_game():
    game = parse_game_file(
        '{"class": "table", "strategy_counts": [1], "tables": [[7]]}'
    )
    assert game.codec.num_profiles == 1
    assert game.utility((0,), 0) == 7


def test_table_round_trip_preserves_answers():
    pd = prisoners_dilemma()
    again = round_trip(pd)
    assert again.tables == pd.tables


def test_congestion_round_trip_both_modes():
    shared = CongestionGame(
        ["e", "f"], [[[0], [1]], [[0, 1], []]],
        [{1: 0, 2: 3, 3: 5}, {1: 1, 2: 2, 3: 4}], weights=[1, 2],
    )
    again = round_trip(shared)
    assert again.weights == (1, 2)
    specific = CongestionGame(
        ["e"], [[[0]], [[0]]],
        [[{1: 1, 2: 5}, {1: 2, 2: 9}]], mode="player_specific",
    )
    again = round_trip(specific)
    assert again.cost((0, 0), 1) == 9


def test_anonymous_round_trip():
    game = AnonymousGame(
        ["a", "b"],
        [
            AnonymousPlayer("p0", frozenset({0, 1}), ((0, count_ge(0, 2)),)),
            AnonymousPlayer("p1", frozenset({0}), ()),
        ],
    )
    again = round_trip(game)
    assert again.utility((0, 0), 0) == 2


def test_market_round_trip_preserves_decision():
    compiled = compile_sat_market(CnfFormula(1, ((1, 1, 1), (-1, -1, -1))))
    again = round_trip(compiled.game)
    assert has_singleton_sink(again) == has_singleton_sink(compiled.game)


def test_valid_utility_round_trip():
    inst = coverage_instance(
        [("a", "b"), ("b",)],
        [(frozenset(), frozenset({"a"})), (frozenset(), frozenset({"b"}))],
    )
    again = round_trip(inst)
    for profile in inst.codec.all_profiles():
        for player in range(2):
            assert again.utility(profile, player) == inst.utility(profile, player)


@pytest.mark.parametrize("utility, social, message", [
    (lambda sets, player: 0.5 * len(sets[player]), lambda sets: 0.5 * len(sets[0]),
     "profile (0,): the utility of player 0 is 0.0, not an integer"),
    (lambda sets, player: len(sets[player]), lambda sets: 1.5 if sets[0] else 0,
     "the social value at [['a']] is 1.5, not an integer"),
], ids=["utility", "social"])
def test_the_valid_utility_writer_refuses_an_oracle_value_that_is_not_an_int(
        utility, social, message):
    inst = ValidUtilityInstance([("a",)], [(frozenset(), frozenset({"a"}))], utility, social)
    with pytest.raises(ConfigurationError) as info:
        serialize_game(inst)
    assert str(info.value) == message


def test_unknown_class_rejected():
    with pytest.raises(FormatError, match="unknown game class"):
        parse_game_file('{"class": "mystery"}')


def test_malformed_json_has_path():
    with pytest.raises(FormatError, match="\\$"):
        parse_game_file("{nope")


def test_missing_delay_entry_diagnostic_names_resource():
    doc = {
        "class": "congestion",
        "resources": ["edge_x"],
        "mode": "shared",
        "weights": [1, 1],
        "strategies": [[[0]], [[0]]],
        "delays": [[[1, 0]]],  # load 2 reachable but missing
    }
    import json
    with pytest.raises(FormatError, match="edge_x"):
        parse_game_file(json.dumps(doc))


def _three_resource_doc(delays) -> str:
    return json.dumps({"class": "congestion", "resources": ["a", "b", "c"], "mode": "shared",
                       "weights": [1, 1], "strategies": [[[0], [1]], [[1], [2]]],
                       "delays": delays})


def test_equal_delay_tables_are_parsed_once():
    game = parse_game_file(_three_resource_doc([[[1, 0]], [[1, 0], [2, 1]], [[1, 0]]]))
    assert game.delays == ({1: 0}, {1: 0, 2: 1}, {1: 0})
    assert game.delays[0] is game.delays[2]
    text = serialize_game(game)
    assert serialize_game(parse_game_file(text)) == text


@pytest.mark.parametrize("delays, path", [
    ([[[1, 0]], [[1, 0.5]], [[1, 0.5]]], "$.delays[1][0][1]"),
    ([[[1, 0]], [[1, 0]], [[1]]], "$.delays[2][0]"),
    ([[[1, 0]], [[1, 0], [2, 1]], {}], "$.delays[2]"),
    ([[[1, 0]], [[1, 5], [2, 9], [1, 7]], [[1, 0]]], "$.delays[1][2]"),
], ids=["first-of-two-bad-copies", "after-good-copies", "not-an-array", "repeated-load"])
def test_a_bad_delay_table_is_named_where_it_first_occurs(delays, path):
    with pytest.raises(FormatError) as info:
        parse_game_file(_three_resource_doc(delays))
    assert info.value.path == path


def test_tm_round_trip(flipper):
    text = serialize_tm(flipper)
    again = parse_tm_file(text)
    assert again.delta == flipper.delta
    assert serialize_tm(again) == text


def test_wrapped_machine_keeps_its_state_names(flipper):
    wrapped = wrap_machine(flipper, "1", 1)
    assert wrapped.state_names
    assert parse_tm_file(serialize_tm(wrapped)) == wrapped
    compiled = replace(compile_tm_weighted(flipper), machine=wrapped)
    again = parse_sidecar(serialize_sidecar(compiled), compiled.game)
    assert again.machine == wrapped


def test_sidecar_round_trip(flipper):
    compiled = compile_tm_weighted(flipper)
    game_text = serialize_game(compiled.game)
    sidecar_text = serialize_sidecar(compiled)
    game = parse_game_file(game_text)
    again = parse_sidecar(sidecar_text, game)
    assert again.initial == compiled.initial
    assert again.symbols.players == compiled.symbols.players
    assert again.symbols.strategies == compiled.symbols.strategies
    assert again.penalty == compiled.penalty
    assert again.machine.delta == flipper.delta


def test_dimacs_basic_and_negation():
    formula = parse_dimacs("c comment\np cnf 1 1\n1 1 1 0\n")
    assert formula.clauses == ((1, 1, 1),)
    formula = parse_dimacs("p cnf 3 1\n1 -2 3 0\n")
    assert formula.clauses == ((1, -2, 3),)


def test_dimacs_rejects_short_clause():
    with pytest.raises(FormatError, match="clause 0 has 2"):
        parse_dimacs("p cnf 2 1\n1 -2 0\n")


def test_dimacs_rejects_bad_header_count():
    with pytest.raises(FormatError, match="promised"):
        parse_dimacs("p cnf 1 2\n1 1 1 0\n")


@pytest.mark.parametrize("text, line, token", [
    ("p cnf 3 1\n1 x 3 0\n", 2, "x"),
    ("p cnf three 1\n1 2 3 0\n", 1, "three"),
], ids=["clause", "problem-line"])
def test_dimacs_non_integers_name_the_file_and_the_line(tmp_path, text, line, token):
    with pytest.raises(FormatError) as info:
        parse_dimacs(text)
    assert info.value.path == f"line {line}"
    cnf = tmp_path / "bad.cnf"
    cnf.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    argv = ["compile", "sat2market", str(cnf), "-o", str(tmp_path / "sat.json")]
    assert run_cli(argv, out=out, err=err) == 1
    assert err.getvalue() == f"error: {cnf}: line {line}: {token!r} is not an integer\n"


def test_game_to_json_deterministic():
    pd = prisoners_dilemma()
    assert game_to_json(pd) == game_to_json(prisoners_dilemma())


def _short_social_table() -> str:
    inst = coverage_instance(
        [("a", "b"), ("b",)],
        [(frozenset(), frozenset({"a"})), (frozenset(), frozenset({"b"}))],
    )
    doc = json.loads(serialize_game(inst))
    doc["social"] = doc["social"][:-1]
    return json.dumps(doc)


@pytest.mark.parametrize("text, path", [
    ('{"class": "table", "strategy_counts": [2], "tables": 5}', "$.tables"),
    ('{"class": "table", "strategy_counts": null, "tables": [[1, 2]]}',
     "$.strategy_counts"),
    (_short_social_table(), "$.social"),
    ('{"class": "table", "strategy_counts": [0], "tables": [[]]}', "$.table"),
], ids=["tables", "strategy_counts", "social", "no-strategies"])
def test_malformed_documents_name_a_path(tmp_path, text, path):
    with pytest.raises(FormatError) as info:
        parse_game_file(text)
    assert info.value.path == path
    game_path = tmp_path / "bad.json"
    game_path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    assert run_cli(["check-valid-utility", str(game_path)], out=out, err=err) == 1
    assert err.getvalue() == f"error: {game_path}: {info.value}\n"


def _anonymous_doc(when, strategies=("a", "b")) -> str:
    return json.dumps({
        "class": "anonymous", "strategies": strategies,
        "players": [{"name": "p", "allowed": [0, 1],
                     "rules": [{"strategy": 0, "when": when}]}],
    })


_LEAF = {"cmp": "==", "lhs": {"count": 0}, "rhs": {"const": 1}}


def _nested_and(depth: int) -> str:
    nested = '{"and": [' * depth + json.dumps(_LEAF) + "]}" * depth
    return _anonymous_doc("WHEN").replace('"WHEN"', nested)


def _congestion_doc(**fields) -> str:
    doc = {"class": "congestion", "resources": ["e"], "mode": "shared",
           "weights": [1, 1], "strategies": [[[0]], [[0]]],
           "delays": [[[1, 1], [2, 3]]]}
    return json.dumps(doc | fields)


def _market_doc(**fields) -> str:
    passive = {"name": "y", "value": 1, "preference": [0]} | fields
    return json.dumps({"class": "market", "passive": [passive],
                       "active": [{"name": "x", "strategies": [[], [0]]}]})


def _anonymous_player_doc(**fields) -> str:
    player = {"name": "p", "allowed": [0, 1],
              "rules": [{"strategy": 0, "when": _LEAF}]} | fields
    return json.dumps({"class": "anonymous", "strategies": ["a", "b"],
                       "players": [player]})


def _coverage_doc(**fields) -> str:
    inst = coverage_instance(
        [("a", "b"), ("b",)],
        [(frozenset(), frozenset({"a"})), (frozenset(), frozenset({"b"}))],
    )
    return json.dumps(game_to_json(inst) | fields)


@pytest.mark.parametrize("text", [
    '{"class": "table", "strategy_counts": [1], "tables": [5]}',
    _anonymous_doc(_LEAF, strategies=None),
    _anonymous_doc({"cmp": "==", "lhs": {"count": 0}}),
    _anonymous_doc({"and": 5}),
    _anonymous_doc({"and": [5]}),
    _anonymous_doc({"cmp": "==", "lhs": {"add": 5}, "rhs": {"const": 1}}),
    _nested_and(200),
    _nested_and(3000),
    '{"class": "table", "strategy_counts": [1], "tables": [[null]]}',
    '{"class": "table", "strategy_counts": [null], "tables": [[1]]}',
    _congestion_doc(strategies=[[[None]], [[0]]]),
    _congestion_doc(weights=[None, 1]),
    _congestion_doc(delays=[[[1, 1], [2, None]]]),
    _market_doc(preference=[None]),
    _anonymous_player_doc(allowed=[None, 1]),
    _anonymous_player_doc(rules=[{"strategy": None, "when": _LEAF}]),
    _anonymous_doc({"cmp": "==", "lhs": {"count": 0}, "rhs": {"const": None}}),
    _congestion_doc(weights=[1.9, 1]),
    _market_doc(value=2.5),
    '{"class": "table", "strategy_counts": [2], "tables": [[0.5, 0.7]]}',
    '{"class": "table", "strategy_counts": [2], "tables": [["x", 1]]}',
    _congestion_doc(weights=[True, 1]),
    _anonymous_doc({"cmp": [], "lhs": {"count": 0}, "rhs": {"const": 1}}),
    _coverage_doc(ground_sets=[["a", []], ["b"]]),
    _coverage_doc(feasible=[[[]], [[]], [[]]]),
    _coverage_doc(utilities=[[0]] * 4),
    _congestion_doc(resources=[0.5]),
    _congestion_doc(resources=[None]),
    _anonymous_doc(_LEAF, strategies=["a", True]),
    _anonymous_player_doc(name=None),
    _market_doc(name=False),
    json.dumps({"class": "market",
                "passive": [{"name": "y", "value": 1, "preference": [0]}],
                "active": [{"name": 1, "strategies": [[], [0]]}]}),
], ids=["table-entry", "strategies-null", "cmp-without-rhs", "and-not-list",
        "predicate-not-object", "add-not-pair", "and-200-deep", "and-3000-deep",
        "table-entry-null", "strategy-count-null", "congestion-strategy-null",
        "weight-null", "delay-null", "preference-null", "allowed-null",
        "rule-strategy-null", "const-null", "weight-float", "value-float",
        "table-entry-float", "table-entry-string", "weight-bool", "cmp-op-array",
        "ground-element-array", "extra-feasible-family", "short-utility-row",
        "resource-name-float", "resource-name-null", "strategy-name-bool",
        "player-name-null", "passive-name-bool", "active-name-int"])
@pytest.mark.parametrize("command", ["has-pure", "sinks"])
def test_hostile_documents_exit_1_with_one_line(tmp_path, text, command):
    with pytest.raises(FormatError):
        parse_game_file(text)
    game_path = tmp_path / "bad.json"
    game_path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    assert run_cli([command, str(game_path)], out=out, err=err) == 1
    message = err.getvalue()
    assert message.startswith(f"error: {game_path}: $") and message.count("\n") == 1


@pytest.mark.parametrize("strategies, path", [
    ([[[0]], [[1.5]]], "$.strategies[1][0][0]"),
    ([[[0]], [5]], "$.strategies[1][0]"),
    ([[[0]], 5], "$.strategies[1]"),
    ([[[0], [0.5]], [[True]]], "$.strategies[0][1][0]"),
], ids=["index-float", "strategy-not-array", "player-not-array", "first-of-two"])
def test_a_bad_congestion_strategy_is_named_by_its_path(strategies, path):
    with pytest.raises(FormatError) as info:
        parse_game_file(_congestion_doc(strategies=strategies))
    assert info.value.path == path


@pytest.mark.parametrize("fields, path", [
    ({"strategies": 5, "resources": [0.5]}, "$.strategies"),
    ({"strategies": [[[0]], [[1.5]]], "resources": [0.5]}, "$.resources[0]"),
    ({"strategies": [[[0]], [[1.5]]], "weights": [1, 0.5]}, "$.strategies[1][0][0]"),
], ids=["strategies-not-array", "resource-before-index", "index-before-weight"])
def test_congestion_faults_are_named_in_document_order(fields, path):
    with pytest.raises(FormatError) as info:
        parse_game_file(_congestion_doc(**fields))
    assert info.value.path == path


def test_shallow_nested_predicate_still_evaluates():
    game = parse_game_file(_nested_and(90))
    assert game.utility((0,), 0) == 2


def test_sidecar_reverse_lookups(flipper):
    compiled = compile_tm_weighted(flipper)
    game = parse_game_file(serialize_game(compiled.game))
    symbols = parse_sidecar(serialize_sidecar(compiled), game).symbols
    for role, index in symbols.players.items():
        assert symbols.role_of(index) == role
        for name, s in symbols.strategies[role].items():
            assert symbols.strategy_name(role, s) == name
    with pytest.raises(KeyError):
        symbols.role_of(len(symbols.players))
    with pytest.raises(KeyError):
        symbols.strategy_name("state", -1)


def test_a_missing_symbol_raises_an_error_naming_it(flipper):
    symbols = compile_tm_weighted(flipper).symbols
    lookups = [
        (lambda: symbols.player("cell_9"), "the symbol table has no role 'cell_9'"),
        (lambda: symbols.strategy("cell_9", "b"),
         "the symbol table has no strategy 'b' of role 'cell_9'"),
        (lambda: symbols.strategy("state", "q9"),
         "the symbol table has no strategy 'q9' of role 'state'"),
        (lambda: symbols.strategy_name("state", 9),
         "the symbol table names no strategy 9 of role 'state'"),
        (lambda: symbols.role_of(-1), "the symbol table names no player -1"),
    ]
    for lookup, message in lookups:
        with pytest.raises(SymbolError) as info:
            lookup()
        assert isinstance(info.value, SinkeqError) and isinstance(info.value, KeyError)
        assert str(info.value) == message


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaf_paths(child, (*path, key))
    elif isinstance(node, list):
        for k, child in enumerate(node):
            yield from _leaf_paths(child, (*path, k))
    else:
        yield path


def _valid_documents() -> list[dict]:
    congestion = CongestionGame(
        ["e", "f"], [[[0], [1]], [[0, 1], [1]]],
        [{1: 0, 2: 3, 3: 5}, {1: 1, 2: 2, 3: 4}], weights=[1, 2],
    )
    anonymous = AnonymousGame(
        ["a", "b"],
        [
            AnonymousPlayer("p0", frozenset({0, 1}), ((0, count_ge(0, 2)),)),
            AnonymousPlayer("p1", frozenset({0, 1}), ((1, count_ge(1, 1)),)),
        ],
    )
    coverage = coverage_instance(
        [("a", "b"), ("b",)],
        [(frozenset(), frozenset({"a"})), (frozenset(), frozenset({"b"}))],
    )
    market = compile_sat_market(CnfFormula(1, ((1, 1, 1),))).game
    games = (prisoners_dilemma(), congestion, anonymous, market, coverage)
    return [game_to_json(game) for game in games]


_DOCUMENTS = _valid_documents()
_REPLACEMENTS = (None, 0.5, 2.0, "x", "1", True, False, [], {})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_documents_exit_cleanly(data):
    """One leaf of a valid document replaced: an answer or one error line."""
    doc = json.loads(json.dumps(data.draw(st.sampled_from(_DOCUMENTS))))
    path = data.draw(st.sampled_from(list(_leaf_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(st.sampled_from(_REPLACEMENTS))
    with tempfile.TemporaryDirectory() as tmp:
        game_path = Path(tmp) / "game.json"
        game_path.write_text(json.dumps(doc))
        for command in ("has-pure", "sinks"):
            out, err = io.StringIO(), io.StringIO()
            code = run_cli([command, str(game_path)], out=out, err=err)
            assert code in (0, 1, 2)
            if code == 1:
                message = err.getvalue()
                assert message.startswith(f"error: {game_path}: $") and message.count("\n") == 1


@pytest.mark.parametrize("field, path", [
    ("players", "$.players.clock"),
    ("strategies", "$.strategies.clock.Trigger"),
])
def test_sidecar_index_must_be_an_integer(tmp_path, flipper, field, path):
    compiled = compile_tm_weighted(flipper)
    game_path = tmp_path / "gadget.json"
    game_path.write_text(serialize_game(compiled.game))
    sidecar = json.loads(serialize_sidecar(compiled))
    if field == "players":
        sidecar["players"]["clock"] = None
    else:
        sidecar["strategies"]["clock"]["Trigger"] = 0.0
    (tmp_path / "gadget.symbols.json").write_text(json.dumps(sidecar))
    out, err = io.StringIO(), io.StringIO()
    argv = ["in-sink", str(game_path), "--profile", "@initial"]
    assert run_cli(argv, out=out, err=err) == 1
    assert err.getvalue() == f"error: {tmp_path / 'gadget.symbols.json'}: {path}: expected an integer\n"


@pytest.mark.parametrize("rule, extra, path, message", [
    ({"read": 1}, {}, "$.delta[0].read", "expected a string"),
    ({"write": None}, {}, "$.delta[0].write", "expected a string"),
    ({"move": True}, {}, "$.delta[0].move", "expected a string"),
    ({"next": "1"}, {}, "$.delta[0].next", "expected an integer"),
    ({}, {"state_names": ["a", 2]}, "$.state_names[1]", "expected a string"),
], ids=["read-int", "write-null", "move-bool", "next-string", "state-name-int"])
def test_machine_names_must_be_strings(tmp_path, flipper, rule, extra, path, message):
    doc = json.loads(serialize_tm(flipper)) | extra
    doc["delta"][0] |= rule
    text = json.dumps(doc)
    with pytest.raises(FormatError) as info:
        parse_tm_file(text)
    assert info.value.path == path
    tm_path = tmp_path / "bad.tm.json"
    tm_path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    argv = ["compile", "tm2wcg", str(tm_path), "-o", str(tmp_path / "g.json")]
    assert run_cli(argv, out=out, err=err) == 1
    assert err.getvalue() == f"error: {tm_path}: {path}: {message}\n"


def test_a_machine_with_two_rules_for_one_state_and_symbol_is_refused(tmp_path, flipper):
    doc = json.loads(serialize_tm(flipper))
    doc["delta"].insert(2, doc["delta"][0] | {"next": 1, "write": "0"})
    text = json.dumps(doc)
    with pytest.raises(FormatError, match="a second rule for state 0") as info:
        parse_tm_file(text)
    assert info.value.path == "$.delta[2]"
    tm_path = tmp_path / "bad.tm.json"
    tm_path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    argv = ["compile", "tm2wcg", str(tm_path), "-o", str(tmp_path / "g.json")]
    assert run_cli(argv, out=out, err=err) == 1
    assert err.getvalue().startswith(f"error: {tm_path}: $.delta[2]: a second rule for state 0")


def _sidecar_cases():
    def truncated(text):
        return text[:12]

    def field(key, value):
        return lambda text: json.dumps(json.loads(text) | {key: value})

    def symbol(table, key, value):
        def mutate(text):
            doc = json.loads(text)
            doc[table][key] = value
            return json.dumps(doc)
        return mutate

    def machine_rule(key, value):
        def mutate(text):
            doc = json.loads(text)
            doc["machine"]["delta"][0][key] = value
            return json.dumps(doc)
        return mutate

    def repeated_rule(text):
        doc = json.loads(text)
        delta = doc["machine"]["delta"]
        delta.insert(1, dict(delta[0]))
        return json.dumps(doc)

    return [
        (truncated, "$: not valid JSON"),
        (field("penalty", "10000"), "$.penalty: expected an integer"),
        (field("market_base", 1.5), "$.market_base: expected an integer"),
        (field("machine", 5), "$.machine: expected an object"),
        (machine_rule("next", "x"), "$.machine.delta[0].next: expected an integer"),
        (machine_rule("read", 0), "$.machine.delta[0].read: expected a string"),
        (repeated_rule, "$.machine.delta[1]: a second rule for state 0"),
        (symbol("players", "cell_0", 92), "$.players.cell_0: 92 is out of range [0, 92)"),
        (symbol("strategies", "cell_0", {"b": 3}),
         "$.strategies.cell_0.b: 3 is out of range [0, 3)"),
    ]


@pytest.mark.parametrize("mutate, message", _sidecar_cases(), ids=[
    "truncated", "penalty-string", "market-base-float", "machine-not-object",
    "machine-next-string", "machine-read-int", "machine-repeated-rule", "player-index",
    "strategy-index"])
def test_malformed_sidecars_name_a_path(tmp_path, flipper, mutate, message):
    compiled = compile_tm_weighted(flipper)
    game_path = tmp_path / "gadget.json"
    game_path.write_text(serialize_game(compiled.game))
    sidecar = mutate(serialize_sidecar(compiled))
    (tmp_path / "gadget.symbols.json").write_text(sidecar)
    out, err = io.StringIO(), io.StringIO()
    argv = ["in-sink", str(game_path), "--profile", "@initial"]
    assert run_cli(argv, out=out, err=err) == 1
    assert err.getvalue().startswith(f"error: {tmp_path / 'gadget.symbols.json'}: {message}")
    assert err.getvalue().count("\n") == 1


def test_a_truncated_document_is_named_in_its_error(tmp_path, flipper):
    compiled = compile_tm_weighted(flipper)
    game_path = tmp_path / "gadget.json"
    sidecar_path = tmp_path / "gadget.symbols.json"
    argv = ["in-sink", str(game_path), "--profile", "@initial"]
    messages = []
    for broken in (game_path, sidecar_path):
        game_path.write_text(serialize_game(compiled.game))
        sidecar_path.write_text(serialize_sidecar(compiled))
        broken.write_text(broken.read_text()[:12])
        out, err = io.StringIO(), io.StringIO()
        assert run_cli(argv, out=out, err=err) == 1
        assert err.getvalue().startswith(f"error: {broken}: $: not valid JSON")
        messages.append(err.getvalue())
    assert messages[0] != messages[1]


# One game of every class and congestion mode.
_GAMES = {
    "table": prisoners_dilemma(),
    "congestion-unweighted": CongestionGame(
        ["e", "f"], [[[0], [1]], [[0, 1], []]], [{1: 0, 2: 3}, {1: 1, 2: 2}]),
    "congestion-weighted": CongestionGame(
        ["e", "f"], [[[0], [1]], [[0, 1], []]],
        [{1: 0, 2: 3, 3: 5}, {1: 1, 2: 2, 3: 4}], weights=[1, 2]),
    "congestion-player-specific": CongestionGame(
        ["e"], [[[0]], [[0]]], [[{1: 1, 2: 5}, {1: 2, 2: 9}]], mode="player_specific"),
    "anonymous": AnonymousGame(["a", "b"], [
        AnonymousPlayer("p0", frozenset({0, 1}), ((0, count_ge(0, 2)),)),
        AnonymousPlayer("p1", frozenset({0}), ()),
    ]),
    "market": compile_sat_market(CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))).game,
    "valid-utility": coverage_instance(
        [("a", "b"), ("b",)],
        [(frozenset(), frozenset({"a"})), (frozenset(), frozenset({"b"}))]),
}


def _old_layout(text: str) -> str:
    """A document as it was written before the compact writer."""
    return json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"


def _documents(flipper):
    """(text, parse, serialize) of every kind of document: games, a sidecar, a machine."""
    docs = {name: (serialize_game(game), parse_game_file, serialize_game)
            for name, game in _GAMES.items()}
    compiled = compile_tm_weighted(flipper)
    docs["sidecar"] = (serialize_sidecar(compiled),
                       lambda text: parse_sidecar(text, compiled.game), serialize_sidecar)
    docs["machine"] = (serialize_tm(flipper), parse_tm_file, serialize_tm)
    return docs


_DOCUMENT_KINDS = [*_GAMES, "sidecar", "machine"]


def _sorted_object(pairs):
    keys = [key for key, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


@pytest.mark.parametrize("kind", _DOCUMENT_KINDS)
def test_a_document_is_one_compact_line_with_sorted_keys(flipper, kind):
    text, parse, serialize = _documents(flipper)[kind]
    assert text.endswith("\n") and text.count("\n") == 1
    doc = json.loads(text, object_pairs_hook=_sorted_object)
    assert json.dumps(doc, separators=(",", ":")) + "\n" == text
    assert serialize(parse(text)) == text


@pytest.mark.parametrize("kind", _DOCUMENT_KINDS)
def test_an_old_layout_document_loads_as_before(flipper, kind):
    text, parse, serialize = _documents(flipper)[kind]
    old = _old_layout(text)
    assert old != text
    if kind in ("sidecar", "machine"):
        assert parse(old) == parse(text)
    else:
        assert game_to_json(parse(old)) == game_to_json(parse(text))
    assert serialize(parse(old)) == text


@pytest.mark.parametrize("kind", ["tm2wcg", "tm2anon"])
def test_in_sink_answers_alike_on_old_layout_gadgets(tmp_path, flipper, kind):
    tm_path = tmp_path / "flipper.tm.json"
    tm_path.write_text(serialize_tm(flipper))
    answers = []
    for layout in ("new", "old"):
        (tmp_path / layout).mkdir()
        game_path = tmp_path / layout / "gadget.json"
        out, err = io.StringIO(), io.StringIO()
        assert run_cli(["compile", kind, str(tm_path), "-o", str(game_path)], out=out, err=err) == 0
        if layout == "old":
            for path in (game_path, tmp_path / layout / "gadget.symbols.json"):
                path.write_text(_old_layout(path.read_text()))
        out = io.StringIO()
        argv = ["--format", "json", "in-sink", str(game_path), "--profile", "@initial"]
        assert run_cli(argv, out=out, err=err) == 0
        answer = json.loads(out.getvalue())
        del answer["stats"]["wall_ms"]
        answers.append(answer)
    assert answers[0] == answers[1]


@pytest.fixture
def walks(monkeypatch):
    """The path of every entry the loaders walk one by one, in walk order."""
    paths = []
    real = gameio._walk

    def spy(value, shape, path):
        paths.append(path)
        return real(value, shape, path)

    monkeypatch.setattr(gameio, "_walk", spy)
    return paths


_SHIFTER = TMSpec(num_states=3, q0=0, q_halt=2, t_prime=2, delta={
    (0, "b"): (1, "1", "R"), (0, "0"): (0, "1", "S"), (0, "1"): (1, "0", "R"),
    (1, "b"): (0, "b", "L"), (1, "0"): (2, "0", "L"), (1, "1"): (0, "1", "L")},
    state_names=("a", "b", "h"))
_GAME = (parse_game_file, serialize_game)
# (text, reader, writer) of one valid document of each kind
VALID = {
    "table": (serialize_game(TableGame.random(random.Random(7), max_players=4)), *_GAME),
    "market": (serialize_game(compile_sat_market(
        CnfFormula(3, ((1, -2, 3), (-1, 2, 2), (-3, -3, 1)))).game), *_GAME),
    "congestion": (serialize_game(_GAMES["congestion-weighted"]), *_GAME),
    "machine": (serialize_tm(_SHIFTER), parse_tm_file, serialize_tm),
}


@pytest.mark.parametrize("kind", sorted(VALID))
def test_a_valid_document_is_checked_without_a_walk(walks, kind):
    text, parse, serialize = VALID[kind]
    assert serialize(parse(text)) == text
    assert not walks


@pytest.mark.parametrize("text, parse, path", [
    ('{"class": "table", "strategy_counts": [2], "tables": [[0, 2.5]]}', parse_game_file,
     "$.tables[0][1]"),
    (json.dumps({"class": "market", "passive": [{"name": "y", "value": 1, "preference": [0]}],
                 "active": [{"name": "x", "strategies": [[], [0, 0.0]]}]}), parse_game_file,
     "$.active[0].strategies[1][1]"),
    (_congestion_doc(strategies=[[[0]], [[1.5]]]), parse_game_file, "$.strategies[1][0][0]"),
    (json.dumps(json.loads(serialize_tm(_SHIFTER)) | {"q_halt": "2"}), parse_tm_file, "$.q_halt"),
], ids=["table", "market", "congestion", "machine"])
def test_a_hostile_document_is_walked_to_name_its_fault(walks, text, parse, path):
    with pytest.raises(FormatError) as info:
        parse(text)
    assert info.value.path == path
    # one walk, from the top of the document to the fault
    assert walks[0] == "$" and walks[-1] == path and walks.count("$") == 1


# every shape the loaders check, with valid values of it
_SHAPES = [
    (gameio._TABLE, [json.loads(VALID["table"][0]), game_to_json(prisoners_dilemma())]),
    (gameio._MARKET, [json.loads(VALID["market"][0]), game_to_json(_GAMES["market"])]),
    (gameio._CONGESTION, [game_to_json(game) for name, game in _GAMES.items()
                          if name.startswith("congestion")]),
    (gameio._MACHINE, [json.loads(serialize_tm(_SHIFTER))]),
    ([int], [[0, 1, 2], []]),
    ([str], [["a", "b"], []]),
    ([[int]], [[[0, 1], [], [2]], []]),
]


def _nodes(doc, at=()):
    """The path of every value in ``doc``, itself first."""
    yield at
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in children:
        yield from _nodes(value, (*at, key))


def _walk_raises(value, shape) -> bool:
    try:
        gameio._walk(value, shape, "$")
    except FormatError:
        return True
    return False


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_the_bulk_check_refuses_exactly_what_the_walk_refuses(data):
    """A valid value of a shape mutated once: a leaf replaced by a refusal
    corpus value, a key dropped, or an array wrapped in another."""
    shape, values = data.draw(st.sampled_from(_SHAPES))
    value = copy.deepcopy(data.draw(st.sampled_from(values)))
    assert gameio._fits([value], shape, {}) and not _walk_raises(value, shape)
    at = data.draw(st.sampled_from(list(_nodes(value))))
    node = value
    for key in at:
        node = node[key]
    if isinstance(node, dict) and node and data.draw(st.booleans()):
        del node[data.draw(st.sampled_from(sorted(node)))]
    elif isinstance(node, list) and node and data.draw(st.booleans()):
        node[:] = [list(node)]
    elif at:
        parent = value
        for key in at[:-1]:
            parent = parent[key]
        parent[at[-1]] = copy.deepcopy(data.draw(st.sampled_from(VALUES)))
    refused = _walk_raises(value, shape)
    assert gameio._fits([value], shape, {}) == (not refused)
    # checked as arrays only, a value refused in bulk is refused by the walk
    assert gameio._fits([value], shape, {}, scalars=False) or refused


def test_constructors_refuse_a_number_that_is_not_an_int():
    with pytest.raises(ConfigurationError, match=r"^player 0: table entry 1 is 1\.0, not an integer$"):
        TableGame([2], [[0, 1.0]])
    passive = PassiveAgent("y", 1, (0,))
    active = ActiveAgent("x", (frozenset(), frozenset({0})))
    for agents, message in [
        (([replace(passive, value=2.5)], [active]), r"^passive agent y: value is 2\.5, not an integer$"),
        (([replace(passive, preference=(True,))], [active]),
         r"^passive agent y: preference entry 0 is True, not an integer$"),
        (([passive], [replace(active, strategies=(frozenset({0.5}),))]),
         r"^agent x: passive index is 0\.5, not an integer$"),
    ]:
        with pytest.raises(ConfigurationError, match=message):
            TwoSidedMarketGame(*agents)
