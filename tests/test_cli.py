import io
import json
import random
from collections import Counter

import pytest

from sinkeq.cli import run_cli
from sinkeq.cnf import CnfFormula
from sinkeq.compilers import compile_sat_market, verify_round_anonymous
from sinkeq.dynamics import has_singleton_sink
from sinkeq.games import TableGame, matching_pennies, prisoners_dilemma, coverage_instance
from sinkeq.io import (
    parse_game_file,
    parse_sidecar,
    serialize_game,
    serialize_tm,
)
from sinkeq.turing import initial_config, tm_step

from _oracles import brute_force_pure_nes, is_pure_ne_pointwise


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def pd_path(tmp_path):
    path = tmp_path / "pd.json"
    path.write_text(serialize_game(prisoners_dilemma()))
    return str(path)


@pytest.fixture
def mp_path(tmp_path):
    path = tmp_path / "mp.json"
    path.write_text(serialize_game(matching_pennies()))
    return str(path)


def test_has_pure_answer_and_exit(pd_path):
    code, out, _ = run(["has-pure", pd_path])
    assert code == 0
    assert "has-pure: true" in out


def test_json_format_carries_the_same_facts(pd_path):
    code, out, _ = run(["--format", "json", "has-pure", pd_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["question"] == "has-pure"
    assert doc["answer"] == "true"
    # search nodes: both strategies of player 0, and under each both of
    # player 1's; the sixth node, (1, 1), is the equilibrium
    assert doc["stats"]["states_explored"] == 6


def test_sinks_and_non_singleton(mp_path, pd_path):
    code, out, _ = run(["sinks", mp_path])
    assert code == 0 and "1 sink equilibria" in out
    code, out, _ = run(["has-non-singleton", mp_path])
    assert code == 0 and "true" in out
    code, out, _ = run(["has-non-singleton", pd_path])
    assert code == 0 and "false" in out


def test_in_sink_profile_argument(pd_path):
    code, out, _ = run(["in-sink", pd_path, "--profile", "1,1"])
    assert code == 0 and "in-sink: true" in out
    code, out, _ = run(["in-sink", pd_path, "--profile", "0,0"])
    assert code == 0 and "in-sink: false" in out


def test_cap_gives_inconclusive_exit(mp_path):
    code, out, _ = run(["--cap", "2", "in-sink", mp_path, "--profile", "0,0"])
    assert code == 2
    assert "inconclusive" in out


def test_cli_answers_match_library(pd_path):
    code, out, _ = run(["--format", "json", "has-pure", pd_path])
    doc = json.loads(out)
    game = parse_game_file(open(pd_path).read())
    assert (doc["answer"] == "true") == has_singleton_sink(game)


def check_has_pure_report(game, path):
    """CLI has-pure names a pure NE on YES, finds none where none exists, and
    counts the search nodes it visited."""
    code, out, _ = run(["--format", "json", "has-pure", str(path)])
    assert code == 0
    doc = json.loads(out)
    equilibria = brute_force_pure_nes(game)
    if doc["answer"] == "true":
        assert tuple(doc["extra"]["equilibrium"]) in equilibria
    else:
        assert "extra" not in doc
        assert not equilibria
    explored = doc["stats"]["states_explored"]
    assert isinstance(explored, int) and explored > 0
    return doc["answer"]


def test_has_pure_reports_the_first_equilibrium_and_the_profiles_scanned(tmp_path):
    rng = random.Random(41)
    answers = Counter()
    for k in range(40):
        game = TableGame.random(rng, max_players=4, max_profiles=81)
        path = tmp_path / f"t{k}.json"
        path.write_text(serialize_game(game))
        answers[check_has_pure_report(game, path)] += 1
    assert answers["true"] and answers["false"]
    for k, text in enumerate(["p cnf 2 1\n-1 2 2 0\n", "p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n"]):
        cnf, path = tmp_path / f"f{k}.cnf", tmp_path / f"f{k}.json"
        cnf.write_text(text)
        assert run(["compile", "sat2market", str(cnf), "-o", str(path)])[0] == 0
        answer = check_has_pure_report(parse_game_file(path.read_bytes()), path)
        assert answer == ("true" if k == 0 else "false")


def test_has_pure_on_a_game_without_players(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(serialize_game(TableGame((), [])))
    code, out, _ = run(["--format", "json", "has-pure", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["answer"] == "true" and doc["extra"]["equilibrium"] == []
    assert doc["stats"]["states_explored"] == 0


@pytest.mark.parametrize("machine", ["flipper", "walker", "halter"])
@pytest.mark.parametrize("kind", ["tm2wcg", "tm2psg"])
def test_has_pure_answers_on_the_machine_gadgets(tmp_path, request, machine, kind):
    # 92-134 players; an equilibrium keeps every player but two near the end
    # on strategy 0, so the search finds it in a few hundred nodes
    source, game_path = tmp_path / "machine.tm.json", tmp_path / "gadget.json"
    source.write_text(serialize_tm(request.getfixturevalue(machine)))
    assert run(["compile", kind, str(source), "-o", str(game_path)])[0] == 0
    code, out, _ = run(["--format", "json", "has-pure", str(game_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["answer"] == "true"
    # search nodes, the same on both gadgets of a machine
    nodes = {"flipper": 251, "walker": 364, "halter": 245}[machine]
    assert doc["stats"]["states_explored"] == nodes
    game = parse_game_file(game_path.read_bytes())
    assert is_pure_ne_pointwise(game, tuple(doc["extra"]["equilibrium"]))


def test_has_pure_on_a_market_gadget_stops_at_the_cap(tmp_path, halter):
    # the hub agents co-demand with every agent, so every check falls on the
    # last two depths; unlike on tm2wcg, no equilibrium is found near the
    # all-zero profile, and ascending order does not finish in practice
    source, game_path = tmp_path / "halter.tm.json", tmp_path / "gadget.json"
    source.write_text(serialize_tm(halter))
    assert run(["compile", "tm2market", str(source), "-o", str(game_path)])[0] == 0
    code, out, _ = run(["--format", "json", "--cap", "5000", "has-pure", str(game_path)])
    assert code == 2
    doc = json.loads(out)
    assert doc["answer"] == "inconclusive"
    assert doc["stats"]["states_explored"] == 5000


def test_simulate_walk(mp_path):
    code, out, _ = run([
        "--format", "json", "simulate", mp_path,
        "--policy", "random", "--seed", "9", "--max-steps", "12",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["answer"] == "reached-sink-state"
    assert len(doc["trace"]) == 12


def test_compile_verify_round_and_in_sink(tmp_path, flipper):
    tm_path = tmp_path / "loop.tm.json"
    tm_path.write_text(serialize_tm(flipper))
    game_path = tmp_path / "loop.json"
    code, out, _ = run(["compile", "tm2wcg", str(tm_path), "-o", str(game_path)])
    assert code == 0
    assert (tmp_path / "loop.symbols.json").exists()
    code, out, _ = run(["in-sink", str(game_path), "--profile", "@initial"])
    assert code == 0 and "in-sink: true" in out
    code, out, _ = run(["--format", "json", "verify-round", str(game_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["answer"] == "true"
    assert doc["trace"][0]["role"] == "transition"


def test_compile_anonymous_and_verify(tmp_path, flipper):
    tm_path = tmp_path / "loop.tm.json"
    tm_path.write_text(serialize_tm(flipper))
    game_path = tmp_path / "anon.json"
    code, _, _ = run(["compile", "tm2anon", str(tm_path), "-o", str(game_path)])
    assert code == 0
    code, out, _ = run(["verify-round", str(game_path)])
    assert code == 0 and "verify-round: true" in out


@pytest.mark.parametrize("argv", [
    ["verify-round"],
    ["in-sink"],
])
def test_unparsable_profile_has_one_message(tmp_path, flipper, argv):
    tm_path = tmp_path / "loop.tm.json"
    tm_path.write_text(serialize_tm(flipper))
    game_path = tmp_path / "anon.json"
    assert run(["compile", "tm2anon", str(tm_path), "-o", str(game_path)])[0] == 0
    code, _, err = run([*argv, str(game_path), "--profile", "1,x"])
    assert code == 1
    assert err == "error: cannot parse profile '1,x'\n"


def test_compile_sat_market_pipeline(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
    game_path = tmp_path / "sat.json"
    code, _, _ = run(["compile", "sat2market", str(cnf), "-o", str(game_path)])
    assert code == 0
    code, out, _ = run(["has-pure", str(game_path)])
    assert code == 0 and "has-pure: false" in out


def test_check_valid_utility(tmp_path):
    inst = coverage_instance(
        [("a", "b"), ("b",)],
        [(frozenset(), frozenset({"a"})), (frozenset(), frozenset({"b"}))],
    )
    path = tmp_path / "vu.json"
    path.write_text(serialize_game(inst))
    code, out, _ = run(["--format", "json", "check-valid-utility", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["answer"] == "true"
    assert doc["extra"]["submodular"] is True


def test_export_dot(mp_path):
    code, out, _ = run(["export-dot", mp_path])
    assert code == 0
    assert "digraph state_graph" in out
    assert "doublecircle" in out


def test_error_exit_on_missing_file():
    code, out, err = run(["has-pure", "/nonexistent/game.json"])
    assert code == 1
    assert "error:" in err


def test_semantics_flag_changes_edges(tmp_path):
    # a game where best-response prunes an improvement edge
    from sinkeq.games import TableGame
    game = TableGame((3, 1), [[0, 1, 2], [0, 0, 0]])
    path = tmp_path / "chain.json"
    path.write_text(serialize_game(game))
    code, out, _ = run(["--format", "json", "export-dot", str(path)])
    improvement = json.loads(out)["answer"]
    code, out, _ = run([
        "--semantics", "best-response", "--format", "json", "export-dot", str(path),
    ])
    best = json.loads(out)["answer"]
    assert improvement.count("->") > best.count("->")


def test_compile_player_specific_and_market_kinds(tmp_path, flipper):
    tm_path = tmp_path / "loop.tm.json"
    tm_path.write_text(serialize_tm(flipper))
    for kind, name in (("tm2psg", "ps.json"), ("tm2market", "mkt.json")):
        game_path = tmp_path / name
        code, _, _ = run(["compile", kind, str(tm_path), "-o", str(game_path)])
        assert code == 0
        code, out, _ = run(["in-sink", str(game_path), "--profile", "@initial"])
        assert code == 0 and "in-sink: true" in out


def test_cli_parity_on_more_questions(mp_path):
    game = parse_game_file(open(mp_path).read())
    from sinkeq.dynamics import has_non_singleton_sink, in_a_sink

    code, out, _ = run(["--format", "json", "has-non-singleton", mp_path])
    assert (json.loads(out)["answer"] == "true") == has_non_singleton_sink(game)
    code, out, _ = run(["--format", "json", "in-sink", mp_path, "--profile", "1,0"])
    assert (json.loads(out)["answer"] == "true") == in_a_sink(game, (1, 0))


def test_export_dot_refuses_a_closure_the_cap_cuts(mp_path):
    code, out, _ = run(["--cap", "2", "export-dot", mp_path, "--from", "0,0"])
    assert code == 2
    assert "inconclusive" in out and "digraph" not in out
    code, out, _ = run(["--cap", "4", "export-dot", mp_path, "--from", "0,0"])
    assert code == 0
    assert out.count("doublecircle") == 4


@pytest.mark.parametrize("cap", ["0", "-3", "abc"])
def test_cap_must_be_a_positive_integer(mp_path, cap):
    code, out, err = run(["--cap", cap, "in-sink", mp_path, "--profile", "0,0"])
    assert code == 1 and out == ""
    assert "--cap: must be a positive integer" in err


@pytest.mark.parametrize("argv", [
    ["in-sink", "--profile", "0,0"],
    ["export-dot", "--from", "0,0"],
    ["sinks"],
    ["has-pure"],
    ["has-non-singleton"],
    ["simulate", "--max-steps", "1"],
], ids=lambda argv: argv[0])
def test_a_cap_ends_every_search_as_inconclusive(mp_path, argv):
    code, out, err = run(["--cap", "2", "--format", "json", argv[0], mp_path, *argv[1:]])
    assert code == 2 and err == ""
    doc = json.loads(out)
    assert doc["answer"] == "inconclusive"
    assert doc["reason"].count("cap") == 1
    if argv[0] in ("in-sink", "export-dot"):
        assert doc["reason"] == "forward closure hit the cap of 2 states"
        assert doc["stats"]["states_explored"] == 2


@pytest.mark.parametrize("kind", ["tm2wcg", "tm2psg", "tm2market", "tm2anon", "sat2market"])
def test_verify_round_replays_the_gadget_it_is_given(tmp_path, flipper, kind):
    source = tmp_path / "input"
    if kind == "sat2market":
        source.write_text("p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
    else:
        source.write_text(serialize_tm(flipper))
    game_path = tmp_path / "gadget.json"
    assert run(["compile", kind, str(source), "-o", str(game_path)])[0] == 0
    code, out, err = run(["verify-round", str(game_path)])
    if kind == "sat2market":
        assert code == 1 and out == ""
        assert err == f"error: {tmp_path / 'gadget.symbols.json'} names no machine to replay\n"
    else:
        assert code == 0 and err == ""
        assert "verify-round: true" in out


def test_verify_round_rejects_a_start_off_the_allowed_strategies(tmp_path, flipper):
    source, game_path = tmp_path / "flipper.tm.json", tmp_path / "gadget.json"
    source.write_text(serialize_tm(flipper))
    assert run(["compile", "tm2anon", str(source), "-o", str(game_path)])[0] == 0
    game = parse_game_file(game_path.read_bytes())
    compiled = parse_sidecar((tmp_path / "gadget.symbols.json").read_bytes(), game)
    start = list(compiled.initial)
    start[3] += 1  # tape_0 from tape^b onto position^1, outside its allowed set
    assert start[3] not in game.players[3].allowed
    code, out, err = run(["--format", "json", "verify-round", str(game_path),
                          "--profile", ",".join(map(str, start))])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["answer"] == "false" and doc["trace"] == []
    assert doc["reason"] == "start profile: tape_0 may not be on position^1"


@pytest.mark.parametrize("kind, role, strategy", [
    ("tm2wcg", "state", "q1"), ("tm2anon", "state_0", "state^1"),
])
def test_verify_round_rejects_a_step_off_the_tape(tmp_path, walker, kind, role, strategy):
    # the walker in state 1 at cell 0 reads a blank and moves left
    source, game_path = tmp_path / "walker.tm.json", tmp_path / "gadget.json"
    source.write_text(serialize_tm(walker))
    assert run(["compile", kind, str(source), "-o", str(game_path)])[0] == 0
    game = parse_game_file(game_path.read_bytes())
    compiled = parse_sidecar((tmp_path / "gadget.symbols.json").read_bytes(), game)
    start = list(compiled.initial)
    start[compiled.symbols.player(role)] = compiled.symbols.strategy(role, strategy)
    code, out, err = run(["verify-round", str(game_path),
                          "--profile", ",".join(map(str, start))])
    assert code == 1 and out == ""
    assert err == "error: transition from state 1 at cell 0 leaves the tape\n"


def test_verify_round_replays_a_step_into_the_halting_state_on_tm2anon(tmp_path, halter):
    # from row 18 on the state class holds the halting rank, so control1's
    # halt deviation qualifies beside the moves that finish the round
    source, game_path = tmp_path / "halter.tm.json", tmp_path / "gadget.json"
    source.write_text(serialize_tm(halter))
    assert run(["compile", "tm2anon", str(source), "-o", str(game_path)])[0] == 0
    code, out, err = run(["verify-round", str(game_path)])
    assert code == 0 and err == ""
    assert "verify-round: true" in out
    game = parse_game_file(game_path.read_bytes())
    compiled = parse_sidecar((tmp_path / "gadget.symbols.json").read_bytes(), game)
    report = verify_round_anonymous(compiled)
    assert report.end_config == tm_step(halter, initial_config(halter))
    assert report.end_config.state == halter.q_halt


def _broken_sidecar(tmp_path, machine, kind, mutate):
    """Compile ``machine`` with ``kind`` and rewrite its sidecar through
    ``mutate(doc)``; returns the game path and the sidecar path."""
    source, game_path = tmp_path / "machine.tm.json", tmp_path / "gadget.json"
    source.write_text(serialize_tm(machine))
    assert run(["compile", kind, str(source), "-o", str(game_path)])[0] == 0
    sidecar = tmp_path / "gadget.symbols.json"
    doc = json.loads(sidecar.read_text())
    mutate(doc)
    sidecar.write_text(json.dumps(doc))
    return str(game_path), sidecar


def _one_error_line(argv) -> str:
    code, out, err = run(argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("kind", ["tm2wcg", "tm2anon"])
@pytest.mark.parametrize("mutate, message", [
    (lambda doc: doc.update(initial=doc["initial"][:3]),
     "$.initial: profile has 3 entries, game has"),
    (lambda doc: doc["initial"].__setitem__(0, 999),
     "$.initial: player 0: strategy index 999 out of range"),
], ids=["initial-truncated", "initial-out-of-range"])
def test_verify_round_validates_the_sidecar_initial(tmp_path, flipper, kind, mutate, message):
    game_path, sidecar = _broken_sidecar(tmp_path, flipper, kind, mutate)
    for argv in (["verify-round", game_path], ["in-sink", game_path, "--profile", "@initial"]):
        assert _one_error_line(argv).startswith(f"error: {sidecar}: {message}")


@pytest.mark.parametrize("kind", ["tm2wcg", "tm2anon"])
def test_sidecar_strategies_of_an_unknown_role_are_a_format_error(tmp_path, flipper, kind):
    game_path, sidecar = _broken_sidecar(
        tmp_path, flipper, kind, lambda doc: doc["strategies"].update(ghost={"x": 0}))
    for argv in (["verify-round", game_path], ["in-sink", game_path, "--profile", "@initial"]):
        assert _one_error_line(argv) == (
            f"error: {sidecar}: $.strategies.ghost: role 'ghost' is not in $.players\n")


@pytest.mark.parametrize("kind", ["tm2wcg", "tm2anon"])
def test_verify_round_names_a_cell_role_the_sidecar_lacks(tmp_path, flipper, kind):
    # the sidecar's machine claims five cells; the symbol table holds three
    game_path, _ = _broken_sidecar(
        tmp_path, flipper, kind, lambda doc: doc["machine"].update(t_prime=4))
    assert _one_error_line(["verify-round", game_path]) == (
        "error: the symbol table has no role 'cell_3'\n")


@pytest.mark.parametrize("kind", ["tm2wcg", "tm2anon"])
def test_verify_round_names_a_strategy_the_sidecar_lacks(tmp_path, flipper, kind):
    game_path, _ = _broken_sidecar(
        tmp_path, flipper, kind, lambda doc: doc["strategies"].update(cell_0={}))
    err = _one_error_line(["verify-round", game_path])
    assert err.startswith("error: the symbol table names no strategy ")
    assert err.endswith(" of role 'cell_0'\n")


def test_compile_names_a_dimacs_file_that_is_not_utf8(tmp_path):
    cnf = tmp_path / "bad.cnf"
    cnf.write_bytes(b"p cnf 1 2\n1 1 \xff 0\n")
    code, out, err = run(["compile", "sat2market", str(cnf), "-o", str(tmp_path / "g.json")])
    assert code == 1 and out == ""
    assert err.startswith(f"error: {cnf}: not valid UTF-8: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("option, value", [
    ("--order", "a"), ("--order", "1,-2"), ("--max-steps", "-1"), ("--max-steps", "x"),
])
def test_simulate_options_are_checked_by_name(mp_path, option, value):
    code, out, err = run(["simulate", mp_path, "--policy", "priority", option, value])
    assert code == 1 and out == ""
    assert (f"sinkeq simulate: error: argument {option}: must be a non-negative integer, "
            f"not {value.split(',')[-1]!r}") in err


def test_help_and_usage_errors_reach_the_callers_streams(capsys):
    code, out, err = run(["--help"])
    assert code == 0 and out.startswith("usage: sinkeq") and err == ""
    code, out, err = run(["no-such-command"])
    assert code == 1 and out == "" and "invalid choice: 'no-such-command'" in err
    assert capsys.readouterr() == ("", "")


def test_one_parser_serves_every_command_of_a_process(pd_path):
    code, out, err = run(["has-pure", pd_path])
    assert code == 0 and "has-pure: true" in out and err == ""
    code, out, err = run(["in-sink", pd_path])
    assert code == 1 and out == "" and err.startswith("usage: sinkeq in-sink")
    assert "the following arguments are required: --profile" in err
    first, second = run(["--help"]), run(["--help"])
    assert first == second and first[0] == 0 and first[1].startswith("usage: sinkeq")


def test_simulate_takes_zero_steps_and_a_sparse_order(mp_path):
    code, out, _ = run(["--format", "json", "simulate", mp_path, "--max-steps", "0"])
    doc = json.loads(out)
    assert code == 0 and doc["trace"] == [] and doc["extra"]["final"] == [0, 0]
    code, out, _ = run(["--format", "json", "simulate", mp_path, "--policy", "priority",
                        "--order", "1,,0", "--max-steps", "1"])
    assert code == 0 and json.loads(out)["trace"] == [{"player": 1, "strategy": 1}]


@pytest.mark.parametrize("order, listed", [("7,9", "[7, 9]"), ("1,2", "[1, 2]")])
def test_simulate_refuses_a_priority_list_naming_a_player_outside_the_game(
        mp_path, order, listed):
    err = _one_error_line(["simulate", mp_path, "--policy", "priority", "--order", order])
    assert err == f"error: priority list {listed} names a player outside the game\n"


def test_env_cap_replaces_every_default(mp_path, tmp_path):
    inst = coverage_instance(
        [("a", "b"), ("b",)],
        [(frozenset(), frozenset({"a"})), (frozenset(), frozenset({"b"}))],
    )
    vu_path = tmp_path / "vu.json"
    vu_path.write_text(serialize_game(inst))
    for argv, reason in (
        (["sinks", mp_path], "profile space has 4 states, above the cap of 2"),
        (["export-dot", mp_path], "profile space has 4 states, above the cap of 2"),
        (["check-valid-utility", str(vu_path)],
         "instance too large: 8^2 lattice comparisons exceed cap 2"),
    ):
        code, out, err = run(["--format", "json", "--cap", "2", *argv])
        assert code == 2 and err == ""
        assert json.loads(out)["reason"] == reason


@pytest.mark.parametrize("argv", [
    ["in-sink", "--profile", "0,0"],
    ["export-dot"],
    ["sinks"],
    ["has-pure"],
    ["has-non-singleton"],
    ["simulate", "--max-steps", "1"],
], ids=lambda argv: argv[0])
def test_each_command_reads_the_game_document_once(mp_path, argv, monkeypatch):
    import sinkeq.io as gameio
    parsed = []
    parse = gameio.parse_game_file
    monkeypatch.setattr(gameio, "parse_game_file",
                        lambda data, *args: parsed.append(data) or parse(data, *args))
    code, _, _ = run([argv[0], mp_path, *argv[1:]])
    assert code == 0 and len(parsed) == 1
