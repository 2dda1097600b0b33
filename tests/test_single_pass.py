"""The traversal expands every state once, and the CLI's stats come from it.

Forward closures call ``StateGraph.improving_moves`` once for every state
they explore, counted per profile while a question runs, and so do
``export-dot --from`` and ``closures_isomorphic``, which read the successor
lists the pass records. The full-space questions expand no single state
and run no Tarjan pass: ``sinks``, ``has-non-singleton`` and full-space
``export-dot`` answer from the bitsets of ``dynamics.move_unions``, which
takes each player's layers from the game's ``code_layers`` once, and
has-non-singleton runs no sink search. A table game's layers are slices
of its tables, so those passes call ``TableGame._row`` zero times; the
default hook, counted through ``CongestionGame.deviation_utilities``, reads
each player's row once per line of profiles that differ only in that
player's strategy, at the line's base. Recorded successor lists, and the
moves the unions hold, are checked against the row oracle's
(``_oracles.successors_by_rows``). The CLI's ``edges`` are checked against
a plain successor sum, its in-sink ``scc_count`` and its sink sizes against
the bitset oracle, and so are the components and sinks the one pass finds
on random digraphs. In-sink stops at the first sink without its start:
that answer is checked against the whole closure's, and that sink against
the oracle.
"""

import io
import json
import random
from collections import Counter, deque

import pytest

from sinkeq import cli, dynamics
from sinkeq.cli import run_cli
from sinkeq.compilers import common as compilers_common
from sinkeq.compilers import (
    CompiledReduction,
    SymbolTable,
    closures_isomorphic,
    compile_tm_anonymous,
    compile_tm_market,
    compile_tm_player_specific,
    compile_tm_weighted,
)
from sinkeq.dynamics import (
    EdgeSemantics,
    StateGraph,
    WalkOutcome,
    bottom_sccs,
    forward_closure,
    has_non_singleton_sink,
    has_singleton_sink,
    in_a_sink,
    move_unions,
    sccs,
    simulate_walk,
    sinks,
    space_sinks,
)
from sinkeq.dot import export_space_dot
from sinkeq.errors import CapExceededError
from sinkeq.games import CongestionGame, TableGame
from sinkeq.io import serialize_game, serialize_sidecar
from sinkeq.profiles import ProfileCodec

from _oracles import bitset_bottom_sccs, successors_by_rows
from test_code_walk import read_unions


def oracle_successors(graph, profile):
    """(next profile, mover) pairs by the row oracle, under ``graph``'s semantics."""
    return successors_by_rows(graph.game, profile, graph.semantics is EdgeSemantics.BEST_RESPONSE)


@pytest.fixture
def expansions(monkeypatch):
    """``improving_moves`` calls (forward closures), by profile."""
    calls = Counter()
    improving_moves = StateGraph.improving_moves

    def counting(self, profile, origin=None):
        calls[profile] += 1
        return improving_moves(self, profile, origin)

    monkeypatch.setattr(StateGraph, "improving_moves", counting)
    return calls


@pytest.fixture
def moves(monkeypatch):
    """``improving_moves`` calls, keyed by (game, profile)."""
    calls = Counter()
    improving_moves = StateGraph.improving_moves

    def counting(self, profile, origin=None):
        calls[id(self.game), profile] += 1
        return improving_moves(self, profile, origin)

    monkeypatch.setattr(StateGraph, "improving_moves", counting)
    return calls


@pytest.fixture
def rows(monkeypatch):
    """``TableGame._row`` calls, keyed by (player, code)."""
    calls = Counter()
    row = TableGame._row

    def counting(self, code, player):
        calls[player, code] += 1
        return row(self, code, player)

    monkeypatch.setattr(TableGame, "_row", counting)
    return calls


@pytest.fixture
def layers(monkeypatch):
    """``TableGame.code_layers`` calls, by player."""
    calls = Counter()
    code_layers = TableGame.code_layers

    def counting(self, player):
        calls[player] += 1
        return code_layers(self, player)

    monkeypatch.setattr(TableGame, "code_layers", counting)
    return calls


def check_layers_read_once(layers, rows, game):
    """A table's full-space pass read no row: it took the layers of each
    player with two or more strategies from the player's table, once."""
    assert not rows
    assert layers == Counter(p for p, count in enumerate(game.strategy_counts) if count > 1)


@pytest.fixture
def deviations(monkeypatch):
    """``CongestionGame.deviation_utilities`` calls, keyed by (player, code)."""
    calls = Counter()
    deviation_utilities = CongestionGame.deviation_utilities

    def counting(self, profile, player):
        calls[player, self.codec.encode(profile)] += 1
        return deviation_utilities(self, profile, player)

    monkeypatch.setattr(CongestionGame, "deviation_utilities", counting)
    return calls


def check_one_row_per_line(rows, game):
    """The default ``code_layers`` read each row once per line, at the
    line's base (the player's digit 0): N / k rows for a player with k >= 2
    strategies, none for a player with one."""
    assert set(rows.values()) == {1}
    codec = game.codec
    for player, (weight, count) in enumerate(zip(codec.place_weights, codec.strategy_counts)):
        read = {code for p, code in rows if p == player}
        assert len(read) == (codec.num_profiles // count if count > 1 else 0)
        assert all(code // weight % count == 0 for code in read)


@pytest.fixture(scope="module")
def gadget(walker):
    return compile_tm_weighted(walker)


@pytest.fixture(scope="module")
def congestion():
    """A congestion game with strategy counts (3, 1, 2, 2), a one-strategy
    player among them."""
    rng = random.Random(12)
    strategies = [[[0], [1], [2]], [[0, 1]], [[1], [2]], [[0], [2]]]
    delays = [{load: rng.randint(0, 9) for load in range(1, 5)} for _ in range(3)]
    return CongestionGame(["e0", "e1", "e2"], strategies, delays)


@pytest.fixture(scope="module")
def table_4_6():
    rng = random.Random(46)
    size = 4 ** 6
    return TableGame((4,) * 6, [[rng.randint(0, 99) for _ in range(size)] for _ in range(6)])


def cli_json(argv):
    out, err = io.StringIO(), io.StringIO()
    assert run_cli(["--format", "json", *argv], out=out, err=err) == 0, err.getvalue()
    return json.loads(out.getvalue())


def reachable(graph, start):
    seen, todo = {start}, deque([start])
    while todo:
        for w, _ in oracle_successors(graph, todo.popleft()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def test_in_a_sink_expands_each_gadget_state_once(gadget, expansions):
    graph = StateGraph(gadget.game)
    # the walker loops only after a prefix, so its start is not in a sink
    assert in_a_sink(gadget.game, gadget.initial) is False
    expanded = dict(expansions)
    assert set(expanded.values()) == {1}
    stopped = forward_closure(graph, gadget.initial, stop_at_foreign_sink=True)
    assert set(expanded) == set(stopped.states)
    assert set(expanded) < reachable(graph, gadget.initial)
    # a start inside that sink answers YES over its whole closure
    looping = stopped.sinks[0][0]
    expansions.clear()
    assert in_a_sink(gadget.game, looping) is True
    assert set(expansions.values()) == {1}
    assert set(expansions) == reachable(graph, looping)


def test_cli_in_sink_expands_each_gadget_state_once(gadget, tmp_path, expansions):
    game_path = tmp_path / "walker.json"
    game_path.write_text(serialize_game(gadget.game))
    (tmp_path / "walker.symbols.json").write_text(serialize_sidecar(gadget))
    doc = cli_json(["in-sink", str(game_path), "--profile", "@initial"])
    assert doc["answer"] == "false"
    assert set(expansions.values()) == {1}
    assert len(expansions) == doc["stats"]["states_explored"]


def test_table_questions_expand_each_profile_once(table_4_6, tmp_path, expansions, rows,
                                                  layers):
    found = sinks(table_4_6)
    assert found and not expansions
    check_layers_read_once(layers, rows, table_4_6)
    start = next(iter(found[0]))
    assert in_a_sink(table_4_6, start) is True
    assert set(expansions.values()) == {1}
    assert len(expansions) == len(found[0])
    game_path = tmp_path / "t.json"
    game_path.write_text(serialize_game(table_4_6))
    rows.clear()
    layers.clear()
    doc = cli_json(["sinks", str(game_path)])
    check_layers_read_once(layers, rows, table_4_6)
    assert doc["stats"]["states_explored"] == 4 ** 6
    expansions.clear()
    doc = cli_json(["in-sink", str(game_path), "--profile", "0,0,0,0,0,0"])
    assert set(expansions.values()) == {1}
    assert len(expansions) == doc["stats"]["states_explored"]


def test_full_space_questions_encode_no_profile(table_4_6, tmp_path, monkeypatch):
    calls = Counter()

    def counted(name):
        method = getattr(ProfileCodec, name)

        def counting(self, *args):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(ProfileCodec, name, counting)

    for name in ("encode", "decode", "all_profiles"):
        counted(name)
    assert sinks(table_4_6) and has_singleton_sink(table_4_6)
    assert export_space_dot(*space_sinks(StateGraph(table_4_6)), table_4_6.codec)
    assert calls["encode"] == 0
    # the CLI's sinks reads sink sizes from the codes, has-non-singleton counts bits:
    # nothing is decoded
    calls.clear()
    game_path = tmp_path / "t.json"
    game_path.write_text(serialize_game(table_4_6))
    assert cli_json(["sinks", str(game_path)])["extra"]["sink_sizes"]
    assert cli_json(["has-non-singleton", str(game_path)])["answer"] in ("true", "false")
    has_non_singleton_sink(table_4_6)
    assert calls == {}


@pytest.mark.parametrize("semantics", EdgeSemantics, ids=lambda s: s.value)
def test_has_non_singleton_reads_each_row_once_and_builds_no_graph(
        table_4_6, tmp_path, rows, layers, monkeypatch, semantics):
    def refused(*args):
        raise AssertionError("has-non-singleton searched for sinks or ran Tarjan")

    for module in (dynamics, cli):
        monkeypatch.setattr(module, "space_sinks", refused)
    monkeypatch.setattr(dynamics, "_tarjan", refused)
    game_path = tmp_path / "t.json"
    game_path.write_text(serialize_game(table_4_6))
    doc = cli_json(["--semantics", semantics.value, "has-non-singleton", str(game_path)])
    check_layers_read_once(layers, rows, table_4_6)
    assert doc["stats"]["states_explored"] == 4 ** 6
    assert sorted(doc["extra"]) == ["equilibria", "stuck_states"]
    rows.clear()
    layers.clear()
    assert has_non_singleton_sink(table_4_6, semantics) == (doc["answer"] == "true")
    check_layers_read_once(layers, rows, table_4_6)
    # a cap below the profile space refuses the pass before it reads a row
    rows.clear()
    layers.clear()
    out, err = io.StringIO(), io.StringIO()
    argv = ["--cap", "4095", "--format", "json", "has-non-singleton", str(game_path)]
    assert run_cli(argv, out=out, err=err) == 2 and err.getvalue() == ""
    doc = json.loads(out.getvalue())
    assert doc["answer"] == "inconclusive" and not rows and not layers
    assert doc["reason"] == "profile space has 4096 states, above the cap of 4095"


@pytest.mark.parametrize("semantics", EdgeSemantics, ids=lambda s: s.value)
def test_full_space_passes_read_a_default_row_once_per_line(
        congestion, tmp_path, deviations, monkeypatch, semantics):
    monkeypatch.setattr(StateGraph, "improving_moves", None)  # no single state is expanded
    assert sinks(congestion, semantics)
    check_one_row_per_line(deviations, congestion)
    deviations.clear()
    has_non_singleton_sink(congestion, semantics)
    check_one_row_per_line(deviations, congestion)
    game_path = tmp_path / "c.json"
    game_path.write_text(serialize_game(congestion))
    for question in ("sinks", "has-non-singleton"):
        deviations.clear()
        doc = cli_json(["--semantics", semantics.value, question, str(game_path)])
        check_one_row_per_line(deviations, congestion)
        assert doc["stats"]["states_explored"] == 12
    deviations.clear()
    dot = cli_json(["--semantics", semantics.value, "export-dot", str(game_path)])["answer"]
    check_one_row_per_line(deviations, congestion)
    assert dot.count("[label=") - dot.count("->") == 12


def test_cli_stats_match_an_independent_count(tmp_path):
    rng = random.Random(8)
    answers = Counter()
    for k in range(12):
        game = TableGame.random(rng)
        graph, codec = StateGraph(game), game.codec
        components, bottoms = bitset_bottom_sccs(
            codec.num_profiles,
            lambda v: [codec.encode(w) for w, _ in oracle_successors(graph, codec.decode(v))],
        )
        game_path = tmp_path / f"g{k}.json"
        game_path.write_text(serialize_game(game))
        doc = cli_json(["sinks", str(game_path)])
        assert doc["stats"]["scc_count"] is None
        assert doc["extra"]["sink_sizes"] == [len(b) for b in sorted(bottoms, key=min)]
        assert doc["stats"]["edges"] == sum(
            len(oracle_successors(graph, p)) for p in codec.all_profiles()
        )
        # a random start, and one inside a sink so that every game has a YES
        for start in (rng.randrange(codec.num_profiles), min(bottoms[0])):
            closure = {codec.encode(p) for p in reachable(graph, codec.decode(start))}
            profile = ",".join(map(str, codec.decode(start)))
            doc = cli_json(["in-sink", str(game_path), "--profile", profile])
            answers[doc["answer"]] += 1
            if any(start in bottom for bottom in bottoms):
                assert doc["answer"] == "true" and "extra" not in doc
                assert doc["stats"]["states_explored"] == len(closure)
                assert doc["stats"]["scc_count"] == sum(
                    1 for c in components if set(c) <= closure)
                assert doc["stats"]["edges"] == sum(
                    len(oracle_successors(graph, codec.decode(v))) for v in closure
                )
            else:
                # a NO reports what was explored until the first foreign sink completed
                assert doc["answer"] == "false"
                assert doc["stats"]["states_explored"] <= len(closure)
                assert doc["extra"]["sink_size"] in {len(b) for b in bottoms if b <= closure}
    assert answers["false"] > 0


def test_components_and_sinks_match_bitset_oracle_on_random_digraphs():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 24)
        density = rng.choice([0.03, 0.08, 0.15, 0.3])
        # targets n..n+2 lie outside the vertex set, so their edges are ignored
        adj = {v: [w for w in range(n + 3) if rng.random() < density] for v in range(n)}
        roots = list(range(n))
        rng.shuffle(roots)
        components, bottoms = bitset_bottom_sccs(n, lambda v: [w for w in adj[v] if w < n])
        got = sccs(roots, adj.__getitem__)
        assert sorted(map(sorted, got)) == sorted(map(sorted, components))
        assert {frozenset(c) for c in bottom_sccs(roots, adj.__getitem__)} == set(bottoms)


def test_export_dot_expands_each_state_once(gadget, table_4_6, tmp_path, moves, rows, layers):
    table_path = tmp_path / "t.json"
    table_path.write_text(serialize_game(table_4_6))
    game_path = tmp_path / "walker.json"
    game_path.write_text(serialize_game(gadget.game))
    (tmp_path / "walker.symbols.json").write_text(serialize_sidecar(gadget))
    dot = cli_json(["export-dot", str(table_path)])["answer"]
    assert not moves
    check_layers_read_once(layers, rows, table_4_6)
    assert dot.count("[label=") - dot.count("->") == 4 ** 6
    dot = cli_json(["export-dot", str(game_path), "--from", "@initial"])["answer"]
    assert set(moves.values()) == {1}
    assert len(moves) == dot.count("[label=") - dot.count("->")


def test_closures_isomorphic_expands_each_state_once(flipper, walker, moves):
    for spec in (flipper, walker):
        weighted = compile_tm_weighted(spec)
        size = len(forward_closure(StateGraph(weighted.game), weighted.initial))
        for other in (compile_tm_player_specific(spec), compile_tm_market(spec)):
            moves.clear()
            assert closures_isomorphic(weighted, other)
            assert set(moves.values()) == {1}
            per_game = Counter(game for game, _ in moves)
            assert per_game == {id(weighted.game): size, id(other.game): size}


def test_closures_isomorphic_compares_edges_under_the_role_mapping():
    pennies = {(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1), (1, 1): (1, 0)}

    def reduction(payoffs, row, flip):
        symbols = SymbolTable()
        for role, player in (("row", row), ("col", 1 - row)):
            symbols.add_player(role, player)
            for name, index in (("H", flip), ("T", 1 - flip)):
                symbols.add_strategy(role, name, index)
        return CompiledReduction(TableGame.from_profile_map((2, 2), payoffs), (flip, flip), symbols)

    a = reduction(pennies, 0, 0)
    # players and strategies renamed: the same 4-cycle
    relabelled = {(1 - c, 1 - r): (v, u) for (r, c), (u, v) in pennies.items()}
    assert closures_isomorphic(a, reduction(relabelled, 1, 1))
    # the same states, the cycle run backwards
    backwards = {profile: (v, u) for profile, (u, v) in pennies.items()}
    assert not closures_isomorphic(a, reduction(backwards, 0, 0))


def test_closures_isomorphic_is_inconclusive_on_a_cut_closure(gadget):
    with pytest.raises(CapExceededError, match="cap of 3 states") as info:
        closures_isomorphic(gadget, gadget, cap=3)
    assert info.value.explored == 3


def test_closures_isomorphic_takes_the_default_cap_of_a_forward_closure(gadget, monkeypatch):
    caps = []

    def spy(graph, start, cap=None, stop_at_foreign_sink=False):
        caps.append(cap)
        return forward_closure(graph, start, cap, stop_at_foreign_sink)

    monkeypatch.setattr(compilers_common, "forward_closure", spy)
    assert closures_isomorphic(gadget, gadget)
    assert caps == [None, None]


def fresh_successors(closure, graph):
    return [[closure.index.get(w) for w, _ in oracle_successors(graph, v)] for v in closure.states]


def test_recorded_successors_match_a_fresh_expansion(gadget):
    rng = random.Random(29)
    for _ in range(25):
        game = TableGame.random(rng)
        for semantics in EdgeSemantics:
            graph = StateGraph(game, semantics)
            codec = game.codec
            start = codec.decode(rng.randrange(codec.num_profiles))
            closure = forward_closure(graph, start)
            assert closure.successors == fresh_successors(closure, graph)
            # the move unions, read per code in list order, hold every move
            assert read_unions(move_unions(graph), codec.num_profiles) == [
                [codec.encode(w) for w, _ in oracle_successors(graph, codec.decode(k))]
                for k in range(codec.num_profiles)]
    graph = StateGraph(gadget.game)
    closure = forward_closure(graph, gadget.initial)
    assert closure.successors == fresh_successors(closure, graph)


def test_a_cut_closure_records_edges_inside_its_states(gadget):
    # a closure is cut only where it stops at its first sink without the start
    graph = StateGraph(gadget.game)
    whole = forward_closure(graph, gadget.initial)
    stopped = forward_closure(graph, gadget.initial, stop_at_foreign_sink=True)
    assert not stopped.exhausted and stopped.states == whole.states[:len(stopped)]
    partial = 0
    for out, fresh in zip(stopped.successors, fresh_successors(stopped, graph)):
        assert out == fresh[:len(out)] and None not in out
        partial += out != fresh
    # the states still being expanded at the stop ended before an undiscovered one
    assert partial >= 1


def oracle_bottoms(graph, root):
    """The bottom SCCs among the states ``root`` reaches, by the bitset oracle."""
    order = list(reachable(graph, root))
    number = {p: k for k, p in enumerate(order)}
    _, bottoms = bitset_bottom_sccs(
        len(order), lambda v: [number[w] for w, _ in oracle_successors(graph, order[v])])
    return [{order[v] for v in bottom} for bottom in bottoms]


def check_early_answer(graph, start, expansions):
    """The stopped in-sink answer against the whole closure's; returns it."""
    whole = forward_closure(graph, start)
    expected = len(whole.components) == 1
    expansions.clear()
    assert in_a_sink(graph.game, start, graph.semantics) is expected
    assert set(expansions.values()) == {1}
    stopped = forward_closure(graph, start, stop_at_foreign_sink=True)
    assert set(expansions) == set(stopped.states)
    assert stopped.start_in_sink is expected
    # the same DFS, cut where the answer became known
    assert stopped.states == whole.states[:len(stopped)]
    if expected:
        assert stopped.exhausted and len(stopped) == len(whole)
    else:
        sink = stopped.sinks[0]
        assert stopped.components == [sink] and start not in sink
        assert set(sink) in oracle_bottoms(graph, sink[0])
    return expected


def test_early_answer_matches_the_whole_closure_on_random_tables(expansions):
    rng = random.Random(81)
    answers = Counter()
    for _ in range(40):
        game = TableGame.random(rng)
        for semantics in EdgeSemantics:
            graph = StateGraph(game, semantics)
            for _ in range(3):
                start = game.codec.decode(rng.randrange(game.codec.num_profiles))
                answers[check_early_answer(graph, start, expansions)] += 1
    assert answers[True] and answers[False]


@pytest.mark.parametrize("semantics", EdgeSemantics, ids=lambda s: s.value)
@pytest.mark.parametrize("compile_tm", [compile_tm_weighted, compile_tm_player_specific,
                                        compile_tm_market, compile_tm_anonymous],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("machine", ["flipper", "walker"])
def test_early_answer_matches_the_whole_closure_on_gadgets(
        request, machine, compile_tm, semantics, expansions):
    compiled = compile_tm(request.getfixturevalue(machine))
    check_early_answer(StateGraph(compiled.game, semantics), compiled.initial, expansions)


@pytest.fixture(scope="module")
def anonymous_gadget(walker):
    return compile_tm_anonymous(walker)


def test_anonymous_walker_stops_at_its_first_sink(anonymous_gadget, expansions):
    game, initial = anonymous_gadget.game, anonymous_gadget.initial
    assert in_a_sink(game, initial) is False
    assert set(expansions.values()) == {1}
    assert len(expansions) == 606
    stopped = forward_closure(StateGraph(game), initial, stop_at_foreign_sink=True)
    assert len(stopped.sinks[0]) == 546
    assert len(forward_closure(StateGraph(game), initial)) == 2850


def test_a_cap_past_the_first_sink_answers_no(anonymous_gadget, tmp_path):
    game, initial = anonymous_gadget.game, anonymous_gadget.initial
    # the whole closure has 2850 states; the answer is known after 606
    with pytest.raises(CapExceededError, match="cap of 605 states") as info:
        in_a_sink(game, initial, cap=605)
    assert info.value.explored == 605
    assert in_a_sink(game, initial, cap=606) is False
    assert in_a_sink(game, initial, cap=1000) is False
    walk = simulate_walk(StateGraph(game), initial, max_steps=0, closure_cap=1000)
    assert walk.outcome is WalkOutcome.STILL_MOVING
    game_path = tmp_path / "walker.json"
    game_path.write_text(serialize_game(game))
    (tmp_path / "walker.symbols.json").write_text(serialize_sidecar(anonymous_gadget))
    doc = cli_json(["--cap", "1000", "in-sink", str(game_path), "--profile", "@initial"])
    assert doc["answer"] == "false" and doc["extra"] == {"sink_size": 546}
    assert doc["stats"]["states_explored"] == 606 and doc["stats"]["scc_count"] == 1
    doc = cli_json(["--cap", "1000", "simulate", str(game_path), "--profile", "@initial",
                    "--max-steps", "0"])
    assert doc["answer"] == "still-moving" and doc["stats"]["states_explored"] == 1
