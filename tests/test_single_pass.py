"""The traversal expands every state once, and the CLI's stats come from it.

``StateGraph.successors`` is counted per profile while a question runs; the
library questions and the CLI commands must call it exactly once for every
state they explore. The CLI's ``edges`` and ``scc_count`` are checked
against a plain successor sum and the bitset oracle, and so are the
components and sinks the one pass finds on random digraphs.
"""

import io
import json
import random
from collections import Counter, deque

import pytest

from sinkeq.cli import run_cli
from sinkeq.compilers import compile_tm_weighted
from sinkeq.dynamics import Answer, StateGraph, bottom_sccs, in_a_sink, sccs, sinks
from sinkeq.games import TableGame
from sinkeq.io import serialize_game, serialize_sidecar

from _oracles import bitset_bottom_sccs


@pytest.fixture
def expansions(monkeypatch):
    calls = Counter()
    successors = StateGraph.successors

    def counting(self, profile):
        calls[profile] += 1
        return successors(self, profile)

    monkeypatch.setattr(StateGraph, "successors", counting)
    return calls


@pytest.fixture(scope="module")
def gadget(walker):
    return compile_tm_weighted(walker)


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
        for w, _ in graph.successors(todo.popleft()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def test_in_a_sink_expands_each_gadget_state_once(gadget, expansions):
    # the walker loops only after a prefix, so its start is not in a sink
    assert in_a_sink(gadget.game, gadget.initial) is Answer.NO
    expanded = dict(expansions)
    assert set(expanded.values()) == {1}
    assert set(expanded) == reachable(StateGraph(gadget.game), gadget.initial)


def test_cli_in_sink_expands_each_gadget_state_once(gadget, tmp_path, expansions):
    game_path = tmp_path / "walker.json"
    game_path.write_text(serialize_game(gadget.game))
    (tmp_path / "walker.symbols.json").write_text(serialize_sidecar(gadget))
    doc = cli_json(["in-sink", str(game_path), "--profile", "@initial"])
    assert doc["answer"] == "false"
    assert set(expansions.values()) == {1}
    assert len(expansions) == doc["stats"]["states_explored"]


def test_table_questions_expand_each_profile_once(table_4_6, tmp_path, expansions):
    found = sinks(table_4_6)
    assert found and set(expansions.values()) == {1}
    assert len(expansions) == 4 ** 6
    expansions.clear()
    start = next(iter(found[0].states))
    assert in_a_sink(table_4_6, start) is Answer.YES
    assert set(expansions.values()) == {1}
    assert len(expansions) == len(found[0].states)
    game_path = tmp_path / "t.json"
    game_path.write_text(serialize_game(table_4_6))
    for argv in (["sinks", str(game_path)], ["in-sink", str(game_path), "--profile", "0,0,0,0,0,0"]):
        expansions.clear()
        doc = cli_json(argv)
        assert set(expansions.values()) == {1}
        assert len(expansions) == doc["stats"]["states_explored"]


def test_cli_stats_match_an_independent_count(tmp_path):
    rng = random.Random(8)
    for k in range(12):
        game = TableGame.random(rng)
        graph, codec = StateGraph(game), game.codec
        components, _ = bitset_bottom_sccs(
            codec.num_profiles,
            lambda v: [codec.encode(w) for w, _ in graph.successors(codec.decode(v))],
        )
        game_path = tmp_path / f"g{k}.json"
        game_path.write_text(serialize_game(game))
        doc = cli_json(["sinks", str(game_path)])
        assert doc["stats"]["scc_count"] == len(components)
        assert doc["stats"]["edges"] == sum(
            len(graph.successors(p)) for p in codec.all_profiles()
        )
        start = codec.decode(rng.randrange(codec.num_profiles))
        closure = {codec.encode(p) for p in reachable(graph, start)}
        doc = cli_json(["in-sink", str(game_path), "--profile", ",".join(map(str, start))])
        assert doc["stats"]["states_explored"] == len(closure)
        assert doc["stats"]["scc_count"] == sum(1 for c in components if set(c) <= closure)
        assert doc["stats"]["edges"] == sum(
            len(graph.successors(codec.decode(v))) for v in closure
        )


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
