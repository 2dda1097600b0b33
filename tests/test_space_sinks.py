"""The full-space sink search on the move unions (``dynamics.space_sinks``).

The sinks of ``sinks()`` are compared with the bitset oracle on random
tables with one-strategy players among them, and with the Kosaraju oracle
on larger ones, under both semantics. A pinned table makes the first pivot
reach its sink from outside it (F ⊄ B), and a 60×60 best-response table,
where the lowest-code pivot takes 60 rounds, must take at most 2 under the
frontier pivot rule.
"""

import io
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sinkeq import dynamics
from sinkeq.cli import run_cli
from sinkeq.dynamics import EdgeSemantics, StateGraph, sinks, space_sinks
from sinkeq.games import TableGame

from _oracles import bitset_bottom_sccs, code_successors, kosaraju_bottom_sccs
from test_cli_process import TABLE


@pytest.fixture
def rounds(monkeypatch):
    """The pivots of the search's rounds, one forward reach each: the reaches
    grown over the moves' targets, not over the move unions themselves."""
    built, pivots = [], []
    move_unions, grow = dynamics.move_unions, dynamics._grow

    def recording(*args):
        built.append(move_unions(*args))
        return built[-1]

    def counting(moves, reach, within):
        if all(moves is not unions for unions in built):
            pivots.append(reach)
        return grow(moves, reach, within)

    monkeypatch.setattr(dynamics, "move_unions", recording)
    monkeypatch.setattr(dynamics, "_grow", counting)
    return pivots


def oracle_sinks(game, semantics, bottoms):
    """The oracle's bottom SCCs as profile sets, by their lowest code."""
    adjacency = code_successors(game, semantics is EdgeSemantics.BEST_RESPONSE)
    return [frozenset(map(game.codec.decode, sorted(b))) for b in
            sorted(bottoms(adjacency), key=min)]


@settings(max_examples=150, deadline=None)
@given(counts=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5)
       .filter(lambda counts: math.prod(counts) <= 96),
       one=st.integers(min_value=0, max_value=5),
       seed=st.integers(min_value=0, max_value=10**6),
       ties=st.booleans())
def test_sinks_match_the_bitset_oracle(counts, one, seed, ties):
    if one < len(counts):
        counts[one] = 1  # a one-strategy player
    size = math.prod(counts)
    rng = random.Random(seed)
    game = TableGame(counts, [[rng.randint(0, 1 if ties else 9) for _ in range(size)]
                              for _ in counts])
    for semantics in EdgeSemantics:
        want = oracle_sinks(game, semantics,
                            lambda adj: bitset_bottom_sccs(len(adj), adj.__getitem__)[1])
        assert sinks(game, semantics) == want


@pytest.mark.parametrize("semantics", EdgeSemantics, ids=lambda s: s.value)
def test_sinks_match_the_kosaraju_oracle_on_larger_tables(semantics):
    rng = random.Random(31)
    for counts in [(4, 4, 4, 4), (3,) * 6, (2,) * 9, (5, 1, 3, 2, 4), (12, 12), (6, 6, 2)]:
        size = math.prod(counts)
        game = TableGame(counts, [[rng.randint(0, 5) for _ in range(size)] for _ in counts])
        assert sinks(game, semantics) == oracle_sinks(game, semantics, kosaraju_bottom_sccs)


def relabelled_table():
    """TABLE with strategies 0 and 1 swapped for players 0 and 3: its one
    stuck code outside the 8-state sink, profile (1, 0, 0, 1), becomes code 0."""
    counts = TABLE["strategy_counts"]
    codec = TableGame(counts, TABLE["tables"]).codec

    def relabel(profile):
        return (1, 0, 2)[profile[0]], profile[1], profile[2], 1 - profile[3]

    moved = [codec.encode(relabel(codec.decode(k))) for k in range(codec.num_profiles)]
    return TableGame(counts, [[table[k] for k in moved] for table in TABLE["tables"]])


@pytest.mark.parametrize("semantics", EdgeSemantics, ids=lambda s: s.value)
def test_a_first_pivot_outside_its_sink(semantics, rounds):
    game = relabelled_table()
    graph = StateGraph(game, semantics)
    equilibria, stuck = dynamics.backward_reach(graph)
    assert dynamics.bitset_codes(equilibria) == [9]
    _, found = space_sinks(graph)
    # the first pivot, code 0, reaches the sink, which does not reach it back
    assert len(rounds) == 2 and rounds[0] == 1
    assert 0 not in found[0] and dynamics.bitset_codes(stuck) == sorted([0, *found[0]])
    assert sorted(map(len, found)) == [1, 8] and [9] in found
    assert sinks(game, semantics) == oracle_sinks(
        game, semantics, lambda adj: bitset_bottom_sccs(len(adj), adj.__getitem__)[1])


def test_the_frontier_pivot_settles_a_60x60_table_in_two_rounds(rounds):
    rng = random.Random(2)
    game = TableGame((60, 60), [[rng.randint(0, 99) for _ in range(3600)] for _ in range(2)])
    graph = StateGraph(game, EdgeSemantics.BEST_RESPONSE)
    unions, found = space_sinks(graph)
    assert len(rounds) <= 2
    assert found == sorted(map(sorted, kosaraju_bottom_sccs(
        code_successors(game, best_response=True))))
    # the lowest-code pivot, from the same unions, takes a round per stuck SCC it meets
    equilibria, rest = dynamics.backward_reach(graph)
    lowest = 0
    while rest:
        lowest += 1
        pivot = rest & -rest
        rest ^= dynamics._grow(unions, pivot, rest)[0]
    assert lowest == 60


def test_the_sinks_report_has_no_scc_count(tmp_path):
    (tmp_path / "t.json").write_text(json.dumps(TABLE))
    for fmt in ("json", "text"):
        out = io.StringIO()
        assert run_cli(["--format", fmt, "sinks", str(tmp_path / "t.json")], out=out) == 0
        text = out.getvalue()
        if fmt == "json":
            assert json.loads(text)["stats"]["scc_count"] is None
        else:
            assert "SCCs" not in text and "edges: 20" in text

