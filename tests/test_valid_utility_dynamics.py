"""Valid-utility games through the dynamics. They have no evaluation hook of
their own, so these run the pointwise ``SuccinctGame.deviation_utilities``
against the bitset oracle, in the library and through the CLI."""

import io
import json
import random

import pytest

from sinkeq.cli import run_cli
from sinkeq.dynamics import (
    EdgeSemantics,
    has_singleton_sink,
    in_a_sink,
    sinks,
)
from sinkeq.games import coverage_instance
from sinkeq.io import serialize_game

from _oracles import bitset_bottom_sccs, successors_pointwise

UNIVERSE = "abcde"


def random_coverage(rng):
    ground_sets, feasible = [], []
    for _ in range(rng.randint(2, 3)):
        ground = sorted(rng.sample(UNIVERSE, rng.randint(2, 4)))
        family = {frozenset()}
        for _ in range(rng.randint(1, 3)):
            family.add(frozenset(rng.sample(ground, rng.randint(1, len(ground)))))
        ground_sets.append(ground)
        feasible.append(sorted(family, key=sorted))
    return coverage_instance(ground_sets, feasible)


def oracle_sinks(game, semantics):
    codec = game.codec
    best_response = semantics is EdgeSemantics.BEST_RESPONSE

    def successor_indices(k):
        return [codec.encode(w)
                for w, _ in successors_pointwise(game, codec.decode(k), best_response)]

    _, bottoms = bitset_bottom_sccs(codec.num_profiles, successor_indices)
    return {frozenset(codec.decode(k) for k in comp) for comp in bottoms}


@pytest.mark.parametrize("semantics", list(EdgeSemantics))
def test_coverage_sinks_match_the_bitset_oracle(semantics):
    rng = random.Random(20_261_018)
    for _ in range(25):
        game = random_coverage(rng)
        expected = oracle_sinks(game, semantics)
        assert set(sinks(game, semantics)) == expected
        members = frozenset().union(*expected)
        for profile in game.codec.all_profiles():
            assert in_a_sink(game, profile, semantics) is (profile in members)
        if semantics is EdgeSemantics.IMPROVEMENT:
            assert has_singleton_sink(game) == any(len(s) == 1 for s in expected)


def test_cli_answers_match_on_the_serialized_document(tmp_path):
    rng = random.Random(7)
    for k in range(10):
        game = random_coverage(rng)
        path = tmp_path / f"vu{k}.json"
        path.write_text(serialize_game(game))
        expected = oracle_sinks(game, EdgeSemantics.IMPROVEMENT)
        answers = {}
        for question in ("sinks", "has-pure"):
            out, err = io.StringIO(), io.StringIO()
            assert run_cli(["--format", "json", question, str(path)], out=out, err=err) == 0
            assert err.getvalue() == ""
            answers[question] = json.loads(out.getvalue())
        assert answers["sinks"]["answer"] == f"{len(expected)} sink equilibria"
        assert sorted(answers["sinks"]["extra"]["sink_sizes"]) == sorted(map(len, expected))
        assert answers["has-pure"]["answer"] == (
            "true" if any(len(s) == 1 for s in expected) else "false")
