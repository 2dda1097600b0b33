"""The command line as a process: ``python -m sinkeq.cli`` through subprocess.

Exit codes, pinned answers and figures, and one error line without a
traceback for a sidecar that does not fit its game.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the 2-state flipper: rewrites the cell under the head in place, period 2
MACHINE = """\
{"delta": [{"move": "S", "next": 0, "read": "b", "state": 0, "write": "1"},
           {"move": "S", "next": 0, "read": "1", "state": 0, "write": "b"},
           {"move": "S", "next": 0, "read": "0", "state": 0, "write": "b"}],
 "q0": 0, "q_halt": 1, "states": 2, "t_prime": 2}
"""

# a 3x2x1x2 table with a one-strategy player
TABLE = {"class": "table", "strategy_counts": [3, 2, 1, 2], "tables": [
    [2, 1, 3, 0, 0, 0, 2, 0, 1, 0, 0, 3], [3, 0, 1, 0, 3, 0, 0, 1, 0, 3, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 3, 3, 2, 3, 3, 2, 2, 1, 1]]}


def sinkeq(cwd, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "sinkeq.cli", *map(str, args)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


def json_answer(cwd, *args):
    result = sinkeq(cwd, "--format", "json", *args)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.fixture
def market(tmp_path):
    (tmp_path / "f.cnf").write_text("p cnf 2 2\n1 2 2 0\n-1 -2 -2 0\n")
    assert sinkeq(tmp_path, "compile", "sat2market", "f.cnf", "-o", "f.json").returncode == 0
    return "f.json"


def test_has_pure_answers_and_a_cap_ends_it_inconclusive(tmp_path, market):
    result = sinkeq(tmp_path, "has-pure", market)
    assert result.returncode == 0, result.stderr
    assert "has-pure: true" in result.stdout.splitlines()
    assert sinkeq(tmp_path, "--cap", "1", "has-pure", market).returncode == 2


def test_in_sink_cut_by_the_cap_exits_2(tmp_path, market):
    # uncapped, in-sink answers NO after 5 states; a cap of 2 ends it inconclusive
    assert sinkeq(tmp_path, "--cap", "2", "in-sink", market,
                  "--profile", "@initial").returncode == 2


@pytest.mark.parametrize("kind,want", [("tm2anon", ["false", 117, 141, 112]),
                                       ("tm2wcg", ["true", 40, 56, None])])
def test_in_sink_at_initial_on_machine_gadgets(tmp_path, kind, want):
    # answer, states explored, edges and (for a NO) the size of the sink found
    (tmp_path / "m.tm.json").write_text(MACHINE)
    assert sinkeq(tmp_path, "compile", kind, "m.tm.json", "-o", "g.json").returncode == 0
    doc = json_answer(tmp_path, "in-sink", "g.json", "--profile", "@initial")
    stats = doc["stats"]
    got = [doc["answer"], stats["states_explored"], stats["edges"],
           doc.get("extra", {}).get("sink_size")]
    assert got == want


@pytest.mark.parametrize("semantics,want", [("improvement", [[8, 1], 12, 20, None]),
                                            ("best-response", [[8, 1], 12, 18, None])])
def test_sinks_over_a_table_with_a_one_strategy_player(tmp_path, semantics, want):
    # sink sizes, states, edges and SCCs over the whole space: sinks counts no SCCs
    (tmp_path / "t.json").write_text(json.dumps(TABLE))
    doc = json_answer(tmp_path, "--semantics", semantics, "sinks", "t.json")
    stats = doc["stats"]
    assert [doc["extra"]["sink_sizes"], stats["states_explored"], stats["edges"],
            stats["scc_count"]] == want


@pytest.mark.parametrize("semantics", ["improvement", "best-response"])
def test_has_non_singleton_counts_equilibria_and_stuck_states(tmp_path, semantics):
    # TABLE: code 4 is the one equilibrium; the 8-state sink and state 7 cannot reach it
    (tmp_path / "t.json").write_text(json.dumps(TABLE))
    doc = json_answer(tmp_path, "--semantics", semantics, "has-non-singleton", "t.json")
    assert [doc["answer"], doc["stats"]["states_explored"], doc["extra"]] == [
        "true", 12, {"equilibria": 1, "stuck_states": 9}]
    # a prisoner's dilemma: every profile reaches mutual defection
    pd = {"class": "table", "strategy_counts": [2, 2],
          "tables": [[2, 3, 0, 1], [2, 0, 3, 1]]}
    (tmp_path / "pd.json").write_text(json.dumps(pd))
    doc = json_answer(tmp_path, "--semantics", semantics, "has-non-singleton", "pd.json")
    assert [doc["answer"], doc["extra"]] == ["false", {"equilibria": 1, "stuck_states": 0}]


MATCHING_PENNIES = {"class": "table", "strategy_counts": [2, 2],
                    "tables": [[1, 0, 0, 1], [0, 1, 1, 0]]}


# a shared congestion game of three players on three resources, answered
# by the search: equilibria (0, 0, 1) and (0, 1, 0)
CONGESTION = {"class": "congestion", "mode": "shared", "resources": ["a", "b", "c"],
              "strategies": [[[0], [1]], [[1], [2]], [[0], [2]]], "weights": [1, 1, 1],
              "delays": [[[1, 3], [2, 1], [3, 0]], [[1, 2], [2, 4], [3, 0]],
                         [[1, 1], [2, 5], [3, 0]]]}


# tables are answered over the whole space: states explored are the profiles
# (TABLE 12, matching pennies 4), and a NO names no profile; the congestion
# game's search visits 4 nodes and stops at its first equilibrium
@pytest.mark.parametrize("doc_in,answer,equilibrium,explored", [
    (TABLE, "true", [1, 1, 0, 0], 12),
    (MATCHING_PENNIES, "false", None, 4),
    (CONGESTION, "true", [0, 0, 1], 4),
], ids=["table", "matching-pennies", "congestion"])
def test_has_pure_pins_the_search_order(tmp_path, doc_in, answer, equilibrium, explored):
    (tmp_path / "g.json").write_text(json.dumps(doc_in))
    doc = json_answer(tmp_path, "has-pure", "g.json")
    found = doc["extra"]["equilibrium"] if "extra" in doc else None
    assert [doc["answer"], found, doc["stats"]["states_explored"]] == [
        answer, equilibrium, explored]


# the full-space DOT of TABLE: every state but 1, 7 and 10 lies in a sink
TABLE_DOT_STATES = "".join(
    f'  n{k} [label="{k}"{"" if k in (1, 7, 10) else " shape=doublecircle"}];\n'
    for k in range(12))
# (source, target, mover); best response drops 1 -> 0 and 7 -> 8. The
# one-strategy player 2 shares place weight 6 with player 3, who moves.
TABLE_DOT_EDGES = [(0, 2, 0), (0, 6, 3), (1, 0, 0), (1, 2, 0), (1, 4, 1), (1, 7, 3),
                   (2, 8, 3), (3, 0, 1), (5, 2, 1), (6, 9, 1), (7, 6, 0), (7, 8, 0),
                   (8, 6, 0), (8, 11, 1), (9, 11, 0), (9, 3, 3), (10, 11, 0),
                   (10, 7, 1), (10, 4, 3), (11, 5, 3)]


@pytest.mark.parametrize("semantics,dropped", [("improvement", []),
                                               ("best-response", [(1, 0, 0), (7, 8, 0)])])
def test_full_space_dot_of_a_table_with_a_one_strategy_player(tmp_path, semantics, dropped):
    (tmp_path / "t.json").write_text(json.dumps(TABLE))
    doc = json_answer(tmp_path, "--semantics", semantics, "export-dot", "t.json")
    edges = "".join(f'  n{a} -> n{b} [label="{p}"];\n'
                    for a, b, p in TABLE_DOT_EDGES if (a, b, p) not in dropped)
    assert doc["answer"] == "digraph state_graph {\n" + TABLE_DOT_STATES + edges + "}\n"


@pytest.mark.parametrize("command", ["in-sink", "verify-round"])
def test_a_sidecar_with_its_initial_profile_cut_short_is_one_error_line(tmp_path, command):
    (tmp_path / "m.tm.json").write_text(MACHINE)
    assert sinkeq(tmp_path, "compile", "tm2wcg", "m.tm.json", "-o", "m.json").returncode == 0
    sidecar = tmp_path / "m.symbols.json"
    doc = json.loads(sidecar.read_text())
    doc["initial"] = doc["initial"][:3]
    sidecar.write_text(json.dumps(doc))
    result = sinkeq(tmp_path, command, "m.json", "--profile", "@initial")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.count("\n") == 1, result.stderr
