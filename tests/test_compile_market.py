import random

import pytest

from sinkeq.cnf import CnfFormula
from sinkeq.compilers import (
    closures_isomorphic,
    compile_sat_market,
    compile_tm_market,
    compile_tm_weighted,
    market_base,
    verify_round_weighted,
)
from sinkeq.dynamics import (
    StateGraph,
    forward_closure,
    has_singleton_sink,
    in_a_sink,
    sccs,
    sinks,
)
from sinkeq.errors import ConfigurationError

from _oracles import brute_force_satisfiable, successors_by_rows


# ---------- machine-to-market ----------

def test_market_values_follow_the_table(flipper):
    compiled = compile_tm_market(flipper, penalty=10_000)
    game = compiled.game
    n = compiled.market_base
    assert n == market_base(flipper, 10_000)
    by_name = {p.name: p for p in game.passive}
    transition = compiled.symbols.player("transition")
    clock = compiled.symbols.player("clock")
    tm = by_name["TriggerMain"]
    assert tm.value == 100 and tm.preference == (clock, transition)
    tc = by_name["TriggerClock"]
    assert tc.value == 80 and tc.preference == (transition, clock)
    state = compiled.symbols.player("state")
    assert by_name["b_state_0"].value == 10_000
    assert by_name["b_state_0"].preference == (state, transition)
    assert by_name["a_state_0"].preference == (transition, state)
    k = flipper.num_states + flipper.t_prime + 3 - 1
    read_nn = [p for p in game.passive if p.name.startswith("nn_read")]
    assert read_nn and all(p.value == n - k * 10_000 + 20 for p in read_nn)
    write_nn = [p for p in game.passive if p.name.startswith("nn_write")]
    assert all(p.value == n - 10_000 + 40 for p in write_nn)
    verify_nn = [p for p in game.passive if p.name.startswith("nn_verify")]
    assert all(p.value == n - k * 10_000 + 60 for p in verify_nn)
    assert by_name["nn_halt"].value == n - 10_000


def test_market_round_runs_the_same_sequence(flipper):
    compiled = compile_tm_market(flipper)
    report = verify_round_weighted(compiled)
    assert report.matches, report.failure


def test_market_closure_isomorphic_to_weighted_looper(flipper, walker):
    for spec in (flipper, walker):
        assert closures_isomorphic(
            compile_tm_weighted(spec), compile_tm_market(spec)
        )


def test_market_halting_answers_match_weighted(halter3):
    weighted = compile_tm_weighted(halter3)
    market = compile_tm_market(halter3)
    assert in_a_sink(weighted.game, weighted.initial) is False
    assert in_a_sink(market.game, market.initial) is False
    # both funnel into singleton halt sinks
    for compiled in (weighted, market):
        graph = StateGraph(compiled.game)
        closure = forward_closure(graph, compiled.initial)
        succ = lambda v: [w for w, _ in successors_by_rows(compiled.game, v)]
        bottoms = [
            comp for comp in sccs(closure.states, succ)
            if all(w in set(comp) for v in comp for w in succ(v))
        ]
        transition = compiled.symbols.player("transition")
        halt = compiled.symbols.strategy("transition", "Halt")
        assert bottoms
        assert all(len(c) == 1 and c[0][transition] == halt for c in bottoms)


def test_market_penalty_floor(flipper):
    with pytest.raises(ConfigurationError):
        compile_tm_market(flipper, penalty=120)


# ---------- 3SAT to market ----------

def x_assignment_profile(compiled, formula, assignment, c_strategy=0, k_strategy=0):
    """Profile with X players set by the assignment (zero encodes true)."""
    profile = [0] * compiled.game.num_players
    for i in range(1, formula.num_vars + 1):
        profile[compiled.symbols.player(f"X{i}")] = 0 if assignment[i] else 1
    for j in range(1, len(formula.clauses) + 1):
        profile[compiled.symbols.player(f"C{j}")] = c_strategy
        profile[compiled.symbols.player(f"K{j}")] = k_strategy
    return tuple(profile)


def test_gadget_market_values():
    formula = CnfFormula(1, ((1, 1, 1),))
    compiled = compile_sat_market(formula)
    by_name = {p.name: p for p in compiled.game.passive}
    k1 = compiled.symbols.player("K1")
    c1 = compiled.symbols.player("C1")
    x1 = compiled.symbols.player("X1")
    assert by_name["a_1"].value == 305
    assert by_name["a_1"].preference[0] == k1
    assert by_name["b_1"].value == 8
    assert by_name["b_1"].preference[0] == c1
    assert by_name["c_1"].value == 310
    assert by_name["r_1_1_0"].value == 100
    assert by_name["r_1_1_0"].preference[0] == x1
    assert by_name["p_1_1_0"].value == 100


def test_x_players_indifferent_everywhere():
    formula = CnfFormula(2, ((1, -2, 1), (-1, 2, 2)))
    compiled = compile_sat_market(formula)
    game = compiled.game
    for profile in game.codec.all_profiles():
        for i in (1, 2):
            p = compiled.symbols.player(f"X{i}")
            u0 = game.utility(profile[:p] + (0,) + profile[p + 1:], p)
            u1 = game.utility(profile[:p] + (1,) + profile[p + 1:], p)
            assert u0 == u1


def test_satisfiable_formula_has_pure_equilibrium():
    sat = CnfFormula(1, ((1, 1, 1),))
    assert has_singleton_sink(compile_sat_market(sat).game)


def test_crafted_unsatisfiable_formula_has_none():
    unsat = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))
    assert not has_singleton_sink(compile_sat_market(unsat).game)


def test_has_pure_matches_brute_force_sat():
    rng = random.Random(1234)
    for _ in range(40):
        num_vars = rng.randint(1, 3)
        clauses = tuple(
            tuple(rng.choice([1, -1]) * rng.randint(1, num_vars) for _ in range(3))
            for _ in range(rng.randint(1, 3))
        )
        formula = CnfFormula(num_vars, clauses)
        compiled = compile_sat_market(formula)
        assert has_singleton_sink(compiled.game) == brute_force_satisfiable(formula)


def test_unclaimed_clause_cycles_in_a_non_singleton_sink():
    # X1 on zero satisfies clause 1 and leaves clause 2's r markets unclaimed
    formula = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))
    compiled = compile_sat_market(formula)
    profile = x_assignment_profile(compiled, formula, {1: True})
    verdict_closure = forward_closure(StateGraph(compiled.game), profile)
    assert verdict_closure.exhausted
    succ = lambda v: [w for w, _ in successors_by_rows(compiled.game, v)]
    bottoms = [
        comp for comp in sccs(verdict_closure.states, succ)
        if all(w in set(comp) for v in comp for w in succ(v))
    ]
    assert len(bottoms) == 1
    cycle = bottoms[0]
    assert len(cycle) == 4
    c2 = compiled.symbols.player("C2")
    k2 = compiled.symbols.player("K2")
    moving = {
        player for state in cycle for nxt, player in successors_by_rows(compiled.game, state)
    }
    assert moving == {c2, k2}
