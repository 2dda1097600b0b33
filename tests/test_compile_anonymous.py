import itertools
import re

import pytest

from sinkeq.compilers import (
    anonymous_round_start,
    compile_tm_anonymous,
    decode_anonymous_config,
    verify_round_anonymous,
)
from sinkeq.compilers.anonymous import _S, STRATEGIES, _unary_roles, state_rank
from sinkeq.dynamics import StateGraph, forward_closure, sccs
from sinkeq.games import SuccinctGame
from sinkeq.games.anonymous import Count
from sinkeq.turing import SYMBOLS, TapeConfig, initial_config, tm_step

from _oracles import successors_by_rows


def test_player_roster(flipper):
    compiled = compile_tm_anonymous(flipper)
    roles = set(compiled.symbols.players)
    t_prime = flipper.t_prime
    m = flipper.num_states - 1
    expected = (
        {f"cell_{i}" for i in range(t_prime + 1)}
        | {f"tape_{i}" for i in range(t_prime + 1)}
        | {f"position_{k}" for k in range(t_prime)}
        | {f"state_{k}" for k in range(m)}
        | {"symbol", "new_sym"}
        | {f"new_pos_{k}" for k in range(t_prime)}
        | {f"new_state_{k}" for k in range(m)}
        | {"control1", "control2"}
    )
    assert roles == expected


def test_utility_values_and_disallowed_zero(flipper):
    compiled = compile_tm_anonymous(flipper)
    game = compiled.game
    profile = compiled.initial
    values = {game.utility(profile, p) for p in range(game.num_players)}
    assert values <= {0, 1, 2}
    cell0 = compiled.symbols.player("cell_0")
    off = profile[:cell0] + (_S["init"],) + profile[cell0 + 1:]
    assert game.utility(off, cell0) == 0


def test_cell_change_rule_fires_at_head_only(flipper):
    # cell_i on change earns 2 exactly when control1 is on tape-change and the
    # position count equals i
    compiled = compile_tm_anonymous(flipper)
    game = compiled.game
    profile = list(compiled.initial)
    profile[compiled.symbols.player("control1")] = _S["tape-change"]
    head0 = compiled.symbols.player("cell_0")
    head1 = compiled.symbols.player("cell_1")
    with_change0 = list(profile)
    with_change0[head0] = _S["change"]
    assert game.utility(tuple(with_change0), head0) == 2
    with_change1 = list(profile)
    with_change1[head1] = _S["change"]
    assert game.utility(tuple(with_change1), head1) == 1  # head is at 0


def test_control2_mirror_rule(flipper):
    compiled = compile_tm_anonymous(flipper)
    game = compiled.game
    c2 = compiled.symbols.player("control2")
    profile = list(compiled.initial)  # control1 on init
    profile[c2] = _S["Xinit"]
    assert game.utility(tuple(profile), c2) == 2
    profile[c2] = _S["Xtape-change"]
    assert game.utility(tuple(profile), c2) == 1


def test_halt_rule_is_state_count(flipper):
    compiled = compile_tm_anonymous(flipper)
    game = compiled.game
    c1 = compiled.symbols.player("control1")
    state0 = compiled.symbols.player("state_0")
    profile = list(compiled.initial)
    profile[c1] = _S["halt"]
    assert game.utility(tuple(profile), c1) == 1  # state count 0 != m
    profile[state0] = _S["state^1"]
    assert game.utility(tuple(profile), c1) == 2


def test_round_start_decodes_back(walker):
    compiled = compile_tm_anonymous(walker)
    rank = state_rank(walker)
    assert sorted(rank.values()) == list(range(walker.num_states))
    assert rank[walker.q_halt] == walker.num_states - 1
    for state in range(walker.num_states):
        for head in range(walker.t_prime + 1):
            for tape in itertools.product(SYMBOLS, repeat=walker.t_prime + 1):
                config = TapeConfig(state, head, tape)
                profile = anonymous_round_start(compiled, config)
                assert decode_anonymous_config(compiled, profile) == config


def test_round_advances_one_machine_step(flipper, walker):
    for spec in (flipper, walker):
        compiled = compile_tm_anonymous(spec)
        config = initial_config(spec)
        profile = compiled.initial
        for _ in range(4):
            report = verify_round_anonymous(compiled, profile)
            assert report.matches, report.failure
            assert report.end_config == tm_step(spec, config)
            config = report.end_config
            profile = report.end_profile


def test_round_mover_classes_follow_the_table(walker):
    compiled = compile_tm_anonymous(walker)
    report = verify_round_anonymous(compiled)
    assert report.matches
    by_row = {}
    for move in report.trace:
        by_row.setdefault(move.step, []).append((move.role, move.strategy))
    # row 2: only the follower moves here (tapes already matched at the start)
    assert all(role == "control2" for role, _ in by_row["row 2"])
    # row 12: the new-pos players reach exactly the new head position
    new_pos_moves = [s for role, s in by_row.get("row 12", ())
                     if role.startswith("new_pos")]
    assert new_pos_moves == ["new-pos^1"]  # head moves 0 -> 1
    # row 4 includes the scanned cell switching to change
    assert ("cell_0", "change") in by_row["row 4"]


def test_tape_players_rebalance_after_a_write(walker):
    # drive two rounds through the dynamics; the second round must rebalance
    # the tape histogram (the first write changed a cell)
    compiled = compile_tm_anonymous(walker)
    first = verify_round_anonymous(compiled)
    assert first.matches
    second = verify_round_anonymous(compiled, first.end_profile)
    assert second.matches
    tape_moves = [m for m in second.trace if m.role.startswith("tape_")]
    assert tape_moves and all(m.step == "row 2" for m in tape_moves)


def test_looping_closure_is_finite_and_returns(flipper):
    compiled = compile_tm_anonymous(flipper)
    graph = StateGraph(compiled.game)
    closure = forward_closure(graph, compiled.initial, cap=500_000)
    assert closure.exhausted
    assert len(closure) < 100_000


def test_frozen_control1_dynamics_are_acyclic(flipper):
    # with control1 pinned to any strategy, the remaining players' improvement
    # graph has no cycles (checked on closures seeded from round states)
    compiled = compile_tm_anonymous(flipper)
    game = compiled.game
    c1 = compiled.symbols.player("control1")
    report = verify_round_anonymous(compiled)
    assert report.matches
    seeds = [compiled.initial, report.end_profile]
    c1_strategies = sorted(compiled.symbols.strategies["control1"].values())

    class Frozen(SuccinctGame):
        def __init__(self, base, pin):
            self.base = base
            self.pin = pin
            self.strategy_counts = base.strategy_counts
            self.codec = base.codec

        def utility(self, profile, player):
            return self.base.utility(profile, player)

        def deviation_utilities(self, profile, player):
            devs = self.base.deviation_utilities(profile, player)
            if player == c1:
                devs = [d if s == profile[player] else -1 for s, d in enumerate(devs)]
            return devs

    for pin in c1_strategies:
        frozen = Frozen(game, pin)
        for seed in seeds:
            start = seed[:c1] + (pin,) + seed[c1 + 1:]
            graph = StateGraph(frozen)
            closure = forward_closure(graph, start, cap=200_000)
            assert closure.exhausted
            succ = lambda v: [w for w, _ in successors_by_rows(frozen, v)]
            for comp in sccs(closure.states, succ):
                assert len(comp) == 1
                assert comp[0] not in succ(comp[0])


@pytest.mark.parametrize("machine", ["flipper", "walker"])
@pytest.mark.parametrize("cls", ["position", "state", "new-pos", "new-state"])
def test_unary_classes_share_one_balancing_rule(request, machine, cls):
    # every member of a unary class carries the same rules, in <=/>= pairs
    # over one target: join cls^1 on <=, leave it on >=
    spec = request.getfixturevalue(machine)
    compiled = compile_tm_anonymous(spec)
    prefix = cls.replace("-", "_")
    roles = _unary_roles(spec, cls)
    size = spec.t_prime if cls in ("position", "new-pos") else spec.num_states - 1
    assert len(roles) == size
    assert set(roles) == {r for r in compiled.symbols.players
                          if re.fullmatch(rf"{prefix}_\d+", r)}
    members = [compiled.game.players[compiled.symbols.player(r)] for r in roles]
    rules = members[0].rules
    assert all(p.rules == rules for p in members)
    assert rules and len(rules) % 2 == 0
    ones = Count(_S[f"{cls}^1"])
    for (join, up), (leave, down) in zip(rules[::2], rules[1::2]):
        assert (join, leave) == (_S[f"{cls}^1"], _S[f"{cls}^0"])
        *up_guards, at_most = up.parts
        *down_guards, at_least = down.parts
        assert up_guards == down_guards
        assert (at_most.op, at_least.op) == ("<=", ">=")
        assert at_most.lhs == at_least.lhs == ones
        assert at_most.rhs == at_least.rhs
