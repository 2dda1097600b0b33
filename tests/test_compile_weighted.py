import itertools

import pytest

from sinkeq.dynamics import (
    EdgeSemantics,
    StateGraph,
    forward_closure,
    in_a_sink,
    sccs,
)
from sinkeq.errors import ConfigurationError
from sinkeq.compilers import (
    closures_isomorphic,
    compile_tm_player_specific,
    compile_tm_weighted,
    decode_config,
    round_start_profile,
    verify_round_weighted,
)
from sinkeq.turing import SYMBOLS, TapeConfig, initial_config, run_bounded, tm_step

from _oracles import is_pure_ne_pointwise, successors_by_rows


def expected_player_count(spec):
    # state + position + cells + W/V controls + control_D + transition + clock
    clipped = sum(
        len([d for d in (i - 1, i, i + 1) if 0 <= d <= spec.t_prime])
        for i in range(spec.t_prime + 1)
    )
    controls = 2 * spec.num_states * clipped * len(SYMBOLS)
    return 1 + 1 + (spec.t_prime + 1) + controls + 1 + 1 + 1


def test_player_count_matches_closed_form(flipper, walker):
    for spec in (flipper, walker):
        compiled = compile_tm_weighted(spec)
        assert compiled.game.num_players == expected_player_count(spec)


def test_alpha_and_beta_delay_tables(flipper):
    compiled = compile_tm_weighted(flipper, penalty=10_000)
    game = compiled.game
    by_name = {name: e for e, name in enumerate(game.resources)}
    # alpha: 0 alone, 1 shared; beta: 0 alone, penalty shared
    assert game.delays[by_name["a_state_0"]] == {1: 0, 2: 1}
    assert game.delays[by_name["b_state_0"]] == {1: 0, 2: 10_000}
    assert game.delays[by_name["TriggerMain"]] == {1: 0, 2: 100, 3: 100}
    assert game.delays[by_name["TriggerClock"]] == {1: 0, 2: 0, 3: 20}
    read_nn = [n for n in game.resources if n.startswith("nn_read")]
    assert read_nn and all(game.delays[by_name[n]] == {1: 80} for n in read_nn)
    write_nn = [n for n in game.resources if n.startswith("nn_write")]
    assert all(game.delays[by_name[n]] == {1: 60} for n in write_nn)
    verify_nn = [n for n in game.resources if n.startswith("nn_verify")]
    assert all(game.delays[by_name[n]] == {1: 40} for n in verify_nn)


def test_clock_weight_two_in_weighted(flipper):
    compiled = compile_tm_weighted(flipper)
    clock = compiled.symbols.player("clock")
    weights = compiled.game.weights
    assert weights[clock] == 2
    assert all(w == 1 for i, w in enumerate(weights) if i != clock)


def test_penalty_floor_enforced(flipper):
    with pytest.raises(ConfigurationError):
        compile_tm_weighted(flipper, penalty=110)


def test_initial_profile_decodes_to_initial_configuration(flipper):
    compiled = compile_tm_weighted(flipper)
    assert decode_config(compiled, compiled.initial) == initial_config(flipper)


def test_config_encoding_bijection(walker):
    compiled = compile_tm_weighted(walker)
    for state in range(walker.num_states):
        for head in range(walker.t_prime + 1):
            for tape in itertools.product(SYMBOLS, repeat=walker.t_prime + 1):
                config = TapeConfig(state, head, tape)
                profile = round_start_profile(compiled, config)
                assert decode_config(compiled, profile) == config


def test_round_matches_figure_sequence(flipper, walker):
    for spec in (flipper, walker):
        compiled = compile_tm_weighted(spec)
        config = initial_config(spec)
        for _ in range(4):
            report = verify_round_weighted(
                compiled, round_start_profile(compiled, config)
            )
            assert report.matches, report.failure
            assert report.end_config == tm_step(spec, config)
            config = report.end_config


def test_round_first_move_is_the_read_deviation(flipper):
    compiled = compile_tm_weighted(flipper)
    graph = StateGraph(compiled.game)
    moves = graph.improving_moves(compiled.initial)
    assert len(moves) == 1
    player, strategy, _ = moves[0]
    assert compiled.symbols.role_of(player) == "transition"
    name = compiled.symbols.strategy_name("transition", strategy)
    assert name.startswith("Read_")


def test_looping_machine_initial_profile_in_a_sink(flipper):
    compiled = compile_tm_weighted(flipper)
    assert run_bounded(flipper).halted is False
    assert in_a_sink(compiled.game, compiled.initial) is True


def test_halting_machine_initial_not_in_sink_and_halt_is_ne(halter):
    compiled = compile_tm_weighted(halter)
    assert run_bounded(halter).halted is True
    assert in_a_sink(compiled.game, compiled.initial) is False
    graph = StateGraph(compiled.game)
    closure = forward_closure(graph, compiled.initial)
    # the settled halt profile: round-start shape with the transition on Halt
    final = run_bounded(halter)
    config = initial_config(halter)
    for _ in range(final.steps):
        config = tm_step(halter, config)
    settled = list(round_start_profile(compiled, config))
    transition = compiled.symbols.player("transition")
    settled[transition] = compiled.symbols.strategy("transition", "Halt")
    settled = tuple(settled)
    assert settled in closure.index
    assert is_pure_ne_pointwise(compiled.game, settled)
    # every sink of the halting closure is that kind of settled halt profile
    succ = lambda v: [w for w, _ in successors_by_rows(compiled.game, v)]
    for comp in sccs(closure.states, succ):
        members = set(comp)
        if all(w in members for v in comp for w in succ(v)):
            assert len(comp) == 1
            assert comp[0][transition] == settled[transition]
            assert is_pure_ne_pointwise(compiled.game, comp[0])


def test_no_reachable_profile_costs_the_penalty(flipper, halter):
    for spec in (flipper, halter):
        compiled = compile_tm_weighted(spec)
        graph = StateGraph(compiled.game)
        closure = forward_closure(graph, compiled.initial)
        assert closure.exhausted
        for profile in closure.states:
            for player in range(compiled.game.num_players):
                assert compiled.game.cost(profile, player) < compiled.penalty


def round_start_states(compiled, closure):
    symbols = compiled.symbols
    fixed = {}
    for role in symbols.players:
        if role.startswith("control_"):
            want = "Zero" if role == "control_D" else "One"
            fixed[symbols.player(role)] = symbols.strategy(role, want)
    fixed[symbols.player("transition")] = symbols.strategy("transition", "Wait")
    fixed[symbols.player("clock")] = symbols.strategy("clock", "Trigger")
    return [
        p for p in closure.states
        if all(p[idx] == want for idx, want in fixed.items())
    ]


def test_every_closure_state_reaches_a_round_start(flipper):
    # the closure-level form of the unique-sink lemma
    compiled = compile_tm_weighted(flipper)
    graph = StateGraph(compiled.game)
    closure = forward_closure(graph, compiled.initial)
    starts = set(round_start_states(compiled, closure))
    assert starts
    reverse = {p: [] for p in closure.states}
    for p in closure.states:
        for q, _ in successors_by_rows(compiled.game, p):
            reverse[q].append(p)
    reached = set(starts)
    frontier = list(starts)
    while frontier:
        q = frontier.pop()
        for p in reverse[q]:
            if p not in reached:
                reached.add(p)
                frontier.append(p)
    assert reached == set(closure.states)


def test_player_specific_clock_weight_and_tables(flipper):
    compiled = compile_tm_player_specific(flipper)
    game = compiled.game
    assert all(w == 1 for w in game.weights)
    by_name = {name: e for e, name in enumerate(game.resources)}
    transition = compiled.symbols.player("transition")
    clock = compiled.symbols.player("clock")
    tm = game.delays[by_name["TriggerMain"]]
    assert tm[transition] == {1: 0, 2: 100}
    assert tm[clock] == {1: 100, 2: 100}
    tc = game.delays[by_name["TriggerClock"]]
    assert tc[transition] == {1: 0, 2: 20}
    assert tc[clock] == {1: 0, 2: 20}


def test_player_specific_delays_equal_weighted_everywhere(flipper, walker):
    for spec in (flipper, walker):
        weighted = compile_tm_weighted(spec)
        specific = compile_tm_player_specific(spec)
        graph = StateGraph(weighted.game)
        closure = forward_closure(graph, weighted.initial)
        for profile in closure.states:
            for player in range(weighted.game.num_players):
                assert weighted.game.cost(profile, player) == (
                    specific.game.cost(profile, player)
                )


def test_player_specific_closure_isomorphic(flipper, halter):
    for spec in (flipper, halter):
        weighted = compile_tm_weighted(spec)
        specific = compile_tm_player_specific(spec)
        assert closures_isomorphic(weighted, specific)


def test_verify_round_reports_halt_branch(halter):
    compiled = compile_tm_weighted(halter)
    config = initial_config(halter)
    report = verify_round_weighted(compiled, round_start_profile(compiled, config))
    assert report.matches, report.failure
    halted = report.end_config
    report2 = verify_round_weighted(compiled, round_start_profile(compiled, halted))
    assert report2.matches, report2.failure
    assert [m.strategy for m in report2.trace] == ["Halt"]


def test_first_improver_walk_replays_the_round(flipper):
    # the round is essentially unique, so a first-improver walk must retrace
    # it and land on the next round start
    from sinkeq.dynamics import FirstImprover, simulate_walk

    compiled = compile_tm_weighted(flipper)
    report = verify_round_weighted(compiled)
    assert report.matches
    steps = len(report.trace)
    graph = StateGraph(compiled.game)
    walk = simulate_walk(graph, compiled.initial, FirstImprover(), max_steps=steps)
    assert walk.final == report.end_profile
