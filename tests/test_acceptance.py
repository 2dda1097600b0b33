"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. Every check is exact; the stated wall-clock budgets are asserted.
"""

import random
import time

import pytest

from sinkeq.cnf import CnfFormula
from sinkeq.compilers import (
    anonymous_round_start,
    closures_isomorphic,
    compile_sat_market,
    compile_tm_anonymous,
    compile_tm_market,
    compile_tm_player_specific,
    compile_tm_weighted,
    round_start_profile,
    verify_round_anonymous,
    verify_round_weighted,
)
from sinkeq.dynamics import (
    RandomImprover,
    StateGraph,
    forward_closure,
    has_non_singleton_sink,
    has_singleton_sink,
    in_a_sink,
    sccs,
    simulate_walk,
    sinks,
)
from sinkeq.games import CongestionGame, SuccinctGame, TableGame
from sinkeq.games.valid_utility import (
    ValidUtilityInstance,
    check_valid_utility,
    coverage_instance,
)
from sinkeq.turing import (
    TMSpec,
    initial_config,
    run_bounded,
    tm_step,
    wrap_machine,
)

from _oracles import (
    bitset_bottom_sccs,
    brute_force_satisfiable,
    direct_tm_rejects,
    is_pure_ne_pointwise,
    successors_by_rows,
    successors_pointwise,
)


class Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.label} took {elapsed:.1f}s, budget {self.seconds}s"
            )
            print(f"ACCEPTANCE {self.label}: PASS ({elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE {self.label}: FAIL after {elapsed:.2f}s")
        return False


def random_congestion_game(rng):
    n_players = rng.randint(2, 3)
    n_res = rng.randint(1, 5)
    strategies = []
    for _ in range(n_players):
        strats = []
        for _ in range(rng.randint(1, 4)):
            strats.append([e for e in range(n_res) if rng.random() < 0.5])
        strategies.append(strats)
    delays = [
        {load: rng.randint(0, 9) for load in range(1, n_players + 1)}
        for _ in range(n_res)
    ]
    return CongestionGame([f"r{e}" for e in range(n_res)], strategies, delays)


def test_criterion_1_potential_suite():
    """Rosenthal potential descends on every improvement edge; all sinks singleton."""
    with Budget("1 (potential suite)", 60):
        rng = random.Random(20_240_101)
        edges_checked = 0
        for _ in range(200):
            game = random_congestion_game(rng)
            graph = StateGraph(game)
            for profile in game.codec.all_profiles():
                phi = game.rosenthal_potential(profile)
                for player, strategy, new_u in graph.improving_moves(profile):
                    moved = profile[:player] + (strategy,) + profile[player + 1:]
                    drop = game.cost(profile, player) - (-new_u)
                    assert drop > 0
                    assert phi - game.rosenthal_potential(moved) == drop
                    edges_checked += 1
            found = sinks(game)
            assert all(len(s) == 1 for s in found)
            assert not has_non_singleton_sink(game)
        assert edges_checked > 0


def test_criterion_2_oracle_equivalence():
    """Sinks equal the transitive-closure oracle; singleton sinks = pure NE."""
    with Budget("2 (oracle equivalence)", 30):
        rng = random.Random(12_345)
        for _ in range(100):
            game = TableGame.random(rng, max_profiles=64)
            codec = game.codec

            def successor_indices(k):
                return [
                    codec.encode(w) for w, _ in successors_pointwise(game, codec.decode(k))
                ]

            _, bottoms = bitset_bottom_sccs(codec.num_profiles, successor_indices)
            expected = {
                frozenset(codec.decode(k) for k in comp) for comp in bottoms
            }
            found = sinks(game)
            assert set(found) == expected
            pure = {p for p in codec.all_profiles() if is_pure_ne_pointwise(game, p)}
            assert {next(iter(s)) for s in found if len(s) == 1} == pure


def test_criterion_3_absorption():
    """Random-improver walks enter a sink within 10 * |profiles| steps."""
    with Budget("3 (absorption)", 60):
        rng = random.Random(12_345)
        for _ in range(100):
            game = TableGame.random(rng, max_profiles=64)
            graph = StateGraph(game)
            codec = game.codec
            moves = {
                p: [(pl, s) for pl, s, _ in graph.improving_moves(p)]
                for p in codec.all_profiles()
            }
            sink_states = set()
            for s in sinks(game):
                sink_states |= s
            bound = 10 * codec.num_profiles
            for seed in range(100):
                walk_rng = random.Random(seed)
                state = codec.decode(walk_rng.randrange(codec.num_profiles))
                steps = 0
                while state not in sink_states:
                    assert steps < bound, "walk failed to enter a sink in time"
                    player, strategy = walk_rng.choice(moves[state])
                    state = state[:player] + (strategy,) + state[player + 1:]
                    steps += 1


def test_criterion_4_sat_market_reproduction():
    """has-pure equals brute-force SAT; unclaimed clauses cycle in a 4-state sink."""
    with Budget("4 (3SAT market)", 300):
        crafted = [
            CnfFormula(1, ((1, 1, 1),)),
            CnfFormula(1, ((1, 1, 1), (-1, -1, -1))),
            CnfFormula(2, ((1, 2, 2), (-1, -2, -2), (1, -2, 1))),
        ]
        rng = random.Random(424_242)
        formulas = list(crafted)
        for _ in range(50):
            clauses = tuple(
                tuple(rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(3))
                for _ in range(rng.randint(1, 3))
            )
            formulas.append(CnfFormula(3, clauses))
        for formula in formulas:
            compiled = compile_sat_market(formula)
            assert has_singleton_sink(compiled.game) == (
                brute_force_satisfiable(formula)
            )
        # a profile leaving all three r markets of clause 2 unclaimed:
        # X1 on zero satisfies clause 1 only
        unsat = crafted[1]
        compiled = compile_sat_market(unsat)
        profile = [0] * compiled.game.num_players
        graph = StateGraph(compiled.game)
        closure = forward_closure(graph, tuple(profile))
        succ = lambda v: [w for w, _ in successors_by_rows(compiled.game, v)]
        bottoms = [
            comp for comp in sccs(closure.states, succ)
            if all(w in set(comp) for v in comp for w in succ(v))
        ]
        assert len(bottoms) == 1 and len(bottoms[0]) == 4
        movers = {
            compiled.symbols.role_of(player)
            for state in bottoms[0] for _, player in successors_by_rows(compiled.game, state)
        }
        assert movers == {"C2", "K2"}


@pytest.fixture(scope="module")
def desk_looper():
    return TMSpec(
        num_states=2, q0=0, q_halt=1, t_prime=2,
        delta={
            (0, "b"): (0, "1", "S"),
            (0, "1"): (0, "b", "S"),
            (0, "0"): (0, "b", "S"),
        },
    )


@pytest.fixture(scope="module")
def desk_walker():
    return TMSpec(
        num_states=3, q0=0, q_halt=2, t_prime=2,
        delta={
            (0, "b"): (1, "1", "R"),
            (0, "0"): (0, "1", "S"),
            (0, "1"): (1, "0", "R"),
            (1, "b"): (0, "b", "L"),
            (1, "0"): (0, "0", "L"),
            (1, "1"): (0, "1", "L"),
        },
    )


@pytest.fixture(scope="module")
def desk_halter():
    return TMSpec(
        num_states=2, q0=0, q_halt=1, t_prime=2,
        delta={
            (0, "b"): (1, "1", "R"),
            (0, "1"): (1, "1", "R"),
            (0, "0"): (1, "1", "R"),
        },
    )


def test_criterion_5_weighted_reproduction(desk_looper, desk_walker, desk_halter):
    """Round table, sink membership, halting equilibrium, round-start anchoring."""
    with Budget("5 (weighted reduction)", 120):
        # (a) the round sequence, on loopers with and without head movement
        for spec in (desk_looper, desk_walker):
            compiled = compile_tm_weighted(spec)
            config = initial_config(spec)
            for _ in range(3):
                report = verify_round_weighted(
                    compiled, round_start_profile(compiled, config)
                )
                assert report.matches, report.failure
                assert report.end_config == tm_step(spec, config)
                config = report.end_config
        # (b) looping: initial profile in a sink, closure small and penalty-free
        compiled = compile_tm_weighted(desk_looper)
        assert run_bounded(desk_looper).halted is False
        graph = StateGraph(compiled.game)
        closure = forward_closure(graph, compiled.initial)
        assert closure.exhausted and len(closure) < 10**5
        assert in_a_sink(compiled.game, compiled.initial) is True
        for profile in closure.states:
            for player in range(compiled.game.num_players):
                assert compiled.game.cost(profile, player) < compiled.penalty
        # (c) halting: not in a sink; the settled halt profile is a pure NE
        halting = compile_tm_weighted(desk_halter)
        assert run_bounded(desk_halter).halted is True
        assert in_a_sink(halting.game, halting.initial) is False
        config = initial_config(desk_halter)
        config = tm_step(desk_halter, config)
        settled = list(round_start_profile(halting, config))
        transition = halting.symbols.player("transition")
        settled[transition] = halting.symbols.strategy("transition", "Halt")
        assert is_pure_ne_pointwise(halting.game, tuple(settled))
        # (d) every state of the looping closure reaches a round-start profile
        symbols = compiled.symbols
        fixed = {
            symbols.player("transition"): symbols.strategy("transition", "Wait"),
            symbols.player("clock"): symbols.strategy("clock", "Trigger"),
        }
        for role in symbols.players:
            if role.startswith("control_"):
                want = "Zero" if role == "control_D" else "One"
                fixed[symbols.player(role)] = symbols.strategy(role, want)
        starts = {
            p for p in closure.states
            if all(p[idx] == want for idx, want in fixed.items())
        }
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


def test_criterion_6_player_specific_reproduction(desk_looper, desk_walker):
    """Label-isomorphic closure and identical per-profile delays."""
    with Budget("6 (player-specific)", 120):
        for spec in (desk_looper, desk_walker):
            weighted = compile_tm_weighted(spec)
            specific = compile_tm_player_specific(spec)
            assert closures_isomorphic(weighted, specific)
            graph = StateGraph(weighted.game)
            closure = forward_closure(graph, weighted.initial)
            for profile in closure.states:
                for player in range(weighted.game.num_players):
                    assert weighted.game.cost(profile, player) == (
                        specific.game.cost(profile, player)
                    )


def test_criterion_7_anonymous_reproduction(desk_looper, desk_walker):
    """The 19-row table with mover classes; frozen-control liveness."""
    with Budget("7 (anonymous reduction)", 120):
        for spec in (desk_looper, desk_walker):
            compiled = compile_tm_anonymous(spec)
            config = initial_config(spec)
            profile = compiled.initial
            for _ in range(3):
                report = verify_round_anonymous(compiled, profile)
                assert report.matches, report.failure
                assert report.end_config == tm_step(spec, config)
                rows = {m.step for m in report.trace}
                assert "row 19" in rows  # the full table was walked
                config = report.end_config
                profile = report.end_profile
        # freezing control1 leaves an acyclic improvement graph
        compiled = compile_tm_anonymous(desk_looper)
        game = compiled.game
        c1 = compiled.symbols.player("control1")
        first_round = verify_round_anonymous(compiled)
        seeds = [compiled.initial, first_round.end_profile]

        class Frozen(SuccinctGame):
            def __init__(self, pin):
                self.pin = pin
                self.strategy_counts = game.strategy_counts
                self.codec = game.codec

            def utility(self, profile, player):
                return game.utility(profile, player)

            def deviation_utilities(self, profile, player):
                devs = game.deviation_utilities(profile, player)
                if player == c1:
                    devs = [d if s == profile[player] else -1 for s, d in enumerate(devs)]
                return devs

        for pin in sorted(compiled.symbols.strategies["control1"].values()):
            frozen = Frozen(pin)
            frozen_graph = StateGraph(frozen)
            for seed in seeds:
                start = seed[:c1] + (pin,) + seed[c1 + 1:]
                closure = forward_closure(frozen_graph, start, cap=200_000)
                assert closure.exhausted
                succ = lambda v: [w for w, _ in successors_by_rows(frozen, v)]
                for comp in sccs(closure.states, succ):
                    assert len(comp) == 1 and comp[0] not in succ(comp[0])


def test_criterion_8_market_reproduction(desk_looper, desk_walker):
    """The market compile's reachable dynamics mirror the congestion game."""
    with Budget("8 (market reduction)", 120):
        for spec in (desk_looper, desk_walker):
            weighted = compile_tm_weighted(spec)
            market = compile_tm_market(spec)
            assert closures_isomorphic(weighted, market)


def test_criterion_9_valid_utility_checker():
    """Coverage instance passes all four flags; a dent fails only the marginal."""
    with Budget("9 (valid-utility checker)", 10):
        base = coverage_instance(
            [("a", "b"), ("b", "c")],
            [
                (frozenset(), frozenset({"a"}), frozenset({"a", "b"})),
                (frozenset(), frozenset({"b"}), frozenset({"b", "c"})),
            ],
        )
        report = check_valid_utility(base)
        assert report.all_hold and not report.counterexamples

        def dented(sets, player):
            u = base.utility_fn(sets, player)
            if player == 1 and sets[1] == frozenset({"b", "c"}):
                return u - 1
            return u

        dented_instance = ValidUtilityInstance(
            base.ground_sets, base.feasible, dented, base.social_fn
        )
        report = check_valid_utility(dented_instance)
        assert report.nondecreasing and report.submodular and report.sum_bounded
        assert not report.marginal_utility
        witness = report.counterexamples["marginal_utility"]
        assert witness["player"] == 1
        profile = witness["profile"]
        assert dented_instance.feasible[1][profile[1]] == frozenset({"b", "c"})


def wrapper_library():
    reject = TMSpec(2, 0, 1, 1, {
        (0, "b"): (1, "b", "S"), (0, "0"): (1, "b", "S"), (0, "1"): (1, "b", "S"),
    })
    looper = TMSpec(2, 0, 1, 2, {
        (0, "b"): (0, "1", "S"), (0, "1"): (0, "b", "S"), (0, "0"): (0, "b", "S"),
    })
    branchy = TMSpec(3, 0, 2, 2, {
        (0, "1"): (2, "1", "S"), (0, "0"): (1, "0", "S"), (0, "b"): (1, "b", "S"),
        (1, "b"): (1, "b", "S"), (1, "0"): (1, "0", "S"), (1, "1"): (1, "1", "S"),
    })
    runaway = TMSpec(2, 0, 1, 4, {
        (0, "b"): (0, "1", "R"), (0, "0"): (0, "1", "R"), (0, "1"): (0, "1", "R"),
    })
    ends_in_one = TMSpec(6, 0, 5, 3, {
        (0, "0"): (1, "0", "R"), (0, "1"): (2, "1", "R"), (0, "b"): (3, "b", "S"),
        (1, "0"): (1, "0", "R"), (1, "1"): (2, "1", "R"), (1, "b"): (3, "b", "S"),
        (2, "0"): (1, "0", "R"), (2, "1"): (2, "1", "R"), (2, "b"): (5, "b", "S"),
        (3, "0"): (3, "0", "S"), (3, "1"): (3, "1", "S"), (3, "b"): (3, "b", "S"),
        (4, "0"): (3, "0", "S"), (4, "1"): (3, "1", "S"), (4, "b"): (3, "b", "S"),
    })
    return [
        (reject, "", 1, False),
        (reject, "", 1, True),
        (looper, "", 2, False),
        (branchy, "0", 2, False),
        (branchy, "1", 2, False),
        (runaway, "", 2, False),
        (ends_in_one, "011", 3, False),
        (ends_in_one, "010", 3, False),
        (ends_in_one, "11", 3, False),
        (ends_in_one, "", 3, False),
    ]


def test_criterion_10_wrapper_soundness():
    """The wrapper halts exactly when direct simulation of the machine rejects."""
    with Budget("10 (wrapper soundness)", 60):
        for machine, x, t, accept in wrapper_library():
            wrapped = wrap_machine(machine, x, t, halt_is_accept=accept)
            outcome = run_bounded(wrapped, cap=5_000_000)
            expected = direct_tm_rejects(machine, x, t, halt_is_accept=accept)
            assert outcome.halted == expected
            if not outcome.halted:
                # the wrapper loops by resetting to its initial configuration
                assert outcome.prefix == 0
