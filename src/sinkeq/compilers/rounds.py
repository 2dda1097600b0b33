"""Round verifiers: drive one simulated machine step and check every mover.

A report's trace records each applied move; ``matches`` turns false at the
first profile whose qualifying moves differ from the expected ones, so the
verifiers double as essential-uniqueness checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dynamics import EdgeSemantics, StateGraph
from ..profiles import Profile
from ..turing import TMSpec, tm_step
from .anonymous import (
    STRATEGIES,
    _S,
    decode_anonymous_config,
    state_rank,
)
from .common import CompiledReduction
from .tm_gadget import decode_config, delta_tuple, round_start_profile, round_start_strategy


@dataclass
class RoundMove:
    step: str
    role: str
    strategy: str


@dataclass
class RoundReport:
    trace: list[RoundMove] = field(default_factory=list)
    failure: str | None = None
    end_profile: Profile | None = None
    end_config: object = None

    @property
    def matches(self) -> bool:
        return self.failure is None


def _apply(profile: Profile, player: int, strategy: int) -> Profile:
    return profile[:player] + (strategy,) + profile[player + 1:]


def _named(symbols, moves) -> list[tuple[str, str]]:
    """Moves as sorted (role, strategy name) pairs."""
    return sorted(
        (symbols.role_of(p), symbols.strategy_name(symbols.role_of(p), s)) for p, s in moves
    )


def _pins(profile: Profile, targets: dict[int, int]) -> set[tuple[int, int]]:
    """Moves of the players in ``targets`` ({player: strategy}) not yet on
    their target strategies."""
    return {(p, s) for p, s in targets.items() if profile[p] != s}


def _run_rows(compiled, graph, profile, rows, trace, allowance=None, prefix=""):
    """Walk rows of (label, allowed(P)) from ``profile``.

    A row ends at the first profile where it allows no move. Until then the
    qualifying moves at each profile must be exactly ``allowed(P)``, minus
    the moves in ``allowance(P)`` (the halt deviation once the machine state
    is the halting one); the lowest allowed move is applied and
    recorded. A row that has not ended after 10·n moves fails. A failure
    text starts with ``prefix`` and the row's label. Returns (profile, None)
    or (profile, failure).
    """
    symbols = compiled.symbols
    for label, allowed_fn in rows:
        moves = 0
        while allowed := allowed_fn(profile):
            moves += 1
            if moves > 10 * compiled.game.num_players:
                return profile, f"{prefix}{label}: no progress"
            actual = {(p, s) for p, s, _ in graph.improving_moves(profile)}
            if allowance is not None:
                actual -= allowance(profile)
            if actual != allowed:
                return profile, (f"{prefix}{label}: expected movers "
                                 f"{_named(symbols, allowed)}, found {_named(symbols, actual)}")
            player, strategy = min(allowed)
            profile = _apply(profile, player, strategy)
            role = symbols.role_of(player)
            trace.append(RoundMove(label, role, symbols.strategy_name(role, strategy)))
    return profile, None


def _steps(compiled, graph, profile, steps, trace, allowance=None):
    """Run scripted steps (label, {player: target strategy}) as pin rows."""
    rows = [(label, lambda P, t=targets: _pins(P, t)) for label, targets in steps]
    return _run_rows(compiled, graph, profile, rows, trace, allowance, prefix="step ")


def verify_round_weighted(
    compiled: CompiledReduction, start: Profile | None = None
) -> RoundReport:
    """Check one round of the congestion/market machine gadget.

    The start profile must hold every player but the configuration players
    on its ``round_start_strategy``: the clock on Trigger, the transition
    player on Wait, the write/verify controls on One and control_D on Zero.
    For a halting-state configuration the expected move is the deviation to
    Halt, which must land on a pure Nash equilibrium.
    """
    spec: TMSpec = compiled.machine
    symbols = compiled.symbols
    profile = compiled.initial if start is None else tuple(start)
    strat, player = symbols.strategy, symbols.player

    for role in symbols.players:
        want = round_start_strategy(role)
        if want is not None and profile[player(role)] != strat(role, want):
            return RoundReport(failure=f"start profile: {role} must be on {want}")

    config = decode_config(compiled, profile)
    graph = StateGraph(compiled.game, EdgeSemantics.IMPROVEMENT)
    trace: list[RoundMove] = []

    if config.state == spec.q_halt:
        steps = [("halt", {player("transition"): strat("transition", "Halt")})]
        profile, failure = _steps(compiled, graph, profile, steps, trace)
        if failure is None and graph.improving_moves(profile):
            failure = "halt profile is not a pure Nash equilibrium"
        return RoundReport(trace, failure, profile, config)

    q, i, sym = config.state, config.head, config.tape[config.head]
    tau = delta_tuple(spec, q, i, sym)
    ctrl_w = f"control_W_{tau.tag()}"
    ctrl_v = f"control_V_{tau.tag()}"

    step4: dict[int, int] = {}
    if tau.q2 != q:
        step4[player("state")] = strat("state", f"q{tau.q2}")
    if tau.i2 != i:
        step4[player("position")] = strat("position", f"p{tau.i2}")
    if tau.sym2 != sym:
        step4[player(f"cell_{i}")] = strat(f"cell_{i}", tau.sym2)
    step4[player(ctrl_v)] = strat(ctrl_v, "Zero")

    state_player = player("state")
    halt_state_strategy = strat("state", f"q{spec.q_halt}")
    halt_move = (player("transition"), strat("transition", "Halt"))

    def extra_allowed(current):
        # Once the state player sits on the halting state, the Halt deviation
        # qualifies alongside the scripted sequence.
        if current[state_player] == halt_state_strategy:
            return {halt_move}
        return set()

    steps = [
        ("(1)", {player("transition"): strat("transition", f"Read_{q}_{i}_{sym}")}),
        ("(2)", {player(ctrl_w): strat(ctrl_w, "Zero")}),
        ("(3)", {player("transition"): strat("transition", f"Write_{tau.tag()}")}),
        ("(4)", step4),
        ("(5)", {player("transition"): strat("transition", f"Verify_{tau.tag()}")}),
        ("(6)", {player("control_D"): strat("control_D", "One")}),
        ("(7)", {player("transition"): strat("transition", "Done")}),
        ("(8)", {
            player("clock"): strat("clock", "Wait"),
            player(ctrl_w): strat(ctrl_w, "One"),
            player(ctrl_v): strat(ctrl_v, "One"),
        }),
        ("(9)", {player("transition"): strat("transition", "Wait")}),
        ("(10)", {
            player("clock"): strat("clock", "Trigger"),
            player("control_D"): strat("control_D", "Zero"),
        }),
    ]
    profile, failure = _steps(compiled, graph, profile, steps, trace, extra_allowed)
    expected_config = tm_step(spec, config)
    if failure is None and profile != round_start_profile(compiled, expected_config):
        failure = "end profile is not the round start of the successor configuration"
    return RoundReport(trace, failure, profile, expected_config if failure is None else None)


def _class_indices(symbols, prefix: str) -> list[int]:
    return sorted(
        index for role, index in symbols.players.items()
        if role == prefix or role.startswith(prefix + "_")
    )


def verify_round_anonymous(
    compiled: CompiledReduction, start: Profile | None = None
) -> RoundReport:
    """Check the 19-row anonymous round, mover classes included.

    Balancing rows allow any member of the moving class to step (the players
    are interchangeable); every row's qualifying moves must stay inside the
    row's allowed set until the row allows no move.
    """
    spec: TMSpec = compiled.machine
    symbols = compiled.symbols
    profile = compiled.initial if start is None else tuple(start)

    c1 = symbols.player("control1")
    c2 = symbols.player("control2")
    if profile[c1] != _S["init"]:
        return RoundReport(failure="start profile: control1 must be on init")
    for player, choice in enumerate(profile):
        if choice not in compiled.game.players[player].allowed:
            return RoundReport(failure=(f"start profile: {symbols.role_of(player)} may not be "
                                        f"on {STRATEGIES[choice]}"))
    try:
        config = decode_anonymous_config(compiled, profile)
    except ValueError as exc:
        return RoundReport(failure=f"start profile: {exc}")
    if config.state == spec.q_halt:
        return RoundReport(failure="start configuration is already halted")

    i, sym = config.head, config.tape[config.head]
    tau = delta_tuple(spec, config.state, i, sym)
    rank = state_rank(spec)
    i2, sym2, q2_rank = tau.i2, tau.sym2, rank[tau.q2]

    cells = _class_indices(symbols, "cell")
    tapes = _class_indices(symbols, "tape")
    positions = _class_indices(symbols, "position")
    states = _class_indices(symbols, "state")
    new_pos = _class_indices(symbols, "new_pos")
    new_states = _class_indices(symbols, "new_state")
    symbol_p = symbols.player("symbol")
    new_sym_p = symbols.player("new_sym")
    cell_head = symbols.player(f"cell_{i}")

    def counts(profile, players, strategy_name):
        s = _S[strategy_name]
        return sum(1 for p in players if profile[p] == s)

    def histogram_moves(profile, players, names, targets):
        """Moves from over-full strategies to under-full ones."""
        have = {name: counts(profile, players, name) for name in names}
        deficits = [name for name in names if have[name] < targets[name]]
        moves = set()
        for p in players:
            name = STRATEGIES[profile[p]]
            if have[name] > targets.get(name, 0):
                moves.update((p, _S[d]) for d in deficits)
        return moves

    def unary_moves(profile, players, one_name, zero_name, target):
        have = counts(profile, players, one_name)
        if have < target:
            return {(p, _S[one_name]) for p in players if profile[p] == _S[zero_name]}
        if have > target:
            return {(p, _S[zero_name]) for p in players if profile[p] == _S[one_name]}
        return set()

    tape_names = [f"tape^{s}" for s in ("0", "1", "b")]

    def tape_targets(profile):
        return {
            f"tape^{s}": counts(profile, cells, f"cell^{s}") for s in ("0", "1", "b")
        }

    # Each row: (row label, allowed moves at P); it ends when none are allowed.
    rows = [
        ("row 2", lambda P: _pins(P, {c2: _S["Xinit"]})
            | histogram_moves(P, tapes, tape_names, tape_targets(P))),
        ("row 3", lambda P: _pins(P, {c1: _S["tape-change"]})),
        ("row 4", lambda P: _pins(P, {c2: _S["Xtape-change"], cell_head: _S["change"]})),
        ("row 5", lambda P: _pins(P, {c1: _S["eval-tape"]})),
        ("row 6", lambda P: _pins(P, {c2: _S["Xeval-tape"], symbol_p: _S[f"symbol^{sym}"]})),
        ("row 7", lambda P: _pins(P, {c1: _S["new-sym"]})),
        ("row 8", lambda P: _pins(P, {c2: _S["Xnew-sym"], new_sym_p: _S[f"new-sym^{sym2}"]})),
        ("row 9", lambda P: _pins(P, {c1: _S["new-sym2"]})),
        ("row 10", lambda P: _pins(P, {c2: _S["Xnew-sym2"], cell_head: _S[f"cell^{sym2}"]})),
        ("row 11", lambda P: _pins(P, {c1: _S["new-pos"]})),
        ("row 12", lambda P: _pins(P, {c2: _S["Xnew-pos"]})
            | unary_moves(P, new_pos, "new-pos^1", "new-pos^0", i2)),
        ("row 13", lambda P: _pins(P, {c1: _S["new-pos2"]})),
        ("row 14", lambda P: _pins(P, {c2: _S["Xnew-pos2"]})
            | unary_moves(P, positions, "position^1", "position^0", i2)),
        ("row 15", lambda P: _pins(P, {c1: _S["new-state"]})),
        ("row 16", lambda P: _pins(P, {c2: _S["Xnew-state"]})
            | unary_moves(P, new_states, "new-state^1", "new-state^0", q2_rank)),
        ("row 17", lambda P: _pins(P, {c1: _S["new-state2"]})),
        ("row 18", lambda P: _pins(P, {c2: _S["Xnew-state2"]})
            | unary_moves(P, states, "state^1", "state^0", q2_rank)),
        ("row 19", lambda P: _pins(P, {c1: _S["init"]})),
    ]

    graph = StateGraph(compiled.game, EdgeSemantics.IMPROVEMENT)
    trace: list[RoundMove] = []
    halt_move = {(c1, _S["halt"])}

    def halt_allowed(P):
        # Once the state class holds the halting rank, control1's halt
        # deviation qualifies alongside the remaining rows.
        return halt_move if counts(P, states, "state^1") == rank[spec.q_halt] else set()

    profile, failure = _run_rows(compiled, graph, profile, rows, trace, halt_allowed)
    if failure is None:
        end_config = decode_anonymous_config(compiled, profile)
        expected = tm_step(spec, config)
        if end_config == expected:
            return RoundReport(trace, None, profile, end_config)
        failure = f"end configuration {end_config} differs from the machine step {expected}"
    return RoundReport(trace, failure)
