"""Shared structure of the machine-simulation gadget.

The congestion and market reductions use the same cast: configuration
players (state, position, one per tape cell), write/verify control pairs per
(next state, next position, position, written symbol) tuple, a latch control,
a transition player whose strategies drive one machine step per round, and a
clock. Resources are interned by name; every alpha or beta resource is shared
by at most the owning player and the transition player, and every other
resource by at most the transition player and the clock. ``build_structure``
tags each resource with its kind as it creates it (alpha, beta, TriggerMain,
TriggerClock, nn_read, nn_write, nn_verify, nn_done, nn_halt, nn_clock_wait);
the compilers price a resource by its kind alone.

Naming convention for the write/verify controls: the strategy called One
holds the 0-superscript resources (the pair the transition player's Read and
Write strategies touch) and Zero holds the 1-superscript pair. The latch
control_D keeps the figure's literal pairing. Rounds start with the
write/verify controls on One and control_D on Zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..turing import MOVE_OFFSET, SYMBOLS, TMSpec, TapeConfig, initial_config
from .common import CompiledReduction, SymbolTable

READ_NN = 80
WRITE_NN = 60
VERIFY_NN = 40
# The figure's Done constant (20) leaves the Done move non-improving
# (20 + 20 shared-clock + 2 shared-alphas > 40 from Verify); 15 restores the
# strict descent the round table requires.
DONE_NN = 15
TRIGGER_MAIN = (0, 100, 100)
TRIGGER_CLOCK = (0, 0, 20)
CLOCK_WAIT = 110


@dataclass(frozen=True)
class ControlTuple:
    q2: int  # next state
    i2: int  # next head position
    i: int  # current head position
    sym2: str  # written symbol

    def tag(self) -> str:
        return f"{self.q2}_{self.i2}_{self.i}_{self.sym2}"


def control_tuples(spec: TMSpec) -> list[ControlTuple]:
    out = []
    for q2 in range(spec.num_states):
        for i in range(spec.t_prime + 1):
            for i2 in (i - 1, i, i + 1):
                if not 0 <= i2 <= spec.t_prime:
                    continue
                for sym2 in SYMBOLS:
                    out.append(ControlTuple(q2, i2, i, sym2))
    return out


def delta_tuple(spec: TMSpec, q: int, i: int, sym: str) -> ControlTuple:
    q2, sym2, move = spec.delta[(q, sym)]
    i2 = i + MOVE_OFFSET[move]
    if not 0 <= i2 <= spec.t_prime:
        raise ConfigurationError(
            f"transition from state {q} at cell {i} leaves the tape"
        )
    return ControlTuple(q2, i2, i, sym2)


@dataclass
class GadgetStructure:
    """Players, strategies, and per-strategy resource-name lists."""

    tuples: list[ControlTuple]
    resource_names: list[str]
    resource_kinds: list[str]  # aligned with resource_names
    player_roles: list[str]
    strategy_names: list[list[str]]  # per player
    strategy_resources: list[list[list[int]]]  # per player, per strategy

    @property
    def transition_index(self) -> int:
        return self.player_roles.index("transition")

    @property
    def clock_index(self) -> int:
        return self.player_roles.index("clock")


def build_structure(spec: TMSpec, market_halt_nn: bool = False) -> GadgetStructure:
    tuples = control_tuples(spec)
    t_prime = spec.t_prime
    n_states = spec.num_states

    names: list[str] = []
    kinds: list[str] = []
    index: dict[str, int] = {}

    def res(name: str, kind: str) -> int:
        if name not in index:
            index[name] = len(names)
            names.append(name)
            kinds.append(kind)
        return index[name]

    a_state = [res(f"a_state_{q}", "alpha") for q in range(n_states)]
    b_state = [res(f"b_state_{q}", "beta") for q in range(n_states)]
    a_pos = [res(f"a_pos_{i}", "alpha") for i in range(t_prime + 1)]
    b_pos = [res(f"b_pos_{i}", "beta") for i in range(t_prime + 1)]
    cells = [(i, s) for i in range(t_prime + 1) for s in SYMBOLS]
    a_cell = {(i, s): res(f"a_cell_{i}_{s}", "alpha") for i, s in cells}
    b_cell = {(i, s): res(f"b_cell_{i}_{s}", "beta") for i, s in cells}
    ctrl = {}
    for kind in ("W", "V"):
        for t in tuples:
            for sup in ("0", "1"):
                ctrl[(kind, t, "a", sup)] = res(f"a{sup}_{kind}_{t.tag()}", "alpha")
                ctrl[(kind, t, "b", sup)] = res(f"b{sup}_{kind}_{t.tag()}", "beta")
    a0_d, a1_d = res("a0_D", "alpha"), res("a1_D", "alpha")
    b0_d, b1_d = res("b0_D", "beta"), res("b1_D", "beta")
    trigger_main = res("TriggerMain", "TriggerMain")
    trigger_clock = res("TriggerClock", "TriggerClock")

    player_roles: list[str] = []
    strategy_names: list[list[str]] = []
    strategy_resources: list[list[list[int]]] = []

    def add_player(role, strat_names, strat_resources):
        player_roles.append(role)
        strategy_names.append(strat_names)
        strategy_resources.append(strat_resources)

    add_player(
        "state",
        [f"q{q}" for q in range(n_states)],
        [[a_state[q], b_state[q]] for q in range(n_states)],
    )
    add_player(
        "position",
        [f"p{i}" for i in range(t_prime + 1)],
        [[a_pos[i], b_pos[i]] for i in range(t_prime + 1)],
    )
    for i in range(t_prime + 1):
        add_player(
            f"cell_{i}",
            list(SYMBOLS),
            [[a_cell[(i, s)], b_cell[(i, s)]] for s in SYMBOLS],
        )
    for kind in ("W", "V"):
        for t in tuples:
            add_player(
                f"control_{kind}_{t.tag()}",
                ["Zero", "One"],
                [
                    [ctrl[(kind, t, "b", "1")], ctrl[(kind, t, "a", "1")]],
                    [ctrl[(kind, t, "b", "0")], ctrl[(kind, t, "a", "0")]],
                ],
            )
    add_player("control_D", ["Zero", "One"], [[b0_d, a0_d], [b1_d, a1_d]])

    trans_names: list[str] = ["Wait"]
    wait_resources = (
        [ctrl[("W", t, "b", "1")] for t in tuples]
        + [ctrl[("V", t, "b", "1")] for t in tuples]
        + [a1_d, trigger_main]
    )
    trans_resources: list[list[int]] = [wait_resources]

    for q in range(n_states):
        if q == spec.q_halt:
            continue
        for i in range(t_prime + 1):
            for sym in SYMBOLS:
                q2, sym2, move = spec.delta[(q, sym)]
                i2 = i + MOVE_OFFSET[move]
                if not 0 <= i2 <= t_prime:
                    continue  # a strategy for an off-tape step is never emitted
                target = ControlTuple(q2, i2, i, sym2)
                trans_names.append(f"Read_{q}_{i}_{sym}")
                trans_resources.append(
                    [b_state[p] for p in range(n_states) if p != q]
                    + [b_pos[j] for j in range(t_prime + 1) if j != i]
                    + [b_cell[(i, s)] for s in SYMBOLS if s != sym]
                    + [b1_d, ctrl[("W", target, "a", "0")],
                       res(f"nn_read_{q}_{i}_{sym}", "nn_read")]
                )
    for t in tuples:
        trans_names.append(f"Write_{t.tag()}")
        trans_resources.append(
            [a_state[p] for p in range(n_states) if p != t.q2]
            + [a_pos[j] for j in range(t_prime + 1) if j != t.i2]
            + [a_cell[(t.i, s)] for s in SYMBOLS if s != t.sym2]
            + [ctrl[("V", t, "a", "0")], ctrl[("W", t, "b", "0")],
               res(f"nn_write_{t.tag()}", "nn_write")]
        )
    for t in tuples:
        trans_names.append(f"Verify_{t.tag()}")
        trans_resources.append(
            [b_state[p] for p in range(n_states) if p != t.q2]
            + [b_pos[j] for j in range(t_prime + 1) if j != t.i2]
            + [b_cell[(t.i, s)] for s in SYMBOLS if s != t.sym2]
            + [ctrl[("V", t, "b", "0")], a0_d, res(f"nn_verify_{t.tag()}", "nn_verify")]
        )
    trans_names.append("Done")
    trans_resources.append(
        [trigger_clock, b0_d]
        + [ctrl[("W", t, "a", "1")] for t in tuples]
        + [ctrl[("V", t, "a", "1")] for t in tuples]
        + [res("nn_done", "nn_done")]
    )
    trans_names.append("Halt")
    halt_resources = [b_state[p] for p in range(n_states) if p != spec.q_halt]
    if market_halt_nn:
        halt_resources.append(res("nn_halt", "nn_halt"))
    trans_resources.append(halt_resources)
    add_player("transition", trans_names, trans_resources)

    add_player(
        "clock",
        ["Trigger", "Wait"],
        [[trigger_main, trigger_clock], [res("nn_clock_wait", "nn_clock_wait")]],
    )

    return GadgetStructure(
        tuples=tuples,
        resource_names=names,
        resource_kinds=kinds,
        player_roles=player_roles,
        strategy_names=strategy_names,
        strategy_resources=strategy_resources,
    )


def round_start_strategy(role: str) -> str | None:
    """The strategy ``role`` holds at every round start, or None for the
    configuration players (state, position, cells)."""
    if role.startswith("control_"):
        return "Zero" if role == "control_D" else "One"
    return {"transition": "Wait", "clock": "Trigger"}.get(role)


def assemble(structure: GadgetStructure, game, spec: TMSpec) -> CompiledReduction:
    """Wrap an emitted game with its symbol table and canonical initial profile."""
    roles = structure.player_roles
    symbols = SymbolTable.from_roles(
        roles, [dict(enumerate(names)) for names in structure.strategy_names])
    # the configuration players, left on 0 here, are set by _encode_config
    base = [symbols.strategies[role].get(round_start_strategy(role), 0) for role in roles]
    initial = _encode_config(symbols, base, initial_config(spec))
    return CompiledReduction(game=game, initial=initial, symbols=symbols, machine=spec)


def round_start_profile(compiled: CompiledReduction, config: TapeConfig):
    """The recurring round-start profile whose configuration players encode
    ``config``, every other player on its ``round_start_strategy``."""
    return _encode_config(compiled.symbols, compiled.initial, config)


def _encode_config(symbols: SymbolTable, profile, config: TapeConfig):
    """``profile`` with its configuration players set to encode ``config``."""
    profile = list(profile)
    profile[symbols.player("state")] = symbols.strategy("state", f"q{config.state}")
    profile[symbols.player("position")] = symbols.strategy("position", f"p{config.head}")
    for i, sym in enumerate(config.tape):
        profile[symbols.player(f"cell_{i}")] = symbols.strategy(f"cell_{i}", sym)
    return tuple(profile)


def decode_config(compiled: CompiledReduction, profile) -> TapeConfig:
    """Read the configuration players back into a machine configuration."""
    symbols = compiled.symbols
    spec: TMSpec = compiled.machine
    state_name = symbols.strategy_name("state", profile[symbols.player("state")])
    pos_name = symbols.strategy_name("position", profile[symbols.player("position")])
    tape = tuple(
        symbols.strategy_name(f"cell_{i}", profile[symbols.player(f"cell_{i}")])
        for i in range(spec.t_prime + 1)
    )
    return TapeConfig(int(state_name[1:]), int(pos_name[1:]), tape)
