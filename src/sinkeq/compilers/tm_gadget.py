"""Shared structure of the machine-simulation gadget.

The congestion and market reductions use the same cast: configuration
players (state, position, one per tape cell), write/verify control pairs per
(next state, next position, position, written symbol) tuple, a latch control,
a transition player whose strategies drive one machine step per round, and a
clock. Every alpha or beta resource is shared by at most the owning player
and the transition player, and every other resource by at most the
transition player and the clock.

``build_structure`` names each resource once, and each family of resources
is one block of consecutive indices, in this order: the state, position and
cell pairs (all alphas of a family before its betas), four per write or
verify control (a0, b0, a1, b1; the W block, then the V block, each in
``control_tuples`` order), the latch's four, the two triggers, and then one
nn resource per transition or clock strategy that holds one, in the order
the strategies are emitted. A resource is addressed by its position in its
block. Each resource is tagged with its kind as it is created (alpha, beta,
TriggerMain, TriggerClock, nn_read, nn_write, nn_verify, nn_done, nn_halt,
nn_clock_wait); the compilers price a resource by its kind alone.

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


def _without_each(block: range) -> list[list[int]]:
    """Entry k: the indices of ``block`` but its k-th."""
    return [[*block[:k], *block[k + 1:]] for k in range(len(block))]


def build_structure(spec: TMSpec, market_halt_nn: bool = False) -> GadgetStructure:
    tuples = control_tuples(spec)
    tags = [t.tag() for t in tuples]
    position = {(t.q2, t.i2, t.i, t.sym2): j for j, t in enumerate(tuples)}
    n_states, n_cells, n_tuples = spec.num_states, spec.t_prime + 1, len(tuples)
    symbol_index = {s: k for k, s in enumerate(SYMBOLS)}

    names: list[str] = []
    kinds: list[str] = []

    def block(new_names: list[str], *cycle: str) -> range:
        """Append ``new_names``, their kinds repeating ``cycle``; their indices."""
        start = len(names)
        names.extend(new_names)
        kinds.extend(cycle * (len(new_names) // len(cycle)))
        return range(start, len(names))

    a_state = block([f"a_state_{q}" for q in range(n_states)], "alpha")
    b_state = block([f"b_state_{q}" for q in range(n_states)], "beta")
    a_pos = block([f"a_pos_{i}" for i in range(n_cells)], "alpha")
    b_pos = block([f"b_pos_{i}" for i in range(n_cells)], "beta")
    a_cell = block([f"a_cell_{i}_{s}" for i in range(n_cells) for s in SYMBOLS], "alpha")
    b_cell = block([f"b_cell_{i}_{s}" for i in range(n_cells) for s in SYMBOLS], "beta")
    # per cell, one index per symbol
    a_cells = [a_cell[r:r + len(SYMBOLS)] for r in range(0, len(a_cell), len(SYMBOLS))]
    b_cells = [b_cell[r:r + len(SYMBOLS)] for r in range(0, len(b_cell), len(SYMBOLS))]
    # four resources per (W or V, tuple): a0, b0, a1, b1
    ctrl = block([f"{ab}{sup}_{kind}_{tag}" for kind in ("W", "V") for tag in tags
                  for sup in ("0", "1") for ab in ("a", "b")], "alpha", "beta")
    quads = [ctrl[r:r + 4] for r in range(0, len(ctrl), 4)]
    w_quads, v_quads = quads[:n_tuples], quads[n_tuples:]
    a0_d, a1_d, b0_d, b1_d = block(["a0_D", "a1_D", "b0_D", "b1_D"],
                                   "alpha", "alpha", "beta", "beta")
    trigger_main, trigger_clock = block(["TriggerMain", "TriggerClock"],
                                        "TriggerMain", "TriggerClock")

    def nn(name: str, kind: str) -> int:
        names.append(name)
        kinds.append(kind)
        return len(names) - 1

    # the other resources of one block: a state, a position, a cell's symbol
    a_state_but, b_state_but = _without_each(a_state), _without_each(b_state)
    a_pos_but, b_pos_but = _without_each(a_pos), _without_each(b_pos)
    a_cell_but, b_cell_but = list(map(_without_each, a_cells)), list(map(_without_each, b_cells))

    player_roles: list[str] = []
    strategy_names: list[list[str]] = []
    strategy_resources: list[list[list[int]]] = []

    def add_player(role, strat_names, strat_resources):
        player_roles.append(role)
        strategy_names.append(strat_names)
        strategy_resources.append(strat_resources)

    add_player("state", [f"q{q}" for q in range(n_states)],
               [[a, b] for a, b in zip(a_state, b_state)])
    add_player("position", [f"p{i}" for i in range(n_cells)],
               [[a, b] for a, b in zip(a_pos, b_pos)])
    for i in range(n_cells):
        add_player(f"cell_{i}", list(SYMBOLS), [[a, b] for a, b in zip(a_cells[i], b_cells[i])])
    for kind, kind_quads in (("W", w_quads), ("V", v_quads)):
        for tag, (a0, b0, a1, b1) in zip(tags, kind_quads):
            add_player(f"control_{kind}_{tag}", ["Zero", "One"], [[b1, a1], [b0, a0]])
    add_player("control_D", ["Zero", "One"], [[b0_d, a0_d], [b1_d, a1_d]])

    trans_names: list[str] = ["Wait"]
    trans_resources: list[list[int]] = [[*ctrl[3::4], a1_d, trigger_main]]

    for q in range(n_states):
        if q == spec.q_halt:
            continue
        for i in range(n_cells):
            for sym in SYMBOLS:
                q2, sym2, move = spec.delta[(q, sym)]
                i2 = i + MOVE_OFFSET[move]
                if not 0 <= i2 < n_cells:
                    continue  # a strategy for an off-tape step is never emitted
                target = w_quads[position[(q2, i2, i, sym2)]]
                trans_names.append(f"Read_{q}_{i}_{sym}")
                trans_resources.append(
                    b_state_but[q] + b_pos_but[i] + b_cell_but[i][symbol_index[sym]]
                    + [b1_d, target[0], nn(f"nn_read_{q}_{i}_{sym}", "nn_read")]
                )
    for t, tag, w, v in zip(tuples, tags, w_quads, v_quads):
        trans_names.append(f"Write_{tag}")
        trans_resources.append(
            a_state_but[t.q2] + a_pos_but[t.i2] + a_cell_but[t.i][symbol_index[t.sym2]]
            + [v[0], w[1], nn(f"nn_write_{tag}", "nn_write")]
        )
    for t, tag, v in zip(tuples, tags, v_quads):
        trans_names.append(f"Verify_{tag}")
        trans_resources.append(
            b_state_but[t.q2] + b_pos_but[t.i2] + b_cell_but[t.i][symbol_index[t.sym2]]
            + [v[1], a0_d, nn(f"nn_verify_{tag}", "nn_verify")]
        )
    trans_names.append("Done")
    trans_resources.append([trigger_clock, b0_d, *ctrl[2::4], nn("nn_done", "nn_done")])
    trans_names.append("Halt")
    halt_resources = list(b_state_but[spec.q_halt])
    if market_halt_nn:
        halt_resources.append(nn("nn_halt", "nn_halt"))
    trans_resources.append(halt_resources)
    add_player("transition", trans_names, trans_resources)

    add_player("clock", ["Trigger", "Wait"],
               [[trigger_main, trigger_clock], [nn("nn_clock_wait", "nn_clock_wait")]])

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
