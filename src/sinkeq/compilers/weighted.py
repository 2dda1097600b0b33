"""Machine-to-congestion-game reductions (weighted and player-specific)."""

from __future__ import annotations

from ..errors import ConfigurationError
from ..games.congestion import PLAYER_SPECIFIC, SHARED, CongestionGame
from ..turing import TMSpec
from .common import CompiledReduction
from .tm_gadget import (
    CLOCK_WAIT,
    DONE_NN,
    READ_NN,
    TRIGGER_CLOCK,
    TRIGGER_MAIN,
    VERIFY_NN,
    WRITE_NN,
    assemble,
    build_structure,
)


def compile_tm_weighted(spec: TMSpec, penalty: int = 10_000) -> CompiledReduction:
    """Weighted shared-delay congestion game simulating one step per round.

    Alpha resources cost 0 alone and 1 shared; beta resources 0 alone and the
    penalty shared. The clock carries weight 2 so that it always pays 100 on
    TriggerMain while a lone transition player pays 0.
    """
    if penalty <= 110:
        raise ConfigurationError("the penalty must exceed every constant delay (110)")
    structure = build_structure(spec)
    delays = {
        "alpha": {1: 0, 2: 1},
        "beta": {1: 0, 2: penalty},
        "TriggerMain": dict(enumerate(TRIGGER_MAIN, start=1)),
        "TriggerClock": dict(enumerate(TRIGGER_CLOCK, start=1)),
        "nn_read": {1: READ_NN},
        "nn_write": {1: WRITE_NN},
        "nn_verify": {1: VERIFY_NN},
        "nn_done": {1: DONE_NN},
        "nn_clock_wait": {1: CLOCK_WAIT, 2: CLOCK_WAIT},
    }
    weights = [1] * len(structure.player_roles)
    weights[structure.clock_index] = 2
    game = CongestionGame(
        resources=structure.resource_names,
        strategies=structure.strategy_resources,
        delays=[delays[kind] for kind in structure.resource_kinds],
        weights=weights,
        mode=SHARED,
    )
    compiled = assemble(structure, game, spec)
    compiled.penalty = penalty
    return compiled


def compile_tm_player_specific(spec: TMSpec, penalty: int = 10_000) -> CompiledReduction:
    """Unit-weight variant: the weighted compile read per player.

    A resource has at most two potential users. Each user's table gives, at
    user count 1, the weighted delay at its own weight and, at count 2, the
    weighted delay at both users' weights; a player who never uses the
    resource gets an empty table. Every player's cost therefore matches the
    weighted compile profile for profile.
    """
    compiled = compile_tm_weighted(spec, penalty)
    weighted = compiled.game
    weights = weighted.weights
    delays = []
    # equal tables are one object, so the game checks and copies each once
    empty: dict[int, int] = {}
    tables: dict[tuple, dict[int, int]] = {}  # the delays at counts 1, 2 -> their table
    for table, users in zip(weighted.delays, weighted.potential_users()):
        per_player = [empty] * len(weights)
        for i in users:
            own = (table[weights[i]],)
            if len(users) == 2:
                own += (table[sum(weights[j] for j in users)],)
            per_player[i] = tables.setdefault(own, dict(enumerate(own, start=1)))
        delays.append(per_player)
    compiled.game = CongestionGame(
        resources=weighted.resources,
        strategies=weighted.strategies,
        delays=delays,
        weights=[1] * len(weights),
        mode=PLAYER_SPECIFIC,
    )
    return compiled
