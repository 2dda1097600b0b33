"""Sink equilibria, best-response dynamics, and game-gadget compilers."""

from .dynamics import (
    EdgeSemantics,
    FirstImprover,
    PriorityList,
    RandomImprover,
    StateGraph,
    WalkOutcome,
    forward_closure,
    has_non_singleton_sink,
    has_singleton_sink,
    in_a_sink,
    sccs,
    simulate_walk,
    sinks,
)
from .games import (
    AnonymousGame,
    CongestionGame,
    SuccinctGame,
    TableGame,
    TwoSidedMarketGame,
    ValidUtilityInstance,
    check_valid_utility,
)
from .profiles import Profile, ProfileCodec
from .turing import TMSpec, TapeConfig, run_bounded, tm_step, wrap_machine

__version__ = "0.1.0"
