"""The weighted congestion gadget that runs a Turing machine.

One player per machine-state/head-position/tape-cell choice, a write/verify
control pair per possible transition, a latch, a transition player, and a
weight-2 clock. Each improvement round performs exactly one machine step;
the canonical starting profile sits in a sink equilibrium precisely when the
machine never halts.
"""

from sinkeq.compilers import (
    compile_tm_market,
    compile_tm_player_specific,
    compile_tm_weighted,
    closures_isomorphic,
    decode_config,
    round_start_profile,
    verify_round_weighted,
)
from sinkeq.dynamics import StateGraph, forward_closure, in_a_sink
from sinkeq.turing import TMSpec, initial_config, run_bounded, tm_step

looper = TMSpec(
    num_states=2, q0=0, q_halt=1, t_prime=2,
    delta={
        (0, "b"): (0, "1", "S"),
        (0, "1"): (0, "b", "S"),
        (0, "0"): (0, "b", "S"),
    },
)
print("Machine: flips the scanned cell forever ->", run_bounded(looper))

compiled = compile_tm_weighted(looper)
print(f"Compiled game: {compiled.game.num_players} players,",
      f"{len(compiled.game.resources)} resources, penalty {compiled.penalty}")
print("Initial profile decodes to:", decode_config(compiled, compiled.initial))

print("\nOne round of improvement moves (one machine step):")
report = verify_round_weighted(compiled)
for move in report.trace:
    print(f"  step {move.step:5s} {move.role:22s} -> {move.strategy}")
print("  round matched the table:", report.matches)
print("  configuration after the round:", report.end_config)

closure = forward_closure(StateGraph(compiled.game), compiled.initial)
print(f"\nReachable closure: {len(closure)} profiles (loops every 2 steps)")
print("Initial profile in a sink equilibrium:",
      in_a_sink(compiled.game, compiled.initial))

halter = TMSpec(
    num_states=2, q0=0, q_halt=1, t_prime=2,
    delta={
        (0, "b"): (1, "1", "R"),
        (0, "1"): (1, "1", "R"),
        (0, "0"): (1, "1", "R"),
    },
)
halting = compile_tm_weighted(halter)
print("\nA halting machine instead:", run_bounded(halter))
print("Initial profile in a sink equilibrium:",
      in_a_sink(halting.game, halting.initial))
halted_config = tm_step(halter, initial_config(halter))
final = verify_round_weighted(halting, round_start_profile(halting, halted_config))
print("From the halted configuration the transition player deviates to",
      final.trace[0].strategy, "and the game rests.")

print("\nThe player-specific and market versions replay the same dynamics:")
print("  player-specific isomorphic:",
      closures_isomorphic(compiled, compile_tm_player_specific(looper)))
print("  market isomorphic:",
      closures_isomorphic(compiled, compile_tm_market(looper)))
