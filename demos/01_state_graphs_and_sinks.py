"""State graphs, sink equilibria, and the three decision questions.

A strategy profile is a vertex; every strictly improving unilateral move is
an arc. Sink equilibria are the bottom strongly connected components: once
best-response play falls in, it never leaves. A pure Nash equilibrium is
exactly a singleton sink.
"""

from sinkeq.dot import export_space_dot
from sinkeq.dynamics import (
    FirstImprover,
    RandomImprover,
    StateGraph,
    in_a_sink,
    has_non_singleton_sink,
    has_singleton_sink,
    simulate_walk,
    sinks,
    space_sinks,
)
from sinkeq.games import matching_pennies, prisoners_dilemma

pd = prisoners_dilemma()
print("Prisoner's dilemma (0 = cooperate, 1 = defect)")
for sink in sinks(pd):
    print("  sink:", sorted(sink), "singleton:", len(sink) == 1)
print("  has a pure equilibrium:", has_singleton_sink(pd))
print("  has a non-singleton sink:", has_non_singleton_sink(pd))
print("  (0,0) in a sink:", in_a_sink(pd, (0, 0)))
print("  (1,1) in a sink:", in_a_sink(pd, (1, 1)))

mp = matching_pennies()
print("\nMatching pennies: no pure equilibrium, one 4-state sink")
for sink in sinks(mp):
    print("  sink:", sorted(sink))
print("  has a pure equilibrium:", has_singleton_sink(mp))

print("\nA deterministic walk from (0,0):")
walk = simulate_walk(StateGraph(mp), (0, 0), FirstImprover(), max_steps=6)
print("  states:", walk.states)
print("  outcome:", walk.outcome.value)

print("\nA seeded random walk:")
walk = simulate_walk(StateGraph(mp), (0, 0), RandomImprover(seed=4), max_steps=6)
print("  moves (player, new strategy):", walk.moves)

print("\nDOT export of the matching-pennies state graph:")
print(export_space_dot(*space_sinks(StateGraph(mp)), mp.codec))
