"""Two-sided market games and the 3SAT gadget.

Active agents demand bundles of valued passive agents; each passive agent
goes to its most-preferred demander. The 3SAT reduction builds one variable
player per variable (its two strategies always earn the same amount, so it
never moves) and a clause/keeper pair per clause that chases a best-response
cycle until some variable player claims one of the clause's r markets.
A pure equilibrium exists exactly when the formula is satisfiable.
"""

import itertools

from sinkeq.cnf import CnfFormula, parse_dimacs
from sinkeq.compilers import compile_sat_market
from sinkeq.dynamics import StateGraph, forward_closure, has_singleton_sink
from sinkeq.games import ActiveAgent, PassiveAgent, TwoSidedMarketGame

print("A tiny market: two buyers contesting one prize")
market = TwoSidedMarketGame(
    [PassiveAgent("prize", 10, (1, 0)), PassiveAgent("consolation", 3, (0,))],
    [
        ActiveAgent("x0", (frozenset({0}), frozenset({0, 1}))),
        ActiveAgent("x1", (frozenset(), frozenset({0}))),
    ],
)
for profile in market.codec.all_profiles():
    winners = market.compute_winners(profile)
    print(f"  profile {profile}: winners {winners},",
          f"utilities {[market.utility(profile, x) for x in range(2)]}")

print("\nCompiling (x1 or x1 or x1) and (not x1 or not x1 or not x1):")
unsat = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))
compiled = compile_sat_market(unsat)
print("  players:", {r: i for r, i in compiled.symbols.players.items()})
print("  markets:", [p.name for p in compiled.game.passive])
print("  satisfiable formula would give a pure equilibrium; this one:",
      has_singleton_sink(compiled.game))

print("\nThe unsatisfied clause cycles (its C/K pair forms a 4-state sink):")
graph = StateGraph(compiled.game)
for comp in forward_closure(graph, compiled.initial).sinks:
    for state in comp:
        print("   ", compiled.describe(state))

print("\nDIMACS input works too:")
formula = parse_dimacs("p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
print("  parsed clauses:", formula.clauses)
print("  has a pure equilibrium:",
      has_singleton_sink(compile_sat_market(formula).game))
truth = [
    dict(zip((1, 2, 3), bits))
    for bits in itertools.product([False, True], repeat=3)
]
print("  brute-force satisfiable:", any(formula.evaluate(a) for a in truth))
