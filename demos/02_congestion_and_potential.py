"""Congestion games and the exact potential argument.

In unweighted shared-delay games the Rosenthal potential drops by exactly
the mover's cost saving along every improvement edge, so improvement
dynamics cannot cycle and every sink is a pure equilibrium. Weighted and
player-specific games lose that guarantee, which is what the machine
gadgets exploit.
"""

import random
from fractions import Fraction

from sinkeq.dynamics import (
    StateGraph,
    has_non_singleton_sink,
    sinks,
)
from sinkeq.games import CongestionGame

print("Two players sharing one road (delay 1 alone, 5 together),")
print("with a private detour of delay 3 each:")
game = CongestionGame(
    resources=["road", "detour_a", "detour_b"],
    strategies=[[[0], [1]], [[0], [2]]],
    delays=[{1: 1, 2: 5}, {1: 3}, {1: 3}],
)
for profile in game.codec.all_profiles():
    costs = [game.cost(profile, p) for p in range(2)]
    phi = game.rosenthal_potential(profile)
    print(f"  profile {profile}: costs {costs}, potential {phi}")

print("\nEvery improvement edge lowers the potential by the mover's saving:")
graph = StateGraph(game)
for profile in game.codec.all_profiles():
    for player, strategy, new_u in graph.improving_moves(profile):
        moved = profile[:player] + (strategy,) + profile[player + 1:]
        saving = game.cost(profile, player) + new_u
        print(f"  {profile} -> {moved} (player {player}):",
              f"potential {game.rosenthal_potential(profile)} ->",
              f"{game.rosenthal_potential(moved)}, saving {saving}")

print("\nSinks are all singletons:", [
    (sorted(s), len(s) == 1) for s in sinks(game)
])
print("non-singleton sink exists:", has_non_singleton_sink(game))

print("\nApproximate equilibria use the exact rational inequality:")
ne = (1, 1)
for alpha in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000)):
    print(f"  alpha = {alpha}: is_alpha_ne({ne}) = {game.is_alpha_ne(ne, alpha)}")

print("\nA random 3-player instance, checked edge by edge:")
rng = random.Random(0)
big = CongestionGame(
    ["r0", "r1", "r2", "r3"],
    [[[0, 1], [2]], [[1, 2], [3]], [[0, 3], [1, 2]]],
    [{1: rng.randint(0, 4), 2: rng.randint(4, 8), 3: rng.randint(8, 12)}
     for _ in range(4)],
)
descents = 0
graph = StateGraph(big)
for profile in big.codec.all_profiles():
    phi = big.rosenthal_potential(profile)
    for player, strategy, _ in graph.improving_moves(profile):
        moved = profile[:player] + (strategy,) + profile[player + 1:]
        assert big.rosenthal_potential(moved) < phi
        descents += 1
print(f"  checked {descents} improvement edges, all strictly descending")
