"""Congestion games: unweighted, weighted, and player-specific delays."""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from ..errors import ConfigurationError, UnsupportedGameError
from ..profiles import Profile, ProfileCodec
from .base import SuccinctGame, exact_ints

SHARED = "shared"
PLAYER_SPECIFIC = "player_specific"


def _subset_sums(weights: Sequence[int]) -> set[int]:
    sums = {0}
    for w in weights:
        sums |= {s + w for s in sums}
    sums.discard(0)
    return sums


class CongestionGame(SuccinctGame):
    """Resource cost game; player cost sums per-resource delays at the load.

    ``strategies[i]`` lists player ``i``'s strategies, each a set of resource
    indices. In shared mode the delay argument is the weighted load
    ``l_e = sum of weights of users``; in player-specific mode it is the user
    count ``n_e`` and each (resource, player) pair has its own table.
    Missing table entries for any reachable load are a construction error.
    """

    def __init__(
        self,
        resources: Sequence[str],
        strategies: Sequence[Sequence[Sequence[int]]],
        delays,
        weights: Sequence[int] | None = None,
        mode: str = SHARED,
    ):
        self.resources = tuple(str(r) for r in resources)
        if len(set(self.resources)) != len(self.resources):
            raise ConfigurationError("duplicate resource names")
        if mode not in (SHARED, PLAYER_SPECIFIC):
            raise ConfigurationError(f"unknown delay mode {mode!r}")
        self.mode = mode
        n_res = len(self.resources)

        frozen = []
        for player, strat_list in enumerate(strategies):
            if not strat_list:
                raise ConfigurationError(f"player {player} has no strategies")
            per_player = []
            for s_idx, strat in enumerate(strat_list):
                fs = frozenset(exact_ints(
                    strat, lambda k: f"player {player} strategy {s_idx}: resource index"))
                for e in fs:
                    if not 0 <= e < n_res:
                        raise ConfigurationError(
                            f"player {player} strategy {s_idx} references "
                            f"undeclared resource {e}"
                        )
                per_player.append(fs)
            frozen.append(tuple(per_player))
        self.strategies = tuple(frozen)
        self.strategy_counts = tuple(len(s) for s in self.strategies)
        self.codec = ProfileCodec(self.strategy_counts)

        n = len(self.strategies)
        if weights is None:
            weights = [1] * n
        self.weights = exact_ints(weights, lambda i: f"player {i}: weight")
        if len(self.weights) != n or any(w <= 0 for w in self.weights):
            raise ConfigurationError("weights must be positive, one per player")
        if mode == PLAYER_SPECIFIC and any(w != 1 for w in self.weights):
            raise ConfigurationError("player-specific games use unit weights")

        self.delays = self._freeze_delays(delays, n, n_res)
        # a strategy's cost reads exactly the loads it adds to
        self._footprint = (self.strategies, self.strategies)
        self._check_delay_coverage()
        # _tables[i][e]: the delay table player i reads for resource e
        if mode == SHARED:
            self._tables = (self.delays,) * n
        else:
            self._tables = tuple(
                {e: self.delays[e][i] for e in frozenset().union(*strats)}
                for i, strats in enumerate(self.strategies)
            )

    def _freeze_delays(self, delays, n_players, n_res):
        if len(delays) != n_res:
            raise ConfigurationError(
                f"{len(delays)} delay tables for {n_res} resources"
            )
        frozen = []
        once: dict[int, dict[int, int]] = {}  # id of a table given -> the table frozen

        def freeze(table, label):
            # the same table object, given for many resources, is frozen once
            out = once.get(id(table))
            if out is None:
                out = once[id(table)] = self._freeze_table(table, label())
            return out

        if self.mode == SHARED:
            for e, table in enumerate(delays):
                frozen.append(freeze(table, lambda: f"resource {self.resources[e]}"))
        else:
            for e, per_player in enumerate(delays):
                if len(per_player) != n_players:
                    raise ConfigurationError(
                        f"resource {self.resources[e]}: expected one table per player"
                    )
                frozen.append(tuple(
                    freeze(t, lambda: f"resource {self.resources[e]} player {i}")
                    for i, t in enumerate(per_player)
                ))
        return tuple(frozen)

    @staticmethod
    def _freeze_table(table: Mapping, label: str) -> dict[int, int]:
        loads = exact_ints(table, lambda k: f"{label}: a load")
        for load in loads:
            if load <= 0:
                raise ConfigurationError(f"{label}: load {load} not positive")
        delays = exact_ints(table.values(), lambda k: f"{label}: the delay at load {loads[k]}")
        return dict(zip(loads, delays))

    def potential_users(self) -> list[list[int]]:
        """Per resource, the players with some strategy using it, ascending."""
        readers = self._entry_readers()
        return [list(readers.get(e, ())) for e in range(len(self.resources))]

    def _check_delay_coverage(self):
        sums: dict[tuple[int, ...], set[int]] = {}  # sorted weights -> their subset sums
        readers = self._entry_readers()
        for e in range(len(self.resources)):
            potential = readers.get(e, ())
            if self.mode == SHARED:
                weights = tuple(sorted(map(self.weights.__getitem__, potential)))
                reachable = sums.get(weights)
                if reachable is None:
                    reachable = sums[weights] = _subset_sums(weights)
                missing = reachable.difference(self.delays[e])
                if missing:
                    raise ConfigurationError(
                        f"resource {self.resources[e]}: no delay for reachable "
                        f"load(s) {sorted(missing)}"
                    )
            else:
                reachable = set(range(1, len(potential) + 1))
                for i in potential:
                    missing = reachable - set(self.delays[e][i])
                    if missing:
                        raise ConfigurationError(
                            f"resource {self.resources[e]}: player {i} has no "
                            f"delay for reachable count(s) {sorted(missing)}"
                        )

    def loads(self, profile: Profile) -> list[int]:
        """Weighted load per resource: the user count under unit weights."""
        loads = [0] * len(self.resources)
        for w, strats, choice in zip(self.weights, self.strategies, profile):
            for e in strats[choice]:
                loads[e] += w
        return loads

    _aggregate = loads

    def cost(self, profile: Profile, player: int) -> int:
        loads = self._profile_aggregate(profile)
        table = self._tables[player]
        return sum(table[e][loads[e]] for e in self.strategies[player][profile[player]])

    def utility(self, profile: Profile, player: int) -> int:
        return -self.cost(profile, player)

    def deviation_utilities(self, profile: Profile, player: int, strategies=None):
        """Negated cost of every strategy of ``player`` (or of each of
        ``strategies``), the others held fixed, read off the one load vector
        shared by every player."""
        loads = self._profile_aggregate(profile)
        current = self.strategies[player][profile[player]]
        add = self.weights[player]
        table = self._tables[player]
        strats = self.strategies[player]
        out = []
        for strat in strats if strategies is None else map(strats.__getitem__, strategies):
            total = 0
            for e in strat:
                total -= table[e][loads[e] if e in current else loads[e] + add]
            out.append(total)
        return out

    @property
    def unweighted_shared(self) -> bool:
        return self.mode == SHARED and all(w == 1 for w in self.weights)

    def require_unweighted_shared(self, operation: str):
        if not self.unweighted_shared:
            raise UnsupportedGameError(
                f"{operation} is defined only for unweighted shared-delay games"
            )

    def rosenthal_potential(self, profile: Profile) -> int:
        """Sum over resources of the delay prefix up to the profile's congestion.

        Along any improvement edge the potential drops by exactly the mover's
        cost decrease, so improvement dynamics cannot cycle.
        """
        self.require_unweighted_shared("rosenthal_potential")
        total = 0
        for e, load in enumerate(self.loads(profile)):
            for j in range(1, load + 1):
                total += self.delays[e][j]
        return total

    def is_alpha_ne(self, profile: Profile, alpha) -> bool:
        """Every deviation's cost stays at least (1 - alpha) of the current cost."""
        alpha = Fraction(alpha)
        if not 0 < alpha < 1:
            raise ValueError("alpha must lie strictly between 0 and 1")
        threshold = 1 - alpha
        for player in range(self.num_players):
            costs = [-u for u in self.deviation_utilities(profile, player)]
            here = profile[player]
            # the current strategy is no deviation, even where its cost is negative
            bound = threshold * costs[here]
            if any(c < bound for s, c in enumerate(costs) if s != here):
                return False
        return True
