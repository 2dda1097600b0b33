"""Congestion games: unweighted, weighted, and player-specific delays."""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, islice, repeat
from operator import gt, ne
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
        self.resources = tuple(map(str, resources))
        if len(set(self.resources)) != len(self.resources):
            raise ConfigurationError("duplicate resource names")
        if mode not in (SHARED, PLAYER_SPECIFIC):
            raise ConfigurationError(f"unknown delay mode {mode!r}")
        self.mode = mode
        n_res = len(self.resources)

        # one pass over every resource index, and a range test over the
        # resources some strategy uses; the players are walked only to name
        # the first faulty strategy
        indices = chain.from_iterable(chain.from_iterable(strategies))
        if not (all(strategies) and set(map(type, indices)) <= {int}):
            self._name_bad_strategy(strategies, n_res)
        self.strategies = tuple(tuple(map(frozenset, per)) for per in strategies)
        # a strategy's cost reads exactly the loads it adds to
        self._footprint = (self.strategies, self.strategies)
        used = self._entry_readers()
        if not (min(used, default=0) >= 0 and max(used, default=-1) < n_res):
            self._name_bad_strategy(strategies, n_res)
        self.strategy_counts = tuple(map(len, self.strategies))
        self.codec = ProfileCodec(self.strategy_counts)

        n = len(self.strategies)
        if weights is None:
            weights = [1] * n
        self.weights = exact_ints(weights, lambda i: f"player {i}: weight")
        if len(self.weights) != n or any(w <= 0 for w in self.weights):
            raise ConfigurationError("weights must be positive, one per player")
        if mode == PLAYER_SPECIFIC and any(w != 1 for w in self.weights):
            raise ConfigurationError("player-specific games use unit weights")

        self.delays, runs = self._freeze_delays(delays, n, n_res)
        self._check_delay_coverage(runs)
        # _tables[i][e]: the delay table player i reads for resource e
        if mode == SHARED:
            self._tables = (self.delays,) * n
        else:
            self._tables = tuple(
                {e: self.delays[e][i] for e in frozenset().union(*strats)}
                for i, strats in enumerate(self.strategies)
            )

    @staticmethod
    def _name_bad_strategy(strategies, n_res):
        """Raise the error of the first faulty strategy, player by player."""
        for player, strat_list in enumerate(strategies):
            if not strat_list:
                raise ConfigurationError(f"player {player} has no strategies")
            for s_idx, strat in enumerate(strat_list):
                for e in frozenset(exact_ints(
                        strat, lambda k: f"player {player} strategy {s_idx}: resource index")):
                    if not 0 <= e < n_res:
                        raise ConfigurationError(
                            f"player {player} strategy {s_idx} references "
                            f"undeclared resource {e}"
                        )

    def _freeze_delays(self, delays, n_players, n_res):
        """The tables frozen, and for each table given (resource by
        resource; player-specific, then player by player) the largest K
        such that it holds every load 1..K. Each table object, however many
        resources it is given for, is checked, copied and measured once; the
        resources are walked only to name a fault."""
        if len(delays) != n_res:
            raise ConfigurationError(
                f"{len(delays)} delay tables for {n_res} resources"
            )
        shared = self.mode == SHARED
        if not (shared or set(map(len, delays)) <= {n_players}):
            self._name_bad_table(delays, n_players)
        given = delays if shared else list(chain.from_iterable(delays))
        ids = list(map(id, given))
        distinct = dict(zip(ids, given))
        loads = list(chain.from_iterable(distinct.values()))
        if not (set(map(type, loads)) <= {int} and min(loads, default=1) > 0
                and set(map(type, chain.from_iterable(
                    t.values() for t in distinct.values()))) <= {int}):
            self._name_bad_table(delays, n_players)
        frozen, runs = {}, {}
        for key, table in distinct.items():
            frozen[key] = dict(table)
            k = 0
            while k + 1 in table:
                k += 1
            runs[key] = k
        tables = map(frozen.__getitem__, ids)
        if not shared:
            tables = [tuple(islice(tables, n_players)) for _ in delays]
        return tuple(tables), list(map(runs.__getitem__, ids))

    def _name_bad_table(self, delays, n_players):
        """Raise the error of the first faulty table, resource by resource."""
        for e, given in enumerate(delays):
            name = self.resources[e]
            if self.mode == SHARED:
                self._check_table(given, f"resource {name}")
                continue
            if len(given) != n_players:
                raise ConfigurationError(f"resource {name}: expected one table per player")
            for i, table in enumerate(given):
                self._check_table(table, f"resource {name} player {i}")

    @staticmethod
    def _check_table(table: Mapping, label: str):
        loads = exact_ints(table, lambda k: f"{label}: a load")
        for load in loads:
            if load <= 0:
                raise ConfigurationError(f"{label}: load {load} not positive")
        exact_ints(table.values(), lambda k: f"{label}: the delay at load {loads[k]}")

    def potential_users(self) -> list[list[int]]:
        """Per resource, the players with some strategy using it, ascending."""
        readers = self._entry_readers()
        return [list(readers.get(e, ())) for e in range(len(self.resources))]

    def _check_delay_coverage(self, runs: list[int]):
        """Every load (or, player-specific, user count) a resource can reach
        has a delay. A table whose run of loads 1..K (``runs``, from
        ``_freeze_delays``) reaches its users' total weight (or count)
        covers them all; only the other resources need their subset sums."""
        readers = self._entry_readers()
        if self.mode == SHARED:
            # the users' total weight: their count, plus w - 1 for each heavier one
            need = dict(zip(readers, map(len, readers.values())))
            for p in compress(range(len(self.weights)), map(ne, self.weights, repeat(1))):
                for e in frozenset().union(*self.strategies[p]):
                    need[e] += self.weights[p] - 1
            short = compress(need, map(gt, need.values(), map(runs.__getitem__, need)))
        else:
            n = len(self.strategies)
            short = [e for e, users in readers.items()
                     if any(runs[e * n + i] < len(users) for i in users)]
        sums: dict[tuple[int, ...], set[int]] = {}  # sorted weights -> their subset sums
        for e in sorted(short):
            potential = readers[e]
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

    def deviation_utilities(self, profile: Profile, player: int):
        """Negated cost of every strategy of ``player``, the others held
        fixed, read off the one load vector shared by every player."""
        loads = self._profile_aggregate(profile)
        current = self.strategies[player][profile[player]]
        add = self.weights[player]
        table = self._tables[player]
        out = []
        for strat in self.strategies[player]:
            total = 0
            for e in strat:
                total -= table[e][loads[e] if e in current else loads[e] + add]
            out.append(total)
        return out

    def reprice_rows(self, profile: Profile, rows: list, mover: int, old: int) -> list[int]:
        """Step ``rows`` by the loads the move changed, with no load vector.

        The move changes the load of each resource in exactly one of the
        mover's two strategies, by the mover's weight. Each such resource's
        load at ``profile`` is summed over its potential users; at the
        generator it is that load less the mover's weight where the mover
        arrived, more where it left. Each strategy of a player of
        ``affected_players`` that uses such resources then gains, over
        them, the delay at the generator's load less the delay at
        ``profile``'s, both with the player's own weight added where the
        resource is not in its current strategy, as ``deviation_utilities``
        prices them.
        """
        strategies, weights = self.strategies, self.weights
        new = profile[mover]
        arrived = strategies[mover][new]
        moved = arrived ^ strategies[mover][old]
        readers = self._entry_readers()
        step = weights[mover]
        loads = {}  # each changed resource: (load at profile, load at the generator)
        for e in moved:
            load = 0
            for u in readers[e]:
                if e in strategies[u][profile[u]]:
                    load += weights[u]
            loads[e] = (load, load - step if e in arrived else load + step)
        changed = []
        for player in self.affected_players(mover, old, new):
            strats, table = strategies[player], self._tables[player]
            current, add = strats[profile[player]], weights[player]
            stepped = None
            for s, strat in enumerate(strats):
                if moved.isdisjoint(strat):
                    continue
                gain = 0
                for e in strat & moved:
                    here, there = loads[e]
                    if e not in current:
                        here += add
                        there += add
                    gain += table[e][there] - table[e][here]
                if gain:
                    if stepped is None:
                        stepped = rows[player] = list(rows[player])
                        changed.append(player)
                    stepped[s] += gain
        return changed

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
