"""Many-to-one two-sided market games with uniform market values.

Active agents demand sets of passive agents; each demanded passive agent is
won by the demander it prefers most, and an active agent's utility is the
summed value of the passive agents it wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Sequence

from ..errors import ConfigurationError
from ..profiles import Profile, ProfileCodec
from .base import SuccinctGame, exact_ints


@dataclass(frozen=True)
class PassiveAgent:
    name: str
    value: int
    preference: tuple[int, ...]  # active-agent indices, most preferred first


@dataclass(frozen=True)
class ActiveAgent:
    name: str
    strategies: tuple[frozenset[int], ...]  # each a set of passive indices


class TwoSidedMarketGame(SuccinctGame):
    """Preference orders must strictly rank every potential demander."""

    def __init__(self, passive: Sequence[PassiveAgent], active: Sequence[ActiveAgent]):
        self.passive, self.active = tuple(passive), tuple(active)
        # one pass over every number; the agents are walked only to name a non-int
        if not set(map(type, chain(
                map(attrgetter("value"), self.passive),
                chain.from_iterable(map(attrgetter("preference"), self.passive)),
                chain.from_iterable(chain.from_iterable(map(attrgetter("strategies"),
                                                            self.active)))))) <= {int}:
            for p in self.passive:
                exact_ints((p.value,), lambda _: f"passive agent {p.name}: value")
                exact_ints(p.preference, lambda k: f"passive agent {p.name}: preference entry {k}")
            for a in self.active:
                exact_ints(chain.from_iterable(a.strategies),
                           lambda k: f"agent {a.name}: passive index")
        # a strategy's value reads exactly the passive agents it demands
        strategies = tuple(map(attrgetter("strategies"), self.active))
        self._footprint = (strategies, strategies)
        # a range test over the passive agents some strategy demands; the
        # agents are walked only to name the first fault
        demanders = self._entry_readers()
        if not (all(strategies) and min(demanders, default=0) >= 0
                and max(demanders, default=-1) < len(self.passive)):
            for agent in self.active:
                if not agent.strategies:
                    raise ConfigurationError(f"agent {agent.name}: no strategies")
                for s_idx, strat in enumerate(agent.strategies):
                    for y in strat:
                        if not 0 <= y < len(self.passive):
                            raise ConfigurationError(
                                f"agent {agent.name} strategy {s_idx}: passive index "
                                f"{y} out of range"
                            )
        for y, p in enumerate(self.passive):
            if p.value <= 0:
                raise ConfigurationError(f"passive agent {p.name}: value not positive")
            ranked = set(p.preference)
            if len(ranked) != len(p.preference):
                raise ConfigurationError(f"passive agent {p.name}: preference repeats")
            if not ranked.issuperset(demanders.get(y, ())):
                missing = sorted(set(demanders[y]) - ranked)
                raise ConfigurationError(
                    f"passive agent {p.name}: preference omits demander(s) {missing}"
                )
        # rank[y][x]: lower is better; absent demanders never win
        self._rank = tuple(
            {x: r for r, x in enumerate(p.preference)} for p in self.passive
        )
        self.strategy_counts = tuple(map(len, strategies))
        self.codec = ProfileCodec(self.strategy_counts)

    def _aggregate(self, profile: Profile):
        """The top two demanders of each passive agent, None where absent."""
        first: list[int | None] = [None] * len(self.passive)
        second: list[int | None] = [None] * len(self.passive)
        for x, choice in enumerate(profile):
            for y in self.active[x].strategies[choice]:
                rank = self._rank[y]
                top = first[y]
                if top is None or rank[x] < rank[top]:
                    first[y], second[y] = x, top
                elif second[y] is None or rank[x] < rank[second[y]]:
                    second[y] = x
        return first, second

    def compute_winners(self, profile: Profile) -> list[int | None]:
        """The winning active agent per passive agent, or None if undemanded."""
        return list(self._profile_aggregate(profile)[0])

    def utility(self, profile: Profile, player: int) -> int:
        winners = self._profile_aggregate(profile)[0]
        return sum(
            self.passive[y].value
            for y in self.active[player].strategies[profile[player]]
            if winners[y] == player
        )

    def deviation_utilities(self, profile: Profile, player: int):
        # The incumbent against ``player`` on each passive agent is the best
        # other demander: the top one, or the runner-up where ``player`` is top.
        first, second = self._profile_aggregate(profile)
        out = []
        for strat in self.active[player].strategies:
            total = 0
            for y in strat:
                incumbent = second[y] if first[y] == player else first[y]
                rank = self._rank[y]
                if incumbent is None or rank[player] < rank[incumbent]:
                    total += self.passive[y].value
            out.append(total)
        return out

