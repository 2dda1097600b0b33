"""Many-to-one two-sided market games with uniform market values.

Active agents demand sets of passive agents; each demanded passive agent is
won by the demander it prefers most, and an active agent's utility is the
summed value of the passive agents it wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from operator import attrgetter
from typing import Sequence

from ..errors import ConfigurationError
from ..profiles import Profile, ProfileCodec
from .base import SuccinctGame, are_exact_ints, exact_ints


@dataclass(frozen=True)
class PassiveAgent:
    name: str
    value: int
    preference: tuple[int, ...]  # active-agent indices, most preferred first


@dataclass(frozen=True)
class ActiveAgent:
    name: str
    strategies: tuple[frozenset[int], ...]  # each a set of passive indices


def _exact_passive(agent: PassiveAgent) -> PassiveAgent:
    """``agent`` with an int value and preference, through ``exact_ints``."""
    whole = exact_ints((agent.value, *agent.preference), lambda k: (
        f"passive agent {agent.name}: " + (f"preference entry {k - 1}" if k else "value")))
    return PassiveAgent(agent.name, whole[0], whole[1:])


def _exact_active(agent: ActiveAgent) -> ActiveAgent:
    """``agent`` with int passive indices, through ``exact_ints``."""
    indices = iter(exact_ints(tuple(chain.from_iterable(agent.strategies)),
                              lambda k: f"agent {agent.name}: passive index"))
    return ActiveAgent(agent.name, tuple(frozenset(islice(indices, len(strat)))
                                         for strat in agent.strategies))


class TwoSidedMarketGame(SuccinctGame):
    """Preference orders must strictly rank every potential demander."""

    def __init__(self, passive: Sequence[PassiveAgent], active: Sequence[ActiveAgent]):
        self.passive, self.active = tuple(passive), tuple(active)
        # a parsed document holds ints: the agents are rebuilt only when a number is not one
        if not are_exact_ints(chain(
                map(attrgetter("value"), self.passive),
                chain.from_iterable(map(attrgetter("preference"), self.passive)),
                chain.from_iterable(chain.from_iterable(map(attrgetter("strategies"),
                                                            self.active))))):
            self.passive = tuple(map(_exact_passive, self.passive))
            self.active = tuple(map(_exact_active, self.active))
        n_passive = len(self.passive)
        for agent in self.active:
            if not agent.strategies:
                raise ConfigurationError(f"agent {agent.name}: no strategies")
            for s_idx, strat in enumerate(agent.strategies):
                for y in strat:
                    if not 0 <= y < n_passive:
                        raise ConfigurationError(
                            f"agent {agent.name} strategy {s_idx}: passive index "
                            f"{y} out of range"
                        )
        # a strategy's value reads exactly the passive agents it demands
        strategies = tuple(a.strategies for a in self.active)
        self._footprint = (strategies, strategies)
        demanders = self._entry_readers()
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
        self.strategy_counts = tuple(len(a.strategies) for a in self.active)
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

    def deviation_utilities(self, profile: Profile, player: int, strategies=None):
        # The incumbent against ``player`` on each passive agent is the best
        # other demander: the top one, or the runner-up where ``player`` is top.
        first, second = self._profile_aggregate(profile)
        strats = self.active[player].strategies
        out = []
        for strat in strats if strategies is None else map(strats.__getitem__, strategies):
            total = 0
            for y in strat:
                incumbent = second[y] if first[y] == player else first[y]
                rank = self._rank[y]
                if incumbent is None or rank[player] < rank[incumbent]:
                    total += self.passive[y].value
            out.append(total)
        return out

