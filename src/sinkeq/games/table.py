"""Explicit normal-form games backed by full payoff tables."""

from __future__ import annotations

import random
from typing import Sequence

from ..errors import ConfigurationError
from ..profiles import Profile, ProfileCodec
from .base import SuccinctGame, exact_ints


class TableGame(SuccinctGame):
    """A game given by one flat utility table per player.

    Tables are indexed by the mixed-radix profile codec, so entry ``k`` of
    player ``i``'s table is that player's payoff at ``codec.decode(k)``.
    """

    def __init__(self, strategy_counts: Sequence[int], tables: Sequence[Sequence[int]]):
        self.strategy_counts = exact_ints(strategy_counts, lambda p: f"player {p}: strategy count")
        for player, count in enumerate(self.strategy_counts):
            if count < 1:
                raise ConfigurationError(f"player {player} has no strategies")
        self.codec = ProfileCodec(self.strategy_counts)
        if len(tables) != len(self.strategy_counts):
            raise ConfigurationError(
                f"{len(tables)} tables for {len(self.strategy_counts)} players"
            )
        frozen = []
        for player, table in enumerate(tables):
            t = exact_ints(table, lambda k: f"player {player}: table entry {k}")
            if len(t) != self.codec.num_profiles:
                raise ConfigurationError(
                    f"player {player}: table has {len(t)} entries, "
                    f"profile space has {self.codec.num_profiles}"
                )
            frozen.append(t)
        self.tables = tuple(frozen)
        self._strides = tuple(zip(self.tables, self.codec.place_weights, self.strategy_counts))

    def _aggregate(self, profile: Profile) -> int:
        return self.codec.encode(profile)  # a profile's aggregate is its code

    def utility(self, profile: Profile, player: int) -> int:
        return self.tables[player][self._profile_aggregate(profile)]

    def _row(self, code: int, player: int) -> tuple[int, ...]:
        """``player``'s deviation utilities at the profile numbered ``code``:
        one strided slice of the player's table."""
        table, weight, count = self._strides[player]
        base = code - code // weight % count * weight
        return table[base:base + count * weight:weight]

    def deviation_utilities(self, profile: Profile, player: int):
        return self._row(self._profile_aggregate(profile), player)

    def code_reader(self):
        # a code is its own key: rows are read without decoding
        return int, self._row

    def code_layers(self, player: int):
        # layer s is the table's entries whose digit `player` is s: no row is read
        table, layer = self.tables[player], self.codec.layer
        return [layer(table, player, s) for s in range(self.strategy_counts[player])]

    @classmethod
    def from_profile_map(cls, strategy_counts, payoffs) -> "TableGame":
        """Build from a {profile_tuple: payoff_vector} mapping."""
        codec = ProfileCodec(strategy_counts)
        n = len(strategy_counts)
        tables = [[0] * codec.num_profiles for _ in range(n)]
        for profile, vector in payoffs.items():
            k = codec.encode(profile)
            for i in range(n):
                tables[i][k] = vector[i]
        return cls(strategy_counts, tables)

    @classmethod
    def random(cls, rng: random.Random, max_players=3, max_strategies=4,
               max_profiles=64, payoff_range=(0, 9)) -> "TableGame":
        """A seeded random game with the profile space capped at ``max_profiles``."""
        while True:
            n = rng.randint(2, max_players)
            counts = [rng.randint(2, max_strategies) for _ in range(n)]
            size = 1
            for c in counts:
                size *= c
            if size <= max_profiles:
                break
        lo, hi = payoff_range
        tables = [[rng.randint(lo, hi) for _ in range(size)] for _ in range(n)]
        return cls(counts, tables)


def prisoners_dilemma() -> TableGame:
    """Two strategies per player: 0 = cooperate, 1 = defect; defect dominates."""
    return TableGame.from_profile_map(
        (2, 2),
        {
            (0, 0): (2, 2),
            (0, 1): (0, 3),
            (1, 0): (3, 0),
            (1, 1): (1, 1),
        },
    )


def matching_pennies() -> TableGame:
    """A 2x2 game whose improvement graph is a single 4-cycle."""
    return TableGame.from_profile_map(
        (2, 2),
        {
            (0, 0): (1, 0),
            (0, 1): (0, 1),
            (1, 0): (0, 1),
            (1, 1): (1, 0),
        },
    )
