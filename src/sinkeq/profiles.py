"""Strategy profiles and the dense profile <-> integer codec.

A profile is a plain tuple of strategy indices, one per player. Tuples are
hashable and compare by value, so they double as set keys and graph vertices.
The codec is mixed-radix, little-endian: player 0 is the fastest-varying
digit.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

Profile = tuple[int, ...]


def validate_profile(strategy_counts: Sequence[int], profile: Sequence[int]) -> Profile:
    """Check a profile against per-player strategy counts, returning it as a tuple."""
    prof = tuple(profile)
    if len(prof) != len(strategy_counts):
        raise ValueError(
            f"profile has {len(prof)} entries, game has {len(strategy_counts)} players"
        )
    for player, (choice, count) in enumerate(zip(prof, strategy_counts)):
        if type(choice) is not int:
            raise ValueError(f"player {player}: strategy index {choice!r} is not an integer")
        if not 0 <= choice < count:
            raise ValueError(
                f"player {player}: strategy index {choice} out of range [0, {count})"
            )
    return prof


class ProfileCodec:
    """Bijection between profiles and integers in [0, num_profiles)."""

    def __init__(self, strategy_counts: Sequence[int]):
        counts = tuple(strategy_counts)
        for player, c in enumerate(counts):
            if type(c) is not int or c <= 0:
                raise ValueError(f"player {player}: strategy count {c!r} is not a positive int")
        self.strategy_counts = counts
        size = 1
        weights = []
        for c in counts:
            weights.append(size)
            size *= c
        self.place_weights = tuple(weights)
        self.num_profiles = size

    def encode(self, profile: Sequence[int]) -> int:
        index = 0
        weight = 1
        for choice, count in zip(profile, self.strategy_counts):
            index += choice * weight
            weight *= count
        return index

    def decode(self, index: int) -> Profile:
        if not 0 <= index < self.num_profiles:
            raise ValueError(f"profile index {index} out of range")
        out = []
        for count in self.strategy_counts:
            out.append(index % count)
            index //= count
        return tuple(out)

    def all_profiles(self) -> list[Profile]:
        """Every profile in code order: entry i is ``decode(i)``."""
        # product varies its last range fastest, so player 0 comes last
        ranges = [range(c) for c in reversed(self.strategy_counts)]
        return [p[::-1] for p in product(*ranges)]
