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

    def line_slices(self, player: int, s: int) -> list[tuple[slice, slice]]:
        """Where ``player``'s strategy ``s`` sits in code order, as ``(codes,
        lines)`` slice pairs: ``values[codes]``, for a code-ordered
        ``values``, are the entries whose digit ``player`` is ``s`` on the
        lines ``lines`` picks out of ``range(num_profiles // k)``.

        For place weight w and k strategies, line q·w + r holds code q·w·k
        + s·w + r. That is w strided slices, or one block of w codes per
        line group, whichever is fewer: strided when w·w ≤ N/k.
        """
        weight, count = self.place_weights[player], self.strategy_counts[player]
        period, lines, offset = weight * count, self.num_profiles // count, s * weight
        if weight * weight <= lines:
            return [(slice(offset + r, None, period), slice(r, None, weight))
                    for r in range(weight)]
        return [(slice(at, at + weight), slice(line, line + weight))
                for line, at in zip(range(0, lines, weight),
                                    range(offset, self.num_profiles, period))]

    def layer(self, values: Sequence, player: int, s: int) -> list:
        """The entries of the code-ordered ``values`` whose digit ``player``
        is ``s``, in code order: one per line of ``player``."""
        out = [None] * (self.num_profiles // self.strategy_counts[player])
        for codes, lines in self.line_slices(player, s):
            out[lines] = values[codes]
        return out

    def all_profiles(self) -> list[Profile]:
        """Every profile in code order: entry i is ``decode(i)``."""
        # product varies its last range fastest, so player 0 comes last
        ranges = [range(c) for c in reversed(self.strategy_counts)]
        return [p[::-1] for p in product(*ranges)]
