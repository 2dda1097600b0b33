"""Common evaluation interface over the concrete game classes."""

from __future__ import annotations

from typing import Callable, Collection, Sequence

from ..profiles import Profile, ProfileCodec, validate_profile


class SuccinctGame:
    """A finite strategic game evaluated through exact integer utilities.

    Subclasses set ``strategy_counts`` and ``codec`` and implement
    ``utility``. Games are observably immutable after construction: every
    evaluation is a pure function of (game, player, profile). A class may
    keep the aggregate of the last profile it evaluated (loads, histogram,
    winners) in a one-entry ``(profile, aggregate)`` slot, matched by
    equality and replaced as one tuple, so that the deviations of every
    player of one profile share it.

    A class states its locality once, as its footprint ``(touches,
    readers)``: ``touches[p][s]`` is the frozenset of aggregate entries
    (resource loads, passive agents, strategy counts) that player p adds to
    on strategy s, and ``readers[x]`` the players whose rows read entry x.
    Both locality sets derive from it: ``affected_players`` for the closure
    delta and ``interacting_players`` for the has-pure search. The default,
    None, means that every row reads the whole profile.
    """

    strategy_counts: tuple[int, ...]
    codec: ProfileCodec
    _slot: tuple | None = None  # (profile, aggregate) of the last profile evaluated
    _footprint: tuple | None = None  # (touches, readers); None: rows read everything

    @property
    def num_players(self) -> int:
        return len(self.strategy_counts)

    def utility(self, profile: Profile, player: int) -> int:
        raise NotImplementedError

    def deviation_utilities(self, profile: Profile, player: int) -> Sequence[int]:
        """Utility of each strategy of ``player``, the others held fixed.

        The one evaluation hook of the dynamics engine; this default moves
        the player pointwise, and classes with a per-profile aggregate
        override it.
        """
        before, after = profile[:player], profile[player + 1:]
        return [
            self.utility(before + (s,) + after, player)
            for s in range(self.strategy_counts[player])
        ]

    def interacting_players(self) -> list[Collection[int]]:
        """For each player, the players whose strategies can change that
        player's deviation utilities, the player itself included: the
        writers of every entry it reads."""
        if self._footprint is None:
            everyone = range(self.num_players)
            return [everyone] * self.num_players
        touches, readers = self._footprint
        writers: list[set[int]] = [set() for _ in readers]
        for p, strats in enumerate(touches):
            for x in frozenset().union(*strats):
                writers[x].add(p)
        near = [{i} for i in range(self.num_players)]
        for x, rows in enumerate(readers):
            for i in rows:
                near[i] |= writers[x]
        return near

    def affected_players(self, player: int, old: int, new: int) -> Collection[int]:
        """The players whose ``deviation_utilities`` row can change when
        ``player`` moves from strategy ``old`` to ``new``, the mover
        included: the readers of the entries in exactly one of its two
        strategies, the only ones the move changes."""
        if self._footprint is None:
            return range(self.num_players)
        touches, readers = self._footprint
        strats = touches[player]
        return {player}.union(*(readers[x] for x in strats[old] ^ strats[new]))

    def code_reader(self) -> tuple[Callable, Callable]:
        """How a walk over profile codes reads deviation utilities: ``(key,
        read)``, where ``read(key(code), player)`` is ``player``'s row at the
        profile numbered ``code``. Here ``key`` decodes, once per state, and
        ``read`` is ``deviation_utilities``."""
        return self.codec.decode, self.deviation_utilities

    def _aggregate(self, profile: Profile):
        raise NotImplementedError

    def _profile_aggregate(self, profile: Profile):
        """``_aggregate(profile)`` through the one-entry slot; never mutate it."""
        slot = self._slot
        # identity first: tuple equality compares every entry, even of itself
        if slot is not None and (slot[0] is profile or slot[0] == profile):
            return slot[1]
        aggregate = self._aggregate(profile)
        self._slot = (tuple(profile), aggregate)
        return aggregate

    def validate_profile(self, profile: Sequence[int]) -> Profile:
        return validate_profile(self.strategy_counts, profile)
