"""Common evaluation interface over the concrete game classes."""

from __future__ import annotations

from itertools import starmap
from typing import Callable, Collection, Iterable, Sequence

from ..errors import ConfigurationError
from ..profiles import Profile, ProfileCodec, validate_profile

def exact_ints(values: Iterable, name: Callable[[int], str]) -> tuple[int, ...]:
    """``values`` as a tuple, each an ``int`` itself. Any other value, such
    as 1.5, 2.0 or True, raises ``ConfigurationError`` naming ``name(k)``,
    k its position."""
    values = tuple(values)
    if not set(map(type, values)) <= {int}:
        k, value = next((k, v) for k, v in enumerate(values) if type(v) is not int)
        raise ConfigurationError(f"{name(k)} is {value!r}, not an integer")
    return values


def _players_by_entry(per_player) -> dict[int, list[int]]:
    """Each entry of some ``per_player[p][s]``, to the players p that name
    it, ascending."""
    players: dict[int, list[int]] = {}
    for p, entries in enumerate(starmap(frozenset().union, per_player)):
        for x in entries:
            if x in players:
                players[x].append(p)
            else:
                players[x] = [p]
    return players


class SuccinctGame:
    """A finite strategic game evaluated through exact integer utilities.

    Subclasses set ``strategy_counts`` and ``codec`` and implement
    ``utility``. Games are observably immutable after construction: every
    evaluation is a pure function of (game, player, profile). A class may
    keep the aggregate of the last profile it evaluated (loads, histogram,
    winners) in a one-entry ``(profile, aggregate)`` slot, matched by
    equality and replaced as one tuple, so that the deviations of every
    player of one profile share it; it is built from that profile alone.

    A player's ``deviation_utilities`` row never depends on that player's
    own strategy, so a move leaves the mover's row as it was.

    A class has three evaluation hooks: ``deviation_utilities``, a
    player's whole row at a profile; ``reprice_rows``, which steps the rows
    of a move's generator to the profile the move leads to; and
    ``code_utilities``, a player's utility at every profile code, in code
    order. The default ``reprice_rows`` re-evaluates the whole row of each
    player the move can affect through ``deviation_utilities``, and the
    default ``code_utilities`` reads one row per line through
    ``code_reader``; a class that can do better overrides them.

    A class states its locality once, as its footprint ``(touches,
    reads)``: ``touches[p][s]`` is the frozenset of aggregate entries
    (resource loads, passive agents, strategy counts) that player p adds to
    on strategy s, and ``reads[p][s]`` the frozenset of entries that the
    value of p's strategy s reads. Everything else derives from it:
    ``_entry_readers`` (each entry to the players whose rows read it), and
    from that the locality sets: ``affected_players`` for re-pricing,
    ``interacting_players`` for the has-pure search.
    The default, None, means that every row reads the whole profile.
    """

    strategy_counts: tuple[int, ...]
    codec: ProfileCodec
    _slot: tuple | None = None  # (profile, aggregate) of the last profile evaluated
    _footprint: tuple | None = None  # (touches, reads); None: rows read everything
    _readers: dict | None = None  # see _entry_readers

    @property
    def num_players(self) -> int:
        return len(self.strategy_counts)

    def utility(self, profile: Profile, player: int) -> int:
        raise NotImplementedError

    def deviation_utilities(self, profile: Profile, player: int) -> Sequence[int]:
        """Utility of each strategy of ``player``, the others held fixed.

        The full-row evaluation hook of the dynamics engine; this default
        moves the player pointwise, and classes with a per-profile aggregate
        override it.
        """
        before, after = profile[:player], profile[player + 1:]
        return [self.utility(before + (s,) + after, player)
                for s in range(self.strategy_counts[player])]

    def _entry_readers(self) -> dict[int, list[int]]:
        """Each entry some row reads, to the players whose rows read it,
        ascending; derived on first use. (A plain attribute, not a cached
        property: reading ``__dict__`` would slow every attribute load of
        the game.)"""
        if self._readers is None:
            self._readers = _players_by_entry(self._footprint[1])
        return self._readers

    def interacting_players(self) -> list[Collection[int]]:
        """For each player, the players whose strategies can change that
        player's deviation utilities, the player itself included: the
        writers of every entry it reads."""
        if self._footprint is None:
            everyone = range(self.num_players)
            return [everyone] * self.num_players
        touches, reads = self._footprint
        readers = self._entry_readers()
        writers = readers if touches is reads else _players_by_entry(touches)
        near = [{i} for i in range(self.num_players)]
        for x, rows in readers.items():
            for i in rows:
                near[i].update(writers.get(x, ()))
        return near

    def affected_players(self, player: int, old: int, new: int) -> Collection[int]:
        """The other players whose rows ``player``'s move from ``old`` to
        ``new`` can change: the readers of the entries in exactly one of
        its two strategies, or every other player in a game without a
        footprint. The mover is never listed: the move leaves its row as
        it was."""
        if self._footprint is None:
            return [p for p in range(self.num_players) if p != player]
        touches = self._footprint[0][player]
        readers = self._entry_readers()
        affected = set().union(*(readers.get(x, ()) for x in touches[old] ^ touches[new]))
        affected.discard(player)
        return affected

    def reprice_rows(self, profile: Profile, rows: list, mover: int, old: int) -> list[int]:
        """Step ``rows``, every player's row at the profile ``mover`` left
        from strategy ``old``, to ``profile``, and return the players whose
        rows changed. A changed row is replaced by a new one, so the rows it
        was copied from stay as they were; the mover's row is never touched.

        Each player of ``affected_players`` is evaluated afresh, whole, on
        ``profile``'s own aggregate; its row is kept when it equals the old
        one."""
        changed = []
        for player in self.affected_players(mover, old, profile[mover]):
            fresh = self.deviation_utilities(profile, player)
            if fresh != rows[player]:
                rows[player] = fresh
                changed.append(player)
        return changed

    def code_reader(self) -> tuple[Callable, Callable]:
        """How a walk over profile codes reads deviation utilities: ``(key,
        read)``, where ``read(key(code), player)`` is ``player``'s row at the
        profile numbered ``code``. Here ``key`` decodes, once per state, and
        ``read`` is ``deviation_utilities``."""
        return self.codec.decode, self.deviation_utilities

    def code_utilities(self, player: int) -> Sequence[int]:
        """``player``'s utility at every profile code, in code order: the
        full-space hook of the dynamics engine. This default reads the row
        once per line (the profiles that differ only in ``player``'s
        strategy), at its base, digit ``player`` 0, bases ascending, through
        ``code_reader``, and writes it with one strided slice assignment."""
        key, read = self.code_reader()
        weight, size = self.codec.place_weights[player], self.codec.num_profiles
        period = weight * self.strategy_counts[player]
        values = [0] * size
        for top in range(0, size, period):
            for base in range(top, top + weight):
                values[base:base + period:weight] = read(key(base), player)
        return values

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
