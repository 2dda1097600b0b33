"""Implicit state graphs, sink equilibria, and dynamics simulation.

The state graph has one vertex per strategy profile and one labeled arc per
qualifying unilateral move. Moves must strictly increase the mover's utility;
under best-response semantics only moves to a maximum-utility strategy
qualify, which keeps every best-response edge an improvement edge.
"""

from __future__ import annotations

import random
import struct
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import chain, compress, count
from operator import itemgetter, or_
from typing import Callable, Iterable, Sequence

from .errors import CapExceededError
from .games.base import SuccinctGame
from .games.table import TableGame
from .profiles import Profile, ProfileCodec


class EdgeSemantics(Enum):
    IMPROVEMENT = "improvement"
    BEST_RESPONSE = "best-response"


class Moves(list):
    """A profile's moves, each ``(player, strategy, new utility)``, with the
    per-player rows they were found from."""
    __slots__ = ("rows",)


Origin = tuple[Moves, int, int]  # (generator's moves, mover, mover's old strategy)


def _improvements(current: int, devs: Sequence[int]) -> list:
    here = devs[current]
    return [s for s, u in enumerate(devs) if u > here]


def _best_responses(current: int, devs: Sequence[int]) -> list:
    best = max(devs)
    if best > devs[current]:
        return [s for s, u in enumerate(devs) if u == best]
    return []


def _field_ones(fields: int, step: int) -> int:
    """A 1 in the lowest bit of each of ``fields`` fields of ``step`` bytes."""
    return int.from_bytes((b"\1" + bytes(step - 1)) * fields, "little")


def _packed(values: Sequence[int]) -> tuple[int, int]:
    """``(packed, step)``: the values as one int with a field of ``step``
    bytes per value, value 0 lowest. Every value carries the same offset,
    which makes it nonnegative and keeps the top bit of its field clear.

    Values in 0..127 are bytes as they stand (``bytes`` refuses anything
    outside 0..255, ``isascii`` anything above 127). Others are packed by
    ``struct`` as signed fields of W = 16, 32 or 64 bits, the narrowest
    whose ±2^(W−2) holds the least and the greatest value. Flipping each
    field's sign bit and subtracting 2^(W−2) per field leaves v + 2^(W−2),
    whose top bit is clear. Wider values take the fewest whole bytes that
    hold their span below the top bit, one value at a time.
    """
    try:
        raw = bytes(values)
    except ValueError:  # a value outside 0..255
        raw = b"\x80"
    if raw.isascii():
        return int.from_bytes(raw, "little"), 1
    size, low, high = len(values), min(values), max(values)
    for code, step in (("h", 2), ("i", 4), ("q", 8)):
        if -1 << 8 * step - 2 <= low and high < 1 << 8 * step - 2:
            signs = _field_ones(size, step) << 8 * step - 1
            signed = int.from_bytes(struct.pack(f"<{size}{code}", *values), "little")
            return (signed ^ signs) - (signs >> 1), step
    step = (high - low).bit_length() // 8 + 1
    return int.from_bytes(b"".join((v - low).to_bytes(step, "little") for v in values),
                          "little"), step


_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


class _Fields:
    """A player's utilities packed by ``_packed``, a field per profile code,
    and the one comparison of two packed vectors: ``greater(x, y)`` sets
    the lowest bit of each field where x's value exceeds y's. With every
    field's top bit clear, adding a guard bit there and subtracting y + 1
    per field leaves the guard set exactly where x > y, and no borrow
    crosses into the next field (Lamport, "Multiple byte processing with
    full-word instructions", CACM 18(8), 1975)."""

    def __init__(self, values: Sequence[int]):
        self.size, (self.packed, self.step) = len(values), _packed(values)
        self.width, self.ones = 8 * self.step, _field_ones(self.size, self.step)
        self.guard, self.full = self.ones << self.width - 1, (1 << self.width) - 1

    def greater(self, x: int, y: int) -> int:
        return ((x | self.guard) - y - self.ones) >> self.width - 1 & self.ones

    def moved(self, shift: int) -> int:
        """Field c holds the value at code c + ``shift``: 0 below the space."""
        x = self.packed
        return x >> shift * self.width if shift > 0 else x << -shift * self.width

    def bits(self, flags: int) -> int:
        """The lowest bit of each field of ``flags`` as a bitset, bit k for
        code k: big-endian, the highest code first, as ``int(…, 2)`` reads."""
        raw = flags.to_bytes(self.size * self.step, "big")[self.step - 1::self.step]
        return int(raw.translate(_BIT_DIGITS), 2)


def _digit_range(codec: ProfileCodec, player: int, low: int, high: int, width: int = 1) -> int:
    """The codes whose digit ``player`` lies in [low, high), as a mask of
    ``width`` bits per code: one block per period of the digit, doubled
    into place."""
    weight, choices = codec.place_weights[player], codec.strategy_counts[player]
    size, period = codec.num_profiles * width, weight * choices * width
    mask = ((1 << (high - low) * weight * width) - 1) << low * weight * width
    while period < size:
        mask |= mask << period
        period *= 2
    return mask & ((1 << size) - 1)


def _step_masks(codec: ProfileCodec, player: int, width: int = 1) -> list[tuple[int, int]]:
    """``(d, mask)`` for each step d = b − a ≠ 0 of ``player``, ascending:
    the codes whose digit a keeps a + d in [0, k), ``width`` bits per code."""
    k = codec.strategy_counts[player]
    return [(d, _digit_range(codec, player, max(0, -d), min(k, k - d), width))
            for d in chain(range(1 - k, 0), range(1, k))]


def _improvement_unions(fields: _Fields, codec: ProfileCodec, player: int) -> list:
    """For each step d, the codes c that allow it where the value at
    c + d·w_p exceeds the value at c: one shift, one packed comparison and
    one AND with the step's mask."""
    w, greater = codec.place_weights[player], fields.greater
    return [(d * w, fields.bits(greater(fields.moved(d * w), fields.packed)) & mask)
            for d, mask in _step_masks(codec, player)]


def _best_response_unions(fields: _Fields, codec: ProfileCodec, player: int) -> list:
    """For each step d, the codes c below their line's maximum where
    c + d·w_p is not. The maximum is a running maximum over the values
    moved by each step, masked to the codes that allow it: where a moved
    value exceeds it, a whole-field mask swaps the moved value in."""
    w, best = codec.place_weights[player], fields.packed
    for d, mask in _step_masks(codec, player, fields.width):
        moved = fields.moved(d * w) & mask
        best ^= (best ^ moved) & fields.greater(moved, best) * fields.full
    below = fields.bits(fields.greater(best, fields.packed))
    return [(d * w, below & ~(below >> d * w if d > 0 else below << -d * w) & mask)
            for d, mask in _step_masks(codec, player)]


# The one place the edge semantics is decided, as a per-row rule and a
# whole-space rule side by side. The per-row rule takes a player's current
# strategy and row, and returns the strategies it may move to, ascending:
# every strict improvement, or the maximizers when they improve on it. The
# whole-space rule gives the ``move_unions`` pairs of one player.
_TARGETS = {EdgeSemantics.IMPROVEMENT: (_improvements, _improvement_unions),
            EdgeSemantics.BEST_RESPONSE: (_best_responses, _best_response_unions)}


class StateGraph:
    """View of a game's state graph under one edge semantics."""

    def __init__(self, game: SuccinctGame, semantics: EdgeSemantics = EdgeSemantics.IMPROVEMENT):
        self.game = game
        self.semantics = semantics
        self.codec = game.codec
        self._targets = _TARGETS[semantics][0]

    def improving_moves(self, profile: Profile, origin: Origin | None = None) -> Moves:
        """Qualifying moves in canonical order (ascending player, strategy),
        with the rows they were found from.

        With the ``origin`` of a move into ``profile`` (the generator's moves,
        the mover, its old strategy), the generator's rows and moves are the
        start. A row never depends on its own player's strategy, so the
        mover's row is copied and only its moves are recomputed. The game's
        ``reprice_rows`` steps the other rows to ``profile`` and names the
        players whose rows changed; every other player keeps its moves.
        Without an origin every row is evaluated.
        """
        game = self.game
        deviations, targets = game.deviation_utilities, self._targets
        if origin is None:
            rows = [deviations(profile, player) for player in range(game.num_players)]
            players, moves = range(game.num_players), Moves()
        else:
            before, mover, old = origin
            rows = before.rows.copy()
            players = {mover, *game.reprice_rows(profile, rows, mover, old)}
            moves = Moves(m for m in before if m[0] not in players)
        for player in players:
            row = rows[player]
            for s in targets(profile[player], row):
                moves.append((player, s, row[s]))
        moves.sort()  # copied and recomputed moves interleave by player
        moves.rows = rows
        return moves


@dataclass
class Closure:
    """One Tarjan pass over everything reachable from some roots.

    A state is a profile of a forward closure (or a vertex given to
    ``sccs``); the whole profile space is searched on bitsets instead
    (``space_sinks``). ``states`` are in discovery order, the first root
    first, and ``index`` maps each to its position. ``successors[k]`` lists
    the positions of state k's successors in the order the successor
    function gave them (for a ``StateGraph``, canonical move order).
    ``components`` are in completion order, members in discovery order;
    ``sinks`` are the components no edge leaves. A pass is never cut: at its
    cap it raises ``CapExceededError``. It is either whole (``exhausted``)
    or stopped at the first component without the first root. A stopped pass
    has whole ``states`` and ``index``, recorded edges that stay inside
    ``states``, and exactly one component, a sink of the whole graph.
    """

    states: list
    exhausted: bool
    components: list[list]
    sinks: list[list]
    successors: list[list[int]]
    index: dict

    def __len__(self) -> int:
        return len(self.states)

    @property
    def edges(self) -> int:
        """The arcs recorded: every arc of the closure when it is exhausted."""
        return sum(map(len, self.successors))

    @property
    def start_in_sink(self) -> bool:
        """Whether a forward closure's start lies in a sink: exactly when
        everything it reaches reaches it back, i.e. the whole closure is one
        SCC. A stopped closure holds a sink without the start: False."""
        return self.exhausted and len(self.components) == 1


_DONE = -1  # low-link of a state whose component has completed


def _tarjan(roots: Iterable, successors: Callable[[object], list], cap: int | None = None,
            stop_at_foreign_sink: bool = False) -> Closure:
    """The one traversal of forward closures: iterative Tarjan (1972) from
    each unvisited root.

    ``successors`` runs exactly once per state, and each edge is recorded as
    it is resolved; a tree edge when its child is discovered. An edge leaves
    its component exactly when it ends in a component that has already
    completed, so sinks are found in the same pass: each DFS frame carries a
    "leaves" flag and hands it to its parent while the two share a component.

    The first component to complete is always a sink. With
    ``stop_at_foreign_sink`` the pass ends there, unexhausted, unless that
    component holds the first root. A state past ``cap`` raises ``CapExceededError``.
    """
    states: list = []
    index: dict = {}
    out: list[list[int]] = []  # recorded successors, by discovery number
    low: list[int] = []  # by discovery number
    stack: list[int] = []  # Tarjan's stack of discovery numbers, ascending
    components: list[list] = []
    sinks: list[list] = []
    for root in roots:
        if root in index:
            continue
        work: list[list] = []  # DFS frames: [discovery number, successor iterator, leaves]
        new = root
        while new is not None or work:
            if new is not None:
                k = len(states)
                if cap is not None and k >= cap:
                    raise CapExceededError(f"forward closure hit the cap of {cap} states", cap)
                if work:
                    out[work[-1][0]].append(k)
                index[new] = k
                states.append(new)
                out.append([])
                low.append(k)
                stack.append(k)
                work.append([k, iter(successors(new)), False])
                new = None
            frame = work[-1]
            k = frame[0]
            recorded = out[k]
            for w in frame[1]:
                j = index.get(w)
                if j is None:
                    new = w
                    break
                recorded.append(j)
                if low[j] == _DONE:
                    frame[2] = True
                elif j < low[k]:
                    low[k] = j
            if new is not None:
                continue
            work.pop()
            if low[k] == k:
                cut = bisect_left(stack, k)
                members = stack[cut:]
                del stack[cut:]
                for j in members:
                    low[j] = _DONE
                component = [states[j] for j in members]
                components.append(component)
                if not frame[2]:
                    sinks.append(component)
                if stop_at_foreign_sink and members[0] != 0:
                    return Closure(states, False, components, sinks, out, index)
                if work:
                    work[-1][2] = True
            else:
                parent = work[-1]
                low[parent[0]] = min(low[parent[0]], low[k])
                parent[2] = parent[2] or frame[2]
    return Closure(states, True, components, sinks, out, index)


def forward_closure(graph: StateGraph, start: Profile, cap: int | None = None,
                    stop_at_foreign_sink: bool = False) -> Closure:
    """All profiles reachable from ``start``, in discovery order, with their SCCs.

    With ``stop_at_foreign_sink`` the pass ends at the first sink that does
    not hold ``start``, which is enough for ``Closure.start_in_sink``. Past
    ``cap`` states (default 10^7) the pass raises ``CapExceededError``.
    """
    if cap is None:
        cap = 10**7
    # the pass owns its origins: one per generated, unexpanded profile, popped on expansion
    origins: dict[Profile, Origin] = {}
    expanded: set[Profile] = set()

    def successors(profile: Profile) -> list[Profile]:
        moves = graph.improving_moves(profile, origins.pop(profile, None))
        expanded.add(profile)
        out = []
        for p, s, _ in moves:
            child = profile[:p] + (s,) + profile[p + 1:]
            if child not in expanded:
                origins[child] = (moves, p, profile[p])
            out.append(child)
        return out

    return _tarjan([tuple(start)], successors, cap, stop_at_foreign_sink)


def bitset_codes(bits: int) -> list[int]:
    """The profile codes a bitset holds (bit k is code k), ascending."""
    return list(compress(count(), bin(bits)[:1:-1].encode().translate(_DIGIT_BITS)))


def move_unions(graph: StateGraph, cap: int | None = None) -> list[tuple[int, int]]:
    """The whole state graph as ``(d·w_p, union)`` pairs, for each player p
    with two or more strategies and each step d = b − a ≠ 0, both ascending:
    the union is the bitset of the codes from which p moves from some a to
    a + d, each to its code plus d·w_p. So a code's moves, read in list
    order, are in canonical order. Memory: Σ_p 2(k_p − 1) unions of N/8
    bytes for N profiles; above ``cap`` (default 2^26) profiles the pass
    raises ``CapExceededError`` before it reads a row. The rule of the
    semantics packs p's utility at every code (``code_utilities``) once as
    fields of one int (``_Fields``) and compares it with itself moved by
    d·w_p codes: packed comparisons over the whole space, no line layout.
    """
    codec = graph.codec
    size, cap = codec.num_profiles, 2**26 if cap is None else cap
    if size > cap:
        raise CapExceededError(f"profile space has {size} states, above the cap of {cap}")
    rule = _TARGETS[graph.semantics][1]
    unions: list[tuple[int, int]] = []
    for player, choices in enumerate(codec.strategy_counts):
        if choices > 1:
            unions.extend(rule(_Fields(graph.game.code_utilities(player)), codec, player))
    return unions


def _grow(moves: list[tuple[int, int]], reach: int, within: int) -> tuple[int, int]:
    """``reach`` grown to its fixpoint inside ``within``, which holds it, and
    the last frontier: the codes the last growing round added, else the
    start. A round adds, for each ``(shift, union)`` of ``moves``, the codes
    k of the union with k + shift in the frontier: the unions of
    ``move_unions`` grow a reach backward, their targets forward."""
    frontier = reach
    while True:
        new = 0
        for shift, union in moves:
            new |= union & (frontier >> shift if shift > 0 else frontier << -shift)
        new &= within & ~reach
        if not new:
            return reach, frontier
        reach |= new
        frontier = new


def _equilibria(unions: list[tuple[int, int]], size: int) -> int:
    """The codes no union holds: the pure Nash equilibria."""
    return ((1 << size) - 1) ^ reduce(or_, (union for _, union in unions), 0)


def _equilibria_and_stuck(unions: list[tuple[int, int]], size: int) -> tuple[int, int]:
    equilibria, everything = _equilibria(unions, size), (1 << size) - 1
    return equilibria, everything ^ _grow(unions, equilibria, everything)[0]


def backward_reach(graph: StateGraph, cap: int | None = None) -> tuple[int, int]:
    """``(equilibria, stuck)`` over ``move_unions``: the pure Nash
    equilibria, the codes no union holds, and the profiles that reach none,
    as bitsets. A sink of two or more profiles holds no equilibrium and
    reaches nothing else, and a profile that reaches no equilibrium reaches
    such a sink, so ``stuck != 0`` answers has-non-singleton under either
    semantics. The reach grows back from the equilibria, one round per step
    of the largest distance to one: 13 at most on the seed-1 benchmark tables.
    """
    return _equilibria_and_stuck(move_unions(graph, cap), graph.codec.num_profiles)


def space_sinks(graph: StateGraph, cap: int | None = None
                ) -> tuple[list[tuple[int, int]], list[list[int]]]:
    r"""``(unions, sinks)``: the ``move_unions`` and every sink of the whole
    state graph as its codes ascending, sinks by their lowest code.

    The equilibria are the one-profile sinks; the others lie in R, the stuck
    codes of ``backward_reach`` not yet settled, which no move leaves. A
    round takes a pivot v in R, its forward reach F and backward reach B
    within R; if F ⊆ B, F is a sink. B leaves R either way, and R stays
    closed (Xie and Beerel, IEEE TCAD 19(10), 2000). The pivot is R's lowest
    code, or after F ⊄ B, where every sink v reaches lies in F \ B, the
    lowest code of F's last forward frontier outside B (Gentilini, Piazza
    and Policriti, SODA 2003), else of F \ B.
    """
    unions = move_unions(graph, cap)
    equilibria, rest = _equilibria_and_stuck(unions, graph.codec.num_profiles)
    # each move's targets, which lead back to its sources by the shift
    targets = [(-shift, union << shift if shift > 0 else union >> -shift)
               for shift, union in unions]
    found = [[k] for k in bitset_codes(equilibria)]
    nearer = rest  # the next pivot is its lowest code
    while rest:
        pivot = nearer & -nearer
        forward, frontier = _grow(targets, pivot, rest)
        backward = _grow(unions, pivot, rest)[0]
        rest ^= backward
        beyond = forward & ~backward
        if beyond:
            nearer = frontier & ~backward or beyond
        else:
            found.append(bitset_codes(forward))
            nearer = rest
    found.sort()
    return unions, found


def _restricted(vertices: Sequence, successors: Callable[[object], Iterable]) -> Closure:
    allowed = set(vertices)
    return _tarjan(vertices, lambda v: [w for w in successors(v) if w in allowed])


def sccs(vertices: Sequence, successors: Callable[[object], Iterable]) -> list[list]:
    """Tarjan partition, iterative, restricted to the given vertex set.

    Components come out in completion order, deterministic for a fixed
    vertex order; vertices inside each component keep discovery order.
    """
    return _restricted(vertices, successors).components


def bottom_sccs(vertices: Sequence, successors: Callable) -> list[list]:
    """Components with no edge leaving them inside the vertex set."""
    return _restricted(vertices, successors).sinks


def sinks(
    game: SuccinctGame,
    semantics: EdgeSemantics = EdgeSemantics.IMPROVEMENT,
    cap: int | None = None,
) -> list[frozenset[Profile]]:
    """All sink equilibria of the full state graph, each a set of profiles,
    by their lowest code (``space_sinks``); at least one always exists."""
    decode = game.codec.decode
    return [frozenset(map(decode, codes))
            for codes in space_sinks(StateGraph(game, semantics), cap)[1]]


def in_a_sink(
    game: SuccinctGame,
    profile: Profile,
    semantics: EdgeSemantics = EdgeSemantics.IMPROVEMENT,
    cap: int | None = None,
) -> bool:
    """Whether the profile lies in a sink equilibrium. A False needs only the
    states explored until the first sink without the profile completes; a
    pass that reaches ``cap`` states first raises ``CapExceededError``."""
    profile = game.validate_profile(profile)
    graph = StateGraph(game, semantics)
    return forward_closure(graph, profile, cap, stop_at_foreign_sink=True).start_in_sink


def pure_ne_search(game: SuccinctGame, cap: int | None = None) -> tuple[int | None, int]:
    """The first pure Nash equilibrium in search order, as a profile code or
    None, and the number of search nodes visited.

    A depth-first search assigns players in ascending order, each strategy
    in ascending order, and keeps the partial profile as a code whose
    unplaced digits are 0. Each node places one strategy. A player's row
    reads only the players it interacts with
    (``SuccinctGame.interacting_players``), so once the highest of those is
    placed the row is final: the player is checked there, and the branch is
    pruned at the first player who can improve. The first full assignment
    is the equilibrium. ``cap`` bounds the nodes; past it the search stops
    with ``CapExceededError``.

    Whether a player can improve depends only on the strategies of the
    players it interacts with, itself included: its key. Each check's answer
    is kept under that key for the rest of the call, so a player reads its
    row once per assignment of its neighbours and keeps at most the product
    of their strategy counts. A player that interacts with every player
    placed when it is due (a table's players, a hub) would be keyed by the
    whole partial profile, which the search never visits twice: it keeps no
    memo and is checked directly.
    """
    if cap is None:
        cap = 2**26
    n, weights, counts = game.num_players, game.codec.place_weights, game.codec.strategy_counts
    # due[q]: (player, place weight, strategy count, projection, memo) of each
    # player checked once q is placed. The projection reads the player's key
    # from `tried`, which holds one more than each placed player's strategy;
    # it is None when the player's neighbours are every player placed.
    due: list[list[tuple]] = [[] for _ in counts]
    for p, near in enumerate(game.interacting_players()):
        last = max(near)
        projection = None if len(near) > last else itemgetter(*near)
        due[last].append((p, weights[p], counts[p], projection, {}))
    key, read = game.code_reader()
    tried = [0] * n  # strategies of each placed player tried so far
    player = code = nodes = 0
    while 0 <= player < n:
        s = tried[player]
        if s == counts[player]:  # every strategy failed: back up
            code -= (s - 1) * weights[player]
            tried[player] = 0
            player -= 1
            continue
        if nodes == cap:
            raise CapExceededError(f"pure equilibrium search hit the cap of {cap} nodes", nodes)
        nodes += 1
        tried[player] = s + 1
        if s:
            code += weights[player]
        # the branch ends at the first due player some strategy improves on;
        # a memo hit reads no row, and the code is decoded at most once
        at = None
        for p, weight, choices, projection, memo in due[player]:
            if projection:
                k = projection(tried)
                stable = memo.get(k)
                if stable is not None:
                    if stable:
                        continue
                    break
            if at is None:
                at = key(code)
            devs = read(at, p)
            stable = max(devs) <= devs[code // weight % choices]
            if projection:
                memo[k] = stable
            if not stable:
                break
        else:
            player += 1
    return (code if player == n else None), nodes


def pure_equilibrium(game: SuccinctGame, cap: int | None = None) -> tuple[int | None, int]:
    """The lexicographically least pure Nash equilibrium, as a profile code
    or None, and the states explored; the one place has-pure picks its
    engine. A ``TableGame`` holds every utility already: its equilibria are
    the codes no improvement union holds (best response has the same), and
    the least is picked digit by digit, player 0 first, one AND per
    (player, strategy) tried. Its states explored are the profiles, which
    ``cap`` bounds as in ``move_unions``. Other classes run ``pure_ne_search``.
    """
    if not isinstance(game, TableGame):
        return pure_ne_search(game, cap)
    codec = game.codec
    codes = _equilibria(move_unions(StateGraph(game), cap), codec.num_profiles)
    for player, choices in enumerate(codec.strategy_counts):
        for s in range(choices - 1):
            if kept := codes & _digit_range(codec, player, s, s + 1):
                codes = kept
                break
    return (codes.bit_length() - 1 if codes else None), codec.num_profiles


def has_singleton_sink(game: SuccinctGame, cap: int | None = None) -> bool:
    """True when some profile is a pure Nash equilibrium (``pure_equilibrium``)."""
    return pure_equilibrium(game, cap)[0] is not None


def has_non_singleton_sink(
    game: SuccinctGame,
    semantics: EdgeSemantics = EdgeSemantics.IMPROVEMENT,
    cap: int | None = None,
) -> bool:
    """Whether some sink of the full state graph has two or more profiles:
    whether some profile reaches no pure equilibrium (``backward_reach``)."""
    return backward_reach(StateGraph(game, semantics), cap)[1] != 0


@dataclass(frozen=True)
class FirstImprover:
    pass


@dataclass(frozen=True)
class RandomImprover:
    seed: int = 0


@dataclass(frozen=True)
class PriorityList:
    order: tuple[int, ...]


class WalkOutcome(Enum):
    REACHED_SINK_STATE = "reached-sink-state"
    STILL_MOVING = "still-moving"
    INCONCLUSIVE = "inconclusive"  # the cap cut the final in-sink check


@dataclass
class WalkResult:
    states: list[Profile]
    moves: list[tuple[int, int]]  # (player, new strategy)
    outcome: WalkOutcome

    @property
    def final(self) -> Profile:
        return self.states[-1]


def simulate_walk(
    graph: StateGraph,
    start: Profile,
    policy=FirstImprover(),
    max_steps: int = 1000,
    closure_cap: int | None = None,
) -> WalkResult:
    """Walk the state graph from ``start`` under a move-selection policy.

    Deterministic given the policy (and its seed). The walk stops early at a
    pure NE; otherwise, after ``max_steps`` moves the final profile is
    classified by an `in_a_sink` check, inconclusive when it hits the cap.
    """
    start = graph.game.validate_profile(start)
    if isinstance(policy, PriorityList) and not set(policy.order) <= set(range(len(start))):
        raise ValueError(f"priority list {list(policy.order)} names a player outside the game")
    rng = random.Random(policy.seed) if isinstance(policy, RandomImprover) else None
    states = [start]
    moves: list[tuple[int, int]] = []
    current, origin = start, None
    for _ in range(max_steps):
        # in canonical order; each step starts from the move into it
        options = graph.improving_moves(current, origin)
        if not options:
            return WalkResult(states, moves, WalkOutcome.REACHED_SINK_STATE)
        if isinstance(policy, FirstImprover):
            player, strategy, _ = options[0]
        elif isinstance(policy, RandomImprover):
            player, strategy, _ = rng.choice(options)
        elif isinstance(policy, PriorityList):
            # the first listed mover's lowest strategy: min keeps the first minimum
            order = policy.order
            player, strategy, _ = min(
                options, key=lambda m: order.index(m[0]) if m[0] in order else len(order))
        else:
            raise TypeError(f"unknown policy {policy!r}")
        origin = (options, player, current[player])
        current = current[:player] + (strategy,) + current[player + 1:]
        states.append(current)
        moves.append((player, strategy))
    try:
        in_sink = in_a_sink(graph.game, current, graph.semantics, closure_cap)
    except CapExceededError:
        return WalkResult(states, moves, WalkOutcome.INCONCLUSIVE)
    return WalkResult(states, moves, (WalkOutcome.REACHED_SINK_STATE if in_sink
                                      else WalkOutcome.STILL_MOVING))

